"""The four classification strategies sharing one network core.

``baseline``
    Purely data-driven: cross-entropy training, plain forward at inference.
``semantic_loss``
    Trains with cross-entropy plus a weighted knowledge-consistency penalty
    (see :mod:`nesyhar.losses`); inference is a plain forward pass with no
    knowledge access at all, which is the whole point of the strategy.
``symbolic_features``
    Adds the binary consistency vector as an extra network input (concatenated
    with the branch features); the reasoner must run at inference too.
``context_refinement``
    Trains like the baseline; at inference, probabilities of
    context-inconsistent activities are zeroed and the rest renormalized.

Training follows a fixed protocol: Adam, shuffled mini-batches, a validation
loss evaluated after every epoch, and early stopping that restores the
parameters of the best validation epoch.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .context import DiscretizationConfig
from .data import EncodedDataset
from .knowledge import ContextVocabulary, KnowledgeModel
from .losses import LossConfig, combined_loss_batch
from .nn import AdamState, NetworkSpec, Parameters, adam_step, backward, build_network, forward
from .records import from_mapping

__all__ = [
    "STRATEGY_KINDS",
    "REASONING_KINDS",
    "StrategyConfig",
    "TrainConfig",
    "TrainedModel",
    "TrainingDiverged",
    "EarlyStopping",
    "consistency_masks",
    "train",
    "refine",
    "predict",
    "predict_many",
    "save_model",
    "load_model",
]

STRATEGY_KINDS = ("baseline", "semantic_loss", "symbolic_features", "context_refinement")
# the kinds that consult the reasoner at inference
REASONING_KINDS = ("symbolic_features", "context_refinement")


class TrainingDiverged(RuntimeError):
    """The training loss became non-finite."""


@dataclass(frozen=True)
class StrategyConfig:
    """Which strategy to run and its loss, ``LossConfig()`` unless kind is semantic_loss."""

    kind: str
    loss: LossConfig = LossConfig()

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"strategy kind must be one of {STRATEGY_KINDS}, "
                             f"got {self.kind!r}")
        if self.kind == "semantic_loss" and self.loss.semantic_type == "none":
            raise ValueError("semantic_loss strategy needs a semantic loss type")
        if self.kind != "semantic_loss" and self.loss != LossConfig():
            raise ValueError("semantic_type/alpha only apply to semantic_loss")

    @property
    def searches_alpha(self) -> bool:
        """A semantic_loss strategy with alpha 0 takes its alpha from a grid
        search; it cannot train with alpha 0, which is plain cross-entropy."""
        return self.kind == "semantic_loss" and self.loss.alpha == 0.0

    @property
    def label(self) -> str:
        if self.kind == "semantic_loss":
            alpha = "grid" if self.searches_alpha else f"{self.loss.alpha:g}"
            return f"semantic_loss[{self.loss.semantic_type},a={alpha}]"
        return self.kind

    def training_signature(self) -> tuple:
        """Strategies with equal signatures train identical networks
        (baseline and context_refinement differ only at inference)."""
        return (self.loss, self.kind == "symbolic_features")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization protocol: epoch cap 200, batch size 32, patience 5.

    ``val_metric`` optionally replaces the default early-stopping signal (the
    training loss evaluated on the validation set); it receives the epoch
    number and current parameters and must return a value to minimize.
    """

    epochs: int = 200
    batch_size: int = 32
    patience: int = 5
    learning_rate: float = 1e-3
    val_metric: Callable[[int, Parameters], float] | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ValueError("epochs, batch_size and patience must be positive")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")


class EarlyStopping:
    """Track the best value seen; stop after `patience` non-improving updates."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.stale = 0

    def update(self, value: float) -> bool:
        """Record one epoch's value; returns True when it improved the best."""
        if value < self.best:
            self.best = value
            self.stale = 0
            return True
        self.stale += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.stale >= self.patience


@dataclass
class TrainedModel:
    """A trained network plus everything needed to run it on new windows."""

    kind: str
    spec: NetworkSpec
    params: Parameters
    activities: tuple[str, ...]
    vocabulary: ContextVocabulary
    loss: LossConfig
    window_seconds: float | None = None
    discretization: DiscretizationConfig | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"kind must be one of {STRATEGY_KINDS}, got {self.kind!r}")
        if self.spec.infusion != (self.kind == "symbolic_features"):
            raise ValueError("spec has an infusion input iff kind is symbolic_features")


def consistency_masks(knowledge: KnowledgeModel, dataset: EncodedDataset) -> np.ndarray:
    """Per-sample consistency vectors, an (n, k) bool matrix: one reasoner query
    over the dataset's encoded context rows."""
    if knowledge.vocabulary != dataset.vocabulary:
        raise ValueError("dataset and knowledge model use different context vocabularies")
    if knowledge.activity_names != dataset.activities:
        raise ValueError("dataset and knowledge model list the activities in a different "
                         "order or set")
    return knowledge.consistent_activities(dataset.context)


def train(train_data: EncodedDataset, val_data: EncodedDataset, strategy: StrategyConfig,
          spec: NetworkSpec, seed: int, knowledge: KnowledgeModel | None = None,
          cfg: TrainConfig = TrainConfig()) -> TrainedModel:
    """Train one strategy; returns the parameters of the best validation epoch.

    train_data/val_data are the caller's split (the evaluation harness uses
    90/10). Baseline and context_refinement train with cross-entropy only;
    semantic_loss adds the configured penalty; symbolic_features feeds the
    consistency vector through the infusion input. ``knowledge`` is required
    exactly when one of these two reads the consistency masks.
    """
    if len(train_data) == 0 or len(val_data) == 0:
        raise ValueError("training and validation sets must be non-empty")

    k = len(train_data.activities)
    counts = np.bincount(train_data.labels, minlength=k)
    if (counts == 0).any():
        missing = [train_data.activities[i] for i in np.flatnonzero(counts == 0)]
        warnings.warn(f"training split has no samples for: {', '.join(missing)}",
                      stacklevel=2)

    spec = replace(spec, infusion=strategy.kind == "symbolic_features")
    needs_masks = spec.infusion or strategy.loss.needs_masks
    if needs_masks and knowledge is None:
        raise ValueError(f"strategy {strategy.kind!r} needs a knowledge model for training")
    train_masks = consistency_masks(knowledge, train_data) if needs_masks else None
    val_masks = consistency_masks(knowledge, val_data) if needs_masks else None
    train_infusion = train_masks if spec.infusion else None
    val_infusion = val_masks if spec.infusion else None

    params = build_network(spec, seed)
    opt_state = AdamState.fresh(params)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    stopper = EarlyStopping(cfg.patience)
    best_params = params.copy()
    best_epoch = 0
    n = len(train_data)
    steps = 0
    epoch = 0

    def validation_loss() -> float:
        probs, _ = forward(params, spec, val_data.phone, val_data.watch, val_data.context,
                           infusion=val_infusion, mode="infer")
        value, _ = combined_loss_batch(probs, val_data.labels, val_masks, strategy.loss)
        return value

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            probs, trace = forward(
                params, spec, train_data.phone[idx], train_data.watch[idx],
                train_data.context[idx],
                infusion=None if train_infusion is None else train_infusion[idx],
                mode="train", rng=rng)
            value, grad_probs = combined_loss_batch(
                probs, train_data.labels[idx],
                None if train_masks is None else train_masks[idx], strategy.loss)
            if not math.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch}, step {steps}")
            grads = backward(trace, grad_probs)
            params, opt_state = adam_step(params, grads, opt_state, lr=cfg.learning_rate)
            steps += 1
        monitored = (cfg.val_metric(epoch, params) if cfg.val_metric is not None
                     else validation_loss())
        if stopper.update(monitored):
            best_params = params.copy()
            best_epoch = epoch
        if stopper.should_stop:
            break

    return TrainedModel(
        kind=strategy.kind, spec=spec, params=best_params, loss=strategy.loss,
        activities=train_data.activities, vocabulary=train_data.vocabulary,
        meta={"epochs_run": epoch, "steps_run": steps, "best_epoch": best_epoch,
              "best_val_loss": stopper.best, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def refine(probs: np.ndarray, consistent) -> tuple[np.ndarray, bool]:
    """Zero out context-inconsistent probabilities and renormalize.

    Returns (refined distribution, fallback flag). When no consistent activity
    exists or the consistent probability mass is zero, the input is returned
    unchanged and the fallback flag is set.
    """
    probs = np.asarray(probs, dtype=np.float64)
    mask = np.asarray(consistent, dtype=bool)
    mass = probs[mask].sum()
    if mass <= 0.0:
        return probs.copy(), True
    out = np.where(mask, probs, 0.0)
    return out / mass, False


def predict_many(model: TrainedModel, data: EncodedDataset,
                 knowledge: KnowledgeModel | None = None):
    """Classify every sample of a dataset.

    Returns (predicted indices, probability matrix, per-sample diagnostics).
    Baseline and semantic_loss models never touch the knowledge model; the
    other two kinds require it. Diagnostics carry the consistency vector (and,
    for context_refinement, the fallback flag) whenever the reasoner ran.
    """
    masks = None
    if model.kind in REASONING_KINDS:
        if knowledge is None:
            raise ValueError(f"{model.kind!r} models need a knowledge model at inference")
        masks = consistency_masks(knowledge, data)
    probs, _ = forward(model.params, model.spec, data.phone, data.watch, data.context,
                       infusion=masks if model.spec.infusion else None,
                       mode="infer")

    if masks is None:
        diagnostics: list[dict] = [{} for _ in range(len(data))]
    else:   # each row's vector is a row of one converted matrix
        diagnostics = [{"consistent": row} for row in masks.astype(np.int64)]
    if model.kind == "context_refinement":
        for i in range(len(data)):
            probs[i], diagnostics[i]["fallback"] = refine(probs[i], masks[i])
    return probs.argmax(axis=1), probs, diagnostics


def predict(model: TrainedModel, window: EncodedDataset,
            knowledge: KnowledgeModel | None = None):
    """Classify a one-window dataset (see :meth:`EncodedDataset.sample`);
    returns row 0 of :func:`predict_many`."""
    if len(window) != 1:
        raise ValueError(f"predict takes a one-window dataset, got {len(window)} windows")
    preds, probs, diagnostics = predict_many(model, window, knowledge)
    return int(preds[0]), probs[0], diagnostics[0]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_VERSION = 1


def save_model(model: TrainedModel, path: str | Path) -> Path:
    """Write a checkpoint (.npz); the parameter arrays round-trip bit-exactly.
    Its JSON ``meta`` holds every other field, the vocabulary as its dimensions."""
    path = Path(path)
    meta = {f.name: getattr(model, f.name) for f in fields(model) if f.name != "params"}
    meta.update(version=_CHECKPOINT_VERSION, vocabulary=model.vocabulary.dimensions)
    arrays = {f"param:{name}": value for name, value in model.params.items()}
    np.savez(path, meta=json.dumps(meta, sort_keys=True, default=asdict), **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_model(path: str | Path) -> TrainedModel:
    """Load a checkpoint written by :func:`save_model`; every field must be
    present and of its declared type, and the parameter names and shapes must
    match the network spec, whose layout the loaded parameters take."""
    with np.load(path, allow_pickle=False) as archive:
        try:
            meta = json.loads(str(archive["meta"]))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: no JSON meta record: {exc}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: meta must be a JSON object, got {meta!r}")
        if meta.get("version") != _CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {meta.get('version')}")
        params = {name[len("param:"):]: archive[name] for name in archive.files
                  if name.startswith("param:")}
    record = {key: {"dimensions": value} if key == "vocabulary" else value
              for key, value in meta.items() if key != "version"}
    try:
        # the parameters are set below, in the spec's layout
        model = from_mapping(TrainedModel, record, fixed={"params": None}, complete=True)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    shapes = {name: shape for name, shape, _ in model.spec.parameter_shapes()}
    if params.keys() != shapes.keys():
        name = sorted(params.keys() ^ shapes.keys())[0]
        raise ValueError(f"{path}: parameter {name!r} is "
                         + ("missing" if name in shapes else "not in the network spec"))
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ValueError(f"{path}: parameter {name!r} has shape {params[name].shape}, "
                             f"the network spec expects {shape}")
    model.params = Parameters.pack({name: params[name] for name in shapes})
    return model

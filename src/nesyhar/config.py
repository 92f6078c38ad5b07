"""Experiment configuration: one YAML file holds every knob of a run.

Validation is exhaustive: all problems in a config are collected and reported
together before aborting, so a config can be fixed in one pass. Each check sits
where its value is read: ``evaluation.grid_problems`` for the grid, seeds and
folds, ``StrategyConfig`` for a strategy; ``prepare_experiment`` makes the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

import yaml

from .context import DiscretizationConfig
from .data import SyntheticConfig, UnrealizableRulesError, UserDataset
from .evaluation import ExperimentError, grid_problems
from .knowledge import KnowledgeModel
from .losses import LossConfig
from .nn import BranchSpec, NetworkSpec
from .records import fits, from_mapping
from .strategies import StrategyConfig, TrainConfig

__all__ = ["NetworkConfig", "ExperimentConfig", "load_config", "synthesize",
           "prepare_experiment", "file_in_the_way"]

DEFAULT_ALPHA_GRID = tuple(range(1, 31))


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters; input sizes come from the data at run time."""

    phone_filters: tuple[int, ...] = (32, 64, 96)
    phone_kernels: tuple[int, ...] = (24, 16, 8)
    watch_filters: tuple[int, ...] = (32, 64, 96)
    watch_kernels: tuple[int, ...] = (16, 8, 4)
    pool: int = 4
    branch_dense: int = 128
    context_dense: int = 8
    trunk_dense: int = 256
    dropout: float = 0.1

    def to_spec(self, phone_channels: int, phone_length: int, watch_channels: int,
                watch_length: int, context_size: int, classes: int) -> NetworkSpec:
        return NetworkSpec(
            phone=BranchSpec(phone_channels, phone_length, self.phone_filters,
                             self.phone_kernels, self.pool, self.branch_dense),
            watch=BranchSpec(watch_channels, watch_length, self.watch_filters,
                             self.watch_kernels, self.pool, self.branch_dense),
            context_size=context_size, classes=classes,
            context_dense=self.context_dense, trunk_dense=self.trunk_dense,
            dropout=self.dropout)


@dataclass
class ExperimentConfig:
    """Validated contents of one experiment YAML file."""

    rules: Path
    output_dir: Path
    strategies: list[StrategyConfig]
    fractions: list[float]
    repetitions: int
    seeds: list[int]
    fold_k: int = 1
    fold_seed: int = 0
    window_seconds: float = 4.0
    dataset_dir: Path | None = None
    synthetic: SyntheticConfig | None = None
    alpha_grid: tuple[int, ...] = DEFAULT_ALPHA_GRID
    network: NetworkConfig = field(default_factory=NetworkConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    discretization: DiscretizationConfig = field(default_factory=DiscretizationConfig)


# ExperimentConfig's fields, with one `dataset` section for where the data comes from
_TOP_LEVEL_KEYS = ({f.name for f in fields(ExperimentConfig)} - {"dataset_dir", "synthetic"}
                   | {"dataset"})


def _section(where: str, cls: type, raw: Any, errors: list[str], **fixed: Any) -> Any:
    """Build dataclass ``cls`` from one YAML mapping, or record why not."""
    try:
        return from_mapping(cls, raw, fixed=fixed)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


def _path(raw: Any, key: str, errors: list[str]) -> Path | None:
    """The path a config key names, or None after recording why it names none."""
    if isinstance(raw, str) and raw:
        return Path(raw)
    errors.append(f"{key}: required, as a non-empty path")
    return None


def file_in_the_way(directory: Path) -> Path | None:
    """The file that keeps ``directory`` from being made: the nearest of it and
    its parents that exists, when that is not a directory."""
    for path in (directory, *directory.parents):
        if path.exists():
            return None if path.is_dir() else path
    return None


def _parse_strategies(raw: Any, errors: list[str]) -> list[StrategyConfig]:
    strategies: list[StrategyConfig] = []
    if not isinstance(raw, list) or not raw:
        errors.append("strategies: must be a non-empty list")
        return strategies
    for i, entry in enumerate(raw):
        where = f"strategies[{i}]"
        if not isinstance(entry, Mapping) or "kind" not in entry:
            errors.append(f"{where}: each strategy needs a 'kind'")
            continue
        loss = {key: value for key, value in entry.items() if key != "kind"}
        try:
            strategies.append(StrategyConfig(entry["kind"], from_mapping(LossConfig, loss)))
        except (TypeError, ValueError) as exc:
            errors.append(f"{where}: {exc}")
    return strategies


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment YAML file; raises an ExperimentError
    listing every problem found."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ExperimentError(["config file not found"], str(path)) from None
    except yaml.YAMLError as exc:
        raise ExperimentError([f"not valid YAML: {exc}"], str(path)) from None
    if not isinstance(raw, Mapping):
        raise ExperimentError(["top level must be a mapping"], str(path))

    errors: list[str] = []
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        errors.append(f"unknown top-level key(s): {sorted(unknown)}")

    rules = _path(raw.get("rules"), "rules", errors)
    if rules is not None and not rules.is_file():
        errors.append(f"rules: file not found: {rules}")
    output_dir = _path(raw.get("output_dir"), "output_dir", errors)
    if output_dir is not None and (blocker := file_in_the_way(output_dir)) is not None:
        errors.append(f"output_dir: not a directory: {blocker}")

    window_seconds = raw.get("window_seconds", 4.0)
    if not fits(window_seconds, float) or not 0 < window_seconds < math.inf:
        errors.append("window_seconds: must be a positive, finite number")
        window_seconds = 4.0

    dataset = raw.get("dataset")
    dataset_dir = synthetic = None
    if not isinstance(dataset, Mapping) or len(set(dataset) & {"directory", "synthetic"}) != 1:
        errors.append("dataset: must contain exactly one of 'directory' or 'synthetic'")
    elif "directory" in dataset:
        dataset_dir = _path(dataset["directory"], "dataset.directory", errors)
        if dataset_dir is not None and not dataset_dir.is_dir():
            errors.append(f"dataset.directory: not a directory: {dataset_dir}")
    else:
        synthetic = _section("dataset.synthetic", SyntheticConfig, dataset["synthetic"],
                             errors, window_seconds=float(window_seconds))

    strategies = _parse_strategies(raw.get("strategies"), errors)
    fractions = raw.get("fractions", [1.0])
    repetitions = raw.get("repetitions", 5)
    seeds = raw.get("seeds")
    alpha_grid = raw.get("alpha_grid", list(DEFAULT_ALPHA_GRID))
    fold_k = raw.get("fold_k", 1)
    fold_seed = raw.get("fold_seed", 0)
    errors += grid_problems(strategies, fractions, repetitions, seeds, alpha_grid,
                            fold_k, fold_seed)

    network = _section("network", NetworkConfig, raw.get("network", {}), errors)
    training = _section("training", TrainConfig, raw.get("training", {}), errors,
                        val_metric=None)  # a callable hook
    discretization = _section("discretization", DiscretizationConfig,
                              raw.get("discretization", {}), errors)

    if errors:
        raise ExperimentError(errors, str(path))
    return ExperimentConfig(
        rules=rules, output_dir=output_dir, strategies=strategies,
        fractions=[float(f) for f in fractions], repetitions=repetitions,
        seeds=list(seeds), fold_k=fold_k, fold_seed=fold_seed,
        window_seconds=float(window_seconds), dataset_dir=dataset_dir,
        synthetic=synthetic, alpha_grid=tuple(alpha_grid), network=network,
        training=training, discretization=discretization)


def synthesize(cfg: ExperimentConfig, knowledge: KnowledgeModel) -> list[UserDataset]:
    """The config's synthetic user datasets, or an ExperimentError naming ``rules``
    when the generator cannot realize what the rules declare."""
    from .data import generate_synthetic  # looked up at call time, for perfbench's tracer

    try:
        return generate_synthetic(knowledge, cfg.synthetic, cfg.discretization)
    except UnrealizableRulesError as exc:
        raise ExperimentError([f"rules: {exc}"]) from None


def prepare_experiment(cfg: ExperimentConfig) -> tuple[KnowledgeModel, dict, NetworkSpec]:
    """Rules, encoded users and network spec of an experiment, or an ExperimentError."""
    # looked up at call time, so that perfbench's tracer sees these calls
    from .data import encode_user_datasets, load_dataset
    from .knowledge import load_knowledge

    knowledge = load_knowledge(cfg.rules)
    datasets = (synthesize(cfg, knowledge) if cfg.synthetic is not None
                else load_dataset(cfg.dataset_dir))
    encoded = encode_user_datasets(datasets, knowledge, cfg.window_seconds, cfg.discretization)
    if not encoded:
        raise ExperimentError(["dataset: no usable windows"])
    (first_user, first), *rest = encoded.items()
    problems = []   # the network is sized by the first user's windows
    for user, ds in rest:
        for stream in ("phone", "watch"):
            want, got = getattr(first, stream).shape[1:], getattr(ds, stream).shape[1:]
            if got != want:
                problems.append(f"dataset.directory: user {user}'s {stream} windows have "
                                f"shape {got}, but user {first_user}'s have {want}")
    if problems:
        raise ExperimentError(problems)
    try:
        spec = cfg.network.to_spec(*first.phone.shape[1:], *first.watch.shape[1:],
                                   first.context.shape[1], len(first.activities))
    except (TypeError, ValueError) as exc:
        raise ExperimentError([f"network: {exc}"]) from None
    return knowledge, encoded, spec

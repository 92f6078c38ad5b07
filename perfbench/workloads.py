"""The benchmark's workloads: grid, ingest and classify.

Each workload is a single closed-loop client: it sends its next request only
after the previous one returned. ``setup()`` builds the inputs from the seed
(and is timed as set-up), ``run_pass()`` is one timed unit of work, and every
output check that fails is appended to ``failures``. README.md in this
directory says why each workload exists and which layers it bypasses.

Import this module only after the environment is pinned (see run.py).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from nesyhar import cli, config, context, data, evaluation, knowledge, losses, strategies

import spans

HERE = Path(__file__).resolve().parent
KINDS = ("baseline", "semantic_loss", "symbolic_features", "context_refinement")
REPORT_FILES = ("cells.csv", "summary.csv", "summary.txt")

# ingest: single-user recordings long enough for segment's quadratic cost to show
INGEST_USERS = 3
INGEST_WINDOWS_PER_USER = 1000
# classify: models trained for a fixed number of epochs on users disjoint from
# the held-out set; predict() is timed on SINGLE_WINDOWS windows per kind
CLASSIFY_TRAIN_USERS = 4
CLASSIFY_TEST_USERS = 8
CLASSIFY_WINDOWS_PER_USER = 200
CLASSIFY_EPOCHS = 4
CLASSIFY_SINGLE_WINDOWS = 150


def derive_seed(seed: int, *tag: int) -> int:
    """An independent 32-bit generator seed for one use of the run's seed."""
    return int(np.random.SeedSequence([seed, *tag]).generate_state(1)[0])


def quick_network() -> config.NetworkConfig:
    """The network of grid.yaml, shared by the classify workload."""
    raw = yaml.safe_load((HERE / "grid.yaml").read_text(encoding="utf-8"))["network"]
    return config.NetworkConfig(**{k: tuple(v) if isinstance(v, list) else v
                                   for k, v in raw.items()})


def macs_per_window(spec) -> int:
    """Multiply-accumulates of one forward pass for one window, computed from
    the spec: conv layers from their output lengths, dense layers from their
    weight shapes. Pooling, activations and softmax are not counted."""
    conv_out = {}
    for name, branch in (("phone", spec.phone), ("watch", spec.watch)):
        pooled = branch.stage_lengths(name)
        for i, kernel in enumerate(branch.kernels):
            length_in = branch.length if i == 0 else pooled[i - 1]
            conv_out[f"{name}.conv{i}.w"] = length_in - kernel + 1
    total = 0
    for name, shape, _ in spec.parameter_shapes():
        if name in conv_out:
            total += conv_out[name] * int(np.prod(shape))
        elif name.endswith(".w"):
            total += shape[0] * shape[1]
    return total


@dataclass
class PassResult:
    """One timed pass. ``windows / busy_s`` is the pass's throughput; each
    latency is one request of the workload, in milliseconds, grouped by
    request class."""

    wall_s: float
    windows: int
    busy_s: float
    latencies_ms: dict[str, list[float]]
    attempted: int
    failed: int


@dataclass
class Workload:
    checkout: Path
    workdir: Path
    seed: int
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    macs_per_window: int = 0

    name = ""
    # the names the end-to-end metrics go by on this workload
    aliases = {}

    def setup(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Called once after set-up, before the first timed pass."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def stop(self) -> None:
        """Called once after the last pass; runs the checks that compare passes."""


@dataclass
class Grid(Workload):
    """``nesyhar run`` on grid.yaml, one run per pass."""

    name = "grid"
    aliases = {"wall_s": "grid_wall_s", "windows_per_s": "grid_train_windows_per_s",
               "latency": "train_step"}

    def setup(self) -> None:
        raw = yaml.safe_load((HERE / "grid.yaml").read_text(encoding="utf-8"))
        raw["rules"] = str(self.checkout / "configs" / "synthetic.rules")
        raw["output_dir"] = str(self.workdir / "grid-out")
        raw["dataset"]["synthetic"]["seed"] = derive_seed(self.seed, 0)
        raw["seeds"] = [derive_seed(self.seed, 1)]
        raw["fold_seed"] = derive_seed(self.seed, 2)
        self.config_path = self.workdir / "grid.yaml"
        self.config_path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
        self.cfg = config.load_config(self.config_path)
        model = knowledge.load_knowledge(self.cfg.rules)
        syn = self.cfg.synthetic
        self.spec = self.cfg.network.to_spec(
            phone_channels=syn.phone_channels,
            phone_length=int(round(syn.window_seconds * syn.phone_rate)),
            watch_channels=syn.watch_channels,
            watch_length=int(round(syn.window_seconds * syn.watch_rate)),
            context_size=model.vocabulary.size, classes=model.num_activities)
        self.macs_per_window = macs_per_window(self.spec)
        users = [f"user{u:02d}" for u in range(syn.users)]
        plan = evaluation.make_folds(users, self.cfg.fold_k, self.cfg.fold_seed)
        self.fold_windows = [len(f.test_users) * syn.windows_per_user for f in plan.folds]
        self.classes = model.num_activities

    def start(self) -> None:
        # grid_train_windows_per_s is defined over the time spent in train(),
        # so train() is timed at its evaluation call site even untraced.
        self.train_tracer = spans.Tracer("grid-train")
        self.train_tracer.install([spans.call_site("nesyhar.evaluation", "train")])
        self.reports: list[bytes] = []

    def stop(self) -> None:
        self.train_tracer.uninstall()
        digests = {hashlib.sha256(r).hexdigest() for r in self.reports}
        if len(digests) != 1:
            self.failures.append(f"grid: {len(digests)} different reports from "
                                 f"{len(self.reports)} identical runs")
        self.details["report_sha256"] = sorted(digests)

    def run_pass(self) -> PassResult:
        self.train_tracer.spans.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(["run", "--config", str(self.config_path)])
            wall = time.perf_counter() - t0
        if code != 0:
            self.failures.append(f"grid: nesyhar run exited with {code}")
        out = self.cfg.output_dir
        self.reports.append(b"".join((out / f).read_bytes() for f in REPORT_FILES))
        attempted, failed = self._check_cells(out / "cells.csv")
        calls = [(end - start, attrs) for _, _, _, start, end, _, attrs
                 in self.train_tracer.spans]
        return PassResult(
            wall_s=wall, windows=sum(a["windows"] * a["epochs"] for _, a in calls),
            busy_s=sum(dt for dt, _ in calls),
            # one sample per training step: each train() call's time spread evenly
            # over its steps
            latencies_ms={"step": [1000.0 * dt / a["steps"] for dt, a in calls
                                   for _ in range(a["steps"])]},
            attempted=attempted, failed=failed)

    def _check_cells(self, path: Path) -> tuple[int, int]:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        expected = (len(self.cfg.strategies) * len(self.cfg.fractions)
                    * self.cfg.repetitions * len(self.fold_windows))
        if len(rows) != expected:
            self.failures.append(f"grid: {len(rows)} cells, expected {expected}")
        failed = 0
        for row in rows:
            where = f"grid cell {row['strategy']}/{row['fraction']}/fold {row['fold']}"
            if row["error"]:
                failed += 1
                self.failures.append(f"{where}: {row['error']}")
                continue
            confusion = np.array(json.loads(row["confusion"]))
            windows = self.fold_windows[int(row["fold"])]
            if confusion.shape != (self.classes, self.classes) or confusion.sum() != windows:
                self.failures.append(f"{where}: confusion {confusion.shape} sums to "
                                     f"{confusion.sum()}, fold has {windows} test windows")
        return len(rows), failed


@dataclass
class Ingest(Workload):
    """generate_synthetic -> write_dataset -> load_dataset -> encode_user_datasets
    of one user's recording per pass, the users in turn; no training."""

    name = "ingest"
    aliases = {"wall_s": "ingest_user_s", "windows_per_s": "ingest_windows_per_s",
               "latency": "ingest_user"}

    def setup(self) -> None:
        self.model = knowledge.load_knowledge(self.checkout / "configs" / "synthetic.rules")
        self.disc = context.DiscretizationConfig()
        self.configs = [data.SyntheticConfig(users=1, windows_per_user=INGEST_WINDOWS_PER_USER,
                                             violation_rate=0.05,
                                             seed=derive_seed(self.seed, 10, u))
                        for u in range(INGEST_USERS)]

    def start(self) -> None:
        self.passes = 0

    def run_pass(self) -> PassResult:
        """One recording, the next user's in turn (the recordings are the same
        size, so every pass does the same work)."""
        u = self.passes % len(self.configs)
        self.passes += 1
        cfg = self.configs[u]
        directory = self.workdir / f"ingest-{u}"
        t0 = time.perf_counter()
        try:
            generated = data.generate_synthetic(self.model, cfg, self.disc)
            data.write_dataset(generated, directory)
            loaded = data.load_dataset(directory)
            encoded = data.encode_user_datasets(loaded, self.model, cfg.window_seconds,
                                                self.disc)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted
            self.failures.append(f"ingest user {u}: {type(exc).__name__}: {exc}")
            wall = time.perf_counter() - t0
            return PassResult(wall_s=wall, windows=0, busy_s=wall,
                              latencies_ms={"user": [1000.0 * wall]}, attempted=1, failed=1)
        wall = time.perf_counter() - t0
        failed = 0 if self._check(u, generated, loaded, encoded) else 1
        return PassResult(wall_s=wall, windows=sum(len(e) for e in encoded.values()),
                          busy_s=wall, latencies_ms={"user": [1000.0 * wall]},
                          attempted=1, failed=failed)

    def _check(self, u, generated, loaded, encoded) -> bool:
        problems = []
        if [d.user for d in loaded] != [d.user for d in generated]:
            problems.append("loaded users differ from generated ones")
        for gen, back in zip(generated, loaded):
            for kind in ("phone", "watch"):
                a, b = getattr(gen, kind), getattr(back, kind)
                if (a.rate, a.channels) != (b.rate, b.channels) or not np.array_equal(
                        a.values, b.values):
                    problems.append(f"{kind} stream of {gen.user} changed in the round trip")
            if gen.annotations != back.annotations:
                problems.append(f"annotations of {gen.user} changed in the round trip")
            if gen.context_records != back.context_records:
                problems.append(f"context records of {gen.user} changed in the round trip")
            enc = encoded.get(gen.user)
            if enc is None:
                problems.append(f"{gen.user} produced no windows")
                continue
            names = self.model.activity_names
            labels = [names.index(a.activity)
                      for a in sorted(gen.annotations, key=lambda a: a.t_start)]
            if enc.labels.tolist() != labels:
                problems.append(f"{gen.user}: {len(enc)} encoded windows do not match "
                                f"{len(labels)} generated annotations")
        self.failures.extend(f"ingest user {u}: {p}" for p in problems)
        return not problems


@dataclass
class Classify(Workload):
    """Deployment inference under domino.rules: batch predict_many over a
    held-out set, then one predict() per window, for each kind."""

    name = "classify"
    aliases = {"wall_s": "classify_batch_pass_s", "windows_per_s": "classify_windows_per_s",
               "latency": "predict"}

    def setup(self) -> None:
        kb = knowledge.load_knowledge(self.checkout / "configs" / "domino.rules")
        disc = context.DiscretizationConfig()
        syn = data.SyntheticConfig(users=CLASSIFY_TRAIN_USERS + CLASSIFY_TEST_USERS,
                                   windows_per_user=CLASSIFY_WINDOWS_PER_USER,
                                   violation_rate=0.05, seed=derive_seed(self.seed, 20))
        encoded = data.encode_user_datasets(data.generate_synthetic(kb, syn, disc), kb,
                                            syn.window_seconds, disc)
        names = sorted(encoded)
        train_names, test_names = names[:CLASSIFY_TRAIN_USERS], names[CLASSIFY_TRAIN_USERS:]
        if len(names) != syn.users or set(train_names) & set(test_names):
            self.failures.append("classify: users missing or shared by train and test")
        pool = data.EncodedDataset.concatenate([encoded[n] for n in train_names])
        test = data.EncodedDataset.concatenate([encoded[n] for n in test_names])
        train_part, val_part = evaluation.split_train_validation(
            pool, 0.1, seed=derive_seed(self.seed, 21))
        spec = quick_network().to_spec(
            phone_channels=test.phone.shape[1], phone_length=test.phone.shape[2],
            watch_channels=test.watch.shape[1], watch_length=test.watch.shape[2],
            context_size=test.context.shape[1], classes=len(test.activities))
        # patience == epochs: a fixed number of steps whatever the seed
        train_cfg = strategies.TrainConfig(epochs=CLASSIFY_EPOCHS, patience=CLASSIFY_EPOCHS)
        models = {}
        for kind, loss in (("baseline", losses.LossConfig()),
                           ("semantic_loss", losses.LossConfig("All", 1.0)),
                           ("symbolic_features", losses.LossConfig())):
            models[kind] = strategies.train(
                train_part, val_part, strategies.StrategyConfig(kind, loss), spec,
                seed=derive_seed(self.seed, 22), knowledge=kb, cfg=train_cfg)
        # context_refinement trains exactly like the baseline (as in the grid)
        models["context_refinement"] = dataclasses.replace(models["baseline"],
                                                           kind="context_refinement")
        previous = getattr(self, "models", None)
        if previous is not None and any(
                not np.array_equal(previous[k].params[p], models[k].params[p])
                for k in KINDS for p in models[k].params):
            self.failures.append("classify: set-up trained different models from one seed")
        self.kb, self.test, self.models = kb, test, models
        self.macs_per_window = macs_per_window(spec)
        self.single_idx = np.linspace(0, len(test) - 1, CLASSIFY_SINGLE_WINDOWS).astype(int)
        self.details["test_windows"] = len(test)
        self.details["distinct_test_states"] = len({r.tobytes() for r in test.context})

    def start(self) -> None:
        self.batch_out: dict = {}
        self.single_out: dict = {}

    def run_pass(self) -> PassResult:
        attempted = failed = 0
        batch_s = 0.0
        for kind in KINDS:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = strategies.predict_many(self.models[kind], self.test, self.kb)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted
                failed += 1
                self.failures.append(f"classify predict_many {kind}: {exc}")
                continue
            batch_s += time.perf_counter() - t0
            self.batch_out.setdefault(kind, out)
        latencies = {kind: [] for kind in KINDS}
        for kind in KINDS:
            model = self.models[kind]
            for i in self.single_idx:
                sample = self.test.sample(int(i))
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out = strategies.predict(model, sample, self.kb)
                except Exception as exc:  # noqa: BLE001 - a failed request is counted
                    failed += 1
                    self.failures.append(f"classify predict {kind} window {i}: {exc}")
                    continue
                latencies[kind].append(1000.0 * (time.perf_counter() - t0))
                self.single_out.setdefault((kind, int(i)), out)
        return PassResult(wall_s=batch_s, windows=len(KINDS) * len(self.test), busy_s=batch_s,
                          latencies_ms=latencies, attempted=attempted, failed=failed)

    def stop(self) -> None:
        for (kind, i), (pred, probs, diag) in self.single_out.items():
            if kind not in self.batch_out:
                continue
            b_preds, b_probs, b_diag = self.batch_out[kind]
            consistent, b_consistent = diag.get("consistent"), b_diag[i].get("consistent")
            if (pred != b_preds[i] or not np.allclose(probs, b_probs[i], rtol=1e-9, atol=1e-12)
                    or (consistent is None) != (b_consistent is None)
                    or (consistent is not None and not np.array_equal(consistent, b_consistent))):
                self.failures.append(f"classify {kind}: predict() disagrees with "
                                     f"predict_many row {i}")
        if "context_refinement" in self.batch_out:
            _, probs, diag = self.batch_out["context_refinement"]
            mask = np.array([d["consistent"] for d in diag], dtype=bool)
            refined = ~np.array([d["fallback"] for d in diag])
            if not np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
                self.failures.append("classify context_refinement: rows do not sum to 1")
            if np.any(probs[refined] * ~mask[refined]):
                self.failures.append("classify context_refinement: inconsistent entries "
                                     "are not 0")
            self.details["refine_fallbacks"] = int((~refined).sum())
        self._check_reasoner_calls()

    def _check_reasoner_calls(self) -> None:
        """baseline and semantic_loss must not consult the reasoner at inference
        (the paper's deployment claim); the other two kinds must."""
        counter = spans.Tracer("reasoner-check")
        site = spans.call_site("nesyhar.knowledge", "KnowledgeModel.consistent_activities")
        subset = self.test.subset(np.arange(min(50, len(self.test))))
        calls = {}
        counter.install([site])
        try:
            for kind in KINDS:
                before = len(counter.spans)
                strategies.predict_many(self.models[kind], subset, self.kb)
                strategies.predict(self.models[kind], subset.sample(0), self.kb)
                calls[kind] = len(counter.spans) - before
        finally:
            counter.uninstall()
        self.details["reasoner_calls_at_inference"] = calls
        for kind in ("baseline", "semantic_loss"):
            if calls[kind]:
                self.failures.append(f"classify {kind}: {calls[kind]} reasoner calls at "
                                     "inference, expected 0")
        for kind in ("symbolic_features", "context_refinement"):
            if not calls[kind]:
                self.failures.append(f"classify {kind}: the reasoner was never called")


WORKLOADS = {w.name: w for w in (Grid, Ingest, Classify)}

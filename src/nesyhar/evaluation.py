"""Leave-k-users-out evaluation: folds, metrics, the experiment grid, reports.

The harness trains every (strategy, training fraction, repetition, fold) cell
and records its confusion matrix on the fold's held-out users. Per repetition,
fold confusions are pooled and summarized as macro F1; aggregates report the
mean and a 95% confidence interval across repetitions (normal approximation,
mean +- 1.96 * s / sqrt(n)).

Conventions, stated once: confusion rows are true activities, columns are
predictions. A class with zero true and zero predicted instances contributes
F1 = 0 and is flagged. The 90/10 train/validation split (``VAL_FRACTION``) is
per-window within the training users. Within a (fold, fraction), strategies
that train alike share one network: baseline and context_refinement do, and a
semantic_loss strategy whose alpha is also an alpha-search candidate shares
that candidate's network. The checks on an experiment, each naming its config
key, are ``grid_problems`` and the fold_k-vs-users check of ``make_folds``.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import EncodedDataset, downsample_training
from .knowledge import KnowledgeModel
from .losses import LossConfig
from .nn import NetworkSpec
from .records import fits
from .strategies import StrategyConfig, TrainConfig, TrainedModel, predict_many, train

log = logging.getLogger(__name__)

__all__ = [
    "ExperimentError",
    "grid_problems",
    "Fold",
    "FoldPlan",
    "ExperimentCell",
    "ExperimentReport",
    "make_folds",
    "confusion_matrix",
    "per_class_f1",
    "macro_f1",
    "confidence_interval",
    "split_train_validation",
    "run_experiment",
    "grid_search_alpha",
    "write_report",
    "format_report_table",
]


@dataclass(frozen=True)
class Fold:
    test_users: tuple[str, ...]
    train_users: tuple[str, ...]


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[Fold, ...]


class ExperimentError(ValueError):
    """Problems that keep an experiment from running, each naming its config key."""

    def __init__(self, problems: list[str], source: str = "experiment"):
        self.problems = problems
        lines = "\n".join(f"  - {p}" for p in problems)
        super().__init__(f"{source}: {len(problems)} config problem(s):\n{lines}")


def _fold_problems(fold_k: int, fold_seed: int, users: int | None = None) -> list[str]:
    """Checks on fold_k and fold_seed; given the user count, that fold_k leaves training users."""
    problems = []
    if not fits(fold_k, int) or fold_k < 1:
        problems.append("fold_k: must be a positive integer")
    elif users is not None and fold_k >= users:
        problems.append(f"fold_k: {fold_k} leaves no training users among the "
                        f"{users} with usable windows")
    if not fits(fold_seed, int) or fold_seed < 0:
        problems.append("fold_seed: must be an integer >= 0")
    return problems


def grid_problems(strategies: Sequence[StrategyConfig], fractions: Sequence[float],
                  repetitions: int, seeds: Sequence[int], alpha_grid: Sequence[int],
                  fold_k: int, fold_seed: int) -> list[str]:
    """The problems of a strategy x fraction x repetition x fold grid (raw YAML values
    too), each naming its config key: ``load_config`` lists them, ``run_experiment`` raises."""
    def all_fit(values, scalar: type) -> bool:
        return isinstance(values, (list, tuple)) and all(fits(v, scalar) for v in values)

    problems = []
    if not (all_fit(fractions, float) and fractions and all(0 < f <= 1 for f in fractions)):
        problems.append("fractions: must be a non-empty list of numbers in (0, 1]")
        fractions = []
    # results are keyed by label and fraction: a repeat would be pooled and reported twice
    for name, values in (("strategies", [s.label for s in strategies]), ("fractions", fractions)):
        repeated = sorted({str(v) for v in values if values.count(v) > 1})
        if repeated:
            problems.append(f"{name}: {', '.join(repeated)} listed more than once")
    if not fits(repetitions, int) or repetitions < 1:
        problems.append("repetitions: must be a positive integer")
    if not all_fit(seeds, int) or not seeds or min(seeds) < 0:
        problems.append("seeds: must be a non-empty list of integers >= 0")
    elif fits(repetitions, int) and len(seeds) < repetitions:
        problems.append(f"seeds: need at least one per repetition "
                        f"({len(seeds)} given, {repetitions} repetitions)")
    if not all_fit(alpha_grid, int) or any(a < 1 for a in alpha_grid):
        problems.append("alpha_grid: must be a list of positive integers "
                        "(the no-penalty comparison is the baseline strategy)")
    elif not alpha_grid and (searching := [s.label for s in strategies if s.searches_alpha]):
        problems.append(f"alpha_grid: empty, but {', '.join(searching)} needs a positive "
                        "alpha or an alpha grid to search (alpha 0 trains plain cross-entropy)")
    return problems + _fold_problems(fold_k, fold_seed)


def make_folds(users: Sequence[str], k: int, seed: int) -> FoldPlan:
    """Partition users into ceil(n/k) disjoint test groups of size k.

    Every user appears in exactly one test group (the last group may be
    smaller); the grouping is a seeded shuffle, deterministic per seed.
    """
    order = list(users)
    problems = _fold_problems(k, seed, len(order))
    if problems:
        raise ExperimentError(problems)
    np.random.default_rng(seed).shuffle(order)
    folds = []
    for start in range(0, len(order), k):
        test = tuple(sorted(order[start:start + k]))
        rest = tuple(sorted(u for u in order if u not in test))
        folds.append(Fold(test_users=test, train_users=rest))
    return FoldPlan(folds=tuple(folds))


def confusion_matrix(y_true, y_pred, k: int) -> np.ndarray:
    """k x k integer matrix; rows are true activities, columns predictions."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred differ in length")
    matrix = np.zeros((k, k), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def per_class_f1(confusion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class F1 plus a flag mask for classes with zero support and zero
    predictions (their F1 is 0 by convention)."""
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1] or confusion.size == 0:
        raise ValueError(f"confusion matrix must be square and non-empty, "
                         f"got shape {confusion.shape}")
    diag = np.diag(confusion).astype(np.float64)
    true_totals = confusion.sum(axis=1)
    pred_totals = confusion.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_totals > 0, diag / pred_totals, 0.0)
        recall = np.where(true_totals > 0, diag / true_totals, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    absent = (true_totals == 0) & (pred_totals == 0)
    return f1, absent


def macro_f1(confusion: np.ndarray) -> float:
    """Unweighted mean of per-class F1 scores."""
    f1, absent = per_class_f1(confusion)
    if absent.any():
        log.warning("macro F1 includes %d class(es) with zero support and zero "
                    "predictions, counted as 0", int(absent.sum()))
    return float(f1.mean())


def confidence_interval(values: Sequence[float]) -> tuple[float, float]:
    """Mean and half-width of the 95% normal-approximation confidence interval.

    Uses mean +- 1.96 * (sample stddev / sqrt(n)).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError("confidence interval needs at least 2 values")
    return float(values.mean()), float(1.96 * values.std(ddof=1) / np.sqrt(values.size))


def split_train_validation(data: EncodedDataset, val_fraction: float,
                           seed: int) -> tuple[EncodedDataset, EncodedDataset]:
    """Per-window split of pooled training-user data (90/10 by default usage)."""
    n = len(data)
    n_val = max(1, int(round(val_fraction * n)))
    if n_val >= n:
        raise ValueError("validation split would consume the whole training set")
    perm = np.random.default_rng(seed).permutation(n)
    return data.subset(np.sort(perm[n_val:])), data.subset(np.sort(perm[:n_val]))


@dataclass(frozen=True)
class ExperimentCell:
    strategy: str
    fraction: float
    repetition: int
    fold: int
    confusion: np.ndarray | None
    alpha: float | None = None
    error: str | None = None

    @property
    def test_windows(self) -> int:
        return 0 if self.confusion is None else int(self.confusion.sum())


@dataclass
class ExperimentReport:
    fractions: tuple[float, ...]
    strategies: tuple[str, ...]
    cells: list[ExperimentCell] = field(default_factory=list)
    rep_scores: dict = field(default_factory=dict)   # (strategy, fraction) -> list[float]

    def summary(self, strategy: str, fraction: float) -> tuple[list, float, float]:
        """The repetition scores, their mean and 95% CI half-width; one score
        has half-width 0, and none (every cell failed) reads nan, nan."""
        scores = self.rep_scores.get((strategy, fraction), [])
        if len(scores) >= 2:
            return (scores, *confidence_interval(scores))
        return (scores, scores[0], 0.0) if scores else (scores, float("nan"), float("nan"))


VAL_FRACTION = 0.1


@dataclass(frozen=True)
class _FoldJob:
    """Everything one (repetition, fold) worker needs; must be picklable."""

    rep: int
    fold_idx: int
    seed: int
    pool: EncodedDataset
    test: EncodedDataset
    strategies: tuple[StrategyConfig, ...]
    fractions: tuple[float, ...]
    spec: NetworkSpec
    knowledge: KnowledgeModel | None
    train_cfg: TrainConfig
    alpha_grid: tuple[int, ...]


def _trainer(train_data: EncodedDataset, val_data: EncodedDataset, spec: NetworkSpec,
             knowledge: KnowledgeModel | None, train_cfg: TrainConfig, seed: int):
    """strategy -> its trained model. Each training signature trains once and
    its network is handed out under the asking strategy's kind."""
    models: dict = {}

    def model_for(strategy: StrategyConfig) -> TrainedModel:
        signature = strategy.training_signature()
        if signature not in models:
            models[signature] = train(train_data, val_data, strategy, spec, seed=seed,
                                      knowledge=knowledge, cfg=train_cfg)
        return replace(models[signature], kind=strategy.kind)
    return model_for


def _run_fold_job(job: _FoldJob) -> list[ExperimentCell]:
    """All strategy x fraction cells of one (repetition, fold); cells are
    returned in (fraction, strategy) order."""
    k = len(job.pool.activities)
    split_seed, sample_seed, train_seed = (
        int(np.random.SeedSequence(job.seed, spawn_key=(job.fold_idx, i)).generate_state(1)[0])
        for i in range(3))
    train_full, val_data = split_train_validation(job.pool, VAL_FRACTION, seed=split_seed)
    cells: list[ExperimentCell] = []
    for f_idx, fraction in enumerate(job.fractions):
        train_data = downsample_training(train_full, fraction, seed=sample_seed + f_idx)
        model_for = _trainer(train_data, val_data, job.spec, job.knowledge, job.train_cfg,
                             train_seed)
        for strategy in job.strategies:
            try:
                alpha = strategy.loss.alpha if strategy.kind == "semantic_loss" else None
                if strategy.searches_alpha:
                    alpha, _, model = _search_alpha(strategy, job.alpha_grid, val_data,
                                                    model_for)
                else:
                    model = model_for(strategy)
                preds, _, _ = predict_many(model, job.test, job.knowledge)
                confusion = confusion_matrix(job.test.labels, preds, k)
                cells.append(ExperimentCell(strategy.label, fraction, job.rep,
                                            job.fold_idx, confusion, alpha=alpha))
            except Exception as exc:  # noqa: BLE001 - a cell may fail, run continues
                log.exception("cell %s failed",
                              (strategy.label, fraction, job.rep, job.fold_idx))
                cells.append(ExperimentCell(strategy.label, fraction, job.rep,
                                            job.fold_idx, None, error=str(exc)))
    return cells


_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _map_in_workers(fn, jobs: list, workers: int) -> list:
    """Map fn over jobs in `workers` spawned processes, each with BLAS pinned to
    one thread so they do not oversubscribe the machine. Forked workers would
    inherit the BLAS thread count this process set up when numpy loaded;
    spawned ones load BLAS anew under the thread variables set here.

    A worker process that dies breaks the pool and every job still in it, so
    each job lost that way runs again alone in a fresh process; if that
    process dies too, the job's result is its BrokenProcessPool error.
    """
    from concurrent.futures.process import BrokenProcessPool

    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        results = _run_in_pool(fn, jobs, workers)
        for i, result in enumerate(results):
            if isinstance(result, BrokenProcessPool):
                results[i] = _run_in_pool(fn, [jobs[i]], 1)[0]
        return results
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _run_in_pool(fn, jobs: list, workers: int) -> list:
    """fn over jobs in one pool of spawned processes, in order; a job the pool
    lost to a dead worker gets the BrokenProcessPool error as its result."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    futures = []
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as executor:
        try:
            for job in jobs:
                futures.append(executor.submit(fn, job))
        except BrokenProcessPool:
            pass            # a worker died already; the jobs not submitted are lost too
        results = []
        for future in futures:
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                results.append(exc)
    lost = BrokenProcessPool("the pool broke before the job was submitted")
    return results + [lost] * (len(jobs) - len(results))


def _lost_job_cells(job: _FoldJob, error: BaseException) -> list[ExperimentCell]:
    """The cells of a job whose worker process died, each recorded as failed."""
    log.error("worker process died running repetition %d, fold %d: %s",
              job.rep, job.fold_idx, error)
    return [ExperimentCell(strategy.label, fraction, job.rep, job.fold_idx, None,
                           error=f"worker process died: {error}")
            for fraction in job.fractions for strategy in job.strategies]


def run_experiment(encoded_by_user: Mapping[str, EncodedDataset],
                   strategies: Sequence[StrategyConfig],
                   fractions: Sequence[float],
                   repetitions: int,
                   fold_k: int,
                   seeds: Sequence[int],
                   spec: NetworkSpec,
                   knowledge: KnowledgeModel | None = None,
                   train_cfg: TrainConfig = TrainConfig(),
                   fold_seed: int = 0,
                   alpha_grid: Sequence[int] = (),
                   workers: int = 1) -> ExperimentReport:
    """Run the full strategy x fraction x repetition x fold grid.

    Fully deterministic given the seed list (one seed per repetition),
    regardless of the worker count: (repetition, fold) jobs are independent
    and their seeding does not depend on scheduling. A failing cell is
    recorded with its error and the run continues; so are all the cells of a
    job whose worker process dies. Strategies with identical training
    signatures share one model per (fold, fraction). A bad grid or fold_k is an
    ExperimentError raised before any training.
    """
    problems = grid_problems(strategies, fractions, repetitions, seeds, alpha_grid,
                             fold_k, fold_seed)
    if problems:
        raise ExperimentError(problems)
    # every kind but the baseline reads the rules, in training or at inference
    if knowledge is None and any(s.kind != "baseline" for s in strategies):
        raise ValueError("knowledge model required by at least one strategy")

    plan = make_folds(sorted(encoded_by_user), fold_k, fold_seed)
    report = ExperimentReport(fractions=tuple(fractions),
                              strategies=tuple(s.label for s in strategies))

    fold_data = []      # (pool, test) per fold, shared by every repetition
    for fold in plan.folds:
        assert not set(fold.test_users) & set(fold.train_users)
        fold_data.append([EncodedDataset.concatenate([encoded_by_user[u] for u in group])
                          for group in (fold.train_users, fold.test_users)])
    jobs = [_FoldJob(rep=rep, fold_idx=fold_idx, seed=int(seeds[rep]), pool=pool, test=test,
                     strategies=tuple(strategies), fractions=tuple(fractions), spec=spec,
                     knowledge=knowledge, train_cfg=train_cfg, alpha_grid=tuple(alpha_grid))
            for rep in range(repetitions) for fold_idx, (pool, test) in enumerate(fold_data)]

    if workers > 1:
        from concurrent.futures.process import BrokenProcessPool

        results = [_lost_job_cells(job, cells) if isinstance(cells, BrokenProcessPool) else cells
                   for job, cells in zip(jobs, _map_in_workers(_run_fold_job, jobs, workers))]
    else:
        results = [_run_fold_job(job) for job in jobs]

    report.cells = [cell for cells in results for cell in cells]
    pooled: dict = {}   # (strategy, fraction, repetition) -> the folds' summed confusion
    for cell in report.cells:
        if cell.confusion is not None:
            key = (cell.strategy, cell.fraction, cell.repetition)
            pooled[key] = pooled.get(key, 0) + cell.confusion
    for label, fraction, rep in sorted(pooled):
        report.rep_scores.setdefault((label, fraction), []).append(
            macro_f1(pooled[label, fraction, rep]))
    return report


def grid_search_alpha(strategy: StrategyConfig, alphas: Sequence[int],
                      train_data: EncodedDataset, val_data: EncodedDataset,
                      spec: NetworkSpec, knowledge: KnowledgeModel, train_cfg: TrainConfig,
                      seed: int) -> tuple[int, dict, TrainedModel]:
    """Pick the alpha with the best validation macro F1; ties to the lowest
    alpha. Returns it, every alpha's score, and the model trained with it.
    Deterministic given the seed."""
    return _search_alpha(strategy, alphas, val_data,
                         _trainer(train_data, val_data, spec, knowledge, train_cfg, seed))


def _search_alpha(strategy: StrategyConfig, alphas: Sequence[int], val_data: EncodedDataset,
                  model_for) -> tuple[int, dict, TrainedModel]:
    """grid_search_alpha over the models model_for trains: it only scores them."""
    if not alphas:
        raise ValueError("alpha grid is empty")
    if strategy.kind != "semantic_loss":
        raise ValueError("alpha grid search only applies to semantic_loss")
    scores, models = {}, {}
    k = len(val_data.activities)
    for alpha in alphas:
        model = models[int(alpha)] = model_for(StrategyConfig(
            strategy.kind, LossConfig(strategy.loss.semantic_type, float(alpha))))
        preds, _, _ = predict_many(model, val_data)
        scores[int(alpha)] = macro_f1(confusion_matrix(val_data.labels, preds, k))
    best = max(sorted(scores), key=lambda a: scores[a])
    return best, scores, models[best]


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------

def format_report_table(report: ExperimentReport) -> str:
    """Human-readable strategies x fractions table, mean F1 with CI half-width."""
    fractions = report.fractions
    header = ["strategy"] + [f"{f * 100:g}%" for f in fractions]
    rows = [header]
    for label in report.strategies:
        row = [label]
        for fraction in fractions:
            scores, mean, half = report.summary(label, fraction)
            row.append("failed" if not scores else f"{mean:.4f}" if len(scores) == 1
                       else f"{mean:.4f} (±{half:.3f})")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
             for row in rows]
    lines.insert(1, "-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, out_dir: str | Path) -> dict[str, Path]:
    """Write cells.csv (every cell), summary.csv (aggregates + per-rep scores),
    and summary.txt (the human-readable table). Deterministic output."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"cells": out_dir / "cells.csv", "summary": out_dir / "summary.csv",
             "table": out_dir / "summary.txt"}

    with open(paths["cells"], "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["strategy", "fraction", "repetition", "fold", "test_windows",
                         "alpha", "error", "confusion"])
        for cell in report.cells:
            writer.writerow([
                cell.strategy, repr(cell.fraction), cell.repetition, cell.fold,
                cell.test_windows,
                "" if cell.alpha is None else repr(float(cell.alpha)),
                cell.error or "",
                "" if cell.confusion is None else json.dumps(cell.confusion.tolist()),
            ])

    with open(paths["summary"], "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["strategy", "fraction", "mean_macro_f1", "ci95_halfwidth",
                         "repetitions", "rep_macro_f1"])
        for label in report.strategies:
            for fraction in report.fractions:
                scores, mean, half = report.summary(label, fraction)
                writer.writerow([label, repr(fraction), repr(mean), repr(half),
                                 len(scores), json.dumps([repr(s) for s in scores])])

    paths["table"].write_text(format_report_table(report), encoding="utf-8")
    return paths

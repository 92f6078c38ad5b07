import hashlib
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import make_encoded
from nesyhar import evaluation
from nesyhar.cli import main as cli_main
from nesyhar.evaluation import (
    ExperimentError,
    confidence_interval,
    confusion_matrix,
    format_report_table,
    grid_search_alpha,
    macro_f1,
    make_folds,
    per_class_f1,
    run_experiment,
    split_train_validation,
    write_report,
)
from nesyhar.losses import LossConfig
from nesyhar.strategies import StrategyConfig, TrainConfig

FAST = TrainConfig(epochs=2, batch_size=16, patience=5)


# ---------------------------------------------------------------------------
# Folds
# ---------------------------------------------------------------------------

def test_leave_one_user_out_folds():
    users = [f"user{i:02d}" for i in range(25)]
    plan = make_folds(users, k=1, seed=0)
    assert len(plan.folds) == 25
    tested = [u for fold in plan.folds for u in fold.test_users]
    assert sorted(tested) == users
    for fold in plan.folds:
        assert not set(fold.test_users) & set(fold.train_users)
        assert len(fold.train_users) == 24


def test_groups_of_five_with_remainder():
    users = [f"u{i}" for i in range(31)]
    plan = make_folds(users, k=5, seed=3)
    assert len(plan.folds) == 7
    sizes = sorted(len(f.test_users) for f in plan.folds)
    assert sizes == [1, 5, 5, 5, 5, 5, 5]
    tested = sorted(u for fold in plan.folds for u in fold.test_users)
    assert tested == sorted(users)


def test_folds_deterministic_and_validated():
    users = ["a", "b", "c"]
    assert make_folds(users, 1, seed=7) == make_folds(users, 1, seed=7)
    with pytest.raises(ValueError):
        make_folds(users, 4, seed=0)
    with pytest.raises(ValueError, match="leaves no training users"):
        make_folds(users, 3, seed=0)
    with pytest.raises(ExperimentError, match="fold_k: must be a positive integer"):
        make_folds(users, 0, seed=0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_macro_f1_perfect():
    assert macro_f1(np.diag([5, 3, 9])) == 1.0


def test_macro_f1_two_class_hand_computed():
    # class 0: precision 8/12, recall 8/10 -> F1 = 0.727273
    # class 1: precision 6/8, recall 6/10 -> F1 = 0.666667
    value = macro_f1(np.array([[8, 2], [4, 6]]))
    assert value == pytest.approx(0.696969696, abs=1e-4)


def test_macro_f1_single_predicted_class_hand_computed():
    # all 20 predictions land on class 0, classes balanced 10/10
    value = macro_f1(np.array([[10, 0], [10, 0]]))
    assert value == pytest.approx((2.0 / 3.0 + 0.0) / 2.0, abs=1e-4)


def test_macro_f1_flags_absent_class():
    f1, absent = per_class_f1(np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]]))
    assert absent.tolist() == [False, False, True]
    assert f1[2] == 0.0
    assert macro_f1(np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]])) == pytest.approx(2 / 3)


def test_macro_f1_permutation_equivariant():
    rng = np.random.default_rng(0)
    confusion = rng.integers(0, 20, size=(4, 4))
    perm = rng.permutation(4)
    permuted = confusion[np.ix_(perm, perm)]
    assert macro_f1(confusion) == pytest.approx(macro_f1(permuted), abs=1e-12)


def test_macro_f1_rejects_bad_input():
    with pytest.raises(ValueError):
        macro_f1(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        macro_f1(np.zeros((0, 0)))


def test_confusion_matrix_counts():
    m = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2], k=3)
    np.testing.assert_array_equal(m, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert m.sum() == 4


def test_confidence_interval_hand_computed():
    mean, half = confidence_interval([0.6, 0.6, 0.6, 0.6, 0.7])
    assert mean == pytest.approx(0.62, abs=1e-12)
    assert half == pytest.approx(0.0392, abs=1e-4)


def test_confidence_interval_identical_values():
    mean, half = confidence_interval([0.5, 0.5, 0.5])
    assert (mean, half) == (0.5, 0.0)


def test_confidence_interval_scales_linearly():
    values = [0.2, 0.4, 0.5, 0.9]
    _, half = confidence_interval(values)
    _, half3 = confidence_interval([3 * v for v in values])
    assert half3 == pytest.approx(3 * half, rel=1e-12)


def test_confidence_interval_needs_two_values():
    with pytest.raises(ValueError):
        confidence_interval([0.5])


# ---------------------------------------------------------------------------
# Split
# ---------------------------------------------------------------------------

def test_split_train_validation(tiny_model, tiny_net_spec):
    data = make_encoded(tiny_model, tiny_net_spec, 100, seed=0)
    train_part, val_part = split_train_validation(data, 0.1, seed=4)
    assert len(train_part) == 90
    assert len(val_part) == 10
    again = split_train_validation(data, 0.1, seed=4)
    np.testing.assert_array_equal(again[1].labels, val_part.labels)


# ---------------------------------------------------------------------------
# Experiment grid
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def encoded_by_user(tiny_model, tiny_net_spec):
    data = make_encoded(tiny_model, tiny_net_spec, 120, seed=11)
    # three users: window i belongs to user i % 3
    return {f"u{u}": data.subset(np.arange(u, len(data), 3)) for u in range(3)}


def test_run_experiment_grid_shape(tiny_model, tiny_net_spec, encoded_by_user):
    strategies = [StrategyConfig("baseline"),
                  StrategyConfig("semantic_loss", LossConfig("All", 2.0))]
    report = run_experiment(
        encoded_by_user, strategies, fractions=[0.5, 1.0], repetitions=2,
        fold_k=1, seeds=[4, 5], spec=tiny_net_spec, knowledge=tiny_model,
        train_cfg=FAST)
    # 2 strategies x 2 fractions x 2 reps x 3 folds
    assert len(report.cells) == 24
    assert all(c.error is None for c in report.cells)
    for label in report.strategies:
        for fraction in (0.5, 1.0):
            assert len(report.rep_scores[(label, fraction)]) == 2
    # each (strategy, fraction, rep) triple tests every window exactly once
    all_windows = sum(len(v) for v in encoded_by_user.values())
    total = sum(c.test_windows for c in report.cells)
    assert total == 2 * 2 * 2 * all_windows


def test_run_experiment_deterministic(tiny_model, tiny_net_spec, encoded_by_user):
    strategies = [StrategyConfig("baseline"), StrategyConfig("context_refinement")]
    kwargs = dict(encoded_by_user=encoded_by_user, strategies=strategies,
                  fractions=[1.0], repetitions=2, fold_k=1, seeds=[1, 2],
                  spec=tiny_net_spec, knowledge=tiny_model, train_cfg=FAST)
    a = run_experiment(**kwargs)
    b = run_experiment(**kwargs)
    assert a.rep_scores == b.rep_scores
    for ca, cb in zip(a.cells, b.cells):
        np.testing.assert_array_equal(ca.confusion, cb.confusion)


def test_run_experiment_independent_of_worker_count(tiny_model, tiny_net_spec, encoded_by_user):
    strategies = [StrategyConfig("baseline"),
                  StrategyConfig("semantic_loss", LossConfig("All", 2.0))]
    kwargs = dict(encoded_by_user=encoded_by_user, strategies=strategies,
                  fractions=[1.0], repetitions=2, fold_k=1, seeds=[1, 2],
                  spec=tiny_net_spec, knowledge=tiny_model, train_cfg=FAST)
    sequential = run_experiment(workers=1, **kwargs)
    parallel = run_experiment(workers=2, **kwargs)
    assert parallel.rep_scores == sequential.rep_scores
    assert len(parallel.cells) == len(sequential.cells)
    for a, b in zip(sequential.cells, parallel.cells):
        assert (a.strategy, a.fraction, a.repetition, a.fold, a.error) == \
               (b.strategy, b.fraction, b.repetition, b.fold, b.error)
        np.testing.assert_array_equal(a.confusion, b.confusion)


def test_workers_run_with_one_blas_thread(monkeypatch):
    from nesyhar.evaluation import _BLAS_THREAD_VARS, _map_in_workers
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert _map_in_workers(os.getenv, list(_BLAS_THREAD_VARS), 2) == ["1", "1", "1"]
    assert os.environ["OMP_NUM_THREADS"] == "4"
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def _exit_on_negative(x):
    # runs in a spawned worker: a negative job kills the worker process outright
    if x < 0:
        os._exit(3)
    return x


def _run_fold_job_dying_on_fold_one(job):
    if job.fold_idx == 1:
        os._exit(3)
    return evaluation._run_fold_job(job)


def test_dead_worker_loses_only_its_own_job():
    from concurrent.futures.process import BrokenProcessPool
    from nesyhar.evaluation import _map_in_workers
    results = _map_in_workers(_exit_on_negative, [1, -3, 2, 4], 2)
    assert [r for i, r in enumerate(results) if i != 1] == [1, 2, 4]
    assert isinstance(results[1], BrokenProcessPool)


def test_run_experiment_records_cells_of_a_dead_worker_as_failed(
        monkeypatch, tiny_model, tiny_net_spec, encoded_by_user):
    kwargs = dict(encoded_by_user=encoded_by_user, fractions=[0.5, 1.0], repetitions=1,
                  fold_k=1, seeds=[1], spec=tiny_net_spec, knowledge=tiny_model,
                  train_cfg=FAST, strategies=[StrategyConfig("baseline"),
                                              StrategyConfig("context_refinement")])
    sequential = run_experiment(workers=1, **kwargs)
    monkeypatch.setattr(evaluation, "_run_fold_job", _run_fold_job_dying_on_fold_one)
    report = run_experiment(workers=2, **kwargs)
    assert len(report.cells) == len(sequential.cells) == 2 * 2 * 3
    for cell, expected in zip(report.cells, sequential.cells):
        assert (cell.strategy, cell.fraction, cell.repetition, cell.fold) == \
               (expected.strategy, expected.fraction, expected.repetition, expected.fold)
        if cell.fold == 1:
            assert cell.confusion is None and cell.error.startswith("worker process died")
        else:
            assert cell.error is None
            np.testing.assert_array_equal(cell.confusion, expected.confusion)


def test_run_experiment_confusion_totals_match_test_windows(
        tiny_model, tiny_net_spec, encoded_by_user):
    report = run_experiment(
        encoded_by_user, [StrategyConfig("baseline")], fractions=[1.0], repetitions=1,
        fold_k=1, seeds=[0], spec=tiny_net_spec, knowledge=None, train_cfg=FAST)
    users = sorted(encoded_by_user)
    by_fold = {c.fold: c for c in report.cells}
    fold_users = {i: f.test_users for i, f in enumerate(make_folds(users, 1, 0).folds)}
    for fold_idx, cell in by_fold.items():
        expected = sum(len(encoded_by_user[u]) for u in fold_users[fold_idx])
        assert cell.test_windows == expected


def test_run_experiment_rejects_semantic_loss_without_alpha_or_grid(
        tiny_model, tiny_net_spec, encoded_by_user):
    with pytest.raises(ValueError, match="alpha grid"):
        run_experiment(
            encoded_by_user, [StrategyConfig("semantic_loss", LossConfig("All"))],
            fractions=[1.0], repetitions=1, fold_k=1, seeds=[0], spec=tiny_net_spec,
            knowledge=tiny_model, train_cfg=FAST, alpha_grid=())


@pytest.mark.parametrize("alpha_grid", [(0,), (0, 2), (3, -1)])
def test_run_experiment_rejects_alpha_grid_entries_below_one(
        tiny_model, tiny_net_spec, encoded_by_user, alpha_grid):
    # alpha 0 in the grid would train plain cross-entropy under a semantic label
    with pytest.raises(ValueError, match="positive integers"):
        run_experiment(
            encoded_by_user, [StrategyConfig("semantic_loss", LossConfig("All"))],
            fractions=[1.0], repetitions=1, fold_k=1, seeds=[0], spec=tiny_net_spec,
            knowledge=tiny_model, train_cfg=FAST, alpha_grid=alpha_grid)


@pytest.mark.parametrize("strategies, fractions, fragment", [
    ([StrategyConfig("baseline"), StrategyConfig("baseline")], [1.0],
     "strategies: baseline listed more than once"),
    ([StrategyConfig("baseline")], [0.5, 1.0, 0.5], "fractions: 0.5 listed more than once"),
], ids=["strategies", "fractions"])
def test_run_experiment_rejects_repeated_strategies_and_fractions(
        tiny_model, tiny_net_spec, encoded_by_user, strategies, fractions, fragment):
    # results are keyed by label and fraction, so a repeat's confusions would be
    # pooled into one score and reported twice
    with pytest.raises(ValueError, match=fragment):
        run_experiment(
            encoded_by_user, strategies, fractions=fractions, repetitions=1, fold_k=1,
            seeds=[0], spec=tiny_net_spec, knowledge=tiny_model, train_cfg=FAST)


@pytest.mark.parametrize("strategy", [
    StrategyConfig("semantic_loss", LossConfig("All", 2.0)),
    StrategyConfig("semantic_loss", LossConfig("All")),     # searches its alpha
    StrategyConfig("symbolic_features"),
    StrategyConfig("context_refinement"),
], ids=["semantic_loss", "semantic_loss_search", "symbolic_features", "context_refinement"])
def test_run_experiment_without_rules_stops_before_training(
        tiny_net_spec, encoded_by_user, monkeypatch, strategy):
    calls = []
    monkeypatch.setattr(evaluation, "train", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="knowledge model required"):
        run_experiment(
            encoded_by_user, [StrategyConfig("baseline"), strategy], fractions=[1.0],
            repetitions=1, fold_k=1, seeds=[0], spec=tiny_net_spec, train_cfg=FAST,
            alpha_grid=(1,))
    assert calls == []


def test_a_baseline_grid_runs_without_rules(tiny_net_spec, encoded_by_user):
    report = run_experiment(
        encoded_by_user, [StrategyConfig("baseline")], fractions=[1.0], repetitions=1,
        fold_k=1, seeds=[0], spec=tiny_net_spec, train_cfg=FAST)
    assert len(report.cells) == 3
    assert all(c.error is None for c in report.cells)


SEARCHING = [{"kind": "baseline"}, {"kind": "semantic_loss", "semantic_type": "All"}]

# One wording per grid check, from a config and from the API alike: each case
# is (config overrides, fragment), its strategies written as in YAML
GRID_CASES = {
    "strategy_repeated": ({"strategies": [{"kind": "baseline"}] * 2},
                          "strategies: baseline listed more than once"),
    "fraction_repeated": ({"fractions": [0.5, 1.0, 0.5]}, "fractions: 0.5 listed more than once"),
    "fraction_above_one": ({"fractions": [1.0, 1.5]},
                           "fractions: must be a non-empty list of numbers in (0, 1]"),
    "repetitions_zero": ({"repetitions": 0}, "repetitions: must be a positive integer"),
    "seeds_short": ({"repetitions": 3, "seeds": [1, 2]},
                    "seeds: need at least one per repetition (2 given, 3 repetitions)"),
    "alpha_grid_below_one": ({"strategies": SEARCHING, "alpha_grid": [0, 2]},
                             "alpha_grid: must be a list of positive integers"),
    "alpha_grid_empty": ({"strategies": SEARCHING, "alpha_grid": []},
                         "alpha_grid: empty, but semantic_loss[All,a=grid] needs"),
    "fold_k_zero": ({"fold_k": 0}, "fold_k: must be a positive integer"),
    "fold_seed_negative": ({"fold_seed": -1}, "fold_seed: must be an integer >= 0"),
    "seed_negative": ({"seeds": [-11, 12]}, "seeds: must be a non-empty list of integers >= 0"),
}


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_problems_read_alike_from_run_and_run_experiment(
        tmp_path, capsys, monkeypatch, tiny_model, tiny_net_spec, encoded_by_user, case):
    overrides, fragment = GRID_CASES[case]
    cfg = yaml.safe_load(Path("configs/quick.yaml").read_text())
    cfg.update(output_dir=str(tmp_path / "out"), **overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "1 config problem(s)" in err and fragment in err
    assert not (tmp_path / "out").exists()

    # the API rejects the same grid before it trains anything
    calls = []
    monkeypatch.setattr(evaluation, "train", lambda *args, **kwargs: calls.append(args))
    kwargs = {"strategies": [{"kind": "baseline"}], "fractions": [1.0], "repetitions": 1,
              "seeds": [0], "alpha_grid": [], "fold_k": 1, "fold_seed": 0, **overrides}
    kwargs["strategies"] = [StrategyConfig(s["kind"], LossConfig(s.get("semantic_type", "none")))
                            for s in kwargs["strategies"]]
    with pytest.raises(ExperimentError, match=re.escape(fragment)):
        run_experiment(encoded_by_user, spec=tiny_net_spec, knowledge=tiny_model,
                       train_cfg=FAST, **kwargs)
    assert calls == []


def test_grid_search_alpha_tie_breaks_low(tiny_model, tiny_net_spec, encoded_by_user):
    data = list(encoded_by_user.values())[0]
    strategy = StrategyConfig("semantic_loss", LossConfig("All", 0.0))
    best, scores, model = grid_search_alpha(
        strategy, [1], data, data, tiny_net_spec, tiny_model, FAST, seed=0)
    assert best == 1
    assert set(scores) == {1}
    assert model.loss == LossConfig("All", 1.0)
    best2, scores2, _ = grid_search_alpha(
        strategy, [3, 1], data, data, tiny_net_spec, tiny_model,
        TrainConfig(epochs=1, batch_size=64, patience=5), seed=0)
    if scores2[1] == scores2[3]:
        assert best2 == 1


def test_alpha_search_trains_each_alpha_once(tmp_path, monkeypatch):
    # the searched model of the chosen alpha is the cell's model: 3 folds x 2 alphas
    cfg = yaml.safe_load(Path("configs/quick.yaml").read_text())
    cfg.update(output_dir=str(tmp_path / "out"), repetitions=1, seeds=[11],
               alpha_grid=[1, 2], strategies=[{"kind": "semantic_loss", "semantic_type": "All"}])
    cfg["training"]["epochs"] = 3
    path = tmp_path / "grid.yaml"
    path.write_text(yaml.safe_dump(cfg))
    calls = []
    original = evaluation.train

    def counting(*args, **kwargs):
        calls.append(args[2].loss.alpha)
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, "train", counting)
    monkeypatch.delenv("NESYHAR_THREADS", raising=False)
    assert cli_main(["run", "--config", str(path)]) == 0
    assert sorted(calls) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]


def test_fixed_alpha_shares_the_network_of_its_search_candidate(tmp_path, monkeypatch):
    # a fixed All alpha=2 and a search over [1, 2] need alpha 1 and alpha 2 once
    # per fold: 6 trainings, not 9; the digests are those of the reports written
    # when every strategy trained its own networks
    cfg = yaml.safe_load(Path("configs/quick.yaml").read_text())
    cfg.update(output_dir=str(tmp_path / "out"), repetitions=1, seeds=[11], alpha_grid=[1, 2],
               strategies=[{"kind": "semantic_loss", "semantic_type": "All", "alpha": 2},
                           {"kind": "semantic_loss", "semantic_type": "All"}])
    cfg["training"]["epochs"] = 3
    path = tmp_path / "overlap.yaml"
    path.write_text(yaml.safe_dump(cfg))
    calls = []
    original = evaluation.train

    def counting(*args, **kwargs):
        calls.append(args[2].loss.alpha)
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, "train", counting)
    monkeypatch.delenv("NESYHAR_THREADS", raising=False)
    assert cli_main(["run", "--config", str(path)]) == 0
    assert sorted(calls) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in ("cells.csv", "summary.csv", "summary.txt")}
    assert digests == {
        "cells.csv": "9b68bec949c3577bef7f1909408ba429f541a37d42362e77c216f7fdca21bdbf",
        "summary.csv": "9dc77e9c2b5aced9e72d77f6dbd29206bd810b91ab0262f2bb59287bea96c2e5",
        "summary.txt": "fdce240ddfe908efe2c75dbf4a6697d2fb59e9fbb7ab215f88c7e81094737cf4",
    }


def test_report_files_deterministic(tmp_path, tiny_model, tiny_net_spec, encoded_by_user):
    report = run_experiment(
        encoded_by_user, [StrategyConfig("baseline")], fractions=[1.0], repetitions=2,
        fold_k=1, seeds=[3, 4], spec=tiny_net_spec, train_cfg=FAST)
    paths_a = write_report(report, tmp_path / "a")
    paths_b = write_report(report, tmp_path / "b")
    for key in paths_a:
        assert paths_a[key].read_bytes() == paths_b[key].read_bytes()
    table = format_report_table(report)
    assert "baseline" in table and "100%" in table
    summary = paths_a["summary"].read_text()
    assert "mean_macro_f1" in summary


def test_report_mean_reproducible_from_stored_values(
        tmp_path, tiny_model, tiny_net_spec, encoded_by_user):
    import csv as csv_mod
    import json as json_mod
    report = run_experiment(
        encoded_by_user, [StrategyConfig("baseline")], fractions=[1.0], repetitions=3,
        fold_k=1, seeds=[3, 4, 5], spec=tiny_net_spec, train_cfg=FAST)
    paths = write_report(report, tmp_path)
    with open(paths["summary"]) as f:
        row = next(csv_mod.DictReader(f))
    stored = [float(s) for s in json_mod.loads(row["rep_macro_f1"])]
    assert abs(float(row["mean_macro_f1"]) - np.mean(stored)) < 1e-12

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from nesyhar.cli import main
from nesyhar.context import DiscretizationConfig
from nesyhar.data import enumerate_realizable_states
from nesyhar.knowledge import load_knowledge

QUICK = Path("configs/quick.yaml")


def write_config(tmp_path, **overrides):
    cfg = yaml.safe_load(QUICK.read_text())
    cfg["output_dir"] = str(tmp_path / "out")
    cfg.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


# ---------------------------------------------------------------------------
# reason
# ---------------------------------------------------------------------------

def test_reason_outdoor_excludes_brushing_teeth(capsys):
    rc = main(["reason", "--rules", "configs/domino.rules", "location_type=outdoor"])
    out = capsys.readouterr().out
    assert rc == 0
    consistent_line, vector_line = out.strip().splitlines()
    assert "brushing_teeth" not in consistent_line
    assert "walking" in consistent_line
    assert vector_line.endswith("1 1 1 0 1 1 1 0 0 1 1 1 1 0".replace(" ", " "))


def test_reason_empty_state_lists_everything(capsys):
    rc = main(["reason", "--rules", "configs/domino.rules"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "(14 of 14)" in out


def test_reason_malformed_predicate_is_usage_error(capsys):
    rc = main(["reason", "--rules", "configs/domino.rules", "speed=="])
    assert rc == 2
    assert "speed==" in capsys.readouterr().err


def test_reason_unknown_predicate_rejected(capsys):
    rc = main(["reason", "--rules", "configs/domino.rules", "speed=ludicrous"])
    assert rc == 2
    assert "speed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth / audit
# ---------------------------------------------------------------------------

def test_synth_writes_loadable_dataset(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")])
    assert rc == 0
    from nesyhar.data import load_dataset
    datasets = load_dataset(tmp_path / "ds")
    assert len(datasets) == 3


def test_synth_same_seed_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    files_a = sorted((tmp_path / "a").iterdir())
    assert files_a
    for f in files_a:
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def dataset_digest(directory):
    """One sha256 over the sorted file names, lengths and contents of a directory."""
    digest = hashlib.sha256()
    for f in sorted(directory.iterdir()):
        data = f.read_bytes()
        digest.update(f"{f.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def test_synth_quick_dataset_bytes_are_pinned(tmp_path):
    assert main(["synth", "--config", str(QUICK), "--out", str(tmp_path / "ds")]) == 0
    assert dataset_digest(tmp_path / "ds") == (
        "611669aee98dc8f2cb7b9d316ae88cae0617792751b8b28d8f4e1911abe79c24")


def test_synth_domino_dataset_bytes_are_pinned(tmp_path):
    # domino.rules is the committed rule file with semantic places and weather
    cfg = write_config(tmp_path, rules="configs/domino.rules", dataset={"synthetic": {
        "users": 2, "windows_per_user": 100, "violation_rate": 0.3}})
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
    assert dataset_digest(tmp_path / "ds") == (
        "13309e84d9995532522bf1a9d7c99cc3d6c914c4beedcebb34a0d56862fd8c49")


@pytest.mark.parametrize("dimension, values", [
    ("speed", "null, low, medium, high, extreme"),
    ("height_variation", "negative, null, positive, wobbly"),
])
def test_synth_skips_a_declared_value_aggregation_cannot_derive(tmp_path, dimension, values):
    text = Path("configs/synthetic.rules").read_text()
    old = next(line for line in text.splitlines() if line.startswith(f"{dimension} "))
    rules = tmp_path / "extra.rules"
    rules.write_text(text.replace(old, f"{dimension} (exclusive): {values}"))
    cfg = write_config(tmp_path, rules=str(rules))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
    extra = values.rsplit(", ", 1)[1]
    states = enumerate_realizable_states(load_knowledge(rules).vocabulary,
                                         DiscretizationConfig())
    assert any(s.observes(dimension) for s in states)
    assert not any(extra in s.dimension_values(dimension) for s in states)


@pytest.mark.parametrize("command", ["synth", "run"])
def test_rules_the_generator_cannot_realize_are_a_config_error(tmp_path, capsys, command):
    text = Path("configs/synthetic.rules").read_text()
    rules = tmp_path / "mood.rules"
    rules.write_text(text.replace("[rules]", "mood (exclusive): happy, sad\n\n[rules]"))
    cfg = write_config(tmp_path, rules=str(rules))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "1 config problem(s)" in err
    assert "rules: no realizable context state observes dimension 'mood'" in err
    assert not (tmp_path / "out").exists()


def test_audit_zero_violation_is_fully_consistent(tmp_path, capsys):
    cfg = write_config(tmp_path, dataset={"synthetic": {
        "users": 2, "windows_per_user": 30, "violation_rate": 0.0, "seed": 3}})
    main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")])
    capsys.readouterr()
    rc = main(["audit", "--dataset", str(tmp_path / "ds"),
               "--rules", "configs/synthetic.rules"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "60/60 (100.0%)" in out


def test_audit_counts_a_label_the_rules_do_not_list_as_inconsistent(tmp_path, capsys):
    cfg = write_config(tmp_path, dataset={"synthetic": {
        "users": 2, "windows_per_user": 6, "violation_rate": 0.5, "seed": 3}})
    main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")])
    path = tmp_path / "ds" / "annotations.csv"
    lines = path.read_text().splitlines(keepends=True)
    for i in (2, 9):
        user, _, t_start, t_end = lines[i].split(",")
        lines[i] = ",".join([user, "flying", t_start, t_end])
    path.write_text("".join(lines))
    capsys.readouterr()
    rc = main(["audit", "--dataset", str(tmp_path / "ds"),
               "--rules", "configs/synthetic.rules"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "cycling                      1/1     (100.0%)\n"
        "flying                       0/2     (0.0%)\n"
        "on_transport                 2/2     (100.0%)\n"
        "running                      3/4     (75.0%)\n"
        "sitting                      2/2     (100.0%)\n"
        "walking                      0/1     (0.0%)\n"
        "label consistent with context: 8/12 (66.7%)\n")


def test_audit_takes_rules_windowing_and_thresholds_from_a_config(tmp_path, capsys):
    synthetic = yaml.safe_load(QUICK.read_text())["dataset"]["synthetic"]
    cfg = write_config(tmp_path, dataset={"synthetic": {**synthetic, "violation_rate": 0}},
                       discretization={"speed_thresholds": [1.0, 5.0, 20.0]})
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
    capsys.readouterr()
    assert main(["audit", "--dataset", str(tmp_path / "ds"), "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.endswith(
        "label consistent with context: 120/120 (100.0%)\n")
    # the default thresholds class the same speeds differently
    assert main(["audit", "--dataset", str(tmp_path / "ds"),
                 "--rules", "configs/synthetic.rules"]) == 0
    assert capsys.readouterr().out.endswith(
        "label consistent with context: 64/120 (53.3%)\n")


@pytest.mark.parametrize("source", [[], ["--rules", "configs/synthetic.rules",
                                         "--config", str(QUICK)]], ids=["neither", "both"])
def test_audit_needs_exactly_one_of_rules_and_config(tmp_path, source):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--dataset", str(tmp_path), *source])
    assert exc.value.code == 2


def test_audit_window_seconds_conflicts_with_a_config(tmp_path, capsys):
    rc = main(["audit", "--dataset", str(tmp_path), "--config", str(QUICK),
               "--window-seconds", "2"])
    assert rc == 2
    assert "--window-seconds" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["0", "-4", "nan", "inf"])
def test_audit_window_seconds_must_be_positive_and_finite(tmp_path, seconds):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--dataset", str(tmp_path), "--rules", "configs/synthetic.rules",
              "--window-seconds", seconds])
    assert exc.value.code == 2


def test_audit_window_shorter_than_a_sample(tmp_path, capsys):
    # 0.01 s at 25 Hz rounds to 0 samples a window: every window is covered
    cfg = write_config(tmp_path, dataset={"synthetic": {
        "users": 2, "windows_per_user": 5, "violation_rate": 0.0, "seed": 3}})
    main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")])
    capsys.readouterr()
    rc = main(["audit", "--dataset", str(tmp_path / "ds"), "--rules",
               "configs/synthetic.rules", "--window-seconds", "0.01"])
    assert rc == 0
    assert capsys.readouterr().out.endswith(
        "label consistent with context: 3998/3998 (100.0%)\n")


def test_audit_names_the_file_and_line_of_a_malformed_annotation(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds")])
    path = tmp_path / "ds" / "annotations.csv"
    lines = path.read_text().splitlines(keepends=True)
    user, activity, _, t_end = lines[2].split(",")
    lines[2] = ",".join([user, activity, "x", t_end])
    path.write_text("".join(lines))
    capsys.readouterr()
    rc = main(["audit", "--dataset", str(tmp_path / "ds"), "--rules",
               "configs/synthetic.rules"])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {path}: line 3: could not convert string "
                                       "to float: 'x'\n")


# a file that exists but is malformed is a runtime failure (above); a path
# that does not exist, or is a directory where a file is read or the other
# way round, is a usage error
NO_SUCH = "no such file or directory: {missing}"


@pytest.mark.parametrize("argv, option, message", [
    (["reason", "--rules", "{missing}", "speed=low"], "--rules", NO_SUCH),
    (["audit", "--dataset", "{missing}", "--rules", "configs/synthetic.rules"], "--dataset",
     NO_SUCH),
    (["audit", "--dataset", "{dir}", "--rules", "{missing}"], "--rules", NO_SUCH),
    (["classify", "--model", "{missing}", "--samples", "{missing}"], "--model", NO_SUCH),
    (["classify", "--model", "configs/quick.yaml", "--samples", "{missing}"], "--samples",
     NO_SUCH),
    (["classify", "--model", "configs/quick.yaml", "--samples", "{dir}", "--rules", "{missing}"],
     "--rules", NO_SUCH),
    (["reason", "--rules", "configs", "speed=low"], "--rules", "is a directory: configs"),
    (["audit", "--dataset", "configs/quick.yaml", "--rules", "configs/synthetic.rules"],
     "--dataset", "not a directory: configs/quick.yaml"),
    (["audit", "--dataset", "{dir}", "--rules", "configs"], "--rules", "is a directory: configs"),
    (["classify", "--model", "configs", "--samples", "configs/quick.yaml"], "--model",
     "is a directory: configs"),
    (["classify", "--model", "configs/quick.yaml", "--samples", "configs/quick.yaml"],
     "--samples", "not a directory: configs/quick.yaml"),
    (["classify", "--model", "configs/quick.yaml", "--samples", "{dir}", "--rules", "configs"],
     "--rules", "is a directory: configs"),
], ids=["reason-rules", "audit-dataset", "audit-rules", "classify-model", "classify-samples",
        "classify-rules", "reason-rules-directory", "audit-dataset-file", "audit-rules-directory",
        "classify-model-directory", "classify-samples-file", "classify-rules-directory"])
def test_a_missing_input_path_exits_2_naming_the_option(tmp_path, capsys, argv, option,
                                                        message):
    missing = str(tmp_path / "nope")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(missing=missing, dir=tmp_path) for arg in argv])
    assert exc.value.code == 2
    expected = f"argument {option}: {message.format(missing=missing)}\n"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["synth", "--config", "configs/quick.yaml", "--out", "configs/quick.yaml"],
     "not a directory: configs/quick.yaml"),
    (["synth", "--config", "configs/quick.yaml", "--out", "configs/quick.yaml/sub"],
     "not a directory: configs/quick.yaml"),
    (["classify", "--model", "configs/quick.yaml", "--samples", "{dir}", "--out", "{dir}"],
     "is a directory: {dir}"),
    (["classify", "--model", "configs/quick.yaml", "--samples", "{dir}",
      "--out", "configs/quick.yaml/preds.jsonl"], "no such directory: configs/quick.yaml"),
], ids=["synth-file", "synth-below-a-file", "classify-directory", "classify-below-a-file"])
def test_an_out_path_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(dir=tmp_path) for arg in argv])
    assert exc.value.code == 2
    assert f"argument --out: {message.format(dir=tmp_path)}\n" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_quick_config(tmp_path, capsys):
    # the report must equal the committed one in out/quick/ byte for byte
    cfg = write_config(tmp_path)
    rc = main(["run", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "baseline" in out
    for name in ("cells.csv", "summary.csv", "summary.txt"):
        assert (tmp_path / "out" / name).read_bytes() == (Path("out/quick") / name).read_bytes()


@pytest.mark.parametrize("threads", ["abc", "0", "-1", "1.5", ""])
def test_run_bad_thread_count_is_usage_error(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("NESYHAR_THREADS", threads)
    rc = main(["run", "--config", str(write_config(tmp_path))])
    assert rc == 2
    assert "NESYHAR_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_import_ignores_bad_thread_count():
    env = dict(os.environ, NESYHAR_THREADS="abc",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path("src").resolve()),
                                                        os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", "import nesyhar"], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_run_missing_rules_file_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, rules="configs/nonexistent.rules")
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "rules" in err and "not found" in err


@pytest.mark.parametrize("alpha", [{}, {"alpha": 0}], ids=["omitted", "zero"])
def test_run_semantic_loss_without_alpha_or_grid_is_config_error(tmp_path, capsys, alpha):
    # with no alpha and no grid to choose one, the strategy would train plain
    # cross-entropy under a semantic_loss label
    strategies = [{"kind": "baseline"},
                  {"kind": "semantic_loss", "semantic_type": "All", **alpha}]
    rc = main(["run", "--config", str(write_config(tmp_path, strategies=strategies,
                                                    alpha_grid=[]))])
    assert rc == 2
    assert "alpha_grid: empty, but semantic_loss[All,a=grid]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    from nesyhar.config import load_config
    cfg = load_config(write_config(tmp_path, strategies=strategies, alpha_grid=[1, 2]))
    assert cfg.strategies[1].searches_alpha and cfg.alpha_grid == (1, 2)


def test_run_missing_rules_key_is_reported_once(tmp_path, capsys):
    path = write_config(tmp_path)
    cfg = yaml.safe_load(path.read_text())
    del cfg["rules"]
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "1 config problem(s)" in err and err.count("rules:") == 1


def test_run_names_a_user_whose_windows_differ_in_length(tmp_path, capsys):
    assert main(["synth", "--config", str(QUICK), "--out", str(tmp_path / "ds")]) == 0
    stream = tmp_path / "ds" / "phone_user01.csv"
    stream.write_text(stream.read_text().replace("rate=25.0", "rate=50.0", 1))
    cfg = write_config(tmp_path, dataset={"directory": str(tmp_path / "ds")})
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert ("dataset.directory: user user01's phone windows have shape (3, 200), "
            "but user user00's have (3, 100)") in err
    assert not (tmp_path / "out").exists()


def test_run_config_errors_listed_exhaustively(tmp_path, capsys):
    cfg = write_config(tmp_path, rules="missing.rules", fractions=[2.0],
                       repetitions=0, bogus_key=1)
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    for fragment in ("rules", "fractions", "repetitions", "bogus_key"):
        assert fragment in err


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--seed", "3", "--trials", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert "max relative error" in out


def test_gradcheck_zero_trials_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--trials", "0"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synth_checkpoints(tmp_path_factory):
    """A tiny dataset directory plus trained checkpoints of two kinds."""
    from dataclasses import replace
    from nesyhar.data import (SyntheticConfig, encode_user_datasets,
                              generate_synthetic, write_dataset)
    from nesyhar.evaluation import split_train_validation
    from nesyhar.losses import LossConfig
    from nesyhar.nn import BranchSpec, NetworkSpec
    from nesyhar.strategies import StrategyConfig, TrainConfig, save_model, train
    from nesyhar.data import EncodedDataset

    root = tmp_path_factory.mktemp("classify")
    model = load_knowledge("configs/synthetic.rules")
    disc = DiscretizationConfig()
    syn = SyntheticConfig(users=2, windows_per_user=30, violation_rate=0.05, seed=5)
    datasets = generate_synthetic(model, syn, disc)
    write_dataset(datasets, root / "ds")
    encoded = encode_user_datasets(datasets, model, 4.0, disc)
    pooled = EncodedDataset.concatenate(list(encoded.values()))
    train_part, val_part = split_train_validation(pooled, 0.2, seed=0)
    spec = NetworkSpec(
        phone=BranchSpec(pooled.phone.shape[1], pooled.phone.shape[2], (4,), (7,), 2, 8),
        watch=BranchSpec(pooled.watch.shape[1], pooled.watch.shape[2], (4,), (5,), 2, 8),
        context_size=pooled.context.shape[1], classes=len(pooled.activities),
        context_dense=4, trunk_dense=16, dropout=0.1)
    fast = TrainConfig(epochs=2, batch_size=16, patience=5)
    sem = train(train_part, val_part, StrategyConfig("semantic_loss", LossConfig("All", 1.0)),
                spec, seed=1, knowledge=model, cfg=fast)
    ref = train(train_part, val_part, StrategyConfig("context_refinement"), spec, seed=1,
                cfg=fast)
    # a checkpoint carries the windowing that classify segments samples with
    windowing = dict(window_seconds=4.0, discretization=disc)
    sem_path = save_model(replace(sem, **windowing), root / "sem.npz")
    ref_path = save_model(replace(ref, **windowing), root / "ref.npz")
    return root / "ds", sem_path, ref_path


def test_classify_semantic_checkpoint_without_rules(tmp_path, synth_checkpoints):
    ds, sem_path, _ = synth_checkpoints
    out = tmp_path / "preds.jsonl"
    rc = main(["classify", "--model", str(sem_path), "--samples", str(ds),
               "--out", str(out)])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 60
    for record in records:
        assert abs(sum(record["probs"]) - 1.0) < 1e-6
        assert "consistent" not in record


def test_classify_refinement_needs_rules(tmp_path, synth_checkpoints, capsys):
    ds, _, ref_path = synth_checkpoints
    rc = main(["classify", "--model", str(ref_path), "--samples", str(ds)])
    assert rc == 2
    assert "rules" in capsys.readouterr().err


def test_classify_refinement_with_rules(tmp_path, synth_checkpoints):
    ds, _, ref_path = synth_checkpoints
    out = tmp_path / "preds.jsonl"
    rc = main(["classify", "--model", str(ref_path), "--samples", str(ds),
               "--rules", "configs/synthetic.rules", "--out", str(out)])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    for record in records:
        assert abs(sum(record["probs"]) - 1.0) < 1e-6
        assert "consistent" in record and "fallback" in record
        # the vector is written as 1/0, not true/false
        assert all(type(value) is int for value in record["consistent"])
        if not record["fallback"]:
            top = int(np.argmax(record["probs"]))
            assert record["consistent"][top] == 1


def test_classify_ignores_an_annotation_label_outside_the_vocabulary(tmp_path,
                                                                     synth_checkpoints):
    ds, _, ref_path = synth_checkpoints
    renamed = tmp_path / "renamed"
    shutil.copytree(ds, renamed)
    path = renamed / "annotations.csv"
    lines = path.read_text().splitlines(keepends=True)
    user, _, t_start, t_end = lines[2].split(",")
    lines[2] = ",".join([user, "flying", t_start, t_end])
    path.write_text("".join(lines))
    outputs = []
    for i, samples in enumerate((ds, renamed)):
        out = tmp_path / f"preds{i}.jsonl"
        rc = main(["classify", "--model", str(ref_path), "--samples", str(samples),
                   "--rules", "configs/synthetic.rules", "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_text())
    assert outputs[0] and outputs[0] == outputs[1]


def test_classify_rejects_a_checkpoint_window_length_that_is_not_finite(
        tmp_path, synth_checkpoints, capsys):
    from dataclasses import replace
    from nesyhar.strategies import load_model, save_model
    ds, sem_path, _ = synth_checkpoints
    path = save_model(replace(load_model(sem_path), window_seconds=float("nan")),
                      tmp_path / "nan.npz")
    rc = main(["classify", "--model", str(path), "--samples", str(ds)])
    assert rc == 1
    assert capsys.readouterr().err.endswith(
        "error: window length must be positive and finite\n")

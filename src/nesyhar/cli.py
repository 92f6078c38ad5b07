"""Command-line interface.

Subcommands: ``reason`` (query the rule engine), ``synth`` (write a synthetic
dataset), ``run`` (the full experiment grid), ``gradcheck`` (finite-difference
verification of the network and loss gradients), ``classify`` (apply a trained
checkpoint to a dataset directory), and ``audit`` (label/context consistency
of a dataset against a rule file, or a config's rules and windowing).

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

__all__ = ["main"]

log = logging.getLogger("nesyhar")


class UsageError(Exception):
    """Bad command-line input; maps to exit code 2."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _existing_path(text: str) -> str:
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"no such file or directory: {text}")
    return text


def _existing_file(text: str) -> str:
    if os.path.isdir(_existing_path(text)):
        raise argparse.ArgumentTypeError(f"is a directory: {text}")
    return text


def _existing_directory(text: str) -> str:
    if not os.path.isdir(_existing_path(text)):
        raise argparse.ArgumentTypeError(f"not a directory: {text}")
    return text


def _output_directory(text: str) -> str:
    from .config import file_in_the_way

    blocker = file_in_the_way(Path(text))
    if blocker is not None:
        raise argparse.ArgumentTypeError(f"not a directory: {blocker}")
    return text


def _output_file(text: str) -> str:
    parent = os.path.dirname(text) or "."
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"is a directory: {text}")
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no such directory: {parent}")
    return text


def cmd_reason(args) -> int:
    from .knowledge import ContextState, load_knowledge

    model = load_knowledge(args.rules)
    try:
        row = model.vocabulary.encode_state(ContextState.from_pairs(args.state))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    consistent = model.consistent_activities(row[None])[0]
    names = [a for a, ok in zip(model.activity_names, consistent) if ok]
    print(f"consistent activities ({len(names)} of {model.num_activities}): "
          + (", ".join(names) if names else "(none)"))
    print("consistency vector: " + " ".join("1" if ok else "0" for ok in consistent))
    return 0


def cmd_synth(args) -> int:
    from .config import file_in_the_way, load_config, synthesize
    from .data import write_dataset
    from .evaluation import ExperimentError
    from .knowledge import load_knowledge

    cfg = load_config(args.config)
    if cfg.synthetic is None:
        raise UsageError(f"{args.config}: dataset.synthetic section required for synth")
    out = Path(args.out) if args.out else cfg.output_dir / "dataset"
    if (blocker := file_in_the_way(out)) is not None:  # the default too, before generating
        raise UsageError(f"not a directory: {blocker}")
    try:
        datasets = synthesize(cfg, load_knowledge(cfg.rules))
    except ExperimentError as exc:
        raise ExperimentError(exc.problems, args.config) from None
    write_dataset(datasets, out)
    windows = sum(len(ds.annotations) for ds in datasets)
    print(f"wrote {len(datasets)} users, {windows} windows to {out}")
    return 0


def cmd_run(args) -> int:
    from .config import load_config, prepare_experiment
    from .evaluation import ExperimentError, format_report_table, run_experiment, write_report

    started = time.monotonic()
    threads = os.environ.get("NESYHAR_THREADS", "1")
    workers = int(threads) if threads.strip().isdecimal() else 0
    if workers < 1:
        raise UsageError(f"NESYHAR_THREADS must be a positive integer, got {threads!r}")
    cfg = load_config(args.config)
    try:  # what only the data refutes: realizable rules, window shapes, the network, fold_k
        model, encoded, spec = prepare_experiment(cfg)
        report = run_experiment(
            encoded, cfg.strategies, cfg.fractions, cfg.repetitions, cfg.fold_k,
            cfg.seeds, spec, knowledge=model, train_cfg=cfg.training,
            fold_seed=cfg.fold_seed, alpha_grid=cfg.alpha_grid, workers=workers)
    except ExperimentError as exc:
        raise ExperimentError(exc.problems, args.config) from None
    paths = write_report(report, cfg.output_dir)
    print(format_report_table(report), end="")
    failed = [c for c in report.cells if c.error]
    if failed:
        print(f"{len(failed)} cell(s) failed; see {paths['cells']}")
    print(f"report written to {cfg.output_dir} ({time.monotonic() - started:.1f}s)")
    return 1 if failed else 0


def cmd_gradcheck(args) -> int:
    from .nn import run_gradient_check_suite

    report = run_gradient_check_suite(seed=args.seed, trials=args.trials)
    for trial in report["trials"]:
        print(f"trial {trial['trial']:2d}  head={trial['head']:<9} "
              f"infusion={str(trial['infusion']):<5} dropout={trial['dropout']:.1f}  "
              f"max rel err {trial['max_rel_err']:.3e}")
    print(f"overall max relative error: {report['max_rel_err']:.3e} "
          f"(tolerance {report['tolerance']:.0e})")
    if report["passed"]:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def cmd_classify(args) -> int:
    from .data import encode_windows, load_dataset, segment
    from .knowledge import load_knowledge
    from .strategies import REASONING_KINDS, load_model, predict_many

    model = load_model(args.model)
    knowledge = None
    if args.rules:
        knowledge = load_knowledge(args.rules)
        if (knowledge.activity_names != model.activities
                or knowledge.vocabulary != model.vocabulary):
            raise UsageError("rule file vocabularies do not match the checkpoint")
    elif model.kind in REASONING_KINDS:
        raise UsageError(f"{model.kind!r} checkpoints need --rules at inference")

    if model.window_seconds is None or model.discretization is None:
        raise UsageError("checkpoint lacks windowing metadata; cannot segment samples")
    datasets = load_dataset(args.samples)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for ds in datasets:
            # classify outputs no labels: any annotation label is irrelevant
            windows = segment(replace(ds, annotations=[]), model.window_seconds,
                              model.discretization, model.vocabulary, keep_unlabeled=True)
            if not windows:
                continue
            encoded = encode_windows(windows, model.vocabulary, model.activities)
            preds, probs, diagnostics = predict_many(model, encoded, knowledge)
            for i in range(len(windows)):
                record = {
                    "user": windows.user,
                    "t_start": float(windows.t_start[i]),
                    "t_end": float(windows.t_end[i]),
                    "prediction": model.activities[int(preds[i])],
                    "probs": [round(float(p), 9) for p in probs[i]],
                }
                if "consistent" in diagnostics[i]:
                    record["consistent"] = diagnostics[i]["consistent"].tolist()
                if "fallback" in diagnostics[i]:
                    record["fallback"] = bool(diagnostics[i]["fallback"])
                out.write(json.dumps(record) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_audit(args) -> int:
    from .config import load_config
    from .context import DiscretizationConfig
    from .data import load_dataset, segment
    from .knowledge import load_knowledge

    if args.config:
        if args.window_seconds is not None:
            raise UsageError("--window-seconds comes from the config when --config is given")
        cfg = load_config(args.config)
        rules, z, disc = cfg.rules, cfg.window_seconds, cfg.discretization
    else:
        rules, z, disc = args.rules, args.window_seconds or 4.0, DiscretizationConfig()
    model = load_knowledge(rules)
    datasets = load_dataset(args.dataset)
    per_activity: dict[str, list[int]] = {}  # label -> [consistent, windows]
    columns = {a: j for j, a in enumerate(model.activity_names)}
    for ds in datasets:
        windows = segment(ds, z, disc, model.vocabulary)
        if not windows:
            continue
        matrix = model.consistent_activities(model.vocabulary.encode_states(windows.states))
        for row, label in zip(matrix, windows.labels):
            counts = per_activity.setdefault(label, [0, 0])
            # a label the rules do not list is inconsistent
            counts[0] += label in columns and bool(row[columns[label]])
            counts[1] += 1
    if not per_activity:
        raise UsageError("dataset contains no labeled windows")
    for name in sorted(per_activity):
        ok, n = per_activity[name]
        print(f"{name:<24} {ok:5d}/{n:<5d} ({100.0 * ok / n:.1f}%)")
    consistent, total = map(sum, zip(*per_activity.values()))
    print(f"label consistent with context: {consistent}/{total} "
          f"({100.0 * consistent / total:.1f}%)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nesyhar",
        description="Knowledge-constrained context-aware activity recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reason", help="evaluate the rule engine on a context state")
    p.add_argument("--rules", required=True, type=_existing_file, help="rule file path")
    p.add_argument("state", nargs="*",
                   help="context predicates, e.g. location_type=outdoor speed=low")
    p.set_defaults(fn=cmd_reason)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--config", required=True, type=_existing_file,
                   help="experiment config (YAML)")
    p.add_argument("--out", type=_output_directory,
                   help="output directory (default: <output_dir>/dataset)")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("run", help="run the full experiment grid from a config")
    p.add_argument("--config", required=True, type=_existing_file,
                   help="experiment config (YAML)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=20)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("classify", help="classify a dataset with a trained checkpoint")
    p.add_argument("--model", required=True, type=_existing_file, help="checkpoint (.npz) path")
    p.add_argument("--samples", required=True, type=_existing_directory,
                   help="dataset directory")
    p.add_argument("--rules", type=_existing_file,
                   help="rule file (required for reasoning checkpoints)")
    p.add_argument("--out", type=_output_file, help="output JSON-lines path (default: stdout)")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("audit", help="check label/context consistency of a dataset")
    p.add_argument("--dataset", required=True, type=_existing_directory,
                   help="dataset directory")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--rules", type=_existing_file,
                        help="rule file path (default windowing and thresholds)")
    source.add_argument("--config", type=_existing_file,
                        help="experiment config (YAML): its rules, window_seconds "
                        "and discretization")
    p.add_argument("--window-seconds", type=_positive_float,
                   help="window length with --rules (default 4.0)")
    p.set_defaults(fn=cmd_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    args = build_parser().parse_args(argv)
    from .evaluation import ExperimentError
    from .knowledge import RuleFileError

    try:
        return args.fn(args)
    except (UsageError, ExperimentError, RuleFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.debug("unhandled failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

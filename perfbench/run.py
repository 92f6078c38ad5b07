"""Runs the nesyhar benchmark.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, each in its own process

One workload runs in this process against the package in ``src/`` of the
checkout this file sits in. The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics (including the tracing overhead). The full record (machine
fingerprint, checks, report digest, sample counts) goes to
``.perfbench_out/`` in the checkout, and with ``--trace 1`` the spans too.

Exit codes: 0 all checks passed, 1 an output check failed, 2 the benchmark
could not run (bad arguments, no ``src/nesyhar`` next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = CHECKOUT / ".perfbench_out"
# set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have passed
# (at most SETUP_MAX_REPEATS times): a median of many cheap set-ups, not one
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50
# the import of the package is timed in this many fresh processes
IMPORT_SAMPLES = 9
MIN_PASSES = 2
THREAD_VARS = ("NESYHAR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("grid", "ingest", "classify")


def pin_environment() -> int:
    """One experiment worker and one BLAS thread, so a run is one thread of
    one process. Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return nproc


def fingerprint(nproc: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc, "cpu_model": cpu, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_classes(passes) -> dict[str, list[float]]:
    classes: dict[str, list[float]] = {}
    for p in passes:
        for name, values in p.latencies_ms.items():
            classes.setdefault(name, []).extend(values)
    return classes


def latency(passes, q: int) -> float:
    """The q-th percentile of each request class's latencies, averaged over
    the classes. (classify's kinds form two clusters of equal size, with and
    without the reasoner; a pooled median would fall in the gap between them.)"""
    return statistics.fmean(percentile(v, q) for v in latency_classes(passes).values())


def end_to_end(passes) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "windows_per_s": statistics.median(p.windows / p.busy_s for p in passes),
        "latency_p50_ms": latency(passes, 50),
        "latency_p90_ms": latency(passes, 90),
    }


def measure(workload, seconds: float, tracer=None) -> list:
    """At least MIN_PASSES timed passes, then more until less than half a
    pass of ``seconds`` is left."""
    passes = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes
        if tracer is not None:
            tracer.trace_id = len(passes)
        passes.append(workload.run_pass())


def import_times() -> list[float]:
    """The import of the workloads (and so of nesyhar, numpy and yaml), timed
    in IMPORT_SAMPLES fresh interpreters with this process's environment."""
    code = ("import time; t0 = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(CHECKOUT / "src"), str(HERE))))
    return [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 stdout=subprocess.PIPE, text=True).stdout)
            for _ in range(IMPORT_SAMPLES)]


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> int:
    nproc = pin_environment()
    if not (CHECKOUT / "src" / "nesyhar" / "__init__.py").is_file():
        print(f"error: no src/nesyhar in {CHECKOUT}; run from a nesyhar checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    import workloads
    import spans
    imports = import_times()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[name](checkout=CHECKOUT, workdir=workdir, seed=seed)
        setups = []
        while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_MIN_S
                                              and len(setups) < SETUP_MAX_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        workload.start()
        tracer = None
        if trace:
            passes = measure(workload, seconds / 2)
            tracer = spans.Tracer(f"{name}-seed{seed}")
            tracer.install()
            try:
                traced = measure(workload, seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            passes = measure(workload, seconds)
            traced = []
        workload.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = end_to_end(passes)
    e2e = {"setup_s": statistics.median(imports) + statistics.median(setups),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           **untraced}
    every = passes + traced
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    latencies = sum(len(v) for p in passes for v in p.latencies_ms.values())
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": fingerprint(nproc),
        "end_to_end": e2e,
        "aliases": workload.aliases,
        "samples": {"setups": len(setups), "passes": len(passes),
                    "latencies": latencies, "traced_passes": len(traced)},
        "pass_wall_s": [p.wall_s for p in every],
        "latency_p99_ms": latency(passes, 99),
        "latency_p50_ms_by_class": {k: percentile(v, 50)
                                    for k, v in latency_classes(passes).items()},
        "import_runs_s": imports, "setup_runs_s": setups,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "checks_failed": workload.failures,
        "details": workload.details,
    }

    if trace:
        by_pass: dict[int, list] = {}
        for s in tracer.spans:
            by_pass.setdefault(s[5], []).append(s)
        per_pass = [spans.layer_metrics(by_pass.get(i, [])) for i in range(len(traced))]
        traced_e2e = end_to_end(traced)
        layer = {}
        for metric in spec["per_layer"]:
            key = metric["name"]
            if key == "nn.forward.macs_per_window":
                layer[key] = workload.macs_per_window
            elif key.startswith("trace.overhead."):
                base = key[len("trace.overhead."):]
                layer[key] = traced_e2e[base] - untraced[base]
            else:
                layer[key] = statistics.median(m.get(key, 0) for m in per_pass)
        record["per_layer"] = layer
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        chosen, units = layer, {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")

    correct = not workload.failures and failed == 0
    print_human(name, record, e2e)
    for problem in workload.failures:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in chosen.items()}}))
    return 0 if correct else 1


def print_human(name: str, record: dict, e2e: dict) -> None:
    """Each end-to-end metric by its BENCHMARK.json name, the name it goes by
    on this workload, and its unit."""
    aliases = record["aliases"]
    n = record["samples"]["latencies"]
    lat = aliases["latency"]
    rows = [
        ("setup_s", "", e2e["setup_s"],
         f"s (import: median of {IMPORT_SAMPLES}; set-up: median of "
         f"{record['samples']['setups']})"),
        ("wall_s", aliases["wall_s"], e2e["wall_s"],
         f"s (median of {record['samples']['passes']})"),
        ("windows_per_s", aliases["windows_per_s"], e2e["windows_per_s"], "1/s"),
        ("latency_p50_ms", f"{lat}_p50_ms", e2e["latency_p50_ms"], f"ms ({n} samples)"),
        ("latency_p90_ms", f"{lat}_p90_ms", e2e["latency_p90_ms"], f"ms ({n} samples)"),
        ("", f"{lat}_p99_ms", record["latency_p99_ms"], f"ms ({n} samples)"),
        ("peak_rss_mb", "", e2e["peak_rss_mb"], "MiB"),
        ("", "failed_ratio", record["failed_ratio"],
         f"({record['failed']} of {record['attempted']})"),
    ]
    for metric, alias, value, unit in rows:
        print(f"{name:<9} {metric:<15} {alias:<25} {value:>12.6g} {unit}")


def run_all(args) -> int:
    """Every workload in its own fresh process; non-zero if any check fails."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: exited with {proc.returncode} and no result")
            worst = max(worst, 1)
            continue
        if args.trace:
            for metric, m in result["metrics"].items():
                print(f"{name:<9} {metric:<48} {m['value']:>12.6g} {m['unit']}")
        print(f"{name}: {'correct' if result['correct'] else 'CHECKS FAILED'}, "
              f"{result['failed']} of {result['attempted']} operations failed")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())

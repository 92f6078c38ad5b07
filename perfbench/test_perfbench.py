"""Tests of the benchmark itself, on the workloads as the benchmark runs them:

    PYTHONPATH=src python -m pytest -q perfbench

The counts that later changes may quote as evidence must repeat exactly for
one seed, and every per-layer metric of BENCHMARK.json must be measured by at
least one workload. A run takes about half a minute.
"""

import json
from pathlib import Path

import pytest

import spans
import workloads

CHECKOUT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("strategies.train.steps", "knowledge.consistent_activities.calls",
                "strategies.refine.calls")
# an ingest pass is one user's recording (the next user's in the next pass), so each
# ingest instance runs one
PASSES = {"grid": 2, "ingest": 1, "classify": 2}
SEED = 3


def traced_passes(name, workdir):
    """Layer metrics of each pass and the workload, from a fresh instance."""
    workload = workloads.WORKLOADS[name](checkout=CHECKOUT, workdir=workdir, seed=SEED)
    workload.setup()
    workload.start()
    tracer = spans.Tracer(name)
    tracer.install()
    try:
        for i in range(PASSES[name]):
            tracer.trace_id = i
            workload.run_pass()
    finally:
        tracer.uninstall()
    workload.stop()
    assert workload.failures == []
    return [spans.layer_metrics([s for s in tracer.spans if s[5] == i])
            for i in range(PASSES[name])], workload


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    """Two fresh instances of each workload with the same seed, run once per module."""
    cache = {}

    def get(name, instance):
        if (name, instance) not in cache:
            cache[name, instance] = traced_passes(
                name, tmp_path_factory.mktemp(f"{name}-{instance}"))
        return cache[name, instance]

    return get


@pytest.mark.parametrize("name", sorted(PASSES))
def test_counts_repeat_exactly_for_one_seed(name, instances):
    first, w1 = instances(name, 0)
    again, w2 = instances(name, 1)
    for key in EXACT_COUNTS:
        values = [m.get(key, 0) for m in first + again]
        assert len(set(values)) == 1, (key, values)
    assert w1.macs_per_window == w2.macs_per_window
    assert (w1.macs_per_window > 0) == (name != "ingest")


def test_every_per_layer_metric_is_measured(instances):
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    seen = set()
    for name in PASSES:
        metrics, _ = instances(name, 0)
        seen |= {k for k, v in metrics[0].items() if v}
    derived = {"nn.forward.macs_per_window", "strategies.refine.fallback_ratio",
               "evaluation.cells_failed"}
    names = {m["name"] for m in spec["per_layer"]}
    missing = {n for n in names - seen - derived if not n.startswith("trace.overhead.")}
    assert not missing


def test_a_renamed_call_site_fails_loudly():
    site = ("nesyhar.strategies", "forward_renamed", "nn.forward", None, None)
    with pytest.raises(spans.MissingCallSite, match="forward_renamed"):
        spans.Tracer("x").install([site])

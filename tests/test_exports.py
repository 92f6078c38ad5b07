import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest
import yaml

import nesyhar
from nesyhar import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(nesyhar.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_resolves(module_name):
    module = importlib.import_module(f"nesyhar.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(nesyhar.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"nesyhar.{module_name}")
        assert hasattr(module, name), f"nesyhar.{module_name}.{name}"
        assert getattr(nesyhar, name) is getattr(module, name)


def _benchmark_spans():
    """perfbench/spans.py, the benchmark's tracer, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_call_sites_resolve():
    # the benchmark's tracer wraps these names where their callers look them
    # up; a rename in the package must fail here, not in a benchmark run
    spans = _benchmark_spans()
    spans.check_call_sites(spans.CALL_SITES)


# Call sites that `nesyhar run` on a synthetic config does not reach: dataset
# directory IO, and the strategies-module names that only single-window
# prediction and direct callers of strategies.train use
NOT_ON_RUN = {("nesyhar.data", "load_dataset"), ("nesyhar.data", "write_dataset"),
              ("nesyhar.strategies", "predict"), ("nesyhar.strategies", "predict_many"),
              ("nesyhar.strategies", "train")}


def test_every_call_site_of_the_grid_workload_records_a_span(tmp_path, monkeypatch):
    # the grid workload traces `nesyhar run` on perfbench/grid.yaml; a call that
    # bypasses the name the tracer wraps (say, a module-level import of
    # load_knowledge) would leave its span, and its metric, empty
    spans = _benchmark_spans()
    raw = yaml.safe_load(Path("perfbench/grid.yaml").read_text())
    raw.update(rules="configs/synthetic.rules", output_dir=str(tmp_path / "out"), seeds=[21],
               fold_seed=22)
    raw["dataset"]["synthetic"]["seed"] = 20
    path = tmp_path / "grid.yaml"
    path.write_text(yaml.safe_dump(raw))
    # each span named after its call site: two sites share a span name
    sites = [(module, attr, f"{module}.{attr}", before, after)
             for module, attr, _, before, after in spans.CALL_SITES]
    monkeypatch.delenv("NESYHAR_THREADS", raising=False)   # spans of this process only
    tracer = spans.Tracer("run")
    tracer.install(sites)
    try:
        assert cli.main(["run", "--config", str(path)]) == 0
    finally:
        tracer.uninstall()
    expected = {f"{module}.{attr}" for module, attr, *_ in sites
                if (module, attr) not in NOT_ON_RUN}
    assert expected - {span[2] for span in tracer.spans} == set()

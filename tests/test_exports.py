import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import nesyhar

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


def test_benchmark_call_sites_resolve():
    # the benchmark's tracer wraps these names where their callers look them
    # up; a rename in the package must fail here, not in a benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    spans.check_call_sites(spans.CALL_SITES)

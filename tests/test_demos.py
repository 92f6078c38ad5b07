"""The walkthroughs in demos/ run against the public API; demo 04, the full
experiment harness (about 19 s), is left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nesyhar

DEMOS = ["01_rule_engine.py", "02_consistency_losses.py", "03_training_strategies.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    # the demos read configs/ relative to the repository root
    root = Path(__file__).resolve().parents[1]
    src = str(Path(nesyhar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(root / "demos" / demo)], cwd=root, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr

"""Every demo script runs to completion and prints its golden output byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
GOLDEN = ROOT / "tests" / "golden"


def test_demos_found():
    assert len(DEMOS) >= 6
    assert sorted(path.name for path in GOLDEN.glob("demo_*.txt")) == [
        f"demo_{demo.name[:2]}.txt" for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stdout == (GOLDEN / f"demo_{demo.name[:2]}.txt").read_bytes()

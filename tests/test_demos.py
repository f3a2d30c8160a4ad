"""Every demo script, and the README's quick start, runs to completion against the package sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


def run_python(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # the first python block of the README is its quick start
    quick_start = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    assert "run_continual" in quick_start
    proc = run_python(["-c", quick_start])
    assert proc.returncode == 0, proc.stderr

"""The demos run clean: each as a script, from a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: one line each demo prints, as a check that it ran to its point
HEADLINES = {
    "classify_components.py": "  3 factorizations = 3 irreducible components",
    "local_equations.py": "  variables - conditions = 5 = weight",
    "series_and_counts.py": "fillings of the square by total size 0..10: 1, 1, 3, 4, 7, 9, 14, 17, 24, 29, 38",
}


def test_every_demo_is_listed():
    assert sorted(path.name for path in (ROOT / "demos").glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_demo_runs_clean(name):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert HEADLINES[name] in proc.stdout.splitlines()

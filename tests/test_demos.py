"""Every demo script runs to completion, with and without python -O."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import truncring

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(truncring.__file__).resolve().parents[1])


def test_all_demos_found():
    assert DEMOS, "no demo scripts found"


@functools.cache
def _run(demo, *flags):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, str(demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_output_unchanged_under_optimization(demo):
    # python -O strips assert statements; the library must not depend on them
    proc = _run(demo, "-O")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == _run(demo).stdout

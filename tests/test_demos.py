from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hibinccr

SRC = Path(hibinccr.__file__).parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("0[1-5]_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr

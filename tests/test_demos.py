from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hibinccr

SRC = Path(hibinccr.__file__).parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("0[1-5]_*.py"))
# sha256 of each demo's stdout; it does not depend on the hash seed
STDOUT_SHA256 = {
    "01_running_example": "9d51a7f20ff287a69d66210b149228d0cc7c3d7474eefd270997bea48adb3264",
    "02_five_families": "46ae148f2a7f4afd47778f3f728b1e42e85177a0c709aa3c4a49cd1defa4802b",
    "03_mcm_regions": "5ef91fc1f5d0b874fd1652822b52c92ccfe865ef56b5fe62c1f8652e3cd7dc1f",
    "04_rank_one_cone": "02834219c5cb98ce5d3874bf98c5b4e2770245347d6c3adb2c0677d54b509379",
    "05_rank_two_cone_regions": "f2dd6f6b46065a22af0ed073b69da069f4e0602b88cffdb896563db4608eb913",
}


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import hibinccr

SRC = str(Path(hibinccr.__file__).parents[1])

REIMPORT = """
import gc, importlib, sys
for _ in range(21):
    for name in [m for m in sys.modules if m.split(".")[0] == "hibinccr"]:
        del sys.modules[name]
    importlib.import_module("hibinccr")
gc.collect()
print(sum(1 for o in gc.get_objects()
          if isinstance(o, type) and o.__name__ == "ClassGroupData"))
"""


def test_reimport_leaves_one_copy_of_each_class():
    """Nothing module-level (such as typing's cache of subscripted unions)
    may keep an earlier import of the package alive."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", REIMPORT],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "1"

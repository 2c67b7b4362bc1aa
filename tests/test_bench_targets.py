"""Every function the traced benchmark rebinds must exist in the library.

``bench/tracing.py`` looks each ``(module, function)`` pair of its
``TARGETS`` up with ``getattr`` on ``hibinccr.<module>``; a rename in the
library would break the traced run.  The table is read from the file's
source text, so the benchmark is neither imported nor written to.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets() -> dict[str, list[str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS table")


def test_every_traced_function_resolves():
    targets = _targets()
    assert targets
    missing = [f"{module}.{fn}" for module, fns in targets.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"hibinccr.{module}"),
                                       fn, None))]
    assert not missing, f"traced functions missing from hibinccr: {missing}"

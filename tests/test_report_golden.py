"""CLI report bytes on the bundled corpus, pinned.

``report_golden.json`` records, for every corpus file and each of
``analyze``, ``conic``, ``conic --format json`` and ``mcm-region --format
json`` (default box; every corpus file has class group rank 1 or 2), the
exit code and the sha256 of stdout.  On a poset the circuit polytope gives
the conic inequalities and points; on a cone file the facet rule gives the
conic points, and ``mcm-region`` marks its conic cells with the facet rule
on either kind.  So a change to either conic route that moves a single
report byte fails here.  The CLI runs in the corpus directory on bare file
names, so the ``"input"`` field does not depend on where the package lives.
Check the file without pytest (exit 1, naming each case that does not
match) with

    PYTHONPATH=src python tests/test_report_golden.py --check

and regenerate it (after a deliberate change to the reports) with

    PYTHONPATH=src python tests/test_report_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hibinccr
from hibinccr.cli import main

GOLDEN = Path(__file__).with_name("report_golden.json")
CORPUS = Path(hibinccr.__file__).with_name("corpus")

COMMANDS = [["analyze"], ["conic"], ["conic", "--format", "json"],
            ["mcm-region", "--format", "json"]]
ARGVS = [[cmd[0], name, *cmd[1:]]
         for name in sorted(p.name for p in CORPUS.iterdir())
         for cmd in COMMANDS]


def case_id(argv: list[str]) -> str:
    return " ".join(argv)


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"case": case_id(argv), "code": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def mismatches() -> list[str]:
    """The id of every case whose run differs from the file, or that the
    file lacks or holds out of order."""
    golden = _golden()
    ids = [case_id(argv) for argv in ARGVS]
    bad = [case["case"] for case in golden if case["case"] not in ids]
    expected = {case["case"]: case for case in golden}
    bad += [case_id(argv) for argv in ARGVS
            if run(argv) != expected.get(case_id(argv))]
    if not bad and [case["case"] for case in golden] != ids:
        bad.append("(case order)")
    return bad


try:
    import pytest
except ImportError:  # --check needs only the standard library
    pytest = None

if pytest is not None:
    @pytest.mark.parametrize("argv", ARGVS, ids=[case_id(a) for a in ARGVS])
    def test_report_matches_golden(argv):
        expected = {case["case"]: case for case in _golden()}[case_id(argv)]
        assert run(argv) == expected

    def test_golden_covers_every_case():
        assert [case["case"] for case in _golden()] == [case_id(a) for a in ARGVS]


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        bad = mismatches()
        for name in bad:
            print(f"mismatch: {name}")
        print(f"{len(ARGVS) - len(bad)}/{len(ARGVS)} cases match {GOLDEN.name}")
        sys.exit(1 if bad else 0)
    GOLDEN.write_text(json.dumps([run(argv) for argv in ARGVS], indent=1) + "\n",
                      encoding="utf-8")

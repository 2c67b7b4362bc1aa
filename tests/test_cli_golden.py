"""The CLI's help, usage and argparse-error bytes, pinned.

``cli_golden.json`` records, for each argv below, the exit code, stdout and
stderr of ``hibinccr.cli.main`` at an 80-column terminal, run in the corpus
directory.  Only the last two argvs read a file, a corpus poset whose
``--tree`` hint the CLI refuses, so every other case depends only on the
parser.  Regenerate the file (after a deliberate change to the parser) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import hibinccr
from hibinccr.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
CORPUS = Path(hibinccr.__file__).with_name("corpus")

ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "-h"], ["--version"],
    ["nccr"], ["nccr", "-h"], ["nccr", "bogus"], ["nccr", "verify"],
    ["nccr", "verify", "-h"], ["nccr", "verify", "x", "--format", "xml"],
    ["z1"], ["z1", "-h"], ["z1", "bogus"], ["z1", "analyze", "-h"],
    ["z1", "exchange-graph", "-h"], ["z1", "mutate", "-h"], ["z1", "analyze"],
    ["analyze", "-h"], ["classify", "-h"], ["conic", "-h"], ["mcm-region", "-h"],
    ["generate", "-h"], ["analyze", "-h", "x"], ["classify"], ["mcm-region"],
    ["generate"], ["generate", "--type"], ["generate", "--type", "VI"],
    ["generate", "--type", "I", "--m", "x"],
    ["analyze"], ["analyze", "a", "b"], ["conic", "x", "--format", "xml"],
    ["analyze", "x", "--bogus"], ["z1", "mutate", "x"],
    ["z1", "mutate", "x", "--window-lo", "a", "--end", "mid"],
    ["z1", "exchange-graph", "x", "--radius", "-3"],
    ["z1", "analyze", "x", "--bogus"], ["nccr", "verify", "x", "extra"],
    ["conic", "x", "--form", "xml"], ["z1", "mutate", "x", "-h"],
    ["-h", "z1", "analyze", "x"],
    ["analyze", "running_example.poset", "--tree", "e2,e3,e4,e5,e6,e99"],
    ["analyze", "running_example.poset", "--tree", "e5,e6,e7,e8,e1,e2"],
]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) or "(none)" for a in ARGVS])
def test_cli_bytes_match_golden(argv, monkeypatch):
    golden = _golden()
    if golden["python"] != list(sys.version_info[:2]):
        pytest.skip(f"argparse wording is pinned for Python {golden['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    expected = {tuple(case["argv"]): case for case in golden["cases"]}[tuple(argv)]
    assert run(argv) == expected


def test_golden_covers_every_argv():
    assert [case["argv"] for case in _golden()["cases"]] == ARGVS


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    cases = [run(argv) for argv in ARGVS]
    GOLDEN.write_text(json.dumps({"python": list(sys.version_info[:2]),
                                  "cases": cases}, indent=1) + "\n",
                      encoding="utf-8")

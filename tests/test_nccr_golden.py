"""NCCR verdicts and certificate bytes, pinned.

``nccr_golden.json`` records, for families I-V at two or three sizes and
the Segre posets of two chains of m = 1, 2, 3 elements, the verdict, reason
and conic count of ``verify_nccr`` and the sha256 of the certificate's JSON
lines.  A faster search, replay or conic enumeration must keep every one of
them.  Check the file without pytest (exit 1, naming each case that does
not match) with

    PYTHONPATH=src python tests/test_nccr_golden.py --check

and regenerate it (after a deliberate change to the certificates) with

    PYTHONPATH=src python tests/test_nccr_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from hibinccr import segre_poset, verify_nccr
from hibinccr.families import generate_family

GOLDEN = Path(__file__).with_name("nccr_golden.json")

CASES = [("I", (0, 1)), ("I", (2, 3)), ("II", (1, 1, 1)), ("II", (2, 2, 2)),
         ("III", (0, 2, 0)), ("III", (2, 3, 2)), ("IV", (1, 1)), ("IV", (3, 4)),
         ("V", (1,)), ("V", (3,)), ("segre", (1,)), ("segre", (2,)), ("segre", (3,)),
         ("V", (5,)), ("I", (5, 6)), ("II", (3, 3, 3))]


def case_id(tag: str, params: tuple[int, ...]) -> str:
    return f"{tag} {','.join(map(str, params))}"


def run(tag: str, params: tuple[int, ...]) -> dict:
    poset = segre_poset(*params) if tag == "segre" else generate_family(tag, params).poset
    report = verify_nccr(poset)
    cert = report.gldim.certificate if report.gldim is not None else None
    return {"case": case_id(tag, params), "verdict": report.verdict,
            "reason": report.reason, "conic_count": report.conic_count,
            "certificate_sha256": None if cert is None else
            hashlib.sha256(cert.to_json_lines().encode()).hexdigest()}


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def mismatches() -> list[str]:
    """The id of every case whose run differs from the file, or that the
    file lacks or holds out of order."""
    golden = _golden()
    ids = [case_id(*c) for c in CASES]
    bad = [case["case"] for case in golden if case["case"] not in ids]
    expected = {case["case"]: case for case in golden}
    bad += [case_id(*c) for c in CASES if run(*c) != expected.get(case_id(*c))]
    if not bad and [case["case"] for case in golden] != ids:
        bad.append("(case order)")
    return bad


try:
    import pytest
except ImportError:  # --check needs only the standard library
    pytest = None

if pytest is not None:
    @pytest.mark.parametrize("tag,params", CASES, ids=[case_id(*c) for c in CASES])
    def test_nccr_matches_golden(tag, params):
        expected = {case["case"]: case for case in _golden()}[case_id(tag, params)]
        assert run(tag, params) == expected

    def test_golden_covers_every_case():
        assert [case["case"] for case in _golden()] == [case_id(*c) for c in CASES]


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        bad = mismatches()
        for name in bad:
            print(f"mismatch: {name}")
        print(f"{len(CASES) - len(bad)}/{len(CASES)} cases match {GOLDEN.name}")
        sys.exit(1 if bad else 0)
    GOLDEN.write_text(json.dumps([run(*c) for c in CASES], indent=1) + "\n",
                      encoding="utf-8")

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hibinccr
from hibinccr import corpus_path
from hibinccr.cli import main

from conftest import load_corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus(name: str) -> str:
    return str(corpus_path(name))


def test_analyze_running_example(capsys):
    code, out, _ = run_cli(capsys, "analyze", corpus("running_example.poset"),
                           "--tree", "e2,e3,e4,e5,e6,e7")
    assert code == 0
    report = json.loads(out)
    assert report["class_group_rank"] == 2
    assert report["pure"] is True
    assert report["chain_length"] == 3
    assert report["cotree"] == ["e1", "e8"]
    assert report["divisor_classes"] == {
        "e1": [1, 0], "e2": [1, 0], "e3": [1, 0], "e4": [-1, 0],
        "e5": [-1, -1], "e6": [-1, -1], "e7": [0, 1], "e8": [0, 1]}
    assert report["conic_count"] == 13
    assert report["classification"]["type"] == "I"
    assert report["classification"]["params"] == [0, 1]


def test_analyze_deterministic(capsys):
    _, first, _ = run_cli(capsys, "analyze", corpus("type2_l1_m1_n1.poset"))
    _, second, _ = run_cli(capsys, "analyze", corpus("type2_l1_m1_n1.poset"))
    assert first == second


def test_analyze_cone(capsys):
    code, out, _ = run_cli(capsys, "analyze", corpus("rank1_example.cone"))
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "cone"
    assert report["class_group_rank"] == 1
    assert report["divisor_classes"] == [[1], [-2], [4], [-3]]
    assert report["conic_count"] == 9


def test_classify_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "classify", corpus("type5_n1.poset"))
    assert code == 0
    assert json.loads(out)["type"] == "V"

    bad = tmp_path / "npure.poset"
    bad.write_text("elements: a b c d e f\ncover: b < c\n"
                   "cover: d < e\ncover: e < f\n")
    code, out, _ = run_cli(capsys, "classify", str(bad))
    assert code == 1
    assert json.loads(out)["status"] == "rejected"


def test_conic_tsv(capsys):
    code, out, _ = run_cli(capsys, "conic", corpus("type4_m1_n1.poset"))
    assert code == 0
    rows = [tuple(int(v) for v in line.split("\t"))
            for line in out.strip().splitlines()]
    assert rows == [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]


def test_conic_json_on_cone(capsys):
    code, out, _ = run_cli(capsys, "conic", corpus("rank1_example.cone"),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["points"] == [[a] for a in range(-4, 5)]


def test_mcm_region_grid(capsys):
    code, out, _ = run_cli(capsys, "mcm-region", corpus("type4_m1_n1.poset"),
                           "--box=-2,2,-2,2")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert len(rows) == 5 and all(len(r) == 5 for r in rows)
    assert rows[0] == ["none"] * 5
    assert rows[1][1:4] == ["mcm+conic"] * 3


def test_mcm_region_json_type1(capsys):
    code, out, _ = run_cli(capsys, "mcm-region", corpus("type1_m0_n1.poset"),
                           "--box=-5,5,-5,5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert [0, 0] in report["mcm_and_conic"]
    assert len(report["mcm"]) == 17  # basis change preserves the count


def test_nccr_verify(capsys, tmp_path):
    cert = tmp_path / "cert.jsonl"
    code, out, _ = run_cli(capsys, "nccr", "verify", corpus("type1_m0_n1.poset"),
                           "--certificate", str(cert))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "verified"
    assert report["character_count"] == 6
    assert cert.exists()
    lines = [json.loads(line) for line in cert.read_text().splitlines()]
    assert all({"chi", "direction", "deps"} <= set(obj) for obj in lines)


def test_nccr_verify_negative(capsys, tmp_path):
    bad = tmp_path / "npure.poset"
    bad.write_text("elements: a b c d e f\ncover: b < c\n"
                   "cover: d < e\ncover: e < f\n")
    code, out, _ = run_cli(capsys, "nccr", "verify", str(bad))
    assert code == 1
    assert json.loads(out)["verdict"] == "rejected"


def test_generate_round_trip(capsys, tmp_path):
    out_path = tmp_path / "fam.poset"
    code, _, _ = run_cli(capsys, "generate", "--type", "II",
                         "--l", "1", "--m", "1", "--n", "1",
                         "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == load_corpus("type2_l1_m1_n1.poset")


def test_generate_missing_params(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--type", "IV", "--m", "1"])


def test_z1_analyze(capsys):
    code, out, _ = run_cli(capsys, "z1", "analyze", corpus("rank1_example.cone"))
    assert code == 0
    report = json.loads(out)
    assert report["summand_count"] == 5
    assert report["mcm_interval"] == [-4, 4]
    assert report["base_window"] == "T[0..4]"


def test_z1_exchange_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "z1", "exchange-graph",
                           corpus("rank1_example.cone"), "--generators-only")
    assert code == 0
    assert out.count(" -- ") == 4
    assert "M(0) = T[0..4]" in out


def test_z1_mutate(capsys):
    code, out, _ = run_cli(capsys, "z1", "mutate", corpus("rank1_example.cone"),
                           "--window-lo", "0", "--end", "low")
    assert code == 0
    report = json.loads(out)
    assert report["result_window"] == "T[1..5]"
    assert report["kernel_class"] == 5
    assert report["middle_classes"] == [2, 3]


def test_usage_error_on_bad_file(capsys, tmp_path):
    bad = tmp_path / "broken.poset"
    bad.write_text("elements: a\ncover: a < b\n")
    code, _, err = run_cli(capsys, "classify", str(bad))
    assert code == 2
    assert "error" in err


def test_usage_error_on_missing_file(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "/nonexistent/path.poset"])
    assert info.value.code == 2


def test_usage_error_on_wrong_cone_rank(capsys):
    with pytest.raises(SystemExit) as info:
        main(["z1", "analyze", corpus("rank2_demo.cone")])
    assert info.value.code == 2


def test_rank2_demo_regions(capsys):
    code, out, _ = run_cli(capsys, "mcm-region", corpus("rank2_demo.cone"),
                           "--box=-4,4,-4,4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert [0, 0] in report["mcm_and_conic"]


# inputs written for the test; every other file name is a corpus file
SCRATCH_INPUTS = {
    "bad_dim.cone": "dim: x\nray: 1 0\n",
    "smooth.cone": "dim: 2\nray: 1 0\nray: 0 1\n",  # class group rank 0
    "huge_box.cone": "dim: 2\nray: 99999999999999999999 1\nray: -1 0\nray: 0 -1\n",
}


@pytest.mark.parametrize("argv", [
    ["analyze", "running_example.poset", "--tree", "e2,x"],
    ["mcm-region", "type4_m1_n1.poset", "--box=1,a,2,3"],
    ["mcm-region", "type4_m1_n1.poset", "--box=3,1,2,1"],
    ["mcm-region", "rank1_example.cone", "--box=1,2,3,4"],
    ["mcm-region", "rank2_demo.cone", "--box=1,2"],
    ["analyze", "bad_dim.cone"],
    ["mcm-region", "smooth.cone"],
    ["mcm-region"],
    ["analyze", "running_example.poset", "--bogus"],
    ["conic", "rank1_example.cone", "--format", "xml"],
    ["z1", "exchange-graph", "rank1_example.cone", "--radius", "-3"],
    ["conic", "huge_box.cone"],
    ["analyze", "huge_box.cone"],
], ids=["tree-label", "box-integer", "box-inverted", "box-rank1-arity",
        "box-rank2-arity", "cone-dim", "mcm-region-rank0", "missing-input",
        "unknown-option", "bad-format-choice", "negative-radius", "conic-huge-box",
        "analyze-huge-box"])
def test_malformed_input_is_a_usage_error(tmp_path, argv):
    """The command run as a program: exit 2 and one ``error:`` line."""
    args = []
    for token in argv:
        if token in SCRATCH_INPUTS:
            path = tmp_path / token
            path.write_text(SCRATCH_INPUTS[token])
            token = str(path)
        elif token.endswith((".poset", ".cone")):
            token = str(corpus_path(token))
        args.append(token)
    env = dict(os.environ, PYTHONPATH=str(Path(hibinccr.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hibinccr.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_help_is_not_an_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["mcm-region", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hibinccr mcm-region")


# ---------------------------------------------------------------------------
# fuzzing the poset grammar in-process


FUZZ_NAMES = ["a", "b", "c", "d", "e"]
_fuzz_name = st.sampled_from(FUZZ_NAMES + ["bot", "top", "a!", "zz"])
_fuzz_line = st.one_of(
    st.lists(_fuzz_name, max_size=6).map(lambda names: "elements: " + " ".join(names)),
    st.tuples(_fuzz_name, _fuzz_name).map(lambda ab: f"cover: {ab[0]} < {ab[1]}"),
    st.sampled_from(["cover: a<b", "cover: a > b", "cover: a < b < c", "cover:",
                     "elements:", "# a comment", "cover: a < b  # trailing", "", "   "]),
    st.text(alphabet="abc:<# \t!x0", max_size=12),
)


@st.composite
def poset_files(draw):
    """Poset files over at most five names, which keeps the class group
    rank, and with it ``analyze``, small: mostly an elements line and cover
    lines, with malformed, duplicated, commented and garbage lines mixed in
    at random places."""
    lines, names = [], FUZZ_NAMES
    header = draw(st.integers(0, 9)) > 0
    if header:
        names = draw(st.lists(st.sampled_from(FUZZ_NAMES), unique=True, min_size=1,
                              max_size=5))
        lines.append("elements: " + " ".join(names))
    if len(names) >= 2:
        pair = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
        for a, b in draw(st.lists(pair, max_size=7)):
            if draw(st.booleans()):
                a, b = sorted((a, b))  # name-ordered covers alone form no cycle
            lines.append(f"cover: {a} < {b}")
    for line in draw(st.lists(_fuzz_line, max_size=2)):
        lines.insert(draw(st.integers(int(header), len(lines))), line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(poset_files())
def test_poset_grammar_fuzz(text):
    """Any poset file: exit 0, 1 or 2, no traceback, the same bytes twice."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.poset")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("classify", "analyze"):
            first = _main_in_process([command, path])
            code, _, err = first
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            assert _main_in_process([command, path]) == first


# ---------------------------------------------------------------------------
# fuzzing the cone grammar in-process


HUGE = 99999999999999999999
_fuzz_coord = st.one_of(st.integers(-3, 3), st.sampled_from([HUGE, -HUGE]))
_fuzz_cone_line = st.one_of(
    st.sampled_from(["dim:", "dim: x", "dim: 0", "dim: -1", "dim: 2 2", "ray:", "ray: 1",
                     "ray: a b", "ray: 1 0 0 0", "ray: 1 0  # trailing", "# a comment",
                     "elements: a b", "", "   "]),
    st.lists(_fuzz_coord, max_size=4).map(lambda cs: "ray: " + " ".join(map(str, cs))),
    st.text(alphabet="dimray:01- #\t", max_size=12),
)


@st.composite
def cone_files(draw):
    """Cone files with at most two more rays than the dimension, which keeps
    the class group rank, and with it the conic and MCM boxes, small unless
    a coordinate is huge: mostly a dim line and well-formed rays, with
    duplicated, malformed, out-of-range and garbage lines mixed in at random
    places."""
    dim = draw(st.integers(1, 3))
    header = draw(st.integers(0, 9)) > 0
    lines = [f"dim: {dim}"] if header else []
    ray = st.lists(_fuzz_coord, min_size=dim, max_size=dim)
    for coords in draw(st.lists(ray, max_size=dim + 2)):
        lines.append("ray: " + " ".join(map(str, coords)))
        if draw(st.integers(0, 9)) == 0:
            lines.append(lines[-1])
    for line in draw(st.lists(_fuzz_cone_line, max_size=2)):
        lines.insert(draw(st.integers(int(header), len(lines))), line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cone_files())
def test_cone_grammar_fuzz(text):
    """Any cone file: exit 0, 1 or 2, no traceback, the same bytes twice."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cone")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in (["analyze"], ["conic"], ["mcm-region"], ["z1", "analyze"]):
            first = _main_in_process([*command, path])
            code, _, err = first
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            assert _main_in_process([*command, path]) == first

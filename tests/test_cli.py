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
from hibinccr import cli, corpus_path
from hibinccr.cli import main

from conftest import load_corpus
from oracles import tree_main


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
    ["generate", "--type", "I", "--m", "1", "--n", "1", "-o", "missing-dir/x.poset"],
    ["nccr", "verify", "type1_m0_n1.poset", "--certificate", "missing-dir/x.jsonl"],
    ["conic", "rank2_demo.cone", "--tree", "x"],
    ["mcm-region", "rank1_example.cone", "--tree", "e2,x"],
    ["analyze", "rank2_demo.cone", "--tree", "e1,e2,e3,e4"],
], ids=["tree-label", "box-integer", "box-inverted", "box-rank1-arity",
        "box-rank2-arity", "cone-dim", "mcm-region-rank0", "missing-input",
        "unknown-option", "bad-format-choice", "negative-radius", "conic-huge-box",
        "analyze-huge-box", "unwritable-output", "unwritable-certificate",
        "conic-cone-tree", "mcm-region-cone-tree", "analyze-cone-tree"])
def test_malformed_input_is_a_usage_error(tmp_path, argv):
    """The command run as a program: exit 2, one ``error:`` line and no
    report (an output path in a missing directory is refused too)."""
    args = []
    for token in argv:
        if token.startswith("missing-dir/"):
            token = str(tmp_path / token)
        elif token in SCRATCH_INPUTS:
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
    assert proc.stdout == ""


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


def _main_in_process(argv, entry=main):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = entry(argv)
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


# ---------------------------------------------------------------------------
# parsers: built per call, the named leaf alone, none kept


TREE_PROGS = ["hibinccr", "hibinccr analyze", "hibinccr classify", "hibinccr conic",
              "hibinccr mcm-region", "hibinccr nccr", "hibinccr nccr verify",
              "hibinccr generate", "hibinccr z1", "hibinccr z1 analyze",
              "hibinccr z1 exchange-graph", "hibinccr z1 mutate"]


@pytest.mark.parametrize("argv, progs", [
    (["z1", "analyze", "rank1_example.cone"], ["hibinccr z1 analyze"]),
    (["classify", "type1_m0_n1.poset"], ["hibinccr classify"]),
    (["nccr", "verify", "type1_m0_n1.poset"], ["hibinccr nccr verify"]),
    (["bogus"], TREE_PROGS),
], ids=["z1-analyze", "classify", "nccr-verify", "invalid-choice"])
def test_main_builds_only_the_chosen_parsers(monkeypatch, argv, progs):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    argv = [corpus(t) if t.endswith((".poset", ".cone")) else t for t in argv]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
    assert built == progs


NO_PARSER_KEPT = """
import contextlib, gc, io
from hibinccr import corpus_path
from hibinccr.cli import _Parser, main
cone = str(corpus_path("rank1_example.cone"))
poset = str(corpus_path("type1_m0_n1.poset"))
argvs = [["z1", "analyze", cone], ["classify", poset], ["nccr", "verify", poset],
         ["z1", "mutate", cone, "--window-lo", "0", "--end", "low"],
         ["analyze", poset, "--bogus"], ["conic", "-h"], ["bogus"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in argvs * 3:
        try:
            main(argv)
        except SystemExit:
            pass
gc.collect()
print(sum(1 for o in gc.get_objects() if isinstance(o, _Parser)))
"""


def test_no_parser_outlives_main():
    """Parsers are garbage once ``main`` returns: a parser cached at module
    level or behind a cache keeps memory for the life of the process."""
    env = dict(os.environ, PYTHONPATH=str(Path(hibinccr.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", NO_PARSER_KEPT],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "0"


def test_build_parser_parses_every_command():
    """One parser from ``build_parser`` takes every command in turn."""
    parser = cli.build_parser()
    for argv, func in [
        (["analyze", "f"], cli._cmd_analyze), (["classify", "f"], cli._cmd_classify),
        (["conic", "f"], cli._cmd_conic), (["mcm-region", "f"], cli._cmd_mcm_region),
        (["nccr", "verify", "f"], cli._cmd_nccr_verify),
        (["generate", "--type", "V"], cli._cmd_generate),
        (["z1", "analyze", "f"], cli._cmd_z1_analyze),
        (["z1", "exchange-graph", "f"], cli._cmd_z1_exchange_graph),
        (["z1", "mutate", "f", "--window-lo", "0", "--end", "low"], cli._cmd_z1_mutate),
    ]:
        assert parser.parse_args(argv).func is func


# ---------------------------------------------------------------------------
# fuzzing the argv in-process


FUZZ_POSETS = ["running_example.poset", "type1_m0_n1.poset", "type5_n0.poset",
               "segre_m1.poset"]
FUZZ_CONES = ["rank1_example.cone", "rank2_demo.cone"]
# placeholders, replaced by paths under the example's scratch directory
FUZZ_PATHS = ["<missing-file>", "<scratch-dir>", "<out>", "<missing-dir>/out"]
_PARAMS = (["0", "1", "2", "3"], ["-1", "x", ""])
_OUTPUT = (["<out>"], ["<scratch-dir>", "<missing-dir>/out"])
# each option's values: those a well-formed call uses, and wrong ones
FUZZ_VALUES = {
    "--box": (["-2,2", "0,0", "-1,1,-1,1", "-4,4,-4,4"], ["3,1", "2,1,0,0", "1,2,3", "a,b", ""]),
    "--tree": (["e2,e3,e4,e5,e6,e7"], ["e1", "e0", "e99", "e2,x", "x", ""]),
    "--radius": (["0", "1", "3"], ["-3", "x", ""]),
    "--window-lo": (["-2", "0", "3"], ["x", ""]),
    "--end": (["low", "high"], ["mid"]),
    "--format": (["json", "tsv"], ["xml"]),
    "--type": (["I", "II", "III", "IV", "V"], ["VI", ""]),
    "--l": _PARAMS, "--m": _PARAMS, "--n": _PARAMS,
    "-o": _OUTPUT, "--output": _OUTPUT, "--certificate": _OUTPUT,
}
# each command with the inputs it reads and the options it takes
FUZZ_COMMANDS = {
    ("analyze",): (FUZZ_POSETS + FUZZ_CONES, ["--tree", "--format"]),
    ("classify",): (FUZZ_POSETS, ["--format"]),
    ("conic",): (FUZZ_POSETS + FUZZ_CONES, ["--tree", "--format"]),
    ("mcm-region",): (FUZZ_POSETS + FUZZ_CONES, ["--tree", "--box", "--format"]),
    ("nccr", "verify"): (FUZZ_POSETS, ["--certificate", "--format"]),
    ("generate",): (None, ["--l", "--m", "--n", "-o", "--output"]),
    ("z1", "analyze"): (FUZZ_CONES, ["--format"]),
    ("z1", "exchange-graph"): (FUZZ_CONES, ["--generators-only", "--radius"]),
    ("z1", "mutate"): (FUZZ_CONES, ["--window-lo", "--end", "--format"]),
}
_fuzz_input = st.sampled_from(FUZZ_POSETS + FUZZ_CONES + FUZZ_PATHS)
_fuzz_noise = st.one_of(
    _fuzz_input,
    st.sampled_from(sorted(FUZZ_VALUES) + ["--generators-only"]),
    st.sampled_from(sorted({v for good, bad in FUZZ_VALUES.values() for v in good + bad})),
    st.sampled_from(["-h", "--help", "--bogus", "bogus", "-", "--", "-x", "=",
                     "--format=json", "--box=-2,2,-2,2", "nccr", "z1", "verify",
                     "analyze", "generate"]),
)


def _fuzz_value(option: str):
    good, bad = FUZZ_VALUES[option]
    return st.one_of(st.sampled_from(good), st.sampled_from(good + bad))


@st.composite
def cli_argvs(draw):
    """A call of one command, mostly well formed: an input of the kind it
    reads (``--type`` for ``generate``) and options it takes, with values
    mostly from their domains; now and then a noise token (any option,
    value, input, command name or junk) put anywhere, or the argv cut
    short.  Inputs are small corpus files and ``generate`` parameters stay
    at most 3, so no call is expensive."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    inputs, options = FUZZ_COMMANDS[command]
    argv = list(command)
    if draw(st.integers(0, 9)) < 9:
        if inputs is None:
            argv += ["--type", draw(_fuzz_value("--type"))]
        else:
            argv.append(draw(st.one_of(st.sampled_from(inputs), _fuzz_input)))
    for option in draw(st.lists(st.sampled_from(options), unique=True)):
        argv.append(option)
        if option in FUZZ_VALUES:
            argv.append(draw(_fuzz_value(option)))
    while draw(st.integers(0, 3)) == 3:
        argv.insert(draw(st.integers(0, len(argv))), draw(_fuzz_noise))
    if draw(st.integers(0, 9)) == 9:
        argv = argv[:draw(st.integers(0, len(argv)))]
    return argv


def _fuzz_path(token: str, tmp: str) -> str:
    if token in FUZZ_POSETS + FUZZ_CONES:
        return corpus(token)
    return (token.replace("<missing-file>", os.path.join(tmp, "missing.poset"))
                 .replace("<scratch-dir>", tmp)
                 .replace("<out>", os.path.join(tmp, "out"))
                 .replace("<missing-dir>", os.path.join(tmp, "missing")))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cli_argvs())
def test_argv_fuzz(argv):
    """Any argv: exit 0, 1 or 2, no traceback, exactly one ``error:`` line
    on a usage error, the same bytes twice."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [_fuzz_path(token, tmp) for token in argv]
        first = _main_in_process(argv)
        code, _, err = first
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
        assert _main_in_process(argv) == first


# ---------------------------------------------------------------------------
# routed argvs against the whole parser tree


# command heads: every leaf, each group alone, and heads that name no leaf
ROUTE_HEADS = [
    [], ["--"], ["--he"], ["-h"], ["bogus"], ["analyze"], ["classify"], ["conic"],
    ["mcm-region"], ["nccr"], ["nccr", "verify"], ["nccr", "bogus"], ["generate"],
    ["z1"], ["z1", "analyze"], ["z1", "exchange-graph"], ["z1", "mutate"],
    ["z1", "bogus"], ["--", "analyze"], ["z1", "--he"],
]
# option and noise tails on corpus files and the placeholder paths of
# FUZZ_PATHS
P, C = "type1_m0_n1.poset", "rank1_example.cone"
ROUTE_TAILS = [
    [], [P], [C], ["<missing-file>"], ["<scratch-dir>"],
    [P, "--format", "json"], [C, "--format", "tsv"],
    [P, "--format", "xml"], [C, "--form", "json"],
    [P, "--format=json"], [P, "--format"],
    [P, "--tree", "e2,e3"], [P, "--tree=e1"], [C, "--tree", "e1"],
    [C, "--box", "-2,2"], [P, "--box=-1,1,-1,1"],
    [P, "--certificate", "<out>"], [P, "--cert", "<missing-dir>/out"],
    [C, "--window-lo", "0", "--end", "low"],
    [C, "--end", "high", "--window-lo", "-1", "--format", "json"],
    [C, "--window-lo", "x", "--end", "mid"],
    [C, "--generators-only"], [C, "--gen", "--radius", "1"],
    [C, "--radius", "-3"],
    ["--type", "V", "--n", "1"], ["--type", "I", "--m", "0", "--n", "1", "-o", "<out>"],
    ["--type", "II", "--l", "1"], ["--type", "VI"], ["--ty", "IV", "--m", "1", "--n", "x"],
    ["--type", "III", "--l", "0", "--m", "1", "--n", "0", "--output", "<missing-dir>/out"],
    ["-h"], ["--help"], ["--he"], [C, "-h"], [P, "extra"],
    [P, "--bogus"], [P, "--bogus", "-h"], ["--", P],
    [C, "--"], ["-", P], ["-x", C], ["verify", P],
    ["analyze", C], [P, C, "--format", "json"], ["="],
    ["--format", "json", C],
]


def _namespace(parse, argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("head", ROUTE_HEADS, ids=[" ".join(h) or "(none)" for h in ROUTE_HEADS])
def test_routed_argv_matches_the_tree(monkeypatch, head):
    """An argv routed to its leaf parser gives the exit code, stdout and
    stderr of the same argv parsed by the whole tree, and the namespace
    apart from the tree's command names."""
    monkeypatch.setenv("COLUMNS", "80")
    with tempfile.TemporaryDirectory() as tmp:
        for tail in ROUTE_TAILS:
            argv = head + [_fuzz_path(token, tmp) for token in tail]
            assert _main_in_process(argv) == _main_in_process(argv, tree_main), argv
            routed = _namespace(cli._parse, argv)
            tree = _namespace(cli.build_parser().parse_args, argv)
            if tree is not None:
                for key in ("command", "nccr_command", "z1_command"):
                    tree.pop(key, None)
            assert routed == tree, argv

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hibinccr
from hibinccr import (BOTTOM, TOP, BoundedPoset, PosetError, Rejection, TypeParams,
                      build_poset, chordless_circuits, class_group, classify, corpus_path,
                      flip, generate_family, is_pure, parse_poset, polynomial_extension_edge,
                      serialize_poset, sigma_matrix, spanning_tree, verify_nccr)

from conftest import EXAMPLE_TREE_HINT, load_corpus
from oracles import (backtracking_chordless_circuits, relabel, string_build_poset,
                     string_parse_poset)
from test_cli import poset_files

CORPUS_POSETS = sorted(path.name for path in corpus_path("").iterdir()
                       if path.name.endswith(".poset"))
FAMILY_SIZES = [("I", (1, 2)), ("I", (4, 6)), ("II", (1, 1, 1)), ("II", (3, 2, 4)),
                ("III", (0, 2, 0)), ("III", (2, 3, 1)), ("IV", (1, 2)), ("IV", (5, 3)),
                ("V", (0,)), ("V", (7,))]


# ---------------------------------------------------------------------------
# parsing


def test_running_example_shape(running_example):
    assert running_example.elements == ("bot", "p1", "p2", "p3", "p4", "p5", "top")
    assert running_example.n_edges == 8
    assert running_example.edges == (
        ("bot", "p1"), ("p1", "p2"), ("p2", "top"), ("bot", "p3"),
        ("p3", "p4"), ("p4", "top"), ("p3", "p5"), ("p5", "top"))


def test_empty_poset():
    p = parse_poset("elements:\n")
    assert p.elements == (BOTTOM, TOP)
    assert p.edges == ((BOTTOM, TOP),)
    assert is_pure(p).pure and is_pure(p).chain_length == 1


def test_redundant_cover_rejected():
    for text, message in [
        ("elements: a b c\ncover: a < b\ncover: b < c\ncover: a < c\n",
         "cover 'a' < 'c' is implied by transitivity (via 'b')"),
        ("elements: a b c d\ncover: a < b\ncover: b < c\ncover: c < d\ncover: a < d\n",
         "cover 'a' < 'd' is implied by transitivity (via 'b')"),
    ]:
        with pytest.raises(PosetError) as info:
            parse_poset(text)
        assert str(info.value) == message


def test_cyclic_cover_rejected():
    with pytest.raises(PosetError, match="cyclic"):
        parse_poset("elements: a b\ncover: a < b\ncover: b < a\n")


def test_unknown_element_rejected():
    with pytest.raises(PosetError, match="unknown"):
        parse_poset("elements: a\ncover: a < b\n")


def test_reserved_names_rejected():
    with pytest.raises(PosetError, match="reserved"):
        parse_poset("elements: bot x\n")


def test_duplicate_cover_rejected():
    with pytest.raises(PosetError, match="duplicate"):
        parse_poset("elements: a b\ncover: a < b\ncover: a < b\n")


# ---------------------------------------------------------------------------
# purity


def test_running_example_pure(running_example):
    report = is_pure(running_example)
    assert report.pure and report.chain_length == 3


def test_unequal_chains_not_pure():
    p = parse_poset("elements: a b c\ncover: b < c\n")  # chains of length 2 and 3
    assert not is_pure(p).pure


def test_three_parallel_two_edge_chains_pure():
    p = parse_poset("elements: a b c\n")
    assert is_pure(p).pure and is_pure(p).chain_length == 2


# ---------------------------------------------------------------------------
# circuits, with an independent exhaustive oracle


def _oracle_chordless_cycles(p):
    g = nx.Graph()
    g.add_edges_from(p.edges)
    out = []
    for cyc in nx.simple_cycles(g):
        n = len(cyc)
        chordless = True
        for i in range(n):
            for j in range(i + 1, n):
                if (j - i) % n in (1, n - 1):
                    continue
                if g.has_edge(cyc[i], cyc[j]):
                    chordless = False
        if chordless:
            out.append(frozenset(cyc))
    return sorted(out, key=sorted)


def test_running_example_circuits(running_example):
    circuits = chordless_circuits(running_example)
    assert len(circuits) == 3
    assert sorted((frozenset(c.vertex_cycle) for c in circuits), key=sorted) == \
        _oracle_chordless_cycles(running_example)
    by_edges = {(c.x_plus, c.x_minus) for c in circuits}
    assert ((4, 5), (6, 7)) in by_edges          # inner square
    assert ((0, 1, 2), (3, 4, 5)) in by_edges    # outer hexagon
    assert ((0, 1, 2), (3, 6, 7)) in by_edges    # long left-right hexagon


def test_tree_poset_has_no_circuits():
    p = parse_poset("elements: a b c\ncover: a < b\ncover: b < c\n")
    assert chordless_circuits(p) == []


def test_type4_small_circuits():
    p = parse_poset(load_corpus("type4_m1_n1.poset"))
    circuits = chordless_circuits(p)
    # the degree-4 vertex is a cut vertex, so only the two squares are cycles;
    # confirmed by the exhaustive oracle
    assert len(circuits) == 2
    assert len(_oracle_chordless_cycles(p)) == 2


@pytest.mark.parametrize("name", ["type1_m1_n1.poset", "type2_l1_m1_n1.poset",
                                  "type3_l1_m2_n1.poset", "type5_n1.poset"])
def test_circuits_match_oracle(name):
    p = parse_poset(load_corpus(name))
    circuits = chordless_circuits(p)
    assert sorted((frozenset(c.vertex_cycle) for c in circuits), key=sorted) == \
        _oracle_chordless_cycles(p)


def _nx_chordless_cycles(p):
    """networkx's chordless cycles (Dias et al. 2013) in the library's
    canonical form: least-index vertex first, its smaller-index neighbour
    second, sorted by (length, vertex indices)."""
    idx = {el: i for i, el in enumerate(p.elements)}
    g = nx.Graph()
    g.add_edges_from(p.edges)
    out = []
    for cyc in nx.chordless_cycles(g):
        s = cyc.index(min(cyc, key=idx.get))
        cyc = cyc[s:] + cyc[:s]
        if idx[cyc[1]] > idx[cyc[-1]]:
            cyc = [cyc[0]] + cyc[:0:-1]
        out.append(tuple(cyc))
    return sorted(out, key=lambda c: (len(c), [idx[v] for v in c]))


def _assert_circuits_match_oracles(p):
    circuits = chordless_circuits(p)
    assert circuits == backtracking_chordless_circuits(p)
    assert [c.vertex_cycle for c in circuits] == _nx_chordless_cycles(p)


def _complete_bipartite_poset(k):
    """Two antichains of k with every cover between them: cycle rank
    k^2 - 1 once bot and top are adjoined."""
    lows, highs = [f"a{i}" for i in range(k)], [f"b{i}" for i in range(k)]
    return build_poset(lows + highs, [(a, b) for a in lows for b in highs])


@pytest.mark.parametrize("name", CORPUS_POSETS)
def test_circuits_match_oracles_on_corpus(name):
    _assert_circuits_match_oracles(parse_poset(load_corpus(name)))


@pytest.mark.parametrize("tag,params", FAMILY_SIZES)
def test_circuits_match_oracles_on_families(tag, params):
    _assert_circuits_match_oracles(generate_family(tag, params).poset)


def test_circuits_match_oracles_at_high_cycle_rank():
    p = _complete_bipartite_poset(3)
    assert p.n_edges - len(p.elements) + 1 == 8
    circuits = chordless_circuits(p)
    # four-cycles a b a' b', bot a b a' and top b a b', 9 of each; a longer
    # cycle meets some a and b' that are not adjacent on it, a chord
    assert [len(c.vertex_cycle) for c in circuits] == [4] * 27
    _assert_circuits_match_oracles(p)


def test_pure_circuits_balance():
    for name in ["running_example.poset", "type1_m2_n3.poset", "type3_l0_m2_n0.poset",
                 "type4_m2_n3.poset", "type5_n2.poset"]:
        p = parse_poset(load_corpus(name))
        for c in chordless_circuits(p):
            assert len(c.x_plus) == len(c.x_minus)


# ---------------------------------------------------------------------------
# spanning trees


def test_running_example_tree_hint(running_example):
    tree = spanning_tree(running_example, hint=EXAMPLE_TREE_HINT)
    assert tree.cotree_edges == (0, 7)


def test_chain_tree_is_everything():
    p = parse_poset("elements: a b\ncover: a < b\n")
    tree = spanning_tree(p)
    assert tree.cotree_edges == ()
    assert tree.tree_edges == frozenset(range(p.n_edges))


def test_default_tree_spans(running_example):
    tree = spanning_tree(running_example)
    assert len(tree.tree_edges) == len(running_example.elements) - 1
    assert len(tree.cotree_edges) == 2


def test_bad_hints_rejected(running_example):
    with pytest.raises(PosetError):
        spanning_tree(running_example, hint=[0, 1, 2, 3, 4, 5])  # e6 closes bot-p1-p2-top-p4-p3
    with pytest.raises(PosetError):
        spanning_tree(running_example, hint=[0, 1, 2, 3, 4, 5, 6, 7])
    with pytest.raises(PosetError):
        # right count but contains the square 4,5,6,7
        spanning_tree(running_example, hint=[4, 5, 6, 7, 0, 1])


@pytest.mark.parametrize("hint, message", [
    ([1, 2, 3, 98, 5, 6], "tree hint references unknown edge e99"),
    ([-1, 1, 2, 3, 4, 5], "tree hint references unknown edge e0"),
    ([4, 5, 6, 7, 0, 1], "tree hint is not a spanning tree: e8 closes a cycle"),
    ([0, 1, 2, 3, 4, 5, 6, 7], "tree hint is not a spanning tree: e6 closes a cycle"),
    ([1, 2, 3, 4, 5], "tree hint is not a spanning tree: it has 5 edges, "
                      "a spanning tree has 6"),
], ids=["unknown", "negative", "cycle", "too-many", "too-few"])
def test_bad_hints_name_the_edge(running_example, hint, message):
    """A refused hint names the unknown edge, or the first edge in the
    hint's order that closes a cycle, or else the edge counts."""
    with pytest.raises(PosetError) as info:
        spanning_tree(running_example, hint=hint)
    assert str(info.value) == message


@pytest.mark.parametrize("hint, message", [
    ([1.7, 2, 3, 4, 5, 6], "tree hint entry 1.7 is not an edge index"),
    ([1, "2", 3, 4, 5, 6], "tree hint entry '2' is not an edge index"),
    ([1, 2, 3, 4, 5, 6, True], "tree hint entry True is not an edge index"),
], ids=["float", "str", "bool"])
def test_non_integer_hint_entries_refused(running_example, hint, message):
    """A hint entry that is not an ``int`` is refused by name, not read as
    the edge it would convert to (1.7 and True once read as e2, "2" as e3)."""
    with pytest.raises(PosetError) as info:
        spanning_tree(running_example, hint=hint)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# polynomial extension edges


def test_chain_every_edge_qualifies():
    p = parse_poset("elements: a b c\ncover: a < b\ncover: b < c\n")
    assert polynomial_extension_edge(p) == 0


def test_running_example_has_none(running_example):
    assert polynomial_extension_edge(running_example) is None


def test_type1_families_have_none():
    for name in ["type1_m0_n1.poset", "type1_m2_n3.poset"]:
        p = parse_poset(load_corpus(name))
        assert polynomial_extension_edge(p) is None


def test_bridge_edge_detected():
    # two diamonds joined by a bridge: the bridge lies on every maximal chain
    text = ("elements: a b v w c d\n"
            "cover: a < v\ncover: b < v\ncover: v < w\n"
            "cover: w < c\ncover: w < d\n")
    p = parse_poset(text)
    k = polynomial_extension_edge(p)
    assert k is not None
    assert set(p.edges[k]) == {"v", "w"}


# ---------------------------------------------------------------------------
# serialization and canonicity


@pytest.mark.parametrize("name", ["running_example.poset", "type2_l1_m1_n1.poset",
                                  "type5_n0.poset", "segre_m2.poset"])
def test_serialize_round_trip(name):
    p = parse_poset(load_corpus(name))
    assert parse_poset(serialize_poset(p)) == p


def test_parse_ignores_declaration_order():
    a = parse_poset("elements: x y z\ncover: x < y\ncover: x < z\n")
    b = parse_poset("elements: z y x\ncover: x < z\ncover: x < y\n")
    assert a == b


# ---------------------------------------------------------------------------
# property tests on random posets


@st.composite
def random_covers(draw):
    """Names v0..v5 at most and the cover pairs of a random order on them."""
    size = draw(st.integers(min_value=0, max_value=6))
    names = [f"v{i}" for i in range(size)]
    rels = set()
    for i in range(size):
        for j in range(i + 1, size):
            if draw(st.booleans()):
                rels.add((i, j))
    # transitive closure, then covers only
    closure = set(rels)
    for k, i, j in itertools.product(range(size), repeat=3):
        if (i, k) in closure and (k, j) in closure:
            closure.add((i, j))
    covers = [(names[i], names[j]) for (i, j) in closure
              if not any((i, k) in closure and (k, j) in closure for k in range(size))]
    return names, covers


def random_posets():
    return random_covers().map(lambda nc: build_poset(*nc))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(random_posets())
def test_polynomial_extension_edge_agrees_with_chain_listing(p):
    """The first edge on every maximal chain, against listing the chains."""
    chains = [set(zip(path, path[1:]))
              for path in nx.all_simple_paths(nx.DiGraph(p.edges), BOTTOM, TOP)]
    expected = next((k for k, e in enumerate(p.edges)
                     if all(e in chain for chain in chains)), None)
    assert polynomial_extension_edge(p) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_posets())
def test_covers_and_degrees_agree_with_the_edge_list(p):
    """Covers in edge order and degrees, read from the incidence lists,
    equal a scan of the edge list, position by position."""
    degrees = p.degrees
    assert len(degrees) == len(p.elements)
    for i in range(len(p.elements)):
        ups = [u for l, u in p.edge_ends if l == i]
        downs = [l for l, u in p.edge_ends if u == i]
        assert p.covers(i, 0) == ups and p.covers(i, 1) == downs
        assert degrees[i] == len(ups) + len(downs)


@pytest.mark.parametrize("tag, params", [("I", (1, 2)), ("II", (1, 1, 1)), ("III", (0, 2, 0)),
                                         ("IV", (1, 2)), ("V", (0,))])
def test_pipeline_builds_no_names(tag, params):
    """Purity, the polynomial-extension test, the spanning tree, the class
    group, the circuits, the classification and the NCCR check all run on
    positions: none of them derives the name pairs."""
    family = generate_family(tag, params).poset  # names its edges to find the figure's cotree
    p = BoundedPoset(family.elements, family.edge_ends)
    assert is_pure(p).pure and polynomial_extension_edge(p) is None
    tree = spanning_tree(p)
    assert class_group(sigma_matrix(p), tree).rank == 2
    assert chordless_circuits(p)
    assert classify(p) == TypeParams(tag, params, "as-given")
    assert verify_nccr(p).ok
    assert "_incident" in vars(p)
    assert "edges" not in vars(p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_posets())
def test_roundtrip_random(p):
    assert parse_poset(serialize_poset(p)) == p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_posets())
def test_circuit_count_invariant_under_relabel(p):
    mapping = {el: f"w{i:02d}" for i, el in enumerate(reversed(p.interior))}
    q = relabel(p, mapping)
    circs_p = chordless_circuits(p)
    circs_q = chordless_circuits(q)
    assert len(circs_p) == len(circs_q)
    as_sets_p = sorted(sorted(mapping[v] for v in c.vertex_cycle if v in mapping)
                       for c in circs_p)
    as_sets_q = sorted(sorted(v for v in c.vertex_cycle if v not in (BOTTOM, TOP))
                       for c in circs_q)
    assert as_sets_p == as_sets_q


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_posets())
def test_flip_involution(p):
    assert flip(flip(p)) == relabel(p, {el: el for el in p.interior})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_posets())
def test_pure_random_posets_have_balanced_circuits(p):
    if not is_pure(p).pure:
        return
    for c in chordless_circuits(p):
        assert len(c.x_plus) == len(c.x_minus)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(random_posets())
def test_circuits_match_oracles_random(p):
    _assert_circuits_match_oracles(p)


# ---------------------------------------------------------------------------
# the position-numbered parser and builder against the name-keyed oracle


def _same_outcome(build, oracle):
    """Both calls give the same poset, or both raise PosetError with the
    same text."""
    try:
        expected = oracle()
    except PosetError as exc:
        with pytest.raises(PosetError) as info:
            build()
        assert str(info.value) == str(exc)
        return
    got = build()
    assert (got.elements, got.edges) == (expected.elements, expected.edges)


@st.composite
def cover_lists(draw):
    """The names and covers of a random order, shuffled, with up to three
    arbitrary pairs mixed in: repeated, self, reversed or implied covers."""
    names, covers = draw(random_covers())
    if names:
        pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
        covers = covers + draw(st.lists(pair, max_size=3))
    return draw(st.permutations(names)), draw(st.permutations(covers))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(poset_files())
def test_parse_agrees_with_string_oracle_on_fuzzed_files(text):
    _same_outcome(lambda: parse_poset(text), lambda: string_parse_poset(text))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cover_lists())
def test_parse_and_build_agree_with_string_oracle(names_covers):
    names, covers = names_covers
    _same_outcome(lambda: build_poset(names, covers),
                  lambda: string_build_poset(names, covers))
    text = "elements: " + " ".join(names) + "\n" + "".join(
        f"cover: {a} < {b}  # {k}\n" for k, (a, b) in enumerate(covers))
    _same_outcome(lambda: parse_poset(text), lambda: string_parse_poset(text))


def test_build_poset_counts_a_repeated_cover_once():
    covers = [("a", "b"), ("b", "c"), ("a", "b")]
    p = build_poset(["c", "b", "a"], covers)
    assert p == string_build_poset(["c", "b", "a"], covers) == build_poset("abc", covers[:2])
    assert p.edges == (("bot", "a"), ("a", "b"), ("b", "c"), ("c", "top"))


def test_build_poset_self_cover_is_cyclic():
    for build in (build_poset, string_build_poset):
        with pytest.raises(PosetError, match="^cover relation is cyclic$"):
            build(["a", "b"], [("a", "b"), ("b", "b")])


@pytest.mark.parametrize("names,covers,message", [
    (["a", "a"], [], "duplicate element"),
    (["a", "top"], [], "'top' is reserved"),
    (["bot", "a"], [], "'bot' is reserved"),
    (["a", "b!"], [], "bad element name 'b!'"),
    (["a", "b"], [("a", "c")], "unknown element 'c'"),
    (["a", "b"], [("c", "a")], "unknown element 'c'"),
])
def test_build_poset_checks_names_as_the_parser_does(names, covers, message):
    """The parser's messages without their line prefix."""
    with pytest.raises(PosetError) as info:
        build_poset(names, covers)
    assert str(info.value) == message
    text = "elements: " + " ".join(names) + "\n" + "".join(
        f"cover: {a} < {b}\n" for a, b in covers)
    with pytest.raises(PosetError) as info:
        parse_poset(text)
    assert str(info.value) == f"line {1 + bool(covers)}: {message}"


def test_relabel_rejects_a_mapping_that_merges_names():
    p = build_poset(["a", "b"], [("a", "b")])
    with pytest.raises(PosetError, match="^duplicate element$"):
        relabel(p, {"a": "c", "b": "c"})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_posets())
def test_flip_and_relabel_agree_with_string_oracle(p):
    covers = [(l, u) for l, u in p.edges if l != BOTTOM and u != TOP]
    flipped = flip(p)
    assert flipped == string_build_poset(p.interior, [(u, l) for l, u in covers])
    assert flip(flipped) == p
    mapping = {el: f"w{i:02d}" for i, el in enumerate(reversed(p.interior))}
    q = relabel(p, mapping)
    assert q == string_build_poset([mapping[el] for el in p.interior],
                                   [(mapping[l], mapping[u]) for l, u in covers])
    assert relabel(q, {new: old for old, new in mapping.items()}) == p


def test_redundant_cover_error_ignores_the_hash_seed():
    """Of the four elements through which a < b is implied, the error names
    the least, whatever order string sets iterate in."""
    path = Path(__file__).with_name("redundant_cover.poset")
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=str(Path(hibinccr.__file__).parents[1]),
                   PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "hibinccr.cli", "classify", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == \
            "error: cover 'a' < 'b' is implied by transitivity (via 'c1')\n"


# ---------------------------------------------------------------------------
# deep inputs: no recursion, whatever the length of the chains


@pytest.fixture
def default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def _chain_text(count):
    names = [f"c{i:04d}" for i in range(count)]
    return "elements: " + " ".join(names) + "\n" + \
        "".join(f"cover: {a} < {b}\n" for a, b in zip(names, names[1:]))


def test_deep_family_parses_and_classifies(default_recursion_limit):
    fam = generate_family("IV", (600, 600))
    p = parse_poset(serialize_poset(fam.poset))
    assert len(p.interior) == 4 * 600 + 1 and p == fam.poset
    assert classify(p) == TypeParams("IV", (600, 600), "as-given")


def test_deep_chain_parses_and_classifies(default_recursion_limit):
    p = parse_poset(_chain_text(3000))
    assert len(p.elements) == 3002 and p.n_edges == 3001
    assert p.edges[0] == (BOTTOM, "c0000") and p.edges[-1] == ("c2999", TOP)
    result = classify(p)
    assert isinstance(result, Rejection) and result.code == "rank"
    assert polynomial_extension_edge(p) == 0


def test_deep_family_circuits(default_recursion_limit):
    p = generate_family("V", (400,)).poset
    circuits = chordless_circuits(p)
    assert [len(c.vertex_cycle) for c in circuits] == [2 * 400 + 4] * 3


def test_cli_classifies_deep_family(tmp_path):
    path = tmp_path / "IV600_600.poset"
    path.write_text(serialize_poset(generate_family("IV", (600, 600)).poset))
    env = dict(os.environ, PYTHONPATH=str(Path(hibinccr.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hibinccr.cli", "classify", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["status"], report["type"], report["params"]) == \
        ("classified", "IV", [600, 600])

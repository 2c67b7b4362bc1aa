from __future__ import annotations

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibinccr import (ConeError, TorsionError, class_group,
                      class_of, parse_cone, parse_poset, same_class,
                      serialize_cone, sigma_matrix, spanning_tree)
from hibinccr.families import generate_family
from hibinccr.posets import BoundedPoset, PosetError, TreeSelection, is_pure

from conftest import EXAMPLE_TREE_HINT, load_corpus
from oracles import snf_class_group_hibi, solve_integer, verify_divisor_relations
from test_posets import CORPUS_POSETS, FAMILY_SIZES, random_posets


def test_sigma_rows(running_example):
    s = sigma_matrix(running_example)
    assert s.n == 8 and s.d == 6
    # e1 = {bot, p1}: +1 at slot 0, -1 at slot 1
    assert s.rows[0] == (1, -1, 0, 0, 0, 0)
    # e3 = {p2, top}: the maximum has no coordinate
    assert s.rows[2] == (0, 0, 1, 0, 0, 0)


def test_sigma_empty_poset():
    p = parse_poset("elements:\n")
    s = sigma_matrix(p)
    assert s.rows == ((1,),)


def test_running_example_weights(running_example):
    tree = spanning_tree(running_example, hint=EXAMPLE_TREE_HINT)
    cgd = class_group(sigma_matrix(running_example), tree)
    assert cgd.rank == 2
    assert cgd.weights == ((1, 0), (1, 0), (1, 0), (-1, 0),
                           (-1, -1), (-1, -1), (0, 1), (0, 1))
    assert cgd.cotree == (0, 7)
    assert verify_divisor_relations(running_example, cgd)


def test_running_example_gorenstein_sum(running_example):
    cgd = class_group(sigma_matrix(running_example), spanning_tree(running_example))
    total = [sum(w[k] for w in cgd.weights) for k in range(cgd.rank)]
    assert total == [0, 0]


def test_chain_poset_rank_zero():
    p = parse_poset("elements: a b\ncover: a < b\n")
    cgd = class_group(sigma_matrix(p), spanning_tree(p))
    assert cgd.rank == 0
    assert all(w == () for w in cgd.weights)


def test_four_ray_cone():
    cone = parse_cone(load_corpus("rank1_example.cone"))
    cgd = class_group(cone)
    assert cgd.rank == 1
    assert cgd.weights == ((1,), (-2,), (4,), (-3,))


def test_parse_cone_errors():
    with pytest.raises(ConeError, match="rank deficient"):
        parse_cone("dim: 3\nray: 1 0 0\nray: 0 1 0\nray: 1 1 0\n")
    with pytest.raises(ConeError, match="duplicate"):
        parse_cone("dim: 2\nray: 1 0\nray: 1 0\n")
    with pytest.raises(ConeError):
        parse_cone("ray: 1 0\n")


def test_cone_input_runs_one_smith_form(monkeypatch):
    """Parsing a cone file and taking its class group share one Smith form,
    and the rank and torsion messages are the same as before."""
    from hibinccr import intlattice
    calls = []
    snf = intlattice.smith_normal_form
    monkeypatch.setattr(intlattice, "smith_normal_form",
                        lambda a: calls.append(len(a)) or snf(a))
    cgd = class_group(parse_cone(load_corpus("rank2_demo.cone")))
    assert cgd.rank == 2 and calls == [6]
    with pytest.raises(ConeError, match="^rays are rank deficient: the cone is not "
                                        "full-dimensional$"):
        parse_cone("dim: 3\nray: 1 0 0\nray: 0 1 0\n")
    with pytest.raises(TorsionError, match=r"^class group has torsion \(invariant "
                                           r"factors \[2\]\)$"):
        class_group(parse_cone("dim: 2\nray: 1 0\nray: 1 2\n"))


def test_smooth_cone_rank_zero():
    cgd = class_group(parse_cone("dim: 2\nray: 1 0\nray: 0 1\n"))
    assert cgd.rank == 0


def test_torsion_detected():
    # quadric-cone style rays: the class group is Z/2
    with pytest.raises(TorsionError):
        class_group(parse_cone("dim: 2\nray: 1 0\nray: 1 2\n"))


def test_cone_round_trip():
    text = load_corpus("rank2_demo.cone")
    cone = parse_cone(text)
    assert parse_cone(serialize_cone(cone)) == cone


def test_rank2_demo_weights():
    cgd = class_group(parse_cone(load_corpus("rank2_demo.cone")))
    assert cgd.rank == 2
    assert sorted(cgd.weights) == sorted(
        [(1, 1), (-1, 0), (0, -1), (-3, -3), (3, 0), (0, 3)])


def test_same_class_examples(running_example):
    s = sigma_matrix(running_example)

    def indicator(k):
        return [1 if i == k else 0 for i in range(8)]

    assert same_class(indicator(0), indicator(1), s)   # first two edges agree
    assert not same_class(indicator(0), indicator(7), s)
    # sigma of any lattice vector is principal
    y = [3, -1, 2, 0, 5, -2]
    a = [sum(r[j] * y[j] for j in range(6)) for r in s.rows]
    assert same_class(a, [0] * 8, s)


def test_same_class_matches_class_of(running_example):
    s = sigma_matrix(running_example)
    cgd = class_group(s, spanning_tree(running_example))
    vecs = [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 1], [2, 0, 0, 0, 0, 0, 1, 0]]
    for a, b in itertools.product(vecs, repeat=2):
        assert same_class(a, b, s) == (class_of(a, cgd) == class_of(b, cgd))


@st.composite
def posets_with_divisor_pairs(draw):
    """A random poset and two divisor coefficient vectors: unrelated, or
    differing by the principal divisor of a random lattice vector."""
    p = draw(random_posets())
    s = sigma_matrix(p)
    a = draw(st.lists(st.integers(-3, 3), min_size=s.n, max_size=s.n))
    if draw(st.booleans()):
        b = draw(st.lists(st.integers(-3, 3), min_size=s.n, max_size=s.n))
    else:
        y = draw(st.lists(st.integers(-3, 3), min_size=s.d, max_size=s.d))
        b = [x - sum(c * v for c, v in zip(row, y)) for x, row in zip(a, s.rows)]
    return s, a, b


@settings(max_examples=150, deadline=None, derandomize=True)
@given(posets_with_divisor_pairs())
def test_same_class_agrees_with_gauss_jordan(case):
    s, a, b = case
    diff = [x - y for x, y in zip(a, b)]
    assert same_class(a, b, s) == (solve_integer([list(r) for r in s.rows], diff) is not None)


def test_tree_hint_and_default_agree_on_rank(running_example):
    s = sigma_matrix(running_example)
    default = class_group(s, spanning_tree(running_example))
    hinted = class_group(s, spanning_tree(running_example, hint=EXAMPLE_TREE_HINT))
    assert default.rank == hinted.rank == 2


def test_hibi_needs_tree(running_example):
    with pytest.raises(ValueError, match="spanning tree"):
        class_group(sigma_matrix(running_example))


def test_cotree_not_a_basis(running_example):
    p = running_example
    # d edges that hold a cycle: the other edges' classes are dependent
    for edges in itertools.combinations(range(p.n_edges), p.dim):
        try:
            spanning_tree(p, hint=edges)
        except PosetError:
            break
    cotree = tuple(k for k in range(p.n_edges) if k not in edges)
    tree = TreeSelection(tree_edges=frozenset(edges), cotree_edges=cotree)
    with pytest.raises(ValueError, match="not a basis"):
        class_group(sigma_matrix(p), tree)


def test_tree_count_mismatch(running_example):
    p = running_example
    tree = spanning_tree(p)
    short = TreeSelection(tree_edges=frozenset(sorted(tree.tree_edges)[1:]),
                          cotree_edges=tree.cotree_edges)
    with pytest.raises(ValueError, match="does not match the sigma matrix"):
        class_group(sigma_matrix(p), short)


def test_sigma_row_must_be_a_hasse_edge(running_example):
    s = sigma_matrix(running_example)
    bad = s._replace(edge_ends=((1, 1),) + s.edge_ends[1:])
    with pytest.raises(ValueError, match="sigma row 0 is not a Hasse edge"):
        class_group(bad, spanning_tree(running_example))


@pytest.mark.parametrize("pair", [(-1, 2), (1, 7), (6, 2), (6, 6)])
def test_sigma_pair_out_of_range_or_from_the_top(running_example, pair):
    """A Hibi pair needs its lower end below the top (position 6 here) and
    its upper end inside the poset; the error names the row."""
    s = sigma_matrix(running_example)
    bad = s._replace(edge_ends=s.edge_ends[:3] + (pair,) + s.edge_ends[4:])
    with pytest.raises(ValueError, match="sigma row 3 is not a Hasse edge"):
        class_group(bad, spanning_tree(running_example))


def test_hibi_rows_are_built_on_request(running_example):
    """The sparse Hibi sigma matrix gives the dense rows x_lower - x_upper
    (top coordinate dropped) when asked, and keeps only the edge pairs."""
    p = running_example
    s = sigma_matrix(p)
    assert (s.n, s.d) == (p.n_edges, p.dim)
    for (lower, upper), row in zip(p.edges, s.rows):
        expected = [0] * p.dim
        expected[p.elements.index(lower)] += 1
        if upper != "top":
            expected[p.elements.index(upper)] -= 1
        assert row == tuple(expected)
    assert parse_cone(serialize_cone(s)).rows == s.rows
    assert vars(s) == {"source": "hibi", "d": p.dim, "rays": (),
                       "edge_ends": p.edge_ends}


def test_hibi_class_group_is_linear_in_size():
    """IV (600, 600) has 2403 elements.  Its incidence lists, sparse sigma matrix,
    spanning tree and class group stay under 5 MiB together; dense sigma
    rows alone would take about 45 MiB."""
    p = generate_family("IV", (600, 600)).poset
    fresh = BoundedPoset(p.elements, p.edge_ends)  # nothing derived yet
    tracemalloc.start()
    try:
        cgd = class_group(sigma_matrix(fresh), spanning_tree(fresh))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cgd.rank == 2 and len(cgd.weights) == p.n_edges
    assert peak < 5 * 2 ** 20


def _agrees_with_snf_oracle(p, tree):
    """The two routes give the same class group, or both refuse the tree
    with the same message."""
    s = sigma_matrix(p)
    try:
        expected = snf_class_group_hibi(s, tree)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            class_group(s, tree)
        assert str(info.value) == str(exc)
        return
    cgd = class_group(s, tree)
    assert cgd == expected
    assert verify_divisor_relations(p, cgd)


def _selection(p, edges):
    edges = frozenset(edges)
    return TreeSelection(tree_edges=edges,
                         cotree_edges=tuple(k for k in range(p.n_edges) if k not in edges))


def _tree_in_order(p, order):
    """The spanning tree grown by taking edges in the given order."""
    parent = {el: el for el in p.elements}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    tree = []
    for k in order:
        a, b = (find(el) for el in p.edges[k])
        if a != b:
            parent[a] = b
            tree.append(k)
    return tree


@st.composite
def posets_with_edge_orders(draw):
    p = draw(random_posets())
    return p, draw(st.permutations(range(p.n_edges)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(posets_with_edge_orders())
def test_random_posets_rank_and_relations(case):
    """The cotree classes are the standard basis and the relations hold;
    together these fix every weight.  Tree balancing agrees with the Smith
    route on these trees and on |P| + 1 edges chosen at random, which need
    not span."""
    p, order = case
    s = sigma_matrix(p)
    for edges in (order[:p.dim], order[-p.dim:]):
        _agrees_with_snf_oracle(p, _selection(p, edges))
    for tree in (spanning_tree(p), spanning_tree(p, hint=_tree_in_order(p, order))):
        _agrees_with_snf_oracle(p, tree)
        cgd = class_group(s, tree)
        assert cgd.rank == p.n_edges - p.dim
        assert cgd.cotree == tree.cotree_edges
        for pos, e in enumerate(cgd.cotree):
            assert cgd.weights[e] == tuple(int(k == pos) for k in range(cgd.rank))
        assert verify_divisor_relations(p, cgd)
        if is_pure(p).pure:
            assert all(sum(w[k] for w in cgd.weights) == 0 for k in range(cgd.rank))


# the corpus, families I-V at two sizes each, and two posets of rank 0
ORACLE_CASES = ([load_corpus(name) for name in CORPUS_POSETS]
                + [generate_family(tag, params) for tag, params in FAMILY_SIZES]
                + ["elements:\n", "elements: a b\ncover: a < b\n"])
ORACLE_IDS = (CORPUS_POSETS + [tag + "_".join(map(str, params)) for tag, params in FAMILY_SIZES]
              + ["empty", "chain"])


@pytest.mark.parametrize("case", ORACLE_CASES, ids=ORACLE_IDS)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_corpus_and_families_match_snf_oracle(case, data):
    """The breadth-first tree, the figure tree of a family, random spanning
    trees and random d-edge selections that need not span."""
    if isinstance(case, str):
        p, trees = parse_poset(case), []
    else:
        p, trees = case.poset, [case.figure_tree]
    trees.append(spanning_tree(p))
    order = data.draw(st.permutations(range(p.n_edges)))
    trees.append(spanning_tree(p, hint=_tree_in_order(p, order)))
    trees.append(_selection(p, order[:p.dim]))
    for tree in trees:
        _agrees_with_snf_oracle(p, tree)

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibinccr import divisorial
from hibinccr import (TypeParams, chordless_circuits, class_group, conic_classes,
                      conic_facets, conic_polytope, enumerate_conic,
                      expected_weight_table, is_conic, parse_poset, sigma_matrix,
                      spanning_tree)
from hibinccr.divisorial import (ConicBoxError, ConicPolytope, ConicTooLargeError,
                                 UnboundedPolytopeError)
from hibinccr.families import generate_family

from conftest import EXAMPLE_TREE_HINT, load_corpus
from oracles import (box_conic_classes, fraction_enumerate_conic, vertex_conic_classes,
                     vertex_is_conic)


def _poset_conic(p, hint=None):
    tree = spanning_tree(p, hint=hint)
    cgd = class_group(sigma_matrix(p), tree)
    cp = conic_polytope(chordless_circuits(p), cgd)
    return cp, enumerate_conic(cp), cgd


def test_running_example_polytope(running_example):
    cp, points, _ = _poset_conic(running_example, hint=EXAMPLE_TREE_HINT)
    assert set(cp.ineqs) == {((1, 0), -2, 2), ((0, 1), -1, 1), ((1, -1), -2, 2)}
    # oracle: direct enumeration over the box with the difference constraint
    expected = sorted((z1, z8) for z1 in range(-2, 3) for z8 in range(-1, 2)
                      if -2 <= z1 - z8 <= 2)
    assert points == expected
    assert len(points) == 13


CLOSED_FORMS = {
    ("I", (0, 1)): lambda c: abs(c[0]) <= 2 and abs(c[1]) <= 1 and abs(c[0] - c[1]) <= 2,
    ("I", (1, 1)): lambda c: abs(c[0]) <= 3 and abs(c[1]) <= 1 and abs(c[0] - c[1]) <= 3,
    ("I", (2, 3)): lambda c: abs(c[0]) <= 6 and abs(c[1]) <= 3 and abs(c[0] - c[1]) <= 6,
    ("II", (1, 1, 1)): lambda c: abs(c[0]) <= 2 and abs(c[1]) <= 2 and abs(c[0] - c[1]) <= 4,
    ("III", (0, 2, 0)): lambda c: abs(c[0]) <= 3 and abs(c[1]) <= 1 and abs(c[0] - c[1]) <= 3,
    ("III", (1, 2, 1)): lambda c: abs(c[0]) <= 5 and abs(c[1]) <= 1 and abs(c[0] - c[1]) <= 5,
    ("IV", (1, 1)): lambda c: abs(c[0]) <= 1 and abs(c[1]) <= 1,
    ("IV", (2, 3)): lambda c: abs(c[0]) <= 2 and abs(c[1]) <= 3,
    ("V", (0,)): lambda c: abs(c[0]) <= 1 and abs(c[1]) <= 1 and abs(c[0] - c[1]) <= 1,
    ("V", (1,)): lambda c: abs(c[0]) <= 2 and abs(c[1]) <= 2 and abs(c[0] - c[1]) <= 2,
    ("V", (2,)): lambda c: abs(c[0]) <= 3 and abs(c[1]) <= 3 and abs(c[0] - c[1]) <= 3,
}


def _closed_form_points(key, bound=20):
    pred = CLOSED_FORMS[key]
    return sorted((x, y) for x in range(-bound, bound + 1)
                  for y in range(-bound, bound + 1) if pred((x, y)))


@pytest.mark.parametrize("tag,params", sorted(CLOSED_FORMS))
def test_family_conic_polytopes(tag, params):
    fam = generate_family(tag, params)
    cgd = class_group(sigma_matrix(fam.poset), fam.figure_tree)
    cp = conic_polytope(chordless_circuits(fam.poset), cgd)
    assert enumerate_conic(cp) == _closed_form_points((tag, params))


@pytest.mark.parametrize("tag,params", sorted(CLOSED_FORMS))
def test_family_conic_by_critical_characters(tag, params):
    # basis-free route: the table weights alone determine the conic classes
    table = expected_weight_table(TypeParams(tag, params, "as-given"))
    assert conic_classes(table) == _closed_form_points((tag, params))


def test_enumerate_rank_zero():
    p = parse_poset("elements: a\n")
    cp, points, _ = _poset_conic(p)
    assert points == [()]


def test_enumerate_unbounded_rejected():
    # the second system, z0 + z1 + z2 = 0 and z0 + z1 - z2 = 1, has no
    # integer point, but over the rationals z0 + z1 = 1/2 leaves z0 free
    for cp in (ConicPolytope(ineqs=(((1, 0), -2, 2),), rank=2),
               ConicPolytope(ineqs=(((1, 1, 1), 0, 0), ((1, 1, -1), 1, 1)), rank=3)):
        with pytest.raises(UnboundedPolytopeError):
            fraction_enumerate_conic(cp)
        with pytest.raises(UnboundedPolytopeError):
            enumerate_conic(cp)


def test_enumerate_projects_once(monkeypatch):
    """One elimination per variable but the first, for the whole listing:
    six for the 245 classes of the 2 x 4 poset (class group rank 7)."""
    p = parse_poset("elements: a0 a1 b0 b1 b2 b3\n" + "".join(
        f"cover: a{i} < b{j}\n" for i in range(2) for j in range(4)))
    tree = spanning_tree(p)
    cgd = class_group(sigma_matrix(p), tree)
    cp = conic_polytope(chordless_circuits(p), cgd)
    calls = []
    eliminate = divisorial._fm_eliminate

    def counted(*args):
        calls.append(args[1])
        return eliminate(*args)

    monkeypatch.setattr(divisorial, "_fm_eliminate", counted)
    points = enumerate_conic(cp)
    assert cp.rank == 7 and len(points) == 245
    assert calls == [6, 5, 4, 3, 2, 1]


def test_enumerate_rounds_rational_bounds_inward():
    # -7 <= 3x <= 5 and -3 <= 2y - x <= 3: x in [-2, 1], y by x's parity
    cp = ConicPolytope(ineqs=(((1, 0), -9, 9), ((3, 0), -7, 5), ((-1, 2), -3, 3)),
                       rank=2)
    expected = [(x, y) for x in range(-2, 2) for y in range(-9, 10)
                if -3 <= 2 * y - x <= 3]
    assert enumerate_conic(cp) == fraction_enumerate_conic(cp) == expected


def test_enumerate_empty_polytope():
    cp = ConicPolytope(ineqs=(((2, 0), 1, 1), ((0, 1), -4, 4)), rank=2)
    assert enumerate_conic(cp) == fraction_enumerate_conic(cp) == []


def test_type4_small_rectangle():
    fam = generate_family("IV", (1, 1))
    cgd = class_group(sigma_matrix(fam.poset), fam.figure_tree)
    cp = conic_polytope(chordless_circuits(fam.poset), cgd)
    assert enumerate_conic(cp) == [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]


# ---------------------------------------------------------------------------
# the critical-character test


def test_zero_is_always_conic():
    for name in ["running_example.poset", "type2_l1_m1_n1.poset", "type5_n1.poset"]:
        p = parse_poset(load_corpus(name))
        cgd = class_group(sigma_matrix(p), spanning_tree(p))
        assert is_conic((0,) * cgd.rank, cgd)


def test_critical_character_examples():
    table = expected_weight_table(TypeParams("I", (0, 1), "as-given"))
    assert not is_conic((3, 0), table)
    assert is_conic((2, 1), table)
    assert is_conic((0, 0), table)
    assert is_conic((2, -1), table) is False  # outside the difference bound


def test_rank1_interval_by_critical_characters():
    weights = [(1,), (-2,), (4,), (-3,)]
    points = conic_classes(weights)
    assert points == [(a,) for a in range(-4, 5)]


CORPUS_POSETS = [
    "running_example.poset", "type1_m0_n1.poset", "type1_m1_n1.poset", "type1_m2_n3.poset",
    "type2_l1_m1_n1.poset", "type3_l0_m2_n0.poset", "type3_l1_m2_n1.poset",
    "type4_m1_n1.poset", "type4_m2_n3.poset", "type5_n0.poset", "type5_n1.poset",
    "type5_n2.poset", "segre_m1.poset", "segre_m2.poset", "segre_m3.poset",
]


@pytest.mark.parametrize("name", CORPUS_POSETS)
def test_oracle_agreement_on_doubled_box(name):
    """The circuit polytope and the critical-character test are independent
    characterizations; they must agree on every class near the polytope,
    and the circuit polytope's own membership test with its listing."""
    p = parse_poset(load_corpus(name))
    tree = spanning_tree(p)
    cgd = class_group(sigma_matrix(p), tree)
    cp = conic_polytope(chordless_circuits(p), cgd)
    points = set(enumerate_conic(cp))
    if cgd.rank == 0:
        assert points == {()}
        return
    spans = []
    for k in range(cgd.rank):
        hi = max(abs(pt[k]) for pt in points)
        spans.append(2 * hi)
    if cgd.rank == 1:
        box = [(a,) for a in range(-spans[0], spans[0] + 1)]
    else:
        box = [(a, b) for a in range(-spans[0], spans[0] + 1)
               for b in range(-spans[1], spans[1] + 1)]
    for chi in box:
        assert is_conic(chi, cgd) == (chi in points), chi
        assert cp.contains(chi) == (chi in points), chi


@pytest.mark.parametrize("name", CORPUS_POSETS)
def test_central_symmetry_on_pure_corpus(name):
    p = parse_poset(load_corpus(name))
    tree = spanning_tree(p)
    cgd = class_group(sigma_matrix(p), tree)
    cp = conic_polytope(chordless_circuits(p), cgd)
    points = set(enumerate_conic(cp))
    assert points == {tuple(-c for c in pt) for pt in points}


def test_conic_count_tree_invariant(running_example):
    _, defaults, _ = _poset_conic(running_example)
    _, hinted, _ = _poset_conic(running_example, hint=EXAMPLE_TREE_HINT)
    assert len(defaults) == len(hinted) == 13


def test_rank3_both_routes_agree():
    # four parallel two-edge chains: rank-3 class group; the circuit route
    # and the critical-character route must still coincide
    p = parse_poset("elements: a b c d\n")
    tree = spanning_tree(p)
    cgd = class_group(sigma_matrix(p), tree)
    assert cgd.rank == 3
    cp = conic_polytope(chordless_circuits(p), cgd)
    assert sorted(enumerate_conic(cp)) == conic_classes(cgd)


def test_duplicate_circuits_merge(running_example):
    tree = spanning_tree(running_example, hint=EXAMPLE_TREE_HINT)
    cgd = class_group(sigma_matrix(running_example), tree)
    circuits = chordless_circuits(running_example)
    doubled = conic_polytope(circuits + circuits, cgd)
    single = conic_polytope(circuits, cgd)
    assert doubled == single


# ---------------------------------------------------------------------------
# the facet rule against the vertex route of tests/oracles.py


@st.composite
def weight_systems(draw, size):
    """Weight systems of rank 1-3 with up to ``size`` drawn weights: any of
    them may repeat a weight, contain zero weights, sum to zero (Gorenstein)
    or lie in a proper subspace."""
    rank = draw(st.integers(1, 3))
    bound = 2 if rank < 3 else 1
    entry = st.integers(-bound, bound)
    vec = st.tuples(*[entry] * rank)
    shape = draw(st.sampled_from(["free", "gorenstein", "line"]))
    if shape == "line":
        d = draw(vec)
        ws = [tuple(f * c for c in d) for f in draw(st.lists(entry, min_size=1, max_size=size))]
    else:
        ws = draw(st.lists(vec, min_size=1, max_size=size))
        if draw(st.booleans()):
            ws.append(ws[0])
        if shape == "gorenstein":
            ws.append(tuple(-sum(w[k] for w in ws) for k in range(rank)))
    return draw(st.permutations(ws))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(weight_systems(size=2))
def test_conic_classes_match_vertex_route(ws):
    assert conic_classes(ws) == vertex_conic_classes(ws)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weight_systems(size=5), st.data())
def test_is_conic_matches_vertex_route(ws, data):
    rank = len(ws[0])
    point = st.tuples(*[st.integers(-6, 6)] * rank)
    for chi in data.draw(st.lists(point, min_size=1, max_size=8)):
        assert is_conic(chi, ws) == vertex_is_conic(chi, ws), chi


@pytest.mark.parametrize("ws,expected", [
    ([(1, 1), (-1, -1), (2, 2)], [(-2, -2), (-1, -1), (0, 0)]),
    ([(0, 0), (1, 0), (1, 0)], [(-1, 0), (0, 0)]),
    ([(0, 0, 0), (1, 0, 1), (1, 0, 1), (0, 1, 0)], [(-1, 0, -1), (0, 0, 0)]),
])
def test_facet_rule_on_degenerate_systems(ws, expected):
    """Zero, repeated and non-spanning weights, against the vertex route."""
    assert conic_classes(ws) == vertex_conic_classes(ws) == box_conic_classes(ws) == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weight_systems(size=6))
def test_conic_classes_match_box_scan(ws):
    """The facet rule's polytope, enumerated, against its own membership
    test at every point of the bounding box.  Whether the polytope reads
    the rule right is checked against the vertex route above."""
    assert conic_classes(ws) == box_conic_classes(ws)


def test_conic_classes_refuse_a_box_too_large():
    big = 10 ** 20
    with pytest.raises(ConicBoxError, match=rf"^the bounding box \[-{big}, {big}\] x "
                                            r"\[-2, 2\] of the conic classes is too large"):
        conic_classes([(big, 1), (0, -1)])


def test_projection_refuses_a_level_past_the_row_budget(monkeypatch):
    """A level of more rows than the budget is refused before it is
    eliminated; a level of exactly the budget is eliminated."""
    cp = ConicPolytope(ineqs=(((1, 0), -1, 1), ((1, 1), -2, 2)), rank=2)  # 4 rows
    monkeypatch.setattr(divisorial, "PROJECTION_ROW_BUDGET", 4)
    points = enumerate_conic(cp)
    assert points == fraction_enumerate_conic(cp) and len(points) == 15
    monkeypatch.setattr(divisorial, "PROJECTION_ROW_BUDGET", 3)
    with pytest.raises(ConicTooLargeError, match=r"^the conic projection of class group "
                                                 r"rank 2 reached 4 rows at one level, "
                                                 r"over the budget of 3$"):
        enumerate_conic(cp)


def test_facet_rule_needs_matching_rank():
    with pytest.raises(ValueError, match="3 coordinates"):
        conic_facets([(1, 0)], 3)


@pytest.mark.parametrize("chi", [(0, 0, 5), (0,), ()])
def test_facet_rule_refuses_a_class_of_another_rank(chi):
    """A rank-2 rule once cut (0, 0, 5) and (0,) short to (0, 0) and (0,)
    and called both conic."""
    rule = conic_facets([(1, 0), (0, 1), (-1, -1)], 2)
    with pytest.raises(ValueError, match=rf"^expected a vector of rank 2, got {re.escape(str(chi))}$"):
        rule.contains(chi)


@pytest.mark.parametrize("tag, params", [("I", (4, 5)), ("II", (2, 2, 2)), ("IV", (3, 4))])
def test_facet_rule_counts_each_weight_with_its_multiplicity(tag, params):
    """The rule is built from the distinct weights; its bounds are those of
    every weight, repeats included: top(u) = h_u - 1 with h_u the sum of
    max(0, -<u, w>) over all of them."""
    ws = expected_weight_table(TypeParams(tag, params, "as-given"))
    assert len(set(ws)) < len(ws)
    rule = conic_facets(ws, 2)
    for (a, b), lo, hi in rule.ineqs:
        assert hi == sum(max(0, -(a * x + b * y)) for x, y in ws) - 1
        assert lo == 1 - sum(max(0, a * x + b * y) for x, y in ws)


# ---------------------------------------------------------------------------
# integer Fourier-Motzkin against the Fraction route of tests/oracles.py


@st.composite
def conic_polytope_systems(draw):
    """Integer inequality systems of rank 1-4 with negative, inverted
    (empty) and one-sided bounds; with a box on every coordinate or
    without, so that some are unbounded."""
    rank = draw(st.integers(1, 4))
    coeffs = st.tuples(*[st.integers(-3, 3)] * rank)
    bound = st.integers(-6, 6)
    ineqs = draw(st.lists(st.tuples(coeffs, bound, bound), max_size=7))
    if draw(st.booleans()):
        for k in range(rank):
            lo, hi = draw(bound), draw(bound)
            ineqs.append((tuple(int(i == k) for i in range(rank)), min(lo, hi), max(lo, hi)))
    return ConicPolytope(ineqs=tuple(ineqs), rank=rank)


def _lattice_points(enumerate_, cp):
    try:
        return enumerate_(cp)
    except UnboundedPolytopeError:
        return "unbounded"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(conic_polytope_systems())
def test_enumerate_conic_matches_fraction_route(cp):
    assert (_lattice_points(enumerate_conic, cp)
            == _lattice_points(fraction_enumerate_conic, cp))

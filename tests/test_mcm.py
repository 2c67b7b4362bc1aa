from __future__ import annotations

import copy
import gc
import random
import re
import time
import tracemalloc
import weakref
from functools import partial
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hibinccr import (CharacterSet, CriterionHypothesisError, NotGorensteinError,
                      McmTest, chamber_decomposition, class_group, corpus_path,
                      endomorphism_is_mcm, is_conic, is_mcm, mcm, mcm_region,
                      nccr_characters, non_mcm_cone, parse_cone, parse_poset,
                      semigroup_member, sigma_matrix, spanning_tree)
from hibinccr.families import generate_family
from hibinccr.intlattice import lattice_contains
from hibinccr.mcm import CLOSED, HALF_OPEN, OPEN, NonMcmCone

from conftest import table
from kernel_agreement import (RANK1_SYSTEMS, apery_disagreements, cone_routes,
                              mcm_disagreements, random_systems, rank1_disagreements,
                              sparse_systems, weight_systems)
from test_posets import FAMILY_SIZES
from oracles import (LevelNonMcmCone, closed_form_mcm_classes, cones_is_mcm, level_cones,
                     pointwise_mcm_region, reference_chamber_decomposition,
                     reference_non_mcm_cone, semigroup_members)


# ---------------------------------------------------------------------------
# chamber decompositions against the worked tables


def _chamber_summary(ws):
    dec = chamber_decomposition(ws)
    out = []
    for c in dec.chambers:
        mults: dict = {}
        for i in c.t_set:
            mults[ws[i]] = mults.get(ws[i], 0) + 1
        out.append((c.kind, tuple(sorted(mults.items()))))
    return dec, out


def test_type1_chambers():
    m, n = 2, 3
    dec, summary = _chamber_summary(table("I", (m, n)))
    assert [k for k, _ in summary] == [HALF_OPEN, CLOSED, OPEN, CLOSED,
                                       OPEN, CLOSED, HALF_OPEN, OPEN]
    assert summary[0][1] == (((-1, -1), n + 1), ((-1, 0), m + 1))
    assert summary[1][1] == (((-1, -1), n + 1),)
    assert summary[2][1] == (((-1, -1), n + 1), ((1, 0), m + n + 2))
    assert summary[3][1] == (((1, 0), m + n + 2),)
    assert summary[4][1] == (((0, 1), n + 1), ((1, 0), m + n + 2))
    assert summary[5][1] == (((0, 1), n + 1),)
    assert summary[6][1] == (((-1, 0), m + 1), ((0, 1), n + 1))
    assert summary[7][1] == (((-1, -1), n + 1), ((-1, 0), m + 1), ((0, 1), n + 1))
    assert dec.hypothesis_ok


def test_type4_chambers():
    m, n = 2, 3
    dec, summary = _chamber_summary(table("IV", (m, n)))
    kinds = [k for k, _ in summary]
    assert kinds == [OPEN, CLOSED, OPEN, CLOSED, OPEN, CLOSED, OPEN, CLOSED]
    assert summary[0][1] == (((-1, 0), m + 1), ((0, -1), n + 1))
    assert summary[1][1] == (((0, -1), n + 1),)
    assert summary[7][1] == (((-1, 0), m + 1),)
    assert dec.hypothesis_ok


def test_type2_chambers():
    l, m, n = 2, 1, 3
    dec, summary = _chamber_summary(table("II", (l, m, n)))
    assert [k for k, _ in summary] == [OPEN, CLOSED, OPEN, HALF_OPEN, CLOSED,
                                       OPEN, CLOSED, HALF_OPEN, OPEN, CLOSED]
    expected = [
        {(0, -1): n + 1, (-1, -1): m, (-1, 0): l + 1},
        {(0, -1): n + 1, (-1, -1): m},
        {(0, -1): n + 1, (-1, -1): m, (1, 0): l + m + 1},
        {(0, -1): n + 1, (1, 0): l + m + 1},
        {(1, 0): l + m + 1},
        {(1, 0): l + m + 1, (0, 1): m + n + 1},
        {(0, 1): m + n + 1},
        {(0, 1): m + n + 1, (-1, 0): l + 1},
        {(0, 1): m + n + 1, (-1, 0): l + 1, (-1, -1): m},
        {(-1, 0): l + 1, (-1, -1): m},
    ]
    assert [dict(t) for _, t in summary] == expected
    assert dec.hypothesis_ok


def test_type3_chambers():
    l, m, n = 1, 2, 0
    dec, summary = _chamber_summary(table("III", (l, m, n)))
    assert [k for k, _ in summary] == [HALF_OPEN, CLOSED, OPEN, CLOSED,
                                       OPEN, CLOSED, HALF_OPEN, OPEN]
    expected = [
        {(-1, -1): m, (-1, 0): l + n + 2},
        {(-1, -1): m},
        {(-1, -1): m, (1, 0): l + m + n + 2},
        {(1, 0): l + m + n + 2},
        {(1, 0): l + m + n + 2, (0, 1): m},
        {(0, 1): m},
        {(0, 1): m, (-1, 0): l + n + 2},
        {(0, 1): m, (-1, 0): l + n + 2, (-1, -1): m},
    ]
    assert [dict(t) for _, t in summary] == expected
    assert dec.hypothesis_ok


def test_type5_chambers():
    n = 1
    dec, summary = _chamber_summary(table("V", (n,)))
    assert [k for k, _ in summary] == [CLOSED, OPEN, CLOSED, OPEN, CLOSED, OPEN]
    expected = [
        {(-1, -1): n + 2},
        {(-1, -1): n + 2, (1, 0): n + 2},
        {(1, 0): n + 2},
        {(1, 0): n + 2, (0, 1): n + 2},
        {(0, 1): n + 2},
        {(0, 1): n + 2, (-1, -1): n + 2},
    ]
    assert [dict(t) for _, t in summary] == expected
    assert dec.hypothesis_ok


def test_rank1_chambers():
    weights = [(1,), (-2,), (4,), (-3,)]
    dec = chamber_decomposition(weights)
    assert len(dec.chambers) == 2
    assert all(c.kind == CLOSED for c in dec.chambers)
    assert [len(c.t_set) for c in dec.chambers] == [2, 2]
    assert dec.hypothesis_ok


@pytest.mark.parametrize("tag,params", [
    ("I", (0, 1)), ("I", (2, 3)), ("II", (0, 1, 0)), ("II", (1, 1, 1)),
    ("III", (0, 2, 0)), ("III", (1, 2, 1)), ("IV", (1, 1)), ("IV", (2, 3)),
    ("V", (0,)), ("V", (2,))])
def test_hypothesis_on_all_families(tag, params):
    assert chamber_decomposition(table(tag, params)).hypothesis_ok


def test_chambers_partition_directions():
    ws = table("I", (1, 2))
    dec = chamber_decomposition(ws)
    # sample many rational directions; each must land in exactly one chamber,
    # matching pairing sets
    from hibinccr.intlattice import dot
    for a in range(-7, 8):
        for b in range(-7, 8):
            if (a, b) == (0, 0):
                continue
            t = tuple(i for i, w in enumerate(ws) if dot((a, b), w) < 0)
            matches = [c for c in dec.chambers if c.t_set == t]
            assert len(matches) == 1, (a, b)


# ---------------------------------------------------------------------------
# non-MCM cones from the worked proof figures


def test_type1_lone_ray_cone():
    m, n = 2, 3
    ws = table("I", (m, n))
    dec = chamber_decomposition(ws)
    cone = non_mcm_cone(dec.chambers[1], ws)  # lone vertical ray
    assert cone.offset == (-n - 1, -n - 1)
    assert set(cone.generators) == {(1, 0), (-1, 0), (0, -1), (-1, -1)}


def test_type1_open_sector_cone():
    m, n = 2, 3
    ws = table("I", (m, n))
    dec = chamber_decomposition(ws)
    cone = non_mcm_cone(dec.chambers[2], ws)
    assert cone.offset == (m + 1, -n - 1)
    assert set(cone.generators) == {(1, 0), (0, -1), (-1, -1)}


def test_rank1_cone():
    weights = [(1,), (-2,), (4,), (-3,)]
    dec = chamber_decomposition(weights)
    positive_t = next(c for c in dec.chambers
                      if all(weights[i][0] < 0 for i in c.t_set))
    cone = non_mcm_cone(positive_t, weights)
    assert cone.offset == (-5,)
    assert set(cone.generators) == {(-1,), (-4,), (-2,), (-3,)}


def test_half_open_chamber_refused():
    ws = table("I", (0, 1))
    dec = chamber_decomposition(ws)
    half = next(c for c in dec.chambers if c.kind == HALF_OPEN)
    with pytest.raises(ValueError):
        non_mcm_cone(half, ws)


# ---------------------------------------------------------------------------
# semigroup membership: hand cases plus a complete bounded oracle


def test_semigroup_half_plane():
    gens = [(1, 0), (-1, 0), (0, -1)]
    assert semigroup_member((7, -3), gens)
    assert not semigroup_member((7, 3), gens)


def test_semigroup_axis_multiples():
    gens = [(2, 0), (0, 3)]
    assert semigroup_member((2, 3), gens)
    assert not semigroup_member((1, 0), gens)


def test_semigroup_non_opposite_units():
    # (2,0) and (-1,0) span the x-axis as a group even without an exact
    # opposite pair
    gens = [(2, 0), (-1, 0), (0, 1)]
    assert semigroup_member((-5, 2), gens)
    assert not semigroup_member((0, -1), gens)


def test_semigroup_full_lattice():
    gens = [(2, 1), (-1, 0), (0, -1)]
    for x in range(-4, 5):
        for y in range(-4, 5):
            assert semigroup_member((x, y), gens)


def test_semigroup_rank1():
    assert semigroup_member((5,), [(2,), (3,)])
    assert not semigroup_member((1,), [(2,), (3,)])
    assert semigroup_member((1,), [(4,), (-6,), (9,)])
    assert not semigroup_member((1,), [(4,), (-6,)])


def test_semigroup_vs_oracle_random():
    rng = random.Random(20260809)
    checked = 0
    while checked < 220:
        k = rng.randint(1, 4)
        gens = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(k)]
        target = (rng.randint(-8, 8), rng.randint(-8, 8))
        oracle = target in semigroup_members(gens, [target])
        assert semigroup_member(target, gens) == oracle, (target, gens)
        checked += 1


def test_semigroup_vs_oracle_rank1_random():
    rng = random.Random(99)
    for _ in range(120):
        k = rng.randint(1, 4)
        gens = [(rng.randint(-6, 6),) for _ in range(k)]
        target = (rng.randint(-12, 12),)
        oracle = target in semigroup_members(gens, [target])
        assert semigroup_member(target, gens) == oracle, (target, gens)


# ---------------------------------------------------------------------------
# the MCM test


def test_zero_is_mcm_everywhere():
    for tag, params in [("I", (0, 1)), ("II", (1, 1, 1)), ("III", (0, 2, 0)),
                        ("IV", (1, 1)), ("V", (0,))]:
        ws = table(tag, params)
        assert is_mcm((0, 0), ws)


def test_type1_witnesses():
    ws = table("I", (0, 1))
    assert is_mcm((2, -1), ws)
    assert not is_conic((2, -1), ws)  # MCM but not conic
    assert not is_mcm((4, 1), ws)


def test_rank1_interval():
    weights = [(1,), (-2,), (4,), (-3,)]
    assert is_mcm((4,), weights)
    assert not is_mcm((5,), weights)
    assert not is_mcm((-5,), weights)


def test_not_gorenstein_rejected():
    with pytest.raises(NotGorensteinError):
        is_mcm((0, 0), [(1, 0), (0, 1)])


def test_hypothesis_violation_rejected():
    # a single +/- pair in each axis leaves closed chambers of size 1
    ws = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    dec = chamber_decomposition(ws)
    assert not dec.hypothesis_ok
    with pytest.raises(CriterionHypothesisError):
        is_mcm((1, 1), ws)


def test_wrong_rank_rejected():
    ws = table("I", (2, 3))
    rank1 = [(1,), (-2,), (4,), (-3,)]
    cone = non_mcm_cone(chamber_decomposition(ws).chambers[1], ws)
    for call in (lambda: is_mcm((1,), ws), lambda: is_mcm((1, 2, 3), ws),
                 lambda: semigroup_member((1, 2), [(1, 0, 0)]),
                 lambda: mcm_region(ws, [(0, 1)]), lambda: cone.contains((1,))):
        with pytest.raises(ValueError, match="rank 2"):
            call()
    for call in (lambda: is_mcm((1, 2), rank1),
                 lambda: mcm_region(rank1, [(0, 1), (0, 1)])):
        with pytest.raises(ValueError, match="rank 1"):
            call()


def test_empty_weight_system_rejected():
    for call in (lambda: is_mcm((), []), lambda: mcm_region([], [(0, 1)]),
                 lambda: mcm_region([], []), lambda: chamber_decomposition([])):
        with pytest.raises(ValueError, match="^empty weight system$"):
            call()


# ---------------------------------------------------------------------------
# the compiled cones against the bounded-search oracle


def _oracle_mcm_set(ws, points):
    """Points of the list outside every closed or open chamber's non-MCM
    cone, each cone's membership decided by the bounded search."""
    mcm = set(points)
    for chamber in chamber_decomposition(ws).chambers:
        if chamber.kind == HALF_OPEN:
            continue
        cone = non_mcm_cone(chamber, ws)
        shifted = {(x - cone.offset[0], y - cone.offset[1]): (x, y) for x, y in points}
        mcm -= {shifted[t] for t in semigroup_members(cone.generators, shifted)}
    return mcm


_small_weight = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)


@st.composite
def _gorenstein_rank2(draw):
    """Weights v and -v for a few v, plus a triangle a, b, -(a + b) taken
    once or twice: the sum is always zero, the system rarely symmetric."""
    pairs = draw(st.lists(_small_weight, min_size=1, max_size=3))
    a, b = draw(_small_weight), draw(_small_weight)
    triangle = [a, b, (-a[0] - b[0], -a[1] - b[1])] if a != (-b[0], -b[1]) else []
    return pairs + [(-x, -y) for x, y in pairs] + triangle * draw(st.integers(1, 2))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_gorenstein_rank2())
def test_is_mcm_and_region_agree_with_oracle(ws):
    assume(chamber_decomposition(ws).hypothesis_ok)
    box = [(-4, 4), (-4, 4)]
    points = list(product(range(-4, 5), repeat=2))
    expected = _oracle_mcm_set(ws, points)
    assert mcm_region(ws, box) == expected
    assert {pt for pt in points if is_mcm(pt, ws)} == expected


def test_query_order_does_not_change_answers():
    ws = table("I", (2, 3))
    cones = [non_mcm_cone(c, ws) for c in chamber_decomposition(ws).chambers
             if c.kind != HALF_OPEN]
    # every generator costs phi >= 2, without and with a unit line
    cones += [NonMcmCone((1, -1), ((2, 1), (1, 3))),
              NonMcmCone((0, 0), ((2, 2), (1, 3), (-2, 0), (3, 0)))]
    near = sorted(product(range(-4, 9), repeat=2), key=sum)
    far = [(40, -35), (-60, 12), (25, 50), (-30, -45)]
    for cone in cones:
        truth = {pt: NonMcmCone(cone.offset, cone.generators).contains(pt)
                 for pt in far + near}
        for order in (far + near, near + far, near[::-1]):
            reused = NonMcmCone(cone.offset, cone.generators)
            assert [reused.contains(pt) for pt in order] == [truth[pt] for pt in order]


def test_interleaved_weight_systems_match_fresh_cones():
    systems = [table("I", (2, 3)), table("V", (2,)), table("II", (1, 1, 1))]
    points = [(9, -7), (0, 0), (2, 1), (-3, 3), (5, 0), (-1, -4), (12, 12)]
    fresh = {}
    for i, ws in enumerate(systems):
        cones = [non_mcm_cone(c, ws) for c in chamber_decomposition(ws).chambers
                 if c.kind != HALF_OPEN]
        fresh[i] = {pt: not any(c.contains(pt) for c in cones) for pt in points}
    for pt in points:
        for i in (0, 1, 0, 2, 0):
            assert is_mcm(pt, systems[i]) == fresh[i][pt], (i, pt)


# ---------------------------------------------------------------------------
# the compiled test against the per-query level cones


FAMILY_TABLES = [table(tag, params) for tag, params in
                 [("I", (0, 1)), ("I", (2, 3)), ("II", (1, 1, 1)), ("II", (3, 3, 3)),
                  ("III", (0, 2, 0)), ("III", (2, 3, 2)), ("IV", (1, 1)), ("IV", (4, 5)),
                  ("V", (0,)), ("V", (3,))]]
_point = st.tuples(st.integers(-14, 14), st.integers(-14, 14))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(FAMILY_TABLES), _gorenstein_rank2()),
       st.lists(_point, min_size=1, max_size=40))
def test_compiled_test_agrees_with_level_cones(ws, points):
    assume(chamber_decomposition(ws).hypothesis_ok)
    test, cones = McmTest(ws), level_cones(ws)
    assert [test(pt) for pt in points] == [cones_is_mcm(pt, cones) for pt in points]
    assert [is_mcm(pt, ws) for pt in points[:3]] == [test(pt) for pt in points[:3]]


def _assert_chambers_and_cones_match_the_reference(ws):
    try:
        ref = reference_chamber_decomposition(ws)
    except (ValueError, AssertionError) as exc:
        with pytest.raises(type(exc)) as ours:
            chamber_decomposition(ws)
        assert str(ours.value) == str(exc)
        return
    dec = chamber_decomposition(ws)
    assert dec == ref
    for chamber in dec.chambers:
        if chamber.kind != HALF_OPEN:
            cone = non_mcm_cone(chamber, ws)
            assert (cone.offset, cone.generators) == reference_non_mcm_cone(chamber, ws)


@pytest.mark.parametrize("ws", FAMILY_TABLES)
def test_chambers_and_cones_match_the_reference_on_families(ws):
    _assert_chambers_and_cones_match_the_reference(ws)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_gorenstein_rank2(),
                 st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                          min_size=1, max_size=7)))
def test_chambers_and_cones_match_the_reference(ws):
    """Gorenstein systems, and any plane weights: zero ones, repeated ones,
    one line only."""
    _assert_chambers_and_cones_match_the_reference(ws)


def test_compiled_test_matches_level_cones_on_a_seeded_sample():
    systems = weight_systems(seed=3, count=40)
    bad, tested = mcm_disagreements(systems, seed=3, points=30)
    assert not bad
    assert tested >= 30


def test_every_route_matches_level_cones_on_sparse_systems():
    """Weights with entries in [-4, 4]: some cones are saturated, and the
    rest keep an Apery table, among them pointed cones (no conductor) and
    rays and half-planes with a conductor above 0."""
    systems = sparse_systems(seed=5, count=40)
    routes = cone_routes(systems)
    assert routes["saturated"] and routes["apery"] and routes["largest_index"] > 1
    conductors = {cone.conductor for ws in systems for cone in McmTest(ws).cones}
    assert None in conductors and max(conductors - {None}) > 0
    bad, tested = mcm_disagreements(systems, seed=5, points=40)
    assert not bad and tested == 40


def test_apery_walk_agrees_with_the_linear_scan():
    """A seeded slice of the sparse systems and three random systems with
    entries in [-30, 30] compile every cone to the lattice, Apery table and
    conductor of the walk that scans each staircase and sorts it after."""
    systems = sparse_systems(seed=6, count=40) + random_systems(seed=6, count=3)
    assert cone_routes(systems)["apery"]
    assert apery_disagreements(systems)[0] == []


def test_rank_one_test_matches_level_cones_and_closed_form():
    bad, asked = rank1_disagreements(RANK1_SYSTEMS[6:])
    assert not bad
    assert asked == sum(6 * sum(w for w in ws if w > 0) + 1 for ws in RANK1_SYSTEMS[6:])


@st.composite
def _cone(draw):
    """Rank 1 or 2; some generators with their negatives (a unit line, or
    with every negative a group, so no phi steps), the rest random."""
    rank = draw(st.sampled_from([1, 2, 2, 2]))
    vec = st.tuples(*[st.integers(-4, 4)] * rank)
    gens = draw(st.lists(vec, max_size=4))
    shape = draw(st.sampled_from(["free", "line", "group"]))
    if shape == "line":
        u = draw(vec)
        gens += [u, tuple(-c for c in u), tuple(2 * c for c in u)]
    elif shape == "group":
        gens += [tuple(-c for c in g) for g in gens]
    offset = draw(vec)
    return offset, tuple(gens)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_cone(), st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                         min_size=1, max_size=30))
def test_compiled_cone_agrees_with_level_cone(cone, points):
    offset, gens = cone
    points = [pt[:len(offset)] for pt in points]
    ours, ref = NonMcmCone(offset, gens), LevelNonMcmCone(offset, gens)
    assert [ours.contains(pt) for pt in points] == [ref.contains(pt) for pt in points]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=7),
       st.lists(st.integers(1, 3), max_size=7))
def test_unit_split_matches_the_pairwise_scan(gens, scales):
    """The one-pass split finds the units, the rest and phi that the
    pairwise cone-membership scan and its phi search find, and the cone
    built on them answers as the level cone does near the origin;
    negatives, scaled, make lines and half-planes."""
    gens = gens + [(-k * x, -k * y) for (x, y), k in zip(gens, scales)]
    ref = LevelNonMcmCone((0, 0), gens)
    units, rest, _ = mcm._split_units(sorted(set(gens) - {(0, 0)}))
    assert units == ref.units
    assert rest == [g for _, g in ref.steps]
    cone = NonMcmCone((0, 0), tuple(gens))
    assert cone._row[2:4] == ref.phi
    assert all(cone.contains(pt) == ref.contains(pt) for pt in product(range(-6, 7), repeat=2))


def test_unit_line_and_group_cones_by_hand():
    """A cone with a unit line and phi steps, and one with no phi steps."""
    line = NonMcmCone((0, 0), ((1, 1), (-1, -1), (2, 0)))
    group = NonMcmCone((1, 0), ((2, 1), (-2, -1), (0, 3), (0, -3)))
    assert LevelNonMcmCone(line.offset, line.generators).line in {(1, 1), (-1, -1)}
    assert not LevelNonMcmCone(group.offset, group.generators).steps
    for pt in product(range(-5, 6), repeat=2):
        assert line.contains(pt) == (pt[0] >= pt[1] and (pt[0] - pt[1]) % 2 == 0)
        assert group.contains(pt) == ((pt[0] - 1) % 2 == 0
                                      and (pt[1] - (pt[0] - 1) // 2) % 3 == 0)


def test_compiled_test_wrong_rank_message():
    ws = table("I", (2, 3))
    for chi in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError) as ours:
            McmTest(ws)(chi)
        with pytest.raises(ValueError) as ref:
            cones_is_mcm(chi, level_cones(ws))
        assert str(ours.value) == str(ref.value) == f"expected a vector of rank 2, got {chi}"
    with pytest.raises(ValueError, match="^expected a vector of rank 1, got \\(1, 2\\)$"):
        McmTest([(1,), (-2,), (4,), (-3,)])((1, 2))


@pytest.mark.parametrize("chi", [(0.5,), (11.0,), (True,), ("3",)])
def test_non_integer_coordinates_are_refused(chi):
    """A class has int coordinates: a float, a bool or a string is refused
    by name, where (0.5,) read as MCM and (11.0,) raised a TypeError."""
    ws = [(3,), (7,), (-4,), (-6,)]
    message = f"^coordinate {re.escape(repr(chi[0]))} of "
    for call in (McmTest(ws), partial(is_mcm, weights=ws), NonMcmCone((0,), ((3,), (7,))).contains):
        with pytest.raises(ValueError, match=message):
            call(chi)
    with pytest.raises(ValueError, match="^coordinate 0.5 of \\(0.5, 0.25\\) is not an int$"):
        is_mcm((0.5, 0.25), table("I", (4, 5)))


def test_compiled_cones_are_freed_with_their_owner(monkeypatch):
    """No compiled cone outlives the class group that holds it, or the call
    that compiled it, without a garbage collection."""
    refs = []
    build = mcm.non_mcm_cone

    def recording(chamber, weights):
        cone = build(chamber, weights)
        refs.append(weakref.ref(cone))
        return cone

    monkeypatch.setattr(mcm, "non_mcm_cone", recording)
    text = corpus_path("rank2_demo.cone").read_text()
    chars = nccr_characters("I", (0, 1))
    gc.disable()
    try:
        cgd = class_group(parse_cone(text))
        assert is_mcm((0, 0), cgd) and is_mcm((0, 0), cgd)
        built = len(refs)
        assert built and all(r() is not None for r in refs)
        assert mcm_region(cgd, [(-2, 2), (-2, 2)])
        assert len(refs) == built  # the held test is reused
        assert endomorphism_is_mcm(CharacterSet(chars=((0, 0), (1, 0))), cgd).checked
        mcm_region(list(cgd.weights), [(-2, 2), (-2, 2)])
        endomorphism_is_mcm(chars, table("I", (0, 1)))
        assert len(refs) > built
        assert all(r() is None for r in refs[built:])  # compiled per call
        del cgd
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# regions against the figure closed forms


def region_type1(m, n):
    def inside(c):
        return (abs(c[1]) <= n
                and c[0] <= m + n + 1 + max(c[1], 0)
                and c[0] >= -(m + n + 1) + min(c[1], 0))
    return inside


def region_type2(l, m, n):
    return lambda c: abs(c[0]) <= l + m and abs(c[1]) <= m + n


def region_type3(l, m, n):
    def inside(c):
        return (abs(c[1]) <= m - 1
                and c[0] <= l + m + n + 1 + max(c[1], 0)
                and c[0] >= -(l + m + n + 1) + min(c[1], 0))
    return inside


def region_type4(m, n):
    return lambda c: abs(c[0]) <= m and abs(c[1]) <= n


def region_type5(n):
    # the full square plus four wing triangles: twelve boundary vertices
    def inside(c):
        square = abs(c[0]) <= n + 1 and abs(c[1]) <= n + 1
        wing_up = (c[1] >= n + 1 and c[1] - c[0] <= n + 1 and c[0] <= n + 1)
        wing_right = (c[0] >= n + 1 and c[0] - c[1] <= n + 1 and c[1] <= n + 1)
        wing_down = (-c[1] >= n + 1 and -c[1] + c[0] <= n + 1 and -c[0] <= n + 1)
        wing_left = (-c[0] >= n + 1 and -c[0] + c[1] <= n + 1 and -c[1] <= n + 1)
        return square or wing_up or wing_right or wing_down or wing_left
    return inside


REGION_CASES = [
    ("I", (0, 1), region_type1(0, 1), (3, 1)),
    ("I", (1, 1), region_type1(1, 1), (4, 1)),
    ("I", (2, 3), region_type1(2, 3), (9, 3)),
    ("II", (1, 1, 1), region_type2(1, 1, 1), (2, 2)),
    ("III", (0, 2, 0), region_type3(0, 2, 0), (5, 1)),
    ("III", (1, 2, 1), region_type3(1, 2, 1), (8, 1)),
    ("IV", (1, 1), region_type4(1, 1), (1, 1)),
    ("IV", (2, 3), region_type4(2, 3), (2, 3)),
    ("V", (0,), region_type5(0), (2, 2)),
    ("V", (1,), region_type5(1), (4, 4)),
    ("V", (2,), region_type5(2), (6, 6)),
]


@pytest.mark.parametrize("tag,params,predicate,extreme", REGION_CASES)
def test_mcm_regions_match_figures(tag, params, predicate, extreme):
    ws = table(tag, params)
    box = [(-extreme[0] - 3, extreme[0] + 3), (-extreme[1] - 3, extreme[1] + 3)]
    region = mcm_region(ws, box)
    expected = {(x, y) for x in range(box[0][0], box[0][1] + 1)
                for y in range(box[1][0], box[1][1] + 1) if predicate((x, y))}
    assert region == expected


def test_type5_twelve_vertices_listed():
    ws = table("V", (0,))
    region = mcm_region(ws, [(-5, 5), (-5, 5)])
    for vertex in [(1, 2), (2, 1), (1, 1), (1, 0), (1, -1), (0, -1),
                   (-1, -2), (-2, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1)]:
        assert vertex in region
    assert (2, 2) not in region and (3, 1) not in region
    assert (2, -1) not in region and (-1, 2) not in region


@pytest.mark.parametrize("tag,params,predicate,extreme", REGION_CASES)
def test_conic_inside_mcm_and_symmetric(tag, params, predicate, extreme):
    ws = table(tag, params)
    box = [(-extreme[0] - 3, extreme[0] + 3), (-extreme[1] - 3, extreme[1] + 3)]
    region = mcm_region(ws, box)
    conic = {pt for pt in region if is_conic(pt, ws)}
    for pt in conic:
        assert pt in region
    assert region == {(-x, -y) for (x, y) in region}
    assert conic == {(-x, -y) for (x, y) in conic}


def test_region_agrees_with_pointwise():
    ws = table("I", (1, 1))
    box = [(-6, 6), (-4, 4)]
    region = mcm_region(ws, box)
    for x in range(-6, 7):
        for y in range(-4, 5):
            assert ((x, y) in region) == is_mcm((x, y), ws)


def test_rank1_region():
    weights = [(1,), (-2,), (4,), (-3,)]
    assert mcm_region(weights, [(-8, 8)]) == {(a,) for a in range(-4, 5)}


# ---------------------------------------------------------------------------
# the swept region against the pointwise oracle

# 7 of its 10 cones are pointed and not saturated, so they keep Apery
# tables; the "every-route" system below has saturated cones, pointed cones
# with Apery tables and half-planes with conductor 3, and the weights of
# "index-3" span the lattice of (x, y) with y = x modulo 3
LEVEL_SYSTEM = [(-1, -3), (3, -4), (2, 2), (-4, 3), (0, -1), (0, 3)]

SWEEP_BOXES = [
    [(3, 2), (-4, 4)], [(-4, 4), (5, -5)], [(1, 0), (1, 0)],  # empty ranges: set()
    [(0, 0), (-9, 9)], [(4, 4), (-9, 9)], [(-9, 9), (0, 0)], [(-9, 9), (-3, -3)],
    [(5, 14), (-12, -3)], [(-20, -11), (8, 17)], [(2, 2), (-1, -1)],  # off the origin
    [(-12, 12), (-12, 12)],
]


@pytest.mark.parametrize("ws", [table("I", (2, 3)), table("V", (3,)), LEVEL_SYSTEM,
                                [(-3, -3), (1, 4), (3, -3), (0, 4), (0, -3), (-1, 1)],
                                [(x, x + 3 * y) for x, y in table("I", (2, 3))]],
                         ids=["I-2-3", "V-3", "levels", "every-route", "index-3"])
@pytest.mark.parametrize("box", SWEEP_BOXES)
def test_swept_region_agrees_with_pointwise_oracle(ws, box):
    assert mcm_region(ws, box) == pointwise_mcm_region(ws, box)


def test_swept_region_closes_levels_as_the_oracle_does():
    """Seven cones are pointed and not saturated: the sweep clears one slice
    per corner of their Apery tables in each column, and lists the points
    that a fresh test and the pointwise oracle find."""
    test = McmTest(LEVEL_SYSTEM)
    assert sum(cone.conductor is None for cone in test.cones) == 7
    for box in ([(-30, 30), (-30, 30)], [(12, 40), (-40, -9)]):
        assert mcm_region(LEVEL_SYSTEM, box) == pointwise_mcm_region(LEVEL_SYSTEM, box)
    fresh = McmTest(LEVEL_SYSTEM)
    assert {pt for pt in product(range(-30, 31), repeat=2) if fresh(pt)} == \
        mcm_region(LEVEL_SYSTEM, [(-30, 30), (-30, 30)])


@pytest.mark.parametrize("weights", RANK1_SYSTEMS)
def test_swept_rank_one_region_agrees_with_the_oracle(weights):
    ws = [(w,) for w in weights]
    beta = sum(w for w in weights if w > 0)
    for box in ([(-3 * beta, 3 * beta)], [(beta, 4 * beta)], [(-beta, -beta)], [(2, 1)]):
        assert mcm_region(ws, box) == pointwise_mcm_region(ws, box)
    lo, hi = -3 * beta, 3 * beta
    assert mcm_region(ws, [(lo, hi)]) == {
        (x,) for x in closed_form_mcm_classes(weights, lo, hi)}


def test_swept_rank_one_region_reaches_a_far_conductor():
    """N<300, 301> has conductor 89700: the default box [-R - 2, R + 2],
    R = beta + F = 90300, is one column, clipped to [-R, R], in which each
    ray clears one slice for each of its 300 Apery corners (40 s when each
    level below the conductor was closed on a copy of the levels below
    it)."""
    weights = (300, 301, -300, -301)
    ws = [(w,) for w in weights]
    reach = McmTest(ws).reach()
    start = time.perf_counter()
    region = mcm_region(ws, [(-reach - 2, reach + 2)])
    assert time.perf_counter() - start < 5
    assert region == {(x,) for x in closed_form_mcm_classes(weights, -reach - 2, reach + 2)}
    assert len(region) == 90901


def test_rank_one_region_of_weights_that_miss_classes_is_not_clipped():
    """(2, 4, -2, -4) spans 2Z: no non-MCM cone holds an odd class, so the
    MCM classes have no reach and the box is swept whole."""
    ws = [(2,), (4,), (-2,), (-4,)]
    region = mcm_region(ws, [(-60, 60)])
    assert region == pointwise_mcm_region(ws, [(-60, 60)])
    assert {(x,) for x in range(-59, 60, 2)} <= region


def test_rank_one_weights_that_miss_classes_have_no_reach():
    """(2, 4, -2, -4) spans 2Z and (3, 6, -3, -6) spans 3Z: no non-MCM cone
    holds a class outside the span, so MCM classes lie at every distance
    and there is no reach (5 and 8 were returned before, though 1001 is
    MCM).  (2, 3, -2, -3) spans Z: beta = 5 and N<2, 3> has Frobenius
    number 1."""
    for weights in [(2, 4, -2, -4), (3, 6, -3, -6)]:
        test = McmTest([(w,) for w in weights])
        assert test.reach() is None and test((1001,))
    assert McmTest([(2,), (3,), (-2,), (-3,)]).reach() == 6


def test_queries_that_climb_a_ray_pay_each_level_once():
    """A fresh test asked about 0, 1, ..., R in order answers each query
    from the rays' Apery tables, so the climb past the conductor 89700 of
    N<300, 301> takes well under a second (34 s when each level was closed
    on a copy of the levels below it), and it leaves the rows as compiled."""
    weights = (300, 301, -300, -301)
    test = McmTest([(w,) for w in weights])
    rows = copy.deepcopy([cone._row for cone in test.cones])
    reach = test.reach()
    start = time.perf_counter()
    found = [x for x in range(reach + 3) if test((x,))]
    assert time.perf_counter() - start < 5
    assert set(found) == closed_form_mcm_classes(weights, 0, reach + 2)
    assert [cone.conductor for cone in test.cones] == [89700, 89700]
    assert [cone._row for cone in test.cones] == rows


@pytest.mark.parametrize("weights, radius", [
    (LEVEL_SYSTEM, 10 ** 6), ([(3,), (7,), (-4,), (-6,)], 10 ** 6),
    ([(300,), (301,), (-300,), (-301,)], 10 ** 5)], ids=["levels", "3,7,-4,-6", "300,301"])
def test_queries_leave_the_compiled_rows_unchanged(weights, radius):
    """10**4 queries, near and far, change nothing a compiled test holds."""
    test = McmTest(weights)
    rows = copy.deepcopy([cone._row for cone in test.cones])
    rng = random.Random(7)
    for _ in range(10 ** 4):
        r = rng.choice((20, radius))
        test(tuple(rng.randint(-r, r) for _ in range(test.rank)))
    assert [cone._row for cone in test.cones] == rows


def test_swept_region_scales_with_the_columns():
    """rank2_demo has 37 MCM classes, all within [-20, 20]^2; the box
    [-1000, 1000]^2 finds the same ones in well under a second (4.4 s
    pointwise)."""
    cgd = class_group(parse_cone(_DEMO))
    near = mcm_region(cgd, [(-20, 20), (-20, 20)])
    start = time.perf_counter()
    far = mcm_region(cgd, [(-1000, 1000), (-1000, 1000)])
    assert time.perf_counter() - start < 1.5
    assert len(near) == 37 and far == near


def test_raw_cone_region_agrees_with_pointwise():
    from hibinccr import class_group, corpus_path, parse_cone
    cgd = class_group(parse_cone(corpus_path("rank2_demo.cone").read_text()))
    box = [(-5, 5), (-5, 5)]
    region = mcm_region(cgd, box)
    for x in range(-5, 6):
        for y in range(-5, 6):
            assert ((x, y) in region) == is_mcm((x, y), cgd)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                min_size=1, max_size=4),
       st.tuples(st.integers(-7, 7), st.integers(-7, 7)))
def test_semigroup_vs_oracle_property(gens, target):
    assert semigroup_member(target, gens) == (target in semigroup_members(gens, [target]))


# ---------------------------------------------------------------------------
# conductors and far queries


def _poset_weights(p):
    return class_group(sigma_matrix(p), spanning_tree(p))


@pytest.mark.parametrize("name", sorted(path.name for path in corpus_path("").iterdir()))
def test_corpus_cones_have_conductor_zero(name):
    text = corpus_path(name).read_text()
    cgd = class_group(parse_cone(text)) if name.endswith(".cone") else _poset_weights(
        parse_poset(text))
    assert cgd.rank in (1, 2)
    assert [cone.conductor for cone in cgd.mcm_test.cones] == [0] * len(cgd.mcm_test.cones)


@pytest.mark.parametrize("tag, params", FAMILY_SIZES)
def test_family_cones_have_conductor_zero(tag, params):
    cones = _poset_weights(generate_family(tag, params).poset).mcm_test.cones
    assert cones and all(cone.conductor == 0 for cone in cones)


_DEMO = corpus_path("rank2_demo.cone").read_text()


@pytest.mark.parametrize("weights, chi, mcm", [
    (lambda: class_group(parse_cone(_DEMO)).weights, (3000, 0), False),
    (lambda: table("I", (5, 6)), (1000, 0), False),
    (lambda: [(3,), (7,), (-4,), (-6,)], (10 ** 5,), False),
    (lambda: LEVEL_SYSTEM, (10 ** 6, 0), False),
    (lambda: [(1000,), (1001,), (-1000,), (-1001,)], (10 ** 6,), True),
], ids=["rank2_demo", "I-5-6", "3,7,-4,-6", "levels", "1000,1001"])
def test_far_query_takes_constant_time_and_memory(weights, chi, mcm):
    """A fresh test answers far away under 50 ms and a 1 MiB tracemalloc
    peak, compile included.  Closing levels instead, rank2_demo took 52 s
    and 754 MiB at (3000, 0), LEVEL_SYSTEM, whose seven pointed cones are
    not saturated, 0.36 s and 49 MiB at (300, 0), and (1000, 1001, -1000,
    -1001) 0.8 s and 255 MiB at (10**6,), which lies below beta + F =
    1001000 and is MCM."""
    ws = weights()
    gc.collect()  # a full collection of the test run's heap can take most of 50 ms
    start = time.perf_counter()
    assert McmTest(ws)(chi) is mcm
    assert time.perf_counter() - start < 0.05
    tracemalloc.start()
    try:
        assert McmTest(ws)(chi) is mcm
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_conductor_of_rank_one_cones_is_frobenius_plus_one():
    """N<3, 4, 6, 7> misses 1, 2 and 5: the conductor is 6; with a unit
    weight the semigroup is N and the conductor 0.  A half-plane whose
    only hole modulo its units is (1, 1), at phi level 2, has conductor 3:
    the least phi step is 4, and levels 3 to 6 are full (3 and 5 hold no
    point of the group)."""
    cones = McmTest([(3,), (7,), (-4,), (-6,)]).cones
    assert [c.conductor for c in cones] == [6, 6]
    # Ap(N<3, 4, 6, 7>; 3) = {0, 4, 8}, one corner per residue modulo 3
    assert [sorted(t for _, (t,) in c._row[-1].values()) for c in cones] == [[0, 4, 8]] * 2
    assert [c.conductor for c in McmTest([(1,), (2,), (-1,), (-2,)]).cones] == [0, 0]
    assert NonMcmCone((0,), ((2,), (3,))).conductor == 2
    half_plane = NonMcmCone((0, 0), ((2, 0), (-2, 0), (0, 2), (3, 3)))
    assert half_plane.conductor == 3
    assert [pt for pt in product(range(-6, 7), range(0, 7))
            if (pt[0] - pt[1]) % 2 == 0 and not half_plane.contains(pt)] == [
        (x, 1) for x in range(-5, 7, 2)]


def test_rank_one_conductor_agrees_with_the_closed_form():
    """N<100, 101> has Frobenius number 9899: the conductor is 9900, and
    the test agrees with the closed form up to and past beta + F."""
    weights = (100, 101, -100, -101)
    test, reach = McmTest([(w,) for w in weights]), 201 + 9899
    assert [c.conductor for c in test.cones] == [9900, 9900]
    closed = closed_form_mcm_classes(weights, -reach - 50, reach + 50)
    assert {x for x in range(-reach - 50, reach + 51) if test((x,))} == closed
    assert reach in closed and reach + 1 not in closed


def test_rank_one_levels_close_as_queries_ask():
    """N<1000, 1001> has conductor 999000; a fresh test answers classes
    near the offsets +-2001, and its reach beta + F = 1001000, under 50 ms
    and a 1 MiB tracemalloc peak, compile included, which walks the 1000
    Apery corners of each ray (the reach took 0.8 s and 255 MiB when it
    closed the levels below the conductor)."""
    ws = [(1000,), (1001,), (-1000,), (-1001,)]
    gc.collect()
    start = time.perf_counter()
    assert [McmTest(ws)((x,)) for x in (0, 2000, 2001, 2010, 3001)] == [
        True, True, False, True, False]
    assert time.perf_counter() - start < 0.05
    gc.collect()
    start = time.perf_counter()
    assert McmTest(ws).reach() == 1001000
    assert time.perf_counter() - start < 0.05
    tracemalloc.start()
    try:
        assert McmTest(ws)((-2010,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_rank_one_reach_is_beta_plus_frobenius():
    """(3, 7, -4, -6): beta = 10, and N<3, 4, 6, 7> has Frobenius number 5;
    (1, 2, -1, -2): beta = 3 and the semigroup is N, so the conic interval
    [-2, 2] is the whole MCM set.  A rank-two test has no reach."""
    for weights, reach in [((3, 7, -4, -6), 15), ((1, 2, -1, -2), 2),
                           ((100, 101, -100, -101), 10100)]:
        test = McmTest([(w,) for w in weights])
        assert test.reach() == reach
        assert max(x for x in range(-reach - 30, reach + 31) if test((x,))) == reach
    with pytest.raises(ValueError):
        McmTest(table("I", (4, 5))).reach()


def test_saturation_is_decided_by_the_hilbert_basis():
    """The cone of (1, 0) and (1, 3) has Hilbert basis (1, 0), (1, 1),
    (1, 2), (1, 3) in Z^2: with all four generators it is saturated, and
    without (1, 2) it is not ((1, 2) is a hole).  Relative to the group
    its generators span, (1, 0), (1, 3) alone is saturated: that group
    holds neither (1, 1) nor (1, 2)."""
    full = NonMcmCone((0, 0), ((1, 0), (1, 1), (1, 2), (1, 3)))
    holed = NonMcmCone((0, 0), ((1, 0), (1, 1), (1, 3)))
    sparse = NonMcmCone((0, 0), ((1, 0), (1, 3)))
    assert (full.conductor, holed.conductor, sparse.conductor) == (0, None, 0)
    assert not holed.contains((1, 2)) and holed.contains((2, 2))
    for cone in (full, holed, sparse):
        ref = LevelNonMcmCone(cone.offset, cone.generators)
        for pt in product(range(-3, 12), repeat=2):
            assert cone.contains(pt) == ref.contains(pt), pt


def test_saturated_cone_of_large_index_walks_no_apery_set():
    """(10**6, -1), (1, 0), (0, 1) is the Hilbert basis of its cone, whose
    boundary generators span a sublattice of index 10**6: the Hilbert basis
    walk finds it saturated, so it keeps the congruence and no table
    instead of walking 10**6 Apery corners."""
    gc.collect()
    start = time.perf_counter()
    cone = NonMcmCone((0, 0), ((10 ** 6, -1), (1, 0), (0, 1)))
    assert time.perf_counter() - start < 0.05
    assert cone.conductor == 0 and not cone._row[-1]
    assert cone.contains((10 ** 6 - 1, 0)) and not cone.contains((10 ** 6 + 1, -2))


def test_non_saturated_cone_has_no_conductor():
    """The cone at offset (4, -6) of this system is not saturated: the
    shift (1, 0) is half of (2, 0), which is in the semigroup, so it lies
    in the rational cone, and it lies in the generators' group, but not in
    the semigroup.  Its Apery table holds one corner in each of 4
    residues, and it agrees with the oracle."""
    ws = [(-1, -3), (3, -4), (2, 2), (-4, 3), (0, -1), (0, 3)]
    cone, = [c for c in McmTest(ws).cones if c.offset == (4, -6)]
    assert cone.conductor is None
    table = cone._row[-1]
    assert (len(table), sum(len(ns) for ns, _ in table.values())) == (4, 4)
    assert semigroup_members(cone.generators, [(1, 0), (2, 0)]) == {(2, 0)}
    assert lattice_contains(cone.generators, (1, 0))
    assert not cone.contains((5, -6)) and cone.contains((6, -6))
    ref = LevelNonMcmCone(cone.offset, cone.generators)
    for pt in product(range(-20, 21), repeat=2):
        assert cone.contains(pt) == ref.contains(pt), pt

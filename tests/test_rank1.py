from __future__ import annotations

import tracemalloc
from math import gcd

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibinccr import (CharacterSet, CriterionHypothesisError, Rank1InputError,
                      Rank1Weights, Window, base_window, certify_gldim, class_group,
                      conic_classes, endomorphism_is_mcm, exchange_graph,
                      exchange_graph_dot, is_conic, is_mcm, mcm_bound, mcm_region,
                      mutate_window, parse_cone, replay_certificate, segre_poset,
                      sigma_matrix, spanning_tree)
from hibinccr.mcm import McmTest, chamber_decomposition, non_mcm_cone
from hibinccr.nccr import character_window
from hibinccr.rank1 import mcm_interval

from conftest import load_corpus
from oracles import closed_form_mcm_classes

FOUR_RAY = Rank1Weights(weights=(1, -2, 4, -3))
CONIFOLD = Rank1Weights(weights=(1, 1, -1, -1))


def segre_weights(m):
    return Rank1Weights(weights=tuple([1] * (m + 1) + [-1] * (m + 1)))


def test_weights_sorted_and_validated():
    assert FOUR_RAY.weights == (-3, -2, 1, 4)
    assert FOUR_RAY.negatives == (-3, -2)
    assert FOUR_RAY.positives == (1, 4)
    assert FOUR_RAY.dimension == 3


@pytest.mark.parametrize("bad", [
    (1, -1),                # fewer than two of each sign
    (2, 2, -2, -2),         # common factor
    (1, 2, -1, -1),         # does not sum to zero
    (1, 0, -1, 0),          # zero weights
])
def test_invalid_weights_rejected(bad):
    with pytest.raises(Rank1InputError):
        Rank1Weights(weights=tuple(bad))


def test_from_cone_file():
    cgd = class_group(parse_cone(load_corpus("rank1_example.cone")))
    line = Rank1Weights.from_class_group(cgd)
    assert line.weights == (-3, -2, 1, 4)


def test_mcm_bound_four_ray():
    bound = mcm_bound(FOUR_RAY)
    assert bound.summands == 5
    assert bound.interval == (-4, 4)


def test_mcm_bound_conifold():
    bound = mcm_bound(CONIFOLD)
    assert bound.summands == 2
    assert bound.interval == (-1, 1)


def test_mcm_bound_segre():
    bound = mcm_bound(segre_weights(3))
    assert bound.summands == 4
    assert bound.interval == (-3, 3)


def test_mcm_interval_reads_raw_weights_unchecked():
    """The one interval formula: any integers, in any order, none refused."""
    assert mcm_interval((4, -3, 1, -2)) == (-4, 4)
    assert mcm_interval(iter([2, -2])) == (-1, 1)
    assert mcm_interval([3, 0]) == (1, -1)  # no negative weight: empty


@pytest.mark.parametrize("weights", [(1, 1, -1, -1), (1, 2, -1, -2), (1, 3, -2, -2),
                                     (3, 5, -1, -7), "rank1_example.cone"])
def test_interval_agrees_with_the_chamber_cones_when_a_weight_is_a_unit(weights):
    """With a weight +-1 the MCM classes are exactly the conic interval:
    McmTest, the chamber criterion's own rank-one cones and the interval
    answer alike on every class within 3 beta.  Without one there are MCM
    classes outside the interval (see the ``rank1`` docstring)."""
    if isinstance(weights, str):
        weights = tuple(w for w, in class_group(parse_cone(load_corpus(weights))).weights)
    assert 1 in map(abs, weights)
    ws = [(w,) for w in weights]
    decomposition = chamber_decomposition(ws)
    assert decomposition.hypothesis_ok
    cones = [non_mcm_cone(chamber, ws) for chamber in decomposition.chambers]
    test = McmTest(ws)
    beta = -sum(w for w in weights if w < 0)
    lo, hi = mcm_interval(weights)
    for x in range(-3 * beta, 3 * beta + 1):
        assert test((x,)) == (not any(cone.contains((x,)) for cone in cones)), x
        assert test((x,)) == (lo <= x <= hi), x


def test_interval_agrees_with_conic_on_doubled_window():
    """The interval is the conic classes; the MCM classes are those of the
    closed form, the interval and, unless a weight is +-1, more."""
    beta26 = Rank1Weights(weights=(-15, -11, 9, 17))
    for line in (FOUR_RAY, CONIFOLD, segre_weights(2), beta26):
        bound = mcm_bound(line)
        vectors = line.as_vectors()
        window = range(-2 * bound.summands, 2 * bound.summands + 1)
        mcm = closed_form_mcm_classes(line.weights, window[0], window[-1])
        assert set(range(bound.interval[0], bound.interval[1] + 1)) <= mcm
        for a in window:
            inside = bound.interval[0] <= a <= bound.interval[1]
            assert is_conic((a,), vectors) == inside
            assert is_mcm((a,), vectors) == (a in mcm)
    assert mcm_bound(beta26).summands == 26


def _agrees_with_closed_form(weights):
    """McmTest, is_mcm and mcm_region give the closed form's MCM classes on
    every class within 3 beta."""
    ws = [(w,) for w in weights]
    beta = sum(w for w in weights if w > 0)
    lo, hi = -3 * beta, 3 * beta
    expected = closed_form_mcm_classes(weights, lo, hi)
    test = McmTest(ws)
    assert {x for x in range(lo, hi + 1) if test((x,))} == expected
    assert {x for x in range(lo, hi + 1) if is_mcm((x,), ws)} == expected
    assert mcm_region(ws, [(lo, hi)]) == {(x,) for x in expected}


def _ids(weights):
    return ",".join(map(str, weights))


@pytest.mark.parametrize("weights", [(2, 3, -2, -3), (3, 7, -4, -6), (5, 7, -3, -9),
                                     (-15, -11, 9, 17), (1, -2, 4, -3)], ids=_ids)
def test_mcm_agrees_with_the_closed_form(weights):
    _agrees_with_closed_form(weights)


@st.composite
def rank1_systems(draw):
    """Coprime weights summing to zero, two to four of each sign, |w| <= 20."""
    positives = draw(st.lists(st.integers(1, 20), min_size=2, max_size=4))
    beta = sum(positives)
    count = draw(st.integers(max(2, -(-beta // 20)), min(4, beta)))
    negatives, rest = [], beta
    for left in range(count - 1, 0, -1):
        w = draw(st.integers(max(1, rest - 20 * left), min(20, rest - left)))
        negatives.append(-w)
        rest -= w
    weights = positives + negatives + [-rest]
    g = 0
    for w in weights:
        g = gcd(g, w)
    return tuple(draw(st.permutations(weights))) if g == 1 else None


@settings(max_examples=180, deadline=None, derandomize=True)
@given(rank1_systems().filter(bool))
def test_mcm_agrees_with_the_closed_form_on_random_systems(weights):
    _agrees_with_closed_form(weights)


def test_mcm_classes_outside_the_interval():
    """Unless a weight is +-1, +-(beta + g) is MCM for every gap g of the
    semigroup of the weights' absolute values."""
    def outside(weights, radius):
        test = McmTest([(w,) for w in weights])
        lo, hi = mcm_interval(weights)
        return [x for x in range(-radius, radius + 1)
                if not lo <= x <= hi and test((x,))]
    assert outside((2, 3, -2, -3), 30) == [-6, 6]
    assert outside((3, 7, -4, -6), 60) == [-15, -12, -11, 11, 12, 15]
    assert len(outside((-15, -11, 9, 17), 52)) == 34
    assert outside((1, -2, 4, -3), 30) == []


@pytest.mark.parametrize("weights", [(1, 1, -2), (2, -1, -1), (3, -1, -1, -1)], ids=_ids)
def test_one_weight_of_a_sign_is_refused(weights):
    """As in rank two, the criterion needs two weights of each sign; (1, 1,
    -2) presents the A1 singularity, whose class group is Z/2, not Z."""
    ws = [(w,) for w in weights]
    assert not chamber_decomposition(ws).hypothesis_ok
    for call in (lambda: McmTest(ws), lambda: is_mcm((0,), ws),
                 lambda: mcm_region(ws, [(-2, 2)])):
        with pytest.raises(CriterionHypothesisError):
            call()


def test_far_rank_one_query_stays_small():
    """A fresh test holds three Apery corners per ray and closes nothing
    per query: (10**4,) on (3, 7, -4, -6) stays under 8 MiB (about 6 KiB
    measured; 2.9 MiB when one class per level was closed up to it)."""
    tracemalloc.start()
    try:
        assert not McmTest([(3,), (7,), (-4,), (-6,)])((10 ** 4,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("weights, cliques, windows", [
    ((2, 3, -2, -3), 10, 5), ((3, 7, -4, -6), 50, 10)], ids=["2,3,-2,-3", "3,7,-4,-6"])
def test_maximum_cliques_that_are_not_windows(weights, cliques, windows):
    """Join a and b when a - b and b - a are MCM.  The maximum cliques
    through 0 have beta elements, and some are not windows: End is MCM for
    them all, but only the windows certify."""
    ws = [(w,) for w in weights]
    beta = mcm_bound(Rank1Weights(weights=weights)).summands
    test = McmTest(ws)
    both = [x for x in range(-3 * beta, 3 * beta + 1) if x and test((x,)) and test((-x,))]
    graph = nx.Graph()
    graph.add_nodes_from(both)
    graph.add_edges_from((a, b) for a in both for b in both if a < b and b - a in both)
    found = [sorted(c + [0]) for c in nx.find_cliques(graph)]
    largest = [c for c in found if len(c) == beta]
    assert max(map(len, found)) == beta and len(largest) == cliques
    is_window = [c == list(range(c[0], c[0] + beta)) for c in largest]
    assert sum(is_window) == windows
    goal = conic_classes(ws)
    for c, window in zip(largest, is_window):
        chars = CharacterSet(chars=tuple((x,) for x in c))
        assert endomorphism_is_mcm(chars, ws).ok
        assert certify_gldim(chars, ws, goal=goal).ok == window


def test_end_mcm_set_that_is_not_a_window_does_not_certify():
    """On (2, 3, -2, -3), End of {0, 2, 3, 4, 6} is MCM, yet both rank-one
    directions leave five conic goals uncovered; T[0..4] certifies and
    replays."""
    ws = [(2,), (3,), (-2,), (-3,)]
    goal = conic_classes(ws)
    odd = CharacterSet(chars=((0,), (2,), (3,), (4,), (6,)))
    assert endomorphism_is_mcm(odd, ws).ok
    result = certify_gldim(odd, ws, goal=goal)
    assert not result.ok
    assert result.uncovered == ((-4,), (-3,), (-2,), (-1,), (1,))
    window = character_window(list(range(5)))
    result = certify_gldim(window, ws, goal=goal)
    assert result.ok
    assert replay_certificate(result.certificate, window, ws) == (True, "certificate replays")


def test_base_windows():
    assert base_window(FOUR_RAY) == Window(lo=0, size=5)
    assert base_window(segre_weights(3)) == Window(lo=0, size=4)
    assert base_window(CONIFOLD) == Window(lo=0, size=2)


# ---------------------------------------------------------------------------
# window arithmetic through the endomorphism-ring checks


def test_windows_mcm_exactly_up_to_bound():
    line = FOUR_RAY
    vectors = line.as_vectors()
    beta = mcm_bound(line).summands
    for size in range(1, beta + 2):
        chars = character_window(list(range(0, -size, -1)))
        report = endomorphism_is_mcm(chars, vectors)
        assert report.ok == (size <= beta)


def test_full_windows_certify():
    line = FOUR_RAY
    vectors = line.as_vectors()
    beta = mcm_bound(line).summands
    chars = character_window(list(range(0, -beta, -1)))
    goal = conic_classes(vectors)
    result = certify_gldim(chars, vectors, goal=goal)
    assert result.ok


# ---------------------------------------------------------------------------
# mutations


def test_mutate_low_four_ray():
    res = mutate_window(Window(lo=0, size=5), "low", FOUR_RAY)
    assert res.window == Window(lo=1, size=5)
    assert res.mutated_class == 0
    assert res.kernel_class == 5
    assert res.middle_classes == (2, 3)


def test_mutation_is_involutive():
    for line in (FOUR_RAY, CONIFOLD):
        beta = mcm_bound(line).summands
        win = Window(lo=0, size=beta)
        there = mutate_window(win, "low", line)
        back = mutate_window(there.window, "high", line)
        assert back.window == win
        other = mutate_window(win, "high", line)
        forth = mutate_window(other.window, "low", line)
        assert forth.window == win


def test_mutate_conifold():
    res = mutate_window(Window(lo=0, size=2), "low", CONIFOLD)
    assert res.window == Window(lo=1, size=2)
    assert res.kernel_class == 2
    assert res.middle_classes == (1, 1)


def test_mutate_requires_dimension3():
    with pytest.raises(Rank1InputError):
        mutate_window(Window(lo=0, size=4), "low", segre_weights(3))


def test_mutate_requires_full_window():
    with pytest.raises(ValueError):
        mutate_window(Window(lo=0, size=4), "low", FOUR_RAY)


# ---------------------------------------------------------------------------
# exchange graphs


def test_exchange_graph_four_ray_path():
    graph = exchange_graph(FOUR_RAY, generators_only=True)
    assert len(graph.vertices) == 5
    assert graph.edge_error is None
    assert graph.edges == ((0, 1, -4), (1, 2, -3), (2, 3, -2), (3, 4, -1))
    labels = [w.label() for w in graph.vertices]
    assert labels == ["T[-4..0]", "T[-3..1]", "T[-2..2]", "T[-1..3]", "T[0..4]"]


def test_exchange_graph_conifold():
    graph = exchange_graph(CONIFOLD, generators_only=True)
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 1


def test_exchange_graph_segment():
    graph = exchange_graph(FOUR_RAY, generators_only=False, radius=2)
    assert [w.lo for w in graph.vertices] == [-2, -1, 0, 1, 2]
    assert len(graph.edges) == 4


@pytest.mark.parametrize("line", [FOUR_RAY, CONIFOLD], ids=["four_ray", "conifold"])
@pytest.mark.parametrize("generators_only,radius", [(True, None), (False, 3)])
def test_exchange_graph_edges_are_mutations(line, generators_only, radius):
    """Each edge's low mutation gives the next vertex and the edge's class,
    and the high mutation of that vertex returns."""
    graph = exchange_graph(line, generators_only=generators_only, radius=radius)
    assert graph.edges
    for i, j, cls in graph.edges:
        res = mutate_window(graph.vertices[i], "low", line)
        assert res.window == graph.vertices[j] and res.mutated_class == cls
        back = mutate_window(graph.vertices[j], "high", line)
        assert back.window == graph.vertices[i]


def test_exchange_graph_negative_radius_rejected():
    with pytest.raises(Rank1InputError, match="radius"):
        exchange_graph(FOUR_RAY, generators_only=False, radius=-3)


@pytest.mark.parametrize("radius", [0, 3])
def test_exchange_graph_radius_with_generators_only_rejected(radius):
    with pytest.raises(Rank1InputError, match="radius applies only without generators_only"):
        exchange_graph(FOUR_RAY, generators_only=True, radius=radius)


def test_exchange_graph_wrong_dimension_vertices_only():
    graph = exchange_graph(segre_weights(3), generators_only=True)
    assert len(graph.vertices) == 4
    assert graph.edges == ()
    assert graph.edge_error is not None


def test_dot_output():
    graph = exchange_graph(FOUR_RAY, generators_only=True)
    dot = exchange_graph_dot(graph, generators_only=True)
    assert 'M(0) = T[0..4]' in dot
    assert dot.count(" -- ") == 4


def test_vertex_count_equals_summands():
    for line in (FOUR_RAY, CONIFOLD, segre_weights(2)):
        beta = mcm_bound(line).summands
        assert len(exchange_graph(line).vertices) == beta


# ---------------------------------------------------------------------------
# the two-chain posets route through the same numbers


def test_segre_poset_class_group():
    for m in (1, 2, 3):
        p = segre_poset(m)
        cgd = class_group(sigma_matrix(p), spanning_tree(p))
        line = Rank1Weights.from_class_group(cgd)
        assert sorted(line.weights) == sorted([1] * (m + 1) + [-1] * (m + 1))
        assert mcm_bound(line).summands == m + 1

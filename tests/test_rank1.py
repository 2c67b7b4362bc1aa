from __future__ import annotations

import pytest

from hibinccr import (Rank1InputError, Rank1Weights, Window, base_window,
                      certify_gldim, class_group, conic_classes,
                      endomorphism_is_mcm, exchange_graph, exchange_graph_dot,
                      is_conic, is_mcm, mcm_bound, mutate_window, parse_cone,
                      segre_poset, sigma_matrix, spanning_tree)
from hibinccr.mcm import McmTest, chamber_decomposition, non_mcm_cone
from hibinccr.nccr import character_window
from hibinccr.rank1 import mcm_interval

from conftest import load_corpus

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
    """With a weight +-1, McmTest's interval and the chamber criterion's own
    rank-one cones answer alike on every class within 3 beta.  Without one
    they differ just outside the interval; the ``rank1`` docstring records
    where."""
    if isinstance(weights, str):
        weights = tuple(w for w, in class_group(parse_cone(load_corpus(weights))).weights)
    assert 1 in map(abs, weights)
    ws = [(w,) for w in weights]
    decomposition = chamber_decomposition(ws)
    assert decomposition.hypothesis_ok
    cones = [non_mcm_cone(chamber, ws) for chamber in decomposition.chambers]
    test = McmTest(ws)
    beta = -sum(w for w in weights if w < 0)
    for x in range(-3 * beta, 3 * beta + 1):
        assert test((x,)) == (not any(cone.contains((x,)) for cone in cones)), x


def test_interval_agrees_with_conic_on_doubled_window():
    beta26 = Rank1Weights(weights=(-15, -11, 9, 17))
    for line in (FOUR_RAY, CONIFOLD, segre_weights(2), beta26):
        bound = mcm_bound(line)
        vectors = line.as_vectors()
        for a in range(-2 * bound.summands, 2 * bound.summands + 1):
            inside = bound.interval[0] <= a <= bound.interval[1]
            assert is_conic((a,), vectors) == inside
            assert is_mcm((a,), vectors) == inside
    assert mcm_bound(beta26).summands == 26


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

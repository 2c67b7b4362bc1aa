from __future__ import annotations

import itertools
import re

import networkx as nx
import pytest

from hibinccr import (Rejection, TypeParams, build_poset, class_group, classify,
                      expected_weight_table, flip, generate_family, is_pure,
                      nccr_characters, parse_poset, polynomial_extension_edge, segre_poset,
                      sigma_matrix, spanning_tree, verify_nccr)
from hibinccr.families import AS_GIVEN, FLIPPED, validate_params
from hibinccr.intlattice import find_unimodular_match

from conftest import load_corpus


def test_running_example_classifies_as_type1(running_example):
    result = classify(running_example)
    assert result == TypeParams("I", (0, 1), AS_GIVEN)


def test_degree4_is_type4():
    p = parse_poset(load_corpus("type4_m1_n1.poset"))
    assert classify(p) == TypeParams("IV", (1, 1), AS_GIVEN)


def test_antichain_is_type5():
    p = parse_poset("elements: a b c\n")
    assert classify(p) == TypeParams("V", (0,), AS_GIVEN)


def test_rejections():
    # three parallel chains of unequal lengths: rank 2 but not pure
    not_pure = parse_poset("elements: a b c d e f\ncover: b < c\n"
                           "cover: d < e\ncover: e < f\n")
    r = classify(not_pure)
    assert isinstance(r, Rejection) and r.code == "not-gorenstein"

    chain = parse_poset("elements: a b\ncover: a < b\n")
    r = classify(chain)
    assert isinstance(r, Rejection) and r.code == "rank"

    rank1 = segre_poset(2)
    r = classify(rank1)
    assert isinstance(r, Rejection) and r.code == "rank"

    bridge = parse_poset("elements: a b v w c d\n"
                         "cover: a < v\ncover: b < v\ncover: v < w\n"
                         "cover: w < c\ncover: w < d\n")
    r = classify(bridge)
    assert isinstance(r, Rejection) and r.code == "polynomial-extension"
    assert "{v, w}" in r.message



@pytest.mark.parametrize("text,rank", [
    ("elements: a b\ncover: a < b\n", 0),
    ("elements: a b c d e\n", 4),
])
def test_rank_rejection_reports_the_class_group_rank(text, rank):
    p = parse_poset(text)
    r = classify(p)
    assert isinstance(r, Rejection) and r.code == "rank"
    assert r.message == f"class group rank is {rank}, not 2"
    assert class_group(sigma_matrix(p), spanning_tree(p)).rank == rank


GRID = [
    ("I", (0, 1)), ("I", (1, 1)), ("I", (2, 3)), ("I", (0, 2)),
    ("II", (0, 1, 0)), ("II", (1, 1, 1)), ("II", (0, 2, 1)), ("II", (2, 1, 0)),
    ("III", (0, 2, 0)), ("III", (1, 2, 1)), ("III", (0, 3, 1)), ("III", (2, 2, 0)),
    ("IV", (1, 1)), ("IV", (2, 3)), ("IV", (3, 1)),
    ("V", (0,)), ("V", (1,)), ("V", (2,)),
]


def _canonical(tag, params):
    if tag in ("II", "III"):
        flipped = (params[2], params[1], params[0])
        return min(params, flipped)
    if tag == "IV":
        return min(params, (params[1], params[0]))
    return params


@pytest.mark.parametrize("tag,params", GRID)
def test_round_trip_classification(tag, params):
    fam = generate_family(tag, params)
    result = classify(fam.poset)
    assert isinstance(result, TypeParams)
    assert result.type_tag == tag
    assert result.params == _canonical(tag, params)
    if params == _canonical(tag, params):
        assert result.params == params


@pytest.mark.parametrize("tag,params", GRID)
def test_flip_invariance(tag, params):
    fam = generate_family(tag, params)
    a = classify(fam.poset)
    b = classify(flip(fam.poset))
    assert isinstance(a, TypeParams) and isinstance(b, TypeParams)
    assert (a.type_tag, a.params) == (b.type_tag, b.params)


def test_flipped_type1_detected():
    fam = generate_family("I", (1, 2))
    flipped = classify(flip(fam.poset))
    assert flipped == TypeParams("I", (1, 2), FLIPPED)


# ---------------------------------------------------------------------------
# weight tables


def test_expected_tables_spot_checks():
    t = expected_weight_table(TypeParams("I", (0, 1), AS_GIVEN))
    assert sorted(t) == sorted([(1, 0)] * 3 + [(0, 1)] * 2 + [(-1, 0)] + [(-1, -1)] * 2)
    t = expected_weight_table(TypeParams("V", (0,), AS_GIVEN))
    assert sorted(t) == sorted([(1, 0)] * 2 + [(0, 1)] * 2 + [(-1, -1)] * 2)
    t = expected_weight_table(TypeParams("III", (0, 2, 0), AS_GIVEN))
    assert sorted(t) == sorted([(1, 0)] * 4 + [(0, 1)] * 2 + [(-1, 0)] * 2
                               + [(-1, -1)] * 2)
    t = expected_weight_table(TypeParams("II", (1, 1, 1), AS_GIVEN))
    assert sorted(t) == sorted([(1, 0)] * 3 + [(0, 1)] * 3 + [(-1, 0)] * 2
                               + [(0, -1)] * 2 + [(-1, -1)])


@pytest.mark.parametrize("tag,params", GRID)
def test_figure_tree_reproduces_table_literally(tag, params):
    """With the designated spanning tree the computed divisor classes equal
    the documented table on the nose."""
    fam = generate_family(tag, params)
    cgd = class_group(sigma_matrix(fam.poset), fam.figure_tree)
    expected = expected_weight_table(TypeParams(tag, params, AS_GIVEN))
    assert sorted(cgd.weights) == sorted(expected)


@pytest.mark.parametrize("tag,params", GRID)
def test_default_tree_matches_up_to_basis_change(tag, params):
    fam = generate_family(tag, params)
    cgd = class_group(sigma_matrix(fam.poset), spanning_tree(fam.poset))
    expected = expected_weight_table(TypeParams(tag, params, AS_GIVEN))
    assert find_unimodular_match(list(cgd.weights), expected) is not None


def test_tables_sum_to_zero():
    for tag, params in GRID:
        table = expected_weight_table(TypeParams(tag, params, AS_GIVEN))
        assert all(sum(w[k] for w in table) == 0 for k in range(2))


# ---------------------------------------------------------------------------
# parameter validation


def test_validate_params():
    assert validate_params("I", (0, 1)) == (0, 1)
    with pytest.raises(ValueError):
        validate_params("I", (0, 0))  # needs a genuine branch
    with pytest.raises(ValueError):
        validate_params("III", (0, 1, 0))  # diamond needs two edges per arm
    with pytest.raises(ValueError):
        validate_params("IV", (0, 1))
    with pytest.raises(ValueError):
        validate_params("V", (0, 1))
    with pytest.raises(ValueError):
        validate_params("VI", (1,))


@pytest.mark.parametrize("entry", [1.7, 2.0, "1", True, None])
def test_parameters_that_are_not_ints_are_refused(entry):
    """Nothing is converted: a float, a string, a bool or None is refused
    by name, by every function that takes family parameters."""
    message = "^" + re.escape(f"type I parameter {entry!r} is not an int") + "$"
    for call in (validate_params, generate_family, nccr_characters):
        with pytest.raises(ValueError, match=message):
            call("I", [1, entry])
    with pytest.raises(ValueError, match=message):
        expected_weight_table(TypeParams("I", (entry, 1), AS_GIVEN))


CORPUS_FAMILIES = {
    "type1_m0_n1.poset": ("I", (0, 1)),
    "type1_m1_n1.poset": ("I", (1, 1)),
    "type1_m2_n3.poset": ("I", (2, 3)),
    "type2_l1_m1_n1.poset": ("II", (1, 1, 1)),
    "type3_l0_m2_n0.poset": ("III", (0, 2, 0)),
    "type3_l1_m2_n1.poset": ("III", (1, 2, 1)),
    "type4_m1_n1.poset": ("IV", (1, 1)),
    "type4_m2_n3.poset": ("IV", (2, 3)),
    "type5_n0.poset": ("V", (0,)),
    "type5_n1.poset": ("V", (1,)),
    "type5_n2.poset": ("V", (2,)),
}


@pytest.mark.parametrize("name,case", sorted(CORPUS_FAMILIES.items()))
def test_corpus_files_match_generator(name, case):
    from hibinccr import serialize_poset
    tag, params = case
    assert load_corpus(name) == serialize_poset(generate_family(tag, params).poset)


def test_corpus_segre_files_match_generator():
    from hibinccr import serialize_poset
    for m in (1, 2, 3):
        assert load_corpus(f"segre_m{m}.poset") == serialize_poset(segre_poset(m))


# ---------------------------------------------------------------------------
# census: every naturally labelled poset on at most six interior elements

CENSUS_SIZE = 6


def _natural_posets(size: int):
    """Cover lists of every naturally labelled poset on v0..v{n-1}, n <=
    size, each once: element j's lower covers are an antichain among
    v0..v{j-1}, and every such antichain gives a different poset."""
    def extend(below: list[int], covers: list[tuple[int, int]]):
        yield len(below), covers
        if len(below) == size:
            return
        j = len(below)
        for subset in range(1 << j):
            lower = [a for a in range(j) if subset >> a & 1]
            if any(below[a] & subset for a in lower):
                continue  # not an antichain
            down = 0
            for a in lower:
                down |= below[a] | 1 << a
            yield from extend(below + [down], covers + [(a, j) for a in lower])

    for n, covers in extend([], []):
        yield build_poset([f"v{i}" for i in range(n)],
                          [(f"v{a}", f"v{b}") for a, b in covers])


def _family_members(size: int):
    """Every (tag, params) whose family poset has at most size interior
    elements."""
    for tag, n_params in (("I", 2), ("II", 3), ("III", 3), ("IV", 2), ("V", 1)):
        for params in itertools.product(range(size + 1), repeat=n_params):
            if sum(params) > size:
                continue  # each parameter counts elements of the poset
            try:
                fam = generate_family(tag, params)
            except ValueError:
                continue  # below the family's least parameters
            if len(fam.poset.interior) <= size:
                yield tag, params, fam.poset


def _digraph(p):
    return nx.DiGraph(p.edges)


def test_classification_census():
    """The classification over all small posets: it never raises, every
    accepted poset is its reported family member in the reported
    orientation, every small family member is accepted, non-purity is the
    only rejection left once rank and polynomial extensions are ruled out,
    and the NCCR verdict follows the classification."""
    accepted = {}  # tag -> digraphs of the accepted posets
    count = 0
    for p in _natural_posets(CENSUS_SIZE):
        count += 1
        result = classify(p)
        rank = p.n_edges - len(p.elements) + 1
        if isinstance(result, TypeParams):
            fam = generate_family(result.type_tag, result.params).poset
            as_given = p if result.orientation == AS_GIVEN else flip(p)
            assert nx.is_isomorphic(_digraph(as_given), _digraph(fam)), (p, result)
            accepted.setdefault(result.type_tag, []).append(_digraph(p))
            assert verify_nccr(p).verdict == "verified", p
            continue
        assert isinstance(result, Rejection)
        if rank != 2:
            assert result.code == "rank"
            continue
        if polynomial_extension_edge(p) is None:
            assert (result.code == "not-gorenstein") == (not is_pure(p).pure), p
        assert verify_nccr(p).verdict == "rejected", p
    assert count == 1 + 1 + 2 + 7 + 40 + 357 + 4824  # OEIS A006455
    for tag, params, fam in _family_members(CENSUS_SIZE):
        assert any(nx.is_isomorphic(g, _digraph(fam)) for g in accepted.get(tag, ())), \
            (tag, params)

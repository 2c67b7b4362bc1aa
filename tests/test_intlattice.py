from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from hibinccr import corpus_path, parse_cone, parse_poset
from hibinccr.classgroup import class_group, sigma_matrix
from hibinccr.families import classify, expected_weight_table, generate_family
from hibinccr.intlattice import (angle_key, convex_hull, cross,
                                 find_unimodular_match, invariant_factors,
                                 lattice_contains, primitive,
                                 smith_normal_form, solve_rational)
from hibinccr.posets import spanning_tree

import kernel_agreement
from oracles import (fraction_angle_key, fraction_solve_rational, lattice_rank,
                     permutation_unimodular_match, rational_rank,
                     reference_smith_normal_form, solve_integer)
from test_posets import FAMILY_SIZES


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _det(m):
    return sympy.Matrix(m).det()


def test_snf_transforms_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        d = rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(n)]
        dd, u, v = smith_normal_form(a)
        assert _matmul(_matmul(u, a), v) == dd
        assert abs(_det(u)) == 1
        assert abs(_det(v)) == 1
        for i in range(n):
            for j in range(d):
                if i != j:
                    assert dd[i][j] == 0
        diag = [dd[i][i] for i in range(min(n, d))]
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
        expected = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
        exp_diag = [abs(expected[i, i]) for i in range(min(n, d))]
        assert [abs(x) for x in diag] == exp_diag


def test_snf_matches_the_reference_on_a_seeded_sample():
    """The same (D, U, V) as the closure-based eliminator it replaced, on
    the empty matrix, rows without entries, and every shape of
    ``kernel_agreement.SHAPES``: 1x1, tall, wide, rank-deficient, torsion
    and zero rows."""
    sample = kernel_agreement.matrices(seed=1, count=50 * len(kernel_agreement.SHAPES))
    assert sample[:3] == [[], [[]], [[], [], []]]
    assert smith_normal_form([]) == ([], [], [])
    assert smith_normal_form([[], []]) == ([[], []], [[1, 0], [0, 1]], [])
    assert not kernel_agreement.smith_disagreements(sample)
    assert any(len(a) > len(a[0]) for a in sample[3:])
    assert any(len(a) < len(a[0]) for a in sample[3:])
    assert any(x > 1 for a in sample[3:] for x in invariant_factors(a))


def _corpus_rows():
    for path in sorted(corpus_path("").iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.name.endswith(".cone"):
            yield path.name, parse_cone(text).rows
        elif path.name.endswith(".poset"):
            yield path.name, sigma_matrix(parse_poset(text)).rows


@pytest.mark.parametrize("name, rows", list(_corpus_rows()))
def test_snf_matches_the_reference_on_the_corpus(name, rows):
    assert smith_normal_form(rows) == reference_smith_normal_form(rows)


@pytest.mark.parametrize("tag, params", FAMILY_SIZES)
def test_snf_matches_the_reference_on_family_sigma_matrices(tag, params):
    rows = sigma_matrix(generate_family(tag, params).poset).rows
    assert smith_normal_form(rows) == reference_smith_normal_form(rows)


def test_invariant_factors_example():
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[2, 0], [0, 4]]) == [2, 4]


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 0], [0, 1]]) == 2


def test_solve_rational():
    assert solve_rational([[2, 0], [0, 3], [1, 1]], [1, 1, Fraction(5, 6)]) == \
        [Fraction(1, 2), Fraction(1, 3)]
    assert solve_rational([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None  # inconsistent
    with pytest.raises(ValueError, match="full column rank"):
        solve_rational([[1, 2], [2, 4], [3, 6]], [1, 2, 3])


@st.composite
def matrices(draw):
    """An integer matrix, often rank deficient: a product of a rows x k and
    a k x cols factor with k at most the smaller size, or a plain draw."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 4))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        return [[draw(entry) for _ in range(d)] for _ in range(n)]
    k = draw(st.integers(0, min(n, d)))
    left = [[draw(entry) for _ in range(k)] for _ in range(n)]
    right = [[draw(entry) for _ in range(d)] for _ in range(k)]
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(d)]
            for i in range(n)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_snf_rank_agrees_with_gauss_jordan(a):
    assert len(invariant_factors(a)) == rational_rank(a)


def _solve_or_error(solve, a, b):
    try:
        return solve(a, b)
    except ValueError as exc:
        return str(exc)


@st.composite
def linear_systems(draw):
    """A system A y = b: b is A times a rational vector (consistent), or
    drawn at random with integer or Fraction entries (mostly inconsistent
    when A has more rows than columns); A may lack full column rank."""
    a = draw(matrices())
    n, d = len(a), len(a[0])
    frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    if draw(st.booleans()):
        y = [draw(frac) for _ in range(d)]
        b = [sum(row[j] * y[j] for j in range(d)) for row in a]
    else:
        b = [draw(st.one_of(st.integers(-6, 6), frac)) for _ in range(n)]
    return a, b


@settings(max_examples=400, deadline=None, derandomize=True)
@given(linear_systems())
def test_solve_rational_agrees_with_gauss_jordan(system):
    a, b = system
    got = _solve_or_error(solve_rational, a, b)
    assert got == _solve_or_error(fraction_solve_rational, a, b)
    if isinstance(got, list):
        assert all(isinstance(v, Fraction) for v in got)


def test_solve_integer():
    assert solve_integer([[2, 0], [0, 3], [1, 1]], [4, 6, 4]) == [2, 2]
    assert solve_integer([[2]], [3]) is None  # non-integral
    assert solve_integer([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None  # inconsistent


def test_lattice_contains():
    assert lattice_contains([(2, 0), (0, 2)], (4, -6))
    assert not lattice_contains([(2, 0), (0, 2)], (1, 0))
    assert lattice_contains([(1, 1), (1, -1)], (2, 0))
    assert not lattice_contains([(1, 1), (1, -1)], (1, 0))
    assert lattice_contains([], (0, 0))
    assert not lattice_contains([], (1, 0))


def test_lattice_rank():
    assert lattice_rank([(1, 2), (2, 4)]) == 1
    assert lattice_rank([(1, 0), (0, 1)]) == 2
    assert lattice_rank([]) == 0


def test_unimodular_match_swap():
    src = [(1, 1), (-1, 0), (0, -1)]
    tgt = [(1, 1), (0, -1), (-1, 0)]
    u = find_unimodular_match(src, tgt)
    assert u is not None
    assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1


def test_unimodular_match_negation():
    src = [(1, 0), (0, 1), (-1, -1)]
    tgt = [(-1, 0), (0, -1), (1, 1)]
    assert find_unimodular_match(src, tgt) is not None


def test_unimodular_no_match():
    assert find_unimodular_match([(1, 0), (0, 1)], [(1, 0), (0, 2)]) is None


def test_unimodular_match_rank1():
    assert find_unimodular_match([(1,), (-2,)], [(-1,), (2,)]) == [[-1]]
    assert find_unimodular_match([(1,), (2,)], [(1,), (3,)]) is None


_GL2_GENERATORS = [[[1, 1], [0, 1]], [[1, -1], [0, 1]], [[1, 0], [1, 1]],
                   [[1, 0], [-1, 1]], [[0, 1], [1, 0]], [[-1, 0], [0, 1]]]


@st.composite
def match_instances(draw):
    """A weight multiset with repeated values and a target: its image under
    a random unimodular map (a word in GL_r(Z) generators), that image with
    one vector moved, or an unrelated multiset."""
    rank = draw(st.sampled_from([1, 2]))
    vec = st.tuples(*[st.integers(-3, 3)] * rank)
    values = draw(st.lists(vec, min_size=1, max_size=4, unique=True))
    src = [v for v in values for _ in range(draw(st.integers(1, 4)))]
    src = draw(st.permutations(src))
    kind = draw(st.sampled_from(["image", "moved", "unrelated"]))
    if kind == "unrelated":
        return src, draw(st.lists(vec, min_size=len(src), max_size=len(src)))
    if rank == 1:
        u = [[draw(st.sampled_from([1, -1]))]]
    else:
        u = [[1, 0], [0, 1]]
        for g in draw(st.lists(st.sampled_from(_GL2_GENERATORS), max_size=6)):
            u = _matmul(g, u)
    tgt = [tuple(sum(u[i][j] * v[j] for j in range(rank)) for i in range(rank))
           for v in src]
    if kind == "moved":
        k = draw(st.integers(0, len(tgt) - 1))
        tgt[k] = tuple(c + 1 for c in tgt[k])
    return src, draw(st.permutations(tgt))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(match_instances())
def test_unimodular_match_agrees_with_permutation_search(instance):
    src, tgt = instance
    assert find_unimodular_match(src, tgt) == permutation_unimodular_match(src, tgt)


# the family members that the nccr-verify benchmark verifies
FAMILY_MEMBERS = [("I", (0, 1)), ("I", (2, 3)), ("I", (5, 6)), ("II", (1, 1, 1)),
                  ("II", (3, 3, 3)), ("III", (0, 2, 0)), ("III", (2, 3, 2)),
                  ("IV", (1, 1)), ("IV", (4, 5)), ("V", (0,)), ("V", (2,)), ("V", (5,))]


@pytest.mark.parametrize("tag,params", FAMILY_MEMBERS,
                         ids=[f"{t}{p}" for t, p in FAMILY_MEMBERS])
def test_unimodular_match_on_family_tables(tag, params):
    """A member's computed divisor classes match its weight table, by the
    same first U as the permutation search."""
    p = generate_family(tag, params).poset
    table = expected_weight_table(classify(p))
    computed = class_group(sigma_matrix(p), spanning_tree(p)).weights
    u = find_unimodular_match(computed, table)
    assert u is not None
    assert u == permutation_unimodular_match(computed, table)


def test_angle_key_orders_counterclockwise():
    vecs = [(1, 0), (2, 1), (0, 1), (-1, 1), (-1, 0), (-2, -1), (0, -1), (1, -1)]
    assert sorted(vecs, key=angle_key) == vecs


@st.composite
def planar_vectors(draw):
    """Nonzero vectors, many of them positive or negative multiples of a
    few directions, so parallel and opposite pairs are common."""
    vec = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0))
    bases = draw(st.lists(vec, min_size=1, max_size=4))
    out = draw(st.lists(vec, max_size=6))
    for base in bases:
        for m in draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=4)):
            out.append((m * base[0], m * base[1]))
    return draw(st.permutations(out))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(planar_vectors())
def test_angle_key_agrees_with_fraction_slopes(vecs):
    assert sorted(vecs, key=angle_key) == sorted(vecs, key=fraction_angle_key)


def test_convex_hull_square():
    pts = [(x, y) for x in range(3) for y in range(3)]
    hull = convex_hull(pts)
    assert set(hull) == {(0, 0), (2, 0), (2, 2), (0, 2)}
    # counterclockwise orientation
    area2 = sum(cross(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull)))
    assert area2 > 0


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, 5)) == (0, 1)
    assert primitive((0, 0)) == (0, 0)

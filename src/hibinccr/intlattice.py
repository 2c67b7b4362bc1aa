"""Exact integer linear algebra on one eliminator, the Smith normal form.

The Smith form answers every linear question the library asks: rank is the
number of invariant factors, lattice membership compares the transformed
vector with the diagonal (``lattice_contains``), and ``solve_rational``
solves the diagonal system, the library's only rational arithmetic.
Unimodular matching and the planar helpers, the angle order included, use
integers alone.

Everything works on plain Python ints (lists of lists); inputs here are tiny
(tens of rows), so no routine trades its plain pivot rules for asymptotics.
The Smith form is still the hot kernel of every cone class group, so it is
one loop without helper closures: its pivot search stops at the first entry
of absolute value 1, a column operation touches the one row of A that is not
yet clear, and V is kept transposed, so its column operations are row
operations.  ``tests/oracles.py`` keeps the closure-based eliminator it
replaced, and the two must return the same (D, U, V).
"""

from __future__ import annotations

from collections import Counter
from functools import cmp_to_key
from itertools import permutations
from math import gcd
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

Vec = tuple[int, ...]
Matrix = list[list[int]]


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with U*A*V = D diagonal, U and V unimodular.

    Diagonal entries are non-negative and each divides the next.

    Step t takes as pivot the first entry of least absolute value in the
    block from (t, t), in row-major order, and swaps it to (t, t).  It then
    clears column t by row subtractions and row t by column subtractions,
    each time swapping in the first entry of least absolute value that a
    remainder leaves, until both are clear.  When a diagonal entry does not
    divide the next one, column i + 1 is added to column i and the steps
    start again from (0, 0).

    Rows and columns before step t are clear apart from their diagonal
    entry, so a column subtraction there changes only row t of A.  V is
    kept transposed, so that its column operations are operations on rows.
    """
    A = [list(row) for row in a]
    n = len(A)
    d = len(A[0]) if n else 0
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Vt = [[int(i == j) for j in range(d)] for i in range(d)]
    size = min(n, d)
    while True:
        t = 0
        while t < size:
            # the first entry of least absolute value; none is below 1
            best = pi = pj = 0
            for i in range(t, n):
                row = A[i]
                for j in range(t, d):
                    x = row[j]
                    if x:
                        if x < 0:
                            x = -x
                        if not best or x < best:
                            best, pi, pj = x, i, j
                            if x == 1:
                                break
                if best == 1:
                    break
            if not best:
                break
            A[t], A[pi] = A[pi], A[t]
            U[t], U[pi] = U[pi], U[t]
            if pj != t:
                for row in A:
                    row[t], row[pj] = row[pj], row[t]
                Vt[t], Vt[pj] = Vt[pj], Vt[t]
            while True:
                top, utop = A[t], U[t]
                p = top[t]
                best = 0
                for i in range(t + 1, n):
                    row = A[i]
                    q = row[t] // p
                    if q:
                        A[i] = row = [x - q * y for x, y in zip(row, top)]
                        U[i] = [x - q * y for x, y in zip(U[i], utop)]
                    x = row[t]
                    if x:
                        # a remainder smaller than the pivot; re-pivot on it
                        if x < 0:
                            x = -x
                        if not best or x < best:
                            best, pi = x, i
                if best:
                    A[t], A[pi] = A[pi], A[t]
                    U[t], U[pi] = U[pi], U[t]
                    continue
                vtop = Vt[t]
                for j in range(t + 1, d):
                    q = top[j] // p
                    if q:
                        top[j] -= q * p
                        Vt[j] = [x - q * y for x, y in zip(Vt[j], vtop)]
                    x = top[j]
                    if x:
                        if x < 0:
                            x = -x
                        if not best or x < best:
                            best, pj = x, j
                if best:
                    for row in A:
                        row[t], row[pj] = row[pj], row[t]
                    Vt[t], Vt[pj] = Vt[pj], Vt[t]
                    continue
                break
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]
                U[t] = [-x for x in U[t]]
            t += 1
        # t is the rank; every later row and column is zero
        bad = next((i for i in range(t - 1) if A[i + 1][i + 1] % A[i][i] != 0), None)
        if bad is None:
            break
        # column bad += column bad + 1, which breaks diagonality at one entry
        A[bad + 1][bad] += A[bad + 1][bad + 1]
        Vt[bad] = [x + y for x, y in zip(Vt[bad], Vt[bad + 1])]
    return A, U, [list(col) for col in zip(*Vt)]


def invariant_factors(a: Sequence[Sequence[int]]) -> list[int]:
    D, _, _ = smith_normal_form(a)
    k = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(k) if D[i][i] != 0]


def solve_rational(a: Sequence[Sequence[int]],
                   b: Sequence[int | Fraction]) -> Optional[list[Fraction]]:
    """Unique rational solution of A y = b, or None when inconsistent.

    Raises ValueError when A does not have full column rank.  Solved on the
    Smith form: with U A V = D, D z = U b is diagonal and y = V z.
    """
    from fractions import Fraction  # the only rational arithmetic; loaded when used

    d = len(a[0])
    D, U, V = smith_normal_form(a)
    if len(D) < d or any(D[i][i] == 0 for i in range(d)):
        raise ValueError("matrix does not have full column rank")
    ub = [sum(u * bv for u, bv in zip(row, b)) for row in U]
    if any(ub[d:]):
        return None
    z = [Fraction(ub[i]) / D[i][i] for i in range(d)]
    return [sum(V[r][i] * z[i] for i in range(d)) for r in range(d)]


def lattice_contains(basis: Sequence[Vec], x: Vec) -> bool:
    """Is x an integer combination of the given vectors?"""
    if all(v == 0 for v in x):
        return True
    if not basis:
        return False
    r = len(x)
    A = [[g[i] for g in basis] for i in range(r)]  # r x k
    D, U, _ = smith_normal_form(A)
    ux = [sum(U[i][j] * x[j] for j in range(r)) for i in range(r)]
    k = min(len(D), len(D[0]))
    for i in range(r):
        di = D[i][i] if i < k else 0
        if di == 0:
            if ux[i] != 0:
                return False
        elif ux[i] % di != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# unimodular multiset matching (rank <= 2)


def _apply(u: Sequence[Sequence[int]], v: Vec) -> Vec:
    return tuple(sum(u[i][j] * v[j] for j in range(len(v))) for i in range(len(u)))


def find_unimodular_match(source: Sequence[Vec], target: Sequence[Vec]) -> Optional[Matrix]:
    """A U in GL_r(Z) with U*multiset(source) == multiset(target), or None.

    Only ranks 1 and 2 are needed; the search space is the finite set of maps
    determined by images of an independent pair of source vectors.  A
    candidate is rejected at its first image that the target multiset lacks.
    """
    src = sorted(source)
    if len(src) != len(target):
        return None
    r = len(src[0]) if src else 0
    if r == 0:
        return []
    want = Counter(target)
    if r == 1:
        for sign in (1, -1):
            if _maps_onto([[sign]], src, want):
                return [[sign]]
        return None
    if r != 2:
        raise ValueError("unimodular matching implemented for rank <= 2 only")
    pair = None
    for i in range(len(src)):
        for j in range(i + 1, len(src)):
            if src[i][0] * src[j][1] - src[i][1] * src[j][0] != 0:
                pair = (src[i], src[j])
                break
        if pair:
            break
    if pair is None:
        return None
    a, b = pair
    det_ab = a[0] * b[1] - a[1] * b[0]
    # a unimodular U maps the independent a and b to two distinct target
    # values; pairs of distinct values, taken in sorted order, come in the
    # order in which ordered pairs of target entries first meet them
    values = sorted(want)
    for ta, tb in permutations(values, 2):
        # U a = ta, U b = tb  =>  U = [ta tb] * [a b]^{-1}
        num = [[ta[0] * b[1] - tb[0] * a[1], -ta[0] * b[0] + tb[0] * a[0]],
               [ta[1] * b[1] - tb[1] * a[1], -ta[1] * b[0] + tb[1] * a[0]]]
        if any(num[i][j] % det_ab != 0 for i in range(2) for j in range(2)):
            continue
        U = [[num[i][j] // det_ab for j in range(2)] for i in range(2)]
        if abs(U[0][0] * U[1][1] - U[0][1] * U[1][0]) != 1:
            continue
        if _maps_onto(U, src, want):
            return U
    return None


def _maps_onto(u: Matrix, src: Sequence[Vec], want: Counter) -> bool:
    """Does u map the source multiset onto the target multiset ``want`` of
    the same size?  Stops at the first image that the target lacks."""
    left = want.copy()
    for v in src:
        image = _apply(u, v)
        if not left[image]:
            return False
        left[image] -= 1
    return True


# ---------------------------------------------------------------------------
# planar integer geometry helpers


def cross(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b))


def primitive(v: Vec) -> Vec:
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return v if g in (0, 1) else tuple(c // g for c in v)


def _upper_half(v: Vec) -> bool:
    """Is v at an angle in [0, pi)?"""
    assert v != (0, 0)
    return v[1] > 0 or (v[1] == 0 and v[0] > 0)


def _angle_cmp(a: Vec, b: Vec) -> int:
    ua, ub = _upper_half(a), _upper_half(b)
    if ua != ub:
        return -1 if ua else 1
    return -cross(a, b)  # within a half-plane, b is counterclockwise of a iff cross > 0


# Sort key ordering 2D vectors counterclockwise starting at angle 0.
angle_key = cmp_to_key(_angle_cmp)


def convex_hull(points: Sequence[Vec]) -> list[Vec]:
    """Monotone-chain hull, counterclockwise, no repeated endpoint."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Vec] = []
    for pt in pts:
        while len(lower) >= 2 and cross(
                (lower[-1][0] - lower[-2][0], lower[-1][1] - lower[-2][1]),
                (pt[0] - lower[-1][0], pt[1] - lower[-1][1])) <= 0:
            lower.pop()
        lower.append(pt)
    upper: list[Vec] = []
    for pt in reversed(pts):
        while len(upper) >= 2 and cross(
                (upper[-1][0] - upper[-2][0], upper[-1][1] - upper[-2][1]),
                (pt[0] - upper[-1][0], pt[1] - upper[-1][1])) <= 0:
            upper.pop()
        upper.append(pt)
    return lower[:-1] + upper[:-1]

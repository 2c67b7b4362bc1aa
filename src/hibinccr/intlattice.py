"""Exact integer linear algebra: Smith normal form, integer solving, lattice
membership and small unimodular searches.

Everything works on plain Python ints (lists of lists); inputs here are tiny
(tens of rows), so clarity beats asymptotics throughout.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence

Vec = tuple[int, ...]
Matrix = list[list[int]]


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with U*A*V = D diagonal, U and V unimodular.

    Diagonal entries are non-negative and each divides the next.
    """
    A = [list(row) for row in a]
    n = len(A)
    d = len(A[0]) if n else 0
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(d)] for i in range(d)]

    def row_sub(i: int, j: int, f: int) -> None:
        A[i] = [x - f * y for x, y in zip(A[i], A[j])]
        U[i] = [x - f * y for x, y in zip(U[i], U[j])]

    def col_sub(i: int, j: int, f: int) -> None:
        for r in range(n):
            A[r][i] -= f * A[r][j]
        for r in range(d):
            V[r][i] -= f * V[r][j]

    def row_swap(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i: int, j: int) -> None:
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(d):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def diagonalize() -> int:
        t = 0
        while t < min(n, d):
            pivot = None
            for i in range(t, n):
                for j in range(t, d):
                    if A[i][j] != 0 and (pivot is None
                                         or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            row_swap(t, pivot[0])
            col_swap(t, pivot[1])
            while True:
                for i in range(t + 1, n):
                    q = A[i][t] // A[t][t]
                    if q:
                        row_sub(i, t, q)
                if any(A[i][t] for i in range(t + 1, n)):
                    # a remainder smaller than the pivot appeared; re-pivot
                    i = min((i for i in range(t + 1, n) if A[i][t]),
                            key=lambda i: abs(A[i][t]))
                    row_swap(t, i)
                    continue
                for j in range(t + 1, d):
                    q = A[t][j] // A[t][t]
                    if q:
                        col_sub(j, t, q)
                if any(A[t][j] for j in range(t + 1, d)):
                    j = min((j for j in range(t + 1, d) if A[t][j]),
                            key=lambda j: abs(A[t][j]))
                    col_swap(t, j)
                    continue
                break
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]
                U[t] = [-x for x in U[t]]
            t += 1
        return t

    rank = diagonalize()
    while True:
        bad = next((i for i in range(rank - 1)
                    if A[i + 1][i + 1] % A[i][i] != 0), None)
        if bad is None:
            break
        col_sub(bad, bad + 1, -1)  # col_bad += col_{bad+1}; breaks diagonality
        rank = diagonalize()
    return A, U, V


def invariant_factors(a: Sequence[Sequence[int]]) -> list[int]:
    D, _, _ = smith_normal_form(a)
    k = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(k) if D[i][i] != 0]


def _gauss_jordan(M: list[list[Fraction]], cols: int) -> list[int]:
    """Reduce M in place to reduced row echelon form on its first ``cols``
    columns (later columns ride along); return the pivot columns."""
    n = len(M)
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, n) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(n):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return pivots


def rational_rank(a: Sequence[Sequence[int]]) -> int:
    rows = [[Fraction(x) for x in row] for row in a]
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0))


def solve_rational(a: Sequence[Sequence[int]],
                   b: Sequence[int | Fraction]) -> Optional[list[Fraction]]:
    """Unique rational solution of A y = b, or None when inconsistent.

    Raises ValueError when A does not have full column rank.
    """
    d = len(a[0])
    M = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    pivots = _gauss_jordan(M, d)
    if len(pivots) < d:
        raise ValueError("matrix does not have full column rank")
    if any(row[d] != 0 for row in M[d:]):
        return None
    y: list[Fraction] = [Fraction(0)] * d
    for i, c in enumerate(pivots):
        y[c] = M[i][d]
    return y


def solve_integer(a: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[list[int]]:
    """Integer solution of A y = b (A full column rank), or None."""
    y = solve_rational(a, b)
    if y is None or any(v.denominator != 1 for v in y):
        return None
    return [int(v) for v in y]


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
    determined by images of an independent pair of source vectors.
    """
    src = sorted(source)
    tgt = sorted(target)
    if len(src) != len(tgt):
        return None
    r = len(src[0]) if src else 0
    if r == 0:
        return []
    if r == 1:
        for sign in (1, -1):
            if sorted(tuple(sign * c for c in v) for v in src) == tgt:
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
    values = sorted(set(tgt))
    for ta, tb in permutations(values, 2):
        # U a = ta, U b = tb  =>  U = [ta tb] * [a b]^{-1}
        num = [[ta[0] * b[1] - tb[0] * a[1], -ta[0] * b[0] + tb[0] * a[0]],
               [ta[1] * b[1] - tb[1] * a[1], -ta[1] * b[0] + tb[1] * a[0]]]
        if any(num[i][j] % det_ab != 0 for i in range(2) for j in range(2)):
            continue
        U = [[num[i][j] // det_ab for j in range(2)] for i in range(2)]
        if abs(U[0][0] * U[1][1] - U[0][1] * U[1][0]) != 1:
            continue
        if sorted(_apply(U, v) for v in src) == tgt:
            return U
    return None


# ---------------------------------------------------------------------------
# planar integer geometry helpers


def cross(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b))


def primitive(v: Vec) -> Vec:
    from math import gcd
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return v if g in (0, 1) else tuple(c // g for c in v)


def angle_key(v: Vec) -> tuple[int, Fraction | int]:
    """Sort key ordering 2D vectors counterclockwise starting at angle 0."""
    x, y = v
    assert (x, y) != (0, 0)
    if y == 0:
        return (0, 0) if x > 0 else (2, 0)
    if y > 0:
        return (1, Fraction(-x, y))  # angle in (0, pi): -cot is increasing
    return (3, Fraction(-x, y))


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

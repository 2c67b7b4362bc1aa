"""Conic divisorial ideal classes.

A class is conic iff it is a combination of the divisor weights with every
coefficient in the half-open interval (-1, 0] (Bruns-Gubeladze).  Two
independent routes build the conic classes as one kind of integer system,
a :class:`ConicPolytope` of bound pairs lo <= <c, chi> <= hi:

* the circuit polytope of a bounded poset, one bound pair per chordless
  circuit in the cotree coordinates of the class group (``conic_polytope``);
* the facet rule on the weights alone, one bound pair per facet normal of
  the zonotope sum_i [-1, 0] w_i, its open or closed side read as an
  integer bound (``conic_facets``, ``is_conic``, ``conic_classes``).

Either system is tested pointwise by :meth:`ConicPolytope.contains` and
listed by the one integer Fourier-Motzkin enumerator, ``enumerate_conic``.
It projects the system once, one level per variable, kept small by
Chernikov's rule; a level past ``PROJECTION_ROW_BUDGET`` rows raises
``ConicTooLargeError``.  The agreement of the two routes on every input is
one of the strongest end-to-end checks in the test suite.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import combinations, product
from math import gcd
from operator import mul
from typing import NamedTuple, Optional, Sequence, TypeAlias

from . import intlattice
from .classgroup import ClassGroupData, WeightsLike, weight_list
from .intlattice import Vec
from .posets import Circuit


class UnboundedPolytopeError(ValueError):
    pass


class ConicBoxError(ValueError):
    """The bounding box of the conic classes has more points than a Python
    sequence can hold."""


class ConicTooLargeError(ValueError):
    """A level of the conic projection holds more rows than
    ``PROJECTION_ROW_BUDGET``."""


# The most rows one level of the Fourier-Motzkin projection may hold before
# the next variable is eliminated.  Eliminating costs about the product of a
# level's upper and lower rows, so the budget bounds the work of each level.
# The complete bipartite posets 3 x 4 (class group rank 11) and 2 x 7 (rank
# 13) peak at 1327 and 5835 rows; 3 x 5 (rank 14) reaches 10997 rows after
# about half a second and would need 45319 at its widest.
PROJECTION_ROW_BUDGET = 8000


# (coeffs, b, history): <coeffs, z> <= b, combined from the input rows whose
# bits the history sets
Row: TypeAlias = tuple[Vec, int, int]


class ConicPolytope(NamedTuple):
    """Integer inequality system lo <= <coeffs, z> <= hi in class coordinates."""

    ineqs: tuple[tuple[Vec, int, int], ...]
    rank: int

    def contains(self, chi: Vec) -> bool:
        if len(chi) != self.rank:
            raise ValueError(f"expected a vector of rank {self.rank}, got {tuple(chi)}")
        for coeffs, lo, hi in self.ineqs:
            if not lo <= sum(map(mul, coeffs, chi)) <= hi:
                return False
        return True


def conic_polytope(circuits: Sequence[Circuit],
                   weights: ClassGroupData) -> ConicPolytope:
    """One inequality per chordless circuit; duplicates keep tightest bounds.

    A circuit with u upward and v downward edges bounds the signed sum of its
    coordinates on the cotree edges of ``weights.cotree`` between -v+1 and
    u-1.
    """
    rank = weights.rank
    if weights.cotree is None:
        raise ValueError("conic polytope needs Hibi class data with a cotree")
    pos = {e: k for k, e in enumerate(weights.cotree)}
    merged: dict[Vec, tuple[int, int]] = {}
    for c in circuits:
        coeffs = [0] * rank
        for e in c.x_plus:
            if e in pos:
                coeffs[pos[e]] += 1
        for e in c.x_minus:
            if e in pos:
                coeffs[pos[e]] -= 1
        lo = -len(c.x_minus) + 1
        hi = len(c.x_plus) - 1
        key = tuple(coeffs)
        first = next((x for x in key if x != 0), 0)
        if first < 0:
            key = tuple(-x for x in key)
            lo, hi = -hi, -lo
        if key in merged:
            old_lo, old_hi = merged[key]
            merged[key] = (max(old_lo, lo), min(old_hi, hi))
        else:
            merged[key] = (lo, hi)
    ineqs = tuple(sorted((k, lo, hi) for k, (lo, hi) in merged.items()))
    return ConicPolytope(ineqs=ineqs, rank=rank)


def enumerate_conic(cp: ConicPolytope) -> list[Vec]:
    """All lattice points of the polytope, lexicographically sorted.  Each
    sorted prefix z_0..z_{k-1} is extended by the range of z_k that level k
    of the one projection allows; the last level is the system itself."""
    if cp.rank == 0:
        return [()]
    cons: list[Row] = []  # each input row its own bit
    for coeffs, lo, hi in cp.ineqs:
        cons.append((coeffs, hi, 1 << len(cons)))
        cons.append((tuple(-c for c in coeffs), -lo, 1 << len(cons)))
    levels = [cons]  # levels[-1 - k]: the rows over z_0..z_k
    for j in range(cp.rank - 1, 0, -1):
        if len(levels[-1]) > PROJECTION_ROW_BUDGET:
            raise ConicTooLargeError(
                f"the conic projection of class group rank {cp.rank} reached "
                f"{len(levels[-1])} rows at one level, over the budget of "
                f"{PROJECTION_ROW_BUDGET}")
        levels.append(_fm_eliminate(levels[-1], j, cp.rank - j))
    points: list[Vec] = [()]
    for rows in reversed(levels):
        points = [(*z, v) for z in points for v in _var_range(rows, z)]
    return points


def _fm_eliminate(cons: list[Row], j: int, s: int) -> list[Row]:
    """Eliminate z_j, the s-th elimination.  Each combined row is divided by
    the gcd of its coefficients with its bound floored, which every integer
    point still satisfies, and only the least bound per coefficient tuple is
    kept.  A row's history is the bitset of input rows it combines; a
    combined row of more than s + 1 input rows is implied by the others and
    dropped (Chernikov's rule)."""
    least: dict[Vec, tuple[int, int]] = {}
    uppers, lowers = [], []
    for coeffs, b, hist in cons:
        if coeffs[j] == 0:
            least[coeffs] = min((b, hist), least.get(coeffs, (b, hist)))
        elif coeffs[j] > 0:
            uppers.append((coeffs, b, hist))
        else:
            lowers.append((coeffs, b, hist))
    for (cu, bu, hu), (cl, bl, hl) in product(uppers, lowers):
        hist = hu | hl
        if hist.bit_count() > s + 1:
            continue
        p, q = cu[j], -cl[j]
        coeffs = tuple(q * a + p * c for a, c in zip(cu, cl))
        b = q * bu + p * bl
        g = gcd(*coeffs)
        if g > 1:
            coeffs, b = tuple(c // g for c in coeffs), b // g
        least[coeffs] = min((b, hist), least.get(coeffs, (b, hist)))
    return [(coeffs, b, hist) for coeffs, (b, hist) in least.items()]


def _var_range(rows: list[Row], prefix: Vec) -> range:
    """The values of the next variable that the rows allow after the prefix."""
    k = len(prefix)
    lo: Optional[int] = None
    hi: Optional[int] = None
    for coeffs, b, _ in rows:
        a = coeffs[k]
        b -= sum(c * z for c, z in zip(coeffs, prefix))
        if a == 0:
            if b < 0:
                return range(0)
        elif a > 0:
            v = b // a  # floor(b / a)
            hi = v if hi is None else min(hi, v)
        else:
            v = -(-b // a)  # ceil(b / a)
            lo = v if lo is None else max(lo, v)
    if lo is None or hi is None:
        raise UnboundedPolytopeError("inequality system is unbounded")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# the facet rule


def conic_facets(weights: WeightsLike, rank: int) -> ConicPolytope:
    """The facet rule for classes of the given rank as a ``ConicPolytope``,
    built once per weight system.

    Let Z = sum_i [-1, 0] w_i.  For each primitive normal u of a hyperplane
    spanned by rank-1 linearly independent weights, take u and -u with
    h_u = sum_i max(0, -<u, w_i>), the maximum of <u, .> on Z.  Then chi is
    conic iff every (u, h_u) has <u, chi> < h_u, or <u, chi> = h_u = 0.
    As h_u >= 0 and chi is integral, that reads <u, chi> <= top(u) with
    top(u) = h_u - [h_u != 0].  The system holds first (e, 0, 0) for each
    equation e below, then (u, -top(-u), top(u)) for each sorted normal u
    whose first nonzero entry is positive.

    Proof.  If <u, chi> = h_u > 0, chi lies on the face of Z where <u, .> is
    largest, and every representation of chi has s_i = -1 for each weight
    with <u, w_i> < 0 (there is one, as h_u > 0): chi is not conic.  Now
    suppose no (u, h_u) fails, so chi is in Z; let F be the smallest face of
    Z containing chi.  Its normal cone is spanned by the normals of the
    facets through F, all of the form above and all with h_u = 0, so no
    weight pairs negatively with a normal v inside that cone.  A point of F
    is sum of s_i w_i with s_i = 0 on the weights pairing positively with v,
    plus a point of the zonotope G = sum [-1, 0] w_i over the weights with
    <v, w_i> = 0; chi lies in the relative interior of F, hence of that copy
    of G, which is the image of the open cube, so chi is reached with those
    s_i in (-1, 0).  Conic.  For Gorenstein weights (sum w_i = 0) every
    h_u is positive and the rule reads 2|<u, chi>| < sum_i |<u, w_i>|.

    Only the distinct nonzero weights are worked with, each with its
    multiplicity m_w: the normals depend only on the lines the weights
    span, and h_u = sum_w m_w max(0, -<u, w>) over the distinct ones (a
    class group of type I (4, 5) has 28 weights but 4 distinct ones).
    Weights that do not span Q^rank are first moved by the column transform
    V of the Smith normal form of the matrix of distinct weights, which
    clears every coordinate beyond its rank r: chi is conic iff chi V
    vanishes beyond r (the equations) and its first r coordinates satisfy
    the rule for the moved weights, whose normals are read back through V.
    Each normal is the primitive generator of the integer kernel of r-1
    weights, the last column of their own Smith transform.  Zero weights
    change nothing.
    """
    ws = weight_list(weights)
    if any(len(w) != rank for w in ws):
        raise ValueError(f"weights must have {rank} coordinates")
    counts = Counter(w for w in ws if any(w))  # distinct nonzero weights, in order
    if counts:
        D, _, V = intlattice.smith_normal_form(list(counts))
    else:
        D, V = [], [[int(i == j) for j in range(rank)] for i in range(rank)]
    r = sum(1 for i in range(min(len(D), rank)) if D[i][i])
    columns = [tuple(row[c] for row in V) for c in range(rank)]
    moved = {intlattice.primitive(tuple(intlattice.dot(w, col) for col in columns[:r]))
             for w in counts}
    lines = sorted({max(v, tuple(-c for c in v)) for v in moved})
    normals = set()
    for span in (combinations(lines, r - 1) if r else ()):
        u = _kernel_generator(span)
        if u is not None:
            normal = tuple(intlattice.dot(row[:r], u) for row in V)
            normals.add(max(normal, tuple(-c for c in normal)))
    ineqs = [(e, 0, 0) for e in columns[r:]]
    for u in sorted(normals):
        pairings = [(sum(map(mul, u, w)), m) for w, m in counts.items()]
        up = sum(-p * m for p, m in pairings if p < 0)  # h_u
        down = sum(p * m for p, m in pairings if p > 0)  # h_-u
        ineqs.append((u, -down + (down != 0), up - (up != 0)))
    return ConicPolytope(ineqs=tuple(ineqs), rank=rank)


def _kernel_generator(rows: Sequence[Vec]) -> Optional[Vec]:
    """Primitive generator of the integer kernel of k independent rows in
    Z^(k+1), or None when the rows are dependent."""
    if not rows:
        return (1,)
    D, _, V = intlattice.smith_normal_form(rows)
    if any(D[i][i] == 0 for i in range(len(rows))):
        return None
    return tuple(row[-1] for row in V)


def is_conic(chi: Vec, weights: WeightsLike) -> bool:
    """Is the class conic, i.e. a combination of the weights with every
    coefficient in (-1, 0]?  Decided by the facet rule of ``conic_facets``
    in integer arithmetic."""
    if len(chi) == 0:
        return True
    return conic_facets(weights, len(chi)).contains(chi)


def conic_classes(weights: WeightsLike) -> list[Vec]:
    """All conic classes, lexicographically sorted: the lattice points of
    the facet rule of :func:`conic_facets`, listed by
    :func:`enumerate_conic`, the enumerator of the circuit route.  Agrees
    with the circuit-polytope enumeration on Hibi inputs.

    The points lie in the box |chi_k| <= sum_i |w_ik|; a box whose side has
    more points than a Python sequence can hold is refused with
    :class:`ConicBoxError`.
    """
    ws = weight_list(weights)
    if not ws:
        return [()]
    rank = len(ws[0])
    if rank == 0:
        return [()]
    bounds = [sum(abs(w[k]) for w in ws) for k in range(rank)]
    if any(2 * b + 1 > sys.maxsize for b in bounds):
        box = " x ".join(f"[{-b}, {b}]" for b in bounds)
        raise ConicBoxError(f"the bounding box {box} of the conic classes "
                            f"is too large to enumerate")
    return enumerate_conic(conic_facets(ws, rank))

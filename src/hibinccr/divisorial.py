"""Conic divisorial ideal classes.

Two independent characterizations are implemented: the circuit polytope of a
bounded poset (lattice points = conic classes in cotree coordinates) and the
critical-character test (a class is conic iff it is a combination of the
divisor weights with coefficients in the half-open interval (-1, 0]).  Their
agreement on every input is one of the strongest end-to-end checks in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor
from typing import Optional, Sequence, Union

from . import intlattice
from .classgroup import ClassGroupData
from .intlattice import Vec
from .posets import Circuit, TreeSelection


class UnboundedPolytopeError(ValueError):
    pass


WeightsLike = Union[ClassGroupData, Sequence[Vec]]


def weight_list(weights: WeightsLike) -> list[Vec]:
    if isinstance(weights, ClassGroupData):
        return list(weights.weights)
    return [tuple(w) for w in weights]


@dataclass(frozen=True)
class ConicPolytope:
    """Integer inequality system lo <= <coeffs, z> <= hi in class coordinates."""

    ineqs: tuple[tuple[Vec, int, int], ...]
    rank: int


def conic_polytope(circuits: Sequence[Circuit], tree: TreeSelection,
                   weights: ClassGroupData) -> ConicPolytope:
    """One inequality per chordless circuit; duplicates keep tightest bounds.

    A circuit with u upward and v downward edges bounds the signed sum of its
    cotree coordinates between -v+1 and u-1.
    """
    rank = weights.rank
    if weights.cotree is None:
        raise ValueError("conic polytope needs Hibi class data with a cotree")
    pos = {e: k for k, e in enumerate(weights.cotree)}
    merged: dict[Vec, tuple[int, int]] = {}
    for circ in circuits:
        c = circ.with_tree(tree)
        coeffs = [0] * rank
        assert c.z_plus is not None and c.z_minus is not None
        for e in c.z_plus:
            coeffs[pos[e]] += 1
        for e in c.z_minus:
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
    """All lattice points of the polytope, lexicographically sorted."""
    if cp.rank == 0:
        return [()]
    cons: list[tuple[Vec, Fraction]] = []
    for coeffs, lo, hi in cp.ineqs:
        cons.append((coeffs, Fraction(hi)))
        cons.append((tuple(-c for c in coeffs), Fraction(-lo)))
    return sorted(_enumerate_rec(cons, cp.rank))


def _fm_eliminate(cons: list[tuple[Vec, Fraction]], j: int) -> list[tuple[Vec, Fraction]]:
    kept, uppers, lowers = [], [], []
    for coeffs, b in cons:
        if coeffs[j] == 0:
            kept.append((coeffs, b))
        elif coeffs[j] > 0:
            uppers.append((coeffs, b))
        else:
            lowers.append((coeffs, b))
    for (cu, bu), (cl, bl) in product(uppers, lowers):
        p, q = cu[j], -cl[j]
        coeffs = tuple(q * a + p * c for a, c in zip(cu, cl))
        kept.append((coeffs, q * bu + p * bl))
    return kept


def _first_var_range(cons: list[tuple[Vec, Fraction]], r: int) -> Optional[tuple[int, int]]:
    sys_ = cons
    for j in range(r - 1, 0, -1):
        sys_ = _fm_eliminate(sys_, j)
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for coeffs, b in sys_:
        a = coeffs[0]
        if a == 0:
            if b < 0:
                return None
        elif a > 0:
            v = b / a
            hi = v if hi is None else min(hi, v)
        else:
            v = b / a
            lo = v if lo is None else max(lo, v)
    if lo is None or hi is None:
        raise UnboundedPolytopeError("inequality system is unbounded")
    ilo, ihi = ceil(lo), floor(hi)
    return None if ilo > ihi else (ilo, ihi)


def _enumerate_rec(cons: list[tuple[Vec, Fraction]], r: int) -> list[Vec]:
    rng = _first_var_range(cons, r)
    if rng is None:
        return []
    lo, hi = rng
    if r == 1:
        return [(v,) for v in range(lo, hi + 1)]
    out = []
    for v in range(lo, hi + 1):
        reduced = [(coeffs[1:], b - coeffs[0] * v) for coeffs, b in cons]
        out += [(v, *tail) for tail in _enumerate_rec(reduced, r - 1)]
    return out


# ---------------------------------------------------------------------------
# critical-character test


def is_conic(chi: Vec, weights: WeightsLike) -> bool:
    """Is the class conic?  Decided by exact membership of the character in
    the half-open zonotope of weight combinations with coefficients in
    (-1, 0]; no floating point and no epsilon anywhere."""
    ws = weight_list(weights)
    rank = len(chi)
    if rank == 0:
        return True
    values: dict[Vec, int] = {}
    for w in ws:
        if any(c != 0 for c in w):
            values[w] = values.get(w, 0) + 1
    vecs = sorted(values)
    lows = [Fraction(-values[v]) for v in vecs]
    highs = [Fraction(0) for _ in vecs]
    return _box_slice_feasible(vecs, lows, highs, chi, open_low=True)


def _box_slice_feasible(vecs: list[Vec], lows: list[Fraction], highs: list[Fraction],
                        target: Vec, open_low: bool) -> bool:
    """Feasibility of sum_k s_k * vecs[k] = target with s in a box whose low
    faces are excluded when open_low.

    Works on the closed box first (vertex enumeration of the slice polytope),
    then uses convexity: the open problem is feasible iff the closed one is
    and no coordinate is pinned to its excluded face.
    """
    k = len(vecs)
    r = len(target)
    if k == 0:
        return all(c == 0 for c in target)
    rk = intlattice.lattice_rank(vecs)
    vertices: list[list[Fraction]] = []
    for free in combinations(range(k), rk):
        cols = [vecs[i] for i in free]
        if intlattice.lattice_rank(cols) != rk:
            continue
        fixed = [i for i in range(k) if i not in free]
        for ends in product(*[(lows[i], highs[i]) for i in fixed]):
            rhs = list(target)
            for i, val in zip(fixed, ends):
                for c in range(r):
                    rhs[c] -= val * vecs[i][c]
            mat = [[cols[j][c] for j in range(rk)] for c in range(r)]
            try:
                sol = intlattice.solve_rational(mat, rhs)
            except ValueError:
                sol = None
            if sol is None:
                continue
            s = [Fraction(0)] * k
            for j, i in enumerate(free):
                s[i] = sol[j]
            for i, val in zip(fixed, ends):
                s[i] = val
            if all(lows[i] <= s[i] <= highs[i] for i in range(k)):
                vertices.append(s)
    if not vertices:
        return False
    if not open_low:
        return True
    for i in range(k):
        if max(v[i] for v in vertices) <= lows[i]:
            return False
    return True


def conic_classes(weights: WeightsLike) -> list[Vec]:
    """All conic classes, by the critical-character test over its bounding
    box.  Agrees with the circuit-polytope enumeration on Hibi inputs."""
    ws = weight_list(weights)
    if not ws:
        return [()]
    rank = len(ws[0])
    if rank == 0:
        return [()]
    bounds = [sum(abs(w[k]) for w in ws) for k in range(rank)]
    out = []
    for pt in product(*[range(-b, b + 1) for b in bounds]):
        if is_conic(pt, ws):
            out.append(pt)
    return sorted(out)

"""Rank-one maximal Cohen-Macaulay classes via the one-parameter-subgroup
criterion.

The unit ball of one-parameter subgroups is cut into chambers on which the
set of negatively-pairing divisor weights is constant.  Every chamber that
contains both of its boundary rays, and every open sector, contributes an
affine semigroup of non-MCM characters; a class is MCM iff it avoids all of
them (half-open chambers never matter).  In rank one the two half-lines
give +-(beta + N<|w_i|>), as local cohomology does (:mod:`hibinccr.rank1`).
All decisions are exact integer arithmetic.  Each of those chambers is
compiled once into a :class:`NonMcmCone`: a row of plain integers (its
offset, phi, boundary normals and the lattice its residues are taken
modulo) and an Apery table, read by the one membership engine,
:func:`_outside`: a flat loop over rows that serves
:meth:`NonMcmCone.contains`, :func:`semigroup_member` and the compiled test
of a whole weight system, :class:`McmTest`.  No query changes a row.

Cost model.  Compiling takes one pass over the weights for the chambers
(integer pairings of each piece with the distinct weights), one over each
cone's generators for its units and phi, and on a pointed cone a walk of
at most one step more than it has generators to decide whether it is
saturated; a ray or a half-plane is saturated when its least generator and
its units span the group of all its generators.  Any other cone is then
walked once over its Apery set Ap, in time O(|Ap| log |Ap|) per generator;
|Ap| grows with the cone's index (see :class:`McmTest`).  After that a
query costs the same at any distance: three inequalities, one residue,
and a congruence or one staircase lookup.  A region
(:func:`mcm_region`) is swept a column at a time: a few integer operations
per cone per column and one slice per Apery corner, plus one step per MCM
class listed.

Whoever owns the weights holds their compiled test.  A
:class:`~hibinccr.classgroup.ClassGroupData` keeps it as an instance
attribute (``mcm_test``), built on first use and freed with it; a plain
weight sequence is compiled on every call of :func:`is_mcm` or
:func:`mcm_region`, and a caller with many questions about one sequence
compiles it once with :class:`McmTest` (as ``nccr.endomorphism_is_mcm``
does).  Nothing is cached at module level.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from heapq import heappop, heappush
from itertools import compress, repeat
from math import gcd
from operator import neg
from typing import NamedTuple, Optional, Sequence

from .classgroup import ClassGroupData, WeightsLike, weight_list
from .intlattice import Vec, angle_key, primitive
from .record import Record

CLOSED = "closed"        # contains both boundary rays (lone ray or closed cone)
HALF_OPEN = "half_open"  # contains exactly one boundary ray
OPEN = "open"            # open sector


class NotGorensteinError(ValueError):
    """MCM classification is only run for weight systems summing to zero."""


class CriterionHypothesisError(ValueError):
    """The chamber sizes violate the applicability hypothesis of the MCM
    criterion; results would be meaningless, so we refuse instead."""


class Chamber(NamedTuple):
    t_set: tuple[int, ...]          # divisor indices pairing strictly negatively
    kind: str                       # CLOSED / HALF_OPEN / OPEN
    witness: Vec                    # an integer direction inside the chamber


class ChamberDecomposition(NamedTuple):
    chambers: tuple[Chamber, ...]
    hypothesis_failures: tuple[tuple[int, int, int], ...]  # (index, size, needed)

    @property
    def hypothesis_ok(self) -> bool:
        return not self.hypothesis_failures


class NonMcmCone(Record):
    """Characters offset + (non-negative combination of generators) are the
    non-MCM classes detected by one chamber.

    The cone is compiled once into a row of plain integers and an Apery
    table, and then answers :meth:`contains` for any number of characters;
    rank one is the rank-two case on the second axis.  Generators whose
    negative lies in the rational cone of the whole set act invertibly, so
    they collapse into a unit lattice U: they are the generators in the
    cone's lineality space, read off in one pass over the generators.  The
    remaining generators admit an integer functional phi, zero on U (a
    line, then) and strictly positive on them.

    A shifted point is in the semigroup S only if it is in the rational
    cone C: phi >= 0 and, on a pointed cone or a ray, n >= 0 and m >= 0 for
    the two boundary normals.  Then:

    * S is all of C n L, L the group the generators span, on a plane, a
      line, with no generators, and on a *saturated* cone, so membership is
      a congruence modulo L.  A pointed cone with two boundary rays is
      saturated exactly when S holds the least points u', v' of L on the
      rays and the points of L in [0, 1) u' + [0, 1) v', which generate
      C n L (Bruns and Gubeladze, *Polytopes, Rings, and K-Theory*, ch. 2).
      Compiling checks them (:func:`_saturated`), so such a cone of large
      index never walks its Apery set.
    * Otherwise S is the union of a + N u + N v over its Apery set
      Ap = {s in S : s - u and s - v not in S} (Rosales and Garcia-Sanchez,
      *Finitely Generated Commutative Monoids*, 1999).  On a pointed cone u
      and v are the generators of least phi on its two boundary rays; on a
      ray, or on a half-plane taken modulo U, u = v is the generator of
      least phi.  Ap meets each residue of L modulo M = U + Z u + Z v in a
      staircase of corners, none of which is another plus a point of
      N u + N v: the holes run in strips along the rays (Katthan,
      *Manuscripta Math.* 146, 2015).  A corner a is kept as the pair
      (n(a), phi(a) - n(a)).  On a pointed cone phi = n + m, so that is
      (n(a), m(a)), and a point p of a's residue is in a + N u + N v exactly
      when n(p) >= n(a) and m(p) >= m(a).  On a ray or a half-plane n is 0
      on every point of C, each residue has one corner, the least point of
      S in it, and p is in S when phi(p) >= phi(a).

    The *conductor* is the least phi level from which every point of C n L
    is in S.  On a ray or a half-plane the highest hole of a residue lies
    one step phi(u) below its corner, so the conductor is one more than the
    highest corner's level less phi(u), or 0 if that is negative: in rank
    one, the Frobenius number plus one.  A ray or a half-plane is saturated,
    with conductor 0, exactly when M is L; otherwise the least point a of
    another residue lies at least phi(u) up, and a - u is a hole.

    The row (``_row``) is the offset's plane coordinates, phi, the two
    boundary normals (zero on a half-plane or with no phi), the lattice its
    residues are taken modulo in echelon form ``(a, b, c)`` (see
    :func:`_lattice`), which is L on a saturated cone and M otherwise, and
    the Apery table: a dict from each residue's reduced representative to
    its staircase, the corners' n values rising and their phi - n values
    falling.  A saturated cone has an empty table.  Nothing in the row
    changes after compiling.  :func:`_outside` reads it, for this cone
    alone or for every cone of a :class:`McmTest`.  It holds no reference
    to the cone, so a dropped cone is freed at once.
    """

    _fields = ("offset", "generators")

    def __init__(self, offset: Vec, generators: tuple[Vec, ...]) -> None:
        rank = len(offset)
        if rank not in (1, 2):
            raise ValueError("non-MCM cones are implemented for rank 1 and 2")
        for g in generators:
            _check_rank(g, rank)
        gens = sorted({_plane(g) for g in generators} - {(0, 0)})
        units, rest, bounds = _split_units(gens)
        lat = _lattice(gens)
        normals = (0, 0, 0, 0)
        pointed = bounds and bounds[0] != bounds[1]
        if bounds:
            (ux, uy), (vx, vy) = bounds
            # on a pointed cone phi is the sum of the two boundary normals
            phi = (vy - uy, ux - vx) if pointed else bounds[0]
            normals = (-uy, ux, vy, -vx)
        elif rest:
            a, b, c = _lattice(units)
            assert not (a and c), "unit directions must be collinear"
            phi = _off_line(rest, (a, b) if a else (0, c))
        else:
            phi = (0, 0)
        lattice, table, conductor = lat, {}, 0
        if rest and not (pointed and _saturated(bounds, lat, rest)):
            lattice, table, conductor = _apery(phi, normals, units, rest, lat, pointed)
        ox, oy = _plane(offset)
        self.__dict__.update(offset=offset, generators=generators, _conductor=conductor,
                             _row=(ox, oy, *phi, *normals, *lattice, table))

    @property
    def conductor(self) -> Optional[int]:
        """The least phi level from which every point of the cone that lies
        in the generators' group is in the semigroup: 0 for a saturated
        cone, None for a pointed cone that is not saturated, and on a ray or
        a half-plane read off its Apery table when it was compiled."""
        return self._conductor

    def contains(self, chi: Vec) -> bool:
        """Is chi one of the cone's non-MCM characters?"""
        _check_rank(chi, len(self.offset))
        return not _outside((self._row,), _plane(chi))


def _outside(rows: tuple[tuple, ...], chi: Vec) -> bool:
    """Is the plane point chi in none of the compiled cones?  For each row:
    shift by the offset and test phi and the boundary inequalities; then,
    with no Apery table, test membership in L, and with one, look the
    point up in it (:func:`_in_table`)."""
    x0, y0 = chi
    for ox, oy, px, py, nx, ny, mx, my, a, b, c, table in rows:
        x = x0 - ox
        y = y0 - oy
        level = px * x + py * y
        if level < 0 or nx * x + ny * y < 0 or mx * x + my * y < 0:
            continue
        if table:
            if _in_table(table, x, y, level, nx * x + ny * y, a, b, c):
                return False
            continue
        if a:
            if x % a:
                continue
            y -= x // a * b
        elif x:
            continue
        if not (y % c if c else y):
            return False
    return True


def _in_table(table: dict, x: int, y: int, level: int, n: int, a: int, b: int, c: int) -> bool:
    """Does the shifted point (x, y), at phi level ``level`` and n value
    ``n``, dominate a corner of its residue's staircase modulo the lattice
    (a, b, c)?  The corners' n values rise as their other values fall, so
    the last corner whose n value is at most ``n`` decides."""
    stair = table.get(_residue(x, y, a, b, c))
    if not stair:
        return False
    i = bisect_right(stair[0], n)
    return i > 0 and stair[1][i - 1] <= level - n


def _apery(phi: Vec, normals: tuple[int, int, int, int], units: list[Vec], rest: list[Vec],
           lat: tuple[int, int, int], pointed: bool) -> tuple[tuple[int, int, int], dict, Optional[int]]:
    """The lattice M in echelon form, the Apery table and the conductor
    (None on a pointed cone) of a cone that is not known to be saturated
    (see :class:`NonMcmCone`).  If M is L, Ap is {0}: the cone is
    saturated, and keeps L and no table.  Otherwise a walk from 0 in order
    of phi adds every generator but u and v to each point of Ap it finds.
    Ap less a generator is in Ap, so every point of Ap is reached; a corner
    that a point dominates lies at a lower level, so it is found first, and
    a point that dominates one is in a + N u + N v and is dropped.  The
    walk takes O(|Ap| log |Ap|) steps per generator."""
    px, py = phi
    nx, ny, mx, my = normals
    steps = sorted((px * gx + py * gy, gx, gy) for gx, gy in rest)
    # the least step on each boundary ray: the least step of all on a ray or
    # a half-plane, where both normals vanish on every generator
    fixed = {next(st for st in steps if nx * st[1] + ny * st[2] == 0),
             next(st for st in steps if mx * st[1] + my * st[2] == 0)}
    a, b, c = _lattice([*units, *((gx, gy) for _, gx, gy in fixed)])
    if (a, c) == (lat[0], lat[2]):  # M, a sublattice of L, has index 1
        return lat, {}, 0
    grow = [st for st in steps if st not in fixed]
    found: dict[Vec, list[tuple[int, int]]] = {}
    heap = [(0, 0, 0)]
    while heap:
        level, x, y = heappop(heap)
        n = nx * x + ny * y
        stair = found.setdefault(_residue(x, y, a, b, c), [])
        if any(f <= n and g <= level - n for f, g in stair):
            continue
        stair.append((n, level - n))
        for cost, gx, gy in grow:
            heappush(heap, (level + cost, x + gx, y + gy))
    table = {key: tuple(zip(*sorted(stair))) for key, stair in found.items()}
    if pointed:
        return (a, b, c), table, None
    top = max(levels[0] for _, levels in table.values())
    return (a, b, c), table, max(0, top - steps[0][0] + 1)


def _residue(x: int, y: int, a: int, b: int, c: int) -> Vec:
    """The representative of (x, y) modulo the lattice (a, b, c) in echelon
    form (see :func:`_lattice`)."""
    if a:
        k = x // a
        x -= k * a
        y -= k * b
    return x, y % c if c else y


def _saturated(bounds: tuple[Vec, Vec], lat: tuple[int, int, int],
               gens: Sequence[Vec]) -> bool:
    """Is the semigroup of a pointed cone C, with boundary directions
    ``bounds`` = (u, v), det(u, v) > 0, and generators ``gens`` all of
    C n L?  Exactly when the generators hold the Hilbert basis of C n L.
    In coordinates on the echelon basis ``lat`` of L, that basis is a walk
    from the least point of L on u to the one on v: after h comes the
    point p of C with det(h, p) = 1 nearest v (Bruns and Gubeladze,
    *Polytopes, Rings, and K-Theory*, ch. 2).  det(p, v) falls at each
    step, and the walk stops at the first point that is not a generator,
    so it takes at most len(gens) + 1 steps."""
    A, B, C = lat
    u, v = (primitive((C * x, A * y - B * x)) for x, y in bounds)
    gens = {(x // A, (y - x // A * B) // C) for x, y in gens}
    h = u
    while h in gens:
        if h == v:
            return True
        hx, hy = h
        _, s, t = _ext_gcd(hx, hy)
        # det(h, (-t, s)) = 1; the least k with det((-t, s) + k h, v) >= 0
        k = -(-(v[1] * t + v[0] * s) // (hx * v[1] - hy * v[0]))
        h = k * hx - t, k * hy + s
    return False


def _plane(v: Vec) -> Vec:
    return v if len(v) == 2 else (0, v[0])


def _check_rank(v: Sequence[int], rank: int) -> None:
    if len(v) != rank:
        raise ValueError(f"expected a vector of rank {rank}, got {tuple(v)}")
    for c in v:
        if type(c) is not int:
            raise ValueError(f"coordinate {c!r} of {tuple(v)} is not an int")


def chamber_decomposition(weights: WeightsLike) -> ChamberDecomposition:
    """Split the nonzero directions into maximal classes with constant
    negative-pairing set; classes are ordered counterclockwise starting with
    the sector just past the first critical ray.

    The critical rays are the normals of the weights.  Pieces (a sector,
    then the ray that closes it) are told apart by which distinct weights
    pair negatively with them; only a chamber's own T-set is spelled out
    over every weight index."""
    ws = weight_list(weights)
    if not ws:
        raise ValueError("empty weight system")
    rank = len(ws[0])
    if rank == 1:
        chambers = tuple(
            Chamber(t_set=tuple(i for i, w in enumerate(ws) if lam[0] * w[0] < 0),
                    kind=CLOSED, witness=lam)
            for lam in ((1,), (-1,)))
        return _with_hypothesis(chambers)
    if rank != 2:
        raise ValueError("chamber decomposition implemented for rank 1 and 2")

    distinct = list(dict.fromkeys((w[0], w[1]) for w in ws))
    upper: set[Vec] = set()  # one normal of each weight line, at an angle in [0, pi)
    for wx, wy in distinct:
        if wx or wy:
            g = gcd(wx, wy)
            nx, ny = -wy // g, wx // g
            upper.add((nx, ny) if ny > 0 or (ny == 0 and nx > 0) else (-nx, -ny))
    if not upper:
        raise ValueError("all weights are zero")
    half = sorted(upper, key=angle_key)
    ordered = half + [(-x, -y) for x, y in half]

    # atomic pieces, counterclockwise: sector after ray i, then ray i+1; the
    # list ends with the first ray itself
    witnesses: list[Vec] = []
    m = len(ordered)
    for i in range(m):
        ax, ay = ordered[i]
        bx, by = ordered[(i + 1) % m]
        if ax * by - ay * bx > 0:
            mx, my = ax + bx, ay + by
            g = gcd(mx, my)
            witnesses.append((mx // g, my // g))
        else:  # opposite rays: the gap is half a turn
            witnesses.append((-ay, ax))
        witnesses.append((bx, by))
    keys = [tuple([px * wx + py * wy < 0 for wx, wy in distinct]) for px, py in witnesses]

    runs: list[list[int]] = []
    for idx, key in enumerate(keys):
        if runs and keys[runs[-1][-1]] == key:
            runs[-1].append(idx)
        else:
            runs.append([idx])
    if len(runs) > 1 and keys[runs[0][0]] == keys[runs[-1][-1]]:
        runs[0] = runs[-1] + runs[0]
        runs.pop()
    assert len(runs) >= 2, "degenerate decomposition: constant pairing sets"

    chambers = []
    for run in runs:
        starts_with_ray = run[0] % 2 == 1
        ends_with_ray = run[-1] % 2 == 1
        included = int(starts_with_ray) + int(ends_with_ray)
        if len(run) == 1 and starts_with_ray:
            included = 2  # a lone ray is its own closed boundary
        kind = {2: CLOSED, 1: HALF_OPEN, 0: OPEN}[included]
        px, py = witness = witnesses[run[0]]
        chambers.append(Chamber(
            t_set=tuple(i for i, w in enumerate(ws) if px * w[0] + py * w[1] < 0),
            kind=kind, witness=witness))
    return _with_hypothesis(tuple(chambers))


def _with_hypothesis(chambers: tuple[Chamber, ...]) -> ChamberDecomposition:
    failures = []
    for i, c in enumerate(chambers):
        needed = {CLOSED: 2, OPEN: 3}.get(c.kind)
        if needed is not None and len(c.t_set) < needed:
            failures.append((i, len(c.t_set), needed))
    return ChamberDecomposition(chambers=chambers,
                                hypothesis_failures=tuple(failures))


def non_mcm_cone(chamber: Chamber, weights: WeightsLike) -> NonMcmCone:
    """The affine semigroup of non-MCM characters attached to a chamber:
    spend one unit of every weight outside the T-set (that is the offset),
    then move freely by negated outside weights and plain T weights."""
    if chamber.kind == HALF_OPEN:
        raise ValueError("half-open chambers never contribute non-MCM cones")
    ws = weight_list(weights)
    rank = len(ws[0])
    t = set(chamber.t_set)
    inside = {w for i, w in enumerate(ws) if i in t}
    outside = [w for i, w in enumerate(ws) if i not in t]
    offset = tuple(-sum(c) for c in zip(*outside)) if outside else (0,) * rank
    gens = inside | {tuple(map(neg, w)) for w in set(outside)}
    gens.discard((0,) * rank)
    return NonMcmCone(offset=offset, generators=tuple(sorted(gens)))


# ---------------------------------------------------------------------------
# exact membership in a finitely generated affine semigroup (rank <= 2)


def semigroup_member(target: Vec, generators: Sequence[Vec]) -> bool:
    """Is the target a non-negative integer combination of the generators?
    Exact for arbitrary generator sets in rank 1 or 2 (see :class:`NonMcmCone`)."""
    zero = (0,) * len(target)
    return NonMcmCone(zero, tuple(tuple(g) for g in generators)).contains(target)


def _split_units(gens: Sequence[Vec]) -> tuple[list[Vec], list[Vec], Optional[tuple[Vec, Vec]]]:
    """(units, rest, bounds) for sorted distinct nonzero plane generators.

    The units are the generators in the cone's lineality space.  One pass
    keeps the cone's two boundary generators while the cone stays pointed;
    then there are no units, and ``bounds`` is the primitive directions
    (u, v) of the boundary rays, with det(u, v) > 0 or u = v on a ray.  A
    cone that holds a line is a half-plane, the line, or the plane, and has
    no ``bounds``.  A half-plane is bounded by the line of two opposite
    generator directions with every generator on one side: its units are
    the generators on that line.  Otherwise every generator is a unit."""
    if not gens:
        return [], [], None
    lo = hi = gens[0]
    for g in gens[1:]:
        # positive when g lies counterclockwise of lo, and hi of g
        after_lo = lo[0] * g[1] - lo[1] * g[0]
        before_hi = g[0] * hi[1] - g[1] * hi[0]
        if lo is hi:  # a ray so far
            if after_lo > 0:
                hi = g
            elif after_lo < 0:
                lo = g
            elif lo[0] * g[0] + lo[1] * g[1] < 0:
                break
        elif after_lo >= 0 and before_hi >= 0:
            continue
        elif after_lo > 0 and hi[0] * g[1] - hi[1] * g[0] > 0:
            hi = g
        elif before_hi > 0 and g[0] * lo[1] - g[1] * lo[0] > 0:
            lo = g
        else:
            break
    else:
        return [], list(gens), (primitive(lo), primitive(hi))
    dirs = {(x // g, y // g) for x, y in gens for g in (gcd(x, y),)}
    for ux, uy in dirs:
        if (-ux, -uy) in dirs:  # both are tried, so one side suffices
            sides = [ux * gy - uy * gx for gx, gy in gens]
            if min(sides) >= 0:
                return ([g for g, side in zip(gens, sides) if not side],
                        [g for g, side in zip(gens, sides) if side], None)
    return list(gens), [], None


def _off_line(rest: Sequence[Vec], line: Vec) -> Vec:
    """The normal of the unit line, in the sign that is strictly positive
    on the remaining generators."""
    for phi in ((-line[1], line[0]), (line[1], -line[0])):
        if all(phi[0] * g[0] + phi[1] * g[1] > 0 for g in rest):
            return phi
    raise AssertionError("generators not separated from the unit line")


def _lattice(vectors: Sequence[Vec]) -> tuple[int, int, int]:
    """The lattice the plane vectors span, in echelon form (a, b, c),
    a, c >= 0: its points are k (a, b) + m (0, c).  Each class modulo it has
    exactly one representative with 0 <= x < a when a > 0 and 0 <= y < c
    when c > 0."""
    a = b = c = 0
    for x, y in vectors:
        g, s, t = _ext_gcd(a, x)
        if g:
            # the unimodular rows (s, t) and (-x/g, a/g) take (a, b), (x, y)
            # to (g, .) and a vector on the y-axis
            c = gcd(c, (x // g) * b - (a // g) * y)
            a, b = g, s * b + t * y
        else:
            c = gcd(c, y)
    return a, b, c


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)




# ---------------------------------------------------------------------------
# the MCM test and regions


class McmTest:
    """The MCM test of one weight system, compiled once.

    Both ranks hold the :class:`NonMcmCone` of every closed chamber and
    open sector (``cones``), whose hypothesis (in rank one, two weights of
    each sign) must hold, and decide a class in one flat loop over their
    rows (:func:`_outside`); rank one runs on the second axis.  Calling the
    test checks the rank of chi and that its coordinates are ints;
    :meth:`of` reuses the test a :class:`~hibinccr.classgroup.ClassGroupData`
    already holds.  Queries change nothing the test holds.

    Compiling costs O(|Ap|) for each cone, and a query then costs the same
    at any distance, in time and memory.  A pointed cone learns that it is
    saturated from a walk of at most len(generators) + 1 Hilbert basis
    points, whatever its index, and walks no Apery set: a fresh test on
    ``corpus/rank2_demo.cone`` answers (3000, 0) in about 0.7 ms, compile
    included.  Every other cone walks its Apery set, whose size grows with
    the cone's index: (1000, 1001, -1000, -1001), whose rays hold 1000
    corners each, takes about 3.5 ms at (10**6,), and (-1, -3), (3, -4),
    (2, 2), (-4, 3), (0, -1), (0, 3), with 7 pointed cones of 10 not
    saturated, about 0.8 ms at (10**6, 0).  Random rank-two weights mostly
    give cones of that kind: over 20 systems of five weights and their
    completion, the worst cone took about 25 ms (|Ap| 2736, index 1015)
    with entries up to 30, and about 1 s (|Ap| 52773, index 9288) with
    entries up to 100.

    :func:`mcm_region` reads the same rows a column at a time, so a box
    costs each cone a few integer operations and one slice per Apery corner
    per column, plus the MCM classes listed.
    """

    def __init__(self, weights: WeightsLike):
        ws = weight_list(weights)
        if any(map(sum, zip(*ws))):
            raise NotGorensteinError("weight system does not sum to zero")
        decomposition = chamber_decomposition(ws)
        self.rank = len(ws[0])
        if not decomposition.hypothesis_ok:
            raise CriterionHypothesisError(
                f"criterion hypothesis fails on chambers {decomposition.hypothesis_failures}")
        self.cones = tuple(non_mcm_cone(chamber, ws) for chamber in decomposition.chambers
                           if chamber.kind != HALF_OPEN)
        decide = partial(_outside, tuple(cone._row for cone in self.cones))
        # rank one runs on the second axis, embedded here once
        self._decide = decide if self.rank == 2 else lambda chi: decide((0, chi[0]))

    @classmethod
    def of(cls, weights: WeightsLike) -> "McmTest":
        """The test a class group holds, or a new one for a plain sequence."""
        if isinstance(weights, ClassGroupData):
            return weights.mcm_test
        return cls(weights)

    def reach(self) -> int:
        """Rank one: the least R with every MCM class in [-R, R], for weights
        that generate Z, as a class group's do.  Each cone is a ray from
        -+beta outwards that holds every class at or past its conductor, and
        the class one level short of it is a hole, so R is beta + F, with F
        the Frobenius number of N<|w_i|> (or beta - 1 when that is N).  The
        conductors are read off the cones' Apery tables, so this costs the
        same for any weights."""
        if self.rank != 1:
            raise ValueError("the reach of the MCM classes is a rank-one bound")
        return max(abs(cone.offset[0]) + cone.conductor - 1 for cone in self.cones)

    def __call__(self, chi: Vec) -> bool:
        """Is the rank-one class chi MCM?"""
        _check_rank(chi, self.rank)
        return self._decide(chi)


def is_mcm(chi: Vec, weights: WeightsLike) -> bool:
    """Is the rank-one class MCM?  Both ranks run the chamber criterion,
    whose hypothesis must hold (see :class:`McmTest`); chi's coordinates
    must be ints.

    A :class:`~hibinccr.classgroup.ClassGroupData` holds its compiled
    :class:`McmTest`, so repeated queries against it share one compilation.
    A plain weight sequence is compiled on every call, at O(|Ap|) per cone;
    to ask many questions of one, build ``McmTest(weights)`` once and call
    it.  A query costs the same at any distance.
    """
    test = McmTest.of(weights)
    _check_rank(chi, test.rank)
    return test._decide(chi)


def mcm_region(weights: WeightsLike, box: Sequence[tuple[int, int]]) -> set[Vec]:
    """All MCM classes inside the box (inclusive coordinate ranges): the
    points that no compiled non-MCM cone contains, the same answers
    :func:`is_mcm` gives pointwise.  The test is compiled once per call, or
    taken from the class group that holds it, at O(|Ap|) per cone.

    The box is swept one column (one x) at a time, and each cone clears
    the points of the column it holds (:func:`_strike`), so the cost is a
    few integer operations and one slice per Apery corner per cone per
    column, plus one step per MCM class listed.  Rank one runs on the
    second axis, so its box is one column; for weights that generate Z it
    is first clipped to [-R, R], R = :meth:`McmTest.reach`, outside which
    no class is MCM, so a box of any size costs at most that interval (the
    CLI's table format still prints one cell per point of the box).  On
    ``corpus/rank2_demo.cone`` the box [-1000, 1000]^2 takes about 0.15 s
    (4.4 s pointwise); on (300, 301, -300, -301) the default box of the
    CLI, +-90300, with 90901 MCM classes, about 0.08 s."""
    test = McmTest.of(weights)
    if len(box) != test.rank:
        raise ValueError(f"expected a box of rank {test.rank}, got {len(box)} ranges")
    (x_lo, x_hi), (y_lo, y_hi) = box if test.rank == 2 else ((0, 0), *box)
    if test.rank == 1 and gcd(*(w for w, in weight_list(weights))) == 1:
        reach = test.reach()
        y_lo, y_hi = max(y_lo, -reach), min(y_hi, reach)
    rows = tuple(cone._row for cone in test.cones)
    ys = range(y_lo, y_hi + 1)
    region: set[Vec] = set()
    if x_lo > x_hi or not ys:
        return region
    for x in range(x_lo, x_hi + 1):
        column = bytearray(b"\x01") * len(ys)
        for row in rows:
            _strike(column, row, x, y_lo, y_hi)
        region.update(zip(repeat(x), compress(ys, column)))
    return region if test.rank == 2 else {(y,) for _, y in region}


def _strike(column: bytearray, row: tuple, x0: int, y_lo: int, y_hi: int) -> None:
    """Clear the points (x0, y), y_lo <= y <= y_hi, that the compiled cone
    of ``row`` holds; ``column[y - y_lo]`` stands for (x0, y).  As x is
    fixed, phi and the two boundary inequalities cut out one interval of y,
    and the points of one residue modulo the row's lattice form an
    arithmetic progression in y.  With no Apery table the cone holds the
    progression of 0; with one, each corner of a residue's staircase cuts a
    smaller interval, and the cone holds the residue's progression there,
    so each corner is one slice assignment (:func:`_clear`).  The answers
    are those of :func:`_outside`."""
    ox, oy, px, py, nx, ny, mx, my, a, b, c, table = row
    x = x0 - ox
    lo, hi = _clip(y_lo - oy, y_hi - oy, ((py, px * x), (ny, nx * x), (my, mx * x)))
    shift = oy - y_lo  # column[y + shift] stands for the shifted point (x, y)
    start = column.find(1, lo + shift, hi + shift + 1) if lo <= hi else -1
    if start < 0:
        return
    # only the points still standing matter
    lo, hi = start - shift, column.rfind(1, start, hi + shift + 1) - shift
    if not table:
        _clear(column, shift, lo, hi, x, 0, a, b, c)
    for (rx, ry), (ns, rests) in table.items():
        for n, rest in zip(ns, rests):  # n(p) >= n and (phi - n)(p) >= rest
            first, last = _clip(lo, hi, ((ny, nx * x - n), (py - ny, (px - nx) * x - rest)))
            _clear(column, shift, first, last, x - rx, ry, a, b, c)


def _clip(lo: int, hi: int, bounds: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """The interval of the y in [lo, hi] with k y + rest >= 0 for every
    (k, rest) of ``bounds``; lo > hi when it is empty."""
    for k, rest in bounds:
        if k > 0:
            lo = max(lo, -(rest // k))
        elif k < 0:
            hi = min(hi, rest // -k)
        elif rest < 0:
            return lo, lo - 1
    return lo, hi


def _clear(column: bytearray, shift: int, first: int, last: int, dx: int, ry: int,
           a: int, b: int, c: int) -> None:
    """Clear the points (x, y), first <= y <= last, that are congruent to
    (x - dx, ry) modulo the lattice (a, b, c) in echelon form;
    ``column[y + shift]`` stands for (x, y)."""
    if first > last or (dx % a if a else dx):
        return
    r = ry + (dx // a * b if a else 0)  # the points' y modulo c
    if c:
        first += (r - first) % c
        if first <= last:
            column[first + shift:last + shift + 1:c] = bytes((last - first) // c + 1)
    elif first <= r <= last:
        column[r + shift] = 0

"""Rank-one maximal Cohen-Macaulay classes via the one-parameter-subgroup
criterion.

The unit ball of one-parameter subgroups is cut into chambers on which the
set of negatively-pairing divisor weights is constant.  Every chamber that
contains both of its boundary rays, and every open sector, contributes an
affine semigroup of non-MCM characters; a class is MCM iff it avoids all of
them (half-open chambers never matter).  In rank one the two half-lines
give +-(beta + N<|w_i|>), as local cohomology does (:mod:`hibinccr.rank1`).
All decisions are exact integer arithmetic.  Each of those chambers is
compiled once into a :class:`NonMcmCone`, whose row of plain integers (its
offset, phi, boundary normals, the group its generators span, its
conductor and the levels held below it) is read by the one membership
engine, :func:`_outside`: a flat loop over rows that serves
:meth:`NonMcmCone.contains`, :func:`semigroup_member` and the compiled test
of a whole weight system, :class:`McmTest`.  Compiling takes one pass over
the weights for the chambers (integer pairings of each piece with the
distinct weights), one over each cone's generators for its units and phi,
and, on a pointed cone, a walk of at most one step more than it has
generators to decide whether it is saturated.

Cost model.  A query of a cone whose conductor is known costs the same at
any distance: three inequalities and a congruence, or one lookup in a
level held below the conductor.  A saturated cone knows it from the start;
a ray or a half-plane finds it by closing levels, at most up to it, so its
queries cost at most the conductor's levels once.  That covers all of rank
one and every cone of the paper's families and of the corpus.  A pointed
cone that is not saturated keeps closing levels up to the phi level of the
farthest query inside it, so its cost stays quadratic in the distance (see
:class:`McmTest`).

Whoever owns the weights holds their compiled test.  A
:class:`~hibinccr.classgroup.ClassGroupData` keeps it as an instance
attribute (``mcm_test``), built on first use and freed with it; a plain
weight sequence is compiled on every call of :func:`is_mcm` or
:func:`mcm_region`, and a caller with many questions about one sequence
compiles it once with :class:`McmTest` (as ``nccr.endomorphism_is_mcm``
does).  Nothing is cached at module level.
"""

from __future__ import annotations

from functools import partial
from itertools import product
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

    The cone is compiled once into a row of plain integers and then answers
    :meth:`contains` for any number of characters; rank one is the rank-two
    case on the first axis.  Generators whose negative lies in the rational
    cone of the whole set act invertibly, so they collapse into a unit
    lattice: they are the generators in the cone's lineality space, read
    off in one pass over the generators.  The remaining generators admit an
    integer functional phi, zero on the unit lattice (a line, then) and
    strictly positive on them, which sorts the classes they reach modulo
    the line into levels.

    A shifted point is in the semigroup S only if it is in the rational
    cone C (phi >= 0 and, on a pointed cone, two boundary inequalities) and
    in the group L the generators span; from the cone's *conductor* level
    on, that is enough:

    * a plane, a line, or no generators: S is L, conductor 0;
    * a pointed cone with two boundary rays is saturated (S = C n L,
      conductor 0) exactly when S holds the least points u', v' of L on
      the rays and the points of L in [0, 1) u' + [0, 1) v', which generate
      C n L (Bruns and Gubeladze, *Polytopes, Rings, and K-Theory*, ch. 2).
      Compiling checks them (:func:`_saturated`).  A cone that is not
      saturated has no conductor (None): its holes run in strips along the
      rays (Katthan, *Manuscripta Math.* 146, 2015), and its levels are
      closed up to the largest phi asked so far;
    * a ray or a half-plane, a rank-one quotient by the unit lattice: with
      s the least phi step, if levels k, ..., k + s - 1 hold every class of
      L then so do all later ones (add the generator of step s).  The
      least such k is the conductor; in rank one, the Frobenius number plus
      one.  Its levels are closed as queries ask for them, and the first
      query at or past the conductor closes them up to it and no further.

    The row (``_row``) is the offset's plane coordinates, phi, the two
    boundary normals (zero but on a pointed cone), L in echelon form
    ``(A, B, C)`` (see :func:`_lattice`), the held pair (levels, run) that
    :func:`_grow` keeps, and what closing levels needs: the unit lattice in
    echelon form, the phi steps and, on a ray or a half-plane, when a level
    is full (:func:`_full_levels`).  The levels held are those below the
    conductor once it is known, and none on a saturated cone.
    :func:`_outside` reads the row, for this cone alone or for every cone of
    a :class:`McmTest`.  It holds no reference to the cone, so a dropped
    cone is freed at once.
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
        a, b, c = _lattice(units)
        lat = _lattice(gens)
        normals = (0, 0, 0, 0)
        pointed = bounds and bounds[0] != bounds[1]
        if bounds:
            (ux, uy), (vx, vy) = bounds
            # on a pointed cone phi is the sum of the two boundary normals
            phi = (vy - uy, ux - vx) if pointed else bounds[0]
            normals = (-uy, ux, vy, -vx)
        elif rest:
            assert not (a and c), "unit directions must be collinear"
            phi = _off_line(rest, (a, b) if a else (0, c))
        else:
            phi = (0, 0)
        px, py = phi
        steps = tuple((px * gx + py * gy, gx, gy) for gx, gy in rest)
        if not steps or pointed and _saturated(bounds, lat, rest):
            held, full = [[], None], None
        else:
            held, full = [[], 0], None if pointed else _full_levels(phi, lat, (a, b, c), steps)
        ox, oy = _plane(offset)
        self.__dict__.update(offset=offset, generators=generators,
                             _row=(ox, oy, px, py, *normals, *lat, held, (a, b, c, steps, full)))

    @property
    def conductor(self) -> Optional[int]:
        """The least phi level from which every point of the cone that lies
        in the generators' group is in the semigroup; 0 for a saturated
        cone, None for a pointed cone that is not saturated.  On a ray or a
        half-plane, asking closes the levels up to it."""
        held, below = self._row[-2:]
        if held[1] is not None:
            if below[4] is None:
                return None
            _grow(held, None, below)
        return len(held[0])

    def contains(self, chi: Vec) -> bool:
        """Is chi one of the cone's non-MCM characters?"""
        _check_rank(chi, len(self.offset))
        return not _outside((self._row,), _plane(chi))


def _outside(rows: tuple[tuple, ...], chi: Vec) -> bool:
    """Is the plane point chi in none of the compiled cones?  For each row:
    shift by the offset and test phi and the boundary inequalities; then,
    below the conductor, look the class up in the held levels, and at or
    above it test membership in L.  A cone whose conductor is not known yet
    closes its levels up to the query's, or to the conductor if that comes
    first."""
    x0, y0 = chi
    for ox, oy, px, py, nx, ny, mx, my, a, b, c, held, below in rows:
        x = x0 - ox
        y = y0 - oy
        level = px * x + py * y
        if level < 0 or nx * x + ny * y < 0 or mx * x + my * y < 0:
            continue
        levels, run = held
        if level >= len(levels) and run is not None:
            levels = _grow(held, level, below)
        if level < len(levels):
            if _in_level(levels[level], x, y, below):
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


def _in_level(classes: set[Vec], x: int, y: int, below: tuple) -> bool:
    """Is the class of (x, y) modulo the unit lattice one of ``classes``?"""
    a, b, c, _, _ = below
    if a:
        k = x // a
        x -= k * a
        y -= k * b
    if c:
        y %= c
    return (x, y) in classes


def _grow(held: list, level: Optional[int], below: tuple) -> list[set[Vec]]:
    """Close a cone's levels, classes modulo its unit lattice, up to
    ``level`` (None: no bound), and on a ray or a half-plane stop at the
    conductor: the first level k with levels k, ..., k + s - 1 all full, s
    the least phi step (see :class:`NonMcmCone`).  ``held`` is the pair
    (levels, run), run being how many full levels end the list, or None
    once the conductor is the list's length.  New levels are built on a
    copy that replaces the pair only when complete, so no query ever reads
    a half-closed level."""
    a, b, c, steps, full = below
    levels, run = held
    levels = list(levels)
    while level is None or len(levels) <= level:
        n = len(levels)
        reached = set() if n else {(0, 0)}
        for cost, gx, gy in steps:
            if cost <= n:
                for x, y in levels[n - cost]:
                    x += gx
                    y += gy
                    if a:
                        k = x // a
                        x -= k * a
                        y -= k * b
                    if c:
                        y %= c
                    reached.add((x, y))
        levels.append(reached)
        if full:
            step, classes, least = full
            run = run + 1 if n % step or len(reached) == classes else 0
            if run == least:
                del levels[n - least + 1:]
                run = None
                break
    held[:] = levels, run
    return levels


def _full_levels(phi: Vec, lat: tuple[int, int, int], units: tuple[int, int, int],
                 steps: tuple[tuple[int, int, int], ...]) -> tuple[int, int, int]:
    """For a ray or a half-plane: (g, classes, least).  The group L the
    generators span meets the phi levels that g divides, each in
    ``classes`` classes modulo the unit lattice (one on a ray); a level is
    full when it holds them all, and ``least`` is the least phi step."""
    px, py = phi
    A, B, C = lat
    p, q = px * A + py * B, py * C  # phi on the basis (A, B), (0, C) of L
    g = gcd(p, q)
    m = gcd(*units)  # the unit lattice is m times a primitive vector
    # (q (A, B) - p (0, C)) / g spans L on the unit line
    classes = m // gcd(q // g * A, (q * B - p * C) // g) if m else 1
    return g, classes, min(cost for cost, _, _ in steps)


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
    return v if len(v) == 2 else (v[0], 0)


def _check_rank(v: Sequence[int], rank: int) -> None:
    if len(v) != rank:
        raise ValueError(f"expected a vector of rank {rank}, got {tuple(v)}")


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
    rows (:func:`_outside`); rank one runs on the first axis.  Calling the
    test checks the rank of chi; :meth:`of` reuses the test a
    :class:`~hibinccr.classgroup.ClassGroupData` already holds.

    Every cone with a known conductor answers in constant time and
    memory.  The saturated cones know it when compiled: a fresh test on
    ``corpus/rank2_demo.cone`` answers (3000, 0) in about 0.4 ms, compile
    included, at a tracemalloc peak of 0.01 MiB (52 s and 754 MiB when
    every cone closed levels).  Deciding saturation walks at most
    len(generators) + 1 Hilbert basis points, so compiling stays cheap
    with large entries: 0.5-0.8 ms for random rank-two systems of 5-7
    weights with entries up to 100.  A ray or a half-plane, so every cone
    of rank one, closes levels as queries ask and stops at its conductor:
    (1000, 1001, -1000, -1001) compiles in 0.04 ms and answers a class near
    +-beta in microseconds, and the first query at or past beta + F, F the
    Frobenius number of N<|w_i|>, closes the 999000 levels below the
    conductor once (0.8 s, 255 MiB); (3, 7, -4, -6) answers (10**5,) in
    0.06 ms.

    A pointed cone that is not saturated has no conductor: its levels grow
    with the queries that pass its inequalities and live as long as the
    test, so a far query costs time and memory quadratic in its distance.
    On (-1, -3), (3, -4), (2, 2), (-4, 3), (0, -1), (0, 3), with 7 such
    cones of 10, a fresh test takes 34 ms and 5 MiB at (100, 0), 0.36 s and
    49 MiB at (300, 0), 5 s and 617 MiB at (1000, 0).  Random weights with
    large entries are mostly of this kind.
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
        # rank one runs on the first axis, embedded here once
        self._decide = decide if self.rank == 2 else lambda chi: decide((chi[0], 0))

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
        the Frobenius number of N<|w_i|> (or beta - 1 when that is N)."""
        if self.rank != 1:
            raise ValueError("the reach of the MCM classes is a rank-one bound")
        return max(abs(cone.offset[0]) + cone.conductor - 1 for cone in self.cones)

    def __call__(self, chi: Vec) -> bool:
        """Is the rank-one class chi MCM?"""
        _check_rank(chi, self.rank)
        return self._decide(chi)


def is_mcm(chi: Vec, weights: WeightsLike) -> bool:
    """Is the rank-one class MCM?  Both ranks run the chamber criterion,
    whose hypothesis must hold (see :class:`McmTest`).

    A :class:`~hibinccr.classgroup.ClassGroupData` holds its compiled
    :class:`McmTest`, so repeated queries against it share one compilation.
    A plain weight sequence is compiled on every call; to ask many questions
    of one, build ``McmTest(weights)`` once and call it.  A query costs the
    same at any distance once each cone's conductor is known; a ray or a
    half-plane (every cone of rank one) learns it from the first query that
    reaches it, which closes the levels below it once.  Inside a pointed
    non-MCM cone that is not saturated the cost grows quadratically with
    the distance (see :class:`McmTest`); no cone of the families or of the
    corpus is one.
    """
    test = McmTest.of(weights)
    _check_rank(chi, test.rank)
    return test._decide(chi)


def mcm_region(weights: WeightsLike, box: Sequence[tuple[int, int]]) -> set[Vec]:
    """All MCM classes inside the box (inclusive coordinate ranges): the
    points that no compiled non-MCM cone contains, as :func:`is_mcm` decides
    them pointwise.  The test is compiled once per call, or taken from the
    class group that holds it."""
    test = McmTest.of(weights)
    if len(box) != test.rank:
        raise ValueError(f"expected a box of rank {test.rank}, got {len(box)} ranges")
    return set(filter(test._decide, product(*(range(lo, hi + 1) for lo, hi in box))))

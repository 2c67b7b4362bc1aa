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
offset, unit lattice, phi and a handle on its closed levels) is read by
the one membership engine, :func:`_outside`: a flat loop over rows that
serves :meth:`NonMcmCone.contains`, :func:`semigroup_member` and the
compiled test of a whole weight system, :class:`McmTest`.  Compiling takes
one pass over the weights for the chambers (integer pairings of each piece
with the distinct weights) and one over each cone's generators for its
units and phi.

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
    the line into finite levels; the levels are closed up to the largest
    phi asked so far.

    The row (``_row``) is the offset's plane coordinates, phi, the unit
    lattice in echelon form ``(a, b, c)`` (see :func:`_unit_lattice`), the
    phi steps and a one-element list holding the closed levels; it is what
    :func:`_outside` reads, for this cone alone or for every cone of a
    :class:`McmTest`.  It holds no reference to the cone, so a dropped cone
    is freed at once.
    """

    _fields = ("offset", "generators")

    def __init__(self, offset: Vec, generators: tuple[Vec, ...]) -> None:
        rank = len(offset)
        if rank not in (1, 2):
            raise ValueError("non-MCM cones are implemented for rank 1 and 2")
        for g in generators:
            _check_rank(g, rank)
        gens = sorted({_plane(g) for g in generators} - {(0, 0)})
        units, rest, phi = _split_units(gens)
        a, b, c = _unit_lattice(units)
        if phi is None:
            assert not (a and c), "unit directions must be collinear"
            phi = _off_line(rest, (a, b) if a else (0, c))
        px, py = phi
        steps = tuple((px * gx + py * gy, gx, gy) for gx, gy in rest)
        ox, oy = _plane(offset)
        self.__dict__.update(offset=offset, generators=generators,
                             _row=(ox, oy, px, py, a, b, c, steps, [[{(0, 0)}]]))

    def contains(self, chi: Vec) -> bool:
        """Is chi one of the cone's non-MCM characters?"""
        _check_rank(chi, len(self.offset))
        return not _outside((self._row,), _plane(chi))


def _outside(rows: tuple[tuple, ...], chi: Vec) -> bool:
    """Is the plane point chi in none of the compiled cones?  For each row:
    shift by the offset, test the phi level, reduce modulo the unit lattice
    and look the class up in the reached level.  A cone without steps has
    phi = 0 and only level 0, the zero class, so it tests lattice
    membership."""
    x0, y0 = chi
    for ox, oy, px, py, a, b, c, steps, held in rows:
        x = x0 - ox
        y = y0 - oy
        level = px * x + py * y
        if level < 0:
            continue
        if a:
            k = x // a
            x -= k * a
            y -= k * b
        if c:
            y %= c
        levels = held[0]
        if level >= len(levels):
            levels = _grow(held, level, a, b, c, steps)
        if (x, y) in levels[level]:
            return False
    return True


def _grow(held: list, level: int, a: int, b: int, c: int,
          steps: tuple[tuple[int, int, int], ...]) -> list[set[Vec]]:
    """Close a cone's levels up to ``level``.  New levels are built on a
    copy that replaces the held list only when complete, so no query ever
    reads a half-closed level."""
    new = list(held[0])
    while len(new) <= level:
        n = len(new)
        reached = set()
        for cost, gx, gy in steps:
            if cost <= n:
                for x, y in new[n - cost]:
                    x += gx
                    y += gy
                    if a:
                        k = x // a
                        x -= k * a
                        y -= k * b
                    if c:
                        y %= c
                    reached.add((x, y))
        new.append(reached)
    held[0] = new
    return new


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


def _split_units(gens: Sequence[Vec]) -> tuple[list[Vec], list[Vec], Optional[Vec]]:
    """(units, rest, phi) for sorted distinct nonzero plane generators.

    The units are the generators whose negative lies in the rational cone
    of all of them, that is, the generators in the cone's lineality space.
    One pass keeps the cone's two boundary generators while the cone stays
    pointed; then there are no units, and phi is positive on the cone (the
    boundary direction itself when there is one).  A cone that holds a line
    is a half-plane, the line, or the plane.  A half-plane is bounded by
    the line of two opposite generator directions with every generator on
    one side: its units are the generators on that line, and phi (None
    here) is left to :func:`_off_line`.  Otherwise, and on the line, every
    generator is a unit and there is no phi (``(0, 0)``)."""
    if not gens:
        return [], [], (0, 0)
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
        u, v = primitive(lo), primitive(hi)
        return [], list(gens), u if u == v else (v[1] - u[1], u[0] - v[0])
    dirs = {(x // g, y // g) for x, y in gens for g in (gcd(x, y),)}
    for ux, uy in dirs:
        if (-ux, -uy) in dirs:  # both are tried, so one side suffices
            sides = [ux * gy - uy * gx for gx, gy in gens]
            if min(sides) >= 0:
                rest = [g for g, side in zip(gens, sides) if side]
                return ([g for g, side in zip(gens, sides) if not side], rest,
                        None if rest else (0, 0))
    return list(gens), [], (0, 0)


def _off_line(rest: Sequence[Vec], line: Vec) -> Vec:
    """The normal of the unit line, in the sign that is strictly positive
    on the remaining generators."""
    for phi in ((-line[1], line[0]), (line[1], -line[0])):
        if all(phi[0] * g[0] + phi[1] * g[1] > 0 for g in rest):
            return phi
    raise AssertionError("generators not separated from the unit line")


def _unit_lattice(units: Sequence[Vec]) -> tuple[int, int, int]:
    """The lattice spanned by the units in echelon form (a, b, c), a, c >= 0:
    its points are k (a, b) + m (0, c).  Each class modulo it has exactly one
    representative with 0 <= x < a when a > 0 and 0 <= y < c when c > 0."""
    a = b = c = 0
    for x, y in units:
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
    rows (:func:`_outside`); rank one runs on the first axis.  The reached
    levels grow with the queries and live as long as the test.  Calling the
    test checks the rank of chi; :meth:`of` reuses the test a
    :class:`~hibinccr.classgroup.ClassGroupData` already holds.

    A far query is slow: it closes every cone's levels up to its own phi
    level.  A rank-two level set grows linearly with the level, so the cost
    is quadratic: a fresh test on ``corpus/rank2_demo.cone`` takes about
    50 ms and 0.7 MiB (tracemalloc peak) at (100, 0), 5.7 s and 77 MiB at
    (1000, 0), 52 s and 754 MiB at (3000, 0).  A rank-one level holds at
    most one class, so the cost is linear: on (3, 7, -4, -6), 20 ms and
    0.27 MiB at (10**3,), 0.2 s and 2.9 MiB at (10**4,), 2.2 s and 30 MiB
    at (10**5,); compiling takes 26-42 us.  A proven bound on the non-MCM
    holes would cap the cost; in rank one it is the Frobenius number of
    N<|w_i|> plus one.
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
    of one, build ``McmTest(weights)`` once and call it.  The cost of a
    query grows with its distance from the origin, quadratically in rank 2
    and linearly in rank 1 (see :class:`McmTest`): (1000, 0) on
    ``corpus/rank2_demo.cone`` takes seconds.
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

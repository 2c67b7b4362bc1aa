"""Rank-one maximal Cohen-Macaulay classes via the one-parameter-subgroup
criterion.

The unit ball of one-parameter subgroups is cut into chambers on which the
set of negatively-pairing divisor weights is constant.  Every chamber that
contains both of its boundary rays, and every open sector, contributes an
affine semigroup of non-MCM characters; a class is MCM iff it avoids all of
them (half-open chambers never matter).
All decisions are exact integer arithmetic.  Each of those chambers is
compiled once into a :class:`NonMcmCone`, the one membership engine: its
membership function, closed over plain integers, serves
:meth:`NonMcmCone.contains`, :func:`semigroup_member` and the compiled test
of a whole weight system, :class:`McmTest`.

Whoever owns the weights holds their compiled test.  A
:class:`~hibinccr.classgroup.ClassGroupData` keeps it as an instance
attribute (``mcm_test``), built on first use and freed with it; a plain
weight sequence is compiled on every call of :func:`is_mcm` or
:func:`mcm_region`, and a caller with many questions about one sequence
compiles it once with :class:`McmTest` (as ``nccr.endomorphism_is_mcm``
does).  Nothing is cached at module level.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd
from typing import Callable, NamedTuple, Optional, Sequence

from .classgroup import ClassGroupData
from .divisorial import WeightsLike, weight_list
from .intlattice import Vec, angle_key, cross, dot, primitive
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

    The cone is compiled once into plain integers and then answers
    :meth:`contains` for any number of characters; rank one is the rank-two
    case on the first axis.  Generators whose negative lies in the rational
    cone of the whole set act invertibly, so they collapse into a unit
    lattice.  The remaining generators admit an integer functional phi, zero
    on the unit lattice (a line, then) and strictly positive on them, which
    sorts the classes they reach modulo the line into finite levels; the
    levels are closed up to the largest phi asked so far.  The compiled test
    is one function of the two plane coordinates of a character
    (``_member``); it holds no reference to the cone, so a dropped cone is
    freed at once.
    """

    _fields = ("offset", "generators")

    def __init__(self, offset: Vec, generators: tuple[Vec, ...]) -> None:
        rank = len(offset)
        if rank not in (1, 2):
            raise ValueError("non-MCM cones are implemented for rank 1 and 2")
        for g in generators:
            _check_rank(g, rank)
        gens = sorted({_plane(g) for g in generators} - {(0, 0)})
        units = [g for g in gens if _in_cone_2d((-g[0], -g[1]), gens)]
        rest = [g for g in gens if g not in units]
        lattice = _unit_lattice(units)
        phi = (0, 0)
        if rest:
            a, b, c = lattice
            assert not (a and c), "unit directions must be collinear"
            phi = _positive_functional(rest, (a, b) if a else (0, c) if c else None)
        steps = tuple((dot(phi, g), g[0], g[1]) for g in rest)
        self.__dict__.update(offset=offset, generators=generators,
                             _member=_member_test(_plane(offset), lattice, phi, steps))

    def contains(self, chi: Vec) -> bool:
        """Is chi one of the cone's non-MCM characters?"""
        _check_rank(chi, len(self.offset))
        return self._member(*_plane(chi))


def _member_test(offset: Vec, lattice: tuple[int, int, int], phi: Vec,
                 steps: tuple[tuple[int, int, int], ...]) -> Callable[[int, int], bool]:
    """Membership in one compiled cone, as a function of chi's plane
    coordinates: shift by the offset, test the phi level, reduce modulo the
    unit lattice (echelon form, see :func:`_unit_lattice`) and look the class
    up in the reached level.  A cone without steps has phi = 0 and only
    level 0, the zero class, so it tests lattice membership.  New levels
    are built on a copy that replaces the stored list only when complete,
    so no query ever reads a half-closed level."""
    ox, oy = offset
    a, b, c = lattice
    px, py = phi
    levels = [{(0, 0)}]

    def member(x: int, y: int) -> bool:
        x -= ox
        y -= oy
        level = px * x + py * y
        if level < 0:
            return False
        if a:
            k = x // a
            x -= k * a
            y -= k * b
        if c:
            y %= c
        reached = levels if level < len(levels) else grow(level)
        return (x, y) in reached[level]

    def grow(level: int) -> list[set[Vec]]:
        nonlocal levels
        new = list(levels)
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
        levels = new
        return new

    return member


def _plane(v: Vec) -> Vec:
    return v if len(v) == 2 else (v[0], 0)


def _check_rank(v: Sequence[int], rank: int) -> None:
    if len(v) != rank:
        raise ValueError(f"expected a vector of rank {rank}, got {tuple(v)}")


def _pairing_t_set(direction: Vec, ws: Sequence[Vec]) -> tuple[int, ...]:
    return tuple(i for i, w in enumerate(ws) if dot(direction, w) < 0)


def chamber_decomposition(weights: WeightsLike) -> ChamberDecomposition:
    """Split the nonzero directions into maximal classes with constant
    negative-pairing set; classes are ordered counterclockwise starting with
    the sector just past the first critical ray."""
    ws = weight_list(weights)
    rank = _weight_rank(ws)
    if rank == 1:
        chambers = tuple(
            Chamber(t_set=_pairing_t_set(lam, ws), kind=CLOSED, witness=lam)
            for lam in ((1,), (-1,)))
        return _with_hypothesis(chambers)
    if rank != 2:
        raise ValueError("chamber decomposition implemented for rank 1 and 2")

    rays: set[Vec] = set()
    for w in ws:
        if w == (0, 0):
            continue
        n = primitive((-w[1], w[0]))
        rays.add(n)
        rays.add((-n[0], -n[1]))
    if not rays:
        raise ValueError("all weights are zero")
    ordered = sorted(rays, key=angle_key)

    # atomic pieces, counterclockwise: sector after ray i, then ray i+1; the
    # list ends with the first ray itself
    pieces: list[tuple[str, Vec]] = []
    m = len(ordered)
    for i in range(m):
        a = ordered[i]
        b = ordered[(i + 1) % m]
        if cross(a, b) > 0:
            mid: Vec = (a[0] + b[0], a[1] + b[1])
        else:  # opposite rays: the gap is half a turn
            mid = (-a[1], a[0])
        pieces.append(("sector", primitive(mid)))
        pieces.append(("ray", b))

    t_sets = [_pairing_t_set(wit, ws) for _, wit in pieces]

    runs: list[list[int]] = []
    for idx in range(len(pieces)):
        if runs and t_sets[runs[-1][-1]] == t_sets[idx]:
            runs[-1].append(idx)
        else:
            runs.append([idx])
    if len(runs) > 1 and t_sets[runs[0][0]] == t_sets[runs[-1][-1]]:
        runs[0] = runs[-1] + runs[0]
        runs.pop()
    assert len(runs) >= 2, "degenerate decomposition: constant pairing sets"

    chambers = []
    for run in runs:
        starts_with_ray = pieces[run[0]][0] == "ray"
        ends_with_ray = pieces[run[-1]][0] == "ray"
        included = int(starts_with_ray) + int(ends_with_ray)
        if len(run) == 1 and starts_with_ray:
            included = 2  # a lone ray is its own closed boundary
        kind = {2: CLOSED, 1: HALF_OPEN, 0: OPEN}[included]
        chambers.append(Chamber(t_set=t_sets[run[0]], kind=kind,
                                witness=pieces[run[0]][1]))
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
    offset = [0] * rank
    gens: set[Vec] = set()
    for i, w in enumerate(ws):
        if i in t:
            gens.add(w)
        else:
            for k in range(rank):
                offset[k] -= w[k]
            gens.add(tuple(-c for c in w))
    gens.discard((0,) * rank)
    return NonMcmCone(offset=tuple(offset), generators=tuple(sorted(gens)))


# ---------------------------------------------------------------------------
# exact membership in a finitely generated affine semigroup (rank <= 2)


def semigroup_member(target: Vec, generators: Sequence[Vec]) -> bool:
    """Is the target a non-negative integer combination of the generators?
    Exact for arbitrary generator sets in rank 1 or 2 (see :class:`NonMcmCone`)."""
    zero = (0,) * len(target)
    return NonMcmCone(zero, tuple(tuple(g) for g in generators)).contains(target)


def _in_cone_2d(p: Vec, gens: Sequence[Vec]) -> bool:
    """Rational cone membership in the plane; two generators suffice for any
    conic combination, so pairs are enough to test."""
    if p == (0, 0):
        return True
    for g in gens:
        if cross(g, p) == 0 and dot(g, p) > 0:
            return True
    for g, h in combinations(gens, 2):
        det = cross(g, h)
        if det == 0:
            continue
        a_num = cross(p, h)
        b_num = cross(g, p)
        if det < 0:
            a_num, b_num = -a_num, -b_num
        if a_num >= 0 and b_num >= 0:
            return True
    return False


def _positive_functional(rest: Sequence[Vec], lat: Optional[Vec]) -> Vec:
    """Integer functional vanishing on the unit line (if any) and strictly
    positive on the remaining generators."""
    if lat is not None:
        for phi in ((-lat[1], lat[0]), (lat[1], -lat[0])):
            if all(dot(phi, g) > 0 for g in rest):
                return phi
        raise AssertionError("generators not separated from the unit line")
    dirs = sorted({primitive(g) for g in rest})
    if len(dirs) == 1:
        return dirs[0]
    for u, v in ((u, v) for u in dirs for v in dirs if u != v):
        if cross(u, v) <= 0:
            continue
        if all(cross(u, g) >= 0 and cross(g, v) >= 0 for g in dirs):
            phi = (v[1] - u[1], u[0] - v[0])
            assert all(dot(phi, g) > 0 for g in rest)
            return phi
    raise AssertionError("generator cone is not pointed")


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


def _check_gorenstein(ws: Sequence[Vec]) -> None:
    rank = len(ws[0]) if ws else 0
    if any(sum(w[k] for w in ws) != 0 for k in range(rank)):
        raise NotGorensteinError("weight system does not sum to zero")


def rank1_mcm_interval(ws: Sequence[Vec]) -> tuple[int, int]:
    beta = -sum(w[0] for w in ws if w[0] < 0)
    return (-beta + 1, beta - 1)


def _weight_rank(ws: Sequence[Vec]) -> int:
    if not ws:
        raise ValueError("empty weight system")
    return len(ws[0])


class McmTest:
    """The MCM test of one weight system, compiled once.

    Rank 1 is an interval test.  Rank 2 holds the :class:`NonMcmCone` of
    every closed chamber and open sector (``cones``) and asks each cone's
    membership function in turn; their reached levels grow with the queries
    and live as long as the test.  Calling the test checks the rank of chi.
    Build one with :meth:`of` to reuse the test a
    :class:`~hibinccr.classgroup.ClassGroupData` already holds.

    A query far from the origin is slow: it closes every cone's levels up
    to its own phi level, and each level set grows linearly with the level,
    so time and memory grow quadratically with the query's distance.  On
    ``corpus/rank2_demo.cone`` a fresh test asked about (100, 0) takes about
    50 ms and 0.7 MiB (tracemalloc peak), (1000, 0) 5.7 s and 77 MiB, and
    (3000, 0) 52 s and 754 MiB.  Bounding it needs a proven bound on the
    non-MCM holes.
    """

    def __init__(self, weights: WeightsLike):
        ws = weight_list(weights)
        self.rank = _weight_rank(ws)
        _check_gorenstein(ws)
        if self.rank == 1:
            lo, hi = rank1_mcm_interval(ws)
            self.cones: tuple[NonMcmCone, ...] = ()
            self._decide: Callable[[Vec], bool] = lambda chi: lo <= chi[0] <= hi
            return
        decomposition = chamber_decomposition(ws)
        if not decomposition.hypothesis_ok:
            raise CriterionHypothesisError(
                f"criterion hypothesis fails on chambers {decomposition.hypothesis_failures}")
        self.cones = tuple(non_mcm_cone(chamber, ws) for chamber in decomposition.chambers
                           if chamber.kind != HALF_OPEN)
        members = tuple(cone._member for cone in self.cones)

        def decide(chi: Vec) -> bool:
            x, y = chi
            for member in members:
                if member(x, y):
                    return False
            return True
        self._decide = decide

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
    """Is the rank-one class MCM?  Rank 1 reduces to an interval test; rank 2
    runs the chamber criterion (whose hypothesis must hold).

    A :class:`~hibinccr.classgroup.ClassGroupData` holds its compiled
    :class:`McmTest`, so repeated queries against it share one compilation.
    A plain weight sequence is compiled on every call; to ask many questions
    of one, build ``McmTest(weights)`` once and call it.  The cost of a
    rank-2 query grows quadratically with its distance from the origin (see
    :class:`McmTest`): (1000, 0) on ``corpus/rank2_demo.cone`` takes seconds.
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

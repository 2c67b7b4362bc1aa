"""Gorenstein toric rings with infinite cyclic class group.

The divisor weights are coprime integers summing to zero, at least two of
each sign; beta is minus the sum of the negative ones.  The conic classes
form the interval [-beta + 1, beta - 1], every basic module giving a
splitting NCCR is a window of beta consecutive classes, and in dimension
three the windows are connected by mutations at their end summands, giving
a path as the exchange graph.

T(chi) is MCM unless +-chi - beta lies in the numerical semigroup
N<|w_i|>: the MCM classes are the interval and +-(beta + g) for each gap g
(none when a weight is +-1; +-11, +-12 and +-15 on (3, 7, -4, -6)).
Sketch: H^i_m(T(chi)) is the degree-chi part of the local cohomology of the
Cox ring S on the nullcone V(x+) u V(x-), which by Mayer-Vietoris is
H^p_(x+)(S) + H^q_(x-)(S) for i <= n - 2, in degrees -+(beta + N<|w_i|>):
the chamber cones of ``mcm.McmTest`` (proof: ``tests/oracles.py``).
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple, Optional

from .classgroup import ClassGroupData
from .intlattice import Vec
from .record import Record


class Rank1InputError(ValueError):
    """Weight system outside the supported shape (needs two weights of each
    sign, total zero, coprime)."""


class Rank1Weights(Record):
    """Divisor weights of a rank-one class group, sorted ascending."""

    _fields = ("weights",)

    def __init__(self, weights: tuple[int, ...]) -> None:
        if any(w == 0 for w in weights):
            raise Rank1InputError("zero weights are not allowed")
        if sum(weights) != 0:
            raise Rank1InputError("weights must sum to zero (Gorenstein)")
        if sum(1 for w in weights if w > 0) < 2 or sum(1 for w in weights if w < 0) < 2:
            raise Rank1InputError("need at least two weights of each sign")
        g = 0
        for w in weights:
            g = gcd(g, abs(w))
        if g != 1:
            raise Rank1InputError("weights must be coprime")
        self.__dict__["weights"] = tuple(sorted(weights))

    @staticmethod
    def from_class_group(cgd: ClassGroupData) -> "Rank1Weights":
        if cgd.rank != 1:
            raise Rank1InputError(f"class group rank is {cgd.rank}, not 1")
        return Rank1Weights(weights=tuple(sorted(w[0] for w in cgd.weights)))

    @property
    def negatives(self) -> tuple[int, ...]:
        return tuple(w for w in self.weights if w < 0)

    @property
    def positives(self) -> tuple[int, ...]:
        return tuple(w for w in self.weights if w > 0)

    @property
    def dimension(self) -> int:
        """Krull dimension of the ring: one less than the weight count."""
        return len(self.weights) - 1

    def as_vectors(self) -> list[Vec]:
        return [(w,) for w in self.weights]


class McmBound(NamedTuple):
    """Number of NCCR summands and the conic interval, all of it MCM."""

    summands: int
    interval: tuple[int, int]


def mcm_interval(weights: Iterable[int]) -> tuple[int, int]:
    """The least and greatest conic class, -beta + 1 and beta - 1, of plain
    integer weights, unvalidated; beta is minus the sum of the negative ones.
    All of it is MCM, and unless a weight is +-1 some classes outside."""
    beta = -sum(w for w in weights if w < 0)
    return (-beta + 1, beta - 1)


def mcm_bound(w: Rank1Weights) -> McmBound:
    """The summand count beta and the conic interval (:func:`mcm_interval`),
    whose classes are all MCM."""
    lo, hi = mcm_interval(w.weights)
    return McmBound(summands=hi + 1, interval=(lo, hi))


class Window(NamedTuple):
    """Consecutive divisorial-ideal classes T(lo), ..., T(lo+size-1)."""

    lo: int
    size: int

    @property
    def hi(self) -> int:
        return self.lo + self.size - 1

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(range(self.lo, self.lo + self.size))

    def label(self) -> str:
        return f"T[{self.lo}..{self.hi}]"


def base_window(w: Rank1Weights) -> Window:
    """The window starting at 0; all windows of this length, and only those,
    are the basic modules giving splitting NCCRs."""
    return Window(lo=0, size=mcm_bound(w).summands)


class MutationResult(NamedTuple):
    window: Window
    mutated_class: int
    kernel_class: int
    middle_classes: tuple[int, int]


def mutate_window(win: Window, end: str, w: Rank1Weights) -> MutationResult:
    """Mutation at an end summand (dimension three only).

    Replacing the low-end summand shifts the window up by one; the defining
    short exact sequence has middle terms shifted by the negative weight
    magnitudes and kernel shifted by the full summand count.  The high end
    mirrors this through the positive weights.
    """
    if w.dimension != 3:
        raise Rank1InputError("end mutations are defined for dimension 3 "
                              "(exactly four weights)")
    beta = mcm_bound(w).summands
    if win.size != beta:
        raise ValueError(f"window size {win.size} does not give an NCCR "
                         f"(needs {beta})")
    if end == "low":
        c = win.lo
        shifts = tuple(sorted(-v for v in w.negatives))
        result = Window(lo=win.lo + 1, size=win.size)
        kernel = c + beta
        middles = (c + shifts[0], c + shifts[1])
    elif end == "high":
        c = win.hi
        shifts = tuple(sorted(w.positives))
        result = Window(lo=win.lo - 1, size=win.size)
        kernel = c - beta
        middles = (c - shifts[1], c - shifts[0])
    else:
        raise ValueError("end must be 'low' or 'high'")
    for cls in (kernel, *middles):
        assert result.lo <= cls <= result.hi, "approximation data left the window"
    return MutationResult(window=result, mutated_class=c, kernel_class=kernel,
                          middle_classes=middles)


class ExchangeGraph(NamedTuple):
    vertices: tuple[Window, ...]
    edges: tuple[tuple[int, int, int], ...]  # (index, index, mutated T-class)
    edge_error: Optional[str] = None


def exchange_graph(w: Rank1Weights, generators_only: bool = True,
                   radius: Optional[int] = None) -> ExchangeGraph:
    """The mutation graph on windows: a path.

    With ``generators_only`` (no radius) the vertices are the windows
    containing class 0; otherwise all windows with |lo| up to the radius,
    which must not be negative.  Edges need dimension three; for other
    dimensions the vertex list is still returned, with the error recorded.
    """
    if radius is not None and generators_only:
        raise Rank1InputError("radius applies only without generators_only")
    if radius is not None and radius < 0:
        raise Rank1InputError(f"radius must be non-negative, not {radius}")
    beta = mcm_bound(w).summands
    if generators_only:
        los = range(-beta + 1, 1)
    else:
        r = beta if radius is None else radius
        los = range(-r, r + 1)
    vertices = tuple(Window(lo=lo, size=beta) for lo in los)
    if w.dimension != 3:
        return ExchangeGraph(vertices=vertices, edges=(),
                             edge_error="mutation edges need dimension 3 "
                                        "(exactly four weights)")
    edges = []
    for i in range(len(vertices) - 1):
        # vertices[i+1] is vertices[i] shifted up; the move between them
        # mutates the low end of the lower window
        edges.append((i, i + 1, vertices[i].lo))
    return ExchangeGraph(vertices=vertices, edges=tuple(edges))


def exchange_graph_dot(graph: ExchangeGraph, generators_only: bool = True) -> str:
    """Render as DOT; generator windows also carry their module label."""
    lines = ["graph exchange {", "  rankdir=LR;"]
    for i, v in enumerate(graph.vertices):
        label = v.label()
        if generators_only:
            label = f"M({-v.lo}) = {label}"
        lines.append(f'  w{i} [label="{label}"];')
    for i, j, cls in graph.edges:
        lines.append(f'  w{i} -- w{j} [label="T({cls})"];')
    if graph.edge_error:
        lines.append(f"  // edges omitted: {graph.edge_error}")
    lines.append("}")
    return "\n".join(lines) + "\n"

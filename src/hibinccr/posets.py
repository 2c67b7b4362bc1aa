"""Finite bounded posets and the graph primitives built on their Hasse diagrams.

A poset is read from a small text format declaring its elements and cover
pairs.  A global minimum ``bot`` and maximum ``top`` are adjoined
automatically, so every :class:`BoundedPoset` is bounded and its Hasse graph
is connected.  Elements are numbered once, when the elements line is read:
``bot`` is position 0, the interior names in sorted order are 1..n and
``top`` is n + 1.  The order checks, the edge walk and the stored edges are
on positions, and so are the chain, circuit and tree walks; names are built
only for output.  Everything downstream (class groups, conic polytopes, MCM
regions) consumes the edge list of this graph, so edge indices are kept
stable and canonical: they depend only on the abstract poset, never on the
order cover pairs were written in.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .record import Record

BOTTOM = "bot"
TOP = "top"

_NAME_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")
_COVER_RE = re.compile(r"^cover:\s*(\S+)\s*<\s*(\S+)\s*$")


class PosetError(ValueError):
    """Malformed poset input (syntax, cycles, non-Hasse cover pairs)."""


class Circuit(NamedTuple):
    """A chordless cycle of the Hasse graph with its up/down edge partition.

    ``x_plus`` / ``x_minus`` hold the edge indices traversed upward resp.
    downward along ``vertex_cycle``.  The conic polytope reads them against
    the cotree of a class group (``divisorial.conic_polytope``).
    """

    vertex_cycle: tuple[str, ...]
    x_plus: tuple[int, ...]
    x_minus: tuple[int, ...]


class TreeSelection(NamedTuple):
    """A spanning tree of the Hasse graph; the cotree indexes class-group
    coordinates, in ascending edge order."""

    tree_edges: frozenset[int]
    cotree_edges: tuple[int, ...]


class PurityReport(NamedTuple):
    pure: bool
    chain_length: Optional[int]  # common edge count of maximal chains, if pure


class BoundedPoset(Record):
    """A finite poset with adjoined minimum ``bot`` and maximum ``top``.

    ``elements`` lists ``bot`` first, the interior elements sorted, ``top``
    last; the position of an element in it, the numbering the parser,
    builder and graph walks work on, is its coordinate index for the cone
    of linear forms.  ``edge_ends`` lists the Hasse edges as (lower, upper)
    position pairs in canonical order (upward depth-first search from
    ``bot`` with neighbours in position order, which is name order).  No
    name is looked up: ``covers``, ``degrees`` and the incidence lists take
    and give positions.  The name pairs (``edges``) and the incidence lists
    (``_incident``) are derived on first use.
    """

    _fields = ("elements", "edge_ends")

    def __init__(self, elements: tuple[str, ...],
                 edge_ends: tuple[tuple[int, int], ...]) -> None:
        self.__dict__.update(elements=elements, edge_ends=edge_ends)

    # -- basic accessors ----------------------------------------------------

    @property
    def interior(self) -> tuple[str, ...]:
        return self.elements[1:-1]

    @property
    def dim(self) -> int:
        """Krull dimension of the associated ring: |P| + 1."""
        return len(self.elements) - 1

    @property
    def n_edges(self) -> int:
        return len(self.edge_ends)

    # cached_property stores what it derives in the instance __dict__, next
    # to the fields; only the fields count for equality, hashing and repr.

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """The Hasse edges as (lower, upper) name pairs, in edge order."""
        elements = self.elements
        return tuple((elements[l], elements[u]) for l, u in self.edge_ends)

    @cached_property
    def _incident(self) -> list[list[int]]:
        incident: list[list[int]] = [[] for _ in self.elements]
        for k, (l, u) in enumerate(self.edge_ends):
            incident[l].append(k)
            incident[u].append(k)
        return incident

    def covers(self, i: int, end: int) -> list[int]:
        """The far ends of the edges whose ``end`` end (0 lower, 1 upper) is
        position i: its upper covers for 0, its lower covers for 1, as
        positions in edge order."""
        ends = self.edge_ends
        return [ends[k][1 - end] for k in self._incident[i] if ends[k][end] == i]

    @property
    def degrees(self) -> list[int]:
        """The degree of each element, in position order."""
        return [len(ks) for ks in self._incident]


# ---------------------------------------------------------------------------
# parsing / serialization


def parse_poset(text: str) -> BoundedPoset:
    """Parse the poset file format and adjoin ``bot`` / ``top``.  The elements
    line numbers the sorted interior names from 1, and each cover line becomes
    a pair of those positions.  Rejects cyclic cover relations and cover pairs
    implied by transitivity (the input must already be a Hasse diagram)."""
    position: Optional[dict[str, int]] = None
    covers: dict[tuple[int, int], None] = {}  # insertion-ordered set
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        m = _COVER_RE.match(line)
        if m is not None and position is not None:
            a, b = m.groups()
            i, j = position.get(a), position.get(b)
            if i is None or j is None:
                raise PosetError(f"line {lineno}: unknown element {a if i is None else b!r}")
            if i == j:
                raise PosetError(f"line {lineno}: self cover {a!r} < {a!r}")
            if (i, j) in covers:
                raise PosetError(f"line {lineno}: duplicate cover {a!r} < {b!r}")
            covers[(i, j)] = None
        elif line.startswith("elements:"):
            if position is not None:
                raise PosetError(f"line {lineno}: duplicate elements line")
            try:
                position = _positions(line[len("elements:"):].split())
            except PosetError as exc:
                raise PosetError(f"line {lineno}: {exc}") from None
        elif line.startswith("cover:"):
            raise PosetError(f"line {lineno}: cover before elements line" if position is None
                             else f"line {lineno}: cannot parse cover line {line!r}")
        else:
            raise PosetError(f"line {lineno}: unrecognized line {line!r}")
    if position is None:
        raise PosetError("missing elements line")
    return _build(list(position), list(covers))


def build_poset(interior: Sequence[str], covers: Sequence[tuple[str, str]]) -> BoundedPoset:
    """The bounded poset on the interior names with these cover pairs, each
    counted once.  Names are checked as in :func:`parse_poset`, and a cover
    naming an unknown element is rejected."""
    position = _positions(interior)
    for name in chain.from_iterable(covers):
        if name not in position:
            raise PosetError(f"unknown element {name!r}")
    return _build(list(position), list(dict.fromkeys((position[a], position[b])
                                                     for a, b in covers)))


def _positions(names: Iterable[str]) -> dict[str, int]:
    """Each interior name's position, 1..n in sorted order (so the keys are
    the sorted names).  Rejects a malformed, reserved or repeated name."""
    names = list(names)
    for name in names:
        if not _NAME_RE.match(name):
            raise PosetError(f"bad element name {name!r}")
        if name in (BOTTOM, TOP):
            raise PosetError(f"{name!r} is reserved")
    position = {name: i for i, name in enumerate(sorted(names), 1)}
    if len(position) != len(names):
        raise PosetError("duplicate element")
    return position


def _build(names: Sequence[str], covers: Sequence[tuple[int, int]]) -> BoundedPoset:
    # names: the sorted interior, at positions 1..n; covers: distinct
    # (lower, upper) position pairs, in input order
    top = len(names) + 1
    up: list[list[int]] = [[] for _ in range(top + 1)]
    indeg = [0] * (top + 1)
    for a, b in covers:
        up[a].append(b)
        indeg[b] += 1
    minimal = [v for v in range(1, top) if not indeg[v]]
    order = minimal[:]  # Kahn's order, extended while it is read
    for v in order:
        for u in up[v]:
            indeg[u] -= 1
            if not indeg[u]:
                order.append(u)
    if len(order) != top - 1:
        raise PosetError("cover relation is cyclic")

    # strictly-above sets as bitsets over positions, in reverse Kahn order;
    # a cover a < b is implied when b is above another upper cover of a
    above = [0] * (top + 1)
    implied = False
    for v in reversed(order):
        reach = covered = 0
        for u in up[v]:
            reach |= above[u]
            covered |= 1 << u
        implied = implied or reach & covered
        above[v] = reach | covered
    if implied:
        a, b = next((a, b) for a, b in covers if any(above[c] >> b & 1 for c in up[a]))
        c = min(c for c in up[a] if above[c] >> b & 1)
        raise PosetError(f"cover {names[a - 1]!r} < {names[b - 1]!r} is implied "
                         f"by transitivity (via {names[c - 1]!r})")

    # Depth-first search from bot with an explicit stack of neighbour
    # iterators: each edge is appended when first scanned, and a newly seen
    # vertex is explored completely before its parent's next neighbour.
    up[0] = minimal or [top]
    for ups in up[1:top]:
        ups.sort()
        if not ups:
            ups.append(top)
    edges: list[tuple[int, int]] = []
    seen = bytearray(top + 1)  # bot is never reached again: no edge ends there
    stack = [(0, iter(up[0]))]
    while stack:
        v, neighbours = stack[-1]
        for u in neighbours:
            edges.append((v, u))
            if not seen[u]:
                seen[u] = 1
                stack.append((u, iter(up[u])))
                break
        else:
            stack.pop()
    assert all(seen[1:])
    return BoundedPoset(elements=(BOTTOM, *names, TOP), edge_ends=tuple(edges))


def serialize_poset(p: BoundedPoset) -> str:
    """Emit the file format back; elements sorted, hat edges dropped."""
    lines = ["elements: " + " ".join(p.interior)]
    pairs = sorted((l, u) for (l, u) in p.edges if l != BOTTOM and u != TOP)
    lines += [f"cover: {a} < {b}" for a, b in pairs]
    return "\n".join(lines) + "\n"


def flip(p: BoundedPoset) -> BoundedPoset:
    """The poset turned upside down (covers reversed)."""
    covers = [(u, l) for (l, u) in p.edges if l != BOTTOM and u != TOP]
    return build_poset(list(p.interior), covers)


# ---------------------------------------------------------------------------
# chains and purity


def rank_function(p: BoundedPoset) -> Optional[list[int]]:
    """Each element's edge-distance from ``bot``, indexed by position, when
    the poset is graded, else ``None``."""
    rank = [0] + [-1] * (len(p.elements) - 1)
    for l, u in p.edge_ends:  # canonical order is upward-reachable, so l is ranked
        r = rank[l] + 1
        if rank[u] < 0:
            rank[u] = r
        elif rank[u] != r:
            return None
    return rank


def is_pure(p: BoundedPoset) -> PurityReport:
    """All maximal chains of the bounded poset have equal edge count?

    This is exactly the Gorenstein test for the associated ring.
    """
    rank = rank_function(p)
    if rank is None:
        return PurityReport(pure=False, chain_length=None)
    return PurityReport(pure=True, chain_length=rank[-1])


def polynomial_extension_edge(p: BoundedPoset) -> Optional[int]:
    """First edge lying on every maximal chain, or ``None``.

    Such an edge makes the associated ring a polynomial extension; the NCCR
    pipeline refuses those inputs.
    """
    ends, incident = p.edge_ends, p._incident
    bottom, top = 0, len(p.elements) - 1
    indeg = [0] * len(p.elements)
    for _, u in ends:
        indeg[u] += 1
    to = [0] * len(p.elements)  # saturated chains from bot
    to[bottom] = 1
    order = [bottom]  # Kahn's order: an element comes after all its lower covers
    for v in order:
        for k in incident[v]:
            l, u = ends[k]
            if l == v:
                to[u] += to[v]
                indeg[u] -= 1
                if indeg[u] == 0:
                    order.append(u)
    frm = [0] * len(p.elements)  # saturated chains to top
    frm[top] = 1
    for v in reversed(order):
        for k in incident[v]:
            l, u = ends[k]
            if l == v:
                frm[v] += frm[u]
    for k, (l, u) in enumerate(ends):
        if to[l] * frm[u] == to[top]:  # to[top] counts all maximal chains
            return k
    return None


# ---------------------------------------------------------------------------
# circuits


def chordless_circuits(p: BoundedPoset) -> list[Circuit]:
    """All chordless cycles of the Hasse graph, found in its cycle space.

    Every cycle is a sum over GF(2) of the fundamental cycles of a spanning
    tree, and a nonzero sum is a single cycle exactly when its edge set is
    connected and 2-regular; the cycle is chordless when each of its
    vertices has exactly two graph neighbours on it.  One walk of the
    breadth-first tree of :func:`spanning_tree` gives each vertex's tree
    path as an edge bitset, and the fundamental cycles follow; a Gray-code
    walk reaches each of the 2^r - 1 nonzero sums with one XOR (r = |E| -
    |V| + 1, the cycle rank), and each sum is tested in O(|E|).  The cost is
    O(2^r * |E|): exponential in the cycle rank only, linear in the size of
    the poset.

    Each circuit starts at its vertex of least index and steps first to the
    smaller-indexed of that vertex's two cycle neighbours; circuits are
    returned sorted by (length, vertex indices).
    """
    ends, incident = p.edge_ends, p._incident
    root_path = [0] * len(p.elements)  # edge bitset of the tree path from bot
    for k, v, w in _tree_walk(p):
        root_path[w] = root_path[v] | (1 << k)
    # a tree edge's two root paths differ in that edge alone, so only the
    # cotree edges, ascending, leave a nonzero fundamental cycle
    fundamental = [c for c in (root_path[l] ^ root_path[u] ^ (1 << k)
                               for k, (l, u) in enumerate(ends)) if c]

    walks: list[tuple[int, ...]] = []
    element = 0
    for i in range(1, 1 << len(fundamental)):
        element ^= fundamental[(i & -i).bit_length() - 1]
        walk = _chordless_walk(element, ends, incident)
        if walk is not None:
            walks.append(walk)
    walks.sort(key=lambda w: (len(w), w))
    return [_orient(p, w) for w in walks]


def _chordless_walk(edge_bits: int, ends: Sequence[tuple[int, int]],
                    incident: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """The vertices of the edge set in canonical cycle order, or ``None``
    unless the set is one chordless cycle."""
    on_cycle: dict[int, list[int]] = {}
    while edge_bits:
        low = edge_bits & -edge_bits
        a, b = ends[low.bit_length() - 1]
        on_cycle.setdefault(a, []).append(b)
        on_cycle.setdefault(b, []).append(a)
        edge_bits ^= low
    if any(len(ws) != 2 for ws in on_cycle.values()):
        return None
    start = min(on_cycle)
    walk = [start]
    prev, cur = start, min(on_cycle[start])
    while cur != start:
        walk.append(cur)
        a, b = on_cycle[cur]
        prev, cur = cur, (b if a == prev else a)
    if len(walk) != len(on_cycle):
        return None  # two or more disjoint cycles
    members = set(walk)
    for v in walk:  # the far end of an edge (l, u) at v is l + u - v
        if sum(ends[k][0] + ends[k][1] - v in members for k in incident[v]) != 2:
            return None  # a chord
    return tuple(walk)


def _orient(p: BoundedPoset, walk: tuple[int, ...]) -> Circuit:
    ends, incident = p.edge_ends, p._incident
    ups, downs = [], []
    for i, v in enumerate(walk):
        w = walk[(i + 1) % len(walk)]
        k = next(k for k in incident[v] if ends[k][0] + ends[k][1] - v == w)
        (ups if ends[k][0] == v else downs).append(k)
    return Circuit(vertex_cycle=tuple(p.elements[v] for v in walk),
                   x_plus=tuple(sorted(ups)), x_minus=tuple(sorted(downs)))


# ---------------------------------------------------------------------------
# spanning trees


def spanning_tree(p: BoundedPoset, hint: Optional[Iterable[int]] = None) -> TreeSelection:
    """A spanning tree of the Hasse graph.

    Without a hint this is the breadth-first tree rooted at ``bot`` scanning
    edges in index order, so class-group coordinates are reproducible.  A
    hint is validated and used verbatim; a refusal names the edge at fault
    by its label (edge k is e<k+1>), or the entry that is not an ``int``
    (``bool`` included).
    """
    n_vertices = len(p.elements)
    if hint is None:
        order = [k for k, _, _ in _tree_walk(p)]
    else:
        order = list(hint)
        for k in order:
            if isinstance(k, bool) or not isinstance(k, int):
                raise PosetError(f"tree hint entry {k!r} is not an edge index")
            if not 0 <= k < p.n_edges:
                raise PosetError(f"tree hint references unknown edge e{k + 1}")
        order = list(dict.fromkeys(order))
        closing = _closing_edge(p, order)
        if closing is not None:
            raise PosetError(f"tree hint is not a spanning tree: "
                             f"e{closing + 1} closes a cycle")
        if len(order) != n_vertices - 1:
            raise PosetError(f"tree hint is not a spanning tree: it has "
                             f"{len(order)} edges, a spanning tree has "
                             f"{n_vertices - 1}")
    tree = frozenset(order)
    cotree = tuple(k for k in range(p.n_edges) if k not in tree)
    return TreeSelection(tree_edges=tree, cotree_edges=cotree)


def _tree_walk(p: BoundedPoset) -> Iterator[tuple[int, int, int]]:
    """The breadth-first tree from ``bot``, each vertex's edges scanned in
    index order: every tree edge k with the end v the walk stood on and the
    end w it reached through k, in the order they are reached."""
    ends, incident = p.edge_ends, p._incident
    seen = bytearray(len(p.elements))
    seen[0] = 1
    reached = [0]
    for v in reached:
        for k in incident[v]:
            w = ends[k][0] + ends[k][1] - v
            if not seen[w]:
                seen[w] = 1
                reached.append(w)
                yield k, v, w


def _closing_edge(p: BoundedPoset, edges: Sequence[int]) -> Optional[int]:
    """The first of ``edges``, in their order, that closes a cycle with the
    ones before it; None when they form a forest."""
    parent = list(range(len(p.elements)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in edges:
        l, u = p.edge_ends[k]
        rl, ru = find(l), find(u)
        if rl == ru:
            return k
        parent[rl] = ru
    return None

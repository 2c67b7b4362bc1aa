"""Finite bounded posets and the graph primitives built on their Hasse diagrams.

A poset is read from a small text format declaring its elements and cover
pairs.  A global minimum ``bot`` and maximum ``top`` are adjoined
automatically, so every :class:`BoundedPoset` is bounded and its Hasse graph
is connected.  Everything downstream (class groups, conic polytopes, MCM
regions) consumes the edge list of this graph, so edge indices are kept
stable and canonical: they depend only on the abstract poset, never on the
order cover pairs were written in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

BOTTOM = "bot"
TOP = "top"

_NAME_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")


class PosetError(ValueError):
    """Malformed poset input (syntax, cycles, non-Hasse cover pairs)."""


@dataclass(frozen=True)
class Circuit:
    """A chordless cycle of the Hasse graph with its up/down edge partition.

    ``x_plus`` / ``x_minus`` hold the edge indices traversed upward resp.
    downward along ``vertex_cycle``.  ``z_plus`` / ``z_minus`` are their
    intersections with the cotree of a chosen spanning tree; they stay
    ``None`` until :meth:`with_tree` is called.
    """

    vertex_cycle: tuple[str, ...]
    x_plus: tuple[int, ...]
    x_minus: tuple[int, ...]
    z_plus: Optional[tuple[int, ...]] = None
    z_minus: Optional[tuple[int, ...]] = None

    def with_tree(self, tree: "TreeSelection") -> "Circuit":
        cotree = set(tree.cotree_edges)
        return replace(
            self,
            z_plus=tuple(e for e in self.x_plus if e in cotree),
            z_minus=tuple(e for e in self.x_minus if e in cotree),
        )


@dataclass(frozen=True)
class TreeSelection:
    """A spanning tree of the Hasse graph; the cotree indexes class-group
    coordinates, in ascending edge order."""

    tree_edges: frozenset[int]
    cotree_edges: tuple[int, ...]


@dataclass(frozen=True)
class PurityReport:
    pure: bool
    chain_length: Optional[int]  # common edge count of maximal chains, if pure


@dataclass(frozen=True)
class BoundedPoset:
    """A finite poset with adjoined minimum ``bot`` and maximum ``top``.

    ``elements`` lists ``bot`` first, the interior elements sorted, ``top``
    last; the position of an element is its coordinate index for the cone of
    linear forms.  ``edges`` lists the Hasse edges as (lower, upper) pairs in
    canonical order (upward depth-first search from ``bot`` with neighbours
    in element order).
    """

    elements: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    # -- basic accessors ----------------------------------------------------

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        return self.edges

    @property
    def interior(self) -> tuple[str, ...]:
        return self.elements[1:-1]

    @property
    def dim(self) -> int:
        """Krull dimension of the associated ring: |P| + 1."""
        return len(self.elements) - 1

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def index(self, el: str) -> int:
        return self.elements.index(el)

    def up_neighbors(self, el: str) -> tuple[str, ...]:
        return tuple(u for (l, u) in self.edges if l == el)

    def down_neighbors(self, el: str) -> tuple[str, ...]:
        return tuple(l for (l, u) in self.edges if u == el)

    def degree(self, el: str) -> int:
        return sum(1 for (l, u) in self.edges if el in (l, u))

    def edge_index(self, a: str, b: str) -> Optional[int]:
        for k, (l, u) in enumerate(self.edges):
            if {l, u} == {a, b}:
                return k
        return None


# ---------------------------------------------------------------------------
# parsing / serialization


def parse_poset(text: str) -> BoundedPoset:
    """Parse the poset file format and adjoin ``bot`` / ``top``.

    Rejects cyclic cover relations and cover pairs implied by transitivity
    (the input must already be a Hasse diagram).
    """
    elements: Optional[list[str]] = None
    covers: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            if elements is not None:
                raise PosetError(f"line {lineno}: duplicate elements line")
            names = line[len("elements:"):].split()
            for name in names:
                if not _NAME_RE.match(name):
                    raise PosetError(f"line {lineno}: bad element name {name!r}")
                if name in (BOTTOM, TOP):
                    raise PosetError(f"line {lineno}: {name!r} is reserved")
            if len(set(names)) != len(names):
                raise PosetError(f"line {lineno}: duplicate element")
            elements = names
        elif line.startswith("cover:"):
            if elements is None:
                raise PosetError(f"line {lineno}: cover before elements line")
            m = re.match(r"^cover:\s*(\S+)\s*<\s*(\S+)\s*$", line)
            if not m:
                raise PosetError(f"line {lineno}: cannot parse cover line {line!r}")
            a, b = m.group(1), m.group(2)
            for x in (a, b):
                if x not in elements:
                    raise PosetError(f"line {lineno}: unknown element {x!r}")
            if a == b:
                raise PosetError(f"line {lineno}: self cover {a!r} < {a!r}")
            if (a, b) in covers:
                raise PosetError(f"line {lineno}: duplicate cover {a!r} < {b!r}")
            covers.append((a, b))
        else:
            raise PosetError(f"line {lineno}: unrecognized line {line!r}")
    if elements is None:
        raise PosetError("missing elements line")
    return build_poset(sorted(elements), covers)


def build_poset(interior: Sequence[str], covers: Sequence[tuple[str, str]]) -> BoundedPoset:
    up: dict[str, set[str]] = {el: set() for el in interior}
    down: dict[str, set[str]] = {el: set() for el in interior}
    for a, b in covers:
        up[a].add(b)
        down[b].add(a)

    order = _topological(interior, up)
    _check_hasse(order, up, covers)

    full_up: dict[str, list[str]] = {el: sorted(up[el]) for el in interior}
    full_up[BOTTOM] = sorted(el for el in interior if not down[el])
    for el in interior:
        if not up[el]:
            full_up[el].append(TOP)
    if not interior:
        full_up[BOTTOM] = [TOP]
    full_up[TOP] = []

    edges: list[tuple[str, str]] = []
    seen = {BOTTOM}

    def visit(v: str) -> None:
        for u in full_up[v]:
            edges.append((v, u))
            if u not in seen:
                seen.add(u)
                visit(u)

    visit(BOTTOM)
    elements = (BOTTOM, *sorted(interior), TOP)
    assert seen == set(elements)
    return BoundedPoset(elements=elements, edges=tuple(edges))


def _topological(interior: Sequence[str], up: dict[str, set[str]]) -> list[str]:
    indeg = {el: 0 for el in interior}
    for el in interior:
        for u in up[el]:
            indeg[u] += 1
    queue = sorted(el for el in interior if indeg[el] == 0)
    order = []
    while queue:
        v = queue.pop(0)
        order.append(v)
        for u in sorted(up[v]):
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
        queue.sort()
    if len(order) != len(interior):
        raise PosetError("cover relation is cyclic")
    return order


def _check_hasse(order: Sequence[str], up: dict[str, set[str]],
                 covers: Sequence[tuple[str, str]]) -> None:
    # strictly-above sets as bitsets over topological positions, computed
    # bottom-up in reverse topological order
    bit = {v: 1 << i for i, v in enumerate(order)}
    above: dict[str, int] = {}
    for v in reversed(order):
        acc = 0
        for u in up[v]:
            acc |= bit[u] | above[u]
        above[v] = acc
    for a, b in covers:
        for c in up[a]:
            if c != b and above[c] & bit[b]:
                raise PosetError(
                    f"cover {a!r} < {b!r} is implied by transitivity (via {c!r})")


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


def relabel(p: BoundedPoset, mapping: dict[str, str]) -> BoundedPoset:
    """Rename interior elements; the result is re-canonicalized."""
    covers = [(mapping[l], mapping[u]) for (l, u) in p.edges
              if l != BOTTOM and u != TOP]
    return build_poset([mapping[el] for el in p.interior], covers)


# ---------------------------------------------------------------------------
# chains and purity


def rank_function(p: BoundedPoset) -> Optional[dict[str, int]]:
    """Edge-distance from ``bot`` when the poset is graded, else ``None``."""
    rank: dict[str, int] = {BOTTOM: 0}
    for l, u in p.edges:  # canonical order is upward-reachable, so l is ranked
        r = rank[l] + 1
        if u in rank:
            if rank[u] != r:
                return None
        else:
            rank[u] = r
    return rank


def is_pure(p: BoundedPoset) -> PurityReport:
    """All maximal chains of the bounded poset have equal edge count?

    This is exactly the Gorenstein test for the associated ring.
    """
    rank = rank_function(p)
    if rank is None:
        return PurityReport(pure=False, chain_length=None)
    return PurityReport(pure=True, chain_length=rank[TOP])


def maximal_chain_count(p: BoundedPoset) -> int:
    counts: dict[str, int] = {BOTTOM: 1}
    for el in _linear_extension(p):
        if el == BOTTOM:
            continue
        counts[el] = sum(counts[d] for d in p.down_neighbors(el))
    return counts[TOP]


def _linear_extension(p: BoundedPoset) -> list[str]:
    indeg = {el: len(p.down_neighbors(el)) for el in p.elements}
    queue = [el for el in p.elements if indeg[el] == 0]
    out = []
    while queue:
        queue.sort(key=p.index)
        v = queue.pop(0)
        out.append(v)
        for u in p.up_neighbors(v):
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    return out


def polynomial_extension_edge(p: BoundedPoset) -> Optional[int]:
    """First edge lying on every maximal chain, or ``None``.

    Such an edge makes the associated ring a polynomial extension; the NCCR
    pipeline refuses those inputs.
    """
    total = maximal_chain_count(p)
    to: dict[str, int] = {BOTTOM: 1}
    for el in _linear_extension(p):
        if el == BOTTOM:
            continue
        to[el] = sum(to[d] for d in p.down_neighbors(el))
    frm: dict[str, int] = {TOP: 1}
    for el in reversed(_linear_extension(p)):
        if el == TOP:
            continue
        frm[el] = sum(frm[u] for u in p.up_neighbors(el))
    for k, (l, u) in enumerate(p.edges):
        if to[l] * frm[u] == total:
            return k
    return None


# ---------------------------------------------------------------------------
# circuits


def chordless_circuits(p: BoundedPoset) -> list[Circuit]:
    """All chordless cycles of the underlying simple graph.

    Plain backtracking with a canonical root; intended inputs have small
    cycle rank, so no output-sensitive algorithm is needed.  Circuits are
    deduplicated up to rotation and reflection and returned sorted by
    (length, vertex indices).
    """
    idx = {el: i for i, el in enumerate(p.elements)}
    adj: dict[str, set[str]] = {el: set() for el in p.elements}
    for l, u in p.edges:
        adj[l].add(u)
        adj[u].add(l)

    cycles: list[tuple[str, ...]] = []

    def extend(path: list[str]) -> None:
        tail = path[-1]
        start = path[0]
        for nxt in sorted(adj[tail], key=idx.get):
            if nxt == start and len(path) >= 3:
                # canonical: second vertex smaller than last kills reflections
                if idx[path[1]] < idx[path[-1]]:
                    cycles.append(tuple(path))
                continue
            if nxt in path or idx[nxt] <= idx[start]:
                continue
            path.append(nxt)
            extend(path)
            path.pop()

    for start in p.elements:
        extend([start])

    out = []
    for cyc in cycles:
        if not _is_chordless(p, adj, cyc):
            continue
        out.append(_orient(p, cyc))
    out.sort(key=lambda c: (len(c.vertex_cycle), tuple(idx[v] for v in c.vertex_cycle)))
    return out


def _is_chordless(p: BoundedPoset, adj: dict[str, set[str]], cyc: tuple[str, ...]) -> bool:
    n = len(cyc)
    for i in range(n):
        for j in range(i + 1, n):
            if (j - i) % n in (1, n - 1):
                continue
            if cyc[j] in adj[cyc[i]]:
                return False
    return True


def _orient(p: BoundedPoset, cyc: tuple[str, ...]) -> Circuit:
    ups, downs = [], []
    for i, v in enumerate(cyc):
        w = cyc[(i + 1) % len(cyc)]
        k = p.edge_index(v, w)
        assert k is not None
        if p.edges[k][0] == v:
            ups.append(k)
        else:
            downs.append(k)
    return Circuit(vertex_cycle=cyc, x_plus=tuple(sorted(ups)), x_minus=tuple(sorted(downs)))


# ---------------------------------------------------------------------------
# spanning trees


def spanning_tree(p: BoundedPoset, hint: Optional[Iterable[int]] = None) -> TreeSelection:
    """A spanning tree of the Hasse graph.

    Without a hint this is the breadth-first tree rooted at ``bot`` scanning
    edges in index order, so class-group coordinates are reproducible.  A
    hint is validated and used verbatim.
    """
    n_vertices = len(p.elements)
    if hint is not None:
        tree = frozenset(int(e) for e in hint)
        if not tree <= set(range(p.n_edges)):
            raise PosetError("tree hint references unknown edges")
        if len(tree) != n_vertices - 1 or not _spans(p, tree):
            raise PosetError("tree hint is not a spanning tree")
        cotree = tuple(k for k in range(p.n_edges) if k not in tree)
        return TreeSelection(tree_edges=tree, cotree_edges=cotree)

    incident: dict[str, list[int]] = {el: [] for el in p.elements}
    for k, (l, u) in enumerate(p.edges):
        incident[l].append(k)
        incident[u].append(k)
    visited = {BOTTOM}
    queue = [BOTTOM]
    tree_list: list[int] = []
    while queue:
        v = queue.pop(0)
        for k in incident[v]:
            l, u = p.edges[k]
            other = u if v == l else l
            if other not in visited:
                visited.add(other)
                tree_list.append(k)
                queue.append(other)
    tree = frozenset(tree_list)
    cotree = tuple(k for k in range(p.n_edges) if k not in tree)
    return TreeSelection(tree_edges=tree, cotree_edges=cotree)


def _spans(p: BoundedPoset, tree: frozenset[int]) -> bool:
    parent: dict[str, str] = {el: el for el in p.elements}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in tree:
        l, u = p.edges[k]
        rl, ru = find(l), find(u)
        if rl == ru:
            return False  # cycle
        parent[rl] = ru
    roots = {find(el) for el in p.elements}
    return len(roots) == 1

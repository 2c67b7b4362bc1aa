"""Reference implementations kept as test oracles.

The vertex route below is the conic test the library used before the facet
rule: exact membership of a class in the half-open zonotope of weight
combinations with coefficients in (-1, 0], decided by enumerating the
C(k, r) * 2^(k - r) vertices of a slice of the coefficient box.  It is slow
and shares no logic with ``divisorial.conic_facets``.

``semigroup_members`` decides affine semigroup membership by a plain
breadth-first search in a bounded box; it shares no logic with
``mcm.NonMcmCone``.

``backtracking_chordless_circuits`` is the circuit search the library used
before the cycle-space route: every simple cycle is grown vertex by vertex
from its least-index vertex, then tested for chords.  It reads the edge
list directly and shares no logic with ``posets.chordless_circuits``.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

from hibinccr import intlattice
from hibinccr.divisorial import weight_list
from hibinccr.intlattice import Vec
from hibinccr.posets import BoundedPoset, Circuit


def vertex_is_conic(chi: Vec, weights) -> bool:
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
    rk = lattice_rank(vecs)
    vertices: list[list[Fraction]] = []
    for free in combinations(range(k), rk):
        cols = [vecs[i] for i in free]
        if lattice_rank(cols) != rk:
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


def vertex_conic_classes(weights) -> list[Vec]:
    """All conic classes, by the vertex route over the bounding box."""
    ws = weight_list(weights)
    if not ws:
        return [()]
    rank = len(ws[0])
    if rank == 0:
        return [()]
    bounds = [sum(abs(w[k]) for w in ws) for k in range(rank)]
    out = []
    for pt in product(*[range(-b, b + 1) for b in bounds]):
        if vertex_is_conic(pt, ws):
            out.append(pt)
    return sorted(out)


def lattice_rank(vectors: Sequence[Vec]) -> int:
    if not vectors:
        return 0
    return intlattice.rational_rank([list(v) for v in vectors])


def semigroup_members(generators: Sequence[Vec], targets: Iterable[Vec]) -> set[Vec]:
    """The targets that are non-negative integer combinations of the
    generators, in any rank.

    Complete bounded search: by the Steinitz lemma the summands of any
    representation of t can be reordered so that every partial sum stays
    within 2|t| + 2|g| (max norms, g the largest generator) of the origin, so
    one breadth-first search over the box of radius 2|t| + 5|g| + 2 for the
    largest target decides every target at once.
    """
    targets = {tuple(t) for t in targets}
    gens = [tuple(g) for g in generators if any(g)]
    missing = {t for t in targets if any(t)}
    if not gens or not missing:
        return targets - missing
    radius = 2 * max(abs(c) for t in targets for c in t) + \
        5 * max(abs(c) for g in gens for c in g) + 2
    start = tuple(0 for _ in gens[0])
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = tuple(a + b for a, b in zip(x, g))
            if y in seen or any(abs(c) > radius for c in y):
                continue
            seen.add(y)
            queue.append(y)
            missing.discard(y)
            if not missing:
                return targets
    return targets - missing


def backtracking_chordless_circuits(p: BoundedPoset) -> list[Circuit]:
    """All chordless cycles of the Hasse graph by exhaustive backtracking.

    Each cycle starts at its least-index vertex and its second vertex has a
    smaller index than its last, which removes rotations and reflections;
    the result is sorted by (length, vertex indices), and ``x_plus`` /
    ``x_minus`` are read off the edge list by a linear scan.
    """
    idx = {el: i for i, el in enumerate(p.elements)}
    adj: dict[str, set[str]] = {el: set() for el in p.elements}
    for l, u in p.edges:
        adj[l].add(u)
        adj[u].add(l)

    cycles: list[tuple[str, ...]] = []
    for start in p.elements:
        stack = [[start]]
        while stack:
            path = stack.pop()
            tail = path[-1]
            for nxt in sorted(adj[tail], key=idx.get, reverse=True):
                if nxt == start and len(path) >= 3:
                    if idx[path[1]] < idx[path[-1]]:
                        cycles.append(tuple(path))
                    continue
                if nxt in path or idx[nxt] <= idx[start]:
                    continue
                stack.append(path + [nxt])

    out = []
    for cyc in cycles:
        n = len(cyc)
        if any(cyc[j] in adj[cyc[i]] for i in range(n) for j in range(i + 2, n)
               if (i, j) != (0, n - 1)):
            continue
        ups, downs = [], []
        for i, v in enumerate(cyc):
            w = cyc[(i + 1) % n]
            k = next(k for k, e in enumerate(p.edges) if set(e) == {v, w})
            (ups if p.edges[k][0] == v else downs).append(k)
        out.append(Circuit(vertex_cycle=cyc, x_plus=tuple(sorted(ups)),
                           x_minus=tuple(sorted(downs))))
    out.sort(key=lambda c: (len(c.vertex_cycle), tuple(idx[v] for v in c.vertex_cycle)))
    return out

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

``string_parse_poset`` and ``string_build_poset`` are the poset parser and
builder the library ran before it numbered the elements: element names in
a set, upper covers in name-keyed sets, a heap topological order over
names and bitsets over topological positions for the transitivity check,
which names the least intermediate element.  They share only the line
grammar (``posets._NAME_RE``, ``posets._COVER_RE``) with
``posets.parse_poset``.

``reference_certify_gldim`` is the finite-global-dimension certificate
search the library used before it compiled each direction once: every
worklist round rescans the character set for separation, recomputes the
Koszul terms and formats the failure reason of every pending character.
It builds its working window as a product of coordinate ranges and shares
only the public ``is_separated`` and ``koszul_terms`` with
``nccr.certify_gldim``.

``stepwise_replay_certificate`` is the certificate replay the library ran
before it took each direction's Koszul shifts once: every step calls
``koszul_terms`` on its own character.

``permutation_unimodular_match`` is the unimodular multiset match the
library used before it iterated over distinct target values: it tries every
ordered pair of target vectors as the image of an independent source pair.

``snf_class_group_hibi`` is the Hibi class group the library computed before
it balanced the spanning tree: the Smith-normal-form cokernel of the whole
sigma matrix, moved to the cotree basis by one rational solve per edge.  It
never looks at the tree edges, only at the cotree classes.

``fraction_enumerate_conic`` is the Fourier-Motzkin lattice-point
enumeration the library ran on ``Fraction`` right-hand sides, taking exact
ceilings and floors of rational bounds instead of integer floor division.

``box_conic_classes`` is the conic enumeration the library ran before it
read the facet rule as a polytope: every point of the bounding box
|chi_k| <= sum_i |w_ik| is tested with ``ConicPolytope.contains`` on the
system of ``divisorial.conic_facets``.  It shares that system with
``divisorial.conic_classes`` but not the enumerator.

``pairwise_endomorphism_is_mcm`` is the End-is-MCM check the library ran
before it collected distinct differences: one loop over every ordered pair
of characters, asking ``mcm.is_mcm`` about each difference the first time
it appears.

``LevelNonMcmCone`` is the non-MCM cone membership the library ran before it
compiled each cone into one integer function: every query shifts by the
offset with tuple arithmetic, pairs with phi through ``dot``, reduces modulo
the unit line by its own rule and, for a cone without phi steps, asks the
Smith form for lattice membership.  ``cones_is_mcm`` is the whole-system
test it served: ``not any(cone.contains(chi) for cone in cones)`` over the
closed chambers and open sectors.  Its units are the generators whose
negative ``_in_cone_2d`` finds in the cone by a scan over pairs, and its phi
comes from ``reference_positive_functional``, a search over pairs of
directions.  ``level_cones`` builds its cones from
``reference_chamber_decomposition`` (one ``dot`` per piece and weight, every
ray sorted by ``angle_key``) and ``reference_non_mcm_cone`` (the offset
summed coordinate by coordinate), the routines ``mcm.McmTest`` compiled
through before it paired pieces with distinct weights inline and split each
cone's units in one pass.  So it shares with ``mcm.McmTest`` only the
criterion, the record types and the Smith form.

``pointwise_mcm_region`` is the MCM region the library listed before it
swept the box by columns: every point of the box goes through the compiled
test's ``_decide``, which stops at the first cone holding it.  It shares
the compiled cones with ``mcm.mcm_region`` but not the sweep, its
intervals or its arithmetic progressions.

``linear_scan_apery`` is the Apery walk the library ran before it kept
each staircase sorted as it grew: it queues every sum a point of Ap makes,
however often it was queued before, tests each point it takes against
every corner of its residue's staircase in turn, and sorts the staircases
into tables after the walk.  It takes the arguments of ``mcm._apery`` and
shares only ``mcm._lattice`` and ``mcm._residue`` with it.

``closed_form_mcm_classes`` decides the rank-one MCM classes by local
cohomology instead of the chamber criterion: T(chi) is non-MCM exactly on
+-(beta + N<|w_i|>), read from a numerical-semigroup table.  It shares no
code with ``mcm.py``.

``reference_smith_normal_form`` is the Smith form the library ran before it
inlined its five nested closures: the same pivots and operations, each row
and column operation a call that walks whole rows and columns, and a pivot
search over the whole block.  ``intlattice.smith_normal_form`` must return
the very same (D, U, V).

``verify_divisor_relations`` checks the defining relations of a Hibi class
group, one per element below the top, by summing each edge's class into
its two ends over the name pairs; the library computed its classes by
balancing the same relations over the tree, and the check shares no code
with ``classgroup.class_group``.  ``relabel`` renames a poset's interior
elements through ``posets.build_poset``.

``tree_main`` is the CLI as it ran before it routed each argv to its leaf
parser: every argv is parsed by the whole tree from ``cli.build_parser``,
then dispatched like ``cli.main``.

``rational_rank``, ``fraction_solve_rational`` and ``solve_integer`` are the
``Fraction`` Gauss-Jordan eliminator the library ran before the Smith form
answered its rank checks, rational solves and lattice membership; the vertex
route above solves through it, so it shares no code with
``intlattice.smith_normal_form``.  ``fraction_angle_key`` is the angle order
the library sorted rays by before it compared half-planes and cross
products: a ``Fraction`` slope per vector.
"""

from __future__ import annotations

import heapq
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, floor, gcd
from typing import Iterable, Optional, Sequence

from hibinccr import cli, divisorial, mcm
from hibinccr.classgroup import ClassGroupData, SigmaMatrix, _class_group_cone
from hibinccr.divisorial import ConicPolytope, UnboundedPolytopeError, WeightsLike, weight_list
from hibinccr.intlattice import Matrix, Vec, angle_key, cross, dot, lattice_contains, primitive
from hibinccr.mcm import Chamber, ChamberDecomposition
from hibinccr.nccr import (CertStep, CharacterSet, EndMcmReport, GldimCertificate,
                           GldimResult, UnusableDirectionError, _check_rank, default_directions,
                           is_separated, koszul_terms)
from hibinccr.posets import (_COVER_RE, _NAME_RE, BOTTOM, TOP, BoundedPoset, Circuit, PosetError,
                             TreeSelection, build_poset)


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
                sol = fraction_solve_rational(mat, rhs)
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
    return rational_rank([list(v) for v in vectors])


def _gauss_jordan(M: list[list[Fraction]], cols: int) -> list[int]:
    """Reduce M in place to reduced row echelon form on its first ``cols``
    columns (later columns ride along); return the pivot columns."""
    n = len(M)
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, n) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(n):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return pivots


def rational_rank(a: Sequence[Sequence[int]]) -> int:
    rows = [[Fraction(x) for x in row] for row in a]
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0))


def fraction_solve_rational(a: Sequence[Sequence[int]],
                            b: Sequence[int | Fraction]) -> Optional[list[Fraction]]:
    """Unique rational solution of A y = b, or None when inconsistent.

    Raises ValueError when A does not have full column rank.
    """
    d = len(a[0])
    M = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    pivots = _gauss_jordan(M, d)
    if len(pivots) < d:
        raise ValueError("matrix does not have full column rank")
    if any(row[d] != 0 for row in M[d:]):
        return None
    y: list[Fraction] = [Fraction(0)] * d
    for i, c in enumerate(pivots):
        y[c] = M[i][d]
    return y


def solve_integer(a: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[list[int]]:
    """Integer solution of A y = b (A full column rank), or None."""
    y = fraction_solve_rational(a, b)
    if y is None or any(v.denominator != 1 for v in y):
        return None
    return [int(v) for v in y]


def fraction_angle_key(v: Vec) -> tuple[int, Fraction | int]:
    """Sort key ordering 2D vectors counterclockwise starting at angle 0."""
    x, y = v
    assert (x, y) != (0, 0)
    if y == 0:
        return (0, 0) if x > 0 else (2, 0)
    if y > 0:
        return (1, Fraction(-x, y))  # angle in (0, pi): -cot is increasing
    return (3, Fraction(-x, y))


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


def relabel(p: BoundedPoset, mapping: dict[str, str]) -> BoundedPoset:
    """Rename interior elements; the result is re-canonicalized, and a
    mapping that merges two names is refused as a duplicate element."""
    covers = [(mapping[l], mapping[u]) for (l, u) in p.edges
              if l != BOTTOM and u != TOP]
    return build_poset([mapping[el] for el in p.interior], covers)


def verify_divisor_relations(p: BoundedPoset, cgd: ClassGroupData) -> bool:
    """At every element below the top, the classes of the edges going up
    sum to those of the edges coming down (at ``bot``, to zero): each edge's
    class is added at its lower name and taken away at its upper one."""
    net = {el: [0] * cgd.rank for el in p.elements}
    for (lower, upper), w in zip(p.edges, cgd.weights, strict=True):
        for k, c in enumerate(w):
            net[lower][k] += c
            net[upper][k] -= c
    return not any(any(net[el]) for el in p.elements[:-1])


def string_parse_poset(text: str) -> BoundedPoset:
    """The poset file format parsed on names: the element names kept as a
    set, each cover line kept as a name pair, then ``string_build_poset``."""
    elements: Optional[set[str]] = None
    covers: dict[tuple[str, str], None] = {}  # insertion-ordered set
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
            elements = set(names)
        elif line.startswith("cover:"):
            if elements is None:
                raise PosetError(f"line {lineno}: cover before elements line")
            m = _COVER_RE.match(line)
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
            covers[(a, b)] = None
        else:
            raise PosetError(f"line {lineno}: unrecognized line {line!r}")
    if elements is None:
        raise PosetError("missing elements line")
    return string_build_poset(sorted(elements), list(covers))


def string_build_poset(interior: Sequence[str],
                       covers: Sequence[tuple[str, str]]) -> BoundedPoset:
    """The bounded poset from name-keyed upper-cover sets: a heap
    topological order over names, the transitivity check on bitsets over
    topological positions, and the canonical depth-first edge walk."""
    up: dict[str, set[str]] = {el: set() for el in interior}
    for a, b in covers:
        up[a].add(b)
    covered = {b for _, b in covers}

    order = _string_topological(interior, up)
    _string_check_hasse(order, up, covers)

    full_up: dict[str, list[str]] = {el: sorted(up[el]) for el in interior}
    full_up[BOTTOM] = sorted(el for el in interior if el not in covered)
    for el in interior:
        if not up[el]:
            full_up[el].append(TOP)
    if not interior:
        full_up[BOTTOM] = [TOP]
    full_up[TOP] = []

    edges: list[tuple[str, str]] = []
    seen = {BOTTOM}
    stack = [(BOTTOM, iter(full_up[BOTTOM]))]
    while stack:
        v, neighbours = stack[-1]
        for u in neighbours:
            edges.append((v, u))
            if u not in seen:
                seen.add(u)
                stack.append((u, iter(full_up[u])))
                break
        else:
            stack.pop()
    elements = (BOTTOM, *sorted(interior), TOP)
    assert seen == set(elements)
    position = {el: i for i, el in enumerate(elements)}
    return BoundedPoset(elements=elements,
                        edge_ends=tuple((position[l], position[u]) for l, u in edges))


def _string_topological(interior: Sequence[str], up: dict[str, set[str]]) -> list[str]:
    indeg = {el: 0 for el in interior}
    for el in interior:
        for u in up[el]:
            indeg[u] += 1
    queue = [el for el in interior if indeg[el] == 0]  # the least name next
    heapq.heapify(queue)
    order = []
    while queue:
        v = heapq.heappop(queue)
        order.append(v)
        for u in up[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(queue, u)
    if len(order) != len(interior):
        raise PosetError("cover relation is cyclic")
    return order


def _string_check_hasse(order: Sequence[str], up: dict[str, set[str]],
                        covers: Sequence[tuple[str, str]]) -> None:
    bit = {v: 1 << i for i, v in enumerate(order)}
    above: dict[str, int] = {}
    for v in reversed(order):
        acc = 0
        for u in up[v]:
            acc |= bit[u] | above[u]
        above[v] = acc
    for a, b in covers:
        for c in sorted(up[a]):  # the least name, whatever the hash seed
            if c != b and above[c] & bit[b]:
                raise PosetError(
                    f"cover {a!r} < {b!r} is implied by transitivity (via {c!r})")


def reference_certify_gldim(chars: CharacterSet, weights: WeightsLike,
                            goal: Optional[Iterable[Vec]] = None,
                            directions: Optional[Sequence[Vec]] = None) -> GldimResult:
    """Worklist fixpoint discharging the goal characters.

    A character is admitted once some candidate direction strictly separates
    it from the character set and all its Koszul terms are already admitted
    (or in the set).  The certificate lists admissions in order and replays
    independently; on failure the uncovered residue is reported instead.
    """
    ws = weight_list(weights)
    rank = len(ws[0])
    base = frozenset(chars.chars)
    if goal is None:
        goal_set = sorted(set(divisorial.conic_classes(ws)) - base)
    else:
        goal_set = sorted(set(tuple(g) for g in goal) - base)
    if directions is None:
        directions = default_directions(chars)

    window = _working_window(goal_set, chars, ws, rank)
    covered: set[Vec] = set(base)
    steps: list[CertStep] = []
    reasons: dict[Vec, str] = {}

    def admission_order(chi: Vec) -> tuple:
        return (_box_distance(chi, chars), *chi)

    # two phases: first a fixpoint over the goal characters alone (the usual
    # strip induction never leaves them), then over the whole window for any
    # stragglers that need auxiliary characters
    for pool in (goal_set, window):
        pending = sorted((chi for chi in pool if chi not in covered),
                         key=admission_order)
        changed = True
        while changed:
            changed = False
            still = []
            for chi in pending:
                step = _try_admit(chi, chars, covered, ws, directions, reasons)
                if step is None:
                    still.append(chi)
                else:
                    steps.append(step)
                    covered.add(chi)
                    changed = True
            pending = still
        if all(chi in covered for chi in goal_set):
            break

    uncovered = tuple(chi for chi in goal_set if chi not in covered)
    if uncovered:
        return GldimResult(ok=False, certificate=None, uncovered=uncovered,
                           reasons=tuple((chi, reasons.get(chi, "not in window"))
                                         for chi in uncovered))
    cert = GldimCertificate(steps=_prune_steps(steps, goal_set, base),
                            goal=tuple(goal_set))
    return GldimResult(ok=True, certificate=cert)


def _working_window(goal: Sequence[Vec], chars: CharacterSet, ws: list[Vec],
                    rank: int) -> list[Vec]:
    """Every point of the box around the goal and the set, widened in each
    coordinate by the weights' total absolute value, in lexicographic order."""
    pts = list(goal) + list(chars.chars)
    margin = [sum(abs(w[k]) for w in ws) for k in range(rank)]
    return list(product(*[range(min(p[k] for p in pts) - margin[k],
                                max(p[k] for p in pts) + margin[k] + 1)
                          for k in range(rank)]))


def _prune_steps(steps: list[CertStep], goal: Sequence[Vec],
                 base: frozenset[Vec]) -> tuple[CertStep, ...]:
    """Drop admissions the goal never depends on; every dependency of a kept
    step is either in the base set or the target of an earlier kept step, so
    the pruned log still replays."""
    needed = set(goal)
    kept = []
    for step in reversed(steps):
        if step.chi in needed:
            kept.append(step)
            needed |= {d for d in step.deps if d not in base}
    kept.reverse()
    return tuple(kept)


def _try_admit(chi: Vec, chars: CharacterSet, covered: set[Vec], ws: list[Vec],
               directions: Sequence[Vec], reasons: dict[Vec, str]) -> Optional[CertStep]:
    blocked = []
    for direction in directions:
        if not is_separated(chi, chars, direction):
            continue
        try:
            terms = koszul_terms(chi, direction, ws)
        except UnusableDirectionError:
            continue
        missing = [t for t in terms if t not in covered]
        if not missing:
            return CertStep(chi=chi, direction=direction, deps=terms)
        blocked.append((direction, missing[0]))
    if blocked:
        reasons[chi] = f"separating directions blocked on dependencies: {blocked[:2]}"
    else:
        reasons[chi] = "no separating direction with usable weights"
    return None


def _box_distance(chi: Vec, chars: CharacterSet) -> int:
    dist = 0
    for k in range(len(chi)):
        lo = min(nu[k] for nu in chars.chars)
        hi = max(nu[k] for nu in chars.chars)
        dist += max(0, lo - chi[k], chi[k] - hi)
    return dist


def stepwise_replay_certificate(cert: GldimCertificate, chars: CharacterSet,
                                weights: WeightsLike) -> tuple[bool, str]:
    """Independent check of a certificate: ranks, separation, exact Koszul
    term sets, dependency availability, and goal coverage; every step's
    terms come from its own ``koszul_terms`` call."""
    if not chars.chars:
        raise ValueError("empty character set")
    ws = weight_list(weights)
    if not ws:
        raise ValueError("empty weight system")
    rank = len(ws[0])
    base = frozenset(chars.chars)
    floors: dict[Vec, int] = {}
    admitted: set[Vec] = set()
    for i, step in enumerate(cert.steps):
        try:
            _check_rank("character", step.chi, rank)
            _check_rank("direction", step.direction, rank)
            for d in step.deps:
                _check_rank("dependency", d, rank)
        except ValueError as exc:
            return False, f"step {i}: {exc}"
        if step.chi in base or step.chi in admitted:
            return False, f"step {i}: {step.chi} already available"
        floor = floors.get(step.direction)
        if floor is None:
            floor = floors[step.direction] = min(dot(step.direction, nu) for nu in chars.chars)
        if dot(step.direction, step.chi) >= floor:
            return False, f"step {i}: {step.direction} does not separate {step.chi}"
        try:
            terms = koszul_terms(step.chi, step.direction, ws)
        except UnusableDirectionError:
            return False, f"step {i}: direction {step.direction} is unusable"
        if set(terms) != set(step.deps):
            return False, f"step {i}: dependency list does not match the Koszul terms"
        if step.chi in terms:
            return False, f"step {i}: self-dependency"
        for t in terms:
            if t not in base and t not in admitted:
                return False, f"step {i}: dependency {t} not available"
        admitted.add(step.chi)
    for g in cert.goal:
        if g not in base and g not in admitted:
            return False, f"goal {g} is not covered"
    return True, "certificate replays"


def permutation_unimodular_match(source: Sequence[Vec],
                                 target: Sequence[Vec]) -> Optional[Matrix]:
    """A U in GL_r(Z) with U*multiset(source) == multiset(target), or None."""
    src = sorted(source)
    tgt = sorted(target)
    if len(src) != len(tgt):
        return None
    r = len(src[0]) if src else 0
    if r == 0:
        return []
    if r == 1:
        for sign in (1, -1):
            if sorted(tuple(sign * c for c in v) for v in src) == tgt:
                return [[sign]]
        return None
    if r != 2:
        raise ValueError("unimodular matching implemented for rank <= 2 only")
    pair = None
    for i in range(len(src)):
        for j in range(i + 1, len(src)):
            if src[i][0] * src[j][1] - src[i][1] * src[j][0] != 0:
                pair = (src[i], src[j])
                break
        if pair:
            break
    if pair is None:
        return None
    a, b = pair
    det_ab = a[0] * b[1] - a[1] * b[0]
    for ta, tb in permutations(tgt, 2):
        # U a = ta, U b = tb  =>  U = [ta tb] * [a b]^{-1}
        num = [[ta[0] * b[1] - tb[0] * a[1], -ta[0] * b[0] + tb[0] * a[0]],
               [ta[1] * b[1] - tb[1] * a[1], -ta[1] * b[0] + tb[1] * a[0]]]
        if any(num[i][j] % det_ab != 0 for i in range(2) for j in range(2)):
            continue
        U = [[num[i][j] // det_ab for j in range(2)] for i in range(2)]
        if abs(U[0][0] * U[1][1] - U[0][1] * U[1][0]) != 1:
            continue
        if sorted(tuple(sum(U[i][j] * v[j] for j in range(2)) for i in range(2))
                  for v in src) == tgt:
            return U
    return None


def snf_class_group_hibi(s: SigmaMatrix, tree: TreeSelection) -> ClassGroupData:
    """The class group of a Hibi sigma matrix in the basis of the cotree
    classes, from the Smith cokernel."""
    n, d = s.n, s.d
    rank = n - d
    cotree = tree.cotree_edges
    if len(tree.tree_edges) != d or len(cotree) != rank:
        raise ValueError("spanning tree does not match the sigma matrix")
    smith = _class_group_cone(s).weights
    if rank == 0:
        weights = smith
    else:
        # columns: the Smith classes of the cotree edges, a Z-basis exactly
        # when the tree submatrix of sigma is unimodular
        basis = [[smith[e][k] for e in cotree] for k in range(rank)]
        try:
            coords = [solve_integer(basis, w) for w in smith]
        except ValueError:  # the basis matrix is singular
            coords = None
        if coords is None or None in coords:
            raise ValueError("the cotree classes are not a basis of the class group")
        weights = tuple(tuple(c) for c in coords)
    return ClassGroupData(rank=rank, weights=weights, cotree=cotree)


def fraction_enumerate_conic(cp: ConicPolytope) -> list[Vec]:
    """All lattice points of the polytope, lexicographically sorted."""
    if cp.rank == 0:
        return [()]
    cons: list[tuple[Vec, Fraction]] = []
    for coeffs, lo, hi in cp.ineqs:
        cons.append((coeffs, Fraction(hi)))
        cons.append((tuple(-c for c in coeffs), Fraction(-lo)))
    return sorted(_fraction_enumerate_rec(cons, cp.rank))


def _fraction_fm_eliminate(cons: list[tuple[Vec, Fraction]],
                           j: int) -> list[tuple[Vec, Fraction]]:
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


def _fraction_first_var_range(cons: list[tuple[Vec, Fraction]],
                              r: int) -> Optional[tuple[int, int]]:
    sys_ = cons
    for j in range(r - 1, 0, -1):
        sys_ = _fraction_fm_eliminate(sys_, j)
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


def _fraction_enumerate_rec(cons: list[tuple[Vec, Fraction]], r: int) -> list[Vec]:
    rng = _fraction_first_var_range(cons, r)
    if rng is None:
        return []
    lo, hi = rng
    if r == 1:
        return [(v,) for v in range(lo, hi + 1)]
    out = []
    for v in range(lo, hi + 1):
        reduced = [(coeffs[1:], b - coeffs[0] * v) for coeffs, b in cons]
        out += [(v, *tail) for tail in _fraction_enumerate_rec(reduced, r - 1)]
    return out


def box_conic_classes(weights) -> list[Vec]:
    """All conic classes, by the facet rule over their bounding box."""
    ws = weight_list(weights)
    if not ws:
        return [()]
    rank = len(ws[0])
    if rank == 0:
        return [()]
    rule = divisorial.conic_facets(ws, rank)
    bounds = [sum(abs(w[k]) for w in ws) for k in range(rank)]
    return [pt for pt in product(*[range(-b, b + 1) for b in bounds])
            if rule.contains(pt)]


def pairwise_endomorphism_is_mcm(chars: CharacterSet, weights: WeightsLike) -> EndMcmReport:
    """Every ordered difference of sorted characters in turn, each distinct
    one asked of ``mcm.is_mcm`` once; stops at the first that fails."""
    ws = weight_list(weights)
    ordered = sorted(chars.chars)
    checked = 0
    seen: dict[Vec, bool] = {}
    for chi in ordered:
        for chi2 in ordered:
            diff = tuple(b - a for a, b in zip(chi, chi2))
            checked += 1
            if diff not in seen:
                seen[diff] = mcm.is_mcm(diff, ws)
            if not seen[diff]:
                return EndMcmReport(ok=False, checked=checked,
                                    first_failure=(chi, chi2, diff))
    return EndMcmReport(ok=True, checked=checked)


class LevelNonMcmCone:
    """A non-MCM cone's membership test as per-query tuple arithmetic over
    levels of classes modulo the unit line (see the module docstring)."""

    def __init__(self, offset: Vec, generators: Sequence[Vec]):
        rank = len(offset)
        self.offset = tuple(offset)
        gens = sorted({_plane(g) for g in generators} - {(0, 0)})
        self.units = [g for g in gens if _in_cone_2d((-g[0], -g[1]), gens)]
        rest = [g for g in gens if g not in self.units]
        self.line = _lattice_line(self.units) if rest else None
        self.phi = reference_positive_functional(rest, self.line) if rest else (0, 0)
        self.steps = [(dot(self.phi, g), g) for g in rest]
        self.levels: list[set[Vec]] = [{(0, 0)}]
        self.rank = rank

    def contains(self, chi: Vec) -> bool:
        if len(chi) != self.rank:
            raise ValueError(f"expected a vector of rank {self.rank}, got {tuple(chi)}")
        t = _plane(tuple(c - o for c, o in zip(chi, self.offset)))
        if not self.steps:
            return lattice_contains(self.units, t)
        level = dot(self.phi, t)
        if level < 0:
            return False
        while len(self.levels) <= level:
            n = len(self.levels)
            self.levels.append({_canon_mod_line((x[0] + g[0], x[1] + g[1]), self.line)
                                for cost, g in self.steps if cost <= n
                                for x in self.levels[n - cost]})
        return _canon_mod_line(t, self.line) in self.levels[level]


def _plane(v: Vec) -> Vec:
    return v if len(v) == 2 else (v[0], 0)


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


def reference_positive_functional(rest: Sequence[Vec], lat: Optional[Vec]) -> Vec:
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


def _lattice_line(units: Sequence[Vec]) -> Optional[Vec]:
    """Generator of the rank-1 sublattice spanned by collinear units."""
    if not units:
        return None
    direction = primitive(units[0])
    comp = 0 if direction[0] != 0 else 1
    g = 0
    for u in units:
        assert cross(direction, u) == 0, "unit directions must be collinear"
        g = gcd(g, abs(u[comp]))
    scale = g // abs(direction[comp])
    return (direction[0] * scale, direction[1] * scale)


def _canon_mod_line(x: Vec, lat: Optional[Vec]) -> Vec:
    if lat is None:
        return x
    comp = 0 if lat[0] != 0 else 1
    k = x[comp] // lat[comp]
    return (x[0] - k * lat[0], x[1] - k * lat[1])


def _pairing_t_set(direction: Vec, ws: Sequence[Vec]) -> tuple[int, ...]:
    return tuple(i for i, w in enumerate(ws) if dot(direction, w) < 0)


def reference_chamber_decomposition(weights: WeightsLike) -> ChamberDecomposition:
    """The chamber decomposition with one ``dot`` per piece and weight, the
    rays sorted whole by ``angle_key``."""
    ws = weight_list(weights)
    if not ws:
        raise ValueError("empty weight system")
    rank = len(ws[0])
    if rank == 1:
        chambers = tuple(
            Chamber(t_set=_pairing_t_set(lam, ws), kind=mcm.CLOSED, witness=lam)
            for lam in ((1,), (-1,)))
        return _reference_hypothesis(chambers)
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
        kind = {2: mcm.CLOSED, 1: mcm.HALF_OPEN, 0: mcm.OPEN}[included]
        chambers.append(Chamber(t_set=t_sets[run[0]], kind=kind,
                                witness=pieces[run[0]][1]))
    return _reference_hypothesis(tuple(chambers))


def _reference_hypothesis(chambers: tuple[Chamber, ...]) -> ChamberDecomposition:
    failures = []
    for i, c in enumerate(chambers):
        needed = {mcm.CLOSED: 2, mcm.OPEN: 3}.get(c.kind)
        if needed is not None and len(c.t_set) < needed:
            failures.append((i, len(c.t_set), needed))
    return ChamberDecomposition(chambers=chambers, hypothesis_failures=tuple(failures))


def reference_non_mcm_cone(chamber: Chamber, weights: WeightsLike) -> tuple[Vec, tuple[Vec, ...]]:
    """(offset, generators) of a chamber's non-MCM cone, summed coordinate
    by coordinate."""
    if chamber.kind == mcm.HALF_OPEN:
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
    return tuple(offset), tuple(sorted(gens))


def level_cones(weights: WeightsLike) -> list[LevelNonMcmCone]:
    """The reference cone of every closed chamber and open sector."""
    ws = weight_list(weights)
    return [LevelNonMcmCone(*reference_non_mcm_cone(c, ws))
            for c in reference_chamber_decomposition(ws).chambers
            if c.kind != mcm.HALF_OPEN]


def cones_is_mcm(chi: Vec, cones: Sequence[LevelNonMcmCone]) -> bool:
    """Is chi outside every one of the cones?"""
    return not any(cone.contains(chi) for cone in cones)


def pointwise_mcm_region(weights: WeightsLike, box: Sequence[tuple[int, int]]) -> set[Vec]:
    """The MCM classes inside the box (inclusive ranges), each point of the
    box decided on its own by the compiled test."""
    test = mcm.McmTest.of(weights)
    if len(box) != test.rank:
        raise ValueError(f"expected a box of rank {test.rank}, got {len(box)} ranges")
    return set(filter(test._decide, product(*(range(lo, hi + 1) for lo, hi in box))))


def linear_scan_apery(phi: Vec, normals: tuple[int, int, int, int], units: list[Vec],
                      rest: list[Vec], lat: tuple[int, int, int], pointed: bool
                      ) -> tuple[tuple[int, int, int], dict, Optional[int]]:
    """The lattice M, the Apery table and the conductor, as ``mcm._apery``
    returns them, by a walk that re-queues points and scans staircases (see
    the module docstring)."""
    px, py = phi
    nx, ny, mx, my = normals
    steps = sorted((px * gx + py * gy, gx, gy) for gx, gy in rest)
    fixed = {next(st for st in steps if nx * st[1] + ny * st[2] == 0),
             next(st for st in steps if mx * st[1] + my * st[2] == 0)}
    a, b, c = mcm._lattice([*units, *((gx, gy) for _, gx, gy in fixed)])
    if (a, c) == (lat[0], lat[2]):
        return lat, {}, 0
    grow = [st for st in steps if st not in fixed]
    found: dict[Vec, list[tuple[int, int]]] = {}
    heap = [(0, 0, 0)]
    while heap:
        level, x, y = heapq.heappop(heap)
        n = nx * x + ny * y
        stair = found.setdefault(mcm._residue(x, y, a, b, c), [])
        if any(f <= n and g <= level - n for f, g in stair):
            continue
        stair.append((n, level - n))
        for cost, gx, gy in grow:
            heapq.heappush(heap, (level + cost, x + gx, y + gy))
    table = {key: tuple(zip(*sorted(stair))) for key, stair in found.items()}
    if pointed:
        return (a, b, c), table, None
    top = max(levels[0] for _, levels in table.values())
    return (a, b, c), table, max(0, top - steps[0][0] + 1)


def closed_form_mcm_classes(weights: Sequence[int], lo: int, hi: int) -> set[int]:
    """The MCM classes chi in [lo, hi] of rank-one weights w_1, ..., w_n:
    coprime integers summing to zero, at least two of each sign.  With
    beta the sum of the positive weights, T(chi) is non-MCM exactly when
    chi >= beta and chi - beta lies in the numerical semigroup
    N<|w_1|, ..., |w_n|>, or chi <= -beta and -chi - beta does.

    Proof.  Let S = k[x_1, ..., x_n] be graded by deg x_i = w_i, and R = S_0
    the ring, of dimension n - 1; T(chi) = S_chi.  Let m be the irrelevant
    ideal of R, generated by invariant monomials f_1, ..., f_r.  Since the f_j
    have degree 0, the degree-chi part of the Cech complex of S on the f_j is
    the Cech complex of S_chi, so H^i_m(T(chi)) = H^i_{mS}(S)_chi.  The
    radical of mS is the ideal of the nullcone: a point has 0 in the
    closure of its orbit exactly when its nonzero coordinates all have
    weights of one sign.  So the nullcone is V(x+) u V(x-), with x+ and x-
    the variables of positive and negative weight, and mS has the radical
    of (x+) (x-).  As (x+) + (x-) is the maximal ideal of S, whose local
    cohomology lives in degree n only, Mayer-Vietoris gives
    H^i_{mS}(S) = H^i_{(x+)}(S) + H^i_{(x-)}(S) for i <= n - 2 (Van den
    Bergh, Invent. Math. 106 (1991); Stanley, Invent. Math. 68 (1982)).
    The variables x+ form a regular sequence of length p, the number of
    positive weights, so H^i_{(x+)}(S) vanishes for i != p and
    H^p_{(x+)}(S) has the basis of monomials with every x+ exponent at most
    -1 and every x- exponent at least 0.  Their degrees are exactly
    -beta - N<|w_i|>.  Likewise H^q_{(x-)}(S), q the number of negative
    weights, lives in degrees beta + N<|w_i|>.  With two weights of each
    sign, p and q are at most n - 2, below the dimension n - 1, so T(chi)
    is MCM exactly when chi lies in neither set.
    """
    beta = sum(w for w in weights if w > 0)
    reach = max(0, hi - beta, -lo - beta)
    sizes = sorted({abs(w) for w in weights})
    member = [True] + [False] * reach
    for t in range(1, reach + 1):
        member[t] = any(member[t - s] for s in sizes if s <= t)
    return {chi for chi in range(lo, hi + 1)
            if not (chi >= beta and member[chi - beta])
            and not (chi <= -beta and member[-chi - beta])}


def reference_smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """(D, U, V) with U*A*V = D, by the same pivots and operations as
    ``intlattice.smith_normal_form``, written as five nested closures that
    act on whole rows and columns."""
    A = [list(row) for row in a]
    n = len(A)
    d = len(A[0]) if n else 0
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(d)] for i in range(d)]

    def row_sub(i: int, j: int, f: int) -> None:
        A[i] = [x - f * y for x, y in zip(A[i], A[j])]
        U[i] = [x - f * y for x, y in zip(U[i], U[j])]

    def col_sub(i: int, j: int, f: int) -> None:
        for r in range(n):
            A[r][i] -= f * A[r][j]
        for r in range(d):
            V[r][i] -= f * V[r][j]

    def row_swap(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i: int, j: int) -> None:
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(d):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def diagonalize() -> int:
        t = 0
        while t < min(n, d):
            pivot = None
            for i in range(t, n):
                for j in range(t, d):
                    if A[i][j] != 0 and (pivot is None
                                         or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            row_swap(t, pivot[0])
            col_swap(t, pivot[1])
            while True:
                for i in range(t + 1, n):
                    q = A[i][t] // A[t][t]
                    if q:
                        row_sub(i, t, q)
                if any(A[i][t] for i in range(t + 1, n)):
                    # a remainder smaller than the pivot appeared; re-pivot
                    i = min((i for i in range(t + 1, n) if A[i][t]),
                            key=lambda i: abs(A[i][t]))
                    row_swap(t, i)
                    continue
                for j in range(t + 1, d):
                    q = A[t][j] // A[t][t]
                    if q:
                        col_sub(j, t, q)
                if any(A[t][j] for j in range(t + 1, d)):
                    j = min((j for j in range(t + 1, d) if A[t][j]),
                            key=lambda j: abs(A[t][j]))
                    col_swap(t, j)
                    continue
                break
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]
                U[t] = [-x for x in U[t]]
            t += 1
        return t

    rank = diagonalize()
    while True:
        bad = next((i for i in range(rank - 1)
                    if A[i + 1][i + 1] % A[i][i] != 0), None)
        if bad is None:
            break
        col_sub(bad, bad + 1, -1)  # col_bad += col_{bad+1}; breaks diagonality
        rank = diagonalize()
    return A, U, V


def tree_main(argv: Sequence[str]) -> int:
    """``cli.main`` with every argv parsed by the whole parser tree."""
    return cli._run(cli.build_parser().parse_args(list(argv)))

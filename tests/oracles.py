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

``reference_certify_gldim`` is the finite-global-dimension certificate
search the library used before it compiled each direction once: every
worklist round rescans the character set for separation, recomputes the
Koszul terms and formats the failure reason of every pending character.
It shares only the public ``is_separated`` and ``koszul_terms`` and the
working window with ``nccr.certify_gldim``.

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
|chi_k| <= sum_i |w_ik| is tested with ``ConicFacets.contains``.  It shares
the rule with ``divisorial.conic_classes`` but not the enumerator.

``pairwise_endomorphism_is_mcm`` is the End-is-MCM check the library ran
before it collected distinct differences: one loop over every ordered pair
of characters, asking ``mcm.is_mcm`` about each difference the first time
it appears.

``tree_main`` is the CLI as it ran before it routed each argv to its leaf
parser: every argv is parsed by the whole tree from ``cli.build_parser``,
then dispatched like ``cli.main``.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, floor
from typing import Iterable, Optional, Sequence

from hibinccr import cli, divisorial, intlattice, mcm
from hibinccr.classgroup import HIBI, ClassGroupData, SigmaMatrix, _class_group_cone
from hibinccr.divisorial import ConicPolytope, UnboundedPolytopeError, WeightsLike, weight_list
from hibinccr.intlattice import Matrix, Vec
from hibinccr.nccr import (CertStep, CharacterSet, EndMcmReport, GldimCertificate,
                           GldimResult, UnusableDirectionError, _working_window, default_directions,
                           is_separated, koszul_terms)
from hibinccr.posets import BoundedPoset, Circuit, TreeSelection


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
            coords = [intlattice.solve_integer(basis, w) for w in smith]
        except ValueError:  # the basis matrix is singular
            coords = None
        if coords is None or None in coords:
            raise ValueError("the cotree classes are not a basis of the class group")
        weights = tuple(tuple(c) for c in coords)
    return ClassGroupData(rank=rank, torsion=(), weights=weights,
                          cotree=cotree, source=HIBI)


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


def tree_main(argv: Sequence[str]) -> int:
    """``cli.main`` with every argv parsed by the whole parser tree."""
    return cli._run(cli.build_parser().parse_args(list(argv)))

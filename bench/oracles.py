"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports the program.  Each routine follows the paper's
statements directly, on plain integers:

* divisor classes of a family member from the fundamental cycles of its
  figure spanning tree (cotree classes are the standard basis);
* conic classes as the lattice points in the interior of the centred
  zonotope of the weights (Gorenstein weights sum to zero);
* the MCM regions drawn in the paper's figures, in the figure basis;
* the splitting-NCCR character boxes;
* a replayer for ``nccr verify --certificate`` logs that recomputes
  separation and the Koszul subset sums itself.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from math import gcd

BOT, TOP = "bot", "top"


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# posets as the benchmark knows them


def hasse_edges(interior, covers) -> list[tuple[str, str]]:
    """Hasse edges with ``bot``/``top`` adjoined, in the documented canonical
    order: upward depth-first from ``bot``, neighbours in sorted name order."""
    up = {el: [] for el in interior}
    has_down = set()
    for a, b in covers:
        up[a].append(b)
        has_down.add(b)
    full = {el: sorted(up[el]) or [TOP] for el in interior}
    full[BOT] = sorted(el for el in interior if el not in has_down) or [TOP]
    full[TOP] = []
    edges: list[tuple[str, str]] = []
    seen = {BOT}
    stack = [iter(full[BOT])]
    path = [BOT]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            path.pop()
            continue
        edges.append((path[-1], nxt))
        if nxt not in seen:
            seen.add(nxt)
            stack.append(iter(full[nxt]))
            path.append(nxt)
    return edges


def cycle_weights(edges, cotree) -> dict[tuple[str, str], tuple[int, ...]]:
    """Class of every edge in the basis of the given cotree edges.

    Cotree edge j traversed upward closes a fundamental cycle with the tree;
    coordinate j of a tree edge is +1 where that cycle goes up it, -1 where
    it goes down, 0 off the cycle.
    """
    cot = list(cotree)
    rank = len(cot)
    adj: dict[str, list[tuple[str, tuple[str, str]]]] = {}
    for e in edges:
        if e in cot:
            continue
        lo, hi = e
        adj.setdefault(lo, []).append((hi, e))
        adj.setdefault(hi, []).append((lo, e))
    weights = {e: [0] * rank for e in edges}
    for j, (lo, hi) in enumerate(cot):
        weights[(lo, hi)][j] = 1
        parent: dict[str, tuple[str, tuple[str, str]] | None] = {hi: None}
        queue = deque([hi])
        while queue:
            v = queue.popleft()
            for w, e in adj.get(v, ()):
                if w not in parent:
                    parent[w] = (v, e)
                    queue.append(w)
        expect(lo in parent, f"cotree edge {lo}<{hi} closes no cycle")
        v = lo
        while parent[v] is not None:  # walk lo -> hi, then reverse the sense
            u, e = parent[v]
            # the cycle runs hi -> ... -> lo, i.e. from u to v along e
            weights[e][j] += 1 if e == (u, v) else -1
            v = u
    return {e: tuple(w) for e, w in weights.items()}


def relations_hold(edges, weights) -> bool:
    """Up-edge classes sum to down-edge classes at every interior element,
    and the up-edges at ``bot`` sum to zero."""
    rank = len(next(iter(weights.values())))
    balance: dict[str, list[int]] = {}
    for (lo, hi) in edges:
        w = weights[(lo, hi)]
        for v, sgn in ((lo, 1), (hi, -1)):
            acc = balance.setdefault(v, [0] * rank)
            for k in range(rank):
                acc[k] += sgn * w[k]
    return all(not any(acc) for v, acc in balance.items() if v != TOP)


# ---------------------------------------------------------------------------
# the paper's closed forms


def nccr_box(tag: str, params) -> tuple[int, int]:
    """Upper corner of the character box; the box starts at (0, 0)."""
    if tag == "I":
        m, n = params
        return (m + n + 1, n)
    if tag == "II":
        l, m, n = params
        return (l + m, m + n)
    if tag == "III":
        l, m, n = params
        return (l + m + n + 1, m - 1)
    if tag == "IV":
        return tuple(params)
    n, = params
    return (n + 1, n + 1)


def canonical_params(tag: str, params) -> tuple[int, ...]:
    """Parameters as classified: the smaller of the two readings."""
    params = tuple(params)
    if tag in ("II", "III", "IV"):
        return min(params, params[::-1])
    return params


def figure_mcm(tag: str, params):
    """Membership predicate of the MCM region drawn for the family, in the
    figure basis; ``None`` where no figure is given (type III)."""
    if tag == "I":
        m, n = params
        return lambda c: (abs(c[1]) <= n and
                          -(m + n + 1) + min(c[1], 0) <= c[0] <= (m + n + 1) + max(c[1], 0))
    if tag == "II":
        l, m, n = params
        return lambda c: abs(c[0]) <= l + m and abs(c[1]) <= m + n
    if tag == "IV":
        m, n = params
        return lambda c: abs(c[0]) <= m and abs(c[1]) <= n
    if tag == "V":
        n, = params
        k = n + 1

        def type5(c):
            x, y = c
            if abs(x) <= k and abs(y) <= k:
                return True
            return ((y >= k and y - x <= k and x <= k) or (x >= k and x - y <= k and y <= k)
                    or (-y >= k and x - y <= k and -x <= k)
                    or (-x >= k and y - x <= k and -y <= k))
        return type5
    return None


def _primitive(v):
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return tuple(c // g for c in v) if g > 1 else tuple(v)


def zonotope_normals(weights):
    rank = len(weights[0])
    vecs = sorted({tuple(w) for w in weights if any(w)})
    if rank == 1:
        return [(1,)]
    if rank == 2:
        return sorted({_primitive((-w[1], w[0])) for w in vecs})
    raise ValueError("ranks 1 and 2 only")


def conic_set(weights) -> set[tuple[int, ...]]:
    """Lattice points in the open centred zonotope of Gorenstein weights:
    chi with 2|<u, chi>| < sum_i |<u, w_i>| for every facet normal u."""
    rank = len(weights[0])
    expect(all(sum(w[k] for w in weights) == 0 for k in range(rank)),
           "weights do not sum to zero")
    bounds = []
    for u in zonotope_normals(weights):
        s = sum(abs(sum(a * b for a, b in zip(u, w))) for w in weights)
        bounds.append((u, s))
    box = [sum(abs(w[k]) for w in weights) for k in range(rank)]
    out = set()
    for chi in product(*[range(-b, b + 1) for b in box]):
        if all(2 * abs(sum(a * b for a, b in zip(u, chi))) < s for u, s in bounds):
            out.add(chi)
    return out


# ---------------------------------------------------------------------------
# certificates


def koszul_shifts(chi, direction, weights) -> set[tuple[int, ...]]:
    """chi plus every non-empty sum of distinct weights pairing positively
    with the direction."""
    positive = [w for w in weights if sum(a * b for a, b in zip(direction, w)) > 0]
    zero = tuple(0 for _ in chi)
    sums = {zero}
    for w in positive:
        sums |= {tuple(s[k] + w[k] for k in range(len(chi))) for s in sums}
    sums.discard(zero)  # only the empty sum: every other one pairs positively
    return {tuple(c + s for c, s in zip(chi, shift)) for shift in sums}


def replay(lines: list[dict], chars, weights, goal) -> None:
    """Re-check a certificate log from scratch: each step's direction
    strictly separates its character from the box, its dependency list is
    exactly the Koszul shifts, every dependency is already available, and
    the log covers the goal."""
    base = {tuple(c) for c in chars}
    admitted: set[tuple[int, ...]] = set()
    for i, step in enumerate(lines):
        chi, d = tuple(step["chi"]), tuple(step["direction"])
        expect(chi not in base and chi not in admitted, f"step {i}: {chi} already available")
        val = sum(a * b for a, b in zip(d, chi))
        expect(all(val < sum(a * b for a, b in zip(d, nu)) for nu in base),
               f"step {i}: {d} does not separate {chi}")
        shifts = koszul_shifts(chi, d, weights)
        expect(bool(shifts), f"step {i}: no weight pairs positively with {d}")
        expect({tuple(x) for x in step["deps"]} == shifts,
               f"step {i}: dependencies are not the Koszul shifts")
        expect(all(t in base or t in admitted for t in shifts),
               f"step {i}: a dependency is not yet available")
        admitted.add(chi)
    missing = [g for g in goal if g not in base and g not in admitted]
    expect(not missing, f"goal not covered: {sorted(missing)[:3]}")


# ---------------------------------------------------------------------------
# integer helpers for cone inputs and basis changes


def kernel_basis(w: list[int]) -> list[list[int]]:
    """A Z-basis of {a : <w, a> = 0} for a primitive integer vector, as the
    last columns of a unimodular U with w U = (1, 0, ..., 0)."""
    n = len(w)
    row = list(w)
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_op(dst, src, f):  # column dst -= f * column src
        row[dst] -= f * row[src]
        for r in range(n):
            U[r][dst] -= f * U[r][src]

    while sum(1 for x in row if x) > 1:
        piv = min((j for j in range(n) if row[j]), key=lambda j: abs(row[j]))
        for j in range(n):
            if j != piv and row[j]:
                col_op(j, piv, row[j] // row[piv])
    piv = next(j for j in range(n) if row[j])
    expect(abs(row[piv]) == 1, "weights are not coprime")
    return [[U[r][j] for j in range(n) if j != piv] for r in range(n)]


def basis_change(source, target):
    """The 2x2 integer matrix U with U s_i = t_i for all i, or None."""
    pair = None
    for i in range(len(source)):
        for j in range(i + 1, len(source)):
            a, b = source[i], source[j]
            if a[0] * b[1] - a[1] * b[0]:
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        return None
    (a, b), (ta, tb) = (source[pair[0]], source[pair[1]]), (target[pair[0]], target[pair[1]])
    det = a[0] * b[1] - a[1] * b[0]
    # U = [ta tb] [a b]^-1
    num = [[ta[0] * b[1] - tb[0] * a[1], tb[0] * a[0] - ta[0] * b[0]],
           [ta[1] * b[1] - tb[1] * a[1], tb[1] * a[0] - ta[1] * b[0]]]
    if any(x % det for r in num for x in r):
        return None
    U = [[x // det for x in r] for r in num]
    for s, t in zip(source, target):
        if (U[0][0] * s[0] + U[0][1] * s[1], U[1][0] * s[0] + U[1][1] * s[1]) != tuple(t):
            return None
    return U


def inverse_2x2(U):
    det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
    expect(det in (1, -1), f"basis change {U} is not unimodular")
    return [[U[1][1] * det, -U[0][1] * det], [-U[1][0] * det, U[0][0] * det]]


def apply_2x2(U, v):
    return (U[0][0] * v[0] + U[0][1] * v[1], U[1][0] * v[0] + U[1][1] * v[1])


def check_snf_weights(rays, weights) -> None:
    """sum_i w_i rho_i^T = 0, and the 2x2 minors of the weight matrix are
    coprime (the weights generate the rank-two class group)."""
    dim = len(rays[0])
    for k in range(len(weights[0])):
        for c in range(dim):
            expect(sum(w[k] * r[c] for w, r in zip(weights, rays)) == 0,
                   f"weights do not kill ray coordinate {c}")
    g = 0
    for i in range(len(weights)):
        for j in range(i + 1, len(weights)):
            g = gcd(g, abs(weights[i][0] * weights[j][1] - weights[i][1] * weights[j][0]))
    expect(g == 1, f"2x2 minors of the weights have gcd {g}")

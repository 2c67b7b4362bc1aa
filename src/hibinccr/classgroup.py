"""Divisor class groups of Hibi rings and of raw toric cones.

The cone of a bounded poset is spanned by one linear form per Hasse edge;
the class group is the cokernel of the resulting integer matrix.  Both kinds
of input compute that cokernel one way, by Smith normal form, which fixes a
basis up to a documented sign convention.  Raw ray input keeps that basis.
Hibi input then moves to the basis given by the cotree edges of a chosen
spanning tree, so that their divisor classes are the standard basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import intlattice
from .intlattice import Vec
from .posets import BOTTOM, BoundedPoset, TreeSelection

HIBI = "hibi"
CONE = "cone"


class ConeError(ValueError):
    """Malformed cone input (syntax, rank deficiency, duplicate rays)."""


class TorsionError(ValueError):
    """The class group has torsion; only free class groups are supported."""


@dataclass(frozen=True)
class SigmaMatrix:
    """Rows are the ray generators of the cone read as linear forms."""

    rows: tuple[Vec, ...]
    source: str  # HIBI or CONE

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return len(self.rows[0]) if self.rows else 0


@dataclass(frozen=True)
class ClassGroupData:
    """Free class group of rank n - d with every prime divisor as a weight.

    ``weights[i]`` is the class of the i-th divisor (edge or ray).  For Hibi
    input, ``cotree`` holds the edge indices whose classes are the standard
    basis, in coordinate order.
    """

    rank: int
    torsion: tuple[int, ...]
    weights: tuple[Vec, ...]
    cotree: Optional[tuple[int, ...]] = None
    source: str = HIBI

    def weight_of_divisor(self, i: int) -> Vec:
        return self.weights[i]


def sigma_matrix(p: BoundedPoset) -> SigmaMatrix:
    """One row per Hasse edge: x_lower - x_upper, dropping the coordinate of
    the maximum element."""
    d = p.dim
    rows = []
    for lower, upper in p.edges:
        row = [0] * d
        row[p.index(lower)] += 1
        j = p.index(upper)
        if j != d:
            row[j] -= 1
        rows.append(tuple(row))
    return SigmaMatrix(rows=tuple(rows), source=HIBI)


def parse_cone(text: str) -> SigmaMatrix:
    """Parse a cone file: a ``dim:`` line followed by ``ray:`` lines."""
    dim: Optional[int] = None
    rays: list[Vec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dim:"):
            if dim is not None:
                raise ConeError(f"line {lineno}: duplicate dim line")
            try:
                dim = int(line[len("dim:"):].strip())
            except ValueError as exc:
                raise ConeError(f"line {lineno}: dim must be an integer") from exc
            if dim < 1:
                raise ConeError(f"line {lineno}: dim must be positive")
        elif line.startswith("ray:"):
            if dim is None:
                raise ConeError(f"line {lineno}: ray before dim line")
            try:
                coords = tuple(int(tok) for tok in line[len("ray:"):].split())
            except ValueError as exc:
                raise ConeError(f"line {lineno}: bad ray coordinates") from exc
            if len(coords) != dim:
                raise ConeError(f"line {lineno}: expected {dim} coordinates")
            if coords in rays:
                raise ConeError(f"line {lineno}: duplicate ray {coords}")
            rays.append(coords)
        else:
            raise ConeError(f"line {lineno}: unrecognized line {line!r}")
    if dim is None or not rays:
        raise ConeError("cone file needs a dim line and at least one ray")
    if intlattice.rational_rank([list(r) for r in rays]) != dim:
        raise ConeError("rays are rank deficient: the cone is not full-dimensional")
    return SigmaMatrix(rows=tuple(rays), source=CONE)


def serialize_cone(s: SigmaMatrix) -> str:
    lines = [f"dim: {s.d}"]
    lines += ["ray: " + " ".join(str(c) for c in row) for row in s.rows]
    return "\n".join(lines) + "\n"


def class_group(s: SigmaMatrix, tree: Optional[TreeSelection] = None) -> ClassGroupData:
    """Cokernel of the lattice map defined by the sigma matrix.

    Hibi input needs a spanning tree; the cotree classes become the positive
    standard basis.  Raw-cone input uses the Smith basis and must be
    torsion-free.
    """
    if s.source == HIBI:
        if tree is None:
            raise ValueError("Hibi class group needs a spanning tree")
        return _class_group_hibi(s, tree)
    if tree is not None:
        raise ValueError("tree selection only applies to Hibi input")
    return _class_group_cone(s)


def _class_group_hibi(s: SigmaMatrix, tree: TreeSelection) -> ClassGroupData:
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


def _class_group_cone(s: SigmaMatrix) -> ClassGroupData:
    n, d = s.n, s.d
    A = [list(row) for row in s.rows]
    D, U, _ = intlattice.smith_normal_form(A)
    factors = [D[i][i] for i in range(d)]
    if any(f == 0 for f in factors):
        raise ConeError("rays are rank deficient: the cone is not full-dimensional")
    torsion = tuple(f for f in factors if f != 1)
    if torsion:
        raise TorsionError(
            f"class group has torsion (invariant factors {list(torsion)})")
    rank = n - d
    weights = [tuple(U[d + k][i] for k in range(rank)) for i in range(n)]
    # sign convention: in each coordinate, the first divisor with a nonzero
    # entry gets a positive one
    for k in range(rank):
        first = next((w[k] for w in weights if w[k] != 0), None)
        if first is not None and first < 0:
            weights = [tuple(-w[k] if j == k else w[j] for j in range(rank))
                       for w in weights]
    return ClassGroupData(rank=rank, torsion=(), weights=tuple(weights),
                          cotree=None, source=CONE)


def class_of(a: Sequence[int], cgd: ClassGroupData) -> Vec:
    """Push a vector of divisor coefficients to its class."""
    if len(a) != len(cgd.weights):
        raise ValueError("coefficient vector length mismatch")
    out = [0] * cgd.rank
    for coeff, w in zip(a, cgd.weights):
        for k in range(cgd.rank):
            out[k] += coeff * w[k]
    return tuple(out)


def same_class(a: Sequence[int], b: Sequence[int], s: SigmaMatrix) -> bool:
    """Do two divisor coefficient vectors define isomorphic divisorial
    ideals?  True iff their difference is an integer combination of the
    sigma rows (i.e. a principal divisor)."""
    diff = [x - y for x, y in zip(a, b)]
    return intlattice.solve_integer([list(r) for r in s.rows], diff) is not None


def verify_divisor_relations(p: BoundedPoset, cgd: ClassGroupData) -> bool:
    """Check the defining relations of the class group on a Hibi input:
    at every interior element the up-edge classes sum to the down-edge
    classes, and the up-edges at the minimum sum to zero."""
    zero = (0,) * cgd.rank

    def wsum(edge_ids: Sequence[int]) -> Vec:
        out = [0] * cgd.rank
        for e in edge_ids:
            for k in range(cgd.rank):
                out[k] += cgd.weights[e][k]
        return tuple(out)

    by_lower: dict[str, list[int]] = {}
    by_upper: dict[str, list[int]] = {}
    for k, (l, u) in enumerate(p.edges):
        by_lower.setdefault(l, []).append(k)
        by_upper.setdefault(u, []).append(k)
    if wsum(by_lower.get(BOTTOM, [])) != zero:
        return False
    for el in p.interior:
        if wsum(by_lower.get(el, [])) != wsum(by_upper.get(el, [])):
            return False
    return True

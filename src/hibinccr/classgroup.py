"""Divisor class groups of Hibi rings and of raw toric cones.

The cone of a bounded poset is spanned by one linear form per Hasse edge,
x_lower - x_upper; the class group is the cokernel of the resulting integer
matrix.  A Hibi sigma matrix is stored sparse, as the (lower, upper) element
positions of each edge, and its dense rows are built only when asked for.
Hibi input gets the basis given by the cotree edges of a chosen spanning
tree, so that their divisor classes are the standard basis vectors; every
tree edge's class then follows by balancing the divisor relations over the
tree, in integers, read straight from the edge pairs.  Only raw ray input
computes the cokernel by Smith normal form, which fixes a basis up to a
documented sign convention.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence, TypeAlias, Union

from . import intlattice
from .intlattice import Matrix, Vec
from .posets import BoundedPoset, TreeSelection
from .record import Record

if TYPE_CHECKING:
    from .mcm import McmTest

HIBI = "hibi"
CONE = "cone"


class ConeError(ValueError):
    """Malformed cone input (syntax, rank deficiency, duplicate rays)."""


class TorsionError(ValueError):
    """The class group has torsion; only free class groups are supported."""


class SigmaMatrix(Record):
    """Rows are the ray generators of the cone read as linear forms, one per
    prime divisor, in ``d`` coordinates.

    Cone input keeps its rays as given.  Hibi input keeps only the (lower,
    upper) element positions of each Hasse edge: its row is x_lower -
    x_upper with the top's coordinate, position ``d``, dropped.  ``rows``
    gives the dense rows of either kind; for Hibi input they are built
    anew on each request and never stored.
    """

    _fields = ("source", "d", "rays", "edge_ends")

    def __init__(self, source: str, d: int, rays: tuple[Vec, ...] = (),
                 edge_ends: tuple[tuple[int, int], ...] = ()) -> None:
        # source is HIBI or CONE; CONE input sets rays, HIBI input edge_ends
        self.__dict__.update(source=source, d=d, rays=rays, edge_ends=edge_ends)

    @property
    def n(self) -> int:
        return len(self.edge_ends) if self.source == HIBI else len(self.rays)

    @property
    def rows(self) -> tuple[Vec, ...]:
        if self.source != HIBI:
            return self.rays
        rows = []
        for lower, upper in self.edge_ends:
            row = [0] * self.d
            row[lower] += 1
            if upper != self.d:
                row[upper] -= 1
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def _smith(self) -> tuple[Matrix, Matrix, Matrix]:
        """The Smith form (D, U, V) of the rows, computed once: ``parse_cone``
        reads the rank from it and ``class_group`` the cokernel.  Only cone
        input asks for it, so a Hibi matrix stores nothing beyond its
        fields."""
        return intlattice.smith_normal_form(self.rows)


class ClassGroupData(Record):
    """Free class group of rank n - d with every prime divisor as a weight.

    ``weights[i]`` is the class of the i-th divisor (edge or ray).  For Hibi
    input, ``cotree`` holds the edge indices whose classes are the standard
    basis, in coordinate order; it is ``None`` for cone input.  Torsion is
    refused with :class:`TorsionError`, so there is no torsion part.
    """

    _fields = ("rank", "weights", "cotree")

    def __init__(self, rank: int, weights: tuple[Vec, ...],
                 cotree: Optional[tuple[int, ...]] = None) -> None:
        self.__dict__.update(rank=rank, weights=weights, cotree=cotree)

    @cached_property
    def mcm_test(self) -> "McmTest":
        """The compiled MCM test of these weights (:class:`mcm.McmTest`),
        built on first use and held by this instance, so it is freed with
        it.  Stored in the instance ``__dict__``, as ``BoundedPoset`` keeps
        its derived lookups; it is not a field, so equality, hashing and
        ``repr`` do not see it."""
        from .mcm import McmTest  # mcm imports this module
        return McmTest(self.weights)


# A string: typing caches subscripted unions, and a cached union of this
# module's classes would keep every earlier import of the module alive.
WeightsLike: TypeAlias = "Union[ClassGroupData, Sequence[Vec]]"


def weight_list(weights: WeightsLike) -> list[Vec]:
    if isinstance(weights, ClassGroupData):
        return list(weights.weights)
    return [tuple(w) for w in weights]


def sigma_matrix(p: BoundedPoset) -> SigmaMatrix:
    """One row per Hasse edge: x_lower - x_upper, dropping the coordinate of
    the maximum element; stored as the poset's edge position pairs."""
    return SigmaMatrix(source=HIBI, d=p.dim, edge_ends=p.edge_ends)


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
    s = SigmaMatrix(source=CONE, d=dim, rays=tuple(rays))
    D = s._smith[0]
    if sum(1 for i in range(min(len(D), dim)) if D[i][i]) != dim:
        raise ConeError("rays are rank deficient: the cone is not full-dimensional")
    return s


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
    """Cotree coordinates by balancing the spanning tree.

    The relations of the class group say that at every element below the
    top, the classes of the edges going up sum to those of the edges coming
    down.  With cotree edge j set to e_j and the tree rooted at the top,
    visiting the elements leaves first leaves one unknown at each, its edge
    to its parent, which takes the class that balances it.  Coordinates in
    the cotree basis are unique, so these are the classes of the cokernel.
    """
    n, d = s.n, s.d
    rank = n - d
    cotree = tree.cotree_edges
    if len(tree.tree_edges) != d or len(cotree) != rank:
        raise ValueError("spanning tree does not match the sigma matrix")
    not_a_basis = ValueError("the cotree classes are not a basis of the class group")
    weights: list[Vec] = [(0,) * rank] * n  # tree edges: zero until balanced
    in_tree = [True] * n
    for j, e in enumerate(cotree):
        if not 0 <= e < n or not in_tree[e]:
            raise not_a_basis
        in_tree[e] = False
        weights[e] = tuple(int(i == j) for i in range(rank))
    # element d is the top, whose coordinate sigma drops
    ends = s.edge_ends
    incident: list[list[int]] = [[] for _ in range(d + 1)]
    for k, (lower, upper) in enumerate(ends):
        if not (0 <= lower < d and 0 <= upper <= d and lower != upper):
            raise ValueError(f"sigma row {k} is not a Hasse edge")
        incident[lower].append(k)
        incident[upper].append(k)
    parent_edge = [-1] * (d + 1)
    order = [d]  # breadth-first from the top over the tree edges
    for v in order:
        for k in incident[v]:
            if in_tree[k] and k != parent_edge[v]:
                lower, upper = ends[k]
                w = lower if v == upper else upper
                if w == d or parent_edge[w] != -1:
                    raise not_a_basis  # the tree edges hold a cycle
                parent_edge[w] = k
                order.append(w)
    if len(order) != d + 1:
        raise not_a_basis
    for v in reversed(order[1:]):
        balance = [0] * rank  # the classes going up from v minus those coming down
        for k in incident[v]:  # the parent edge's class is still zero
            sign = 1 if ends[k][0] == v else -1
            balance = [b + sign * c for b, c in zip(balance, weights[k])]
        up = parent_edge[v]
        sign = 1 if ends[up][0] == v else -1
        weights[up] = tuple(-sign * b for b in balance)
    return ClassGroupData(rank=rank, weights=tuple(weights), cotree=cotree)


def _class_group_cone(s: SigmaMatrix) -> ClassGroupData:
    n, d = s.n, s.d
    D, U, _ = s._smith
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
    return ClassGroupData(rank=rank, weights=tuple(weights))


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
    sigma columns (i.e. a principal divisor)."""
    if len(a) != s.n or len(b) != s.n:
        raise ValueError("coefficient vector length mismatch")
    diff = tuple(x - y for x, y in zip(a, b))
    return intlattice.lattice_contains(list(zip(*s.rows)), diff)


"""The five families of pure bounded posets with class group of rank two.

A pure poset whose Hasse graph has one more edge than vertices (and no
degree-one vertex, no edge shared by all maximal chains) falls into exactly
one of five shapes, read off from its degree profile:

  I    one endpoint and one interior vertex of degree 3
  II   two interior degree-3 vertices on different maximal chains,
       joined by a cross chain
  III  two interior degree-3 vertices on the same chain, joined by a
       pair of parallel chains (a diamond)
  IV   a single interior vertex of degree 4
  V    degree 3 at both endpoints (three parallel chains)

Each family carries, in one table (:data:`FAMILIES`), its parameters, a
weight table for its divisor classes and a box of characters whose
covariants assemble into a splitting NCCR.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, TypeAlias, Union

from .intlattice import Vec
from .posets import (BOTTOM, TOP, BoundedPoset, TreeSelection, build_poset,
                     polynomial_extension_edge, rank_function, spanning_tree)

AS_GIVEN = "as-given"
FLIPPED = "flipped"


class TypeParams(NamedTuple):
    type_tag: str            # "I" .. "V"
    params: tuple[int, ...]  # (m, n) / (l, m, n) / (n,)
    orientation: str         # AS_GIVEN or FLIPPED


class Rejection(NamedTuple):
    code: str     # "rank" | "degree" | "polynomial-extension" | "not-gorenstein"
    message: str


# A string, as divisorial.WeightsLike: a cached Union would keep the classes
# of every earlier import of this module alive.
ClassifyResult: TypeAlias = "Union[TypeParams, Rejection]"

class Family(NamedTuple):
    """One family's facts: its parameter names and their least values, and
    two functions of the parameters: its weight table, as (class,
    multiplicity) pairs in the basis of its two designated cotree edges, and
    the far corner of its character box (the near corner is the origin)."""
    names: tuple[str, ...]
    minima: tuple[int, ...]
    weights: Callable[..., list[tuple[Vec, int]]]
    corner: Callable[..., Vec]


FAMILIES = {
    "I": Family(("m", "n"), (0, 1),
                lambda m, n: [((1, 0), m + n + 2), ((0, 1), n + 1), ((-1, 0), m + 1),
                              ((-1, -1), n + 1)],
                lambda m, n: (m + n + 1, n)),
    "II": Family(("l", "m", "n"), (0, 1, 0),
                 lambda l, m, n: [((1, 0), l + m + 1), ((0, 1), m + n + 1), ((-1, 0), l + 1),
                                  ((0, -1), n + 1), ((-1, -1), m)],
                 lambda l, m, n: (l + m, m + n)),
    "III": Family(("l", "m", "n"), (0, 2, 0),
                  lambda l, m, n: [((1, 0), l + m + n + 2), ((0, 1), m), ((-1, 0), l + n + 2),
                                   ((-1, -1), m)],
                  lambda l, m, n: (l + m + n + 1, m - 1)),
    "IV": Family(("m", "n"), (1, 1),
                 lambda m, n: [((1, 0), m + 1), ((0, 1), n + 1), ((-1, 0), m + 1),
                               ((0, -1), n + 1)],
                 lambda m, n: (m, n)),
    "V": Family(("n",), (0,),
                lambda n: [((1, 0), n + 2), ((0, 1), n + 2), ((-1, -1), n + 2)],
                lambda n: (n + 1, n + 1)),
}


def validate_params(type_tag: str, params: Sequence[int]) -> tuple[int, ...]:
    """One ``int`` (not ``bool``, nothing converted) per name, each at
    least its least value, as a tuple."""
    if type_tag not in FAMILIES:
        raise ValueError(f"unknown type {type_tag!r}")
    names, minima, *_ = FAMILIES[type_tag]
    params = tuple(params)
    if len(params) != len(minima):
        raise ValueError(f"type {type_tag} takes parameters {names}")
    for value, least, name in zip(params, minima, names):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"type {type_tag} parameter {value!r} is not an int")
        if value < least:
            raise ValueError(f"type {type_tag} needs {name} >= {least}")
    return params


# ---------------------------------------------------------------------------
# classification


def classify(p: BoundedPoset) -> ClassifyResult:
    """Match a bounded poset against the five rank-two families.

    All failures are typed rejections, never exceptions.  Parameters are
    canonical under turning the diagram upside down: of the two readings the
    lexicographically smaller parameter tuple is reported, with the
    orientation recording which reading produced it.
    """
    n_edges, n_vertices = p.n_edges, len(p.elements)
    if n_edges - n_vertices != 1:
        return Rejection("rank", f"class group rank is {n_edges - n_vertices + 1}, not 2")
    degrees = p.degrees
    if degrees[0] == 1 or degrees[-1] == 1:
        return Rejection("degree", "an endpoint has degree 1: polynomial extension")
    poly = polynomial_extension_edge(p)
    if poly is not None:
        l, u = p.edges[poly]
        return Rejection("polynomial-extension",
                         f"edge e{poly + 1} = {{{l}, {u}}} lies on every maximal chain")
    rank = rank_function(p)
    if rank is None:
        return Rejection("not-gorenstein", "poset is not pure, the ring is not Gorenstein")

    top = n_vertices - 1
    length = rank[top]
    deg3 = [i for i, d in enumerate(degrees) if d == 3]
    deg4 = [i for i, d in enumerate(degrees) if d == 4]
    assert (len(deg3), len(deg4)) in ((2, 0), (0, 1)), "degree profile is forced"

    if deg4:
        v = deg4[0]
        m, n = rank[v] - 1, length - rank[v] - 1
        return _canonical("IV", (m, n), (n, m))

    a, b = deg3
    special = [i for i in (a, b) if i in (0, top)]
    if len(special) == 2:
        return TypeParams("V", (length - 2,), AS_GIVEN)
    if len(special) == 1:
        w = a if b in (0, top) else b
        if special[0] == top:
            return TypeParams("I", (rank[w] - 1, length - rank[w] - 1), AS_GIVEN)
        return TypeParams("I", (length - rank[w] - 1, rank[w] - 1), FLIPPED)

    # both interior: II or III, split at the up/down valencies
    splitter = next(i for i in (a, b) if len(p.covers(i, 0)) == 2)
    merger = next(i for i in (a, b) if len(p.covers(i, 1)) == 2)
    assert splitter != merger
    into_merger = [_walk_up(p, u, (splitter, merger, top))
                   for u in p.covers(splitter, 0)].count(merger)
    l = rank[splitter] - 1
    m = rank[merger] - rank[splitter]
    n = length - rank[merger] - 1
    if into_merger == 2:
        return _canonical("III", (l, m, n), (n, m, l))
    if into_merger == 1:
        return _canonical("II", (l, m, n), (n, m, l))
    raise AssertionError("splitter arms reach neither pattern")  # poly-ext caught above


def _walk_up(p: BoundedPoset, start: int, stops: tuple[int, ...]) -> int:
    """The first of the stops on the plain chain going up from start."""
    cur = start
    while cur not in stops:
        ups = p.covers(cur, 0)
        assert len(ups) == 1, "walk must follow a plain chain"
        cur = ups[0]
    return cur


def _canonical(tag: str, as_given: tuple[int, ...], flipped: tuple[int, ...]) -> TypeParams:
    if as_given <= flipped:
        return TypeParams(tag, as_given, AS_GIVEN)
    return TypeParams(tag, flipped, FLIPPED)


# ---------------------------------------------------------------------------
# weight tables


def expected_weight_table(tp: TypeParams) -> list[Vec]:
    """The divisor class multiset of a family member, in the basis attached
    to its two designated cotree edges."""
    params = validate_params(tp.type_tag, tp.params)
    return [vec for vec, mult in FAMILIES[tp.type_tag].weights(*params) for _ in range(mult)]


# ---------------------------------------------------------------------------
# family generators


class GeneratedFamily(NamedTuple):
    poset: BoundedPoset
    params: TypeParams
    figure_tree: TreeSelection  # the spanning tree whose cotree matches the table


def _chain_names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(1, count + 1)]


def _chain_covers(names: Sequence[str]) -> list[tuple[str, str]]:
    return [(names[i], names[i + 1]) for i in range(len(names) - 1)]


def generate_family(type_tag: str, params: Sequence[int]) -> GeneratedFamily:
    """Build the family member with the given parameters, plus the spanning
    tree that realizes the documented weight table."""
    params = validate_params(type_tag, params)
    covers: list[tuple[str, str]]
    chains: list[list[str]]
    if type_tag == "I":
        m, n = params
        left = _chain_names("l", m + n + 1)
        leg = _chain_names("r", m) + ["w"]
        arm_s = ["w"] + _chain_names("s", n)
        arm_t = ["w"] + _chain_names("t", n)
        chains = [left, leg, arm_s, arm_t]
        cotree_ends = ((BOTTOM, left[0]), (arm_t[-1], TOP))
    elif type_tag == "II":
        l, m, n = params
        left = _chain_names("a", l + m) + ["y"] + _chain_names("c", n)
        right = _chain_names("b", l) + ["x"] + _chain_names("d", m + n)
        middle = ["x"] + _chain_names("m", m - 1) + ["y"]
        chains = [left, right, middle]
        cotree_ends = ((BOTTOM, left[0]), (right[-1], TOP))
    elif type_tag == "III":
        l, m, n = params
        left = _chain_names("a", l + m + n + 1)
        lower = _chain_names("b", l) + ["x"]
        arm_u = ["x"] + _chain_names("u", m - 1) + ["y"]
        arm_v = ["x"] + _chain_names("v", m - 1) + ["y"]
        upper = ["y"] + _chain_names("c", n)
        chains = [left, lower, arm_u, arm_v, upper]
        cotree_ends = ((BOTTOM, left[0]), (arm_v[-2], "y"))
    elif type_tag == "IV":
        m, n = params
        low_p = _chain_names("p", m) + ["v"]
        low_q = _chain_names("q", m) + ["v"]
        up_s = ["v"] + _chain_names("s", n)
        up_t = ["v"] + _chain_names("t", n)
        chains = [low_p, low_q, up_s, up_t]
        cotree_ends = ((BOTTOM, low_p[0]), (up_t[-1], TOP))
    else:
        n, = params
        chains = [_chain_names("a", n + 1), _chain_names("b", n + 1),
                  _chain_names("c", n + 1)]
        cotree_ends = ((BOTTOM, chains[0][0]), (BOTTOM, chains[1][0]))

    covers = [pair for chain in chains for pair in _chain_covers(chain)]
    interior = sorted({el for chain in chains for el in chain})
    poset = build_poset(interior, covers)
    cot = [poset.edges.index(pair) for pair in cotree_ends]
    tree = spanning_tree(poset, hint=[k for k in range(poset.n_edges)
                                      if k not in cot])
    return GeneratedFamily(poset=poset, params=TypeParams(type_tag, params, AS_GIVEN),
                           figure_tree=tree)


def segre_poset(m: int) -> BoundedPoset:
    """Two parallel chains with m+1 edges each: the rank-one family."""
    if m < 1:
        raise ValueError("need m >= 1")
    chain_a = _chain_names("a", m)
    chain_b = _chain_names("b", m)
    return build_poset(chain_a + chain_b, _chain_covers(chain_a) + _chain_covers(chain_b))

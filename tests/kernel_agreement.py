"""The compiled kernels against the references they replaced.

``intlattice.smith_normal_form`` must return exactly the (D, U, V) of
``oracles.reference_smith_normal_form``: the same pivots and operations,
written as nested closures over whole rows and columns.  ``mcm.McmTest``
must give every answer of ``oracles.level_cones``, whose cones come from
the reference chamber decomposition and cone builder and decide each query
with per-query tuple arithmetic.  The check needs nothing beyond the
standard library, so it runs on each supported version without pytest
(exit 1, printing each disagreement) with

    PYTHONPATH=src python tests/kernel_agreement.py --check

It draws ``MATRICES`` matrices and ``WEIGHT_SYSTEMS`` rank-2 weight systems
from a fixed seed.  The matrices are the empty one, rows without entries,
and then, in turn, 1x1, tall, wide, rank-deficient (a product through a
narrower inner size), torsion (entries sharing factors 2 and 3) and zero
rows mixed into a random matrix.  The weight systems are the family tables
of ``FAMILIES`` and Gorenstein systems of pairs v, -v plus a triangle, as
``tests/test_mcm.py`` draws them; each is asked about ``POINTS`` points of
``[-BOX, BOX]^2`` in a fresh order.  Then ``SPARSE_SYSTEMS`` more systems
of 3 to 7 weights with entries in ``[-4, 4]``, completed to sum zero, are
drawn until that many meet the criterion's hypothesis; most of their cones
are not saturated, so they reach both routes of ``NonMcmCone``: the
congruence of a saturated cone and the Apery table of every other one.
The check prints how many cones took each route, and the largest Apery
set and index among the tables.  The sparse systems are asked once more,
at one point each of ``[-FAR_BOX, FAR_BOX]^2``: far from the offsets, where
a table's staircases no longer reach, and as far as the level cones, whose
cost grows with the square of the distance, allow in a few seconds.
``tests/test_intlattice.py`` and ``tests/test_mcm.py`` run the same
comparisons on smaller samples.  The rank-one systems of ``RANK1_SYSTEMS``
are asked about every class within 3 beta, and there
``oracles.closed_form_mcm_classes``, which decides by local cohomology
instead of the chamber criterion, is a third check.
Then ``mcm.mcm_region``, which sweeps a box by columns, must list the very
region ``oracles.pointwise_mcm_region`` finds point by point: on one
off-centre box per sparse system and two intervals per rank-one system.
Last, every cone of the sparse systems and of ``RANDOM_SYSTEMS`` systems
of five weights with entries in ``[-RANDOM_ENTRIES, RANDOM_ENTRIES]`` and
their completion must compile to the very lattice, Apery table and
conductor that ``oracles.linear_scan_apery``, the walk that scans each
staircase, gives in place of ``mcm._apery``.
"""

from __future__ import annotations

import random
import sys

from hibinccr import (CriterionHypothesisError, McmTest, TypeParams, chamber_decomposition,
                      expected_weight_table, mcm, mcm_region)
from hibinccr.intlattice import smith_normal_form

from oracles import (closed_form_mcm_classes, cones_is_mcm, level_cones, linear_scan_apery,
                     pointwise_mcm_region, reference_smith_normal_form)

MATRICES = 6000
WEIGHT_SYSTEMS = 300
SPARSE_SYSTEMS = 300
POINTS = 80
BOX = 14
FAR_BOX = 60
RANDOM_SYSTEMS = 20
RANDOM_ENTRIES = 30
FAMILIES = [("I", (0, 1)), ("I", (2, 3)), ("II", (1, 1, 1)), ("II", (3, 3, 3)),
            ("III", (0, 2, 0)), ("III", (2, 3, 2)), ("IV", (1, 1)), ("IV", (4, 5)),
            ("V", (0,)), ("V", (3,))]
SHAPES = ("1x1", "tall", "wide", "rank-deficient", "torsion", "zero-rows")
# the benchmark's rank-one weights, beta = 2 .. 26, and one more without a
# weight +-1
RANK1_SYSTEMS = [(1, 1, -1, -1), (1, 2, -1, -2), (1, 3, -2, -2), (1, 4, -2, -3),
                 (1, 5, -2, -4), (3, 5, -1, -7), (3, 7, -4, -6), (5, 7, -3, -9),
                 (5, 9, -6, -8), (7, 10, -8, -9), (7, 13, -9, -11), (10, 13, -11, -12),
                 (9, 17, -15, -11), (2, 3, -2, -3)]


def _matrix(rng: random.Random, shape: str) -> list[list[int]]:
    n, d = rng.randint(1, 7), rng.randint(1, 7)
    if shape == "1x1":
        return [[rng.randint(-9, 9)]]
    if shape == "tall":
        n, d = max(n, d) + 1, min(n, d)
    elif shape == "wide":
        n, d = min(n, d), max(n, d) + 1
    elif shape == "rank-deficient":
        k = rng.randint(1, max(1, min(n, d) - 1))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(k)]
        return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(d)]
                for i in range(n)]
    elif shape == "torsion":
        return [[rng.choice((0, 0, 2, -2, 3, 4, -6, 9, 12)) for _ in range(d)]
                for _ in range(n)]
    a = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(n)]
    if shape == "zero-rows":
        for i in rng.sample(range(n), rng.randint(1, n)):
            a[i] = [0] * d
    return a


def matrices(seed: int = 0, count: int = MATRICES) -> list[list[list[int]]]:
    """The empty matrix, rows without entries, then ``count`` drawn ones."""
    rng = random.Random(seed)
    return [[], [[]], [[], [], []]] + [_matrix(rng, SHAPES[i % len(SHAPES)])
                                      for i in range(count)]


def smith_disagreements(sample: list[list[list[int]]]) -> list[list[list[int]]]:
    """The matrices on which the Smith form differs from the reference."""
    return [a for a in sample if smith_normal_form(a) != reference_smith_normal_form(a)]


def _gorenstein(rng: random.Random) -> list[tuple[int, int]]:
    def weight() -> tuple[int, int]:
        while True:
            w = (rng.randint(-2, 2), rng.randint(-2, 2))
            if w != (0, 0):
                return w
    pairs = [weight() for _ in range(rng.randint(1, 3))]
    a, b = weight(), weight()
    triangle = [a, b, (-a[0] - b[0], -a[1] - b[1])] if a != (-b[0], -b[1]) else []
    return pairs + [(-x, -y) for x, y in pairs] + triangle * rng.randint(1, 2)


def weight_systems(seed: int = 0, count: int = WEIGHT_SYSTEMS) -> list[list[tuple[int, int]]]:
    """The family tables, then ``count`` drawn Gorenstein systems."""
    rng = random.Random(seed)
    tables = [list(expected_weight_table(TypeParams(tag, params, "as-given")))
              for tag, params in FAMILIES]
    return tables + [_gorenstein(rng) for _ in range(count)]


def _sparse(rng: random.Random) -> list[tuple[int, int]]:
    while True:
        ws = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(2, 6))]
        last = (-sum(x for x, _ in ws), -sum(y for _, y in ws))
        if (0, 0) not in ws and last != (0, 0):
            return ws + [last]


def sparse_systems(seed: int = 0, count: int = SPARSE_SYSTEMS) -> list[list[tuple[int, int]]]:
    """``count`` systems of 3 to 7 weights with entries in [-4, 4] (the
    last one completes the sum to zero, and may leave the range) that meet
    the criterion's hypothesis."""
    rng = random.Random(seed)
    systems: list[list[tuple[int, int]]] = []
    while len(systems) < count:
        ws = _sparse(rng)
        if chamber_decomposition(ws).hypothesis_ok:
            systems.append(ws)
    return systems


def random_systems(seed: int = 0, count: int = RANDOM_SYSTEMS,
                   bound: int = RANDOM_ENTRIES) -> list[list[tuple[int, int]]]:
    """The first ``count`` systems of five weights with entries in
    [-bound, bound] and the weight that completes their sum to zero that
    meet the criterion's hypothesis."""
    rng = random.Random(seed)
    systems: list[list[tuple[int, int]]] = []
    while len(systems) < count:
        ws = [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(5)]
        ws.append((-sum(x for x, _ in ws), -sum(y for _, y in ws)))
        if chamber_decomposition(ws).hypothesis_ok:
            systems.append(ws)
    return systems


def _compiled(test: McmTest) -> list[tuple]:
    """Each cone's row, its staircases as tuples, and its conductor."""
    return [(*cone._row[:-1],
             {key: tuple(map(tuple, stair)) for key, stair in cone._row[-1].items()},
             cone.conductor) for cone in test.cones]


def apery_disagreements(systems: list[list[tuple[int, int]]]) -> tuple[list, int]:
    """The systems whose cones compile to another row or conductor when
    ``oracles.linear_scan_apery`` walks their Apery sets instead of
    ``mcm._apery``, and how many cones were compared."""
    bad, cones = [], 0
    for ws in systems:
        compiled = _compiled(McmTest(ws))
        walk, mcm._apery = mcm._apery, linear_scan_apery
        try:
            reference = _compiled(McmTest(ws))
        finally:
            mcm._apery = walk
        cones += len(compiled)
        if compiled != reference:
            bad.append(ws)
    return bad, cones


def cone_routes(systems: list[list[tuple[int, int]]]) -> dict[str, int]:
    """How many compiled cones of the systems are saturated (an empty Apery
    table: a congruence decides them) and how many keep an Apery table, and
    the largest |Ap| and index D (the number of the table's residues) among
    the latter."""
    tables = [cone._row[-1] for ws in systems for cone in McmTest(ws).cones]
    apery = [table for table in tables if table]
    return {"saturated": len(tables) - len(apery), "apery": len(apery),
            "largest_ap": max((sum(len(ns) for ns, _ in table.values()) for table in apery),
                              default=0),
            "largest_index": max(map(len, apery), default=0)}


def mcm_disagreements(systems: list[list[tuple[int, int]]], seed: int = 0,
                      points: int = POINTS, box: int = BOX) -> tuple[list[tuple], int]:
    """The (weights, point) pairs on which ``McmTest`` and the level cones
    differ at ``points`` points of ``[-box, box]^2``, and how many systems
    the criterion applies to."""
    rng = random.Random(seed)
    bad, tested = [], 0
    for ws in systems:
        try:
            test = McmTest(ws)
        except CriterionHypothesisError:
            continue
        tested += 1
        cones = level_cones(ws)
        for _ in range(points):
            pt = (rng.randint(-box, box), rng.randint(-box, box))
            if test(pt) != cones_is_mcm(pt, cones):
                bad.append((ws, pt))
    return bad, tested


def region_disagreements(systems: list[list[tuple[int, int]]], seed: int = 0,
                         rank1_systems=RANK1_SYSTEMS) -> tuple[list[tuple], int]:
    """The (weights, box) pairs on which ``mcm_region``, which sweeps the box
    by columns, differs from ``oracles.pointwise_mcm_region``, and how many
    regions were compared.  Each rank-two system gets one box of sides up
    to ``2 * BOX + 1`` whose centre lies anywhere in ``[-BOX, BOX]^2``; each
    rank-one system gets [-3 beta, 3 beta] and [beta // 2, 4 beta]."""
    rng = random.Random(seed)
    cases = []
    for ws in systems:
        x, y = rng.randint(-BOX, BOX), rng.randint(-BOX, BOX)
        cases.append((ws, [(x - rng.randint(0, BOX), x + rng.randint(0, BOX)),
                           (y - rng.randint(0, BOX), y + rng.randint(0, BOX))]))
    for weights in rank1_systems:
        beta = sum(w for w in weights if w > 0)
        ws = [(w,) for w in weights]
        cases += [(ws, [(-3 * beta, 3 * beta)]), (ws, [(beta // 2, 4 * beta)])]
    bad = [(ws, box) for ws, box in cases if mcm_region(ws, box) != pointwise_mcm_region(ws, box)]
    return bad, len(cases)


def rank1_disagreements(systems=RANK1_SYSTEMS) -> tuple[list[tuple], int]:
    """The (weights, class) pairs within 3 beta on which ``McmTest``, the
    level cones and the closed form do not all agree, and how many classes
    were asked."""
    bad, asked = [], 0
    for weights in systems:
        ws = [(w,) for w in weights]
        beta = sum(w for w in weights if w > 0)
        test, cones = McmTest(ws), level_cones(ws)
        closed = closed_form_mcm_classes(weights, -3 * beta, 3 * beta)
        for x in range(-3 * beta, 3 * beta + 1):
            asked += 1
            if not test((x,)) == cones_is_mcm((x,), cones) == (x in closed):
                bad.append((weights, x))
    return bad, asked


if __name__ == "__main__":
    if sys.argv[1:] != ["--check"]:
        sys.exit("usage: kernel_agreement.py --check")
    sample = matrices()
    smith_bad = smith_disagreements(sample)
    for a in smith_bad:
        print(f"smith_normal_form differs: {a!r}")
    systems = weight_systems()
    mcm_bad, tested = mcm_disagreements(systems)
    sparse = sparse_systems()
    sparse_bad, _ = mcm_disagreements(sparse, seed=1)
    mcm_bad += sparse_bad
    far_bad, _ = mcm_disagreements(sparse, seed=2, points=1, box=FAR_BOX)
    for ws, pt in mcm_bad + far_bad:
        print(f"McmTest differs: {ws!r} at {pt!r}")
    routes = cone_routes(sparse)
    rank1_bad, asked = rank1_disagreements()
    for weights, x in rank1_bad:
        print(f"rank-one MCM routes differ: {weights!r} at {x}")
    region_bad, regions = region_disagreements(sparse)
    for ws, box in region_bad:
        print(f"swept MCM region differs: {ws!r} on {box!r}")
    walked = sparse + random_systems()
    apery_bad, cones = apery_disagreements(walked)
    for ws in apery_bad:
        print(f"Apery tables differ from the linear scan's: {ws!r}")
    print(f"{len(sample) - len(smith_bad)}/{len(sample)} Smith forms agree; "
          f"{tested * POINTS - len(mcm_bad)}/{tested * POINTS} MCM answers agree "
          f"on {tested} of {len(systems)} weight systems; "
          f"{len(sparse) * POINTS - len(sparse_bad)}/{len(sparse) * POINTS} on "
          f"{len(sparse)} sparse systems, whose {routes['saturated'] + routes['apery']} "
          f"cones are {routes['saturated']} saturated and {routes['apery']} with an "
          f"Apery table (largest |Ap| {routes['largest_ap']}, index D "
          f"{routes['largest_index']}); "
          f"{asked - len(rank1_bad)}/{asked} rank-one MCM answers agree with the "
          f"closed form on {len(RANK1_SYSTEMS)} weight systems, "
          f"on Python {sys.version.split()[0]}")
    print(f"{len(sparse) - len(far_bad)}/{len(sparse)} MCM answers agree with the level "
          f"cones at one point each of [-{FAR_BOX}, {FAR_BOX}]^2 on {len(sparse)} sparse systems")
    print(f"{regions - len(region_bad)}/{regions} swept MCM regions agree with the pointwise "
          f"oracle on {len(sparse)} sparse systems (off-centre boxes) and "
          f"{len(RANK1_SYSTEMS)} rank-one systems")
    print(f"{len(walked) - len(apery_bad)}/{len(walked)} systems ({cones} cones) compile the "
          f"tables and conductors of the linear-scan Apery walk: {len(sparse)} sparse systems "
          f"and {RANDOM_SYSTEMS} with entries in [-{RANDOM_ENTRIES}, {RANDOM_ENTRIES}]")
    sys.exit(1 if smith_bad or mcm_bad or far_bad or rank1_bad or region_bad or apery_bad
             else 0)

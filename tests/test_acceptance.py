"""Acceptance suite: one test per criterion, exact assertions throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is either a worked value from the source
material or frozen from an independent oracle computed in this file or in
the module tests.
"""

from __future__ import annotations

import random
import time

from hibinccr import (Rank1Weights, TypeParams, Window, base_window,
                      chamber_decomposition, chordless_circuits,
                      class_group, classify, conic_classes, conic_polytope,
                      endomorphism_is_mcm, enumerate_conic, exchange_graph,
                      generate_family, is_conic, mcm_bound, mcm_region,
                      mutate_window, parse_cone, parse_poset,
                      replay_certificate, segre_poset, semigroup_member,
                      sigma_matrix, spanning_tree, verify_nccr)
from hibinccr.mcm import CLOSED, HALF_OPEN, OPEN
from hibinccr.nccr import character_window

from conftest import EXAMPLE_TREE_HINT, load_corpus, table
from oracles import semigroup_members


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: PASS - {message}")


# ---------------------------------------------------------------------------


def test_criterion_01_running_example_end_to_end():
    start = time.perf_counter()
    p = parse_poset(load_corpus("running_example.poset"))
    tree = spanning_tree(p, hint=EXAMPLE_TREE_HINT)
    cgd = class_group(sigma_matrix(p), tree)
    assert cgd.rank == 2
    assert cgd.weights == ((1, 0), (1, 0), (1, 0), (-1, 0),
                           (-1, -1), (-1, -1), (0, 1), (0, 1))
    cp = conic_polytope(chordless_circuits(p), cgd)
    assert set(cp.ineqs) == {((1, 0), -2, 2), ((0, 1), -1, 1), ((1, -1), -2, 2)}
    points = enumerate_conic(cp)
    assert len(points) == 13
    result = classify(p)
    assert result == TypeParams("I", (0, 1), "as-given")
    assert sorted(cgd.weights) == sorted(
        [(1, 0)] * 3 + [(0, 1)] * 2 + [(-1, 0)] + [(-1, -1)] * 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"running example: rank 2, printed relations, 3 inequality "
              f"pairs, 13 conic classes, type I (0,1) in {elapsed:.3f}s")


CONIC_FORMS = {
    ("I", (0, 1)): lambda c: abs(c[0]) <= 2 and abs(c[1]) <= 1 and abs(c[0] - c[1]) <= 2,
    ("I", (1, 1)): lambda c: abs(c[0]) <= 3 and abs(c[1]) <= 1 and abs(c[0] - c[1]) <= 3,
    ("I", (2, 3)): lambda c: abs(c[0]) <= 6 and abs(c[1]) <= 3 and abs(c[0] - c[1]) <= 6,
    ("II", (1, 1, 1)): lambda c: abs(c[0]) <= 2 and abs(c[1]) <= 2 and abs(c[0] - c[1]) <= 4,
    ("III", (0, 2, 0)): lambda c: abs(c[0]) <= 3 and abs(c[1]) <= 1 and abs(c[0] - c[1]) <= 3,
    ("III", (1, 2, 1)): lambda c: abs(c[0]) <= 5 and abs(c[1]) <= 1 and abs(c[0] - c[1]) <= 5,
    ("IV", (1, 1)): lambda c: abs(c[0]) <= 1 and abs(c[1]) <= 1,
    ("IV", (2, 3)): lambda c: abs(c[0]) <= 2 and abs(c[1]) <= 3,
    ("V", (0,)): lambda c: abs(c[0]) <= 1 and abs(c[1]) <= 1 and abs(c[0] - c[1]) <= 1,
    ("V", (1,)): lambda c: abs(c[0]) <= 2 and abs(c[1]) <= 2 and abs(c[0] - c[1]) <= 2,
    ("V", (2,)): lambda c: abs(c[0]) <= 3 and abs(c[1]) <= 3 and abs(c[0] - c[1]) <= 3,
}


def test_criterion_02_conic_polytopes_closed_forms():
    for (tag, params), predicate in sorted(CONIC_FORMS.items()):
        fam = generate_family(tag, params)
        cgd = class_group(sigma_matrix(fam.poset), fam.figure_tree)
        cp = conic_polytope(chordless_circuits(fam.poset), cgd)
        points = enumerate_conic(cp)
        expected = sorted((x, y) for x in range(-25, 26) for y in range(-25, 26)
                          if predicate((x, y)))
        assert points == expected, (tag, params)
    report(2, f"{len(CONIC_FORMS)} conic polytopes equal their closed forms "
              f"exactly (types I-V)")


def _mcm_form(tag, params):
    if tag == "I":
        m, n = params
        return (lambda c: abs(c[1]) <= n
                and -(m + n + 1) + min(c[1], 0) <= c[0] <= (m + n + 1) + max(c[1], 0)), \
            (m + 2 * n + 1, n)
    if tag == "II":
        l, m, n = params
        return (lambda c: abs(c[0]) <= l + m and abs(c[1]) <= m + n), (l + m, m + n)
    if tag == "IV":
        m, n = params
        return (lambda c: abs(c[0]) <= m and abs(c[1]) <= n), (m, n)
    n, = params

    def type5(c):
        square = abs(c[0]) <= n + 1 and abs(c[1]) <= n + 1
        wings = ((c[1] >= n + 1 and c[1] - c[0] <= n + 1 and c[0] <= n + 1)
                 or (c[0] >= n + 1 and c[0] - c[1] <= n + 1 and c[1] <= n + 1)
                 or (-c[1] >= n + 1 and -c[1] + c[0] <= n + 1 and -c[0] <= n + 1)
                 or (-c[0] >= n + 1 and -c[0] + c[1] <= n + 1 and -c[1] <= n + 1))
        return square or wings
    return type5, (2 * n + 2, 2 * n + 2)


MCM_CASES = [("I", (0, 1)), ("I", (1, 1)), ("I", (2, 3)), ("II", (1, 1, 1)),
             ("IV", (1, 1)), ("IV", (2, 3)), ("V", (0,)), ("V", (1,)), ("V", (2,))]


def test_criterion_03_mcm_regions_match_figures():
    worst = 0.0
    for tag, params in MCM_CASES:
        predicate, extreme = _mcm_form(tag, params)
        ws = table(tag, params)
        box = [(-extreme[0] - 3, extreme[0] + 3), (-extreme[1] - 3, extreme[1] + 3)]
        start = time.perf_counter()
        region = mcm_region(ws, box)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 10.0, (tag, params)
        expected = {(x, y) for x in range(box[0][0], box[0][1] + 1)
                    for y in range(box[1][0], box[1][1] + 1) if predicate((x, y))}
        assert region == expected, (tag, params)
    report(3, f"{len(MCM_CASES)} pointwise MCM regions equal the figure "
              f"regions, slowest instance {worst:.2f}s")


ALL_CASES = [("I", (0, 1)), ("I", (1, 1)), ("I", (2, 3)), ("II", (1, 1, 1)),
             ("III", (0, 2, 0)), ("III", (1, 2, 1)), ("IV", (1, 1)),
             ("IV", (2, 3)), ("V", (0,)), ("V", (1,)), ("V", (2,))]


def test_criterion_04_conic_inside_mcm_and_symmetry():
    for tag, params in ALL_CASES:
        ws = table(tag, params)
        conic = set(conic_classes(ws))
        hi = [max(abs(pt[k]) for pt in conic) + 4 for k in range(2)]
        region = mcm_region(ws, [(-hi[0], hi[0]), (-hi[1], hi[1])])
        assert conic <= region, (tag, params)
        assert conic == {(-x, -y) for (x, y) in conic}
        assert region == {(-x, -y) for (x, y) in region}
    report(4, f"conic subset of MCM and central symmetry of both on "
              f"{len(ALL_CASES)} corpus instances")


def test_criterion_05_chamber_tables():
    ws = table("I", (2, 3))
    m, n = 2, 3
    dec = chamber_decomposition(ws)
    kinds = [c.kind for c in dec.chambers]
    assert kinds == [HALF_OPEN, CLOSED, OPEN, CLOSED, OPEN, CLOSED,
                     HALF_OPEN, OPEN]

    def mults(c):
        out: dict = {}
        for i in c.t_set:
            out[ws[i]] = out.get(ws[i], 0) + 1
        return out

    assert mults(dec.chambers[0]) == {(-1, 0): m + 1, (-1, -1): n + 1}
    assert mults(dec.chambers[1]) == {(-1, -1): n + 1}
    assert mults(dec.chambers[2]) == {(1, 0): m + n + 2, (-1, -1): n + 1}
    assert mults(dec.chambers[3]) == {(1, 0): m + n + 2}
    assert mults(dec.chambers[4]) == {(1, 0): m + n + 2, (0, 1): n + 1}
    assert mults(dec.chambers[5]) == {(0, 1): n + 1}
    assert mults(dec.chambers[6]) == {(0, 1): n + 1, (-1, 0): m + 1}
    assert mults(dec.chambers[7]) == {(0, 1): n + 1, (-1, 0): m + 1,
                                      (-1, -1): n + 1}

    ws4 = table("IV", (2, 3))
    dec4 = chamber_decomposition(ws4)
    kinds4 = [c.kind for c in dec4.chambers]
    assert kinds4 == [OPEN, CLOSED, OPEN, CLOSED, OPEN, CLOSED, OPEN, CLOSED]
    assert sum(1 for k in kinds4 if k == CLOSED) == 4
    assert sum(1 for k in kinds4 if k == OPEN) == 4

    for tag, params in ALL_CASES:
        assert chamber_decomposition(table(tag, params)).hypothesis_ok, (tag, params)
    report(5, "chamber kinds and weight lists match the worked tables; "
              "criterion hypothesis holds on all five families")


NCCR_COUNTS = {
    ("I", (0, 1)): 6, ("I", (1, 1)): 8, ("I", (2, 3)): 28,
    ("II", (1, 1, 1)): 9, ("III", (0, 2, 0)): 8, ("III", (1, 2, 1)): 12,
    ("IV", (1, 1)): 4, ("IV", (2, 3)): 12,
    ("V", (0,)): 4, ("V", (1,)): 9, ("V", (2,)): 16,
}


def test_criterion_06_nccr_verification_on_corpus():
    worst = 0.0
    for (tag, params), count in sorted(NCCR_COUNTS.items()):
        fam = generate_family(tag, params)
        start = time.perf_counter()
        rep = verify_nccr(fam.poset)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 30.0, (tag, params)
        assert rep.ok, (tag, params, rep.reason)
        assert len(rep.characters.chars) == count
        assert rep.end_mcm is not None and rep.end_mcm.ok
        cert = rep.gldim.certificate
        ok, why = replay_certificate(cert, rep.characters, rep.weights)
        assert ok, why
    report(6, f"splitting NCCR verified on {len(NCCR_COUNTS)} instances "
              f"(character counts match closed forms; certificates replay), "
              f"slowest {worst:.1f}s")


def test_criterion_07_four_ray_cone():
    cgd = class_group(parse_cone(load_corpus("rank1_example.cone")))
    assert cgd.rank == 1
    assert cgd.weights == ((1,), (-2,), (4,), (-3,))
    line = Rank1Weights.from_class_group(cgd)
    bound = mcm_bound(line)
    assert bound.summands == 5
    assert bound.interval == (-4, 4)
    assert base_window(line) == Window(lo=0, size=5)
    graph = exchange_graph(line, generators_only=True)
    assert len(graph.vertices) == 5
    assert graph.edges == ((0, 1, -4), (1, 2, -3), (2, 3, -2), (3, 4, -1))
    res = mutate_window(Window(lo=0, size=5), "low", line)
    assert res.window == Window(lo=1, size=5)
    assert res.kernel_class == 5 and res.middle_classes == (2, 3)
    back = mutate_window(res.window, "high", line)
    assert back.window == Window(lo=0, size=5)
    report(7, "four-ray cone: weights (1,-2,4,-3), 5 summands, interval "
              "[-4,4], 5-vertex path, mutation data and involutivity exact")


def test_criterion_08_segre_products():
    for m in (1, 2, 3):
        p = segre_poset(m)
        cgd = class_group(sigma_matrix(p), spanning_tree(p))
        line = Rank1Weights.from_class_group(cgd)
        bound = mcm_bound(line)
        assert bound.summands == m + 1
        assert bound.interval == (-m, m)
        assert base_window(line) == Window(lo=0, size=m + 1)
        vectors = line.as_vectors()
        conic = conic_classes(vectors)
        assert conic == [(a,) for a in range(-m, m + 1)]
        mcm_set = mcm_region(vectors, [(-2 * m - 2, 2 * m + 2)])
        assert mcm_set == set(conic)
        rep = verify_nccr(p)
        assert rep.ok and len(rep.characters.chars) == m + 1
    rep5 = verify_nccr(parse_poset(load_corpus("type5_n0.poset")))
    assert rep5.ok and len(rep5.characters.chars) == 4
    report(8, "two-factor products m=1,2,3: m+1 summands, conic = MCM = "
              "[-m,m]; three-factor n=0 verifies with 4 characters")


CORPUS_POSETS = [
    "running_example.poset", "type1_m0_n1.poset", "type1_m1_n1.poset", "type1_m2_n3.poset",
    "type2_l1_m1_n1.poset", "type3_l0_m2_n0.poset", "type3_l1_m2_n1.poset",
    "type4_m1_n1.poset", "type4_m2_n3.poset", "type5_n0.poset", "type5_n1.poset",
    "type5_n2.poset", "segre_m1.poset", "segre_m2.poset", "segre_m3.poset",
]


def test_criterion_09_oracle_equivalence():
    rng = random.Random(1748)
    instances = 0
    while instances < 200:
        k = rng.randint(1, 4)
        gens = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(k)]
        target = (rng.randint(-8, 8), rng.randint(-8, 8))
        assert semigroup_member(target, gens) == (target in semigroup_members(gens, [target]))
        instances += 1

    checked = 0
    for name in CORPUS_POSETS:
        p = parse_poset(load_corpus(name))
        tree = spanning_tree(p)
        cgd = class_group(sigma_matrix(p), tree)
        cp = conic_polytope(chordless_circuits(p), cgd)
        points = set(enumerate_conic(cp))
        if cgd.rank == 0:
            continue
        spans = [2 * max(abs(pt[k]) for pt in points) for k in range(cgd.rank)]
        if cgd.rank == 1:
            box = [(a,) for a in range(-spans[0], spans[0] + 1)]
        else:
            box = [(a, b) for a in range(-spans[0], spans[0] + 1)
                   for b in range(-spans[1], spans[1] + 1)]
        for chi in box:
            assert is_conic(chi, cgd) == (chi in points), (name, chi)
            checked += 1
    report(9, f"semigroup membership vs complete bounded search on "
              f"{instances} random instances; conic characterizations agree "
              f"on {checked} classes over doubled boxes")


def test_criterion_10_negative_controls():
    not_pure = parse_poset("elements: a b c d e f\ncover: b < c\n"
                           "cover: d < e\ncover: e < f\n")
    rep = verify_nccr(not_pure)
    assert rep.verdict == "rejected" and "Gorenstein" in rep.reason
    assert rep.characters is None  # rejected before any NCCR stage

    bridge = parse_poset("elements: a b v w c d\n"
                         "cover: a < v\ncover: b < v\ncover: v < w\n"
                         "cover: w < c\ncover: w < d\n")
    rep = verify_nccr(bridge)
    assert rep.verdict == "rejected"
    assert "{v, w}" in rep.reason  # the offending edge is named

    line = Rank1Weights(weights=(1, -2, 4, -3))
    beta = mcm_bound(line).summands
    vectors = line.as_vectors()
    oversize = character_window(list(range(0, -(beta + 1), -1)))
    assert not endomorphism_is_mcm(oversize, vectors).ok
    exact = character_window(list(range(0, -beta, -1)))
    assert endomorphism_is_mcm(exact, vectors).ok
    report(10, "non-pure and polynomial-extension posets rejected before "
               "NCCR stages (edge named); oversize windows fail the MCM check")

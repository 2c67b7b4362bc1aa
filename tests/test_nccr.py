from __future__ import annotations

import json
import re
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibinccr import (CertStep, CharacterSet, GldimCertificate, certify_gldim,
                      conic_classes, endomorphism_is_mcm, is_separated, koszul_terms,
                      nccr_characters, parse_poset, replay_certificate,
                      segre_poset, verify_nccr)
from hibinccr import mcm, rank1
from hibinccr.classgroup import class_group, sigma_matrix
from hibinccr.nccr import UnusableDirectionError, character_window, default_directions
from hibinccr.posets import spanning_tree

from conftest import load_corpus, table
from oracles import (pairwise_endomorphism_is_mcm, reference_certify_gldim,
                     stepwise_replay_certificate)


# ---------------------------------------------------------------------------
# character boxes


@pytest.mark.parametrize("tag,params,count", [
    ("I", (0, 1), 6), ("I", (1, 1), 8), ("I", (2, 3), 28),
    ("II", (1, 1, 1), 9), ("II", (0, 1, 0), 4), ("II", (2, 1, 0), 8),
    ("III", (0, 2, 0), 8), ("III", (1, 2, 1), 12), ("III", (2, 2, 0), 12),
    ("IV", (1, 1), 4), ("IV", (2, 3), 12), ("IV", (3, 1), 8),
    ("V", (0,), 4), ("V", (1,), 9), ("V", (2,), 16)])
def test_character_counts(tag, params, count):
    chars = nccr_characters(tag, params)
    assert len(chars.chars) == count
    assert (0,) * 2 in chars.chars


def test_character_boxes():
    assert set(nccr_characters("I", (0, 1)).chars) == \
        {(a, b) for a in range(3) for b in range(2)}
    assert set(nccr_characters("V", (0,)).chars) == \
        {(a, b) for a in range(2) for b in range(2)}
    assert set(nccr_characters("IV", (1, 1)).chars) == \
        {(a, b) for a in range(2) for b in range(2)}


def test_character_params_validated():
    with pytest.raises(ValueError):
        nccr_characters("I", (0, 0))


# ---------------------------------------------------------------------------
# endomorphism ring MCM checks


def test_end_mcm_type1():
    report = endomorphism_is_mcm(nccr_characters("I", (0, 1)), table("I", (0, 1)))
    assert report.ok
    assert report.checked == 36


def test_end_mcm_trivial():
    report = endomorphism_is_mcm(CharacterSet(chars=((0, 0),)), table("I", (0, 1)))
    assert report.ok and report.checked == 1


def test_end_mcm_failure_detected():
    chars = CharacterSet(chars=nccr_characters("I", (0, 1)).chars + ((5, 0),))
    report = endomorphism_is_mcm(chars, table("I", (0, 1)))
    assert not report.ok
    assert report.first_failure is not None
    assert report.first_failure[2] in {(5, 0), (-5, 0)}


@pytest.mark.parametrize("chars, weights, bad", [
    (((0,), (1, 99)), [(3,), (7,), (-4,), (-6,)], "character (1, 99) has rank 2, expected rank 1"),
    (((0, 0), (1, 0, 5)), table("I", (0, 1)), "character (1, 0, 5) has rank 3, expected rank 2"),
    (((0, 0), (1,)), table("I", (0, 1)), "character (1,) has rank 1, expected rank 2")],
    ids=["longer-rank-one", "longer-rank-two", "shorter-rank-two"])
def test_end_mcm_refuses_characters_of_another_rank(chars, weights, bad):
    """Every character is checked against the rank of the weights, before
    the characters are coded: a longer one is not cut to that rank, and a
    shorter one does not end in an IndexError."""
    with pytest.raises(ValueError, match=re.escape(bad)):
        endomorphism_is_mcm(CharacterSet(chars=chars), weights)


FAMILY_BOXES = [("I", (0, 1)), ("I", (2, 3)), ("II", (1, 1, 1)), ("II", (2, 2, 2)),
                 ("III", (0, 2, 0)), ("III", (2, 3, 2)), ("IV", (1, 1)), ("IV", (3, 4)),
                 ("V", (1,)), ("V", (3,))]


def _end_mcm_cases():
    for tag, params in FAMILY_BOXES:
        yield f"{tag}{params}", nccr_characters(tag, params).chars, table(tag, params)
    box = nccr_characters("I", (0, 1)).chars
    ws = table("I", (0, 1))
    yield "box-far-right", box + ((5, 0),), ws
    yield "far-first", ((-9, 4),) + box, ws
    yield "two-far", box + ((0, 7), (7, 0)), ws
    yield "far-middle", nccr_characters("II", (1, 1, 1)).chars + ((2, -6),), \
        table("II", (1, 1, 1))
    yield "single", ((0, 0),), ws
    yield "rank1-window", tuple((c,) for c in range(-3, 4)), [(2,), (3,), (-2,), (-3,)]


END_MCM_CASES = list(_end_mcm_cases())


@pytest.mark.parametrize("chars,ws", [c[1:] for c in END_MCM_CASES],
                         ids=[c[0] for c in END_MCM_CASES])
def test_end_mcm_matches_pairwise_oracle(monkeypatch, chars, ws):
    """The report equals that of the loop over every ordered pair, and the
    queries of the compiled test are that loop's ``is_mcm`` queries, in the
    same order."""
    queries = []
    call = mcm.McmTest.__call__

    def recording_test(test, chi):
        queries.append(chi)
        return call(test, chi)

    monkeypatch.setattr(mcm.McmTest, "__call__", recording_test)
    report = endomorphism_is_mcm(CharacterSet(chars=chars), ws)
    ours, queries[:] = list(queries), []
    is_mcm = mcm.is_mcm

    def recording(chi, weights):
        queries.append(chi)
        return is_mcm(chi, weights)

    monkeypatch.setattr(mcm, "is_mcm", recording)
    assert report == pairwise_endomorphism_is_mcm(CharacterSet(chars=chars), ws)
    assert ours == queries


def test_end_mcm_translation_invariant():
    ws = table("II", (1, 1, 1))
    chars = nccr_characters("II", (1, 1, 1))
    shifted = CharacterSet(chars=tuple((a + 3, b - 2) for a, b in chars.chars))
    assert endomorphism_is_mcm(chars, ws).ok == endomorphism_is_mcm(shifted, ws).ok


# ---------------------------------------------------------------------------
# separation and Koszul terms


def test_separation_examples():
    chars = nccr_characters("I", (0, 1))
    assert is_separated((0, -1), chars, (0, 1))
    assert is_separated((-1, 0), chars, (1, 0))
    for chi in chars.chars:
        assert not is_separated(chi, chars, (0, 1))
        assert not is_separated(chi, chars, (1, -1))


def test_koszul_terms_vertical():
    ws = table("I", (0, 1))
    assert koszul_terms((0, -1), (0, 1), ws) == ((0, 0), (0, 1))


def test_koszul_terms_horizontal():
    ws = table("I", (0, 1))
    assert koszul_terms((-1, 0), (1, 0), ws) == ((0, 0), (1, 0), (2, 0))


def test_koszul_terms_diagonal_type4():
    ws = table("IV", (1, 1))
    terms = koszul_terms((0, 0), (1, 1), ws)
    expected = sorted((a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0))
    assert list(terms) == expected


def test_koszul_dead_direction_is_the_error_path():
    with pytest.raises(UnusableDirectionError):
        koszul_terms((0,), (1,), [(-1,), (-2,)])


@pytest.mark.parametrize("chi,direction,bad", [
    ((0,), (0, 1), "character (0,)"), ((0, 0, 0), (0, 1), "character (0, 0, 0)"),
    ((0, -1), (1,), "direction (1,)"), ((0, -1), (1, 0, 7), "direction (1, 0, 7)")],
    ids=["short-character", "long-character", "short-direction", "long-direction"])
def test_wrong_rank_is_an_error(chi, direction, bad):
    chars = nccr_characters("I", (0, 1))
    for call in (lambda: is_separated(chi, chars, direction),
                 lambda: koszul_terms(chi, direction, table("I", (0, 1)))):
        with pytest.raises(ValueError, match=rf"^{re.escape(bad)} has rank \d, "
                                             r"expected rank 2$"):
            call()


# ---------------------------------------------------------------------------
# certification


def test_certify_type1_small():
    ws = table("I", (0, 1))
    chars = nccr_characters("I", (0, 1))
    result = certify_gldim(chars, ws)
    assert result.ok and result.certificate is not None
    cert = result.certificate
    assert len(cert.goal) == 13 - 6
    # the seven goal characters discharge each other; no helpers needed
    assert len(cert.steps) == 7
    assert CertStep(chi=(0, -1), direction=(0, 1), deps=((0, 0), (0, 1))) in cert.steps
    ok, why = replay_certificate(cert, chars, ws)
    assert ok, why


def test_certify_goal_subset_of_chars_is_empty():
    ws = table("I", (0, 1))
    chars = nccr_characters("I", (0, 1))
    result = certify_gldim(chars, ws, goal=[(0, 0), (1, 1)])
    assert result.ok
    assert result.certificate.steps == ()


def test_certify_type4():
    ws = table("IV", (1, 1))
    chars = nccr_characters("IV", (1, 1))
    result = certify_gldim(chars, ws)
    assert result.ok
    assert set(result.certificate.goal) == set(conic_classes(ws)) - set(chars.chars)
    ok, _ = replay_certificate(result.certificate, chars, ws)
    assert ok


def test_certificates_deterministic():
    ws = table("III", (0, 2, 0))
    chars = nccr_characters("III", (0, 2, 0))
    a = certify_gldim(chars, ws)
    b = certify_gldim(chars, ws)
    assert a.certificate.to_json_lines() == b.certificate.to_json_lines()


def test_certificate_json_round_trip():
    ws = table("I", (0, 1))
    chars = nccr_characters("I", (0, 1))
    cert = certify_gldim(chars, ws).certificate
    back = GldimCertificate.from_json_lines(cert.to_json_lines(), cert.goal)
    assert back == cert


def test_replay_rejects_corruption():
    ws = table("I", (0, 1))
    chars = nccr_characters("I", (0, 1))
    cert = certify_gldim(chars, ws).certificate

    # drop the first step: later dependencies dangle
    pruned = GldimCertificate(steps=cert.steps[1:], goal=cert.goal)
    ok, why = replay_certificate(pruned, chars, ws)
    assert not ok

    # tamper with a dependency list
    bad_step = CertStep(chi=cert.steps[0].chi, direction=cert.steps[0].direction,
                        deps=cert.steps[0].deps[:-1])
    tampered = GldimCertificate(steps=(bad_step,) + cert.steps[1:], goal=cert.goal)
    ok, why = replay_certificate(tampered, chars, ws)
    assert not ok and "Koszul" in why

    # claim a non-separating direction: the opposite of a separating one
    # pairs with chi above the set's largest pairing
    first = cert.steps[0]
    opposite = tuple(-c for c in first.direction)
    assert not is_separated(first.chi, chars, opposite)
    bad_dir = CertStep(chi=first.chi, direction=opposite, deps=first.deps)
    tampered = GldimCertificate(steps=(bad_dir,) + cert.steps[1:], goal=cert.goal)
    assert replay_certificate(tampered, chars, ws) == \
        (False, f"step 0: {opposite} does not separate {first.chi}")


@pytest.mark.parametrize("late", [CertStep(chi=(3, 0), direction=(0, 1), deps=()),
                                  CertStep(chi=(1, -1), direction=(-1, 0), deps=())],
                         ids=["same-direction", "other-direction"])
def test_replay_separation_is_per_step(late):
    """The first step's direction separates it; the later step's direction
    (the same one, or one whose least pairing with the set is lower) does
    not separate the later character, and that step is refused."""
    ws = table("I", (0, 1))
    chars = nccr_characters("I", (0, 1))
    early = CertStep(chi=(0, -1), direction=(0, 1), deps=((0, 0), (0, 1)))
    cert = GldimCertificate(steps=(early, late), goal=((0, -1), late.chi))
    assert replay_certificate(cert, chars, ws) == \
        (False, f"step 1: {late.direction} does not separate {late.chi}")
    assert replay_certificate(GldimCertificate(steps=(early,), goal=((0, -1),)),
                              chars, ws) == (True, "certificate replays")


@pytest.mark.parametrize("direction,deps,message", [
    ([1], [[0, 0], [0, 1]], "direction (1,) has rank 1"),
    ([1, 0, 7], [[0, 0], [0, 1]], "direction (1, 0, 7) has rank 3"),
    ([0, 1], [[0, 0], [0, 1, 0]], "dependency (0, 1, 0) has rank 3"),
], ids=["short-direction", "long-direction", "long-dependency"])
def test_replay_rejects_wrong_rank(direction, deps, message):
    ws = table("I", (0, 1))
    chars = nccr_characters("I", (0, 1))
    cert = certify_gldim(chars, ws).certificate
    first = json.dumps({"chi": [0, -1], "direction": direction, "deps": deps})
    rest = cert.to_json_lines().split("\n", 1)[1]
    tampered = GldimCertificate.from_json_lines(first + "\n" + rest, cert.goal)
    assert replay_certificate(tampered, chars, ws) == \
        (False, f"step 0: {message}, expected rank 2")


def test_replay_rejects_long_character():
    ws = table("I", (0, 1))
    chars = nccr_characters("I", (0, 1))
    line = json.dumps({"chi": [0, -1, 4], "direction": [0, 1], "deps": [[0, 0], [0, 1]]})
    cert = GldimCertificate.from_json_lines(line + "\n", [(0, -1)])
    assert replay_certificate(cert, chars, ws) == \
        (False, "step 0: character (0, -1, 4) has rank 3, expected rank 2")


CERTIFIED = FAMILY_BOXES + [("segre", (m,)) for m in (1, 2, 3)]


@pytest.mark.parametrize("tag,params", CERTIFIED, ids=[f"{t}{p}" for t, p in CERTIFIED])
def test_replay_separation_matches_is_separated(tag, params):
    """Each step's character against its own direction and every default
    direction: a one-step certificate is refused for separation exactly
    when ``is_separated`` says no, and the whole certificate replays."""
    if tag == "segre":
        chars, ws = segre_window(*params)
        cert = certify_gldim(chars, ws, goal=conic_classes(ws)).certificate
    else:
        ws, chars = table(tag, params), nccr_characters(tag, params)
        cert = certify_gldim(chars, ws).certificate
    assert replay_certificate(cert, chars, ws) == (True, "certificate replays")
    for step in cert.steps:
        for direction in {step.direction, *default_directions(chars)}:
            alone = GldimCertificate(steps=(CertStep(step.chi, direction, ()),), goal=())
            ok, why = replay_certificate(alone, chars, ws)
            refused = why == f"step 0: {direction} does not separate {step.chi}"
            assert not ok and refused == (not is_separated(step.chi, chars, direction))


def test_certify_reports_failure():
    # an intentionally tiny character set cannot cover the conic classes
    ws = table("I", (0, 1))
    chars = CharacterSet(chars=((0, 0),))
    result = certify_gldim(chars, ws, directions=[(0, 1), (0, -1)])
    assert not result.ok
    assert result.uncovered
    assert result.reasons


def segre_window(m):
    """The rank-one character window and weights that ``verify_nccr`` uses
    on the Segre poset of two chains of m."""
    p = segre_poset(m)
    line = rank1.Rank1Weights.from_class_group(class_group(sigma_matrix(p),
                                                           spanning_tree(p)))
    window = rank1.base_window(line)
    return character_window([-c for c in window.classes]), [(w,) for w in line.weights]


def _search_cases():
    for tag, params in [("I", (0, 1)), ("I", (2, 3)), ("II", (1, 1, 1)), ("II", (2, 2, 2)),
                        ("III", (0, 2, 0)), ("III", (2, 3, 2)), ("IV", (1, 1)),
                        ("IV", (3, 4)), ("V", (1,)), ("V", (3,))]:
        yield f"{tag}{params}", nccr_characters(tag, params), table(tag, params), {}
    for m in (1, 2, 3, 5):
        chars, ws = segre_window(m)
        yield f"segre{m}", chars, ws, {"goal": conic_classes(ws)}
    ws = table("I", (0, 1))
    point = CharacterSet(chars=((0, 0),))
    yield "point-vertical", point, ws, {"directions": [(0, 1), (0, -1)]}
    yield "point-default", point, ws, {}
    yield "point-unusable", point, ws, {"directions": [(-1, 0), (1, 1), (0, -1)]}
    yield "strip", CharacterSet(chars=((0, 0), (1, 0))), ws, \
        {"directions": [(1, 0), (0, 1), (1, 1)]}
    yield "box-restricted", nccr_characters("II", (1, 1, 1)), table("II", (1, 1, 1)), \
        {"directions": [(1, 0), (0, 1)]}
    yield "antidiagonal", CharacterSet(chars=((0, 1), (2, 0))), ws, \
        {"directions": [(1, -1)]}
    # failures whose first missing terms move after the first round
    yield "type5-edge", CharacterSet(chars=((1, 0), (1, 1))), table("V", (0,)), \
        {"directions": [(0, 1), (1, 0), (-1, 1), (-1, -1)]}
    yield "type4-corner", CharacterSet(chars=((0, 1), (1, 1), (2, 0))), table("IV", (1, 1)), \
        {"directions": [(1, 0), (0, 1), (2, 1), (1, 2), (-1, -1)]}
    chars, ws = segre_window(3)
    yield "segre-short-window", CharacterSet(chars=chars.chars[:-1]), ws, {}


SEARCH_CASES = list(_search_cases())


@pytest.mark.parametrize("chars,ws,kwargs", [c[1:] for c in SEARCH_CASES],
                         ids=[c[0] for c in SEARCH_CASES])
def test_certify_matches_reference_search(chars, ws, kwargs):
    """The compiled search admits the same characters in the same order,
    with the same directions and dependencies, as the search that rescans
    the set on every round; failures carry the same reason strings."""
    result = certify_gldim(chars, ws, **kwargs)
    assert result == reference_certify_gldim(chars, ws, **kwargs)
    if result.ok:
        assert replay_certificate(result.certificate, chars, ws)[0]


def test_certify_failure_reasons_exact():
    ws = table("I", (0, 1))
    result = certify_gldim(CharacterSet(chars=((0, 0),)), ws,
                           directions=[(0, 1), (0, -1)])
    assert not result.ok
    reasons = dict(result.reasons)
    assert reasons[(-2, -1)] == \
        "separating directions blocked on dependencies: [((0, 1), (-2, 0))]"
    assert reasons[(-2, 0)] == "no separating direction with usable weights"


# ---------------------------------------------------------------------------
# end-to-end verification


def test_verify_running_example(running_example):
    report = verify_nccr(running_example)
    assert report.ok
    assert len(report.characters.chars) == 6
    assert report.conic_count == 13


def test_verify_type5_n0():
    report = verify_nccr(parse_poset(load_corpus("type5_n0.poset")))
    assert report.ok
    assert len(report.characters.chars) == 4


def test_verify_rejects_non_pure():
    p = parse_poset("elements: a b c d e f\ncover: b < c\n"
                    "cover: d < e\ncover: e < f\n")
    report = verify_nccr(p)
    assert report.verdict == "rejected"
    assert "Gorenstein" in report.reason


def test_verify_rejects_polynomial_extension():
    p = parse_poset("elements: a b v w c d\n"
                    "cover: a < v\ncover: b < v\ncover: v < w\n"
                    "cover: w < c\ncover: w < d\n")
    report = verify_nccr(p)
    assert report.verdict == "rejected"
    assert "polynomial extension" in report.reason
    assert "{v, w}" in report.reason


def test_verify_segre_rank1():
    report = verify_nccr(segre_poset(2))
    assert report.ok
    assert report.characters.chars == ((0,), (-1,), (-2,))


def test_window_characters_helper():
    assert character_window([0, -1, -2]).chars == ((0,), (-1,), (-2,))


def test_default_directions_need_rank_one_or_two():
    ws = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    chars = CharacterSet(chars=((0, 0, 0), (1, 0, 0)))
    with pytest.raises(ValueError, match="rank 1 and 2, not 3"):
        certify_gldim(chars, ws)
    result = certify_gldim(chars, ws, goal=[(-1, 0, 0)], directions=[(1, 0, 0)])
    assert result.certificate.steps == (CertStep((-1, 0, 0), (1, 0, 0), ((0, 0, 0),)),)
    assert replay_certificate(result.certificate, chars, ws)[0]


@pytest.mark.parametrize("chars,ws,message", [
    ((), [(1, 0), (-1, 0)], "empty character set"),
    (((0, 0),), [], "empty weight system")], ids=["no-characters", "no-weights"])
def test_certify_and_replay_refuse_empty_inputs(chars, ws, message):
    chars = CharacterSet(chars=chars)
    with pytest.raises(ValueError, match=message):
        certify_gldim(chars, ws)
    with pytest.raises(ValueError, match=message):
        replay_certificate(GldimCertificate(steps=(), goal=()), chars, ws)


def test_rank3_search_uses_the_whole_window():
    """Phase two walks the product of every coordinate's range: (1, 0, 0)
    needs the auxiliary character (0, -1, -1), off the goal."""
    ws = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    chars = CharacterSet(chars=((0, 0, 0),))
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    directions = axes + [tuple(-c for c in d) for d in axes]
    result = certify_gldim(chars, ws, goal=[(1, 0, 0), (0, 0, -1)], directions=directions)
    assert result.certificate.steps == (
        CertStep((0, 0, -1), (0, 0, 1), ((0, 0, 0),)),
        CertStep((0, -1, -1), (0, 1, 0), ((0, 0, -1),)),
        CertStep((1, 0, 0), (-1, 0, 0), ((0, -1, -1),)))
    assert result == reference_certify_gldim(chars, ws, goal=[(1, 0, 0), (0, 0, -1)],
                                             directions=directions)
    assert replay_certificate(result.certificate, chars, ws) == (True, "certificate replays")


@pytest.mark.parametrize("chars,goal,message", [
    (((0, 0),), [(0, 0, 1)], "character (0, 0, 1) has rank 3, expected rank 2"),
    (((0, 0),), [(1, 0), (4,)], "character (4,) has rank 1, expected rank 2"),
    (((0, 0), (1, 0, 0)), [(0, 1)], "character (1, 0, 0) has rank 3, expected rank 2"),
    (((0,),), None, "character (0,) has rank 1, expected rank 2"),
], ids=["long-goal", "short-goal", "long-member", "short-set"])
def test_certify_refuses_wrong_rank_characters(chars, goal, message):
    with pytest.raises(ValueError) as info:
        certify_gldim(CharacterSet(chars=chars), table("V", (0,)), goal=goal)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# randomized agreement with the oracles

_WEIGHT_VALUES = {1: [(1,), (2,), (-1,), (-2,), (3,)],
                  2: [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1), (1, 1), (2, 1), (-1, 2)]}
_DIRECTIONS = {1: [(1,), (-1,)],
               2: [(0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1),
                   (2, 1), (1, -2)]}
_END_WEIGHTS = [table("I", (0, 1)), table("II", (1, 1, 1)), table("IV", (1, 1)),
                table("V", (0,)), [(2,), (3,), (-2,), (-3,)], [(1,), (2,), (-1,), (-2,)]]


_SEARCH_FAMILIES = [("I", (0, 1)), ("II", (1, 1, 1)), ("III", (0, 2, 0)), ("IV", (1, 1)),
                    ("V", (0,)), ("V", (1,))]


@st.composite
def search_instances(draw):
    """A search of rank one or two moved to a random anchor, so that
    coordinates of both signs up to 12 occur: a small family member's box
    and conic classes, or a box or scattered set with a goal near it and a
    few weight values with multiplicities.  The directions are the default
    ones or a random subset of candidates, so that many goals fail and many
    need the window phase."""
    rank = draw(st.sampled_from([1, 2]))
    anchor = draw(st.tuples(*[st.integers(-9, 9)] * rank))

    def moved(v):
        return tuple(map(add, anchor, v))

    near = st.tuples(*[st.integers(-4, 4)] * rank).map(moved)
    if rank == 2 and draw(st.booleans()):
        tag, params = draw(st.sampled_from(_SEARCH_FAMILIES))
        ws = table(tag, params)
        chars = tuple(map(moved, nccr_characters(tag, params).chars))
        goal = list(map(moved, conic_classes(ws)))
    else:
        values = draw(st.lists(st.sampled_from(_WEIGHT_VALUES[rank]), min_size=1,
                               max_size=3, unique=True))
        ws = [v for v in values for _ in range(draw(st.integers(1, 2)))]
        if draw(st.booleans()):
            sides = draw(st.tuples(*[st.integers(1, 3)] * rank))
            chars = tuple(map(moved, product(*map(range, sides))))
        else:
            chars = tuple(draw(st.lists(near, min_size=1, max_size=4, unique=True)))
        goal = draw(st.lists(near, min_size=1, max_size=6))
    directions = draw(st.none() | st.lists(st.sampled_from(_DIRECTIONS[rank]), min_size=1,
                                            unique=True))
    return CharacterSet(chars=chars), ws, goal, directions


@settings(max_examples=150, deadline=None, derandomize=True)
@given(search_instances())
def test_certify_agrees_with_reference_on_random_sets(instance):
    chars, ws, goal, directions = instance
    result = certify_gldim(chars, ws, goal=goal, directions=directions)
    assert result == reference_certify_gldim(chars, ws, goal=goal, directions=directions)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_END_WEIGHTS).flatmap(lambda ws: st.tuples(
    st.just(ws), st.lists(st.tuples(*[st.integers(-12, 12)] * len(ws[0])),
                          min_size=1, max_size=6, unique=True))))
def test_end_mcm_agrees_with_pairwise_oracle_on_random_sets(instance):
    """Same report, and the compiled test is asked the pairwise loop's
    ``is_mcm`` queries in the same order."""
    ws, chars = instance
    queries, oracle_queries = [], []
    call, is_mcm = mcm.McmTest.__call__, mcm.is_mcm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcm.McmTest, "__call__",
                   lambda test, chi: queries.append(chi) or call(test, chi))
        mp.setattr(mcm, "is_mcm",
                   lambda chi, weights: oracle_queries.append(chi) or is_mcm(chi, weights))
        report = endomorphism_is_mcm(CharacterSet(chars=tuple(chars)), ws)
        expected = pairwise_endomorphism_is_mcm(CharacterSet(chars=tuple(chars)), ws)
    assert report == expected
    assert queries == oracle_queries


def _corruptions(cert, directions, data):
    """The certificate itself and one corrupted copy: a dependency dropped
    or added, a step's direction swapped, or two steps swapped."""
    yield cert
    steps = list(cert.steps)
    if not steps:
        return
    i = data.draw(st.integers(0, len(steps) - 1))
    step = steps[i]
    kind = data.draw(st.sampled_from(["drop", "add", "direction", "reorder"]))
    if kind == "drop":
        steps[i] = CertStep(step.chi, step.direction, step.deps[1:])
    elif kind == "add":
        extra = tuple(c + data.draw(st.integers(-2, 2)) for c in step.chi)
        steps[i] = CertStep(step.chi, step.direction, step.deps + (extra,))
    elif kind == "direction":
        steps[i] = CertStep(step.chi, data.draw(st.sampled_from(directions)), step.deps)
    else:
        j = data.draw(st.integers(0, len(steps) - 1))
        steps[i], steps[j] = steps[j], steps[i]
    yield GldimCertificate(steps=tuple(steps), goal=cert.goal)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(search_instances(), st.data())
def test_replay_agrees_with_stepwise_replay(instance, data):
    chars, ws, goal, directions = instance
    result = certify_gldim(chars, ws, goal=goal, directions=directions)
    # a failed search leaves its goal to check, with no steps
    cert = result.certificate or GldimCertificate(steps=(), goal=tuple(goal))
    for cert in _corruptions(cert, _DIRECTIONS[len(ws[0])], data):
        assert replay_certificate(cert, chars, ws) == \
            stepwise_replay_certificate(cert, chars, ws)

"""Splitting NCCR construction and verification.

For each family a box of characters is distinguished; its module of
covariants gives a splitting NCCR.  Verifying that claim computationally has
two halves: every pairwise difference of box characters must be MCM, and the
endomorphism ring must have finite global dimension.  The second half is
certified by an inductive log: a character outside the box is discharged by
a direction that strictly separates it from the box and whose Koszul-type
term shifts land on already-discharged characters.  The search compiles
each candidate direction once (a separation threshold and a sorted tuple of
Koszul shifts), so testing a character costs one pairing and one
translation per direction.  The certificate replays independently of the
search that produced it: the replay computes each direction's least pairing
with the set itself, once per direction, and recomputes every step's Koszul
terms with :func:`koszul_terms`.  The first half compiles the MCM test
(:class:`mcm.McmTest`) once per check and asks it once per distinct
difference.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence

from . import divisorial, families, mcm, rank1 as rank1_mod
from .classgroup import class_group, sigma_matrix
from .divisorial import WeightsLike, weight_list
from .intlattice import Vec, convex_hull, dot, find_unimodular_match, primitive
from .posets import BoundedPoset, is_pure, polynomial_extension_edge, spanning_tree


class UnusableDirectionError(ValueError):
    """No weight pairs strictly positively with the direction."""


@dataclass(frozen=True)
class CharacterSet:
    chars: tuple[Vec, ...]
    provenance: str = "user"

    def __contains__(self, chi: Vec) -> bool:
        return chi in self.chars


def nccr_characters(type_tag: str, params: Sequence[int]) -> CharacterSet:
    """The box of characters whose covariants sum to a splitting NCCR."""
    params = families.validate_params(type_tag, params)
    if type_tag == "I":
        m, n = params
        hi = (m + n + 1, n)
    elif type_tag == "II":
        l, m, n = params
        hi = (l + m, m + n)
    elif type_tag == "III":
        l, m, n = params
        hi = (l + m + n + 1, m - 1)
    elif type_tag == "IV":
        hi = params
    else:
        n, = params
        hi = (n + 1, n + 1)
    chars = tuple((c1, c2) for c1 in range(hi[0] + 1) for c2 in range(hi[1] + 1))
    label = ",".join(str(v) for v in params)
    return CharacterSet(chars=chars, provenance=f"type {type_tag} ({label})")


def character_window(chars: Sequence[int]) -> CharacterSet:
    """Rank-one character sets (consecutive integers as 1-vectors)."""
    return CharacterSet(chars=tuple((c,) for c in chars), provenance="window")


@dataclass(frozen=True)
class EndMcmReport:
    ok: bool
    checked: int
    first_failure: Optional[tuple[Vec, Vec, Vec]] = None  # (chi, chi', diff)


def endomorphism_is_mcm(chars: CharacterSet, weights: WeightsLike) -> EndMcmReport:
    """Hom between two covariants is the covariant of the difference, so the
    endomorphism ring is MCM iff every ordered difference of characters is.

    The pairs are taken in sorted order.  The MCM test is compiled once (a
    class group's own test is reused) and asked about each distinct
    difference once, in order of first occurrence, stopping at the first
    that fails; the first failing pair is that difference's first
    occurrence, and ``checked`` counts the pairs up to it.
    """
    ordered = sorted(chars.chars)
    diffs = dict.fromkeys(tuple(map(sub, chi2, chi))
                          for chi in ordered for chi2 in ordered)
    # an empty set asks nothing, so its weights are never compiled
    test = mcm.McmTest.of(weights) if diffs else None
    for diff in diffs:
        if not test(diff):
            checked = 0
            for chi in ordered:
                for chi2 in ordered:
                    checked += 1
                    if tuple(map(sub, chi2, chi)) == diff:
                        return EndMcmReport(ok=False, checked=checked,
                                            first_failure=(chi, chi2, diff))
    return EndMcmReport(ok=True, checked=len(ordered) ** 2)


def _check_rank(kind: str, v: Vec, rank: int) -> None:
    if len(v) != rank:
        raise ValueError(f"{kind} {tuple(v)} has rank {len(v)}, expected rank {rank}")


def is_separated(chi: Vec, chars: CharacterSet, direction: Vec) -> bool:
    """Strictly smaller pairing with the direction than every set member.
    The character and the direction must have the rank of the set."""
    rank = len(chars.chars[0]) if chars.chars else len(chi)
    _check_rank("character", chi, rank)
    _check_rank("direction", direction, rank)
    val = dot(direction, chi)
    return all(val < dot(direction, nu) for nu in chars.chars)


def koszul_terms(chi: Vec, direction: Vec, weights: WeightsLike) -> tuple[Vec, ...]:
    """All shifts of chi by sums of distinct positively-pairing weights.

    Weights are grouped by value; picking distinct indices is the same as
    capping each value's coefficient at its multiplicity, so each value w
    of multiplicity m contributes the steps w, 2w, ..., mw, computed once,
    and each term is chi translated by at most one step per value.  Terms
    are deduplicated and sorted; chi itself never appears (every shift pairs
    strictly positively with the direction).  The character and the
    direction must have the rank of the weights.
    """
    ws = weight_list(weights)
    rank = len(ws[0]) if ws else len(chi)
    _check_rank("character", chi, rank)
    _check_rank("direction", direction, rank)
    multiplicity = Counter(ws)
    terms = {chi}
    for value in sorted(multiplicity):
        if sum(map(mul, direction, value)) > 0:
            steps = [[c * v for v in value] for c in range(1, multiplicity[value] + 1)]
            terms.update([tuple(map(add, t, step)) for t in terms for step in steps])
    if len(terms) == 1:  # every usable weight adds a term
        raise UnusableDirectionError(f"no weight pairs positively with {direction}")
    terms.discard(chi)
    return tuple(sorted(terms))


@dataclass(frozen=True)
class CertStep:
    chi: Vec
    direction: Vec
    deps: tuple[Vec, ...]


@dataclass(frozen=True)
class GldimCertificate:
    steps: tuple[CertStep, ...]
    goal: tuple[Vec, ...]

    def to_json_lines(self) -> str:
        lines = []
        for s in self.steps:
            lines.append(json.dumps({"chi": list(s.chi),
                                     "direction": list(s.direction),
                                     "deps": [list(d) for d in s.deps]}))
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_json_lines(text: str, goal: Sequence[Vec]) -> "GldimCertificate":
        steps = []
        for line in text.splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            steps.append(CertStep(chi=tuple(obj["chi"]),
                                  direction=tuple(obj["direction"]),
                                  deps=tuple(tuple(d) for d in obj["deps"])))
        return GldimCertificate(steps=tuple(steps), goal=tuple(tuple(g) for g in goal))


@dataclass(frozen=True)
class GldimResult:
    ok: bool
    certificate: Optional[GldimCertificate]
    uncovered: tuple[Vec, ...] = ()
    reasons: tuple[tuple[Vec, str], ...] = ()


def default_directions(chars: CharacterSet) -> list[Vec]:
    """Axis and diagonal directions plus the outward edge normals of the
    character set's convex hull, for a set of rank 1 or 2."""
    rank = len(chars.chars[0])
    if rank == 1:
        return [(1,), (-1,)]
    if rank != 2:
        raise ValueError(f"default directions exist for rank 1 and 2, not {rank}; "
                         f"pass the directions")
    dirs: list[Vec] = [(0, 1), (1, 0), (0, -1), (-1, 0),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)]
    hull = convex_hull(list(chars.chars))
    if len(hull) >= 3:
        for i in range(len(hull)):
            a = hull[i]
            b = hull[(i + 1) % len(hull)]
            normal = primitive((b[1] - a[1], a[0] - b[0]))  # outward for ccw hull
            inward = (-normal[0], -normal[1])
            if inward not in dirs:
                dirs.append(inward)
    return dirs


def certify_gldim(chars: CharacterSet, weights: WeightsLike,
                  goal: Optional[Iterable[Vec]] = None,
                  directions: Optional[Sequence[Vec]] = None) -> GldimResult:
    """Worklist fixpoint discharging the goal characters.

    A character is admitted once some candidate direction strictly separates
    it from the character set and all its Koszul terms are already admitted
    (or in the set).  The certificate lists admissions in order and replays
    independently; on failure the uncovered residue is reported instead.

    Each direction d is compiled once per call: its separation threshold
    t_d = min over the set of <d, nu>, so chi is separated iff <d, chi> < t_d,
    and its sorted Koszul shifts S_d = koszul_terms(0, d), so the terms of chi
    are chi + s for s in S_d, still sorted because a translation keeps
    lexicographic order.  Directions without usable weights are dropped.
    Admissions are kept as (chi, direction, shifts); term tuples are built
    only for the steps the pruned certificate keeps.  A failing character
    keeps its blocked (direction, first missing term) pairs from its last
    attempt; reason strings are made only for the characters left uncovered.
    """
    if not chars.chars:
        raise ValueError("empty character set")
    ws = weight_list(weights)
    if not ws:
        raise ValueError("empty weight system")
    rank = len(ws[0])
    base = frozenset(chars.chars)
    if goal is None:
        goal_set = sorted(set(divisorial.conic_classes(ws)) - base)
    else:
        goal_set = sorted(set(tuple(g) for g in goal) - base)
    if directions is None:
        directions = default_directions(chars)

    window = _working_window(goal_set, chars, ws, rank)
    lo = [min(nu[k] for nu in chars.chars) for k in range(rank)]
    hi = [max(nu[k] for nu in chars.chars) for k in range(rank)]
    compiled = _compile_directions(chars, ws, directions)
    covered: set[Vec] = set(base)
    admitted: list[tuple[Vec, Vec, tuple[Vec, ...]]] = []
    # the last blocked pairs of each goal character, None until it is tried
    blocked_on: dict[Vec, Optional[list[tuple[Vec, Vec]]]] = dict.fromkeys(goal_set)

    def admission_order(chi: Vec) -> tuple:
        distance = sum(max(0, l - c, c - h) for c, l, h in zip(chi, lo, hi))
        return (distance, *chi)

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
                step = _try_admit(chi, compiled, covered, blocked_on)
                if step is None:
                    still.append(chi)
                else:
                    admitted.append(step)
                    covered.add(chi)
                    changed = True
            pending = still
        if all(chi in covered for chi in goal_set):
            break

    uncovered = tuple(chi for chi in goal_set if chi not in covered)
    if uncovered:
        return GldimResult(ok=False, certificate=None, uncovered=uncovered,
                           reasons=tuple((chi, _failure_reason(blocked_on[chi]))
                                         for chi in uncovered))
    cert = GldimCertificate(steps=_prune_steps(admitted, goal_set, base),
                            goal=tuple(goal_set))
    return GldimResult(ok=True, certificate=cert)


def _compile_directions(chars: CharacterSet, ws: list[Vec], directions: Sequence[Vec]
                        ) -> list[tuple[Vec, int, tuple[Vec, ...]]]:
    """(direction, separation threshold, sorted Koszul shifts) for every
    direction with usable weights, in the given order."""
    zero = (0,) * len(ws[0])
    compiled = []
    for direction in directions:
        try:
            shifts = koszul_terms(zero, direction, ws)
        except UnusableDirectionError:
            continue
        threshold = min(dot(direction, nu) for nu in chars.chars)
        compiled.append((direction, threshold, shifts))
    return compiled


def _prune_steps(admitted: list[tuple[Vec, Vec, tuple[Vec, ...]]], goal: Sequence[Vec],
                 base: frozenset[Vec]) -> tuple[CertStep, ...]:
    """Certificate steps for the (character, direction, Koszul shifts)
    admissions the goal depends on; every dependency of a kept step is
    either in the base set or the target of an earlier kept step, so the
    pruned log still replays.  Only kept steps get their term tuples."""
    needed = set(goal)
    kept = []
    for chi, direction, shifts in reversed(admitted):
        if chi in needed:
            deps = tuple(tuple(map(add, chi, shift)) for shift in shifts)
            kept.append(CertStep(chi=chi, direction=direction, deps=deps))
            needed.update(d for d in deps if d not in base)
    kept.reverse()
    return tuple(kept)


def _try_admit(chi: Vec, compiled: list[tuple[Vec, int, tuple[Vec, ...]]], covered: set[Vec],
               blocked_on: dict[Vec, Optional[list[tuple[Vec, Vec]]]]
               ) -> Optional[tuple[Vec, Vec, tuple[Vec, ...]]]:
    """(chi, direction, shifts) for the first compiled direction that
    separates chi and whose terms are all covered; otherwise None, with the
    first two blocked (direction, first missing term) pairs recorded when
    chi is a goal character."""
    blocked = []
    for direction, threshold, shifts in compiled:
        if sum(map(mul, direction, chi)) >= threshold:
            continue
        for shift in shifts:
            term = tuple(map(add, chi, shift))
            if term not in covered:
                if len(blocked) < 2:
                    blocked.append((direction, term))
                break
        else:
            return chi, direction, shifts
    if chi in blocked_on:
        blocked_on[chi] = blocked
    return None


def _failure_reason(blocked: Optional[list[tuple[Vec, Vec]]]) -> str:
    if blocked is None:
        return "not in window"
    if blocked:
        return f"separating directions blocked on dependencies: {blocked}"
    return "no separating direction with usable weights"


def _working_window(goal: Sequence[Vec], chars: CharacterSet, ws: list[Vec],
                    rank: int) -> list[Vec]:
    pts = list(goal) + list(chars.chars)
    margin = [sum(abs(w[k]) for w in ws) for k in range(rank)]
    lo = [min(p[k] for p in pts) - margin[k] for k in range(rank)]
    hi = [max(p[k] for p in pts) + margin[k] for k in range(rank)]
    if rank == 1:
        return [(v,) for v in range(lo[0], hi[0] + 1)]
    return [(x, y) for x in range(lo[0], hi[0] + 1) for y in range(lo[1], hi[1] + 1)]


def replay_certificate(cert: GldimCertificate, chars: CharacterSet,
                       weights: WeightsLike) -> tuple[bool, str]:
    """Independent check of a certificate: ranks, separation, exact Koszul
    term sets, dependency availability, and goal coverage.

    A step's direction d separates chi iff <d, chi> is below the least
    pairing of d with the character set; replay computes that least pairing
    once per direction it meets, from the set itself, and shares nothing
    with the search but :func:`koszul_terms`.  A step whose character,
    direction or dependency does not have the rank of the weights fails.
    """
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
            floor = floors[step.direction] = min(
                sum(map(mul, step.direction, nu)) for nu in chars.chars)
        if sum(map(mul, step.direction, step.chi)) >= floor:
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


# ---------------------------------------------------------------------------
# end-to-end verification


@dataclass(frozen=True)
class NccrReport:
    verdict: str  # "verified" | "rejected" | "failed"
    reason: str
    classification: Optional[families.ClassifyResult] = None
    weights: Optional[tuple[Vec, ...]] = None
    characters: Optional[CharacterSet] = None
    conic_count: Optional[int] = None
    end_mcm: Optional[EndMcmReport] = None
    gldim: Optional[GldimResult] = None

    @property
    def ok(self) -> bool:
        return self.verdict == "verified"


def verify_nccr(p: BoundedPoset) -> NccrReport:
    """Full pipeline: classify, build the character box, check the
    endomorphism ring is MCM, certify finite global dimension on the conic
    classes, and replay the certificate."""
    purity = is_pure(p)
    if not purity.pure:
        return NccrReport(verdict="rejected",
                          reason="not Gorenstein: the poset is not pure, and only "
                                 "Gorenstein rings can admit an NCCR here")
    poly = polynomial_extension_edge(p)
    if poly is not None:
        l, u = p.edges[poly]
        return NccrReport(verdict="rejected",
                          reason=f"polynomial extension: edge e{poly + 1} = "
                                 f"{{{l}, {u}}} lies on every maximal chain")
    rank = p.n_edges - len(p.elements) + 1
    if rank == 1:
        return _verify_rank1(p)
    if rank != 2:
        return NccrReport(verdict="rejected",
                          reason=f"class group rank {rank} is out of scope (1 or 2)")

    result = families.classify(p)
    if isinstance(result, families.Rejection):
        return NccrReport(verdict="rejected", reason=result.message,
                          classification=result)
    table = tuple(families.expected_weight_table(result))
    computed = class_group(sigma_matrix(p), spanning_tree(p))
    if find_unimodular_match(computed.weights, table) is None:
        return NccrReport(verdict="failed", classification=result,
                          reason="computed divisor classes do not match the "
                                 "family weight table up to a basis change")
    chars = nccr_characters(result.type_tag, result.params)
    return _verify_with_weights(table, chars, result)


def _verify_rank1(p: BoundedPoset) -> NccrReport:
    cgd = class_group(sigma_matrix(p), spanning_tree(p))
    line = rank1_mod.Rank1Weights.from_class_group(cgd)
    window = rank1_mod.base_window(line)
    chars = character_window([-c for c in window.classes])
    table = tuple((w,) for w in line.weights)
    return _verify_with_weights(table, chars, None)


def _verify_with_weights(table: tuple[Vec, ...], chars: CharacterSet,
                         classification: Optional[families.TypeParams]) -> NccrReport:
    conic = divisorial.conic_classes(table)
    end_report = endomorphism_is_mcm(chars, table)
    if not end_report.ok:
        return NccrReport(verdict="failed", classification=classification,
                          weights=table, characters=chars, conic_count=len(conic),
                          end_mcm=end_report,
                          reason=f"endomorphism ring is not MCM: difference "
                                 f"{end_report.first_failure[2]} fails")
    gres = certify_gldim(chars, table, goal=conic)
    if not gres.ok:
        return NccrReport(verdict="failed", classification=classification,
                          weights=table, characters=chars, conic_count=len(conic),
                          end_mcm=end_report, gldim=gres,
                          reason=f"finite global dimension not certified; "
                                 f"uncovered {list(gres.uncovered)[:4]}")
    assert gres.certificate is not None
    ok, why = replay_certificate(gres.certificate, chars, table)
    if not ok:
        return NccrReport(verdict="failed", classification=classification,
                          weights=table, characters=chars, conic_count=len(conic),
                          end_mcm=end_report, gldim=gres,
                          reason=f"certificate replay failed: {why}")
    return NccrReport(verdict="verified", classification=classification,
                      weights=table, characters=chars, conic_count=len(conic),
                      end_mcm=end_report, gldim=gres,
                      reason="endomorphism ring is MCM and the finite global "
                             "dimension certificate replays on all conic classes")

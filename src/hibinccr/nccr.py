"""Splitting NCCR construction and verification.

For each family a box of characters is distinguished; its module of
covariants gives a splitting NCCR.  Verifying that claim computationally has
two halves: every pairwise difference of box characters must be MCM, and the
endomorphism ring must have finite global dimension.  The second half is
certified by an inductive log: a character outside the box is discharged by
a direction that strictly separates it from the box and whose Koszul-type
term shifts land on already-discharged characters.  The search compiles
each candidate direction once (a separation threshold and a sorted tuple of
Koszul shifts) and codes every point of its working window, and every
shift, as one integer in mixed radix, so testing a term is one addition and
one set lookup.  The search rescans the characters still uncovered, in
admission order, until a pass admits nothing; the window beyond the goal
is built only if the goal alone does not close.  The certificate replays
independently of the search that produced it: the replay computes each
direction's least pairing with the set and its Koszul shifts with
:func:`koszul_terms`, once per direction, and rebuilds every step's term
set from them.  The first half codes the characters as integers too,
compiles the MCM test (:class:`mcm.McmTest`) once per check and asks it
once per distinct difference.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain, product
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from . import divisorial, families, mcm, rank1 as rank1_mod
from .classgroup import WeightsLike, class_group, sigma_matrix, weight_list
from .intlattice import Vec, convex_hull, dot, find_unimodular_match, primitive
from .posets import BoundedPoset, is_pure, polynomial_extension_edge, spanning_tree
from .record import Record


class UnusableDirectionError(ValueError):
    """No weight pairs strictly positively with the direction."""


class CharacterSet(Record):
    """The characters whose covariants are the summands of a module, in a
    fixed order; ``chi in s`` asks whether chi is one of them."""

    _fields = ("chars",)

    def __init__(self, chars: tuple[Vec, ...]) -> None:
        self.__dict__["chars"] = chars

    def __contains__(self, chi: Vec) -> bool:
        return chi in self.chars


def nccr_characters(type_tag: str, params: Sequence[int]) -> CharacterSet:
    """The box of characters whose covariants sum to a splitting NCCR."""
    params = families.validate_params(type_tag, params)
    hi = families.FAMILIES[type_tag].corner(*params)
    chars = tuple((c1, c2) for c1 in range(hi[0] + 1) for c2 in range(hi[1] + 1))
    return CharacterSet(chars=chars)


def character_window(chars: Sequence[int]) -> CharacterSet:
    """Rank-one character sets (consecutive integers as 1-vectors)."""
    return CharacterSet(chars=tuple((c,) for c in chars))


class EndMcmReport(NamedTuple):
    ok: bool
    checked: int
    first_failure: Optional[tuple[Vec, Vec, Vec]] = None  # (chi, chi', diff)


def endomorphism_is_mcm(chars: CharacterSet, weights: WeightsLike) -> EndMcmReport:
    """Hom between two covariants is the covariant of the difference, so the
    endomorphism ring is MCM iff every ordered difference of characters is.

    The pairs are taken in sorted order.  Each character is coded as one
    integer in balanced mixed radix: digit k of a difference lies within
    the set's span s_k in coordinate k, so radix 2 s_k + 1 keeps distinct
    differences distinct, and the code of a difference is the difference
    of the codes.  The MCM test is compiled once (a class group's own test
    is reused) and asked about each distinct difference once, in order of
    first occurrence, stopping at the first that fails; the first failing
    pair is that difference's first occurrence, and ``checked`` counts the
    pairs up to it.
    """
    ordered = sorted(chars.chars)
    if not ordered:  # an empty set asks nothing, so its weights are never compiled
        return EndMcmReport(ok=True, checked=0)
    rank = len(ordered[0])
    places = [1] * rank
    for k in range(rank - 1, 0, -1):
        span = max(chi[k] for chi in ordered) - min(chi[k] for chi in ordered)
        places[k - 1] = places[k] * (2 * span + 1)
    codes = [sum(map(mul, chi, places)) for chi in ordered]
    test = mcm.McmTest.of(weights)
    # c.__rsub__ maps c2 to c2 - c
    for code in dict.fromkeys(chain.from_iterable(map(c.__rsub__, codes) for c in codes)):
        # every place is odd, and the digits below a place sum to at most
        # half of it in absolute value
        diff, rest = [], code
        for place in places:
            digit = (rest + place // 2) // place
            diff.append(digit)
            rest -= digit * place
        diff = tuple(diff)
        if not test(diff):
            checked = 0
            for chi, c in zip(ordered, codes):
                for chi2, c2 in zip(ordered, codes):
                    checked += 1
                    if c2 - c == code:
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


class CertStep(NamedTuple):
    chi: Vec
    direction: Vec
    deps: tuple[Vec, ...]


class GldimCertificate(NamedTuple):
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


class GldimResult(NamedTuple):
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
    The set members and the goal must have the rank of the weights.

    Characters are tried in admission order (distance from the set's
    bounding box, then lexicographic), in passes until one admits nothing
    or every goal character is covered, each pass keeping only the
    characters it left uncovered: first the goal characters alone (the
    usual strip induction never leaves them), then, only if a goal
    character is still uncovered, the working window: the box around the
    goal and the set, widened in each coordinate by the weights' total
    absolute value, so that auxiliary characters can be admitted.  The
    window is built only in that case.

    Each direction d is compiled once per call: its separation threshold
    t_d = min over the set of <d, nu>, so chi is separated iff <d, chi> < t_d,
    and its sorted Koszul shifts S_d = koszul_terms(0, d), so the terms of chi
    are chi + s for s in S_d.  Directions without usable weights are dropped.
    Window points and shifts are coded as integers in mixed radix, one digit
    per coordinate, each radix wider than the window's span plus twice the
    largest shift in that coordinate.  The code of chi + s is then the code
    of chi plus the code of s, no term aliases another point, and code order
    is lexicographic order, so the covered characters are a set of codes and
    a term test is one addition and one lookup.

    Failure reasons are made once, after the search, and only for the goal
    characters left uncovered: the last pass admitted nothing, so the final
    covered set is the one each of them was last tried against, and a
    reason names the first missing term of each of the character's first
    two separating directions.  Term tuples are made only for the steps the
    pruned certificate keeps.
    """
    if not chars.chars:
        raise ValueError("empty character set")
    ws = weight_list(weights)
    if not ws:
        raise ValueError("empty weight system")
    rank = len(ws[0])
    for nu in chars.chars:
        _check_rank("character", nu, rank)
    base = frozenset(chars.chars)
    if goal is None:
        goal_set = sorted(set(divisorial.conic_classes(ws)) - base)
    else:
        goal = [tuple(g) for g in goal]
        for g in goal:
            _check_rank("character", g, rank)
        goal_set = sorted(set(goal) - base)
    if directions is None:
        directions = default_directions(chars)
    usable = _compile_directions(chars, ws, directions)

    # the working window's box, and the mixed-radix code of it and its terms
    pts = goal_set + list(chars.chars)
    margin = [sum(abs(w[k]) for w in ws) for k in range(rank)]
    lo = [min(p[k] for p in pts) - margin[k] for k in range(rank)]
    hi = [max(p[k] for p in pts) + margin[k] for k in range(rank)]
    reach = [max((abs(s[k]) for *_, shifts in usable for s in shifts), default=0)
             for k in range(rank)]
    offset = list(map(sub, lo, reach))
    radix = [h - l + 2 * r + 1 for l, h, r in zip(lo, hi, reach)]
    places = [1] * rank
    for k in range(rank - 1, 0, -1):
        places[k - 1] = places[k] * radix[k]
    size = places[0] * radix[0]  # every code is below it
    box = [(min(nu[k] for nu in chars.chars), max(nu[k] for nu in chars.chars))
           for k in range(rank)]

    def key_part(k: int, v: int) -> int:
        """Coordinate k's share of the admission key distance * size + code,
        distance being the distance from the set's bounding box."""
        return max(0, box[k][0] - v, v - box[k][1]) * size + (v - offset[k]) * places[k]

    def admission_key(chi: Vec) -> int:
        return sum(map(key_part, range(rank), chi))

    def decode(c: int) -> Vec:
        digits = []
        for place in places:
            digit, c = divmod(c, place)
            digits.append(digit)
        return tuple(map(add, digits, offset))

    compiled = [(direction, threshold, [sum(map(mul, s, places)) for s in shifts], shifts)
                for direction, threshold, shifts in usable]
    covered = {admission_key(nu) % size for nu in base}
    admitted: list[tuple[Vec, int, tuple]] = []  # (chi, code, compiled direction)

    goal_keys = list(map(admission_key, goal_set))
    goal_codes = [key % size for key in goal_keys]
    open_goals = set(goal_codes)

    def close(pending: list[tuple[int, Vec]]) -> None:
        """Passes in admission order over the (admission key, chi) pairs,
        each keeping the characters it left uncovered, until one admits
        nothing or the last goal character is covered.  No step admitted
        after that could be a dependency of a goal, so stopping there
        leaves the pruned certificate as it is."""
        while pending:
            still = []
            for key, chi in pending:
                c = key % size
                for entry in compiled:
                    direction, threshold, steps, _ = entry
                    # c.__add__ maps a shift's code to the term's code
                    if sum(map(mul, direction, chi)) < threshold \
                            and covered.issuperset(map(c.__add__, steps)):
                        admitted.append((chi, c, entry))
                        covered.add(c)
                        if c in open_goals:
                            open_goals.remove(c)
                            if not open_goals:
                                return
                        break
                else:
                    still.append((key, chi))
            if len(still) == len(pending):
                return
            pending = still

    close(sorted(zip(goal_keys, goal_set)))
    if open_goals:
        keys = [0]
        for k in range(rank):
            part = [key_part(k, v) for v in range(lo[k], hi[k] + 1)]
            keys = [a + b for a in keys for b in part]  # in the order of product()
        window = zip(keys, product(*(range(l, h + 1) for l, h in zip(lo, hi))))
        close(sorted(pair for pair in window if pair[0] % size not in covered))

    uncovered = [(chi, c) for chi, c in zip(goal_set, goal_codes) if c not in covered]
    if uncovered:
        # the last pass admitted nothing, so each goal's last try saw this covered set
        reasons = []
        for chi, c in uncovered:
            blocked = [(direction, decode(c + next(s for s in steps if c + s not in covered)))
                       for direction, threshold, steps, _ in compiled
                       if sum(map(mul, direction, chi)) < threshold]
            reasons.append((chi, _failure_reason(blocked[:2])))
        return GldimResult(ok=False, certificate=None,
                           uncovered=tuple(chi for chi, _ in uncovered),
                           reasons=tuple(reasons))
    cert = GldimCertificate(steps=_prune_steps(admitted, goal_codes), goal=tuple(goal_set))
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
        threshold = min(sum(map(mul, direction, nu)) for nu in chars.chars)
        compiled.append((direction, threshold, shifts))
    return compiled


def _prune_steps(admitted: list[tuple[Vec, int, tuple]], goal: Sequence[int]
                 ) -> tuple[CertStep, ...]:
    """Certificate steps for the (character, code, compiled direction)
    admissions the goal codes depend on; every dependency of a kept step is
    either in the base set or the target of an earlier kept step, so the
    pruned log still replays.  Only kept steps get their term tuples."""
    needed = set(goal)
    kept = []
    for chi, c, (direction, _, steps, shifts) in reversed(admitted):
        if c in needed:
            deps = tuple([tuple(map(add, chi, shift)) for shift in shifts])
            kept.append(CertStep(chi=chi, direction=direction, deps=deps))
            needed.update(c + s for s in steps)
    kept.reverse()
    return tuple(kept)


def _failure_reason(blocked: list[tuple[Vec, Vec]]) -> str:
    if blocked:
        return f"separating directions blocked on dependencies: {blocked}"
    return "no separating direction with usable weights"


def replay_certificate(cert: GldimCertificate, chars: CharacterSet,
                       weights: WeightsLike) -> tuple[bool, str]:
    """Independent check of a certificate: ranks, separation, exact Koszul
    term sets, dependency availability, and goal coverage.

    A step's direction d separates chi iff <d, chi> is below the least
    pairing of d with the character set, and its Koszul terms are chi + s
    for the shifts s = koszul_terms(0, d).  Replay computes both once per
    direction it meets, from the set and the weights themselves, and
    recomputes every step's term set from them; it shares nothing with the
    search but :func:`koszul_terms`.  A step whose character, direction or
    dependency does not have the rank of the weights fails.
    """
    if not chars.chars:
        raise ValueError("empty character set")
    ws = weight_list(weights)
    if not ws:
        raise ValueError("empty weight system")
    rank = len(ws[0])
    zero = (0,) * rank
    available = set(chars.chars)  # the set and the characters admitted so far
    # direction -> (least pairing with the set, Koszul shifts or None if unusable)
    seen: dict[Vec, tuple[int, Optional[tuple[Vec, ...]]]] = {}
    for i, step in enumerate(cert.steps):
        try:
            _check_rank("character", step.chi, rank)
            _check_rank("direction", step.direction, rank)
            if not {rank}.issuperset(map(len, step.deps)):
                for d in step.deps:
                    _check_rank("dependency", d, rank)
        except ValueError as exc:
            return False, f"step {i}: {exc}"
        if step.chi in available:
            return False, f"step {i}: {step.chi} already available"
        known = seen.get(step.direction)
        if known is None:
            floor = min(sum(map(mul, step.direction, nu)) for nu in chars.chars)
            try:
                shifts = koszul_terms(zero, step.direction, ws)
            except UnusableDirectionError:
                shifts = None
            known = seen[step.direction] = (floor, shifts)
        floor, shifts = known
        if sum(map(mul, step.direction, step.chi)) >= floor:
            return False, f"step {i}: {step.direction} does not separate {step.chi}"
        if shifts is None:
            return False, f"step {i}: direction {step.direction} is unusable"
        terms = [tuple(map(add, step.chi, s)) for s in shifts]
        if set(terms) != set(step.deps):
            return False, f"step {i}: dependency list does not match the Koszul terms"
        if not available.issuperset(terms):
            missing = next(t for t in terms if t not in available)
            return False, f"step {i}: dependency {missing} not available"
        available.add(step.chi)
    for g in cert.goal:
        if g not in available:
            return False, f"goal {g} is not covered"
    return True, "certificate replays"


# ---------------------------------------------------------------------------
# end-to-end verification


class NccrReport(NamedTuple):
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

    # pure, no polynomial-extension edge and rank 2: classify cannot reject
    result = families.classify(p)
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

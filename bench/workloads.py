"""The benchmark's three workloads: seeded inputs, the operations run on
them, and the independent check applied to each operation's output.

Inputs are generated here, without the program.  A seed changes element
names (order-preserving, so the canonical edge order and hence the amount of
work stay the same), the order of lines in input files, the ray basis of the
rank-one cones, the mutation windows and the pointwise MCM queries.  Sizes
are fixed, so every seed runs the same operations.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

import oracles as O
from oracles import BOT, TOP, expect

# ---------------------------------------------------------------------------
# posets and cones, built without the program


@dataclass
class Poset:
    interior: list[str]
    covers: list[tuple[str, str]]
    cotree: tuple[tuple[str, str], ...] = ()  # figure cotree, figure-basis order
    tag: str = ""
    params: tuple[int, ...] = ()

    @cached_property
    def edges(self) -> list[tuple[str, str]]:
        return O.hasse_edges(self.interior, self.covers)

    @cached_property
    def figure_weights(self) -> list[tuple[int, ...]]:
        """Class of each edge (canonical order) in the figure basis."""
        ws = O.cycle_weights(self.edges, self.cotree)
        expect(O.relations_hold(self.edges, ws), "figure weights break the relations")
        return [ws[e] for e in self.edges]

    @property
    def chain_length(self) -> int:
        rank = {BOT: 0}
        for lo, hi in self.edges:
            rank.setdefault(hi, rank[lo] + 1)
        return rank[TOP]


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(1, count + 1)]


def _links(chain):
    return list(zip(chain, chain[1:]))


def family(tag: str, params: tuple[int, ...]) -> Poset:
    """The family member as drawn in the paper, with the program's naming
    scheme so that ``generate`` output can be compared byte for byte."""
    if tag == "I":
        m, n = params
        left = _names("l", m + n + 1)
        chains = [left, _names("r", m) + ["w"], ["w"] + _names("s", n),
                  ["w"] + _names("t", n)]
        cot = ((BOT, left[0]), (chains[3][-1], TOP))
    elif tag == "II":
        l, m, n = params
        left = _names("a", l + m) + ["y"] + _names("c", n)
        right = _names("b", l) + ["x"] + _names("d", m + n)
        chains = [left, right, ["x"] + _names("m", m - 1) + ["y"]]
        cot = ((BOT, left[0]), (right[-1], TOP))
    elif tag == "III":
        l, m, n = params
        left = _names("a", l + m + n + 1)
        arm_v = ["x"] + _names("v", m - 1) + ["y"]
        chains = [left, _names("b", l) + ["x"], ["x"] + _names("u", m - 1) + ["y"],
                  arm_v, ["y"] + _names("c", n)]
        cot = ((BOT, left[0]), (arm_v[-2], "y"))
    elif tag == "IV":
        m, n = params
        low_p = _names("p", m) + ["v"]
        up_t = ["v"] + _names("t", n)
        chains = [low_p, _names("q", m) + ["v"], ["v"] + _names("s", n), up_t]
        cot = ((BOT, low_p[0]), (up_t[-1], TOP))
    else:
        n, = params
        return parallel_chains(3, n + 1, "V", params)
    covers = [pair for chain in chains for pair in _links(chain)]
    interior = sorted({el for chain in chains for el in chain})
    return Poset(interior, covers, cot, tag, tuple(params))


def parallel_chains(k: int, length: int, tag: str = "", params=()) -> Poset:
    """k disjoint chains of the given length: the Segre posets (k = 2),
    type V (k = 3) and the rank-three cone (k = 4)."""
    chains = [_names(prefix, length) for prefix in "abcd"[:k]]
    covers = [pair for chain in chains for pair in _links(chain)]
    cot = tuple((BOT, chain[0]) for chain in chains[:-1])
    return Poset(sorted(el for chain in chains for el in chain), covers, cot, tag,
                 tuple(params))


def flipped(p: Poset) -> Poset:
    swap = {BOT: TOP, TOP: BOT}
    return Poset(list(p.interior), [(b, a) for a, b in p.covers],
                 tuple((swap.get(b, b), swap.get(a, a)) for a, b in p.cotree),
                 p.tag, p.params)


def relabel(p: Poset, rng: random.Random) -> Poset:
    """Fresh random names in the same sorted order as the old ones."""
    nums = sorted(rng.sample(range(10 ** 6), len(p.interior)))
    new = {old: f"x{num:06d}{rng.choice('abcdefghjkmnpqrsuvwz')}"
           for old, num in zip(sorted(p.interior), nums)}
    new[BOT], new[TOP] = BOT, TOP
    return Poset([new[e] for e in p.interior], [(new[a], new[b]) for a, b in p.covers],
                 tuple((new[a], new[b]) for a, b in p.cotree), p.tag, p.params)


def poset_text(p: Poset, rng: random.Random | None, note: str) -> str:
    els, covers = list(p.interior), list(p.covers)
    if rng is not None:
        rng.shuffle(els)
        rng.shuffle(covers)
    return (f"# {note}\nelements: {' '.join(els)}\n"
            + "".join(f"cover: {a} < {b}\n" for a, b in covers))


def serialized(p: Poset) -> str:
    """The program's documented output format for a poset file."""
    return ("elements: " + " ".join(sorted(p.interior)) + "\n"
            + "".join(f"cover: {a} < {b}\n" for a, b in sorted(p.covers)))


def sigma_rows(p: Poset) -> list[tuple[int, ...]]:
    """One ray per Hasse edge: x_lower - x_upper without the top coordinate."""
    idx = {el: i for i, el in enumerate([BOT] + sorted(p.interior))}
    rows = []
    for lo, hi in p.edges:
        row = [0] * len(idx)
        row[idx[lo]] += 1
        if hi != TOP:
            row[idx[hi]] -= 1
        rows.append(tuple(row))
    return rows


def cone_text(rays, note: str) -> str:
    return (f"# {note}\ndim: {len(rays[0])}\n"
            + "".join("ray: " + " ".join(str(c) for c in r) + "\n" for r in rays))


def rank1_rays(w: tuple[int, ...], rng: random.Random) -> list[tuple[int, ...]]:
    """Four rays of a 3-dimensional cone whose class group is Z with the
    given weights, in a seeded basis of the lattice."""
    K = O.kernel_basis(list(w))
    M = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(3):
        i, j = rng.sample(range(3), 2)
        f = rng.choice((-1, 1))
        for r in range(3):
            M[r][j] += f * M[r][i]
    rays = [tuple(sum(K[i][k] * M[k][j] for k in range(3)) for j in range(3))
            for i in range(4)]
    expect(len(set(rays)) == 4, "rank-one rays collide")
    return rays


DEMO_RAYS = [(1, 3, 0, -3), (1, 0, 3, -3), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
             (0, 0, 0, 1)]

# ---------------------------------------------------------------------------
# operations


@dataclass
class CliResult:
    code: Any
    out: str
    files: dict[str, str] = field(default_factory=dict)

    def digest_text(self) -> str:
        return f"{self.code}\n{self.out}" + "".join(
            f"\n--- {k}\n{v}" for k, v in sorted(self.files.items()))


@dataclass
class Op:
    name: str
    call: Callable[[Any, dict], Any]      # (hibinccr package, pass state) -> output
    check: Callable[[Any, dict], None]    # raises CheckFailed on a wrong output


def cli(argv: list[str], outfile: str | None = None):
    """One in-process call of ``hibinccr.cli.main`` with stdout captured."""
    def call(h, state):
        if outfile is not None:
            Path(outfile).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = h.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        res = CliResult(code, out.getvalue())
        if outfile is not None and Path(outfile).exists():
            res.files[outfile] = Path(outfile).read_text(encoding="utf-8")
        return res
    return call


def _json(res: CliResult, code: int = 0) -> dict:
    expect(res.code == code, f"exit code {res.code}, expected {code}")
    return json.loads(res.out)


class Inputs:
    """Writes input files under one directory and hands out their paths."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return path.as_posix()

    def path(self, name: str) -> str:
        return (self.root / name).as_posix()


def spread(*groups: list[Op]) -> list[Op]:
    """Merge the groups so that each is spread evenly over the pass, keeping
    the order inside a group.  Operations of similar cost then run at
    different moments of machine load, which steadies the median latency."""
    keyed = [((i + 0.5) / len(g), k, op) for k, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def _label(tag, params) -> str:
    return f"{tag}{'_'.join(str(v) for v in params)}"


# ---------------------------------------------------------------------------
# nccr-verify


NCCR_FAMILIES = [("I", (0, 1)), ("I", (2, 3)), ("I", (5, 6)), ("II", (1, 1, 1)),
                 ("II", (3, 3, 3)), ("III", (0, 2, 0)), ("III", (2, 3, 2)),
                 ("IV", (1, 1)), ("IV", (4, 5)), ("V", (0,)), ("V", (2,)), ("V", (5,))]
SEGRE = [1, 2, 3, 5, 8]
# Rank-one weights for beta = 2 .. 26 (beta = sum of the positive weights).
RANK1_WEIGHTS = [(1, 1, -1, -1), (1, 2, -1, -2), (1, 3, -2, -2), (1, 4, -2, -3),
                 (1, 5, -2, -4), (3, 5, -1, -7), (3, 7, -4, -6), (5, 7, -3, -9),
                 (5, 9, -6, -8), (7, 10, -8, -9), (7, 13, -9, -11), (10, 13, -11, -12),
                 (9, 17, -15, -11)]
EXCHANGE_BETAS = {2, 5, 12, 26}  # exchange-graph costs about beta^2.2: 5 s at 26
RANK3_CHAIN = 1  # elements per chain of the four-chain rank-three cone


def _check_family_verify(p: Poset, cert: str):
    tag = p.tag
    params = O.canonical_params(tag, p.params)

    def check(res: CliResult, state):
        rep = _json(res)
        expect(rep["verdict"] == "verified", f"verdict {rep['verdict']}: {rep['reason']}")
        cls = rep["classification"]
        expect((cls["type"], tuple(cls["params"])) == (tag, params),
               f"classified as {cls['type']} {cls['params']}")
        hi = O.nccr_box(tag, params)
        chars = {(a, b) for a in range(hi[0] + 1) for b in range(hi[1] + 1)}
        expect({tuple(c) for c in rep["characters"]} == chars
               and rep["character_count"] == len(chars), "character box differs")
        expect(rep["end_mcm_checked_pairs"] == len(chars) ** 2, "End-is-MCM pair count")
        ws = p.figure_weights
        conic = O.conic_set(ws)
        expect(rep["conic_count"] == len(conic), f"conic count {rep['conic_count']}, "
                                                 f"expected {len(conic)}")
        if tag == "V":  # three parallel chains of L elements
            L = params[0] + 1
            expect(len(conic) == (L + 1) ** 3 - L ** 3, "type V closed form")
        lines = [json.loads(x) for x in res.files.get(cert, "").splitlines() if x.strip()]
        expect(rep["certificate_steps"] == len(lines), "certificate length")
        O.replay(lines, chars, ws, conic)
    return check


def _check_segre_verify(m: int, cert: str):
    def check(res: CliResult, state):
        rep = _json(res)
        expect(rep["verdict"] == "verified", rep["reason"])
        chars = {(-c,) for c in range(m + 1)}
        expect({tuple(c) for c in rep["characters"]} == chars, "window differs")
        expect(rep["conic_count"] == (m + 1) ** 2 - m ** 2, "conic count")
        ws = [(1,)] * (m + 1) + [(-1,)] * (m + 1)
        lines = [json.loads(x) for x in res.files.get(cert, "").splitlines() if x.strip()]
        expect(rep["certificate_steps"] == len(lines), "certificate length")
        O.replay(lines, chars, ws, O.conic_set(ws))
    return check


def _check_control(reason: str):
    def check(res: CliResult, state):
        rep = _json(res, code=1)
        expect(rep["verdict"] == "rejected", f"verdict {rep['verdict']}")
        expect(reason in rep["reason"], f"reason {rep['reason']!r}")
        expect(not res.files, "a rejected poset wrote a certificate")
    return check


def _program_weights(w):
    """The class group's sign convention: the first ray gets a positive
    weight."""
    return tuple(sorted(w if w[0] > 0 else tuple(-x for x in w)))


def _check_z1_analyze(w):
    ws = _program_weights(w)
    beta = sum(x for x in ws if x > 0)

    def check(res, state):
        rep = _json(res)
        expect(tuple(rep["weights"]) == ws, f"weights {rep['weights']}")
        expect(rep["summand_count"] == beta, "summand count")
        expect(rep["mcm_interval"] == [-beta + 1, beta - 1], "MCM interval")
        expect(rep["base_window"] == f"T[0..{beta - 1}]", "base window")
    return check


_VERTEX = re.compile(r'^  w(\d+) \[label="M\((-?\d+)\) = T\[(-?\d+)\.\.(-?\d+)\]"\];$')
_EDGE = re.compile(r'^  w(\d+) -- w(\d+) \[label="T\((-?\d+)\)"\];$')


def _check_exchange_graph(w):
    beta = sum(x for x in w if x > 0)

    def check(res, state):
        expect(res.code == 0, f"exit code {res.code}")
        lines = res.out.splitlines()
        expect(lines[:2] == ["graph exchange {", "  rankdir=LR;"] and lines[-1] == "}",
               "not a DOT graph")
        verts, edges = {}, []
        for line in lines[2:-1]:
            if (mv := _VERTEX.match(line)):
                i, k, lo, hi = map(int, mv.groups())
                expect(hi - lo + 1 == beta and k == -lo, f"vertex {line!r}")
                verts[i] = lo
            elif (me := _EDGE.match(line)):
                edges.append(tuple(map(int, me.groups())))
            else:
                raise O.CheckFailed(f"unexpected line {line!r}")
        expect(len(verts) == beta and sorted(verts.values()) == list(range(-beta + 1, 1)),
               "vertices are not the beta generator windows")
        expect(len(edges) == beta - 1, "a path on beta vertices has beta - 1 edges")
        degree = {i: 0 for i in verts}
        for i, j, cls in edges:
            expect(abs(verts[i] - verts[j]) == 1 and cls == min(verts[i], verts[j]),
                   f"edge {i}--{j} is not an end mutation")
            degree[i] += 1
            degree[j] += 1
        expect(sorted(degree.values()) == sorted([1, 1] + [2] * (beta - 2)), "not a path")
    return check


def _check_mutate(w, lo: int, end: str):
    ws = _program_weights(w)
    beta = sum(x for x in ws if x > 0)
    if end == "low":
        c, new_lo, kernel = lo, lo + 1, lo + beta
        a, b = sorted(-x for x in ws if x < 0)
        middles = [c + a, c + b]
    else:
        c = lo + beta - 1
        new_lo, kernel = lo - 1, c - beta
        a, b = sorted(x for x in ws if x > 0)
        middles = [c - b, c - a]

    def check(res, state):
        rep = _json(res)
        expect(rep["window"] == f"T[{lo}..{lo + beta - 1}]", "window")
        expect(rep["mutated_class"] == c and rep["kernel_class"] == kernel
               and rep["middle_classes"] == middles, "mutation data")
        expect(rep["result_window"] == f"T[{new_lo}..{new_lo + beta - 1}]", "result window")
    return check


def _check_rank3_conic(L: int):
    def check(res, state):
        rep = _json(res)
        pts = {tuple(p) for p in rep["points"]}
        expect(len(pts) == len(rep["points"]) == rep["conic_count"], "duplicate points")
        expect(rep["conic_count"] == (L + 1) ** 4 - L ** 4,
               f"conic count {rep['conic_count']}, closed form {(L + 1) ** 4 - L ** 4}")
        expect(all(len(p) == 3 for p in pts) and pts == {tuple(-c for c in p) for p in pts},
               "conic set is not a centrally symmetric rank-three set")
    return check


def nccr_verify(seed: int, io_: Inputs) -> list[Op]:
    rng = random.Random(seed)
    ops, z1_analyze, z1_exchange, z1_mutate = [], [], [], []
    for tag, params in NCCR_FAMILIES:
        p = relabel(family(tag, params), rng)
        name = _label(tag, params)
        path = io_.write(f"{name}.poset", poset_text(p, rng, f"type {tag} {params}"))
        cert = io_.path(f"{name}.cert.jsonl")
        ops.append(Op(f"verify:{name}", cli(["nccr", "verify", path, "--certificate", cert],
                                            cert), _check_family_verify(p, cert)))
    for m in SEGRE:
        p = relabel(parallel_chains(2, m), rng)
        path = io_.write(f"segre{m}.poset", poset_text(p, rng, f"two chains of {m}"))
        cert = io_.path(f"segre{m}.cert.jsonl")
        ops.append(Op(f"verify:segre{m}", cli(["nccr", "verify", path, "--certificate", cert],
                                              cert), _check_segre_verify(m, cert)))
    controls = [
        ("nonpure", Poset(list("abcdef"), [("b", "c"), ("d", "e"), ("e", "f")]), "Gorenstein"),
        ("rank3", parallel_chains(4, 2), "rank 3"),
    ]
    for name, p, reason in controls:
        p = relabel(p, rng)
        path = io_.write(f"{name}.poset", poset_text(p, rng, f"control: {name}"))
        cert = io_.path(f"{name}.cert.jsonl")
        ops.append(Op(f"verify:{name}", cli(["nccr", "verify", path, "--certificate", cert],
                                            cert), _check_control(reason)))
    # stride 5 through the ladder, so that similar betas run at different times
    ladder = [RANK1_WEIGHTS[i * 5 % len(RANK1_WEIGHTS)] for i in range(len(RANK1_WEIGHTS))]
    for w in ladder:
        beta = sum(x for x in w if x > 0)
        path = io_.write(f"rank1_b{beta}.cone",
                         cone_text(rank1_rays(w, rng), f"weights {w}"))
        z1_analyze.append(Op(f"z1-analyze:b{beta}", cli(["z1", "analyze", path]),
                             _check_z1_analyze(w)))
        if beta in EXCHANGE_BETAS:
            z1_exchange.append(Op(f"z1-exchange:b{beta}",
                                  cli(["z1", "exchange-graph", path, "--generators-only"]),
                                  _check_exchange_graph(w)))
        lo, end = rng.randint(-beta, beta), rng.choice(("low", "high"))
        z1_mutate.append(Op(f"z1-mutate:b{beta}",
                            cli(["z1", "mutate", path, "--window-lo", str(lo), "--end", end]),
                            _check_mutate(w, lo, end)))
    rays = sigma_rows(parallel_chains(4, RANK3_CHAIN))
    path = io_.write("rank3.cone", cone_text(rays, "sigma matrix of four parallel chains"))
    conic = [Op("conic:rank3", cli(["conic", path, "--format", "json"]),
                _check_rank3_conic(RANK3_CHAIN))]
    # The light rank-one commands run three times a pass, at different moments
    # of machine load; the median operation is one of them.
    return spread(ops, z1_analyze * 3, z1_exchange, z1_mutate * 3, conic)


# ---------------------------------------------------------------------------
# poset-analyze


ANALYZE_SMALL = [("I", (3, 4)), ("II", (3, 3, 3)), ("III", (3, 3, 3)), ("IV", (5, 6)),
                 ("V", (6,))]
ANALYZE_LARGE = [("V", (12,))]  # IV (13,13), 55 elements, alone takes 1.7-2.7 s
LONG_CHAINS = [("V", (98,)), ("IV", (149, 149)), ("V", (298,)), ("IV", (299, 299))]
CIRCUIT_LIMIT = 700  # elements; chordless_circuits takes 1.5 s at 900 and ~8 s at 1200
DEEP_CHAIN = ("IV", (600, 600))  # build_poset recursion runs past the interpreter limit


def _generate_argv(tag, params) -> list[str]:
    keys = {"I": "mn", "II": "lmn", "III": "lmn", "IV": "mn", "V": "n"}[tag]
    argv = ["generate", "--type", tag]
    for key, value in zip(keys, params):
        argv += [f"--{key}", str(value)]
    return argv


def _check_generate(p: Poset):
    def check(res, state):
        expect(res.code == 0 and res.out == serialized(p), "generated poset differs")
    return check


def _check_classification(cls: dict, p: Poset) -> None:
    expect(cls.get("status", "classified") == "classified", f"rejected: {cls}")
    expect((cls["type"], tuple(cls["params"])) == (p.tag, O.canonical_params(p.tag, p.params)),
           f"classified as {cls['type']} {cls['params']}")


def _check_analyze(p: Poset, hinted: bool):
    def check(res, state):
        rep = _json(res)
        labels = {f"e{k + 1}": e for k, e in enumerate(p.edges)}
        expect(rep["edges"] == {lab: list(e) for lab, e in labels.items()},
               "edges are not in canonical order")
        expect(rep["class_group_rank"] == 2 and rep["pure"] is True
               and rep["polynomial_extension_edge"] is None, "rank, purity or polynomial edge")
        expect(rep["chain_length"] == p.chain_length, "chain length")
        weights = {labels[lab]: tuple(v) for lab, v in rep["divisor_classes"].items()}
        for k, lab in enumerate(rep["cotree"]):
            expect(weights[labels[lab]] == tuple(int(i == k) for i in range(2)),
                   f"cotree class {lab} is not standard basis vector {k}")
        expect(O.relations_hold(p.edges, weights), "divisor relations fail")
        expect(rep["circuit_count"] == (2 if p.tag == "IV" else 3), "circuit count")
        expect(rep["conic_count"] == len(O.conic_set(p.figure_weights)), "conic count")
        _check_classification(rep["classification"], p)
        if hinted:
            order = sorted(range(2), key=lambda j: p.edges.index(p.cotree[j]))
            expect([labels[lab] for lab in rep["cotree"]] == [p.cotree[j] for j in order],
                   "the hinted cotree was not used")
            mine = [tuple(w[j] for j in order) for w in p.figure_weights]
            expect([weights[e] for e in p.edges] == mine, "classes differ from the figure's")
    return check


def _check_classify(p: Poset):
    def check(res, state):
        _check_classification(_json(res), p)
    return check


def _tree_hint(p: Poset) -> str:
    return ",".join(f"e{k + 1}" for k, e in enumerate(p.edges) if e not in p.cotree)


def _parse_op(name: str, text: str, p: Poset) -> Op:
    def call(h, state):
        state[name] = h.parse_poset(text)
        return state[name]

    def check(q, state):
        expect(len(q.elements) == len(p.interior) + 2 and list(q.edges) == p.edges,
               "parsed edges differ from the canonical order")
    return Op(f"parse:{name}", call, check)


def _circuits_op(name: str, p: Poset) -> Op:
    def check(circuits, state):
        if p.tag == "IV":
            m, n = p.params
            lengths = [2 * m + 2, 2 * n + 2]
        else:
            lengths = [2 * p.params[0] + 4] * 3
        expect(sorted(len(c.vertex_cycle) for c in circuits) == sorted(lengths),
               "chordless circuits differ")
    return Op(f"circuits:{name}", lambda h, state: h.chordless_circuits(state[name]), check)


def _classify_op(name: str, p: Poset) -> Op:
    def check(tp, state):
        expect((tp.type_tag, tuple(tp.params)) == (p.tag, O.canonical_params(p.tag, p.params)),
               f"classified as {tp}")
    return Op(f"classify-lib:{name}", lambda h, state: h.classify(state[name]), check)


def poset_analyze(seed: int, io_: Inputs) -> list[Op]:
    rng = random.Random(seed)
    generate, analyze, classify, hinted, chains = [], [], [], [], []
    for tag, params in ANALYZE_SMALL:
        generate.append(Op(f"generate:{_label(tag, params)}", cli(_generate_argv(tag, params)),
                      _check_generate(family(tag, params))))
    cases = []
    for tag, params in ANALYZE_SMALL + ANALYZE_LARGE:
        p = relabel(family(tag, params), rng)
        cases.append((_label(tag, params), p))
    cases += [(f"{name}-flipped", flipped(p)) for name, p in cases[:len(ANALYZE_SMALL)]]
    for name, p in cases:
        path = io_.write(f"{name}.poset", poset_text(p, rng, name))
        analyze.append(Op(f"analyze:{name}", cli(["analyze", path]), _check_analyze(p, False)))
        classify.append(Op(f"classify:{name}", cli(["classify", path]), _check_classify(p)))
    for name, p in cases[:len(ANALYZE_SMALL)]:
        path = io_.path(f"{name}.poset")
        hinted.append(Op(f"analyze-tree:{name}", cli(["analyze", path, "--tree", _tree_hint(p)]),
                         _check_analyze(p, True)))
    for tag, params in LONG_CHAINS:
        p = relabel(family(tag, params), rng)
        name = _label(tag, params)
        text = poset_text(p, rng, f"long chains {name}")
        io_.write(f"{name}.poset", text)
        chains.append(_parse_op(name, text, p))  # the next two use the parsed poset
        if len(p.interior) < CIRCUIT_LIMIT:
            chains.append(_circuits_op(name, p))
        chains.append(_classify_op(name, p))
    tag, params = DEEP_CHAIN
    p = family(tag, params)
    name = _label(tag, params)
    path = io_.write(f"{name}.poset", poset_text(p, None, f"deep chains {name}"))
    deep = [Op(f"classify:{name}", cli(["classify", path]), _check_classify(p))]
    return spread(generate, analyze, classify, hinted, chains, deep)


# ---------------------------------------------------------------------------
# cone-mcm


MCM_CONES = [("demo", None, 10), ("I", (2, 3), 12), ("I", (4, 5), 16),
             ("II", (2, 2, 2), 12), ("II", (3, 3, 3), 14), ("IV", (4, 5), 12),
             ("V", (3,), 12), ("V", (5,), 14)]
MCM_QUERIES = 500  # pointwise is_mcm calls per cone and pass


def _classgroup_op(name: str, text: str, rays, p: Poset | None) -> Op:
    def call(h, state):
        state[name] = h.class_group(h.parse_cone(text))
        return state[name]

    def check(cgd, state):
        ws = [tuple(w) for w in cgd.weights]
        expect(cgd.rank == 2 and len(ws) == len(rays), "rank or weight count")
        O.check_snf_weights(rays, ws)
        if p is not None:
            U = O.basis_change(p.figure_weights, ws)
            expect(U is not None, "SNF weights are not the figure weights in another basis")
            state[f"{name}:to-figure"] = O.inverse_2x2(U)
        state[f"{name}:conic"] = O.conic_set(ws)
    return Op(f"classgroup:{name}", call, check)


def _check_region(name: str, B: int, p: Poset | None):
    box = [(x, y) for x in range(-B, B + 1) for y in range(-B, B + 1)]

    def check(res, state):
        rep = _json(res)
        region = state[f"{name}:region"] = {tuple(c) for c in rep["mcm"]}
        conic = state[f"{name}:conic"]
        expect(rep["box"] == [[-B, B], [-B, B]], "box")
        expect({tuple(c) for c in rep["mcm_and_conic"]} == region & conic,
               "conic classes in the region differ from the zonotope interior")
        expect({c for c in box if c in conic} <= region, "a conic class is not MCM")
        expect(region == {(-x, -y) for x, y in region}, "region is not centrally symmetric")
        if p is not None:
            back = state[f"{name}:to-figure"]
            pred = O.figure_mcm(p.tag, p.params)
            wrong = [c for c in box if (c in region) != pred(O.apply_2x2(back, c))]
            expect(not wrong, f"region differs from the figure at {wrong[:3]}")
    return check


def _mcm_batch_op(name: str, queries, p: Poset | None) -> Op:
    def call(h, state):
        cgd = state[name]
        return [h.is_mcm(q, cgd) for q in queries]

    def check(answers, state):
        if p is not None:
            back = state[f"{name}:to-figure"]
            pred = O.figure_mcm(p.tag, p.params)
            truth = [pred(O.apply_2x2(back, q)) for q in queries]
        else:
            region = state[f"{name}:region"]
            truth = [q in region for q in queries]
        expect(answers == truth, "pointwise answers differ")
    return Op(f"is_mcm:{name}", call, check)


def cone_mcm(seed: int, io_: Inputs) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for tag, params, B in MCM_CONES:
        if params is None:
            p, rays, name = None, DEMO_RAYS, tag
        else:
            p = family(tag, params)
            rays, name = sigma_rows(p), _label(tag, params)
        text = cone_text(rays, f"cone {name}")
        path = io_.write(f"{name}.cone", text)
        queries = [(rng.randint(-B, B), rng.randint(-B, B)) for _ in range(MCM_QUERIES)]
        ops += [
            _classgroup_op(name, text, rays, p),
            Op(f"mcm-region:{name}", cli(["mcm-region", path, f"--box=-{B},{B},-{B},{B}",
                                          "--format", "json"]), _check_region(name, B, p)),
            _mcm_batch_op(name, queries, p),
        ]
    return ops


WORKLOADS = {"nccr-verify": nccr_verify, "poset-analyze": poset_analyze,
             "cone-mcm": cone_mcm}

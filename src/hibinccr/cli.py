"""Command-line entry point.

Subcommands cover the whole pipeline: ``analyze`` / ``classify`` / ``conic``
/ ``mcm-region`` / ``nccr verify`` on poset (or cone) files, ``generate`` for
the five families, and ``z1 ...`` for the rank-one pipeline on cone files.
Reports are deterministic: the same input always produces the same bytes.
Exit codes: 0 success or verified, 1 verified-negative, 2 usage error; an
input that cannot be read or an output path that cannot be written is a
usage error.

Parsing is routed by one table from command words to leaf parser builders.
When the first one or two words of the argv name a leaf, ``main`` builds
that leaf's parser alone, with the prog it has in the tree, and parses the
rest of the argv with it; the leaf prints its own help and errors.  Only an
argv that names no leaf, or leaves arguments over, is parsed by the whole
tree from ``build_parser``, so help, usage and error messages read the same
as if every parser were built.  Nothing is kept between calls: argparse
parsers are reference cycles that only a full garbage collection frees, and
a parser cached per process (an earlier attempt) raised the benchmark's
``peak_rss_mib`` by 7.8-10.9% on nccr-verify and cone-mcm.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn, Optional, Sequence

from . import divisorial, families, mcm, nccr, rank1
from .classgroup import (ConeError, TorsionError, class_group, parse_cone,
                         sigma_matrix)
from .posets import (BoundedPoset, PosetError, chordless_circuits, is_pure,
                     parse_poset, polynomial_extension_edge, serialize_poset,
                     spanning_tree)

USAGE_ERROR = 2
NEGATIVE = 1


class UsageError(SystemExit):
    """Input problems exit with the usage status, message on stderr."""

    def __init__(self, message: str):
        sys.stderr.write(message + "\n")
        super().__init__(USAGE_ERROR)


class _Parser(argparse.ArgumentParser):
    """argparse's own errors follow the usage-error contract: one line, no
    usage block.  Subparsers are made with the same class."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(f"error: {self.prog}: {message}")


def _radius(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"takes a non-negative integer, got {text!r}")
    return value


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    else:
        raise AssertionError(fmt)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"error: cannot read {path}: {exc.strerror}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"error: cannot write {path}: {exc.strerror}")


def _sniff(text: str) -> str:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            return "poset"
        if line.startswith("dim:"):
            return "cone"
        break
    raise UsageError("error: input is neither a poset file (elements:) "
                     "nor a cone file (dim:)")


def _edge_labels(p: BoundedPoset) -> list[str]:
    return [f"e{k + 1}" for k in range(p.n_edges)]


def _parse_tree_arg(arg: Optional[str], p: BoundedPoset):
    if arg is None:
        return spanning_tree(p)
    try:
        ids = [int(tok.strip().lstrip("e")) - 1 for tok in arg.split(",")]
    except ValueError:
        raise UsageError(f"error: --tree takes edge labels such as e2,e3; "
                         f"got {arg!r}")
    return spanning_tree(p, hint=ids)


def _parse_box_arg(arg: Optional[str], default: Sequence[tuple[int, int]]):
    """The box from ``--box``, one lo,hi pair per coordinate of the default."""
    if arg is None:
        return list(default)
    rank = len(default)
    try:
        parts = [int(tok) for tok in arg.split(",")]
    except ValueError:
        raise UsageError(f"error: --box takes comma-separated integers, got {arg!r}")
    if len(parts) != 2 * rank:
        raise UsageError(f"error: --box takes a,b (rank 1) or a,b,c,d (rank 2); "
                         f"the class group has rank {rank}, got {arg!r}")
    box = list(zip(parts[::2], parts[1::2]))
    if any(lo > hi for lo, hi in box):
        raise UsageError(f"error: --box ranges need lo <= hi, got {arg!r}")
    return box


def _weights_for_input(text: str, tree_arg: Optional[str]):
    """Weight system for either input kind, plus provenance details."""
    kind = _sniff(text)
    if kind == "poset":
        p = parse_poset(text)
        tree = _parse_tree_arg(tree_arg, p)
        cgd = class_group(sigma_matrix(p), tree)
        return kind, p, tree, cgd
    if tree_arg is not None:
        raise UsageError("error: --tree applies only to poset input, "
                         "not to a cone file")
    cone = parse_cone(text)
    cgd = class_group(cone)
    return kind, cone, None, cgd


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    text = _read(args.input)
    kind, obj, tree, cgd = _weights_for_input(text, args.tree)
    report: dict = {"input": args.input, "kind": kind}
    if kind == "poset":
        p: BoundedPoset = obj
        labels = _edge_labels(p)
        purity = is_pure(p)
        poly = polynomial_extension_edge(p)
        circuits = chordless_circuits(p)
        cp = divisorial.conic_polytope(circuits, tree, cgd)
        conic = divisorial.enumerate_conic(cp)
        classification = families.classify(p)
        report.update({
            "elements": list(p.interior),
            "edges": {labels[k]: list(p.edges[k]) for k in range(p.n_edges)},
            "pure": purity.pure,
            "chain_length": purity.chain_length,
            "polynomial_extension_edge":
                None if poly is None else labels[poly],
            "class_group_rank": cgd.rank,
            "spanning_tree": [labels[k] for k in sorted(tree.tree_edges)],
            "cotree": [labels[k] for k in tree.cotree_edges],
            "divisor_classes": {labels[k]: list(cgd.weights[k])
                                for k in range(p.n_edges)},
            "circuit_count": len(circuits),
            "conic_inequalities": [
                {"coeffs": list(c), "lo": lo, "hi": hi}
                for c, lo, hi in cp.ineqs],
            "conic_count": len(conic),
            "classification": _classification_dict(classification),
        })
    else:
        report.update({
            "rays": [list(r) for r in obj.rows],
            "class_group_rank": cgd.rank,
            "basis": "smith-normal-form (repo sign convention)",
            "divisor_classes": [list(w) for w in cgd.weights],
            "conic_count": len(divisorial.conic_classes(cgd)),
        })
    _emit(report, args.format)
    return 0


def _classification_dict(result: families.ClassifyResult) -> dict:
    if isinstance(result, families.Rejection):
        return {"status": "rejected", "code": result.code, "message": result.message}
    return {"status": "classified", "type": result.type_tag,
            "params": list(result.params), "orientation": result.orientation}


def _cmd_classify(args) -> int:
    p = parse_poset(_read(args.input))
    result = families.classify(p)
    _emit({"input": args.input, **_classification_dict(result)}, args.format)
    return 0 if isinstance(result, families.TypeParams) else NEGATIVE


def _cmd_conic(args) -> int:
    text = _read(args.input)
    kind, obj, tree, cgd = _weights_for_input(text, args.tree)
    if kind == "poset":
        circuits = chordless_circuits(obj)
        cp = divisorial.conic_polytope(circuits, tree, cgd)
        points = divisorial.enumerate_conic(cp)
    else:
        points = divisorial.conic_classes(cgd)
    if args.format == "json":
        _emit({"input": args.input, "conic_count": len(points),
               "points": [list(pt) for pt in points]}, "json")
    else:
        for pt in points:
            sys.stdout.write("\t".join(str(c) for c in pt) + "\n")
    return 0


def _cmd_mcm_region(args) -> int:
    text = _read(args.input)
    kind, obj, tree, cgd = _weights_for_input(text, args.tree)
    ws = list(cgd.weights)
    if cgd.rank == 1:
        lo, hi = mcm.rank1_mcm_interval(ws)
        default = [(lo - 2, hi + 2)]
    elif cgd.rank == 2:
        default = _default_box(ws)
    else:
        raise UsageError(f"error: mcm-region needs class group rank 1 or 2, "
                         f"not {cgd.rank}")
    box = _parse_box_arg(args.box, default)
    region = mcm.mcm_region(ws, box)
    rule = divisorial.conic_facets(ws, cgd.rank)
    conic = {pt for pt in region if rule.contains(pt)}
    if args.format == "json":
        _emit({"input": args.input, "box": [list(b) for b in box],
               "mcm": sorted(list(p) for p in region),
               "mcm_and_conic": sorted(list(p) for p in conic)}, "json")
    elif cgd.rank == 1:
        (x_lo, x_hi), = box
        cells = [_cell((x,), region, conic) for x in range(x_lo, x_hi + 1)]
        sys.stdout.write("\t".join(cells) + "\n")
    else:
        (x_lo, x_hi), (y_lo, y_hi) = box
        for y in range(y_hi, y_lo - 1, -1):
            cells = [_cell((x, y), region, conic) for x in range(x_lo, x_hi + 1)]
            sys.stdout.write("\t".join(cells) + "\n")
    return 0


def _cell(pt, region, conic) -> str:
    if pt in conic:
        return "mcm+conic"
    if pt in region:
        return "mcm"
    return "none"


def _default_box(ws) -> list[tuple[int, int]]:
    bx = sum(abs(w[0]) for w in ws)
    by = sum(abs(w[1]) for w in ws)
    return [(-bx, bx), (-by, by)]


def _cmd_nccr_verify(args) -> int:
    p = parse_poset(_read(args.input))
    report = nccr.verify_nccr(p)
    out: dict = {"input": args.input, "verdict": report.verdict,
                 "reason": report.reason}
    if report.classification is not None:
        out["classification"] = _classification_dict(report.classification)
    if report.characters is not None:
        out["character_count"] = len(report.characters.chars)
        out["characters"] = [list(c) for c in report.characters.chars]
    if report.conic_count is not None:
        out["conic_count"] = report.conic_count
    if report.end_mcm is not None:
        out["end_mcm_checked_pairs"] = report.end_mcm.checked
    if report.gldim is not None and report.gldim.certificate is not None:
        out["certificate_steps"] = len(report.gldim.certificate.steps)
    if args.certificate and report.gldim is not None \
            and report.gldim.certificate is not None:
        _write(args.certificate, report.gldim.certificate.to_json_lines())
    _emit(out, args.format)
    return 0 if report.ok else NEGATIVE


def _cmd_generate(args) -> int:
    tag = args.type
    if tag == "V":
        params = [args.n]
    elif tag in ("II", "III"):
        params = [args.l, args.m, args.n]
    else:
        params = [args.m, args.n]
    if any(v is None for v in params):
        raise UsageError(f"error: type {tag} needs parameters "
                         f"{'-l/-m/-n' if len(params) == 3 else '-m/-n' if len(params) == 2 else '-n'}")
    try:
        fam = families.generate_family(tag, params)
    except ValueError as exc:
        raise UsageError(f"error: {exc}")
    text = serialize_poset(fam.poset)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _rank1_weights(path: str) -> rank1.Rank1Weights:
    cone = parse_cone(_read(path))
    cgd = class_group(cone)
    if cgd.rank != 1:
        raise UsageError(f"error: class group rank is {cgd.rank}, expected 1")
    return rank1.Rank1Weights.from_class_group(cgd)


def _cmd_z1_analyze(args) -> int:
    line = _rank1_weights(args.input)
    bound = rank1.mcm_bound(line)
    window = rank1.base_window(line)
    _emit({
        "input": args.input,
        "weights": list(line.weights),
        "summand_count": bound.summands,
        "mcm_interval": list(bound.interval),
        "base_window": window.label(),
        "splitting_nccr_windows":
            f"T[c..c+{bound.summands - 1}] for every integer c, and no others",
    }, args.format)
    return 0


def _cmd_z1_exchange_graph(args) -> int:
    line = _rank1_weights(args.input)
    graph = rank1.exchange_graph(line, generators_only=args.generators_only,
                                 radius=args.radius)
    sys.stdout.write(rank1.exchange_graph_dot(graph, args.generators_only))
    return 0 if graph.edge_error is None else NEGATIVE


def _cmd_z1_mutate(args) -> int:
    line = _rank1_weights(args.input)
    beta = rank1.mcm_bound(line).summands
    win = rank1.Window(lo=args.window_lo, size=beta)
    try:
        result = rank1.mutate_window(win, args.end, line)
    except (rank1.Rank1InputError, ValueError) as exc:
        raise UsageError(f"error: {exc}")
    _emit({
        "input": args.input,
        "window": win.label(),
        "end": args.end,
        "mutated_class": result.mutated_class,
        "result_window": result.window.label(),
        "kernel_class": result.kernel_class,
        "middle_classes": list(result.middle_classes),
    }, args.format)
    return 0


# ---------------------------------------------------------------------------


def _add_format(sp, default="json", choices=("json",)) -> None:
    sp.add_argument("--format", default=default, choices=choices)


def _build_analyze(sp) -> None:
    sp.add_argument("input")
    sp.add_argument("--tree", help="spanning tree hint, e.g. e2,e3,e4,e5,e6,e7")
    _add_format(sp)
    sp.set_defaults(func=_cmd_analyze)


def _build_classify(sp) -> None:
    sp.add_argument("input")
    _add_format(sp)
    sp.set_defaults(func=_cmd_classify)


def _build_conic(sp) -> None:
    sp.add_argument("input")
    sp.add_argument("--tree")
    _add_format(sp, default="tsv", choices=("tsv", "json"))
    sp.set_defaults(func=_cmd_conic)


def _build_mcm_region(sp) -> None:
    sp.add_argument("input")
    sp.add_argument("--tree")
    sp.add_argument("--box", help="x_lo,x_hi,y_lo,y_hi (or lo,hi in rank 1)")
    _add_format(sp, default="tsv", choices=("tsv", "json"))
    sp.set_defaults(func=_cmd_mcm_region)


def _build_nccr_verify(sp) -> None:
    sp.add_argument("input")
    sp.add_argument("--certificate", help="write the replayable certificate "
                                          "(JSON lines) to this path")
    _add_format(sp)
    sp.set_defaults(func=_cmd_nccr_verify)


def _build_generate(sp) -> None:
    sp.add_argument("--type", required=True, choices=("I", "II", "III", "IV", "V"))
    sp.add_argument("--l", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_generate)


def _build_z1_analyze(sp) -> None:
    sp.add_argument("input")
    _add_format(sp)
    sp.set_defaults(func=_cmd_z1_analyze)


def _build_z1_exchange_graph(sp) -> None:
    sp.add_argument("input")
    sp.add_argument("--generators-only", action="store_true")
    sp.add_argument("--radius", type=_radius)
    sp.set_defaults(func=_cmd_z1_exchange_graph)


def _build_z1_mutate(sp) -> None:
    sp.add_argument("input")
    sp.add_argument("--window-lo", type=int, required=True)
    sp.add_argument("--end", required=True, choices=("low", "high"))
    _add_format(sp)
    sp.set_defaults(func=_cmd_z1_mutate)


# Each leaf command's words, parser builder and help line (None: not
# listed), in the order the help lists them; then each group's help line.
_LEAVES = {
    ("analyze",): (_build_analyze, "full report for a poset or cone file"),
    ("classify",): (_build_classify, "match a poset against the five families"),
    ("conic",): (_build_conic, "enumerate conic classes"),
    ("mcm-region",): (_build_mcm_region, "MCM classes over a box"),
    ("nccr", "verify"): (_build_nccr_verify, "verify the splitting NCCR"),
    ("generate",): (_build_generate, "emit a family poset file"),
    ("z1", "analyze"): (_build_z1_analyze, None),
    ("z1", "exchange-graph"): (_build_z1_exchange_graph, None),
    ("z1", "mutate"): (_build_z1_mutate, None),
}
_GROUP_HELP = {"nccr": "NCCR pipeline", "z1": "rank-one pipeline on cone files"}


def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree, every command and group built, new on each
    call and kept by nothing.  ``main`` routes by ``_LEAVES`` and uses the
    tree only for an argv that names no leaf or leaves arguments over,
    where its help, usage and error messages are the ones to print."""
    parser = _Parser(
        prog="hibinccr",
        description="Exact class groups, conic/MCM classes and splitting "
                    "NCCRs for Hibi rings with small class group.")
    commands = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (build, line) in _LEAVES.items():
        group = words[:-1]
        if group not in commands:
            sub = commands[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            commands[group] = sub.add_subparsers(dest=f"{group[0]}_command",
                                                 required=True)
        listed = {} if line is None else {"help": line}
        build(commands[group].add_parser(words[-1], **listed))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the one leaf parser the first words of argv name; with the
    whole tree when they name none or the leaf leaves arguments over."""
    for n in (1, 2):
        words = tuple(argv[:n])
        if words in _LEAVES:
            leaf = _Parser(prog=" ".join(("hibinccr",) + words))
            _LEAVES[words][0](leaf)
            args, rest = leaf.parse_known_args(argv[n:])
            if not rest:
                return args
            break
    return build_parser().parse_args(argv)


def _run(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except (PosetError, ConeError, TorsionError, divisorial.ConicBoxError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except (mcm.NotGorensteinError, mcm.CriterionHypothesisError,
            rank1.Rank1InputError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return NEGATIVE


def main(argv: Optional[Sequence[str]] = None) -> int:
    return _run(_parse(sys.argv[1:] if argv is None else list(argv)))


if __name__ == "__main__":
    sys.exit(main())

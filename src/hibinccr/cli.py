"""Command-line entry point.

Subcommands cover the whole pipeline: ``analyze`` / ``classify`` / ``conic``
/ ``mcm-region`` / ``nccr verify`` on poset (or cone) files, ``generate`` for
the five families, and ``z1 ...`` for the rank-one pipeline on cone files.
Reports are deterministic: the same input always produces the same bytes.
Exit codes: 0 success or verified, 1 verified-negative, 2 usage error; an
input that cannot be read or an output path that cannot be written is a
usage error.

Each leaf command declares its arguments once, as the ``add_argument``
calls of a table (``_LEAVES``), and an argv takes one of two routes.  When
the first one or two words name a leaf, ``_match`` reads the rest against
that leaf's declaration and builds no parser at all, provided the argv is
one it reads without doubt: exact option strings, ``--opt value`` and
``--opt=value``, flags, and separate values that start with ``-`` only as
plain negative integers, with types, choices, required options and defaults
applied as argparse applies them.  Every other argv (help, prefixes of
options, ``--``, a lone ``-``, unknown options, missing or extra
positionals, a failed conversion or choice) is parsed by the whole tree
from ``build_parser``, built from the same table, so help, usage and error
messages are argparse's own.  Nothing is kept between calls: argparse
parsers are reference cycles that only a full garbage collection frees, and
a parser cached per process (an earlier attempt) raised the benchmark's
``peak_rss_mib`` by 7.8-10.9% on nccr-verify and cone-mcm.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import repeat
from typing import NoReturn, Optional, Sequence

from . import divisorial, families, mcm, nccr, rank1
from .classgroup import (ConeError, TorsionError, class_group, parse_cone,
                         sigma_matrix)
from .posets import (BoundedPoset, PosetError, chordless_circuits, is_pure,
                     parse_poset, polynomial_extension_edge, serialize_poset,
                     spanning_tree)

USAGE_ERROR = 2
NEGATIVE = 1
_TABLE_SLICE = 4096  # the cells of a table row joined and written at a time


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


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"error: cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise UsageError(f"error: cannot read {path}: not UTF-8 text")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"error: cannot write {path}: {exc.strerror}")


def _sniff(text: str) -> Optional[str]:
    """The input kind the first content line declares, if any."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            return "poset"
        if line.startswith("dim:"):
            return "cone"
        break
    return None


def _read_kind(path: str, kind: str) -> str:
    """The text of an input file, refused if it declares the other kind."""
    text = _read(path)
    found = _sniff(text)
    if found is not None and found != kind:
        heads = {"poset": "elements:", "cone": "dim:"}
        raise UsageError(f"error: expected a {kind} file ({heads[kind]}), "
                         f"got a {found} file ({heads[found]})")
    return text


def _edge_labels(p: BoundedPoset) -> list[str]:
    return [f"e{k + 1}" for k in range(p.n_edges)]


def _parse_tree_arg(arg: Optional[str], p: BoundedPoset):
    """The tree from ``--tree``: labels e<k> (or bare k), k >= 1, one per
    comma, spaces around them allowed."""
    if arg is None:
        return spanning_tree(p)
    ids = []
    for tok in arg.split(","):
        tok = tok.strip()
        digits = tok[1:] if tok.startswith("e") else tok
        if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
            raise UsageError(f"error: --tree takes edge labels such as e2,e3; "
                             f"got {arg!r}")
        ids.append(int(digits) - 1)
    return spanning_tree(p, hint=ids)


def _parse_box_arg(arg: Optional[str], rank: int):
    """The box from ``--box``, one lo,hi pair per coordinate, or None."""
    if arg is None:
        return None
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
    if kind is None:
        raise UsageError("error: input is neither a poset file (elements:) "
                         "nor a cone file (dim:)")
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
        cp = divisorial.conic_polytope(circuits, cgd)
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
    _emit(report)
    return 0


def _classification_dict(result: families.ClassifyResult) -> dict:
    if isinstance(result, families.Rejection):
        return {"status": "rejected", "code": result.code, "message": result.message}
    return {"status": "classified", "type": result.type_tag,
            "params": list(result.params), "orientation": result.orientation}


def _cmd_classify(args) -> int:
    p = parse_poset(_read_kind(args.input, "poset"))
    result = families.classify(p)
    _emit({"input": args.input, **_classification_dict(result)})
    return 0 if isinstance(result, families.TypeParams) else NEGATIVE


def _cmd_conic(args) -> int:
    text = _read(args.input)
    kind, obj, tree, cgd = _weights_for_input(text, args.tree)
    if kind == "poset":
        circuits = chordless_circuits(obj)
        cp = divisorial.conic_polytope(circuits, cgd)
        points = divisorial.enumerate_conic(cp)
    else:
        points = divisorial.conic_classes(cgd)
    if args.format == "json":
        _emit({"input": args.input, "conic_count": len(points),
               "points": [list(pt) for pt in points]})
    else:
        for pt in points:
            sys.stdout.write("\t".join(str(c) for c in pt) + "\n")
    return 0


def _cmd_mcm_region(args) -> int:
    text = _read(args.input)
    kind, obj, tree, cgd = _weights_for_input(text, args.tree)
    if cgd.rank not in (1, 2):
        raise UsageError(f"error: mcm-region needs class group rank 1 or 2, "
                         f"not {cgd.rank}")
    # parsed first, so a bad --box is reported before anything is compiled
    box = _parse_box_arg(args.box, cgd.rank) or _default_box(cgd)
    region = mcm.mcm_region(cgd, box)
    rule = divisorial.conic_facets(cgd.weights, cgd.rank)
    conic = {pt for pt in region if rule.contains(pt)}
    if args.format == "json":
        _emit({"input": args.input, "box": [list(b) for b in box],
               "mcm": sorted(list(p) for p in region),
               "mcm_and_conic": sorted(list(p) for p in conic)})
        return 0
    # one row per second coordinate, top first; rank one is a single row
    labels: dict = {}
    for pt in region:
        labels.setdefault(pt[1:], {})[pt[0]] = "mcm+conic" if pt in conic else "mcm"
    (x_lo, x_hi), *y_box = box
    rows = ((y,) for y_lo, y_hi in y_box for y in range(y_hi, y_lo - 1, -1)) if y_box else [()]
    for row in rows:
        label = labels.get(row, {}).get
        for lo in range(x_lo, x_hi + 1, _TABLE_SLICE):
            cells = map(label, range(lo, min(lo + _TABLE_SLICE, x_hi + 1)), repeat("none"))
            sys.stdout.write(("\t" if lo > x_lo else "") + "\t".join(cells))
        sys.stdout.write("\n")
    return 0


def _default_box(cgd) -> list[tuple[int, int]]:
    """``mcm-region``'s box without ``--box``: +-max(beta + 1, reach()) in
    rank one, +-sum |w_k| in each coordinate in rank two."""
    if cgd.rank == 1:
        _, hi = rank1.mcm_interval(w for w, in cgd.weights)
        bound = max(hi + 2, cgd.mcm_test.reach())
        return [(-bound, bound)]
    return [(-b, b) for b in (sum(map(abs, col)) for col in zip(*cgd.weights))]


def _cmd_nccr_verify(args) -> int:
    p = parse_poset(_read_kind(args.input, "poset"))
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
    _emit(out)
    return 0 if report.ok else NEGATIVE


def _cmd_generate(args) -> int:
    tag = args.type
    names = families.FAMILIES[tag].names
    wanted = "/".join(f"--{name}" for name in names)
    for name in ("l", "m", "n"):
        if name not in names and getattr(args, name) is not None:
            raise UsageError(f"error: type {tag} takes parameters {wanted}, not --{name}")
    params = [getattr(args, name) for name in names]
    if None in params:
        raise UsageError(f"error: type {tag} needs parameters {wanted}")
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
    cone = parse_cone(_read_kind(path, "cone"))
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
    })
    return 0


def _cmd_z1_exchange_graph(args) -> int:
    if args.generators_only and args.radius is not None:
        raise UsageError("error: --radius applies only without --generators-only")
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
    })
    return 0


# ---------------------------------------------------------------------------


def _arg(*flags: str, **keywords):
    """One ``add_argument`` call, kept as data."""
    return flags, keywords


_INPUT = _arg("input")
_JSON = _arg("--format", default="json", choices=("json",))
_TSV_OR_JSON = _arg("--format", default="tsv", choices=("tsv", "json"))

# Each leaf command's words, then its function, help line (None: not
# listed) and arguments, in the order the help lists them; then each
# group's help line.  ``build_parser`` and ``_match`` both read this table.
_LEAVES = {
    ("analyze",): (_cmd_analyze, "full report for a poset or cone file", (
        _INPUT, _arg("--tree", help="spanning tree hint, e.g. e2,e3,e4,e5,e6,e7"),
        _JSON)),
    ("classify",): (_cmd_classify, "match a poset against the five families",
                    (_INPUT, _JSON)),
    ("conic",): (_cmd_conic, "enumerate conic classes",
                 (_INPUT, _arg("--tree"), _TSV_OR_JSON)),
    ("mcm-region",): (_cmd_mcm_region, "MCM classes over a box", (
        _INPUT, _arg("--tree"),
        _arg("--box", help="x_lo,x_hi,y_lo,y_hi (or lo,hi in rank 1)"),
        _TSV_OR_JSON)),
    ("nccr", "verify"): (_cmd_nccr_verify, "verify the splitting NCCR", (
        _INPUT, _arg("--certificate", help="write the replayable certificate "
                                           "(JSON lines) to this path"),
        _JSON)),
    ("generate",): (_cmd_generate, "emit a family poset file", (
        _arg("--type", required=True, choices=tuple(families.FAMILIES)),
        _arg("--l", type=int), _arg("--m", type=int), _arg("--n", type=int),
        _arg("-o", "--output"))),
    ("z1", "analyze"): (_cmd_z1_analyze, None, (_INPUT, _JSON)),
    ("z1", "exchange-graph"): (_cmd_z1_exchange_graph, None, (
        _INPUT, _arg("--generators-only", action="store_true"),
        _arg("--radius", type=_radius))),
    ("z1", "mutate"): (_cmd_z1_mutate, None, (
        _INPUT, _arg("--window-lo", type=int, required=True),
        _arg("--end", required=True, choices=("low", "high")), _JSON)),
}
_GROUP_HELP = {"nccr": "NCCR pipeline", "z1": "rank-one pipeline on cone files"}


def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree, every command and group built, new on each
    call and kept by nothing.  ``main`` uses it only for an argv that
    ``_match`` does not read, where its help, usage and error messages are
    the ones to print."""
    parser = _Parser(
        prog="hibinccr",
        description="Exact class groups, conic/MCM classes and splitting "
                    "NCCRs for Hibi rings with small class group.")
    commands = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (func, line, arguments) in _LEAVES.items():
        group = words[:-1]
        if group not in commands:
            sub = commands[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            commands[group] = sub.add_subparsers(dest=f"{group[0]}_command",
                                                 required=True)
        listed = {} if line is None else {"help": line}
        leaf = commands[group].add_parser(words[-1], **listed)
        for flags, keywords in arguments:
            leaf.add_argument(*flags, **keywords)
        leaf.set_defaults(func=func)
    return parser


def _dest(flags: tuple[str, ...]) -> str:
    """The attribute argparse stores an argument under."""
    if not flags[0].startswith("-"):
        return flags[0]
    longs = [flag for flag in flags if flag.startswith("--")]
    return (longs or flags)[0].lstrip("-").replace("-", "_")


def _plain(token: str) -> bool:
    """Whether every argparse reads the token as a value: it does not start
    with ``-``, or it is ``-`` and ASCII digits (a negative integer; no leaf
    has an option that looks like one)."""
    return not token.startswith("-") or (token[1:].isascii()
                                         and token[1:].isdigit())


def _match(leaf, argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace the tree gives a leaf's argv (less the command names),
    read from the leaf's declaration; None for an argv this does not read
    without doubt, which the tree then parses."""
    func, _, arguments = leaf
    options, positionals = {}, []
    for flags, keywords in arguments:
        if flags[0].startswith("-"):
            options.update(dict.fromkeys(flags, (_dest(flags), keywords)))
        else:
            positionals.append(flags[0])
    values: dict = {}
    unfilled = iter(positionals)
    tokens = iter(argv)
    for token in tokens:
        if _plain(token):
            dest = next(unfilled, None)
            if dest is None:
                return None
            values[dest] = token
            continue
        flag, eq, value = token.partition("=")
        if flag not in options:
            return None
        dest, keywords = options[flag]
        if keywords.get("action") == "store_true":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or not _plain(value):
                return None
        try:
            value = keywords.get("type", str)(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[dest] = value
    if next(unfilled, None) is not None:
        return None
    for flags, keywords in arguments:
        dest = _dest(flags)
        if dest not in values:
            if keywords.get("required"):
                return None
            flag_off = False if keywords.get("action") == "store_true" else None
            values[dest] = keywords.get("default", flag_off)
    return argparse.Namespace(**values, func=func)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The leaf's namespace for argv, its arguments and ``func``: read by
    ``_match`` when the first words of argv name a leaf and it reads the
    rest, parsed by the whole tree otherwise (its command names dropped)."""
    for n in (1, 2):
        leaf = _LEAVES.get(tuple(argv[:n]))
        if leaf is not None:
            args = _match(leaf, argv[n:])
            if args is not None:
                return args
            break
    args = build_parser().parse_args(argv)
    for name in ("command", *(f"{group}_command" for group in _GROUP_HELP)):
        vars(args).pop(name, None)
    return args


def _run(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except (PosetError, ConeError, TorsionError, divisorial.ConicBoxError,
            divisorial.ConicTooLargeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return USAGE_ERROR
    except (mcm.NotGorensteinError, mcm.CriterionHypothesisError,
            rank1.Rank1InputError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return NEGATIVE


def main(argv: Optional[Sequence[str]] = None) -> int:
    return _run(_parse(sys.argv[1:] if argv is None else list(argv)))


if __name__ == "__main__":
    sys.exit(main())

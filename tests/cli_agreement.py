"""The CLI's argv matcher against the whole parser tree.

``cli._parse`` reads a well-formed leaf argv from the leaf's declaration
and gives every other argv to the tree from ``cli.build_parser``.  For one
argv, ``outcome`` is the namespace a parse returns (less the tree's command
names) or the exit code, stdout and stderr it exits with, and the two
routes must give the same outcome.  argparse's rules for negative numbers,
``=`` and abbreviations vary between Python versions, so the check runs on
each supported version without pytest (exit 1, printing each argv on which
the routes disagree) with

    PYTHONPATH=src python tests/cli_agreement.py --check

It draws ``ARGVS_PER_LEAF`` argvs per leaf from a fixed seed.  Each argv is
a leaf's words, then its required pieces (the positional and every required
option, with values from their domains) and up to four more pieces from
``leaf_pieces``, mostly well-formed ones, shuffled, now and then with one
piece dropped.  The pieces come from the leaf's declaration: its option
strings, their prefixes and ``=`` forms, values in and out of their
domains, negative and non-integer numbers, repeated options, and ``--``,
``-``, ``''``, ``-h`` and unknown options.
``tests/test_cli.py`` draws from the same pieces with hypothesis.
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

from hibinccr import cli

ARGVS_PER_LEAF = 200
COMMAND_NAMES = ("command", "nccr_command", "z1_command")
NOISE = ["--", "-", "", "-h", "--help", "--bogus", "-x", "=", "-3", "-1.5", "-3x",
         "extra"]
# values each argparse takes as they stand, then values that are wrong or
# that some argparse reads as an option
INTEGERS = (["0", "3", "-3", "-0", " -3", "1_0"], ["1.5", "-1.5", "x", "", "-3 "])
STRINGS = (["f", "e2,e3", "", " -3", "a=b"], ["-10,10,-10,10", "--x", "-", "-3 "])


def _values(keywords: dict) -> tuple[list[str], list[str]]:
    """Good and bad values for an argument, a valid one first."""
    if "choices" in keywords:
        return list(keywords["choices"]), ["xml", ""]
    return INTEGERS if "type" in keywords else STRINGS


def leaf_pieces(words: tuple[str, ...]) -> tuple[list, list, list]:
    """Pieces of an argv for the leaf: the required ones (its positional
    and each required option, with a valid value), well-formed ones, and
    ones the matcher may leave to the tree."""
    required, good, bad = [], [], [[token] for token in NOISE]
    for flags, keywords in cli._LEAVES[words][2]:
        fine, wrong = _values(keywords)
        if not flags[0].startswith("-"):
            required.append([fine[0]])
            good += [[v] for v in fine]
            bad += [[v] for v in wrong]
            continue
        prefixes = [flag[:k] for flag in flags if flag.startswith("--")
                    for k in range(3, len(flag))]
        if keywords.get("action") == "store_true":
            good += [[flag] for flag in flags]
            bad += [[flag] for flag in prefixes] + [[flag + "=x"] for flag in flags]
            continue
        if keywords.get("required"):
            required.append([flags[0], fine[0]])
        for values, pieces in ((fine, good), (wrong, bad)):
            pieces += [[flag, v] for flag in flags for v in values]
            pieces += [[f"{flag}={v}"] for flag in flags for v in values]
        bad += [[prefix, fine[0]] for prefix in prefixes] + [[flag] for flag in flags]
    return required, good, bad


def sample(seed: int = 0, count: int = ARGVS_PER_LEAF) -> list[list[str]]:
    """``count`` argvs for every leaf, drawn from ``seed``."""
    rng = random.Random(seed)
    argvs = []
    for words in cli._LEAVES:
        required, good, bad = leaf_pieces(words)
        for _ in range(count):
            pieces = required + [rng.choice(good if rng.random() < 0.7 else bad)
                                 for _ in range(rng.randint(0, 4))]
            rng.shuffle(pieces)
            if pieces and rng.random() < 0.2:
                del pieces[rng.randrange(len(pieces))]
            argvs.append([*words, *(token for piece in pieces for token in piece)])
    return argvs


def outcome(parse, argv: list[str]):
    """The namespace ``parse`` gives, less command names, or its exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    for key in COMMAND_NAMES:
        namespace.pop(key, None)
    return namespace


def matched(argv: list[str]) -> bool:
    """Whether the matcher reads the argv itself, without the tree."""
    for n in (1, 2):
        leaf = cli._LEAVES.get(tuple(argv[:n]))
        if leaf is not None:
            return cli._match(leaf, argv[n:]) is not None
    return False


def disagreements(argvs: list[list[str]]) -> list[list[str]]:
    """The argvs on which ``cli._parse`` and the whole tree differ."""
    return [argv for argv in argvs
            if outcome(cli._parse, argv) != outcome(cli.build_parser().parse_args, argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--check"]:
        sys.exit("usage: cli_agreement.py --check")
    argvs = sample()
    bad = disagreements(argvs)
    for argv in bad:
        print(f"disagree: {argv!r}")
    print(f"{len(argvs) - len(bad)}/{len(argvs)} argvs agree, "
          f"{sum(map(matched, argvs))} of them read by the matcher, "
          f"on Python {sys.version.split()[0]}")
    sys.exit(1 if bad else 0)

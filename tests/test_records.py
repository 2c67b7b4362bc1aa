"""The library's records: their reprs, immutability, equality and hashing,
and what importing the package loads.

The reprs are pinned literally: the benchmark digests library results by
``repr`` and the CLI prints some of them, so a record's repr is output.
Most records are named tuples; the six that hold derived or compiled
state, validate their fields, or must not act as a sequence are
``record.Record`` classes.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hibinccr
from hibinccr import (BoundedPoset, Chamber, ChamberDecomposition, CertStep,
                      CharacterSet, Circuit, ClassGroupData, ConicPolytope,
                      ExchangeGraph, GeneratedFamily, GldimCertificate,
                      GldimResult, McmBound, MutationResult, NccrReport,
                      NonMcmCone, PurityReport, Rank1Weights, Rejection,
                      SigmaMatrix, TreeSelection, TypeParams, Window,
                      class_group, parse_poset, sigma_matrix, spanning_tree)
from hibinccr.nccr import EndMcmReport
from hibinccr.record import Record

SRC = Path(hibinccr.__file__).parents[1]

HAND_WRITTEN = (SigmaMatrix, ClassGroupData, BoundedPoset, NonMcmCone,
                Rank1Weights, CharacterSet)


def _cases() -> list[tuple[object, str]]:
    """One or two records of each type, each built afresh on every call,
    with the repr the records had as frozen dataclasses."""
    poset = BoundedPoset(("bot", "a", "top"), ((0, 1), (1, 2)))
    tp = TypeParams("I", (1, 2), "as-given")
    tree = TreeSelection(frozenset({0, 2}), (1,))
    chamber = Chamber((0, 2), "closed", (1, 0))
    step = CertStep((1, 2), (0, 1), ((1, 3),))
    cert = GldimCertificate((step,), ((1, 2),))
    tp_repr = "TypeParams(type_tag='I', params=(1, 2), orientation='as-given')"
    chamber_repr = "Chamber(t_set=(0, 2), kind='closed', witness=(1, 0))"
    step_repr = "CertStep(chi=(1, 2), direction=(0, 1), deps=((1, 3),))"
    cert_repr = f"GldimCertificate(steps=({step_repr},), goal=((1, 2),))"
    return [
        (tp, tp_repr),
        (Rejection("rank", "class group rank 3, not 2"),
         "Rejection(code='rank', message='class group rank 3, not 2')"),
        (GeneratedFamily(poset, tp, tree),
         "GeneratedFamily(poset=BoundedPoset(elements=('bot', 'a', 'top'), "
         f"edge_ends=((0, 1), (1, 2))), params={tp_repr}, "
         "figure_tree=TreeSelection(tree_edges=frozenset({0, 2}), cotree_edges=(1,)))"),
        (chamber, chamber_repr),
        (ChamberDecomposition((chamber,), ((0, 1, 2),)),
         f"ChamberDecomposition(chambers=({chamber_repr},), "
         "hypothesis_failures=((0, 1, 2),))"),
        (EndMcmReport(True, 4), "EndMcmReport(ok=True, checked=4, first_failure=None)"),
        (EndMcmReport(False, 3, ((0, 0), (1, 1), (1, 1))),
         "EndMcmReport(ok=False, checked=3, first_failure=((0, 0), (1, 1), (1, 1)))"),
        (step, step_repr),
        (cert, cert_repr),
        (GldimResult(True, cert),
         f"GldimResult(ok=True, certificate={cert_repr}, uncovered=(), reasons=())"),
        (GldimResult(False, None, ((3, 3),), (((3, 3), "no direction separates it"),)),
         "GldimResult(ok=False, certificate=None, uncovered=((3, 3),), "
         "reasons=(((3, 3), 'no direction separates it'),))"),
        (NccrReport("rejected", "not Gorenstein"),
         "NccrReport(verdict='rejected', reason='not Gorenstein', classification=None, "
         "weights=None, characters=None, conic_count=None, end_mcm=None, gldim=None)"),
        (NccrReport("verified", "ok", tp, ((1, 0), (-1, 0)), CharacterSet(((0, 0),)), 1,
                    EndMcmReport(True, 1), GldimResult(True, cert)),
         f"NccrReport(verdict='verified', reason='ok', classification={tp_repr}, "
         "weights=((1, 0), (-1, 0)), characters=CharacterSet(chars=((0, 0),)), "
         "conic_count=1, end_mcm=EndMcmReport(ok=True, checked=1, first_failure=None), "
         f"gldim=GldimResult(ok=True, certificate={cert_repr}, uncovered=(), reasons=()))"),
        (Circuit(("bot", "a", "top", "b"), (0, 1), (2, 3)),
         "Circuit(vertex_cycle=('bot', 'a', 'top', 'b'), x_plus=(0, 1), x_minus=(2, 3))"),
        (tree, "TreeSelection(tree_edges=frozenset({0, 2}), cotree_edges=(1,))"),
        (PurityReport(True, 2), "PurityReport(pure=True, chain_length=2)"),
        (PurityReport(False, None), "PurityReport(pure=False, chain_length=None)"),
        (ConicPolytope((((1, 0), -1, 1),), 2),
         "ConicPolytope(ineqs=(((1, 0), -1, 1),), rank=2)"),
        (McmBound(3, (-2, 2)), "McmBound(summands=3, interval=(-2, 2))"),
        (Window(0, 3), "Window(lo=0, size=3)"),
        (MutationResult(Window(1, 3), 0, 3, (1, 2)),
         "MutationResult(window=Window(lo=1, size=3), mutated_class=0, kernel_class=3, "
         "middle_classes=(1, 2))"),
        (ExchangeGraph((Window(-1, 2), Window(0, 2)), ((0, 1, -1),)),
         "ExchangeGraph(vertices=(Window(lo=-1, size=2), Window(lo=0, size=2)), "
         "edges=((0, 1, -1),), edge_error=None)"),
        (ExchangeGraph((Window(0, 2),), (), "mutation edges need dimension 3"),
         "ExchangeGraph(vertices=(Window(lo=0, size=2),), edges=(), "
         "edge_error='mutation edges need dimension 3')"),
        (SigmaMatrix("hibi", 2, edge_ends=((0, 1), (1, 2))),
         "SigmaMatrix(source='hibi', d=2, rays=(), edge_ends=((0, 1), (1, 2)))"),
        (SigmaMatrix("cone", 2, rays=((1, 0), (0, 1))),
         "SigmaMatrix(source='cone', d=2, rays=((1, 0), (0, 1)), edge_ends=())"),
        (ClassGroupData(1, ((1,), (-1,))),
         "ClassGroupData(rank=1, weights=((1,), (-1,)), cotree=None)"),
        (ClassGroupData(2, ((1, 0), (0, 1), (-1, -1)), (0, 1)),
         "ClassGroupData(rank=2, weights=((1, 0), (0, 1), (-1, -1)), cotree=(0, 1))"),
        (poset, "BoundedPoset(elements=('bot', 'a', 'top'), edge_ends=((0, 1), (1, 2)))"),
        (NonMcmCone((-1, -1), ((1, 0), (0, 1))),
         "NonMcmCone(offset=(-1, -1), generators=((1, 0), (0, 1)))"),
        (Rank1Weights((1, 1, -1, -1)), "Rank1Weights(weights=(-1, -1, 1, 1))"),
        (CharacterSet(((0, 0), (0, 1))), "CharacterSet(chars=((0, 0), (0, 1)))"),
    ]


CASES = _cases()
IDS = [f"{type(r).__name__}-{i}" for i, (r, _) in enumerate(CASES)]


def _first_field(record) -> str:
    return type(record)._fields[0]


def test_every_public_record_type_is_covered():
    records = {name for name in dir(hibinccr)
               if isinstance(getattr(hibinccr, name), type)
               and hasattr(getattr(hibinccr, name), "_fields")}
    covered = {type(r).__name__ for r, _ in CASES}
    assert records | {"EndMcmReport"} == covered
    assert len(covered) == 24


@pytest.mark.parametrize("record, expected", CASES, ids=IDS)
def test_repr_is_pinned(record, expected):
    assert repr(record) == expected


@pytest.mark.parametrize("record", [r for r, _ in CASES], ids=IDS)
def test_assignment_raises(record):
    field = _first_field(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    if isinstance(record, Record):
        with pytest.raises(AttributeError):
            record.extra = 1


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(index):
    a, b = CASES[index][0], _cases()[index][0]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_named_tuples_compare_as_their_fields_and_the_others_do_not():
    for record, _ in CASES:
        values = tuple(getattr(record, f) for f in type(record)._fields)
        if isinstance(record, HAND_WRITTEN):
            assert not isinstance(record, tuple)
            assert record != values
        else:
            assert tuple(record) == values and record == values
    assert {type(r) for r, _ in CASES if isinstance(r, Record)} == set(HAND_WRITTEN)


def test_records_of_different_classes_are_unequal():
    weights = (-1, -1, 1, 1)
    assert CharacterSet(weights) != Rank1Weights(weights)  # one field, one value


def test_derived_state_stays_out_of_eq_hash_and_repr(running_example):
    """What cached_property derives, and a cone's compiled test, is not a field."""
    text = ("elements: a b c\ncover: a < b\ncover: a < c\n")
    p, q = parse_poset(text), parse_poset(text)
    p.edges, p._incident, p.degrees
    assert {"edges", "_incident"} <= set(vars(p))
    assert not {"edges", "_incident"} & set(vars(q))
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert "edges=" not in repr(p) and "_incident" not in repr(p)

    cg = class_group(sigma_matrix(running_example), spanning_tree(running_example))
    other = ClassGroupData(cg.rank, cg.weights, cg.cotree)
    cg.mcm_test
    assert "mcm_test" in vars(cg) and "mcm_test" not in vars(other)
    assert cg == other and hash(cg) == hash(other) and repr(cg) == repr(other)
    assert "mcm_test" not in repr(cg)

    cone = NonMcmCone((-1, -1), ((1, 0), (0, 1)))
    assert cone.contains((0, 0)) and not cone.contains((-2, 0))
    assert cone == NonMcmCone((-1, -1), ((1, 0), (0, 1)))
    assert "_row" in vars(cone) and "_row" not in repr(cone)


def test_character_set_is_not_a_tuple():
    s = CharacterSet(((0, 0), (0, 1)))
    assert not isinstance(s, tuple)
    assert (0, 1) in s and (1, 0) not in s
    with pytest.raises(TypeError):
        len(s)
    with pytest.raises(TypeError):
        iter(s)


def test_replace_builds_a_checked_copy():
    w = Rank1Weights((-2, -1, 1, 2))
    assert w._replace(weights=(2, -3, 2, -1)) == Rank1Weights((-3, -1, 2, 2))
    assert w == Rank1Weights((-2, -1, 1, 2))  # the original is untouched
    with pytest.raises(ValueError, match="sum to zero"):
        w._replace(weights=(1, 1, -1, 2))
    s = SigmaMatrix("hibi", 2, edge_ends=((0, 1), (1, 2)))
    assert s._replace(d=3) == SigmaMatrix("hibi", 3, edge_ends=((0, 1), (1, 2)))
    with pytest.raises(TypeError):
        s._replace(rank=1)


FORBIDDEN = ("dataclasses", "inspect", "fractions", "importlib.resources")


def test_importing_the_cli_loads_no_cold_path_modules():
    """Without site hooks (``-S``), which may load some of these themselves,
    the package and its CLI load none of them; the first use of
    ``corpus_path`` or ``solve_rational`` does."""
    script = ("import sys, hibinccr.cli; "
              f"print(sorted(set({FORBIDDEN!r}) & set(sys.modules))); "
              "from hibinccr import corpus_path; "
              "from hibinccr.intlattice import solve_rational; "
              "assert corpus_path('running_example.poset').is_file(); "
              "print(solve_rational([[2]], [1])); "
              "print('fractions' in sys.modules, 'importlib.resources' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines() == ["[]", "[Fraction(1, 2)]", "True True"]


def _module_level_imports(tree: ast.Module):
    """The import statements that run when the module is imported: not those
    inside a function, nor under ``if TYPE_CHECKING:``."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            todo.extend(node.orelse)
        else:
            todo.extend(ast.iter_child_nodes(node))


def _imported(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return [node.module or ""]


@pytest.mark.parametrize("path", sorted((SRC / "hibinccr").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_cold_path_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    everywhere = [name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for name in _imported(node)]
    assert not [n for n in everywhere if n.split(".")[0] == "dataclasses"]
    at_import = [name for node in _module_level_imports(tree) for name in _imported(node)]
    assert not [n for n in at_import if n.split(".")[0] in ("fractions", "importlib")]

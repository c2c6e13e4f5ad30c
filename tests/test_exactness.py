"""The package computes with integers and Fractions only.

An ``ast`` lint of ``src/infovalue``: no float is built, nothing rounds, and
no library with inexact arithmetic is imported.  Every imported name is
used, so a deletion leaves no import behind.  Layout lints ride along:
only ``prob`` and ``problemfile`` read a state space's position map,
only ``prob`` reads a sequence field or refuses a bare string, and only
``prob`` reads the prior on a cell, so no layer that merely scores or
compares the prior given a cell builds a conditioned credence (checked by
the lint, and by counting the credences a call stores).
"""

import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

import infovalue
from infovalue.adversary import demonstrate_aversion
from infovalue.decision import is_relevant
from infovalue.prob import Credence
from infovalue.problemfile import dumps
from infovalue.scenarios import GAMBLERS, RACE, build_scenario
from infovalue.voi import evaluate, val_good

PACKAGE = Path(infovalue.__file__).parent
TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def walk(node, function=None):
    """(innermost function name, parent, node) for every node below ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    for child in ast.iter_child_nodes(node):
        yield function, node, child
        yield from walk(child, function)


def nodes():
    """(module, innermost function name, parent, node) across the package."""
    for module, tree in TREES.items():
        for function, parent, node in walk(tree):
            yield module, function, parent, node


def test_float_is_named_only_to_refuse_it_or_name_its_kind():
    uses = [
        (
            module,
            function,
            ast.unparse(parent) if isinstance(parent, ast.Call) else type(parent).__name__,
        )
        for module, function, parent, node in nodes()
        if isinstance(node, ast.Name) and node.id == "float"
    ]
    assert uses == [
        ("prob", "_ratio", "isinstance(value, float)"),
        ("problemfile", "_kind", "Dict"),
    ]


def test_nothing_rounds_or_builds_a_float_or_complex():
    called = {
        node.func.id
        for _, _, _, node in nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not called & {"round", "float", "complex"}


def test_math_gives_only_lcm_and_gcd_and_no_inexact_module_is_imported():
    imported, from_math = set(), set()
    for _, _, _, node in nodes():
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
            assert all(alias.asname is None for alias in node.names if alias.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
            if node.module == "math":
                from_math |= {alias.name for alias in node.names}
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            from_math.add(node.attr)
    assert from_math <= {"lcm", "gcd"}
    assert not imported & {"decimal", "cmath", "statistics"}


def test_only_prob_and_problemfile_read_the_position_map():
    """Every other module walks an event through its stored ``_positions``;
    ``problemfile`` reads the map only against a table's state-id keys."""
    readers = {
        (module, function)
        for module, function, _, node in nodes()
        if isinstance(node, ast.Attribute) and node.attr == "_position"
    }
    assert {module for module, _ in readers} == {"prob", "problemfile"}
    assert {f for m, f in readers if m == "problemfile"} == {
        "_parse_actions",
        "_parse_posterior",
    }


def test_only_prob_reads_a_sequence_field():
    """Every sequence field is read by ``prob._sequence`` (an id list by
    ``prob._distinct_ids``, which calls it), so only ``prob`` imports
    ``Iterable`` and only ``_sequence`` builds the refusal of a bare string."""
    importers = {
        module
        for module, _, _, node in nodes()
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "Iterable" for alias in node.names)
    }
    assert importers == {"prob"}
    refusers = {
        (module, function)
        for module, function, parent, node in nodes()
        if isinstance(node, ast.Constant)
        and not isinstance(parent, ast.Expr)  # a docstring
        and "not the string" in str(node.value)
    }
    assert refusers == {("prob", "_sequence")}


def test_only_prob_raises_the_refusals_of_conditioning():
    """``prob._cell_weights`` raises them for ``condition`` and every reader
    of the prior on a cell.  ``probability`` checks an event's space too."""
    raisers = {
        (text, module, function)
        for module, function, _, node in nodes()
        for text in (
            "cannot condition on zero-probability event",
            "event and credence live on different spaces",
        )
        if isinstance(node, ast.Constant) and text in str(node.value)
    }
    assert raisers == {
        ("cannot condition on zero-probability event", "prob", "_cell_weights"),
        ("event and credence live on different spaces", "prob", "_cell_weights"),
        ("event and credence live on different spaces", "prob", "probability"),
    }


def annotation_names(node):
    """The names in the quoted parts of ``node``'s annotation, if it has one."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        annotation = node.returns
    else:
        annotation = getattr(node, "annotation", None)
    for inner in ast.walk(annotation) if annotation is not None else ():
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            for name in ast.walk(ast.parse(inner.value, mode="eval")):
                if isinstance(name, ast.Name):
                    yield name.id


def unused_imports(tree):
    """The names ``tree`` imports and never names, in code or in a quoted
    annotation."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported |= {
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names
                    if alias.name != "*"
                }
        elif isinstance(node, ast.Name):
            used.add(node.id)
        used |= set(annotation_names(node))
    return imported - used


QUOTED = """
from .prob import Event, EvidencePartition, StateSpace

def cells(partition: "EvidencePartition") -> "tuple[Event, ...]":
    return partition.cells
"""


def test_every_imported_name_is_used():
    """A deletion leaves no import behind: each module names every name it
    imports, in code or in a quoted annotation."""
    unused = [
        (module, name)
        for module, tree in TREES.items()
        for name in sorted(unused_imports(tree))
    ]
    assert unused == []
    # the lint reads quoted annotations, and still finds an unused name
    assert unused_imports(ast.parse(QUOTED)) == {"StateSpace"}


# Each module imports only modules earlier in this order.
LAYERS = (
    "errors", "prob", "decision", "updating", "voi",
    "adversary", "problemfile", "scenarios", "properties", "cli",
)


def package_imports(tree):
    """The package modules that ``tree`` imports, as bare module names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = ("." * node.level + (node.module or "")).split(".")
            if node.level == 1 or path[0] == "infovalue":
                inner = [p for p in path[1:] if p]
                yield from inner[:1] or (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("infovalue."):
                    yield alias.name.split(".")[1]


def test_each_module_imports_only_modules_below_it():
    assert set(TREES) - {"__init__", "__main__"} == set(LAYERS)
    upward = sorted(
        (module, imported)
        for k, module in enumerate(LAYERS)
        for imported in package_imports(TREES[module])
        if imported not in LAYERS[:k]
    )
    assert upward == []
    assert list(package_imports(ast.parse("from .voi import evaluate"))) == ["voi"]
    assert list(package_imports(ast.parse("from . import voi, prob"))) == ["voi", "prob"]
    assert list(package_imports(ast.parse("import infovalue.cli"))) == ["cli"]


def test_every_import_is_at_module_level():
    """No import inside a function or under ``if TYPE_CHECKING``, so the
    layer order above is the whole import graph."""
    nested = [
        (module, ast.unparse(node))
        for module, _, parent, node in nodes()
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not isinstance(parent, ast.Module)
    ]
    assert nested == []


def called_name(node):
    """The name a call calls, bare or as an attribute, or ``None``."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def test_scoring_layers_build_no_conditioned_credence():
    """Layers that only score or compare the prior given a cell read it
    through ``_cell_weights``; none conditions a credence to do so."""
    callers = {
        (module, function)
        for module, function, _, node in nodes()
        if called_name(node) in ("condition", "conditionalization_policy")
    }
    assert not {
        (module, function)
        for module, function in callers
        if module in ("decision", "voi", "adversary")
        or (module, function) == ("problemfile", "problem_document")
    }
    assert ("updating", "conditionalization_policy") in callers  # the lint sees calls


@pytest.fixture
def stored(monkeypatch):
    """The number of credences stored by each call to ``count``."""
    store = Credence._store
    built = []

    def counted(self, space, weights):
        built.append(space)
        store(self, space, weights)

    monkeypatch.setattr(Credence, "_store", counted)

    def count(call):
        built.clear()
        call()
        return len(built)

    return count


def test_scoring_and_comparing_a_cell_store_no_credence(stored):
    race = build_scenario(RACE)
    problem, policy = race.problem, race.policy
    gamblers = build_scenario(GAMBLERS, Fraction(1, 2))
    certificate = demonstrate_aversion(gamblers.problem, gamblers.policy)
    calls = {
        "dumps": lambda: dumps(problem, policy),
        "is_relevant": lambda: is_relevant(problem, policy.partition),
        "val_good": lambda: val_good(problem, policy.partition),
        "evaluate": lambda: evaluate(problem, policy),
        "AversionCertificate": lambda: dataclasses.replace(certificate),
    }
    assert '"policy": "conditionalization"' in dumps(problem, policy)
    assert {name: stored(call) for name, call in calls.items()} == dict.fromkeys(calls, 0)

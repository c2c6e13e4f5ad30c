"""The package computes with integers and Fractions only.

An ``ast`` lint of ``src/infovalue``: no float is built, nothing rounds, and
no library with inexact arithmetic is imported.
"""

import ast
from pathlib import Path

import infovalue

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

"""Module layering of src/sedan: imports only at module top, and only downward.

Each module may import from modules earlier in LAYERS, never from later ones,
so the package has no import cycle and none hides inside a function body.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "sedan")

LAYERS = [
    "values", "terms", "reader", "clauses", "evaluator", "subtypes", "datadef",
    "world", "rand", "testgen", "history", "simplify", "forms", "hints",
    "waterfall", "session", "reports", "cli",
]

MODULES = sorted(n[: -len(".py")] for n in os.listdir(SRC) if n.endswith(".py"))


def _tree(module: str) -> ast.Module:
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=module + ".py")


def _sibling_imports(node: ast.ImportFrom) -> list[str]:
    """Package modules named by a relative import: `.x` or `from . import x`."""
    if node.level != 1:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == [m for m in MODULES if m != "__init__"]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_local_imports(module):
    local = [
        f"{module}.py:{inner.lineno} in {fn.name}"
        for fn in ast.walk(_tree(module))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(fn)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not local, local


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_to_earlier_layers(module):
    rank = LAYERS.index(module)
    upward = [
        f"{module}.py:{node.lineno} imports {target}"
        for node in _tree(module).body
        if isinstance(node, ast.ImportFrom)
        for target in _sibling_imports(node)
        if target not in LAYERS or LAYERS.index(target) >= rank
    ]
    assert not upward, upward


def _reads_of_builtins(module: str) -> list[int]:
    """Lines where the module imports or loads the name BUILTINS."""
    lines = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and any(a.name == "BUILTINS" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "BUILTINS" and isinstance(node.ctx, ast.Load):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "BUILTINS":
            lines.append(node.lineno)
    return lines


def test_only_the_world_reads_the_builtins():
    # a world's function table is the one place a callable name resolves; it
    # is seeded from evaluator.BUILTINS, and nothing else looks there
    readers = {m: _reads_of_builtins(m) for m in MODULES}
    assert {m for m, lines in readers.items() if lines} == {"world"}, readers

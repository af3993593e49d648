"""Module layering of src/sedan: imports only at module top, and only downward.

Each module may import from modules earlier in LAYERS, never from later ones,
so the package has no import cycle and none hides inside a function body.
"""

import ast
import os
import subprocess
import sys
import typing

import pytest

from sedan import datadef, evaluator
from sedan.evaluator import BUILTINS
from sedan.world import World

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "sedan")

LAYERS = [
    "values", "terms", "reader", "clauses", "evaluator", "subtypes", "datadef",
    "rand", "world", "testgen", "history", "simplify", "forms", "hints",
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


def _loads(module: str, names) -> list[int]:
    """Lines where the module imports or loads one of the names."""
    lines = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Load):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            lines.append(node.lineno)
    return lines


def _importers(name: str) -> list[tuple[str, int]]:
    """The module and line of each import of the standard module ``name``
    or of a submodule of it."""
    return [
        (module, node.lineno)
        for module in MODULES
        for node in ast.walk(_tree(module))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == name for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == name)
    ]


def test_no_module_imports_dataclasses():
    # records are plain classes: decorating sedan's records and importing
    # dataclasses (and with it inspect, ast and dis) took most of the set-up
    found = _importers("dataclasses")
    assert not found, found


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = os.path.normpath(os.path.join(SRC, ".."))
    code = (f"import sys; sys.path.insert(0, {src!r}); import sedan.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    run = subprocess.run([sys.executable, "-E", "-s", "-c", code], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_only_the_cli_touches_the_collector():
    # the command line runs with the cyclic collector off; a library caller
    # keeps its own setting, so no other module may change it
    found = _importers("gc")
    assert {module for module, _ in found} == {"cli"}, found


def test_only_the_world_reads_the_builtins():
    # a world's function table is the one place a callable name resolves; it
    # is seeded from evaluator.BUILTINS, and nothing else looks there
    readers = {m: _loads(m, {"BUILTINS"}) for m in MODULES}
    assert {m for m, lines in readers.items() if lines} == {"world"}, readers


def test_only_datadef_knows_the_type_expressions():
    # a type's shape is datadef's decision; other modules ask datadef about it
    names = {cls.__name__ for cls in typing.get_args(datadef.TypeExpr)}
    assert {"BaseRef", "ListofExpr", "ProductExpr", "CustomExpr"} <= names
    readers = {m: _loads(m, names) for m in MODULES if m != "datadef"}
    assert not {m: lines for m, lines in readers.items() if lines}


def test_only_reports_prints_a_clause_as_a_term():
    # testing takes a clause as it is; an implication rebuilt from it is only
    # for the text report to print
    readers = {m: _loads(m, {"clause_to_term"}) for m in MODULES if m not in ("clauses", "reports")}
    assert not {m: lines for m, lines in readers.items() if lines}
    assert _loads("reports", {"clause_to_term"})


def test_only_the_history_forms_a_type_alist():
    # a type alist follows one rule, testgen.merge_restrictions:
    # extract_restrictions applies it to a clause's own restrictions, which is
    # a test?'s alist, and history to a goal's own and inherited ones; hints
    # asks the recorded child for its probe's alist
    readers = {m: _loads(m, {"extract_restrictions"}) for m in MODULES}
    assert {m for m, lines in readers.items() if lines} == {"__init__", "testgen", "history"}, readers
    hints_imports = [t for node in _tree("hints").body if isinstance(node, ast.ImportFrom) for t in _sibling_imports(node)]
    assert "history" not in hints_imports, hints_imports


def test_only_the_history_knows_the_dont_care_marker():
    # a history node maps a parent variable its child lost to DONT_CARE; a
    # waterfall step's variable map holds only terms (simplify's
    # substitutions, destructor elimination's conses, generalize's reverse
    # map), so the reports print it as it is
    readers = {m: _loads(m, {"DONT_CARE"}) for m in MODULES}
    assert {m for m, lines in readers.items() if lines} == {"history"}, readers


def test_settings_travel_only_on_the_world():
    # every setting lives in world.settings; no function takes a separate record
    found = [
        f"{module}.py:{fn.lineno} {fn.name}({arg.arg})"
        for module in MODULES
        for fn in ast.walk(_tree(module))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)
        if arg.arg in ("config", "options")
    ]
    assert not found, found


def test_base_recognizers_are_not_builtins():
    # natp and the other base recognizers come from datadef.install_base_types
    recognizers = World().types.recognizer_index.keys()
    assert {"natp", "booleanp", "allp", "real/rationalp"} <= recognizers
    assert not recognizers & BUILTINS.keys()


def test_terms_are_compiled_at_one_site():
    # generated code goes through evaluator's bounded, shape-keyed cache, so
    # no second term compiler can grow beside it
    calls = [
        (module, node.lineno)
        for module in MODULES
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("compile", "exec", "eval")
    ]
    maker = next(fn for fn in ast.walk(_tree("evaluator")) if isinstance(fn, ast.FunctionDef) and fn.name == "_maker_code")
    assert len(calls) == 1 and calls[0][0] == "evaluator", calls
    assert maker.lineno <= calls[0][1] <= maker.end_lineno, calls
    assert evaluator._maker_code.cache_parameters()["maxsize"] is not None
    # every generator builds on one emitter core, the only function that
    # writes the maker's text, so none grows a wrapper of its own
    writers = [
        (module, fn.name, node.lineno)
        for module in MODULES
        for fn in ast.walk(_tree(module))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "def _make(" in node.value
    ]
    core = next(cls for cls in _tree("evaluator").body if isinstance(cls, ast.ClassDef) and cls.name == "Source")
    assert [w[:2] for w in writers] == [("evaluator", "make")], writers
    assert core.lineno <= writers[0][2] <= core.end_lineno, writers
    assert issubclass(evaluator._Emitter, evaluator.Source) and issubclass(datadef._TypeEmitter, evaluator.Source)
    own = [fn.name for fn in ast.walk(_tree("datadef")) if isinstance(fn, ast.FunctionDef) and fn.name in ("source", "const", "temp")]
    assert not own, own


def _identifiers(node: ast.AST) -> list[str]:
    """The names a node defines, imports or reads."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.alias):
        return [node.name, node.asname or ""]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def test_only_generated_code_evaluates():
    # the work-stack interpreter is the tests' oracle (tests/oracle.py); no
    # module of the package defines an interpreter, imports one or calls one
    found = [
        f"{m}.py:{node.lineno} {name}"
        for m in MODULES
        for node in ast.walk(_tree(m))
        for name in _identifiers(node)
        if "interpret" in name.lower()
    ]
    assert not found, found


def test_only_the_evaluator_handles_a_stack_overflow():
    # a form that evaluates runs once on a thread sized to the depth cap, and
    # one helper starts it; an overflow is caught only in evaluator, where
    # every handler, generated code's included, raises or reports the one
    # error stack_overflow_error builds, so every other module sees only
    # EvaluationError
    readers = {m: _loads(m, {"RecursionError", "threading"}) for m in MODULES}
    assert {m for m, lines in readers.items() if lines} == {"evaluator"}, readers
    tree = _tree("evaluator")
    starters = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                and any(isinstance(n, ast.Attribute) and n.attr == "Thread" for n in ast.walk(fn))}
    assert starters == {"on_sized_stack"}
    handlers = [ast.unparse(h) for h in ast.walk(tree)
                if isinstance(h, ast.ExceptHandler) and h.type is not None and "RecursionError" in ast.unparse(h.type)]
    assert len(handlers) == 2 and all("stack_overflow_error(world)" in h for h in handlers), handlers
    loop = evaluator._TRIAL_LOOP.splitlines()
    catches = [line for line in loop if "except" in line and "RecursionError" in line]
    assert len(catches) == 2 and len([line for line in loop if "_stack_overflow_error(world)" in line]) == 2


def test_generated_code_raises_only_evaluation_errors():
    # every error generated code raises reaches its caller as it is, so no
    # entry translates one
    raised = {v for v in evaluator._PRELUDE.values() if isinstance(v, type) and issubclass(v, BaseException)}
    assert all(issubclass(cls, evaluator.EvaluationError) for cls in raised), raised
    assert evaluator.DepthExceededError in raised

"""Top-level surface forms and term compilation.

Supported forms: defun, defdata, defdata-subtype, defrule, thm, test?
(top-level-test? is a synonym), set-testing, include.

Selector sugar (``first``/``second``/``third`` and ``c[ad]..r`` compositions)
and ``cond`` expand at parse time into car/cdr/if, so every later stage sees
only core terms.
"""

from __future__ import annotations

import re
from typing import Optional

from .clauses import split_implies
from .reader import MAX_NESTING, ParseError, SAtom, Sexpr, SList, read_sexprs, sexpr_to_value, unquote
from .terms import App, Quote, Term, Var, app
from .values import NIL, T, Record, Symbol
from .world import SETTING_BOUNDS, describe_bound, within_bound

PROCESS_NAMES = ("simplify", "eliminate-destructors", "generalize")

# selector paths follow the c*r naming: second = cadr = (car (cdr x))
_SELECTOR_SUGAR = {"first": "a", "second": "ad", "third": "add"}
_CXR_RE = re.compile(r"c([ad]{2,4})r\Z")


def _expand_selector(path: str, arg: Term) -> Term:
    # path letters apply right-to-left: cadr -> (car (cdr x))
    out = arg
    for letter in reversed(path):
        out = app("car" if letter == "a" else "cdr", out)
    return out


class HintSpec(Record):
    __slots__ = ("goal_id", "do_not", "trials", "backtrack")

    def __init__(
        self, goal_id: str, do_not: tuple[str, ...] = (), trials: Optional[int] = None, backtrack: Optional[str] = None
    ):
        self._fill(goal_id, do_not, trials, backtrack)


class DefunForm:
    def __init__(self, name: str, formals: tuple[str, ...], body: Term, sx: Sexpr):
        self.name = name
        self.formals = formals
        self.body = body
        self.sx = sx


class DefdataForm:
    def __init__(self, definitions: list[tuple[str, Sexpr]], sx: Sexpr):
        self.definitions = definitions  # compiled against the world at admission
        self.sx = sx


class DefdataSubtypeForm:
    def __init__(self, t1: str, t2: str, trust: bool, sx: Sexpr):
        self.t1 = t1
        self.t2 = t2
        self.trust = trust
        self.sx = sx


class DefruleForm:
    def __init__(self, name: str, hyps: tuple[Term, ...], lhs: Term, rhs: Term, sx: Sexpr):
        self.name = name
        self.hyps = hyps
        self.lhs = lhs
        self.rhs = rhs
        self.sx = sx


class ThmForm:
    def __init__(self, term: Term, hints: tuple[HintSpec, ...], sx: Sexpr):
        self.term = term
        self.hints = hints
        self.sx = sx


class TestForm:
    __test__ = False  # not a pytest class

    def __init__(self, term: Term, sx: Sexpr):
        self.term = term
        self.sx = sx


class SetTestingForm:
    def __init__(self, updates: dict, sx: Sexpr):
        self.updates = updates
        self.sx = sx


class IncludeForm:
    def __init__(self, path: str, sx: Sexpr):
        self.path = path
        self.sx = sx


Form = (
    DefunForm | DefdataForm | DefdataSubtypeForm | DefruleForm | ThmForm | TestForm
    | SetTestingForm | IncludeForm
)


def _atom_term(sx: SAtom, atoms: dict[str, Term]) -> Term:
    """The term of an atom, made on its text's first occurrence in atoms."""
    term = atoms.get(sx.printed)
    if term is None:
        v = sx.value
        if type(v) is Symbol and not (v.name == "t" or v.name == "nil" or v.name[:1] == ":"):
            term = Var(v.name)
        else:
            term = Quote(v)
        atoms[sx.printed] = term
    return term


def compile_term(sx: Sexpr, depth: int = 1, atoms: Optional[dict[str, Term]] = None) -> Term:
    """The core term of a source expression.

    ``depth`` is the nesting level of the term's root among function
    applications (1 for a term on its own). Sugar can nest deeper than its
    source, so a term whose applications, once ``cond`` and selectors expand,
    nest deeper than ``reader.MAX_NESTING`` is a ParseError at the expression
    that crosses the limit, as a deeply nested list is in the reader.

    ``atoms`` maps an atom's printed text to its term. Terms are immutable, so
    the forms of one ``parse_forms`` call share one map, and every occurrence
    of an atom there is one term object."""
    if atoms is None:
        atoms = {}
    if type(sx) is SAtom:
        return _atom_term(sx, atoms)
    items = sx.items
    if not items:
        return Quote(NIL)
    head = items[0]
    if not (type(head) is SAtom and type(head.value) is Symbol):
        raise ParseError("expected a function symbol", sx.line, sx.col)
    fn = head.printed
    if fn == "quote":
        if len(items) != 2:
            raise ParseError("quote takes exactly one datum", sx.line, sx.col)
        return Quote(sexpr_to_value(items[1]))
    if fn == "cond":
        return _expand_cond(items[1:], sx, depth, atoms)
    path = _SELECTOR_SUGAR.get(fn)  # the c[ad]*r path a selector name stands for
    if path is None and fn[-1] == "r" and fn[0] == "c":
        m = _CXR_RE.match(fn)
        path = m and m.group(1)
    if path is None:
        if depth > MAX_NESTING:
            raise _too_deep(sx)
        depth += 1
        args = []
        for a in items[1:]:
            if type(a) is SAtom:
                t = atoms.get(a.printed)
                args.append(_atom_term(a, atoms) if t is None else t)
            else:
                args.append(compile_term(a, depth, atoms))
        return App(fn, tuple(args))
    width = len(path)  # applications the call expands to
    if depth + width - 1 > MAX_NESTING:
        raise _too_deep(sx)
    compiled = [compile_term(a, depth + width, atoms) for a in items[1:]]
    if len(compiled) != 1:
        raise ParseError(f"{fn} takes exactly one argument", sx.line, sx.col)
    return _expand_selector(path, compiled[0])


def _too_deep(sx: Sexpr) -> ParseError:
    return ParseError(
        f"term nested deeper than {MAX_NESTING} levels once cond and selectors expand",
        sx.line, sx.col,
    )


def _expand_cond(clauses, sx: Sexpr, depth: int, atoms: dict[str, Term]) -> Term:
    # each clause but a t clause nests the rest of the chain one level deeper
    arms = []
    for clause in clauses:
        if not (isinstance(clause, SList) and len(clause.items) == 2):
            raise ParseError("cond clause must be (test expr)", sx.line, sx.col)
        test = compile_term(clause.items[0], depth + 1, atoms)
        if test == Quote(T):
            arms.append((test, compile_term(clause.items[1], depth, atoms)))
            continue
        if depth > MAX_NESTING:
            raise _too_deep(clause)
        arms.append((test, compile_term(clause.items[1], depth + 1, atoms)))
        depth += 1
    out: Term = Quote(NIL)
    for test, body in reversed(arms):
        out = body if test == Quote(T) else app("if", test, body, out)
    return out


def _symbol_name(sx: Sexpr, what: str) -> str:
    if type(sx) is SAtom and type(sx.value) is Symbol and sx.printed[:1] != ":":
        return sx.printed
    raise ParseError(f"expected a {what} name", sx.line, sx.col)


def _require(cond: bool, msg: str, sx: Sexpr):
    if not cond:
        raise ParseError(msg, sx.line, sx.col)


def compile_form(sx: Sexpr, atoms: dict[str, Term]) -> Form:
    """The form sx stands for; ``atoms`` is ``compile_term``'s map of atom
    terms, shared by the forms of one ``parse_forms`` call."""
    _require(type(sx) is SList, "top-level form must be a list", sx)
    items = sx.items
    _require(bool(items), "empty top-level form", sx)
    head = items[0]
    _require(type(head) is SAtom and type(head.value) is Symbol, "top-level form must start with a symbol", sx)
    op = head.printed
    args = items[1:]

    if op == "defun":
        _require(len(args) == 3, "defun takes a name, a formals list, and a body", sx)
        name = _symbol_name(args[0], "function")
        _require(isinstance(args[1], SList), "defun formals must be a list", sx)
        formals = tuple(_symbol_name(f, "formal") for f in args[1].items)
        return DefunForm(name, formals, compile_term(args[2], 1, atoms), sx)

    if op == "defdata":
        _require(len(args) >= 1, "defdata needs a definition", sx)
        if len(args) == 2 and isinstance(args[0], SAtom):
            name = _symbol_name(args[0], "type")
            return DefdataForm([(name, args[1])], sx)
        # mutually recursive group: (defdata (name1 expr1) (name2 expr2) ...)
        defs = []
        for entry in args:
            _require(
                isinstance(entry, SList) and len(entry.items) == 2,
                "defdata group entry must be (name expr)",
                entry if isinstance(entry, SList) else sx,
            )
            defs.append((_symbol_name(entry.items[0], "type"), entry.items[1]))
        _require(bool(defs), "defdata needs a definition", sx)
        return DefdataForm(defs, sx)

    if op == "defdata-subtype":
        _require(len(args) in (2, 4), "defdata-subtype takes two type names (and optionally :trust t)", sx)
        t1 = _symbol_name(args[0], "type")
        t2 = _symbol_name(args[1], "type")
        trust = False
        if len(args) == 4:
            _require(
                isinstance(args[2], SAtom) and args[2].value == Symbol(":trust"),
                "expected :trust",
                sx,
            )
            trust = isinstance(args[3], SAtom) and args[3].value == T
        return DefdataSubtypeForm(t1, t2, trust, sx)

    if op == "defrule":
        _require(len(args) == 2, "defrule takes a name and a formula", sx)
        name = _symbol_name(args[0], "rule")
        hyps, lhs, rhs = _rule_parts(compile_term(args[1], 1, atoms), sx)
        return DefruleForm(name, hyps, lhs, rhs, sx)

    if op == "thm":
        _require(len(args) >= 1, "thm takes a formula", sx)
        term = compile_term(args[0], 1, atoms)
        hints: tuple[HintSpec, ...] = ()
        rest = args[1:]
        if rest:
            _require(
                len(rest) == 2 and isinstance(rest[0], SAtom) and rest[0].value == Symbol(":hints"),
                "thm options must be :hints (...)",
                sx,
            )
            hints = _parse_hints(unquote(rest[1]), sx)
        return ThmForm(term, hints, sx)

    if op in ("test?", "top-level-test?"):
        _require(len(args) == 1, f"{op} takes exactly one formula", sx)
        return TestForm(compile_term(args[0], 1, atoms), sx)

    if op == "set-testing":
        return SetTestingForm(_parse_set_testing(args, sx), sx)

    if op == "include":
        _require(
            len(args) == 1 and isinstance(args[0], SAtom) and isinstance(args[0].value, str),
            'include takes one relative path string',
            sx,
        )
        return IncludeForm(args[0].value, sx)

    raise ParseError(f"unknown top-level form: {op}", sx.line, sx.col)


def _rule_parts(body: Term, sx: Sexpr):
    hyps, concl = split_implies(body)
    if isinstance(concl, App) and concl.fn == "equal" and len(concl.args) == 2:
        lhs, rhs = concl.args
    elif isinstance(concl, App) and concl.fn == "not" and len(concl.args) == 1:
        lhs, rhs = concl.args[0], Quote(NIL)
    else:
        lhs, rhs = concl, Quote(T)
    if not isinstance(lhs, App):
        raise ParseError("rule left-hand side must be a function application", sx.line, sx.col)
    return hyps, lhs, rhs


def _parse_hints(sx: Sexpr, ctx: Sexpr) -> tuple[HintSpec, ...]:
    _require(isinstance(sx, SList), ":hints expects a list of hint entries", ctx)
    out = []
    for entry in sx.items:
        _require(isinstance(entry, SList) and len(entry.items) >= 1, "hint entry must be (goal-id ...)", ctx)
        gid_sx = entry.items[0]
        _require(isinstance(gid_sx, SAtom) and isinstance(gid_sx.value, str), "hint goal id must be a string", ctx)
        goal_id = gid_sx.value
        do_not: tuple[str, ...] = ()
        trials = None
        backtrack = None
        rest = entry.items[1:]
        _require(len(rest) % 2 == 0, "hint keywords must come in pairs", ctx)
        for key_sx, val_sx in zip(rest[::2], rest[1::2]):
            _require(isinstance(key_sx, SAtom) and isinstance(key_sx.value, Symbol), "expected a hint keyword", ctx)
            key = key_sx.value.name
            if key == ":do-not":
                val = unquote(val_sx)
                _require(isinstance(val, SList), ":do-not expects a list of process names", ctx)
                names = tuple(_symbol_name(i, "process") for i in val.items)
                for n in names:
                    if n not in PROCESS_NAMES:
                        raise ParseError(f"unknown process name in :do-not: {n}", ctx.line, ctx.col)
                do_not = names
            elif key == ":trials":
                _require(
                    isinstance(val_sx, SAtom) and isinstance(val_sx.value, int) and val_sx.value > 0,
                    ":trials expects a positive integer",
                    ctx,
                )
                trials = val_sx.value
            elif key == ":backtrack":
                backtrack = _symbol_name(val_sx, "backtrack handler")
            else:
                raise ParseError(f"unknown hint keyword: {key}", ctx.line, ctx.col)
        out.append(HintSpec(goal_id, do_not, trials, backtrack))
    return tuple(out)


# each key's settings field and the values it takes, from world.SETTING_BOUNDS
_SET_TESTING_KEYS = {
    ":" + name.replace("_", "-"): (name, SETTING_BOUNDS[name])
    for name in ("trials", "mode", "dist", "seed", "exhaustive_bound", "uniform_bound",
                 "deterministic", "evidence_trials", "depth_cap")
}


def _parse_set_testing(args, sx: Sexpr) -> dict:
    _require(len(args) % 2 == 0, "set-testing keywords must come in pairs", sx)
    updates = {}
    for key_sx, val_sx in zip(args[::2], args[1::2]):
        _require(isinstance(key_sx, SAtom) and isinstance(key_sx.value, Symbol), "expected a set-testing keyword", sx)
        key = key_sx.value.name
        spec = _SET_TESTING_KEYS.get(key)
        if spec is None:
            raise ParseError(f"unknown set-testing keyword: {key}", sx.line, sx.col)
        field_name, bound = spec
        _require(isinstance(val_sx, SAtom), f"{key} expects an atom", sx)
        v = val_sx.value
        if type(bound) is int:
            _require(within_bound(v, bound), f"{key} expects {describe_bound(bound)}", sx)
            updates[field_name] = v
        elif True in bound:  # a flag, set by t or nil
            _require(v in (T, NIL), f"{key} expects t or nil", sx)
            updates[field_name] = v == T
        else:
            _require(isinstance(v, Symbol) and within_bound(v.name, bound), f"{key} expects {describe_bound(bound)}", sx)
            updates[field_name] = v.name
    return updates


def parse_forms(text: str) -> list[Form]:
    """Parse source text into its ordered top-level forms."""
    atoms: dict[str, Term] = {}
    return [compile_form(sx, atoms) for sx in read_sexprs(text)]


def _print_list(sx: SList, out: list[str]):
    items = sx.items
    if len(items) == 2:
        head, datum = items
        if type(head) is SAtom and head.printed == "quote":  # only the symbol prints as quote
            out.append("'")
            if type(datum) is SAtom:
                out.append(datum.printed)
            else:
                _print_list(datum, out)
            return
    out.append("(")
    for item in items:
        if type(item) is SAtom:
            out.append(item.printed)
        else:
            _print_list(item, out)
        out.append(" ")
    if items:
        out[-1] = ")"  # in place of the space after the last item
    else:
        out.append(")")


def print_form(form: Form) -> str:
    """The form's source as sedan echoes it: each atom as the reader printed
    it, one space between items, and ``(quote x)`` as ``'x``."""
    out: list[str] = []
    _print_list(form.sx, out)
    return "".join(out)

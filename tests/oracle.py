"""The oracles that sedan's generated code is checked against.

sedan evaluates every term through generated Python (``sedan.evaluator``),
which recurses on the Python stack. The explicit-work-stack interpreter walks
a term with an explicit work stack instead, and raises each error with the
class and message that generated code must raise, in the same order. The
differential tests in ``test_evaluator.py`` run both on the same terms,
bindings and worlds.

A lift runs a checkpoint's path and re-checks the top conjecture for a batch
of bindings in one generated function (``evaluator.chain_function``).
``lift_binding_by_binding`` lifts each binding on its own with
``lift_edge_by_edge``, which walks the path's edges and evaluates each map
term on its own, and re-checks the top with the interpreter, under the same
wildcard probes; ``test_history.py`` runs both on generated histories, and
``test_golden.py`` runs every golden case with it in place of the lift.

A clause's trials run as one generated function (``evaluator.trial_loop``).
``run_trials_one_by_one`` is the interpreted loop it replaced: it copies a
binding for each new tuple and evaluates the conjunction and the conclusion
through ``evaluate``; ``test_testgen.py`` runs both on generated clauses.

The reader (``sedan.reader.read_sexprs``) tokenizes with one ``findall`` and
works out a node's line and column only when asked. ``read_sexprs_by_match``
is the reader it replaced: one ``finditer`` loop that takes each token's kind
from its ``Match`` and its line and column as it goes, into nodes that hold
them. ``test_reader.py`` runs both on generated texts, well-formed and not.
Its integer and rational patterns take ASCII digits only, as the reader's do.

An index source (``sedan.rand.IndexSource``) yields its indices from one
generator, ``draws(n)``. ``IndexSourceOneByOne`` is the source it replaced:
each index is one method call, ``draw``. ``test_rand.py`` checks that both
yield the same indices for the same seed.
"""

import math
import random
import re
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import islice, product, repeat
from typing import List, NamedTuple, Optional, Union

from sedan import testgen
from sedan.clauses import clause_vars
from sedan.datadef import SingletonRestriction
from sedan.evaluator import (
    Binding,
    DepthExceededError,
    EvaluationError,
    HostFunction,
    UnboundVariableError,
    UndefinedFunctionError,
    _check_arity,
    evaluate,
    stack_overflow_error,
)
from sedan.history import DONT_CARE, WILDCARD_PROBES, Lift
from sedan.reader import MAX_NESTING, ParseError
from sedan.rand import DEFAULT_UNIFORM_BOUND, GEOMETRIC_CONTINUE, GEOMETRIC_WIDTH_CAP
from sedan.terms import QNIL, App, Quote, Term, Var, negate
from sedan.testgen import TestReport, TypeAlist, _index_bound, _residual_checks, _var_plans
from sedan.values import CHAR_BY_NAME, NIL, T, Char, Symbol, Value, boolify, norm_rat, truthy


class IndexSourceOneByOne:
    """``rand.IndexSource`` with one method call per index: ``draw`` is
    ``geometric`` or ``uniform``, as the source's distribution says. A
    geometric index is ``randrange(1 << g)``, whose rejection loop over g + 1
    random bits ``IndexSource.draws`` runs inline."""

    def __init__(self, seed: int, dist: str = "geometric", uniform_bound: int = DEFAULT_UNIFORM_BOUND):
        self._rng = random.Random(seed)
        self.uniform_bound = uniform_bound
        self.draw = self.geometric if dist == "geometric" else self.uniform

    def geometric(self) -> int:
        rng = self._rng
        g = 0
        while g < GEOMETRIC_WIDTH_CAP and rng.random() < GEOMETRIC_CONTINUE:
            g += 1
        return rng.randrange(1 << g)

    def uniform(self) -> int:
        return self._rng.randrange(self.uniform_bound)


def _interpret(term: Term, binding: Binding, world) -> Value:
    """The explicit-work-stack interpreter: the oracle the generated code is
    tested against. Nothing in the package calls it."""
    cap = world.settings.depth_cap
    work: list = [("ev", term, binding)]
    vals: list = []
    depth = 0
    while work:
        item = work.pop()
        op = item[0]
        if op == "ev":
            t, env = item[1], item[2]
            tt = type(t)
            if tt is Quote:
                vals.append(t.value)
            elif tt is Var:
                try:
                    vals.append(env[t.name])
                except KeyError:
                    raise UnboundVariableError(t.name) from None
            elif tt is App:
                fn, args = t.fn, t.args
                if fn == "if":
                    _check_arity(fn, 3, 3, len(args))
                    work.append(("if", args[1], args[2], env))
                    work.append(("ev", args[0], env))
                elif fn == "and":
                    if not args:
                        vals.append(T)
                    else:
                        work.append(("and", args, 1, env))
                        work.append(("ev", args[0], env))
                elif fn == "or":
                    if not args:
                        vals.append(NIL)
                    else:
                        work.append(("or", args, 1, env))
                        work.append(("ev", args[0], env))
                elif fn == "implies":
                    _check_arity(fn, 2, 2, len(args))
                    work.append(("imp", args[1], env))
                    work.append(("ev", args[0], env))
                else:
                    work.append(("ap", t, env))
                    for a in reversed(args):
                        work.append(("ev", a, env))
            else:
                raise EvaluationError(f"not a term: {t!r}")
        elif op == "ap":
            t, env = item[1], item[2]
            n = len(t.args)
            argv = vals[len(vals) - n:]
            del vals[len(vals) - n:]
            fn = t.fn
            fdef = world.functions.get(fn)
            if fdef is None:
                raise UndefinedFunctionError(fn)
            _check_arity(fn, *fdef.arity_bounds(), n)
            if type(fdef) is HostFunction:
                vals.append(fdef.impl(*argv))
            else:
                depth += 1
                if depth > cap:
                    raise DepthExceededError(cap)
                work.append(("ret",))
                work.append(("ev", fdef.body, dict(zip(fdef.formals, argv))))
        elif op == "ret":
            depth -= 1
        elif op == "if":
            test = vals.pop()
            branch = item[1] if truthy(test) else item[2]
            work.append(("ev", branch, item[3]))
        elif op == "and":
            v = vals.pop()
            args, i, env = item[1], item[2], item[3]
            if v == NIL:
                vals.append(NIL)
            elif i == len(args):
                vals.append(v)
            else:
                work.append(("and", args, i + 1, env))
                work.append(("ev", args[i], env))
        elif op == "or":
            v = vals.pop()
            args, i, env = item[1], item[2], item[3]
            if v != NIL:
                vals.append(v)
            elif i == len(args):
                vals.append(v)
            else:
                work.append(("or", args, i + 1, env))
                work.append(("ev", args[i], env))
        elif op == "imp":
            hyp = vals.pop()
            if hyp == NIL:
                vals.append(T)
            else:
                work.append(("bool",))
                work.append(("ev", item[1], item[2]))
        elif op == "bool":
            vals.append(boolify(truthy(vals.pop())))
    assert len(vals) == 1
    return vals[0]


def lift_edge_by_edge(history, goal_id: str, assignment, world, wildcard_value: Value = NIL):
    """One binding's lift to the top, as one ``evaluate`` per map term, edge
    by edge: (the top-level binding, None), or (None, why it fails)."""
    path = history.lift_path(goal_id)
    binding = dict(assignment)
    for unbound, items in path.steps:
        binding.update(dict.fromkeys(unbound, wildcard_value))
        try:
            binding = {
                pv: wildcard_value if expr is DONT_CARE else evaluate(expr, binding, world) for pv, expr in items
            }
        except EvaluationError as e:
            return None, f"evaluation error in variable map: {e}"
    if path.failure is not None:
        return None, path.failure
    return binding, None


def _refalsifies(top: Term, binding: Binding, world, error: str, holds: str) -> Optional[str]:
    """None when ``binding`` falsifies ``top`` under the interpreter, else
    ``holds``, or ``error`` and the error's message."""
    try:
        return holds if truthy(_interpret(top, binding, world)) else None
    except EvaluationError as e:
        return error + str(e)
    except RecursionError:
        return error + str(stack_overflow_error(world))


def lift_binding_by_binding(history, goal_id: str, bindings, world, top: Term, wildcard_value: Value = NIL) -> Lift:
    """``History.lift`` as one ``lift_edge_by_edge`` per binding and wildcard
    value, with ``top`` re-checked by the interpreter: the oracle the lift's
    generated chain is tested against."""
    path = history.lift_path(goal_id)
    outcomes = []
    for assignment in bindings:
        binding, failure = lift_edge_by_edge(history, goal_id, assignment, world, wildcard_value)
        if binding is None:
            outcomes.append(("failed", None, failure))
            continue
        reason = _refalsifies(top, binding, world, "evaluation error at top level: ",
                              "lifted binding does not falsify the top-level conjecture")
        for probe in WILDCARD_PROBES if path.had_wildcards else ():
            if reason is not None:
                break
            probed, _ = lift_edge_by_edge(history, goal_id, assignment, world, probe)
            reason = "wildcard probe failed to lift" if probed is None else _refalsifies(
                top, probed, world, "wildcard probe error: ", "wildcard instantiation no longer falsifies"
            )
        outcomes.append(("lifted" if reason is None else "spurious", binding, reason))
    status = "lifted" if any(outcome[0] == "lifted" for outcome in outcomes) else "failed"
    return Lift(status, outcomes, path.had_wildcards, path.wildcard_vars)


# a trial's outcome: what it adds to the (satisfied, erroring) counts
_VACUOUS, _ERRED, _SATISFIED, _SATISFIED_ERRED = (0, 0), (0, 1), (1, 0), (1, 1)


def _satisfied(report: TestReport, seen: dict, binding: Binding, concl: Term, world) -> tuple[int, int]:
    """Classify a binding that satisfies every hypothesis by the conclusion,
    once per distinct tuple of values (the binding holds the variables in
    clause order); returns the trial's outcome."""
    key = tuple(binding.values())
    verdict = seen.get(key)
    if verdict is None:
        report.unique_satisfied += 1
        try:
            value = evaluate(concl, binding, world)
        except EvaluationError as e:
            report.erroring_unique += 1
            if report.first_error is None:
                report.first_error = str(e)
            verdict = "err"
        else:
            verdict = "wit" if truthy(value) else "cex"
            (report.witnesses if verdict == "wit" else report.counterexamples).append(binding)
        seen[key] = verdict
    return _SATISFIED_ERRED if verdict == "err" else _SATISFIED


def run_trials_one_by_one(
    literals: list[Term],
    alist: TypeAlist,
    world,
    seed: int,
    trials: int,
    goal_id: Optional[str] = None,
) -> TestReport:
    """``testgen.run_trials`` as an interpreted loop: each new tuple copies a
    template binding, decodes into it variable by variable, and evaluates the
    conjunction and then the conclusion through ``evaluate``. The oracle the
    generated trial loop is tested against; it reads ``testgen.sample`` and
    ``testgen.OUTCOME_MEMO_CAPACITY`` as ``run_trials`` does.
    """
    hyps = [negate(lit) for lit in literals[:-1]]
    concl = literals[-1] if literals else QNIL
    var_order = clause_vars(literals)
    for v in var_order:
        if v not in alist:
            raise ValueError(f"type alist does not cover variable {v}")
    plans = _var_plans(alist, world)
    settings = world.settings
    # every binding starts as a copy of the template, which holds each
    # singleton variable's value, and gets the other variables decoded
    template: Binding = {}
    decoded: dict[str, dict[int, Value]] = {}  # per type, index -> value, shared by its variables
    drawn = []  # (variable, type, its decoded values) for each index of a trial's tuple
    for v in var_order:
        primary = plans[v].primary
        if isinstance(primary, SingletonRestriction):
            template[v] = primary.value
        else:
            template[v] = None
            drawn.append((v, primary, decoded.setdefault(primary, {})))
    width = len(drawn)

    mode = settings.mode
    if mode != "random":
        bounds = [_index_bound(world, plans[v], settings.exhaustive_bound) for v, _, _ in drawn]
        if mode == "mixed":
            mode = "exhaustive" if math.prod(bounds) <= trials else "random"
    # the decoded values, and the outcomes outside exhaustive mode, each
    # remember at most this many entries
    room = capacity = testgen.OUTCOME_MEMO_CAPACITY
    if mode == "exhaustive":
        # the odometer, last variable fastest, never repeats a tuple, but it
        # repeats each variable's indices
        tuples = islice(product(*map(range, bounds)), trials)
        capacity = 0
    else:
        rng = IndexSourceOneByOne(seed, settings.dist, settings.uniform_bound)
        draws = (rng.draw() for _ in range(trials * width))
        tuples = zip(*[draws] * width) if width else repeat((), trials)

    report = TestReport(
        goal_id=goal_id,
        type_alist=alist,
        selections=plans,
        seed=seed,
        dist=settings.dist,
        mode=mode,
    )
    # one conjunction evaluates the residual checks and then the hypotheses in
    # order, stopping at the first that fails, with the depth cap applying to
    # each on its own
    checks = _residual_checks(world, plans, var_order) + hyps
    hyp_term = App("and", tuple(checks)) if checks else None
    seen: dict[tuple, str] = {}  # binding values -> "cex" | "wit" | "err"
    memo: dict[tuple, tuple[int, int]] = {}  # index tuple -> outcome
    trials_run = satisfied = erroring = 0
    started = time.perf_counter()
    for indices in tuples:
        trials_run += 1
        outcome = memo.get(indices)
        if outcome is None:
            binding = template.copy()
            try:
                for (v, t, values), i in zip(drawn, indices):
                    value = values.get(i)  # no value is None
                    if value is None:
                        value = testgen.sample(world, t, i)
                        if room:
                            values[i] = value
                            room -= 1
                    binding[v] = value
                ok = hyp_term is None or truthy(evaluate(hyp_term, binding, world))
            except EvaluationError as e:
                # a custom enumerator or recognizer, or a hypothesis, raised
                if report.first_error is None:
                    report.first_error = str(e)
                outcome = _ERRED
            else:
                outcome = _satisfied(report, seen, binding, concl, world) if ok else _VACUOUS
            if len(memo) < capacity:
                memo[indices] = outcome
        satisfied += outcome[0]
        erroring += outcome[1]
    report.elapsed = time.perf_counter() - started
    report.trials_run, report.satisfied, report.erroring = trials_run, satisfied, erroring
    return report


# --- the reader by Match ------------------------------------------------------

# the node shapes that read_sexprs_by_match builds: each holds its position


class SAtom(NamedTuple):
    value: Value
    line: int
    col: int


class SList:
    def __init__(self, items: List["Sexpr"], line: int, col: int):
        self.items = items
        self.line = line
        self.col = col


Sexpr = Union[SAtom, SList]

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_RAT_RE = re.compile(r"[+-]?[0-9]+/[0-9]+\Z")

_QUOTE = Symbol("quote")


def _classify_atom(text: str, line: int, col: int) -> Value:
    if _INT_RE.match(text):
        return int(text)
    if _RAT_RE.match(text):
        num, den = text.split("/")
        if int(den) == 0:
            raise ParseError(f"rational literal with zero denominator: {text}", line, col)
        return norm_rat(Fraction(int(num), int(den)))
    return Symbol(text)


# a string literal up to, not including, its closing quote
_STRING_PREFIX = r'"[^"\\]*(?:\\["\\][^"\\]*)*'

# one token per match. Every character but whitespace starts some group, so the
# search skips exactly the whitespace between tokens. A string or `#\` that the
# string and char groups reject falls through to `bad`, and _bad_literal says
# what is wrong with it.
_TOKEN = re.compile(
    rf"""
    (?P<comment>;[^\n]*)
    |(?P<open>\()
    |(?P<close>\))
    |(?P<quote>')
    |(?P<string>{_STRING_PREFIX}")
    |(?P<char>\#\\[\s\S][^\W_]*)
    |(?P<bad>"|\#\\)
    |(?P<atom>[^\s()'";]+)
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _position(line_starts: List[int], pos: int) -> tuple[int, int]:
    line = bisect_right(line_starts, pos)
    return line, pos - line_starts[line - 1] + 1


def _bad_literal(text: str, pos: int, line_starts: List[int]) -> ParseError:
    """The error for a string or `#\\` at pos that no token pattern accepts."""
    line, col = _position(line_starts, pos)
    if text[pos] == "#":
        return ParseError("unterminated character literal", line, col)
    end = re.compile(_STRING_PREFIX).match(text, pos).end()  # stops at the end or at a bad escape
    if end == len(text):
        return ParseError("unterminated string", line, col)
    if end + 1 == len(text):
        return ParseError("unterminated string escape", line, col)
    return ParseError(f"unknown string escape \\{text[end + 1]}", *_position(line_starts, end + 1))


def read_sexprs_by_match(text: str) -> List[Sexpr]:
    """Read all top-level s-expressions, with positions for error reporting."""
    # offsets where each line starts, then one past the end of the text
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)] + [len(text) + 1]
    line, line_start, next_line_start = 1, 0, line_starts[1]
    stack: List[SList] = []
    # each pending quote is (depth, line, col); it wraps the next datum that
    # completes at its depth, and the ')' closing that depth may not come
    # first. It stands for a list, so it counts as a level of nesting.
    quotes: List[tuple[int, int, int]] = []
    top: List[Sexpr] = []
    items = top  # the items of the innermost open list
    atoms: dict[str, Value] = {}  # atom text -> its value, for this text only
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "comment":
            continue
        start = m.start()
        if start >= next_line_start:
            line = bisect_right(line_starts, start)
            line_start, next_line_start = line_starts[line - 1], line_starts[line]
        col = start - line_start + 1
        if kind == "atom":
            atom = m.group()
            value = atoms.get(atom)
            if value is None:
                value = atoms[atom] = _classify_atom(atom, line, col)
            datum: Sexpr = SAtom(value, line, col)
        elif kind == "open":
            if len(stack) + len(quotes) >= MAX_NESTING:
                raise ParseError(f"lists nested deeper than {MAX_NESTING} levels", line, col)
            lst = SList([], line, col)
            stack.append(lst)
            items = lst.items
            continue
        elif kind == "close":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            if quotes and quotes[-1][0] == len(stack):
                raise ParseError("quote mark with nothing to quote", *quotes[-1][1:])
            datum = stack.pop()
            items = stack[-1].items if stack else top
        elif kind == "quote":
            if len(stack) + len(quotes) >= MAX_NESTING:
                raise ParseError(f"lists nested deeper than {MAX_NESTING} levels", line, col)
            quotes.append((len(stack), line, col))
            continue
        elif kind == "string":
            datum = SAtom(_ESCAPE.sub(r"\1", m.group()[1:-1]), line, col)
        elif kind == "char":
            name = m.group()[2:]
            if len(name) > 1 and name not in CHAR_BY_NAME:
                raise ParseError(f"unknown character name #\\{name}", line, col)
            datum = SAtom(Char(CHAR_BY_NAME.get(name, name)), line, col)
        else:
            raise _bad_literal(text, start, line_starts)
        while quotes and quotes[-1][0] == len(stack):
            _, ql, qc = quotes.pop()
            datum = SList([SAtom(_QUOTE, ql, qc), datum], ql, qc)
        items.append(datum)
    if stack:
        lst = stack[0]
        raise ParseError("unbalanced '('", lst.line, lst.col)
    if quotes:
        raise ParseError("quote mark with nothing to quote", *quotes[-1][1:])
    return top

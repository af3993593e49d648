"""Evaluator for the total first-order language.

Every built-in returns a value on every input (ACL2-style default completions):
car/cdr of a non-pair is nil, arithmetic treats non-rationals as 0, division by
zero is 0. User-function nesting is bounded by the world's depth cap, read on
every call, so a runaway definition raises an error instead of running forever.

Every name but the special forms resolves in one table, the world's
``functions``: a ``HostFunction`` (a built-in from ``BUILTINS``, or a data
definition's recognizer or enumerator) or a defun. ``BUILTINS`` holds no type
recognizer: ``natp``, ``booleanp`` and the other base recognizers come from
``datadef.install_base_types``, like every defdata type's ``Xp``.

A term is compiled into generated Python: one function ``f(env, remaining)``
per evaluated term, which reads each variable from ``env`` where evaluation
reaches it, and one function ``f(remaining, *formals)`` per defun body, which
takes the formals as positional parameters, so a call builds no environment.
``remaining`` is the user-function nesting the cap still allows. A term's
function is memoised on the term object, so it lives exactly as long as the
term does. A ``Chain`` of parallel assignments, which is how a lift runs a
checkpoint's path to the top, becomes one function ``f(env, wild, remaining)``
that assigns each step's terms at once, as Python locals, and gives every term
the whole cap; it is kept on the chain. A clause's trials run in one function
made for each ``testgen.run_trials`` call (``trial_loop``): it holds each
variable in a local, decodes the indices it has not seen, and inlines the
conjunction and the conclusion, so a trial calls no term's function.

- ``if``, ``and``, ``or`` and ``implies`` short-circuit as the interpreter
  does, and in their test position a built-in predicate (``consp``,
  ``equal``, ``<``, ``not``, ...) gives a Python bool directly;
- ``car``, ``cdr``, ``cons``, ``consp``, ``equal``, the comparisons and binary
  ``+``, ``*`` and ``-`` are inlined, with an int fast path for the numbers;
- every other host function is a global of the world's namespace, called with
  the argument values as positional arguments;
- a defun is called through a per-world slot in that namespace, which
  generates the body's function on its first call and then holds it (worlds
  only grow and redefinition is rejected, so nothing goes stale); a call
  past the depth cap raises ``DepthExceededError`` itself, with the cap it
  reads through the namespace's ``w_cap``;
- a call to a name the world lacks, or with a wrong argument count, goes
  through ``w_call`` after its arguments, which looks the name up when it
  runs, so a defun admitted since is called; a malformed special form or a
  non-term raises before its arguments; a variable the binding lacks raises
  ``UnboundVariableError`` where evaluation reads it: ``evaluate`` and
  ``run_chain`` pass the binding as an ``_Env``, whose miss raises it, so
  one emission serves every binding.

``Source`` is the emitter core that ``_Emitter`` and datadef's type emitter
build on. Quoted constants become parameters of a maker function, so the
source text depends only on the shape of what is emitted, and ``compile()``
runs once per text for every world: its result is kept in an LRU cache of
1024 texts (``_maker_code``). A subterm nested deep enough to approach
Python's parser limits moves into a helper function. A world's namespace is
cleared when the world is freed, which breaks the cycle between it and the
defun functions it holds, so a finished world is freed by reference counting.

Generated code is the only evaluation path. It raises every error itself,
the depth cap's included, when evaluation reaches it, in the order and with
the class and message of the explicit work-stack interpreter in the tests
(``tests/oracle.py``), the oracle they check it against and "the interpreter"
this module's comments name. It recurses on the Python stack, whose default
depth is far below the depth cap, so a session runs each form that evaluates
once, on a thread whose stack is sized to the cap (``on_sized_stack``). An
overflow of the stack is an ``EvaluationError`` (``stack_overflow_error``)
per evaluation, lift, evidence index and trial.

The evaluator is pure: same term, binding, and world always give the same value.
"""

from __future__ import annotations

import builtins
import functools
import sys
import threading
import weakref
from fractions import Fraction
from types import CodeType, FunctionType
from typing import Callable, Mapping, NamedTuple, Optional

from .terms import App, Quote, Term, Var, free_vars
from .values import (
    NIL,
    T,
    Cons,
    Symbol,
    Value,
    boolify,
    from_list,
    is_integer,
    is_rational,
    norm_rat,
    proper_length,
)

Binding = Mapping[str, Value]


class EvaluationError(Exception):
    pass


class UndefinedFunctionError(EvaluationError):
    def __init__(self, name: str):
        super().__init__(f"undefined function: {name}")
        self.name = name


class UnboundVariableError(EvaluationError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class DepthExceededError(EvaluationError):
    def __init__(self, cap: int):
        super().__init__(f"recursion depth cap of {cap} exceeded (likely nonterminating definition)")
        self.cap = cap


class ArityError(EvaluationError):
    pass


def _fix(v: Value) -> Value:
    """Coerce to a rational; non-numbers act as 0."""
    if type(v) is int:
        return v
    return v if is_rational(v) else 0


def _ifix(v: Value) -> int:
    return v if is_integer(v) else 0


def _car(v):
    return v.car if isinstance(v, Cons) else NIL


def _cdr(v):
    return v.cdr if isinstance(v, Cons) else NIL


def _divide(a, b=None):
    if b is None:
        a = _fix(a)
        return 0 if a == 0 else norm_rat(Fraction(1, 1) / a)
    a, b = _fix(a), _fix(b)
    return 0 if b == 0 else norm_rat(Fraction(a) / b)


def _minus(a, b=None):
    if b is None:
        return -_fix(a)
    return norm_rat(Fraction(_fix(a) - _fix(b)))


def _expt(base, power):
    base, power = _fix(base), _ifix(power)
    if power == 0:
        return 1
    if base == 0:
        return 0
    return norm_rat(Fraction(base) ** power)


def _append(*args):
    if not args:
        return NIL
    out = args[-1]
    for x in reversed(args[:-1]):
        items = []
        while isinstance(x, Cons):
            items.append(x.car)
            x = x.cdr
        out = from_list(items, out)
    return out


def _plus(*args):
    total = 0
    for a in args:
        total = total + _fix(a)
    return norm_rat(Fraction(total)) if isinstance(total, Fraction) else total


def _times(*args):
    total = 1
    for a in args:
        total = total * _fix(a)
    return norm_rat(total) if isinstance(total, Fraction) else total


class HostFunction(NamedTuple):
    """A function implemented in Python, in a world's function table next to
    the defuns: arity bounds (``hi`` None for any number) and ``impl``, which
    takes the argument values as positional arguments, impl(a, b), so a call
    builds no argument list."""

    lo: int
    hi: Optional[int]
    impl: Callable

    def arity_bounds(self):
        return (self.lo, self.hi)


# every world's function table starts from these
BUILTINS = {
    "cons": HostFunction(2, 2, Cons),
    "car": HostFunction(1, 1, _car),
    "cdr": HostFunction(1, 1, _cdr),
    "consp": HostFunction(1, 1, lambda a: boolify(isinstance(a, Cons))),
    "atom": HostFunction(1, 1, lambda a: boolify(not isinstance(a, Cons))),
    "endp": HostFunction(1, 1, lambda a: boolify(not isinstance(a, Cons))),
    "equal": HostFunction(2, 2, lambda a, b: boolify(a == b)),
    "not": HostFunction(1, 1, lambda a: boolify(a == NIL)),
    "+": HostFunction(0, None, _plus),
    "*": HostFunction(0, None, _times),
    "-": HostFunction(1, 2, _minus),
    "/": HostFunction(1, 2, _divide),
    "<": HostFunction(2, 2, lambda a, b: boolify(_fix(a) < _fix(b))),
    "<=": HostFunction(2, 2, lambda a, b: boolify(_fix(a) <= _fix(b))),
    ">": HostFunction(2, 2, lambda a, b: boolify(_fix(a) > _fix(b))),
    ">=": HostFunction(2, 2, lambda a, b: boolify(_fix(a) >= _fix(b))),
    "=": HostFunction(2, 2, lambda a, b: boolify(_fix(a) == _fix(b))),
    "expt": HostFunction(2, 2, _expt),
    "len": HostFunction(1, 1, proper_length),
    "append": HostFunction(0, None, _append),
    "list": HostFunction(0, None, lambda *a: from_list(a)),
}

SPECIAL_FORMS = {"if": (3, 3), "implies": (2, 2), "and": (0, None), "or": (0, None)}


def arity_bounds(world, name: str):
    """(min, max) arity for a callable name, or None if unknown."""
    if name in SPECIAL_FORMS:
        return SPECIAL_FORMS[name]
    fn = world.functions.get(name)
    if fn is None:
        return None
    return fn.arity_bounds()


def arity_admits(lo: int, hi, n: int) -> bool:
    """Whether ``n`` arguments lie within ``lo``..``hi`` (None: no upper bound)."""
    return lo <= n and (hi is None or n <= hi)


def arity_text(lo: int, hi) -> str:
    """The bounds as messages give them: "2", "1..3" or "1..*"."""
    return str(lo) if hi == lo else f"{lo}..{'*' if hi is None else hi}"


def _check_arity(name: str, lo: int, hi, n: int):
    if not arity_admits(lo, hi, n):
        raise ArityError(f"{name} expects {arity_text(lo, hi)} argument(s), got {n}")


def evaluate(term: Term, binding: Binding, world) -> Value:
    """Evaluate a term under a binding of its free variables, nesting user
    functions no deeper than ``world.settings.depth_cap``."""
    try:
        return _code(term, world)(_Env(binding), world.settings.depth_cap)
    except RecursionError:
        raise stack_overflow_error(world) from None


# a form's thread's recursion limit: frames per level of user-function nesting
# (a defun's function, helpers its body moved into, a custom type's evaluation;
# 1 to 3 measured), plus a margin for the frames below and for generating code;
# its stack allows this many bytes of C stack per frame
_FRAMES_PER_LEVEL = 8
_FRAME_MARGIN = 4096
_STACK_BYTES_PER_FRAME = 512

_stack = threading.local()  # .refused: why this thread's form has no sized stack


def stack_overflow_error(world) -> EvaluationError:
    """The error a Python stack overflow is: on a form with no sized stack, why."""
    refused = getattr(_stack, "refused", None)
    return EvaluationError(refused or f"the Python stack overflowed within the depth cap of {world.settings.depth_cap}")


def on_sized_stack(cap: int, run, *args):
    """``run(*args)``'s result or exception, run on a daemon thread whose
    recursion limit and stack are sized to the depth cap ``cap``; the thread
    restores the limit at its own shallow depth. If no such thread starts,
    ``run`` runs here, and an overflow's error says why."""
    frames = _FRAMES_PER_LEVEL * cap + _FRAME_MARGIN
    outcome: list = []

    def sized():
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(max(limit, frames))
            outcome.append((True, run(*args)))
        except BaseException as e:
            outcome.append((False, e))
        finally:
            sys.setrecursionlimit(limit)

    stack_size = threading.stack_size()
    try:
        threading.stack_size(frames * _STACK_BYTES_PER_FRAME)
        thread = threading.Thread(target=sized, daemon=True)
        thread.start()
    except (RuntimeError, ValueError, OverflowError) as e:
        thread, _stack.refused = None, f"cannot start a thread with a Python stack for the depth cap of {cap}: {e}"
    finally:
        threading.stack_size(stack_size)
    if thread is None:
        try:
            return run(*args)
        finally:
            del _stack.refused
    thread.join()
    returned, result = outcome.pop()
    if returned:
        return result
    raise result


def with_overflow_error(fn):
    """``fn(world, *args)``, raising ``stack_overflow_error`` on an overflow."""

    @functools.wraps(fn)
    def run(world, *args):
        try:
            return fn(world, *args)
        except RecursionError:
            raise stack_overflow_error(world) from None

    return run


# ---------------------------------------------------------------------------
# compilation: a term becomes a generated Python function f(env, remaining) and
# a defun body a function f(remaining, *formals), where remaining is the
# user-function nesting still allowed under the depth cap


class _Env(dict):
    """A binding as generated code reads it: a variable it lacks raises
    ``UnboundVariableError`` where evaluation reads it."""

    __slots__ = ()

    def __missing__(self, name):
        raise UnboundVariableError(name)


def _raise(error_class, arg):
    """Raise ``error_class(arg)``: generated code's errors, as an expression."""
    raise error_class(arg)


def _late_call(world, name: str, rem: int, args):
    """A call generated code could not resolve: the function ``name`` names in
    the world now, called with ``rem`` nesting left, or the interpreter's
    error for an unknown name or a wrong argument count."""
    fdef = world.functions.get(name)
    if fdef is None:
        raise UndefinedFunctionError(name)
    _check_arity(name, *fdef.arity_bounds(), len(args))
    if type(fdef) is HostFunction:
        return fdef.impl(*args)
    return world.namespace[_defun_slot(world, name)](rem, *args)


def _kept(holder, world, make, *args):
    """``make(world, *args)``, made once per world and kept on ``holder``.

    Neither the memo nor the function holds the world strongly: a defun body
    is a term the world holds, and a reference cycle through it would keep a
    finished world alive until the cyclic collector runs."""
    try:
        owner, code = holder._compiled
        if owner() is world:
            return code
    except AttributeError:
        pass
    code = make(world, *args)
    object.__setattr__(holder, "_compiled", (weakref.ref(world), code))
    return code


def _code(term: Term, world):
    """The term's generated function in this world, kept on the term object."""
    if type(term) in (App, Var, Quote):
        return _kept(term, world, _generate, term)
    return _generate(world, term)


class Chain:
    """Parallel assignments run in turn by one generated function, as a lift
    runs a checkpoint's path (``run_chain``).

    Each step is a pair (names, items): it sets its ``names`` to ``wild``,
    evaluates its items' terms in order against the values before the step
    (a term None is ``wild``), then sets every item's name at once, so a swap
    reads the old values. The first step reads its other variables from
    ``env``. The result is the last step's items as a dict, or a copy of
    ``env`` when there is no step."""

    def __init__(self, steps):
        self.steps = steps

    def code(self, world):
        """The generated function ``f(env, wild, rem)``, kept on the chain."""
        return _kept(self, world, _generate_chain, self.steps)


@with_overflow_error
def run_chain(world, chain: Chain, env: Binding, wild: Value) -> dict[str, Value]:
    """The chain's result from ``env``, its don't-cares set to ``wild``. Each
    term may nest user functions to the depth cap, as ``evaluate`` lets it,
    and the first error is the one that evaluating the terms one by one would
    raise; an overflow of the Python stack is one error for the whole chain."""
    return chain.code(world)(_Env(env), wild, world.settings.depth_cap)


def trial_loop(world, names, drawn, pinned, hypothesis: Optional[Term], conclusion: Term):
    """A clause's trial loop as one generated function ``f(tuples, memo,
    capacity, room, decode, world, report, rem, *decoded)``, which
    runs the trials of ``testgen.run_trials`` and sets ``report``'s counts.

    The variables ``names`` are each ``pinned`` to a value or ``drawn``, a
    list of (variable, type): one index per drawn variable makes a trial of
    ``tuples``, and ``decoded`` holds one dict index -> value per distinct
    type, in order of first use. A tuple in ``memo`` only adds its outcome. A
    new one decodes, through ``decode(world, type, index)``, only the indices
    its types' dicts lack, keeping each value while ``room`` lasts; tests
    ``hypothesis`` (None for true) and then, once per distinct tuple of
    values, the conclusion; and is remembered while ``memo`` holds fewer than
    ``capacity``. A trial that overflows the Python stack errs."""
    em = _Emitter(world, None)
    return em.make(em.trials(names, drawn, pinned, hypothesis, conclusion))


# the names every generated function may read; a world's namespace adds
# ``w_evaluate``, ``w_call`` and ``w_cap``, the host functions (h_NAME) and the
# defun slots (d_NAME) its code calls, and datadef's type names and slots
_PRELUDE = {
    "__builtins__": builtins,
    "_T": T,
    "_NIL": NIL,
    "_Cons": Cons,
    "_Symbol": Symbol,
    "_fix": _fix,
    "_plus": _plus,
    "_minus": _minus,
    "_times": _times,
    "_raise": _raise,
    "_EvaluationError": EvaluationError,
    "_DepthExceededError": DepthExceededError,
    "_stack_overflow_error": stack_overflow_error,
    "_check_arity": _check_arity,
}


def new_namespace(world) -> dict:
    """The globals of a world's generated functions, made with the world.
    ``w_evaluate`` is the world's ``evaluate``, ``w_call(name, rem, *args)``
    its late-bound call and ``w_cap()`` its depth cap, each holding the world
    weakly. A defun's function sits in the namespace and reads it, a cycle
    that is cleared when the world is freed."""
    owner = weakref.ref(world)
    ns = dict(_PRELUDE, w_evaluate=lambda term, binding: evaluate(term, binding, owner()),
              w_call=lambda name, rem, *args: _late_call(owner(), name, rem, args),
              w_cap=lambda: owner().settings.depth_cap)
    weakref.finalize(world, ns.clear)
    return ns


@functools.lru_cache(maxsize=1024)
def _maker_code(source: str) -> CodeType:
    """The code of the ``_make`` function that ``source`` defines. The source
    depends only on a term's shape, so every world shares one compilation."""
    module = compile(source, "<sedan>", "exec")
    return next(c for c in module.co_consts if type(c) is CodeType)


class Source:
    """The source of one generated function ``_f`` in one world, and the
    function it makes. ``_f`` sits in a maker function ``_make`` beside the
    helper functions it calls; quoted constants become the maker's parameters
    ``k0, k1, ...``, so the source depends only on the shape of what is
    emitted, and temporaries are ``t0, t1, ...``."""

    def __init__(self, world):
        self.world = world
        self.consts: list = []
        self.helpers: list[str] = []
        self.temps = 0

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps - 1}"

    def helper(self, emit) -> str:
        """The name of a new helper function, whose source ``emit(name)``
        returns; the helpers ``emit`` adds come after it."""
        index = len(self.helpers)
        self.helpers.append("")
        self.helpers[index] = emit(f"_h{index}")
        return f"_h{index}"

    def make(self, main: str):
        """The function ``_f`` that ``main`` defines, made in the world's
        namespace from the shared compilation of the source."""
        params = ", ".join([f"k{i}" for i in range(len(self.consts))])
        source = f"def _make({params}):\n{''.join(self.helpers)}{main}    return _f\n"
        return FunctionType(_maker_code(source), self.world.namespace)(*self.consts)


def _generate(world, term: Term, formals=None):
    """The generated function for a term (``formals`` None) or for a defun body."""
    em = _Emitter(world, formals)
    return em.make(em.function(term))


def _generate_chain(world, steps):
    """The generated function for a ``Chain``'s steps."""
    em = _Emitter(world, None)
    return em.make(em.chain(steps))


@functools.lru_cache(maxsize=4096)
def _ident(prefix: str, name: str) -> str:
    """A Python identifier for a Lisp name, one-to-one."""
    return prefix + "".join(c if c.isascii() and c.isalnum() else f"_{ord(c):x}_" for c in name)


def lazy_slot(world, prefix: str, name: str, generate) -> str:
    """The namespace key generated code calls a function through. It starts
    as a stub that makes the function with ``generate(world, name)`` on the
    first call and puts it in its own place, so recursion and later callers
    call it directly."""
    key, ns = _ident(prefix, name), world.namespace
    if key not in ns:
        owner = weakref.ref(world)

        def first_call(*args):
            fn = ns[key] = generate(owner(), name)
            return fn(*args)

        ns[key] = first_call
    return key


def _generate_defun(world, name: str):
    fdef = world.functions[name]
    return _generate(world, fdef.body, fdef.formals)


def _defun_slot(world, name: str) -> str:
    return lazy_slot(world, "d_", name, _generate_defun)


# an expression nested deeper than this many parentheses moves into a helper
# function, far below Python's limit of 200; a level of the term adds at most four
_HOIST_DEPTH = 100

_COMPARISONS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "=="}
_ARITHMETIC = {"+": "_plus", "*": "_times", "-": "_minus"}
# the built-ins whose truth is a Python bool, with the argument count at which
# they are inlined; and and or take any count
_TEST_ARITY = {"consp": 1, "atom": 1, "endp": 1, "not": 1, "equal": 2, "if": 3, "implies": 2,
               **dict.fromkeys(_COMPARISONS, 2)}
# every name the emitter treats by name, the special forms among them;
# any other is a call
_INLINE = {"and", "or", "car", "cdr", "cons", *_TEST_ARITY, *_ARITHMETIC}


def _tests_inline(fn: str, n: int) -> bool:
    return fn in ("and", "or") or _TEST_ARITY.get(fn) == n


# the source of a clause's trial loop (``_Emitter.trials``); an outcome is
# 0 for a vacuous trial, 1 for an erroring one, 2 for a satisfied one and 3
# for one satisfied by values whose conclusion raised
_TRIAL_LOOP = """\
    def _f(tuples, memo, capacity, room, decode, world, report, rem{decoded}):
        trials_run = satisfied = erroring = unique = erroring_unique = 0
        first_error = None
        seen = {{}}
        for trial in tuples:
            trials_run += 1
            outcome = memo.get(trial)
            if outcome is None:
{unpack}                try:
{decodes}                    ok = {hypothesis}
                except (_EvaluationError, RecursionError) as e:
                    if first_error is None:
                        first_error = str(_stack_overflow_error(world) if type(e) is RecursionError else e)
                    outcome = 1
                else:
                    outcome = 0
                    if ok:
                        key = ({key})
                        outcome = seen.get(key)
                        if outcome is None:
                            unique += 1
                            try:
                                holds = {conclusion}
                            except (_EvaluationError, RecursionError) as e:
                                erroring_unique += 1
                                if first_error is None:
                                    first_error = str(_stack_overflow_error(world) if type(e) is RecursionError else e)
                                outcome = seen[key] = 3
                            else:
                                (report.witnesses if holds else report.counterexamples).append({binding})
                                outcome = seen[key] = 2
                if len(memo) < capacity:
                    memo[trial] = outcome
            satisfied += outcome >> 1
            erroring += outcome & 1
        report.trials_run, report.satisfied, report.erroring = trials_run, satisfied, erroring
        report.unique_satisfied, report.erroring_unique, report.first_error = unique, erroring_unique, first_error
"""


class _Emitter(Source):
    """Python source for one term or defun body in one world.

    ``value`` returns an expression for a term's value and ``test`` one for
    its truth as a Python bool, each with its parenthesis depth. Built-ins
    are recognised by name (no name is ever redefined); any other host
    function or defun is registered in the world's namespace. A call that is
    not well formed goes through ``w_call``, after the arguments the
    interpreter would evaluate first. A variable that is not a local is read
    from ``env`` where evaluation reaches it, so a binding (an ``_Env``) that
    lacks it raises ``UnboundVariableError`` there, from the one emission."""

    def __init__(self, world, formals):
        super().__init__(world)
        self.formals = formals
        # variable -> Python identifier: a defun's formals, a trial loop's
        # variables, or a chain's wildcards and assigned names
        self.locals = {} if formals is None else {name: _ident("v_", name) for name in formals}

    def function(self, term) -> str:
        """The source of ``_f``, which returns the term's value."""
        body = self.value(term)[0]
        if self.formals is None:
            return f"    def _f(env, rem):\n        return {body}\n"
        return (f"    def _f({', '.join(['rem', *self.locals.values()])}):\n"
                "        if rem <= 0:\n            raise _DepthExceededError(w_cap())\n        rem -= 1\n"
                f"        return {body}\n")

    def chain(self, steps) -> str:
        """The source of ``_f(env, wild, rem)``, which runs a ``Chain``'s steps."""
        if not steps:
            return "    def _f(env, wild, rem):\n        return dict(env)\n"
        lines: list[str] = []
        for i, (names, items) in enumerate(steps):
            wild = [self.locals.setdefault(name, _ident("v_", name)) for name in names]
            if wild:
                lines.append(" = ".join([*wild, "wild"]))
            values = ["wild" if t is None else self.value(t)[0] for _, t in items]
            if i == len(steps) - 1:
                lines.append("return {" + ", ".join(f"{name!r}: {v}" for (name, _), v in zip(items, values)) + "}")
            elif items:
                targets = [self.locals.setdefault(name, _ident("v_", name)) for name, _ in items]
                lines.append(f"{', '.join(targets)}, = {', '.join(values)},")
        return "    def _f(env, wild, rem):\n" + "".join(f"        {line}\n" for line in lines)

    def trials(self, names, drawn, pinned, hypothesis, conclusion) -> str:
        """The source of ``_f``, which runs a clause's trials (``trial_loop``);
        each variable of ``names`` is a local, and a ``pinned`` one a
        constant."""
        types = list(dict.fromkeys(t for _, t in drawn))
        type_consts = [self.const(t) for t in types]
        for name in names:
            self.locals[name] = self.const(pinned[name]) if name in pinned else _ident("v_", name)

        def lines(indent, *texts):
            return "".join(f"{' ' * indent}{text}\n" for text in texts)

        decodes = ""
        for j, (name, t) in enumerate(drawn):
            v, k = self.locals[name], types.index(t)
            decodes += lines(20, f"{v} = d{k}.get(i{j})", f"if {v} is None:",
                             f"    {v} = decode(world, {type_consts[k]}, i{j})",
                             "    if room:", f"        d{k}[i{j}] = {v}", "        room -= 1")
        return _TRIAL_LOOP.format(
            decoded="".join(f", d{i}" for i in range(len(types))),
            unpack=lines(16, "".join(f"i{j}, " for j in range(len(drawn))) + "= trial") if drawn else "",
            decodes=decodes,
            hypothesis=self.test(hypothesis)[0] if hypothesis is not None else "True",
            key="".join(f"{self.locals[name]}, " for name in names),
            conclusion=self.test(conclusion)[0],
            binding="{" + ", ".join(f"{name!r}: {self.locals[name]}" for name in names) + "}",
        )

    # -- pieces -----------------------------------------------------------

    def bind(self, text: str) -> tuple[str, str]:
        """(first use, later uses) of an expression's value: the expression
        itself if it is a name, else an assignment to a fresh temporary."""
        if text.isidentifier():
            return text, text
        tmp = self.temp()
        return f"({tmp} := {text})", tmp

    def truthy(self, text: str) -> str:
        # nil is a Symbol but not a singleton, so no identity test will do
        first, name = self.bind(text)
        return f"(type({first}) is not _Symbol or {name}.name != 'nil')"

    def hoist(self, terms, text: str, depth: int) -> tuple[str, int]:
        """The expression, or a call of a new helper function returning it
        when it nests too deep; the helper takes the locals it reads, and
        ``env`` if it reads a variable from there."""
        if depth <= _HOIST_DEPTH:
            return text, depth
        reads = dict.fromkeys(self.locals.get(name, "env") for t in terms for name in free_vars(t))
        params = ", ".join(["rem", *reads])
        helper = self.helper(lambda name: f"    def {name}({params}):\n        return {text}\n")
        return f"{helper}({params})", 1

    # -- values -------------------------------------------------------------

    def value(self, t) -> tuple[str, int]:
        tt = type(t)
        if tt is Var:
            ident = self.locals.get(t.name)
            return (ident, 0) if ident is not None else (f"env[{t.name!r}]", 1)
        if tt is Quote:
            return self.const(t.value), 0
        if tt is not App:
            return f"_raise(_EvaluationError, {self.const(f'not a term: {t!r}')})", 1
        fn, args = t.fn, t.args
        text, depth = self._app_value(fn, args) if fn in _INLINE else self._call(fn, args)
        return (text, depth) if depth <= _HOIST_DEPTH else self.hoist((t,), text, depth)

    def _app_value(self, fn: str, args) -> tuple[str, int]:
        n = len(args)
        if fn in ("and", "or") and n == 1:
            return self.value(args[0])
        if fn == "if" and n == 3:
            (c, dc), (a, da), (b, db) = self.test(args[0]), self.value(args[1]), self.value(args[2])
            return f"({a} if {c} else {b})", 1 + max(dc, da, db)
        if fn == "and":
            if n == 0:
                return "_T", 0
            tests = [self.test(a) for a in args[:-1]]
            last, dl = self.value(args[-1])
            return f"({last} if {' and '.join(c for c, _ in tests)} else _NIL)", 1 + max(dl, *(d for _, d in tests))
        if fn == "or":
            return self._or_value(args) if n else ("_NIL", 0)
        if _tests_inline(fn, n):
            c, depth = self._app_test(fn, args)
            return f"(_T if {c} else _NIL)", depth + 1
        if n == 2 and fn in _ARITHMETIC:
            return self._numeric(args, fn, _ARITHMETIC[fn] + "({}, {})")
        if n == 1 and fn in ("car", "cdr"):
            a, depth = self.value(args[0])
            first, name = self.bind(a)
            return f"({name}.{fn} if type({first}) is _Cons else _NIL)", depth + 3
        if n == 2 and fn == "cons":
            (a, da), (b, db) = self.value(args[0]), self.value(args[1])
            return f"_Cons({a}, {b})", 1 + max(da, db)
        if fn in SPECIAL_FORMS:
            # a special form's arity error comes before any argument
            lo, hi = SPECIAL_FORMS[fn]
            return f"_check_arity({fn!r}, {lo}, {hi}, {n})", 1
        return self._call(fn, args)

    def _or_value(self, args) -> tuple[str, int]:
        """The first non-nil value, else the last value: a right fold, so a
        long disjunction can move into helpers piece by piece."""
        if len(args) == 1:
            return self.value(args[0])
        a, da = self.value(args[0])
        first, name = self.bind(a)
        rest, dr = self._or_value(args[1:])
        return self.hoist(args, f"({name} if {self.truthy(first)} else {rest})", 1 + max(da + 3, dr))

    def _numeric(self, args, op: str, slow: str) -> tuple[str, int]:
        """``a op b`` on two ints (an int constant needs no check), else
        ``slow`` applied to the values. Both arguments are evaluated, in
        order, before either test."""
        names, checks, depth = [], [], 0
        for a in args:
            text, d = self.value(a)
            depth = max(depth, d)
            if type(a) is Quote and type(a.value) is int:
                names.append(text)
                continue
            first, name = self.bind(text)
            names.append(name)
            checks.append(f"type({first}) is ")
        a, b = names
        if not checks:
            return f"({a} {op} {b})", depth + 1
        return f"({a} {op} {b} if {''.join(checks)}int else {slow.format(a, b)})", depth + 3

    def _call(self, fn: str, args) -> tuple[str, int]:
        texts, depth = [], 0
        for a in args:
            text, d = self.value(a)
            texts.append(text)
            depth = d if d > depth else depth
        depth += 1
        fdef = self.world.functions.get(fn)
        if fdef is None or not arity_admits(*fdef.arity_bounds(), len(args)):
            return f"w_call({', '.join([self.const(fn), 'rem', *texts])})", depth
        if type(fdef) is HostFunction:
            key = _ident("h_", fn)
            self.world.namespace.setdefault(key, fdef.impl)
            return f"{key}({', '.join(texts)})", depth
        return f"{_defun_slot(self.world, fn)}({', '.join(['rem', *texts])})", depth

    # -- tests ----------------------------------------------------------------

    def test(self, t) -> tuple[str, int]:
        """An expression for the term's truth as a Python bool. A built-in
        predicate's bool is used directly, without making t or nil."""
        if type(t) is App and _tests_inline(t.fn, len(t.args)):
            text, depth = self._app_test(t.fn, t.args)
            return (text, depth) if depth <= _HOIST_DEPTH else self.hoist((t,), text, depth)
        text, depth = self.value(t)
        return self.truthy(text), depth + 3

    def _app_test(self, fn: str, args) -> tuple[str, int]:
        if fn in ("consp", "atom", "endp"):
            a, depth = self.value(args[0])
            return f"(type({a}) is {'' if fn == 'consp' else 'not '}_Cons)", depth + 2
        if fn == "equal":
            (a, da), (b, db) = self.value(args[0]), self.value(args[1])
            return f"({a} == {b})", 1 + max(da, db)
        if fn in _COMPARISONS:
            op = _COMPARISONS[fn]
            return self._numeric(args, op, f"_fix({{}}) {op} _fix({{}})")
        tests = [self.test(a) for a in args]
        texts = [text for text, _ in tests]
        depth = 1 + max((d for _, d in tests), default=0)
        if fn == "not":
            return f"(not {texts[0]})", depth
        if fn == "if":
            return f"({texts[1]} if {texts[0]} else {texts[2]})", depth
        if fn == "implies":
            return f"(not {texts[0]} or {texts[1]})", depth
        if not texts:
            return ("True" if fn == "and" else "False"), 0
        return f"({f' {fn} '.join(texts)})", depth

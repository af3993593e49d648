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

A term is compiled once into nested closures ``code(env, remaining)``, where
``remaining`` is the user-function nesting the cap still allows, and the code is
memoised on the term object, so it lives exactly as long as the term does:

- ``if``, ``and``, ``or`` and ``implies`` short-circuit as the interpreter does;
- a host function's implementation is bound at compile time, its arity checked
  once, and it is called with the argument values as positional arguments
  (``impl(a, b)``), so a call builds no argument list;
- a user function's body is compiled on its first call, and its code is kept on
  the body term the world holds (worlds only grow and redefinition is rejected,
  so nothing goes stale); a name not yet defined is looked up again when the
  call is reached.

An error is raised only when evaluation reaches it, in the interpreter's order
and with the interpreter's class and message. Closures recurse on the
Python stack; a compiled run that overflows it is rerun by the explicit
work-stack interpreter ``_interpret``, which is also the oracle the compiled
path is tested against.

The evaluator is pure: same term, binding, and world always give the same value.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional

from .terms import App, Quote, Term, Var
from .values import (
    NIL,
    T,
    Cons,
    Value,
    boolify,
    from_list,
    is_integer,
    is_rational,
    norm_rat,
    proper_length,
    truthy,
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


def _check_arity(name: str, lo: int, hi, n: int):
    if n < lo or (hi is not None and n > hi):
        expected = str(lo) if hi == lo else f"{lo}..{'*' if hi is None else hi}"
        raise ArityError(f"{name} expects {expected} argument(s), got {n}")


def evaluate(term: Term, binding: Binding, world, depth_cap: int | None = None) -> Value:
    """Evaluate a term under a binding of its free variables."""
    cap = world.settings.depth_cap if depth_cap is None else depth_cap
    try:
        return _code(term, world)(binding, cap)
    except _OutOfDepth:
        raise DepthExceededError(cap) from None
    except RecursionError:
        return _interpret(term, binding, world, cap)


# ---------------------------------------------------------------------------
# compilation: a term becomes code(env, remaining) -> value, where remaining is
# the user-function nesting still allowed under the depth cap


class _OutOfDepth(Exception):
    """Raised by compiled code past the depth cap; evaluate reports the cap."""


def _code(term: Term, world):
    """The term's compiled code in this world, memoised on the term object.

    Neither the memo nor the code holds the world strongly: a defun body is a
    term the world holds, and a reference cycle through it would keep a
    finished world alive until the cyclic collector runs."""
    try:
        owner, code = term._compiled
        if owner() is world:
            return code
    except AttributeError:
        pass
    code = _compile(term, world)
    if type(term) in (App, Var, Quote):
        object.__setattr__(term, "_compiled", (weakref.ref(world), code))
    return code


def _compile(t: Term, world):
    tt = type(t)
    if tt is Quote:
        value = t.value
        return lambda env, rem: value
    if tt is Var:
        name = t.name

        def var(env, rem):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariableError(name) from None

        return var
    if tt is not App:
        def not_a_term(env, rem):
            raise EvaluationError(f"not a term: {t!r}")

        return not_a_term
    fn, n = t.fn, len(t.args)
    if fn in SPECIAL_FORMS:
        lo, hi = SPECIAL_FORMS[fn]
        bad = _bad_arity(fn, lo, hi, n)
        if bad is not None:
            return bad
        return _SPECIAL[fn](*[_compile(a, world) for a in t.args])
    args = [_compile(a, world) for a in t.args]
    impl = _impl(world, fn, n)
    if impl is not None:  # a host function: no depth bookkeeping
        if n == 1:
            a0 = args[0]
            return lambda env, rem: impl(a0(env, rem))
        if n == 2:
            a0, a1 = args
            return lambda env, rem: impl(a0(env, rem), a1(env, rem))
        return lambda env, rem: impl(*[a(env, rem) for a in args])
    call = _caller(world, fn, n)
    if n == 1:
        a0 = args[0]
        return lambda env, rem: call([a0(env, rem)], rem)
    return lambda env, rem: call([a(env, rem) for a in args], rem)


def _if(test, then, other):
    def if_(env, rem):
        if test(env, rem) != NIL:
            return then(env, rem)
        return other(env, rem)

    return if_


def _and(*parts):
    if not parts:
        return lambda env, rem: T

    def and_(env, rem):
        for part in parts:
            v = part(env, rem)
            if v == NIL:
                return NIL
        return v

    return and_


def _or(*parts):
    if not parts:
        return lambda env, rem: NIL

    def or_(env, rem):
        for part in parts:
            v = part(env, rem)
            if v != NIL:
                return v
        return v

    return or_


def _implies(hyp, concl):
    def implies(env, rem):
        if hyp(env, rem) == NIL:
            return T
        return T if concl(env, rem) != NIL else NIL

    return implies


_SPECIAL = {"if": _if, "and": _and, "or": _or, "implies": _implies}


def _bad_arity(fn: str, lo: int, hi, n: int):
    """None if n is within the bounds, else a function of two arguments (code or
    a caller) that raises the arity error."""
    if n >= lo and (hi is None or n <= hi):
        return None

    def raise_arity(argv, rem):
        _check_arity(fn, lo, hi, n)

    return raise_arity


def _impl(world, fn: str, n: int):
    """impl(*argv) for a host function that takes n arguments."""
    host = world.functions.get(fn)
    if type(host) is HostFunction and _bad_arity(fn, host.lo, host.hi, n) is None:
        return host.impl
    return None


def _caller(world, fn: str, n: int):
    """call(argv, remaining) applying fn to n evaluated arguments. Arity is
    checked once here; its error, like every other, is raised only when a call
    is reached, after the arguments were evaluated."""
    impl = _impl(world, fn, n)
    if impl is not None:
        return lambda argv, rem: impl(*argv)
    owner = weakref.ref(world)
    bounds = arity_bounds(world, fn)
    if bounds is None:
        # not defined yet: a later defun may add the name
        resolved = None

        def late(argv, rem):
            nonlocal resolved
            if resolved is None:
                if fn not in owner().functions:
                    raise UndefinedFunctionError(fn)
                resolved = _caller(owner(), fn, n)
            return resolved(argv, rem)

        return late
    bad = _bad_arity(fn, *bounds, n)
    if bad is not None:
        return bad
    formals = world.functions[fn].formals
    body = None

    def user(argv, rem):
        nonlocal body
        if rem <= 0:
            raise _OutOfDepth
        if body is None:
            body = _code(owner().functions[fn].body, owner())
        return body(dict(zip(formals, argv)), rem - 1)

    return user


# ---------------------------------------------------------------------------
# interpretation


def _interpret(term: Term, binding: Binding, world, depth_cap: int | None = None) -> Value:
    """The explicit-work-stack interpreter: the fallback for compiled runs that
    overflow the Python stack, and the oracle the compiled path is tested against."""
    cap = world.settings.depth_cap if depth_cap is None else depth_cap
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

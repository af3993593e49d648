"""The explicit-work-stack interpreter, the oracle that sedan's generated code
is checked against.

sedan evaluates every term through generated Python (``sedan.evaluator``),
which recurses on the Python stack. This interpreter walks a term with an
explicit work stack instead, and raises each error with the class and message
that generated code must raise, in the same order. The differential tests in
``test_evaluator.py`` run both on the same terms, bindings and worlds.
"""

from sedan.evaluator import (
    Binding,
    DepthExceededError,
    EvaluationError,
    HostFunction,
    UnboundVariableError,
    UndefinedFunctionError,
    _check_arity,
)
from sedan.terms import App, Quote, Term, Var
from sedan.values import NIL, T, Value, boolify, truthy


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

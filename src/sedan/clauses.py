"""Clausification: if-normalization of formulas into disjunctive clauses.

A clause is a literal list with disjunction semantics; hypotheses appear
negated and the last literal is the conclusion. The conjunction of the
returned clauses is logically equivalent to the input formula.
"""

from __future__ import annotations

from .terms import App, Quote, Term, app, free_vars, is_negation, negate
from .values import NIL


def _dedup(literals: list[Term]) -> list[Term]:
    out: list[Term] = []
    for lit in literals:
        if lit not in out:
            out.append(lit)
    return out


def clausify(formula: Term) -> list[list[Term]]:
    """CNF over the propositional skeleton; non-connective terms are atoms."""
    return [_dedup(c) for c in _cnf(formula)]


def _cnf(t: Term) -> list[list[Term]]:
    if isinstance(t, App):
        fn = t.fn
        if fn == "and":
            out: list[list[Term]] = []
            for a in t.args:
                out.extend(_cnf(a))
            return out
        if fn == "or":
            acc: list[list[Term]] = [[]]
            for a in t.args:
                acc = [c1 + c2 for c1 in acc for c2 in _cnf(a)]
            return acc
        if fn == "implies" and len(t.args) == 2:
            # (implies h c) = (or (not h) c); cross the clause sets of both sides
            h, c = t.args
            out = []
            for h_clause in _neg_cnf(h):
                for c_clause in _cnf(c):
                    out.append(h_clause + c_clause)
            return out
        if fn == "if" and len(t.args) == 3:
            p, q, r = t.args
            out = []
            for c in _cnf(q):
                out.append([negate(p)] + c)
            for c in _cnf(r):
                out.append([p] + c)
            return out
        if fn == "not" and len(t.args) == 1:
            return _neg_cnf(t.args[0])
    return [[t]]


def _neg_cnf(t: Term) -> list[list[Term]]:
    if isinstance(t, App):
        fn = t.fn
        if fn == "and":
            acc: list[list[Term]] = [[]]
            for a in t.args:
                acc = [c1 + c2 for c1 in acc for c2 in _neg_cnf(a)]
            return acc
        if fn == "or":
            out: list[list[Term]] = []
            for a in t.args:
                out.extend(_neg_cnf(a))
            return out
        if fn == "implies" and len(t.args) == 2:
            h, c = t.args
            return _cnf(h) + _neg_cnf(c)
        if fn == "if" and len(t.args) == 3:
            p, q, r = t.args
            return _cnf(app("if", p, negate(q), negate(r)))
        if fn == "not" and len(t.args) == 1:
            return _cnf(t.args[0])
    return [[negate(t)]]


def clause_vars(literals: list[Term]) -> list[str]:
    """Variables of a clause in first-occurrence order."""
    order: dict[str, None] = {}
    for lit in literals:
        for v in free_vars(lit):
            order.setdefault(v, None)
    return list(order)


def split_implies(term: Term) -> tuple[tuple[Term, ...], Term]:
    """Flatten an implies-chain into (hypotheses, conclusion); a conjunctive
    hypothesis contributes each conjunct. ``clause_to_term`` goes the other way."""
    hyps: list[Term] = []
    concl = term
    while isinstance(concl, App) and concl.fn == "implies" and len(concl.args) == 2:
        pending = [concl.args[0]]
        while pending:
            h = pending.pop()
            if isinstance(h, App) and h.fn == "and":
                pending.extend(reversed(h.args))
            else:
                hyps.append(h)
        concl = concl.args[1]
    return tuple(hyps), concl


def clause_to_term(literals: list[Term]) -> Term:
    """Readable formula for a clause: an implication when hypotheses exist."""
    if not literals:
        return Quote(NIL)
    if len(literals) == 1:
        return literals[0]
    hyps = [lit.args[0] if is_negation(lit) else negate(lit) for lit in literals[:-1]]
    concl = literals[-1]
    hyp = hyps[0] if len(hyps) == 1 else app("and", *hyps)
    return app("implies", hyp, concl)


def has_connective(t: Term) -> bool:
    """True when a literal still carries formula-level structure to re-clausify."""
    if not isinstance(t, App):
        return False
    if t.fn in ("and", "or", "implies", "if"):
        return True
    if t.fn == "not" and len(t.args) == 1:
        inner = t.args[0]
        return isinstance(inner, App) and inner.fn in ("and", "or", "implies", "if", "not")
    return False

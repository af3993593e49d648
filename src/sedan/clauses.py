"""Clausification: if-normalization of formulas into disjunctive clauses.

A clause is a literal list with disjunction semantics; hypotheses appear
negated and the last literal is the conclusion. The conjunction of the
returned clauses is logically equivalent to the input formula.

One walk turns a formula into clauses, carrying a polarity: ``not`` flips
it, and under it ``and``, ``or`` and ``implies`` trade conjunction for
disjunction by De Morgan's laws. ``(if p q r)`` splits into the clauses of q
under ``(not p)`` and those of r under p, in either polarity. Anything else,
a connective of the wrong arity included, is an atom, negated when the
polarity is negative. A disjunction multiplies its parts' clauses, so
``clausify`` raises ``TooManyClauses`` rather than build more than its cap.
"""

from __future__ import annotations

from math import prod

from .terms import App, Quote, Term, app, free_vars, negate
from .values import NIL


def _dedup(literals: list[Term]) -> list[Term]:
    out: list[Term] = []
    for lit in literals:
        if lit not in out:
            out.append(lit)
    return out


class TooManyClauses(Exception):
    """A formula, or a part of it, has more clauses than ``clausify``'s cap."""


def clausify(formula: Term, cap: int) -> list[list[Term]]:
    """CNF over the propositional skeleton; non-connective terms are atoms.
    Raises ``TooManyClauses`` rather than build more than ``cap`` clauses."""
    return [_dedup(c) for c in _combine([_cnf(formula, True, cap)], True, cap)]


def _cnf(t: Term, positive: bool, cap: int) -> list[list[Term]]:
    """The clauses of ``t``, or of its negation when not ``positive``."""
    if isinstance(t, App):
        fn, args = t.fn, t.args
        if fn == "not" and len(args) == 1:
            return _cnf(args[0], not positive, cap)
        if fn == "if" and len(args) == 3:
            p, q, r = args
            q_part = [[negate(p)] + c for c in _cnf(q, positive, cap)]
            return _combine([q_part, [[p] + c for c in _cnf(r, positive, cap)]], True, cap)
        if fn in ("and", "or"):
            return _combine([_cnf(a, positive, cap) for a in args], (fn == "and") == positive, cap)
        if fn == "implies" and len(args) == 2:
            # (implies h c) is (or (not h) c)
            return _combine([_cnf(args[0], not positive, cap), _cnf(args[1], positive, cap)], not positive, cap)
    return [[t] if positive else [negate(t)]]


def _combine(parts: list[list[list[Term]]], conjunctive: bool, cap: int) -> list[list[Term]]:
    """The clauses of a conjunction of parts are theirs, in order; those of a
    disjunction, one per choice of a clause from each part, the first part
    varying slowest. Their number is counted before they are built."""
    if (sum if conjunctive else prod)(map(len, parts)) > cap:
        raise TooManyClauses
    if conjunctive:
        return [c for part in parts for c in part]
    acc: list[list[Term]] = [[]]
    for part in parts:
        acc = [c1 + c2 for c1 in acc for c2 in part]
    return acc


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
    hyps = [negate(lit) for lit in literals[:-1]]
    concl = literals[-1]
    hyp = hyps[0] if len(hyps) == 1 else app("and", *hyps)
    return app("implies", hyp, concl)


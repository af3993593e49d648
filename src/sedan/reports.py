"""Report rendering: narrative text and a structured JSON document.

The text echo upcases symbols the way ACL2 session output does; the structured
report prints bindings canonically (case preserved) so every counterexample
string parses back to a binding that re-falsifies its conjecture. Timing is
deliberately omitted: identical inputs must produce byte-identical documents.

The structured report's text is what ``json.dumps(doc, indent=2,
sort_keys=True)`` would write for its document, then a newline. ``write_json``
writes it in one walk that appends to a list: with ``indent`` set,
``json.dumps`` before CPython 3.13 runs its pure-Python encoder, which passes
every chunk up through a generator per enclosing container.
"""

from __future__ import annotations

from functools import partial
from json.encoder import encode_basestring_ascii as _quote

from .clauses import clause_to_term, clause_vars
from .datadef import print_restriction
from .reader import SAtom, SList, dotted_pair, read_sexprs, sexpr_to_value
from .session import FormResult, SessionOutcome
from .terms import print_term
from .testgen import TestReport, print_binding
from .values import Symbol, Value, print_value
from .waterfall import ProcessLogEntry, ProofResult, SubgoalCounterexample

REPORT_CAP = 3  # counterexamples and witnesses listed per report

# ---------------------------------------------------------------------------
# upcased display for the narrative text


def display_alist(report: TestReport) -> str:
    parts = []
    for var in report.type_alist:
        sel = report.selections[var]
        parts.append(f"({var.upper()} . {print_restriction(sel.primary, upcase=True)})")
    return "(" + " ".join(parts) + ")"


def display_binding(binding: dict[str, Value], var_order=None, dont_care=()) -> str:
    names = list(var_order) if var_order else list(binding)
    parts = [
        f"({v.upper()} {'?' if v in dont_care else print_value(binding[v], upcase=True)})"
        for v in names
        if v in binding
    ]
    if len(parts) <= 1:
        return parts[0] if parts else "()"
    if len(parts) == 2:
        return f"{parts[0]} and {parts[1]}"
    return ", ".join(parts[:-1]) + " and " + parts[-1]


# ---------------------------------------------------------------------------
# text report


def _count_phrase(n: int, singular: str, plural: str) -> str:
    if n == 0:
        return f"none were {plural}"
    if n == 1:
        return f"1 was a {singular}"
    return f"{n} were {plural}"


def _trial_sentences(report: TestReport) -> list[str]:
    lines = []
    if report.satisfied == 0:
        lines.append(
            f"We tried {report.trials_run} {report.mode} trials, none of which satisfied the hypotheses."
        )
    else:
        lines.append(
            f"We tried {report.trials_run} {report.mode} trials, "
            f"{report.satisfied} ({report.unique_satisfied} unique) of which satisfied the hypotheses."
        )
        lines.append(
            f"Of these, {_count_phrase(len(report.counterexamples), 'counterexample', 'counterexamples')} "
            f"and {_count_phrase(len(report.witnesses), 'witness', 'witnesses')}."
        )
    if report.erroring:
        lines.append(
            f"({report.erroring} trials raised evaluation errors; first: {report.first_error})"
        )
    return lines


def _add_listing(lines: list[str], header: str, bindings: list, show) -> None:
    """Unless ``bindings`` is empty, append ``header``, one `` -- `` line per
    binding (``show(binding)``) for at most ``REPORT_CAP`` of them, ``...``
    when there are more, and a blank line."""
    if not bindings:
        return
    lines.append(header)
    lines.extend([f" -- {show(b)}" for b in bindings[:REPORT_CAP]])
    if len(bindings) > REPORT_CAP:
        lines.append("...")
    lines.append("")


def render_test_report(report: TestReport) -> list[str]:
    var_order = list(report.type_alist)
    style = "Exhaustive" if report.mode == "exhaustive" else "Random"
    goal = f' "{report.goal_id}"' if report.goal_id else ""
    lines = [f"{style} testing{goal} with type alist {display_alist(report)}"]
    lines.append("")
    show = partial(display_binding, var_order=var_order)
    _add_listing(lines, "We falsified the conjecture. Here are counterexamples:", report.counterexamples, show)
    _add_listing(lines, "Cases in which the conjecture is true include:", report.witnesses, show)
    lines.extend(_trial_sentences(report))
    return lines


def _render_thm(fr: FormResult) -> list[str]:
    proof = fr.proof
    lines: list[str] = []
    for entry in proof.discarded_generalizations:
        lines.append(
            f'Testing refuted a generalization of "{entry.goal_id}"; the goal re-enters '
            "the waterfall with generalization disabled."
        )
        lines.append("")
    if proof.status == "proved":
        lines.append("Q.E.D.")
        return lines
    n = len(proof.checkpoints)
    plural = "checkpoint" if n == 1 else "checkpoints"
    lines.append(f"Proof attempt failed; {n} {plural} pushed to the pool.")
    lines.append("")
    for goal in proof.checkpoints:
        lines.append(f"Checkpoint {goal.id}:")
        lines.append(print_term(clause_to_term(goal.literals), upcase=True))
        lines.append("")
        lines.extend(render_test_report(proof.checkpoint_reports[goal.id]))
        lines.append("")
    if proof.counterexamples:
        top_order = clause_vars([proof.top_term])
        _add_listing(
            lines, "We falsified the conjecture. Here are counterexamples:", proof.counterexamples,
            lambda cex: display_binding(cex.top_binding, top_order, cex.wildcard_vars),
        )
    for sub in proof.subgoal_counterexamples:
        lines.append(
            f'Counterexample local to "{sub.goal_id}" (not liftable to the original conjecture): '
            f"{display_binding(sub.binding)}"
        )
    for sp in proof.spurious_lifts:
        lines.append(f'Spurious lift from "{sp.goal_id}": {display_binding(sp.binding)} ({sp.reason})')
    return lines


def render_text(outcome: SessionOutcome) -> str:
    lines: list[str] = []
    if outcome.fatal_error:
        lines.append(f"Error: {outcome.fatal_error}")
    for fr in outcome.forms:
        lines.append(f";; form {fr.index}: {fr.source}")
        if fr.status == "error":
            lines.append(f"Error: {fr.error}")
            lines.append("")
            continue
        if fr.kind == "test?" and fr.testing is not None:
            lines.extend(render_test_report(fr.testing))
        elif fr.kind == "thm" and fr.proof is not None:
            lines.extend(_render_thm(fr))
        else:
            lines.append(f"{fr.status.capitalize()}.")
        lines.append("")
    lines.append(f"Exit code: {outcome.exit_code}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structured report


def _report_json(report: TestReport) -> dict:
    var_order = list(report.type_alist)
    return {
        "goal": report.goal_id,
        "type_alist": [
            [v, [print_restriction(r) for r in rs]] for v, rs in report.type_alist.items()
        ],
        "selection": [
            [v, print_restriction(report.selections[v].primary)] for v in report.type_alist
        ],
        "trials": report.trials_run,
        "satisfied": report.satisfied,
        "unique": report.unique_satisfied,
        "counterexample_count": len(report.counterexamples),
        "witness_count": len(report.witnesses),
        "counterexamples": [print_binding(b, var_order) for b in report.counterexamples[:REPORT_CAP]],
        "witnesses": [print_binding(b, var_order) for b in report.witnesses[:REPORT_CAP]],
        "erroring": report.erroring,
        "first_error": report.first_error,
        "seed": report.seed,
        "mode": report.mode,
        "dist": report.dist,
    }


def _log_entry_json(entry: ProcessLogEntry) -> dict:
    return {
        "goal": entry.goal_id,
        "process": entry.process,
        "outcome": entry.outcome,
        "children": list(entry.child_ids),
        "liftable": entry.liftable,
        "variable_map": {v: print_term(t) for v, t in entry.variable_map.items()},
        "note": entry.note,
    }


def _local_json(records: list[SubgoalCounterexample]) -> list[dict]:
    """Each record's goal, its binding and why it is not a counterexample of
    the top-level conjecture."""
    return [
        {"goal": s.goal_id, "binding": print_binding(s.binding, sorted(s.binding)), "reason": s.reason}
        for s in records
    ]


def _proof_json(proof: ProofResult) -> dict:
    top_order = clause_vars([proof.top_term])
    return {
        "status": proof.status,
        "seed": proof.seed,
        "checkpoints": [g.id for g in proof.checkpoints],
        "checkpoint_reports": {
            gid: _report_json(r) for gid, r in sorted(proof.checkpoint_reports.items())
        },
        "counterexamples": [
            {
                "goal": c.goal_id,
                "subgoal_binding": print_binding(c.subgoal_binding, sorted(c.subgoal_binding)),
                # nil stands in for the don't-cares so the string re-falsifies
                "top_binding": print_binding(c.top_binding, top_order),
                "had_wildcards": c.had_wildcards,
                "dont_care": list(c.wildcard_vars),
            }
            for c in proof.counterexamples
        ],
        "subgoal_counterexamples": _local_json(proof.subgoal_counterexamples),
        "spurious_lifts": _local_json(proof.spurious_lifts),
        "discarded_generalizations": [
            {"goal": e.goal_id, "note": e.note} for e in proof.discarded_generalizations
        ],
        "process_log": [_log_entry_json(e) for e in proof.process_log],
        "history": proof.history.to_json() if proof.history else [],
        "diagnostics": list(proof.diagnostics),
    }


def _write(value, indent: str, out: list[str]) -> None:
    """Append the JSON text of ``value``, a container's item at ``indent`` (a
    newline and its spaces), to ``out``."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is dict or kind is list:
        if not value:
            out.append("{}" if kind is dict else "[]")
            return
        inner = indent + "  "
        if kind is dict:
            sep = "{" + inner
            for key in sorted(value):
                out.append(sep + _quote(key) + ": ")
                _write(value[key], inner, out)
                sep = "," + inner
            out.append(indent + "}")
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write(item, inner, out)
                sep = "," + inner
            out.append(indent + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"not a report value: {value!r}")


def write_json(doc) -> str:
    """The text ``json.dumps(doc, indent=2, sort_keys=True)`` writes for a
    document of str, int, bool, None, list and dict with str keys; any other
    value or key is a ``TypeError`` (``_quote`` raises it for a key)."""
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def render_structured(outcome: SessionOutcome) -> str:
    settings = outcome.settings
    doc = {
        "tool": "sedan",
        "file": outcome.path,
        "flags": {
            "seed": settings.seed,
            "trials": settings.trials,
            "mode": settings.mode,
            "dist": settings.dist,
            "uniform_bound": settings.uniform_bound,
            "exhaustive_bound": settings.exhaustive_bound,
            "deterministic": settings.deterministic,
            "backtrack": settings.backtrack,
            "max_rewrite_depth": settings.max_rewrite_depth,
        },
        "fatal_error": outcome.fatal_error,
        "forms": [
            {
                "index": fr.index,
                "kind": fr.kind,
                "source": fr.source,
                "status": fr.status,
                "error": fr.error,
                "seed": fr.seed,
                "testing": _report_json(fr.testing) if fr.testing else None,
                "proof": _proof_json(fr.proof) if fr.proof else None,
            }
            for fr in outcome.forms
        ],
        "exit_code": outcome.exit_code,
    }
    return write_json(doc) + "\n"


def emit_report(outcome: SessionOutcome, format: str = "text") -> bytes:
    """Render a finished session in the requested format."""
    if format == "text":
        return render_text(outcome).encode()
    if format == "structured":
        return render_structured(outcome).encode()
    raise ValueError(f"unknown report format: {format}")


def parse_binding(text: str) -> dict[str, Value]:
    """Parse a canonical binding string from the structured report."""
    sxs = read_sexprs(text)
    if len(sxs) != 1 or not isinstance(sxs[0], SList):
        raise ValueError(f"not a binding: {text}")
    binding: dict[str, Value] = {}
    for item in sxs[0].items:
        if not (dotted_pair(item) and isinstance(item.items[0], SAtom) and isinstance(item.items[0].value, Symbol)):
            raise ValueError(f"bad binding entry in {text}")
        binding[item.items[0].value.name] = sexpr_to_value(item.items[2])
    return binding

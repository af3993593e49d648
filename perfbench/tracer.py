"""Outside-in tracing of sedan's layers.

Spans wrap sedan's public functions at the sites where other modules import
them (``sedan.testgen.evaluate``, ``sedan.waterfall.run_trials``, ...), so
nothing inside ``src/sedan`` changes. Each span knows its parent; a span's
self time is its duration minus the time of its child spans. Spans are
aggregated in memory per (parent, name) and written out by the caller.
"""

from __future__ import annotations

import time
from collections import Counter

ROOT = "cli.main"

# (span name, module, attribute) for plain function wrappers
_SITES = (
    ("cli.build_parser", "sedan.cli", "build_parser"),
    ("session.process_file", "sedan.cli", "process_file"),
    ("world.World", "sedan.session", "World"),
    ("forms.parse_forms", "sedan.session", "parse_forms"),
    ("datadef.register_defdata", "sedan.session", "register_defdata"),
    ("datadef.add_subtype_edge", "sedan.session", "add_subtype_edge"),
    ("waterfall.run_waterfall", "sedan.session", "run_waterfall"),
    # top_level_test and the checkpoint probe in hints read these from testgen
    ("testgen.run_trials", "sedan.testgen", "run_trials"),
    ("testgen.run_trials", "sedan.waterfall", "run_trials"),
    ("testgen.extract_restrictions", "sedan.testgen", "extract_restrictions"),
    ("datadef.recognize", "sedan.testgen", "recognize"),
    ("evaluator.evaluate.in_testgen", "sedan.testgen", "evaluate"),
    ("evaluator.evaluate.in_history", "sedan.history", "evaluate"),
    ("evaluator.evaluate.in_simplify", "sedan.simplify", "evaluate"),
    ("evaluator.evaluate.in_waterfall", "sedan.waterfall", "evaluate"),
    ("clauses.clausify", "sedan.waterfall", "clausify"),
    ("clauses.clausify", "sedan.simplify", "clausify"),
    ("simplify.simplify_clause", "sedan.waterfall", "simplify_clause"),
    ("waterfall.eliminate_destructors", "sedan.waterfall", "eliminate_destructors"),
    ("waterfall.generalize", "sedan.waterfall", "generalize"),
)


class Tracer:
    """Installs span wrappers into sedan's modules and restores them after."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list[int]] = {}  # -> [calls, total_ns, self_ns]
        self.counts: Counter = Counter()
        self._names = ["-"]
        self._child_ns = [0]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _record(self, parent: str, name: str, elapsed: int, child: int):
        rec = self.stats.get((parent, name))
        if rec is None:
            rec = self.stats[(parent, name)] = [0, 0, 0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child

    def wrap(self, name, fn, after=None, name_of=None):
        """A span around fn. ``name_of(args)`` refines the span name from the
        arguments; ``after(args, result)`` records counts from the result."""
        names, child_ns, record, clock = self._names, self._child_ns, self._record, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = name_of(args) if name_of is not None else name
            parent = names[-1]
            names.append(span)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = child_ns.pop()
                names.pop()
                child_ns[-1] += elapsed
                record(parent, span, elapsed, child)
            if after is not None:
                after(args, result)
            return result

        return traced

    def call(self, fn, *args):
        """Run fn as the root span of one verdict."""
        return self.wrap(ROOT, fn)(*args)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, make):
        """Replace owner.attr (or owner[attr] for a dict) by make(original)."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))

    def install(self):
        import sys

        import sedan.cli  # noqa: F401  (loads every module patched below)
        from sedan.hints import HANDLERS
        from sedan.history import History

        counts = self.counts
        after = {
            "forms.parse_forms": lambda a, r: counts.update({"forms.parse_forms.forms": len(r)}),
            "testgen.run_trials": _count_trials(counts),
            "clauses.clausify": lambda a, r: counts.update({"clauses.clausify.clauses_out": len(r)}),
            "simplify.simplify_clause": lambda a, r: counts.update({"simplify.rule_applications": r.rule_applications}),
            "waterfall.run_waterfall": lambda a, r: counts.update(
                {"waterfall.goals": len(r.history.order), "waterfall.checkpoints": len(r.checkpoints)}
            ),
        }
        for name, module, attr in _SITES:
            self._patch(sys.modules[module], attr, lambda fn, n=name: self.wrap(n, fn, after.get(n)))

        self._patch(sys.modules["sedan.cli"], "emit_report", lambda fn: self.wrap(
            "reports.emit_report", fn, after=_count_report_bytes(counts),
            name_of=lambda a: "reports.emit_report." + (a[1] if len(a) > 1 else "text"),
        ))
        self._patch(sys.modules["sedan.testgen"], "sample", lambda fn: self.wrap(
            "datadef.sample", fn, name_of=lambda a: f"datadef.sample.{a[1]}",
        ))
        self._patch(sys.modules["sedan.simplify"], "match", lambda fn: self._wrap_match(fn))
        self._patch(HANDLERS, "test-gen-checkpoint", lambda fn: self.wrap(
            "hints.test_gen_checkpoint", fn, after=_count_probe(counts),
        ))
        self._patch(History, "lift", lambda fn: self.wrap(
            "history.lift", fn,
            after=lambda a, r: counts.update({"history.lift.lifted": r.status == "lifted"}),
        ))
        self._patch(History, "accumulated_type_alist", lambda fn: self.wrap("history.accumulated_type_alist", fn))

    def _wrap_match(self, fn):
        """Span only the top-level match of a rule against a term; match's own
        recursion (which passes sigma) goes straight through."""
        counts = self.counts
        traced = self.wrap(
            "simplify.match", fn,
            after=lambda a, r: counts.update({"simplify.match.hits": r is not None}),
        )

        def match(pattern, term, sigma=None):
            if sigma is not None:
                return fn(pattern, term, sigma)
            return traced(pattern, term)

        return match

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def _count_trials(counts: Counter):
    def after(args, report):
        counts.update({
            "testgen.trials": report.trials_run,
            "testgen.satisfied": report.satisfied,
            "testgen.unique": report.unique_satisfied,
            "testgen.erroring": report.erroring,
        })

    return after


def _count_report_bytes(counts: Counter):
    def after(args, blob):
        if len(args) > 1 and args[1] == "structured":
            counts.update({"reports.structured_bytes": len(blob)})

    return after


def _count_probe(counts: Counter):
    def after(args, outcome):
        processor, children = args[0], args[1]
        if processor == "generalize" and children:
            counts.update({"hints.probes": 1, "hints.redos": outcome.action == "redo"})

    return after


# ---------------------------------------------------------------------------
# turning spans into per-layer figures


def prefixed(stats: dict, prefix: str) -> list[int]:
    """[calls, total_ns, self_ns] summed over every parent and over span names
    equal to or under prefix."""
    acc = [0, 0, 0]
    for (_, name), rec in stats.items():
        if name == prefix or name.startswith(prefix + "."):
            for i in range(3):
                acc[i] += rec[i]
    return acc

"""The benchmark's tracer wraps sedan's functions where other modules import
them (see ``perfbench/tracer.py``). These tests run a traced verdict in
process, so a change that stops calling through one of those sites shows up
here rather than as a lost span or an ``AttributeError`` in a benchmark run."""

import contextlib
import importlib
import io
import os

from sedan import datadef, evaluator, testgen
from sedan.cli import main
from sedan.history import History

from conftest import corpus_path

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_a_traced_triangle_verdict_reaches_the_sample_and_lift_spans(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer")
    lift = History.lift
    t = tracer.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t.call(main, [corpus_path("triangle.lisp"), "--report", str(tmp_path / "report.json"), "--seed", "24"])
    finally:
        t.uninstall()
    assert tracer.prefixed(t.stats, "datadef.sample")[0] > 0
    assert tracer.prefixed(t.stats, "history.lift")[0] > 0
    # trials run in one generated loop that calls evaluate only past the depth
    # cap or the Python stack, so the in_testgen span may read 0; its site
    # must still exist, since the tracer patches it by name
    assert tracer.prefixed(t.stats, "testgen.run_trials")[0] > 0
    assert testgen.evaluate is evaluator.evaluate
    assert testgen.sample is datadef.sample and History.lift is lift


def test_a_traced_backtrack_verdict_reaches_the_probe_alist_and_generalize_spans(tmp_path, monkeypatch):
    # gen-backtrack.lisp's first thm generalizes, the checkpoint handler's
    # probe refutes the child, and the goal re-enters without generalization
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t.call(main, [corpus_path("gen-backtrack.lisp"), "--report", str(tmp_path / "report.json"), "--seed", "24"])
    finally:
        t.uninstall()
    assert tracer.prefixed(t.stats, "hints.test_gen_checkpoint")[0] > 0
    assert t.counts["hints.probes"] >= 1 and t.counts["hints.redos"] >= 1
    assert tracer.prefixed(t.stats, "history.accumulated_type_alist")[0] > 0
    assert tracer.prefixed(t.stats, "waterfall.generalize")[0] > 0

"""Smoke tests of the opt-in tools in ``tools/``, which import sedan but are
not part of it."""

import importlib
import os
import subprocess
import sys

from sedan import evaluator

from conftest import corpus_path

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


def test_show_generated_prints_inequality_s_one_trial_loop(monkeypatch, capsys):
    monkeypatch.syspath_prepend(TOOLS)
    show_generated = importlib.import_module("show_generated")
    compiled = evaluator._maker_code
    assert show_generated.main([corpus_path("inequality.lisp"), "--seed", "24"]) == 1
    captured = capsys.readouterr()
    sources = captured.out.split("# generated source ")[1:]
    # one clause, so one trial loop; the rest are its types' decoders and recognizers
    assert sum("def _f(tuples, memo, capacity," in source for source in sources) == 1
    assert len(sources) > 1
    assert "We falsified the conjecture" in captured.err
    assert evaluator._maker_code is compiled


def test_run_goldens_checks_a_golden_without_pytest():
    # a fresh interpreter, so the runner imports test_golden with its stubs
    # and not the pytest this suite runs under
    run = subprocess.run([sys.executable, os.path.join(TOOLS, "run_goldens.py"), "inequality"],
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[0] == "inequality: ok"
    assert run.stdout.splitlines()[1].startswith("1 of 1 cases byte-identical on Python ")

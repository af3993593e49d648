"""Smoke tests of the opt-in tools in ``tools/``, which import sedan but are
not part of it."""

import glob
import importlib
import os
import subprocess
import sys

import pytest

from sedan import cli, evaluator

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
    # a fresh interpreter, so the runner imports test_golden, test_reader_pins
    # and test_type_pins with its stubs and not the pytest and Hypothesis this
    # suite runs under
    run = subprocess.run([sys.executable, os.path.join(TOOLS, "run_goldens.py"), "inequality"],
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert lines[0] == "inequality: ok (0 collections during the run, 0 unreachable after it)"
    assert lines[1].startswith("1 of 1 cases byte-identical and free of cyclic garbage on Python ")
    assert lines[2] == "reader pins (61 compile_errors, 10 files, 44 inputs): ok"
    assert lines[3] == "type layer pins (2 draws, 25 enumerate, 25 recognize): ok"
    assert len(lines) == 4


def _installed_cpython(minor: str):
    """The newest pyenv-installed CPython of release ``minor`` ("3.12"), or
    None; pyenv keeps them under $PYENV_ROOT (default ~/.pyenv)."""
    root = os.environ.get("PYENV_ROOT", os.path.join(os.path.expanduser("~"), ".pyenv"))
    found = []
    for python in glob.glob(os.path.join(root, "versions", minor + ".*", "bin", "python")):
        patch = os.path.basename(os.path.dirname(os.path.dirname(python)))[len(minor) + 1:]
        if patch.isdigit():
            found.append((int(patch), python))
    return max(found)[1] if found else None


@pytest.mark.parametrize("minor", ["3.10", "3.11", "3.12", "3.13"])
def test_run_goldens_passes_on_each_other_supported_cpython(minor):
    # the golden reports, the reader pins and the type layer pins each depend
    # on the interpreter, so each supported CPython checks them; the one
    # running this suite does so in test_golden and the pin tests
    if minor == "{}.{}".format(*sys.version_info[:2]):
        pytest.skip("the running interpreter checks the goldens in this suite")
    python = _installed_cpython(minor)
    if python is None:
        pytest.skip(f"no CPython {minor} installed")
    import test_golden

    run = subprocess.run([python, os.path.join(TOOLS, "run_goldens.py")], capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    n = len(test_golden.CASES)
    assert len(lines) == n + 3
    assert all(line.endswith(": ok (0 collections during the run, 0 unreachable after it)") for line in lines[:n])
    assert lines[n].startswith(f"{n} of {n} cases byte-identical and free of cyclic garbage on Python {minor}.")
    assert lines[n + 1].endswith("): ok") and lines[n + 2].endswith("): ok")


def test_run_goldens_reports_a_run_that_leaves_cyclic_garbage(monkeypatch, capsys):
    monkeypatch.syspath_prepend(TOOLS)
    run_goldens = importlib.import_module("run_goldens")
    import test_golden

    process_file = cli.process_file

    def leaky(path, settings):
        cycle = []
        cycle.append(cycle)
        return process_file(path, settings)

    monkeypatch.setattr(cli, "process_file", leaky)
    # a fresh run, not the one the golden tests cached
    monkeypatch.setattr(test_golden, "run", test_golden.run.__wrapped__)
    monkeypatch.setattr(run_goldens, "check_reader_pins", lambda: True)
    monkeypatch.setattr(run_goldens, "check_type_pins", lambda: True)
    assert run_goldens.main(["rev"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "rev: leaves cyclic garbage (0 collections during the run, 1 unreachable after it)",
        f"0 of 1 cases byte-identical and free of cyclic garbage on Python {sys.version.split()[0]}",
    ]


def test_run_goldens_reports_a_reader_pin_that_differs(monkeypatch, capsys):
    monkeypatch.syspath_prepend(TOOLS)
    run_goldens = importlib.import_module("run_goldens")
    import test_reader_pins

    pinned = test_reader_pins.load_golden()
    pinned["inputs"]["1/0"] = ["error 1:1 some other message"]
    monkeypatch.setattr(test_reader_pins, "load_golden", lambda: pinned)
    assert not run_goldens.check_reader_pins()
    assert capsys.readouterr().out.endswith("): differ in inputs '1/0'\n")


def test_run_goldens_reports_a_type_layer_pin_that_differs(monkeypatch, capsys):
    monkeypatch.syspath_prepend(TOOLS)
    run_goldens = importlib.import_module("run_goldens")
    import test_type_pins

    pinned = test_type_pins.load_golden()
    pinned["draws"]["geometric"] = pinned["draws"]["geometric"][::-1]
    monkeypatch.setattr(test_type_pins, "load_golden", lambda: pinned)
    assert not run_goldens.check_type_pins()
    assert capsys.readouterr().out == "type layer pins (2 draws, 25 enumerate, 25 recognize): differ in draws 'geometric'\n"

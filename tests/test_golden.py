"""Byte-for-byte goldens for the text and structured reports of the corpus
files and of the fixtures in ``fixtures/``.

Each case in ``CASES`` names an input file and the command-line flags it runs
with; its goldens are ``golden/<case>.txt`` and ``golden/<case>.json``. Each
structured golden is also the text ``json.dumps(doc, indent=2,
sort_keys=True)`` writes for its document, then a newline. A refactor must
leave them untouched. When a change to a report is intended,
rewrite every golden from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and explain the diff in CHANGES.md.

Every case's run also checks that ``sedan`` builds no reference cycle, the
premise of its running with the cyclic collector off: no automatic collection
runs during the run, and ``gc.collect()`` then finds nothing unreachable.
"""

import contextlib
import functools
import gc
import io
import json
import os
import tempfile
import typing

import pytest

from sedan import cli

from conftest import CORPUS_DIR

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
FIXTURE_DIR = os.path.join(HERE, "fixtures")
CORPUS = sorted(n for n in os.listdir(CORPUS_DIR) if n.endswith(".lisp"))
FORMATS = {"structured": ".json", "text": ".txt"}
BACKTRACK_OFF = ("--backtrack", "off")
# the flag sets every input also runs with, so a refactor's "same behaviour"
# is checked beyond the default flags; a later --seed overrides --seed 24
FLAG_MATRIX = {
    "mode-exhaustive": ("--mode", "exhaustive"),
    "mode-mixed": ("--mode", "mixed"),
    "dist-uniform": ("--dist", "uniform"),
    "seed-7": ("--seed", "7"),
}
MATRIX_INPUTS = [*((CORPUS_DIR, name) for name in CORPUS), (FIXTURE_DIR, "backtrack-hints.lisp")]

# golden name -> (directory, input file, flags besides --seed and --format)
CASES = {
    **{name[: -len(".lisp")]: (CORPUS_DIR, name, ()) for name in CORPUS},
    "gen-backtrack.backtrack-off": (CORPUS_DIR, "gen-backtrack.lisp", BACKTRACK_OFF),
    "triangle.backtrack-off": (CORPUS_DIR, "triangle.lisp", BACKTRACK_OFF),
    "backtrack-hints": (FIXTURE_DIR, "backtrack-hints.lisp", ()),
    "backtrack-hints.backtrack-off": (FIXTURE_DIR, "backtrack-hints.lisp", BACKTRACK_OFF),
    "spurious-lift": (FIXTURE_DIR, "spurious-lift.lisp", ()),
    "escapes": (FIXTURE_DIR, "escapes.lisp", ()),
    "gen-kept": (FIXTURE_DIR, "gen-kept.lisp", ()),
    **{
        f"{name[: -len('.lisp')]}.{suffix}": (directory, name, flags)
        for directory, name in MATRIX_INPUTS
        for suffix, flags in FLAG_MATRIX.items()
    },
}


class Run(typing.NamedTuple):
    """One ``sedan`` run of a case."""

    reports: dict[str, bytes]  # what it wrote in each format
    collections: int  # automatic collections that ran during it
    unreachable: int  # objects gc.collect() found unreachable after it


def without_collector(fn, *args):
    """``fn(*args)``'s result, the automatic collections that ran during it
    and the objects ``gc.collect()`` then finds unreachable, counted with the
    collector off, from a heap just collected, and with ``build_parser()``'s
    one-off argparse cycles made beforehand."""
    enabled = gc.isenabled()
    gc.disable()
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    try:
        cli.build_parser()
        gc.collect()
        gc.callbacks.append(count)
        try:
            result = fn(*args)
        finally:
            gc.callbacks.remove(count)
        return result, len(collections), gc.collect()
    finally:
        if enabled:
            gc.enable()


@functools.lru_cache(maxsize=None)
def run(case: str) -> Run:
    """What ``sedan`` writes for a case in each format, from one run: the text
    report on stdout and the structured report in the ``--report`` file. It
    runs from the input's directory so the report's "file" field is the bare
    name."""
    directory, name, flags = CASES[case]
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(out):
                _, collections, unreachable = without_collector(
                    cli.main, [name, "--seed", "24", "--format", "text", "--report", report, *flags])
            out.flush()
        finally:
            os.chdir(cwd)
        with open(report, "rb") as fh:
            return Run({"text": out.buffer.getvalue(), "structured": fh.read()}, collections, unreachable)


def case_id(case: str) -> str:
    """A case's input file and flags, as its tests are named."""
    return " ".join((CASES[case][1], *CASES[case][2]))


def golden_path(case: str, fmt: str) -> str:
    return os.path.join(GOLDEN_DIR, case + FORMATS[fmt])


def test_every_corpus_file_has_goldens():
    assert {name for _, name, flags in CASES.values() if not flags} >= set(CORPUS)
    expected = {os.path.basename(golden_path(case, fmt)) for case in CASES for fmt in FORMATS}
    assert set(os.listdir(GOLDEN_DIR)) == expected


def golden_is_json_dumps_form(case: str) -> bool:
    """Whether the structured golden of a case is what ``json.dumps`` writes
    for its document: the form sedan's own writer must keep."""
    with open(golden_path(case, "structured"), encoding="utf-8") as fh:
        text = fh.read()
    return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_structured_golden_is_in_json_dumps_form(case):
    assert golden_is_json_dumps_form(case)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_report_matches_golden(case, fmt):
    with open(golden_path(case, fmt), "rb") as fh:
        assert run(case).reports[fmt] == fh.read()


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_a_run_makes_no_reference_cycle(case):
    # cli.main keeps the collector off, so a cycle would be garbage until the
    # caller's next collection
    assert (run(case).collections, run(case).unreachable) == (0, 0)


if __name__ == "__main__":
    for case in CASES:
        for fmt in FORMATS:
            with open(golden_path(case, fmt), "wb") as fh:
                fh.write(run(case).reports[fmt])

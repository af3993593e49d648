"""Byte-for-byte goldens for every corpus file's reports at default flags.

A refactor must leave these files untouched. When a change to a report is
intended, regenerate them (see README.md, "Layout") and explain the diff in
CHANGES.md.
"""

import os

import pytest

from sedan.reports import emit_report
from sedan.session import process_file

from conftest import CORPUS_DIR

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
CORPUS = sorted(n for n in os.listdir(CORPUS_DIR) if n.endswith(".lisp"))
FORMATS = {"structured": ".json", "text": ".txt"}


def test_every_corpus_file_has_goldens():
    stems = {n[: -len(".lisp")] for n in CORPUS}
    goldens = {os.path.splitext(n)[0] for n in os.listdir(GOLDEN_DIR)}
    assert stems == goldens


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", CORPUS)
def test_report_matches_golden(name, fmt, monkeypatch):
    # run from the corpus directory so the report's "file" field is the bare name
    monkeypatch.chdir(CORPUS_DIR)
    got = emit_report(process_file(name), fmt)
    with open(os.path.join(GOLDEN_DIR, name[: -len(".lisp")] + FORMATS[fmt]), "rb") as fh:
        assert got == fh.read()

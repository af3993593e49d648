"""Check the golden reports and the reader pins with the standard library alone.

    python tools/run_goldens.py [CASE ...]

Runs each golden case of ``tests/test_golden.py`` (all of them when none is
named) and compares its text and structured reports with the files in
``tests/golden/`` byte for byte, and checks that the structured golden is what
``json.dumps(doc, indent=2, sort_keys=True)`` writes for its document. Each
run is also checked for reference cycles, since ``sedan`` runs with the
cyclic collector off: no automatic collection may run during it, and
``gc.collect()`` must then find nothing unreachable. CPython's collectors
differ between releases, so each needs this check of its own. Then it
reads every source file and input that ``tests/test_reader_pins.py`` pins and
compares the record with ``tests/pinned/reader.json``; the reader's token
pattern takes its whitespace and word classes from the running interpreter's
Unicode tables, so each CPython needs this check of its own. Last it records what ``tests/test_type_pins.py``
pins, each type's values and recognizer verdicts and the index draws of both
distributions, and compares it with ``tests/pinned/type_layer.json``: the
draws come from the running interpreter's ``random`` module. It imports the
test modules with ``pytest``, ``hypothesis`` and the tests' ``conftest``
stubbed out, so it runs on any CPython that sedan supports, with no test
package installed. It prints one line per case, with the counts of
collections and unreachable objects, one for the reader pins and one for the
type layer pins, and exits 1 when anything differs or a run leaves garbage.
"""

from __future__ import annotations

import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


class _Strategy:
    """Stands for any Hypothesis strategy: each call or attribute gives itself."""

    def __call__(self, *args, **kwargs):
        return self

    def __getattr__(self, name):
        return self


def _stub_test_packages():
    """Stand-ins for what the test modules this runs import besides sedan: pytest's ``mark.parametrize`` and Hypothesis's ``given``
    and ``settings`` as decorators that change nothing, inert strategies, and
    conftest's ``CORPUS_DIR``. A module already imported, as under pytest,
    stays."""
    unchanged = lambda *args, **kwargs: lambda fn: fn  # noqa: E731
    pytest = types.ModuleType("pytest")
    pytest.mark = types.SimpleNamespace(parametrize=unchanged)
    hypothesis = types.ModuleType("hypothesis")
    hypothesis.given = hypothesis.settings = unchanged
    hypothesis.strategies = _Strategy()
    conftest = types.ModuleType("conftest")
    conftest.CORPUS_DIR = os.path.join(ROOT, "src", "sedan", "corpus")
    sys.modules.setdefault("pytest", pytest)
    sys.modules.setdefault("hypothesis", hypothesis)
    sys.modules.setdefault("conftest", conftest)


def _compare_pins(name: str, pinned: dict, got: dict) -> bool:
    """Whether the record ``got`` has every entry of every section as
    ``pinned`` has it; prints one line that says so."""
    differing = [
        f"{section} {key!r}" for section in sorted(pinned) for key in sorted(set(pinned[section]) | set(got[section]))
        if got[section].get(key) != pinned[section].get(key)
    ]
    counts = ", ".join(f"{len(pinned[section])} {section}" for section in sorted(pinned))
    print(f"{name} ({counts}): {'differ in ' + '; '.join(differing) if differing else 'ok'}")
    return not differing


def check_reader_pins() -> bool:
    """Whether every record of ``tests/pinned/reader.json`` reads as pinned."""
    import test_reader_pins

    return _compare_pins("reader pins", test_reader_pins.load_golden(), test_reader_pins.record())


def check_type_pins() -> bool:
    """Whether every record of ``tests/pinned/type_layer.json`` is as pinned."""
    import test_type_pins

    return _compare_pins("type layer pins", test_type_pins.load_golden(), test_type_pins.record(test_type_pins.PIN_WORLD))


def main(argv=None) -> int:
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    _stub_test_packages()
    import test_golden

    cases = argv if argv else list(test_golden.CASES)
    unknown = [case for case in cases if case not in test_golden.CASES]
    if unknown:
        print(f"unknown case: {' '.join(unknown)}", file=sys.stderr)
        return 2
    failing = 0
    for case in cases:
        run = test_golden.run(case)
        bad = []
        for fmt in sorted(test_golden.FORMATS):
            with open(test_golden.golden_path(case, fmt), "rb") as fh:
                if run.reports[fmt] != fh.read():
                    bad.append(fmt)
        if not test_golden.golden_is_json_dumps_form(case):
            bad.append("json.dumps form")
        problems = ["differs in " + " and ".join(bad)] if bad else []
        if run.collections or run.unreachable:
            problems.append("leaves cyclic garbage")
        failing += bool(problems)
        print(f"{case}: {'; '.join(problems) or 'ok'} "
              f"({run.collections} collections during the run, {run.unreachable} unreachable after it)")
    print(f"{len(cases) - failing} of {len(cases)} cases byte-identical and free of cyclic garbage on Python {sys.version.split()[0]}")
    pins_ok = [check_reader_pins(), check_type_pins()]
    return 1 if failing or not all(pins_ok) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

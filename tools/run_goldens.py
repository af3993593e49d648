"""Check the golden reports with the standard library alone.

    python tools/run_goldens.py [CASE ...]

Runs each golden case of ``tests/test_golden.py`` (all of them when none is
named) and compares its text and structured reports with the files in
``tests/golden/`` byte for byte. It imports ``test_golden`` with ``pytest``
and the tests' ``conftest`` stubbed out, so it runs on any CPython that sedan
supports, with no test package installed. It prints one line per case and
exits 1 when any report differs.
"""

from __future__ import annotations

import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def _stub_test_packages():
    """Stand-ins for what ``test_golden`` imports besides sedan: pytest's
    ``mark.parametrize`` as a decorator that changes nothing, and conftest's
    ``CORPUS_DIR``. A module already imported, as under pytest, stays."""
    pytest = types.ModuleType("pytest")
    pytest.mark = types.SimpleNamespace(parametrize=lambda *args, **kwargs: lambda fn: fn)
    conftest = types.ModuleType("conftest")
    conftest.CORPUS_DIR = os.path.join(ROOT, "src", "sedan", "corpus")
    sys.modules.setdefault("pytest", pytest)
    sys.modules.setdefault("conftest", conftest)


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
    differing = 0
    for case in cases:
        rendered = test_golden.render(case)
        bad = []
        for fmt in sorted(test_golden.FORMATS):
            with open(test_golden.golden_path(case, fmt), "rb") as fh:
                if rendered[fmt] != fh.read():
                    bad.append(fmt)
        differing += bool(bad)
        print(f"{case}: {'differs in ' + ' and '.join(bad) if bad else 'ok'}")
    print(f"{len(cases) - differing} of {len(cases)} cases byte-identical on Python {sys.version.split()[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

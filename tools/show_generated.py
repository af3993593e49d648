"""Print the Python source that sedan generates for a run, with the standard
library alone.

    PYTHONPATH=src python tools/show_generated.py FILE [sedan flags]

Runs ``sedan FILE [flags]`` in this process with ``evaluator._maker_code``,
which compiles every generated maker function, wrapped, and prints each
distinct source once, in the order it was first made: the terms, defun
bodies, chains and trial loops of ``evaluator`` and the types of ``datadef``.
sedan's own report goes to stderr, so stdout holds only the sources. The exit
code is sedan's.
"""

from __future__ import annotations

import contextlib
import sys

from sedan import cli, evaluator


def generated_sources(argv: list[str]) -> tuple[list[str], int]:
    """The distinct sources a ``sedan`` run with ``argv`` makes, in order,
    and its exit code."""
    sources: dict[str, None] = {}
    compiled = evaluator._maker_code

    def recorded(source: str):
        sources.setdefault(source)
        return compiled(source)

    evaluator._maker_code = recorded
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
    finally:
        evaluator._maker_code = compiled
    return list(sources), code


def main(argv: list[str]) -> int:
    sources, code = generated_sources(argv)
    for n, source in enumerate(sources, 1):
        print(f"# generated source {n} of {len(sources)}")
        print(source)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

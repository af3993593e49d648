"""Command-line front end: run corpus files and emit reports.

Seed precedence: --seed flag, then the SEDAN_SEED environment variable, then
the built-in default of 24. A negative or non-integer ``--seed`` is an
argument error; such a SEDAN_SEED is reported and ignored.

``main`` runs with CPython's cyclic garbage collector off and puts the
caller's setting back on every exit: a run builds no reference cycle, so the
collector would only walk its forms, terms and worlds over and over.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from .reports import emit_report
from .session import process_file
from .world import SETTING_BOUNDS, Settings, describe_bound, within_bound

_DEFAULTS = Settings()


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def _setting(name: str):
    """An argparse type for an integer setting, held to the bound that
    ``Settings`` and ``set-testing`` apply."""
    bound = SETTING_BOUNDS[name]

    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            n = None
        if not within_bound(n, bound):
            raise argparse.ArgumentTypeError(f"expected {describe_bound(bound)}, got {value!r}")
        return n

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing keeps no
    state in it, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="sedan",
        description="Type-aware random testing with a waterfall-style conjecture checker.",
    )
    parser.add_argument("files", nargs="+", help="corpus files to process in order")
    parser.add_argument("--seed", type=_setting("seed"), default=None, help=f"64-bit seed (default {_DEFAULTS.seed}; SEDAN_SEED overrides the default)")
    parser.add_argument("--trials", type=_setting("trials"), default=_DEFAULTS.trials, help="trials per conjecture (default %(default)s)")
    parser.add_argument("--mode", choices=SETTING_BOUNDS["mode"], default=_DEFAULTS.mode)
    parser.add_argument("--dist", choices=SETTING_BOUNDS["dist"], default=_DEFAULTS.dist)
    parser.add_argument("--backtrack", type=_on_off, default=_DEFAULTS.backtrack, metavar="{on,off}",
                        help="install the counterexample-driven backtrack handler (default on)")
    parser.add_argument("--max-rewrite-depth", type=_setting("max_rewrite_depth"), default=_DEFAULTS.max_rewrite_depth,
                        help="backchain depth for rule hypotheses (default %(default)s)")
    parser.add_argument("--deterministic", type=_on_off, default=_DEFAULTS.deterministic, metavar="{on,off}",
                        help="fixed seed for every form; default: fixed for thm, per-form for test?")
    parser.add_argument("--report", default=None, help="write the structured JSON report to this path")
    parser.add_argument("--format", choices=("text", "structured", "both"), default="both")
    return parser


def resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("SEDAN_SEED")
    if env is not None:
        try:
            return _setting("seed")(env)
        except argparse.ArgumentTypeError as e:
            print(f"warning: ignoring SEDAN_SEED={env!r}: {e}", file=sys.stderr)
    return _DEFAULTS.seed


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if enabled:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    settings = Settings(
        trials=args.trials,
        mode=args.mode,
        dist=args.dist,
        seed=resolve_seed(args.seed),
        deterministic=args.deterministic,
        backtrack=args.backtrack,
        max_rewrite_depth=args.max_rewrite_depth,
    )
    # the structured report goes to --report whatever the format, or to
    # stdout when it is the only format; otherwise nothing receives it and it
    # is not rendered. The report file is opened before the first input
    # runs, so a path that cannot be written fails at once.
    structured = args.format == "structured" or args.report
    try:
        report = open(args.report, "wb") if args.report else None
    except OSError as e:
        return _cannot_write(args.report, e)
    exit_code = 0
    structured_chunks = []
    for path in args.files:
        outcome = process_file(path, settings)
        exit_code = max(exit_code, outcome.exit_code)
        if args.format != "structured":
            sys.stdout.write(emit_report(outcome, "text").decode())
        if structured:
            structured_chunks.append(emit_report(outcome, "structured"))
    if report is None:
        if structured:
            sys.stdout.buffer.write(b"".join(structured_chunks))
        return exit_code
    try:
        with report:
            report.write(b"".join(structured_chunks))
    except OSError as e:
        return _cannot_write(args.report, e)
    return exit_code


def _cannot_write(path: str, e: OSError) -> int:
    print(f"error: cannot write report {path}: {e.strerror or e}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

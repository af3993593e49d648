"""Command-line front end: run corpus files and emit reports.

Seed precedence: --seed flag, then the SEDAN_SEED environment variable, then
the built-in default of 24.
"""

from __future__ import annotations

import argparse
import os
import sys

from .reports import emit_report
from .session import process_file
from .world import Settings


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def _count(value: str) -> int:
    """A nonnegative integer, the rule ``set-testing`` applies to its counts."""
    try:
        n = int(value)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedan",
        description="Type-aware random testing with a waterfall-style conjecture checker.",
    )
    parser.add_argument("files", nargs="+", help="corpus files to process in order")
    parser.add_argument("--seed", type=int, default=None, help=f"64-bit seed (default {Settings.seed}; SEDAN_SEED overrides the default)")
    parser.add_argument("--trials", type=_count, default=Settings.trials, help="trials per conjecture (default %(default)s)")
    parser.add_argument("--mode", choices=("random", "exhaustive", "mixed"), default=Settings.mode)
    parser.add_argument("--dist", choices=("geometric", "uniform"), default=Settings.dist)
    parser.add_argument("--backtrack", type=_on_off, default=Settings.backtrack, metavar="{on,off}",
                        help="install the counterexample-driven backtrack handler (default on)")
    parser.add_argument("--max-rewrite-depth", type=_count, default=Settings.max_rewrite_depth,
                        help="backchain depth for rule hypotheses (default %(default)s)")
    parser.add_argument("--deterministic", type=_on_off, default=Settings.deterministic, metavar="{on,off}",
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
            return int(env)
        except ValueError:
            print(f"warning: ignoring non-integer SEDAN_SEED={env!r}", file=sys.stderr)
    return Settings.seed


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    settings = Settings(
        trials=args.trials,
        mode=args.mode,
        dist=args.dist,
        seed=resolve_seed(args.seed),
        deterministic=args.deterministic,
        backtrack=args.backtrack,
        max_rewrite_depth=args.max_rewrite_depth,
    )
    exit_code = 0
    structured_chunks = []
    for path in args.files:
        outcome = process_file(path, settings)
        exit_code = max(exit_code, outcome.exit_code)
        if args.format in ("text", "both"):
            sys.stdout.write(emit_report(outcome, "text").decode())
        if args.format in ("structured", "both"):
            structured_chunks.append(emit_report(outcome, "structured"))
    if structured_chunks:
        blob = b"".join(structured_chunks)
        if args.report:
            with open(args.report, "wb") as fh:
                fh.write(blob)
        elif args.format == "structured":
            sys.stdout.buffer.write(blob)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

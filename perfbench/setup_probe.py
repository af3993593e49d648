"""Time sedan's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR DEFINITIONS_FILE INCLUDE_DIR

Imports sedan from SRC_DIR, builds a World and admits the definition forms,
bracketed by the host-speed reference loop. Prints one JSON line with the raw
seconds and the reference times; exits 1 if any form is not admitted.
"""

import json
import sys
import time

from hostref import host_ref_ms


def main(src_dir: str, definitions: str, include_dir: str) -> int:
    with open(definitions, encoding="utf-8") as fh:
        text = fh.read()
    ref_before = host_ref_ms()
    start = time.perf_counter()
    sys.path.insert(0, src_dir)
    import sedan  # noqa: F401
    from sedan.session import process_source

    outcome, _ = process_source(text, directory=include_dir)
    raw = time.perf_counter() - start
    ref_after = host_ref_ms()
    bad = [fr for fr in outcome.forms if fr.status != "admitted"]
    if outcome.fatal_error or bad or not outcome.forms:
        print(f"set-up failed: {outcome.fatal_error or [fr.error for fr in bad]}", file=sys.stderr)
        return 1
    print(json.dumps({"raw_s": raw, "ref_before_ms": ref_before, "ref_after_ms": ref_after,
                      "forms": len(outcome.forms)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))

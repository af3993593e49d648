"""Benchmark for sedan: time to verdict and trial throughput.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A verdict is one in-process ``sedan.cli.main([FILE, "--report", PATH,
"--seed", N])`` call with stdout sent to a sink: ``sedan FILE`` minus
interpreter start-up, which ``setup_s`` covers. Every verdict's structured
report is judged by the checks in ``workloads.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics. The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries raw seconds, host reference times,
sample counts and report fingerprints. Inputs, reports and traces go to
``.perfbench_out/`` under the repository root.

Everything runs in one process with no extra threads (the reference host
has 2 cores); set-up is timed in fresh interpreters started one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".perfbench_out"
SETUP_INTERPRETERS = 9
SETUP_TIMEOUT_S = 60
# p90 is reported only with at least ten verdicts beyond it; with fewer it
# measures host noise, not sedan.
P90_MIN_VERDICTS = 100

sys.path.insert(0, HERE)

import hostref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# helpers


def quantile(values, q: int, n: int = 10) -> float:
    """The q-th n-quantile (inclusive method); the median for q=1, n=2."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[q - 1]


def code_fingerprint() -> str:
    """sha256 over the program and benchmark sources: what 'same code' means."""
    h = hashlib.sha256()
    patterns = ("src/sedan/*.py", "src/sedan/corpus/*.lisp", "perfbench/*.py")
    for path in sorted(p for pat in patterns for p in glob.glob(pat)):
        h.update(path.encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def check_fingerprints(key: str, hashes: dict[str, str]) -> list[str]:
    """Compare report hashes with earlier runs of the same code and seed."""
    path = os.path.join(OUT, "fingerprints.json")
    try:
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    earlier = store.get(key)
    if earlier is not None:
        return [f"report of {f} differs from an earlier run at this seed"
                for f in sorted(hashes) if earlier.get(f) not in (None, hashes[f])]
    store[key] = hashes
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


# ---------------------------------------------------------------------------
# set-up in fresh interpreters


def measure_setup(plan: workloads.Plan, workdir: str) -> list[dict]:
    defs = os.path.join(workdir, "setup-definitions.lisp")
    with open(defs, "w", encoding="utf-8") as fh:
        fh.write(plan.setup_source)
    cmd = [sys.executable, "-E", "-s", os.path.join(HERE, "setup_probe.py"),
           os.path.join(ROOT, "src"), defs, plan.setup_dir]
    samples = []
    for _ in range(SETUP_INTERPRETERS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# verdicts


class Runner:
    """Runs verdicts through sedan's CLI and judges their reports."""

    def __init__(self, plan: workloads.Plan, seed: int, workdir: str):
        from sedan import cli

        self.cli = cli
        self.plan = plan
        self.seed = str(seed)
        self.workdir = workdir
        self.report_path = os.path.join(workdir, "report.json")
        self.sink = open(os.devnull, "w")
        self.hashes: dict[str, str] = {}
        self.judged: dict[str, tuple[int, int, int]] = {}  # file -> attempted, failed, trials
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def close(self):
        self.sink.close()

    def verdict(self, path: str, tracer_=None) -> float:
        """Run one verdict; return its wall time in seconds."""
        argv = [path, "--report", self.report_path, "--seed", self.seed]
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        with contextlib.redirect_stdout(self.sink):
            start = time.perf_counter()
            try:
                if tracer_ is None:
                    self.cli.main(argv)
                else:
                    tracer_.call(self.cli.main, argv)
            except Exception:  # a crashed verdict counts as failed; the run goes on
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"{path}: {traceback.format_exc(limit=-3)}")
                return time.perf_counter() - start
            elapsed = time.perf_counter() - start
        self._judge(path)
        return elapsed

    def _judge(self, path: str):
        with open(self.report_path, "rb") as fh:
            blob = fh.read()
        digest = hashlib.sha256(blob).hexdigest()
        known = self.hashes.setdefault(path, digest)
        if path not in self.judged:
            report = json.loads(blob)
            attempted, failed, reasons = workloads.judge(report, self.plan.checks[path])
            self.judged[path] = (attempted, failed, workloads.trials_in(report))
            self.problems.extend(f"{path}: {r}" for r in reasons)
        attempted, failed, _ = self.judged[path]
        if known != digest:
            failed = attempted
            self.problems.append(f"{path}: report differs between repetitions at one seed")
        self.attempted += attempted
        self.failed += failed

    def trials(self, path: str) -> int:
        return self.judged[path][2] if path in self.judged else 0

    def timed_pass(self, tracer_=None) -> dict:
        """One pass over the workload's files, bracketed by the host reference."""
        gc.collect()
        ref_before = hostref.host_ref_ms()
        if tracer_ is not None:
            tracer_.install()
        try:
            times = [(path, self.verdict(path, tracer_)) for path in self.plan.files]
        finally:
            if tracer_ is not None:
                tracer_.uninstall()
        ref_after = hostref.host_ref_ms()
        return {"times": times, "ref_before": ref_before, "ref_after": ref_after}


def scaled(p: dict, raw: float) -> float:
    return hostref.scale(raw, p["ref_before"], p["ref_after"])


# ---------------------------------------------------------------------------
# the two kinds of run


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(runner.plan, runner.workdir)
    for path in runner.plan.files:  # warm-up, not timed
        runner.verdict(path)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(runner.timed_pass())
    verdict_ms = [scaled(p, t) * 1000.0 for p in passes for _, t in p["times"]]
    verdict_s = sum(scaled(p, t) for p in passes for _, t in p["times"])
    trials = sum(runner.trials(path) for p in passes for path, _ in p["times"])
    setup_scaled = [hostref.scale(s["raw_s"], s["ref_before_ms"], s["ref_after_ms"]) for s in setup]
    metrics = {
        "verdict_ms.p50": (quantile(verdict_ms, 1, 2), "ms"),
        "trials_per_s": (trials / verdict_s, "1/s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_ms = [t * 1000.0 for p in passes for _, t in p["times"]]
    with open(os.path.join(runner.workdir, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "setup": setup}, fh)
    detail = {
        "verdicts": len(verdict_ms),
        "passes": len(passes),
        "trials": trials,
        "raw": {
            "verdict_ms.p50": quantile(raw_ms, 1, 2),
            "trials_per_s": trials / (sum(raw_ms) / 1000.0),
            "setup_s": statistics.median(s["raw_s"] for s in setup),
        },
        "host_ref_ms": statistics.median(r for p in passes for r in (p["ref_before"], p["ref_after"])),
        "setup_host_ref_ms": statistics.median(
            r for s in setup for r in (s["ref_before_ms"], s["ref_after_ms"])),
        "setup_interpreters": len(setup),
    }
    if len(verdict_ms) >= P90_MIN_VERDICTS:
        detail["verdict_ms.p90"] = {"value": quantile(verdict_ms, 9), "unit": "ms"}
        detail["raw"]["verdict_ms.p90"] = quantile(raw_ms, 9)
    return metrics, detail


def _layer_metrics(stats: dict, counts, verdicts: int) -> dict:
    """Per-layer figures for one traced pass: times in ms, counts as counted."""
    ms = 1e-6

    def span(name):
        return tracer.prefixed(stats, name)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def calls_self(metric, name):
        calls, _, self_ns = span(name)
        out[metric + ".calls"] = (calls, "count")
        out[metric + ".self_ms"] = (self_ns * ms, "ms")

    calls_self("session.process_file", "session.process_file")
    calls_self("forms.parse_forms", "forms.parse_forms")
    out["forms.parse_forms.forms"] = (counts["forms.parse_forms.forms"], "count")
    calls_self("world.World", "world.World")
    calls_self("datadef.register_defdata", "datadef.register_defdata")
    calls_self("datadef.add_subtype_edge", "datadef.add_subtype_edge")
    calls_self("datadef.sample", "datadef.sample")
    for type_name in ("pos", "rational", "triple", "true-list", "nat-list", "tree"):
        calls, _, self_ns = span(f"datadef.sample.{type_name}")
        out[f"datadef.sample.{type_name}.us_per_call"] = (ratio(self_ns, calls) / 1000.0, "us")
    calls_self("datadef.recognize", "datadef.recognize")
    calls_self("evaluator.evaluate", "evaluator.evaluate")
    calls, _, self_ns = span("evaluator.evaluate")
    out["evaluator.evaluate.us_per_call"] = (ratio(self_ns, calls) / 1000.0, "us")
    for site in ("testgen", "history", "simplify", "waterfall"):
        out[f"evaluator.evaluate.in_{site}"] = (span(f"evaluator.evaluate.in_{site}")[2] * ms, "ms")
    calls_self("testgen.run_trials", "testgen.run_trials")
    trials = counts["testgen.trials"]
    out["testgen.trials"] = (trials, "count")
    out["testgen.satisfied_ratio"] = (ratio(counts["testgen.satisfied"], trials), "ratio")
    out["testgen.unique_ratio"] = (ratio(counts["testgen.unique"], counts["testgen.satisfied"]), "ratio")
    out["testgen.erroring"] = (counts["testgen.erroring"], "count")
    calls_self("testgen.extract_restrictions", "testgen.extract_restrictions")
    calls_self("clauses.clausify", "clauses.clausify")
    out["clauses.clausify.clauses_out"] = (counts["clauses.clausify.clauses_out"], "count")
    calls_self("simplify.simplify_clause", "simplify.simplify_clause")
    out["simplify.rule_applications"] = (counts["simplify.rule_applications"], "count")
    calls_self("simplify.match", "simplify.match")
    out["simplify.match.hit_ratio"] = (ratio(counts["simplify.match.hits"], span("simplify.match")[0]), "ratio")
    calls_self("waterfall.run_waterfall", "waterfall.run_waterfall")
    calls_self("waterfall.eliminate_destructors", "waterfall.eliminate_destructors")
    calls_self("waterfall.generalize", "waterfall.generalize")
    out["waterfall.goals"] = (counts["waterfall.goals"], "count")
    out["waterfall.checkpoints"] = (counts["waterfall.checkpoints"], "count")
    calls_self("hints.test_gen_checkpoint", "hints.test_gen_checkpoint")
    out["hints.redo_ratio"] = (ratio(counts["hints.redos"], counts["hints.probes"]), "ratio")
    calls_self("history.lift", "history.lift")
    out["history.lift.lifted_ratio"] = (ratio(counts["history.lift.lifted"], span("history.lift")[0]), "ratio")
    calls_self("history.accumulated_type_alist", "history.accumulated_type_alist")
    out["reports.emit_report.text.self_ms"] = (span("reports.emit_report.text")[2] * ms, "ms")
    out["reports.emit_report.structured.self_ms"] = (span("reports.emit_report.structured")[2] * ms, "ms")
    out["reports.structured_bytes"] = (counts["reports.structured_bytes"], "bytes")
    out["cli.build_parser.self_ms"] = (span("cli.build_parser")[2] * ms, "ms")
    calls, total_ns, self_ns = span(tracer.ROOT)
    out["cli.main.self_ms"] = (self_ns * ms, "ms")
    out["trace.verdicts"] = (verdicts, "count")
    out["trace.coverage"] = (1.0 - ratio(self_ns, total_ns), "ratio")
    return out


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    for path in runner.plan.files:  # warm-up, not timed
        runner.verdict(path)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.timed_pass())
        t = tracer.Tracer()
        p = runner.timed_pass(t)
        p["layers"] = _layer_metrics(t.stats, t.counts, len(p["times"]))
        p["stats"] = t.stats
        traced.append(p)

    first = traced[0]["layers"]
    counts_differ = [
        name for p in traced[1:] for name, (value, unit) in p["layers"].items()
        if unit in ("count", "bytes") and value != first[name][0]
    ]
    if counts_differ:
        runner.problems.append(f"per-layer counts differ between traced passes: {sorted(set(counts_differ))}")
    metrics = {}
    for name, (value, unit) in first.items():
        if unit in ("ms", "us"):
            value = statistics.median(scaled(p, p["layers"][name][0]) for p in traced)
        elif unit == "ratio":
            value = statistics.median(p["layers"][name][0] for p in traced)
        metrics[name] = (value, unit)

    def pass_s(p):
        return sum(scaled(p, t) for _, t in p["times"])

    overhead = statistics.median(pass_s(p) for p in traced) / statistics.median(pass_s(p) for p in untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    detail = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "host_ref_ms": statistics.median(r for p in traced + untraced for r in (p["ref_before"], p["ref_after"])),
        "trace_file": os.path.join(runner.workdir, "trace.json"),
    }
    spans = [{"parent": parent, "name": name, "calls": c, "total_ns": tot, "self_ns": slf}
             for (parent, name), (c, tot, slf) in sorted(traced[0]["stats"].items())]
    with open(detail["trace_file"], "w", encoding="utf-8") as fh:
        json.dump({"first_traced_pass": spans}, fh, indent=1)
    return metrics, detail


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=24)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "sedan", "cli.py")):
        print("perfbench: src/sedan not found under the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sedan

    if os.path.dirname(os.path.abspath(sedan.__file__)) != os.path.join(ROOT, "src", "sedan"):
        print(f"perfbench: imported sedan from {sedan.__file__}, not this checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    plan = workloads.build_plan(args.workload, ROOT, args.seed, workdir)
    plan.files = [os.path.relpath(p, ROOT) for p in plan.files]
    plan.checks = {os.path.relpath(p, ROOT): c for p, c in plan.checks.items()}
    runner = Runner(plan, args.seed, workdir)
    try:
        if args.trace:
            metrics, detail = run_traced(runner, args.seconds)
        else:
            metrics, detail = run_untraced(runner, args.seconds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    key = f"{args.workload}|{args.seed}|{code_fingerprint()}"
    runner.problems.extend(check_fingerprints(key, runner.hashes))
    combined = hashlib.sha256("".join(runner.hashes[f] for f in sorted(runner.hashes)).encode()).hexdigest()
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_frac": {"value": runner.failed / runner.attempted, "unit": "ratio"},
        "report_sha256": combined,
        "problems": runner.problems[:20],
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload inputs and verdict checks for the sedan benchmark.

Every workload is a list of corpus files plus the definitions that
``setup_s`` admits. Generated files are a pure function of the workload seed:
the seed renames, reorders and re-parameterises a fixed set of templates, so
the amount of work per run barely moves from one seed to the next.

The checks here decide whether a verdict is right without asking sedan: they
re-evaluate counterexamples in plain Python or compare against answers the
templates carry.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

CONJECTURE_KINDS = ("test?", "thm")


@dataclass
class Plan:
    """What one pass of a workload runs and how its verdicts are judged."""

    files: list[str]
    setup_source: str  # definition forms admitted by setup_s
    setup_dir: str  # directory that include forms resolve against
    checks: dict[str, Callable[[dict], list[str]]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# plain-Python readers for the report's printed values


def top_level_forms(text: str) -> list[tuple[str, str]]:
    """Split source text into (head symbol, form text) for each top-level form."""
    out = []
    depth = 0
    start = None
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
        elif ch == "#" and text.startswith("#\\", i):
            i += 3
            continue
        elif ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                form = text[start:i + 1]
                out.append((form[1:].split(None, 1)[0].rstrip(")"), form))
        i += 1
    return out


def definitions_of(text: str) -> str:
    """The forms before the first conjecture: what set-up admits."""
    kept = []
    for head, form in top_level_forms(text):
        if head in ("test?", "top-level-test?", "thm"):
            break
        kept.append(form)
    return "\n".join(kept) + "\n"


_BINDING_RE = re.compile(r"\(([^\s().]+) \. ((?:[^()]|\([^()]*\))+)\)")


def parse_binding(text: str) -> dict[str, str]:
    """Map variable names to printed values in a binding like ((x . (1 2)))."""
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ValueError(f"not a binding: {text}")
    return {m.group(1).lower(): m.group(2).strip() for m in _BINDING_RE.finditer(inner[1:-1])}


def parse_rational(text: str) -> Fraction:
    if not re.fullmatch(r"-?\d+(/\d+)?", text):
        raise ValueError(f"not a rational: {text}")
    return Fraction(text)


def parse_int_list(text: str) -> list[int]:
    if not re.fullmatch(r"\((-?\d+)( -?\d+)*\)", text):
        raise ValueError(f"not a list of integers: {text}")
    return [int(x) for x in text[1:-1].split()]


# ---------------------------------------------------------------------------
# checks shared by every workload


def conjecture_forms(report: dict) -> list[dict]:
    return [f for f in report["forms"] if f["kind"] in CONJECTURE_KINDS]


def trials_in(report: dict) -> int:
    """Trials the verdict ran, as its structured report states them."""
    total = 0
    for form in report["forms"]:
        if form["testing"]:
            total += form["testing"]["trials"]
        if form["proof"]:
            total += sum(r["trials"] for r in form["proof"]["checkpoint_reports"].values())
    return total


def _admission_problems(report: dict) -> list[str]:
    problems = []
    if report["fatal_error"] is not None:
        problems.append(f"fatal error: {report['fatal_error']}")
    for form in report["forms"]:
        if form["kind"] not in CONJECTURE_KINDS and form["status"] != "admitted":
            problems.append(f"form {form['index']} ({form['kind']}) not admitted: {form['error']}")
    return problems


def judge(report: dict, check: Callable[[dict], list[str]]) -> tuple[int, int, list[str]]:
    """(conjecture forms attempted, failed, reasons) for one verdict.

    A conjecture form fails if it errored, if the file ended in a fatal
    error, or if the workload's own check rejects its verdict."""
    forms = conjecture_forms(report)
    reasons = _admission_problems(report)
    failed = 0
    for form in forms:
        problems = [f"errored: {form['error']}"] if form["status"] == "error" else check(form)
        if problems or reasons:
            failed += 1
        reasons.extend(f"form {form['index']}: {p}" for p in problems)
    if not forms:
        reasons.append("no conjecture form ran")
    return max(len(forms), 1), failed if forms else 1, reasons


# ---------------------------------------------------------------------------
# triangle and inequality: the corpus files as shipped


def _triangle_falsifies(sides: list[int]) -> bool:
    """Plain-Python reading of the triangle conjecture's negation."""
    if len(sides) != 3 or any(s <= 0 for s in sides):
        return False
    a, b, c = sides
    triangle = c < a + b and a < b + c and b < a + c
    isosceles = a == b or b == c or a == c
    return triangle and c > 256 and c == a * b and isosceles and not (a == b == c)


def check_triangle(form: dict) -> list[str]:
    problems = []
    if form["kind"] == "test?":
        for text in form["testing"]["counterexamples"]:
            if not _triangle_falsifies(parse_int_list(parse_binding(text)["x"])):
                problems.append(f"test? counterexample {text} does not falsify")
        return problems
    proof = form["proof"]
    if form["status"] != "falsified" or not proof["counterexamples"]:
        return [f"thm not falsified (status {form['status']})"]
    for cex in proof["counterexamples"]:
        sides = parse_int_list(parse_binding(cex["top_binding"])["x"])
        if not (sides[1] == 1 and sides[0] == sides[2] and sides[0] > 256):
            problems.append(f"lifted counterexample {cex['top_binding']} is not (a 1 a) with a > 256")
    if proof["spurious_lifts"]:
        problems.append(f"{len(proof['spurious_lifts'])} spurious lifts")
    return problems


def _inequality_falsifies(a: Fraction, b: Fraction, c: Fraction) -> bool:
    hyps = a > 0 and b > 0 and c > 0 and a ** 2 <= b * (c + 1) and b <= 4 * c
    return hyps and not (a - 1) ** 2 < b * c


def check_inequality(form: dict) -> list[str]:
    testing = form["testing"]
    if form["status"] != "falsified" or not testing["counterexamples"]:
        return [f"inequality not falsified (status {form['status']})"]
    problems = []
    for text in testing["counterexamples"]:
        b = parse_binding(text)
        if not _inequality_falsifies(*(parse_rational(b[v]) for v in ("a", "b", "c"))):
            problems.append(f"counterexample {text} does not falsify under Fraction arithmetic")
    return problems


def corpus_plan(root: str, name: str, check) -> Plan:
    path = os.path.join(root, "src", "sedan", "corpus", name + ".lisp")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return Plan([path], definitions_of(text), os.path.dirname(path), {path: check})


# ---------------------------------------------------------------------------
# recursion: recursive defuns over typed inputs, all theorems

RECURSION_TRIALS = 2000

_RECURSION_DEFS = """\
(defun {app} (x y) (if (endp x) y (cons (car x) ({app} (cdr x) y))))
(defun {revacc} (x acc) (if (endp x) acc ({revacc} (cdr x) (cons (car x) acc))))
(defun {rev} (x) ({revacc} x nil))
(defun {len} (x) (if (endp x) 0 (+ 1 ({len} (cdr x)))))
(defun {sum} (x) (if (endp x) 0 (+ (car x) ({sum} (cdr x)))))
(defdata nat-list (listof nat))
(defdata tree (oneof nat (cons tree tree)))
(defun {size} (x) (if (consp x) (+ 1 ({size} (car x)) ({size} (cdr x))) 1))
(defun {mirror} (x) (if (consp x) (cons ({mirror} (cdr x)) ({mirror} (car x))) x))
(defun {leaves} (x) (if (consp x) (+ ({leaves} (car x)) ({leaves} (cdr x))) 1))
"""

_RECURSION_THEOREMS = (
    "(implies (true-listp {x}) (equal ({rev} ({rev} {x})) {x}))",
    "(implies (and (true-listp {x}) (true-listp {y})) (equal ({rev} ({app} {x} {y})) ({app} ({rev} {y}) ({rev} {x}))))",
    "(implies (and (true-listp {x}) (true-listp {y})) (equal ({len} ({app} {x} {y})) (+ ({len} {x}) ({len} {y}))))",
    "(implies (and (nat-listp {x}) (nat-listp {y})) (equal ({sum} ({app} {x} {y})) (+ ({sum} {x}) ({sum} {y}))))",
    "(implies (treep {x}) (equal ({mirror} ({mirror} {x})) {x}))",
    "(implies (treep {x}) (equal ({size} ({mirror} {x})) ({size} {x})))",
    "(implies (treep {x}) (equal ({size} {x}) (- (* 2 ({leaves} {x})) 1)))",
)


def _fresh_names(rng: random.Random, roots) -> dict[str, str]:
    return {root: f"{root}-{rng.randrange(1000)}" for root in roots}


def recursion_files(seed: int) -> tuple[str, list[tuple[str, str]]]:
    """The definitions and one file that includes them and tests every theorem.

    One verdict runs all theorems, so its time sums their different costs."""
    rng = random.Random(seed)
    names = _fresh_names(rng, ("app", "revacc", "rev", "len", "sum", "size", "mirror", "leaves"))
    x, y = rng.sample(["x", "y", "u", "v", "w", "z"], 2)
    theorems = list(_RECURSION_THEOREMS)
    rng.shuffle(theorems)
    lines = ['(include "defs.lisp")', f"(set-testing :trials {RECURSION_TRIALS})"]
    lines += [f"(test? {t.format(x=x, y=y, **names)})" for t in theorems]
    return _RECURSION_DEFS.format(**names), [("recursion", "\n".join(lines) + "\n")]


def check_recursion(form: dict) -> list[str]:
    testing = form["testing"]
    problems = []
    if form["status"] != "admitted" or testing["counterexample_count"]:
        problems.append(f"theorem falsified: {testing['counterexamples']}")
    if testing["erroring"]:
        problems.append(f"{testing['erroring']} erroring trials: {testing['first_error']}")
    if testing["trials"] != RECURSION_TRIALS:
        problems.append(f"ran {testing['trials']} trials, expected {RECURSION_TRIALS}")
    return problems


# ---------------------------------------------------------------------------
# prover-batch: one shared rule library, many one-conjecture files

PROVER_TRIALS = 30
CHAIN_LENGTH = 10
PROVER_COPIES = 5  # instances of each template per pass

_BASE_RULES = """\
(defrule posp-natp (implies (posp x) (natp x)))
(defrule natp-integerp (implies (natp x) (integerp x)))
(defrule integerp-rationalp (implies (integerp x) (rationalp x)))
(defrule car-cons (equal (car (cons x y)) x))
(defrule cdr-cons (equal (cdr (cons x y)) y))
(defrule consp-cons (consp (cons x y)))
(defrule append-nil (equal (append nil x) x))
(defrule append-cons (equal (append (cons a b) c) (cons a (append b c))))
(defrule len-cons (equal (len (cons a b)) (+ 1 (len b))))
"""


def prover_library(rng: random.Random) -> tuple[str, dict]:
    """Two defun chains opened by rewrite rules, plus rules that rarely fire.

    Chain f ends in (+ x cf) and chain g in (+ x cg) with cf != cg, so a goal
    equating two members of one chain is a theorem and one equating members
    of different chains is false for every x."""
    cf, cg = rng.sample(range(1, 9), 2)
    lib = {"cf": cf, "f": f"f{rng.randrange(100)}-", "g": f"g{rng.randrange(100)}-"}
    lines = []
    rules = []
    for chain, const in (("f", cf), ("g", cg)):
        prefix = lib[chain]
        lines.append(f"(defun {prefix}{CHAIN_LENGTH} (x) (+ x {const}))")
        for i in range(CHAIN_LENGTH - 1, -1, -1):
            lines.append(f"(defun {prefix}{i} (x) ({prefix}{i + 1} x))")
            rules.append(f"(defrule {prefix}{i}-open (equal ({prefix}{i} x) ({prefix}{i + 1} x)))")
    # rules about functions the goals never mention: matching cost, no hits
    for i in range(50):
        k = rng.randrange(1, 9)
        lines.append(f"(defun h{i} (x y) (if (consp x) (cons y (cdr x)) (+ y {k})))")
        rules.append(f"(defrule h{i}-cons (equal (h{i} (cons a b) y) (cons y b)))")
    text = "\n".join(lines) + "\n" + _BASE_RULES + "\n".join(rules) + "\n"
    return text, lib


def _goal_templates(rng: random.Random, lib: dict) -> list[tuple[str, str, bool]]:
    """(template name, thm body, known to be a theorem) for one copy.

    Goals always enter the chains at their heads, so a seed changes names
    and constants but not the length of any rewrite."""
    f0, f1, g1 = lib["f"] + "0", lib["f"] + "1", lib["g"] + "1"
    v = rng.choice(["x", "y", "z", "w"])
    c1, c2, c3 = rng.sample(range(0, 40), 3)
    return [
        ("chain-true", f"(equal ({f0} {v}) ({f1} {v}))", True),
        ("chain-false", f"(equal ({f0} {v}) ({g1} {v}))", False),
        ("destructor-true",
         f"(implies (and (consp {v}) (true-listp {v})) (equal (len {v}) (+ 1 (len (cdr {v})))))", True),
        ("destructor-false",
         f"(implies (consp {v}) (equal ({f0} (car {v})) ({g1} (len (cdr {v})))))", False),
        ("disjunct-true",
         f"(implies (or (equal {v} {c1}) (equal {v} {c2}) (equal {v} {c3})) (< 0 ({f0} {v})))", True),
        ("disjunct-false",
         f"(implies (or (equal {v} {c1}) (equal {v} {-(lib['cf'] + c2 + 1)})) (< 0 ({f0} {v})))", False),
        ("generalize-true", f"(<= 0 (+ (len {v}) (len {v}) {c1}))", True),
        ("generalize-false", f"(< 0 (+ (len {v}) (len {v})))", False),
    ]


def prover_batch_files(seed: int) -> tuple[str, list[tuple[str, str, bool]]]:
    """The library text and (file stem, file text, known answer) per goal."""
    rng = random.Random(seed)
    library, lib = prover_library(rng)
    goals = [goal for _ in range(PROVER_COPIES) for goal in _goal_templates(rng, lib)]
    rng.shuffle(goals)
    files = []
    for n, (name, body, truth) in enumerate(goals):
        text = f'(include "lib.lisp")\n(set-testing :trials {PROVER_TRIALS})\n(thm {body})\n'
        files.append((f"{n:02d}-{name}", text, truth))
    return library, files


def prover_check(truth: bool):
    def check(form: dict) -> list[str]:
        falsified = form["status"] == "falsified"
        if truth and falsified:
            return ["theorem falsified"]
        if not truth and not (falsified and form["proof"]["counterexamples"]):
            return [f"false goal not falsified (status {form['status']})"]
        return []

    return check


# ---------------------------------------------------------------------------


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def build_plan(workload: str, root: str, seed: int, outdir: str) -> Plan:
    """Write the workload's inputs under outdir and return its plan."""
    if workload == "triangle":
        return corpus_plan(root, "triangle", check_triangle)
    if workload == "inequality":
        return corpus_plan(root, "inequality", check_inequality)
    os.makedirs(outdir, exist_ok=True)
    if workload == "recursion":
        definitions, files = recursion_files(seed)
        checks = [check_recursion] * len(files)
        library = "defs.lisp"
    elif workload == "prover-batch":
        definitions, goals = prover_batch_files(seed)
        files = [(stem, text) for stem, text, _ in goals]
        checks = [prover_check(truth) for _, _, truth in goals]
        library = "lib.lisp"
    else:
        raise ValueError(f"unknown workload: {workload}")
    _write(os.path.join(outdir, library), definitions)
    plan = Plan([], definitions, outdir)
    for (stem, text), check in zip(files, checks):
        path = os.path.join(outdir, stem + ".lisp")
        _write(path, text)
        plan.files.append(path)
        plan.checks[path] = check
    return plan


WORKLOADS = ("triangle", "inequality", "recursion", "prover-batch")

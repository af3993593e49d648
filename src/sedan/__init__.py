"""sedan: a conjecture checker that pairs type-aware random testing with a
scaled-down waterfall prover. Simplification turns hard-to-test conjectures
into easy ones; checkpoint counterexamples lift back to the original
conjecture; refuted generalizations trigger backtracking.
"""

from .datadef import (
    SingletonRestriction,
    TypeSelection,
    add_subtype_edge,
    enumerate_value,
    minimal_type,
    recognize,
    register_defdata,
    sample,
)
from .evaluator import EvaluationError, evaluate
from .forms import parse_forms
from .reports import emit_report, parse_binding
from .session import SessionOutcome, process_file
from .terms import App, Quote, Term, Var, free_vars
from .testgen import TestReport, extract_restrictions, run_trials, top_level_test
from .values import Char, Cons, Symbol, Value
from .waterfall import ProofResult, run_waterfall
from .world import Settings, World

__all__ = [
    "App", "Char", "Cons", "EvaluationError", "ProofResult", "Quote",
    "SessionOutcome", "Settings", "SingletonRestriction", "Symbol", "Term",
    "TestReport", "TypeSelection", "Value", "Var", "World",
    "add_subtype_edge", "emit_report", "enumerate_value", "evaluate",
    "extract_restrictions", "free_vars", "minimal_type", "parse_binding",
    "parse_forms", "process_file", "recognize", "register_defdata",
    "run_trials", "run_waterfall", "sample", "top_level_test",
]

__version__ = "0.1.0"

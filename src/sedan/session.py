"""Batch sessions: admit a corpus file's forms in order and run its conjectures.

Form processing stops at the first admission error, since later forms depend
on the world. Falsified test?/thm forms are outcomes, not errors; the session
continues past them and they drive the exit code instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .datadef import (
    DatadefError,
    add_subtype_edge,
    compile_type_expr,
    register_defdata,
)
from .forms import (
    DefdataForm,
    DefdataSubtypeForm,
    DefruleForm,
    DefunForm,
    Form,
    IncludeForm,
    SetTestingForm,
    TestForm,
    ThmForm,
    parse_forms,
    print_form,
)
from .rand import derive_seed
from .reader import ParseError
from .testgen import TestConfig, TestReport, top_level_test
from .waterfall import ProofResult, run_waterfall
from .world import AdmissionError, RewriteRule, World


@dataclass
class SessionOptions:
    config: TestConfig = field(default_factory=TestConfig)
    backtrack: bool = True
    max_rewrite_depth: int = 8


@dataclass
class FormResult:
    index: int
    kind: str
    source: str
    status: str  # admitted | proved | failed-with-checkpoints | falsified | error
    error: Optional[str] = None
    testing: Optional[TestReport] = None
    proof: Optional[ProofResult] = None
    seed: Optional[int] = None


@dataclass
class SessionOutcome:
    path: str
    options: SessionOptions
    forms: list[FormResult] = field(default_factory=list)
    fatal_error: Optional[str] = None

    @property
    def exit_code(self) -> int:
        if self.fatal_error is not None:
            return 1
        for fr in self.forms:
            if fr.status in ("error", "falsified"):
                return 1
        return 0


_KIND = {
    DefunForm: "defun",
    DefdataForm: "defdata",
    DefdataSubtypeForm: "defdata-subtype",
    DefruleForm: "defrule",
    ThmForm: "thm",
    TestForm: "test?",
    SetTestingForm: "set-testing",
    IncludeForm: "include",
}


# set-testing keys that name a TestConfig field; the others are World settings
_CONFIG_FIELDS = {f.name for f in fields(TestConfig)}


class _Session:
    def __init__(self, options: SessionOptions):
        self.options = options
        self.world = World()
        self.world.settings.max_rewrite_depth = options.max_rewrite_depth
        self.config = options.config
        self.results: list[FormResult] = []
        self.index = 0
        self.include_stack: list[str] = []

    def load_file(self, path: str):
        real = os.path.realpath(path)
        if real in self.include_stack:
            raise AdmissionError(f"include cycle at {path}")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        self.include_stack.append(real)
        try:
            forms = parse_forms(text)
            for form in forms:
                if not self.process_form(form, os.path.dirname(path)):
                    return False
        finally:
            self.include_stack.pop()
        return True

    def process_form(self, form: Form, directory: str) -> bool:
        """Admit or run one form; False stops the session (admission error)."""
        kind = _KIND[type(form)]
        fr = FormResult(self.index, kind, print_form(form), "admitted")
        self.index += 1
        self.results.append(fr)
        try:
            if isinstance(form, DefunForm):
                self.world.define_function(form.name, form.formals, form.body)
            elif isinstance(form, DefdataForm):
                group = {name for name, _ in form.definitions}
                compiled = [
                    (name, compile_type_expr(sx, group, self.world)) for name, sx in form.definitions
                ]
                register_defdata(self.world, compiled)
            elif isinstance(form, DefdataSubtypeForm):
                add_subtype_edge(self.world, form.t1, form.t2, trust=form.trust)
            elif isinstance(form, DefruleForm):
                self.world.add_rule(RewriteRule(form.name, form.hyps, form.lhs, form.rhs))
            elif isinstance(form, SetTestingForm):
                self._apply_set_testing(form.updates)
            elif isinstance(form, IncludeForm):
                target = os.path.normpath(os.path.join(directory, form.path))
                if not self.load_file(target):
                    return False
            elif isinstance(form, TestForm):
                self._run_test(form, fr)
            elif isinstance(form, ThmForm):
                self._run_thm(form, fr)
        except (AdmissionError, DatadefError, ParseError, OSError, ValueError) as e:
            fr.status = "error"
            fr.error = str(e)
            return False
        return True

    def _apply_set_testing(self, updates: dict):
        for name, value in updates.items():
            if name in _CONFIG_FIELDS:
                self.config = replace(self.config, **{name: value})
            else:
                setattr(self.world.settings, name, value)

    def _seed_for(self, form_index: int, is_thm: bool) -> int:
        deterministic = self.config.deterministic
        if deterministic is None:
            deterministic = is_thm
        return self.config.seed if deterministic else derive_seed(self.config.seed, form_index)

    def _run_test(self, form: TestForm, fr: FormResult):
        self.world.check_term(form.term)
        seed = self._seed_for(fr.index, is_thm=False)
        fr.seed = seed
        report = top_level_test(form.term, self.config, self.world, seed=seed)
        fr.testing = report
        fr.status = "falsified" if report.falsified else "admitted"

    def _run_thm(self, form: ThmForm, fr: FormResult):
        self.world.check_term(form.term)
        seed = self._seed_for(fr.index, is_thm=True)
        fr.seed = seed
        result = run_waterfall(
            form.term, self.world, form.hints, self.config, backtrack=self.options.backtrack, seed=seed
        )
        fr.proof = result
        if result.falsified:
            fr.status = "falsified"
        elif result.status == "proved":
            fr.status = "proved"
        else:
            fr.status = "failed-with-checkpoints"


def process_file(path: str, options: Optional[SessionOptions] = None) -> SessionOutcome:
    """Run one corpus file in a fresh world."""
    options = options or SessionOptions()
    outcome = SessionOutcome(path, options)
    session = _Session(options)
    try:
        session.load_file(path)
    except ParseError as e:
        outcome.fatal_error = f"{path}: {e}"
    except OSError as e:
        outcome.fatal_error = str(e)
    outcome.forms = session.results
    return outcome


def process_source(text: str, options: Optional[SessionOptions] = None, directory: str = ".") -> tuple[SessionOutcome, World]:
    """Run forms from a string; returns the outcome and the populated world."""
    options = options or SessionOptions()
    outcome = SessionOutcome("<string>", options)
    session = _Session(options)
    try:
        for form in parse_forms(text):
            if not session.process_form(form, directory):
                break
    except ParseError as e:
        outcome.fatal_error = str(e)
    outcome.forms = session.results
    return outcome, session.world

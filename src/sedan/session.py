"""Batch sessions: admit a corpus file's forms in order and run its conjectures.

Form processing stops at the first admission error, since later forms depend
on the world. Falsified test?/thm forms are outcomes, not errors; the session
continues past them and they drive the exit code instead. A form that
evaluates runs on a stack sized to its depth cap (``evaluator.on_sized_stack``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from .datadef import (
    DatadefError,
    add_subtype_edge,
    compile_type_expr,
    register_defdata,
)
from .evaluator import on_sized_stack
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
from .testgen import TestReport, top_level_test
from .waterfall import ProofResult, run_waterfall
from .world import AdmissionError, RewriteRule, Settings, World


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
    settings: Settings  # the settings the session started with
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


class _Session:
    def __init__(self, settings: Settings):
        self.world = World(settings=settings)
        self.results: list[FormResult] = []
        self.index = 0
        self.include_stack: list[str] = []

    def run_forms(self, text: str, directory: str) -> bool:
        """Admit or run each form of ``text`` in order; False once one fails."""
        for form in parse_forms(text):
            if isinstance(form, (TestForm, ThmForm, DefdataForm, DefdataSubtypeForm)):
                admitted = on_sized_stack(self.world.settings.depth_cap, self.process_form, form, directory)
            else:
                admitted = self.process_form(form, directory)
            if not admitted:
                return False
        return True

    def load_file(self, path: str) -> bool:
        real = os.path.realpath(path)
        if real in self.include_stack:
            raise AdmissionError(f"include cycle at {path}")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        self.include_stack.append(real)
        try:
            return self.run_forms(text, os.path.dirname(path))
        finally:
            self.include_stack.pop()

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
                self.world.settings = replace(self.world.settings, **form.updates)
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

    def _seed_for(self, form_index: int, is_thm: bool) -> int:
        settings = self.world.settings
        deterministic = is_thm if settings.deterministic is None else settings.deterministic
        return settings.seed if deterministic else derive_seed(settings.seed, form_index)

    def _run_test(self, form: TestForm, fr: FormResult):
        self.world.check_term(form.term)
        fr.seed = self._seed_for(fr.index, is_thm=False)
        report = top_level_test(form.term, self.world, fr.seed)
        fr.testing = report
        fr.status = "falsified" if report.falsified else "admitted"

    def _run_thm(self, form: ThmForm, fr: FormResult):
        self.world.check_term(form.term)
        fr.seed = self._seed_for(fr.index, is_thm=True)
        result = run_waterfall(form.term, self.world, form.hints, fr.seed)
        fr.proof = result
        if result.falsified:
            fr.status = "falsified"
        elif result.status == "proved":
            fr.status = "proved"
        else:
            fr.status = "failed-with-checkpoints"


def process_file(path: str, settings: Settings = Settings()) -> SessionOutcome:
    """Run one corpus file in a fresh world. A file that cannot be read, is
    not UTF-8 or does not parse is the outcome's fatal error."""
    outcome = SessionOutcome(path, settings)
    session = _Session(settings)
    try:
        session.load_file(path)
    except (ParseError, UnicodeDecodeError) as e:
        outcome.fatal_error = f"{path}: {e}"
    except OSError as e:
        outcome.fatal_error = str(e)
    outcome.forms = session.results
    return outcome


def process_source(text: str, settings: Settings = Settings(), directory: str = ".") -> tuple[SessionOutcome, World]:
    """Run forms from a string; returns the outcome and the populated world."""
    outcome = SessionOutcome("<string>", settings)
    session = _Session(settings)
    try:
        session.run_forms(text, directory)
    except ParseError as e:
        outcome.fatal_error = str(e)
    outcome.forms = session.results
    return outcome, session.world

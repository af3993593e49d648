"""Line coverage of sedan's functions, with the standard library alone.

A pytest plugin that is loaded only when named:

    PYTHONPATH=src:tools python -m pytest -p line_coverage

It traces the lines that run in ``src/sedan`` while the suite runs and, at
the end, prints for each module the lines of function bodies that no test
ran. Class bodies and module-level code run on import and are left out. A
line counts as run when the tracer reports it, so a function that Python's
compile step put on one line is run when any of it is. The tracer is installed
with ``threading.settrace`` too, so the lines a thread runs are counted, such
as those of a form a session runs on a stack sized to the depth cap. A stack
overflow drops the tracer of the thread it happens on; a form's thread ends
with the form, and the next one starts traced. Each test starts with the
tracer installed again on the main thread, and the report lists the tests
whose tracer was gone when they finished.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from types import CodeType

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src", "sedan")


def function_lines(code: CodeType, in_function: bool = False) -> set[int]:
    """The lines with bytecode in the bodies of the functions under ``code``:
    a ``def``'s own code and everything nested in it, without the ``def``
    line, which runs where the function is defined."""
    is_def = bool(code.co_flags & inspect.CO_OPTIMIZED) and not code.co_name.startswith("<")
    inside = in_function or is_def
    lines = {line for _, _, line in code.co_lines() if line is not None} if inside else set()
    if is_def:
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= function_lines(const, inside)
    return lines


def _ranges(lines: list[int]) -> str:
    """``3, 7-9, 12`` for the sorted lines 3, 7, 8, 9, 12."""
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _install(tracer):
    """Trace this thread and every thread started from now on (None: stop)."""
    threading.settrace(tracer)
    sys.settrace(tracer)


class LineTracer:
    """The lines run in ``src/sedan`` while the suite runs, and the report."""

    def __init__(self):
        self.run: set[tuple[str, int]] = set()  # (code file name, line)
        self.ours: dict[str, bool] = {}  # code file name -> whether it is in src/sedan
        self.dropped: list[str] = []  # the tests that ended without the tracer

    def call(self, frame, event, arg):
        name = frame.f_code.co_filename
        ours = self.ours.get(name)
        if ours is None:
            ours = self.ours[name] = os.path.realpath(name).startswith(SRC + os.sep)
        return self.line if ours else None

    def line(self, frame, event, arg):
        if event == "line":
            self.run.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line

    def unrun_lines(self) -> dict[str, tuple[int, list[int]]]:
        """For each module: its function-body line count and the lines not run."""
        run_by_path: dict[str, set[int]] = {}
        for name, line in self.run:
            run_by_path.setdefault(os.path.realpath(name), set()).add(line)
        out = {}
        for module in sorted(os.listdir(SRC)):
            if not module.endswith(".py"):
                continue
            path = os.path.join(SRC, module)
            with open(path, encoding="utf-8") as fh:
                lines = function_lines(compile(fh.read(), path, "exec"))
            out[module] = (len(lines), sorted(lines - run_by_path.get(path, set())))
        return out

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        # a test that overflows the stack drops the tracer; put it back
        _install(self.call)

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        try:
            return (yield)
        finally:
            if sys.gettrace() != self.call:
                self.dropped.append(item.nodeid)

    def pytest_terminal_summary(self, terminalreporter):
        _install(None)
        write = terminalreporter.write_line
        terminalreporter.section("function-body lines no test ran")
        total = unrun = 0
        for module, (count, missed) in self.unrun_lines().items():
            total, unrun = total + count, unrun + len(missed)
            write(f"{module}: {len(missed)} of {count}" + (f": {_ranges(missed)}" if missed else ""))
        write(f"total: {unrun} of {total}")
        if self.dropped:
            write(f"{len(self.dropped)} tests lost the tracer to a stack overflow, so lines they ran"
                  " after it are not counted and may be listed above:")
            for nodeid in self.dropped:
                write(f"  {nodeid}")


def pytest_configure(config):
    tracer = LineTracer()
    config.pluginmanager.register(tracer, "line-coverage-tracer")
    _install(tracer.call)

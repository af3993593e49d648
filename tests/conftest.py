import os
import threading

import pytest
from hypothesis import settings

from sedan.forms import compile_term
from sedan.reader import read_sexprs
from sedan.session import process_source
from sedan.world import World

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "sedan", "corpus")

# every property test draws the same examples on every run, at the example
# count its own settings give; `--hypothesis-profile default` draws new ones
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def corpus_path(name: str) -> str:
    return os.path.normpath(os.path.join(CORPUS_DIR, name))


def term(src: str):
    """Compile a single term from source text."""
    sxs = read_sexprs(src)
    assert len(sxs) == 1, src
    return compile_term(sxs[0])


def make_world(src: str = ""):
    """A world populated by admitting the given forms; raises on any error."""
    outcome, world = process_source(src, directory=CORPUS_DIR)
    for fr in outcome.forms:
        assert fr.status != "error", f"form {fr.index} ({fr.source}): {fr.error}"
    assert outcome.fatal_error is None, outcome.fatal_error
    return world


def with_settings(world, **updates):
    """The world, its settings updated as a set-testing form would."""
    world.settings = world.settings.replace(**updates)
    return world


# a test that refuses sedan's threads (by patching ``Thread.start``) still
# starts its own through this
_START = threading.Thread.start


def on_a_plain_thread(run, *args):
    """``run(*args)`` on a thread of its own, with the default stack and
    recursion limit: its result, or its exception raised here. A Python stack
    overflow there drops only that thread's trace function, so a tracing tool
    (``tools/line_coverage.py``) keeps the main thread's."""
    outcome = []

    def plain():
        try:
            outcome.append((True, run(*args)))
        except BaseException as e:
            outcome.append((False, e))

    thread = threading.Thread(target=plain)
    _START(thread)
    thread.join(timeout=300)
    assert not thread.is_alive(), "the thread did not finish"
    returned, result = outcome.pop()
    if returned:
        return result
    raise result


@pytest.fixture
def world():
    return World()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """A test that lets a ``RecursionError`` escape fails at once, named by the
    error, without a traceback: to print one, pytest compares the locals of
    the repeated frames, which under a deep value takes minutes."""
    try:
        return (yield)
    except RecursionError as e:
        message = f"RecursionError escaped the test: {e}"
    # outside the handler, so the failure does not chain the overflow
    pytest.fail(message, pytrace=False)

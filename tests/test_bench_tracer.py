"""The names the traced benchmark run wraps (bench/tracer.py) exist in mbraid.

The tracer replaces library functions and methods by name when ``bench/run.py
--trace 1`` installs it, so a rename or removal in the library would break the
traced run without failing any other test.  The tracer is only loaded here,
never installed.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # compiled from its text, so no bytecode is written under bench/
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


def _module(name):
    return importlib.import_module(f"mbraid.{name}")


def test_every_traced_function_resolves(tracer):
    targets = [t for group in tracer.FUNCTIONS.values() for t in group]
    assert targets
    missing = [t for t in targets if not callable(getattr(_module(t[0]), t[1], None))]
    assert missing == []


def test_every_traced_method_resolves(tracer):
    assert tracer.METHODS
    missing = [t for t in tracer.METHODS.values()
               if not callable(getattr(getattr(_module(t[0]), t[1], None), t[2], None))]
    assert missing == []


def test_the_redex_counter_and_the_check_spans_resolve():
    assert callable(_module("ncalgebra").RewriteSystem.find_redex)
    assert callable(_module("cli").registered_checks)

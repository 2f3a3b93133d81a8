"""Every function and method the benchmark's tracer (``perfbench/tracing.py``)
wraps exists in ``reachmon``, so renaming or removing one fails here and not
only in a traced benchmark run."""

import importlib
import types
from pathlib import Path

import pytest

from reachmon import get_spec

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # executed from its source, so that no bytecode cache is written beside it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(_TRACING.read_text(), str(_TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("modname, attr",
                         [(m, a) for _, m, a, _ in tracing.FUNCTIONS])
def test_function_target_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("modname, cls_name, meth",
                         [(m, c, f) for _, m, c, f, _ in tracing.METHODS])
def test_method_target_exists(modname, cls_name, meth):
    cls = getattr(importlib.import_module(modname), cls_name)
    assert callable(cls.__dict__.get(meth))  # patched on the class itself


@pytest.mark.parametrize("field", tracing.DYNAMICS)
def test_dynamics_target_exists(field):
    assert callable(importlib.import_module("reachmon.benchmarks").get_spec)
    assert callable(getattr(get_spec("ip"), field))

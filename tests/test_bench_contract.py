"""The benchmark tracer wraps functions by name; every name it lists must
still exist in the package, or a traced benchmark run crashes."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import TARGETS  # noqa: E402


@pytest.mark.parametrize("module, name", [(t[0], t[1]) for t in TARGETS])
def test_trace_target_resolves_to_a_callable(module, name):
    mod = importlib.import_module(f"semistab.{module}")
    assert callable(getattr(mod, name, None)), f"semistab.{module}.{name}"

"""The benchmark tracer (perfbench/tracer.py) wraps herglotz callables by
name; a renamed or deleted one breaks every traced run."""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    # run from the source text, so nothing is written next to the tracer
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module.TARGETS


@pytest.mark.parametrize("modname, attr, layer", tracer_targets(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_tracer_target_resolves(modname, attr, layer):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

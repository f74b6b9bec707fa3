"""The benchmark tracer (perfbench/tracer.py) wraps herglotz callables by
name and sizes their spans with herglotz functions; a renamed or deleted one
breaks every traced run."""

import importlib
import types
from pathlib import Path

import pytest

from conftest import build_paper

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_module():
    # run from the source text, so nothing is written next to the tracer
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("modname, attr, layer", tracer_module().TARGETS,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_tracer_target_resolves(modname, attr, layer):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_integration_panels_counts_the_grid_intervals():
    # integrate_z spans are sized by integration_stops, one panel per grid
    # interval of [a, b]
    problem, traj, _, _ = build_paper(100)
    assert tracer_module()._integration_panels((problem, traj), {}) == 100

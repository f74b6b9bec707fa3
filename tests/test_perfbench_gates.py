"""One pass of each benchmark workload (perfbench/workloads.py) passes every
correctness gate: the calls the benchmark makes of the package keep working
and keep their answers."""

import sys
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # run from the source text, so nothing is written next to the module;
    # dataclasses look the module up in sys.modules
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


@pytest.mark.parametrize("name", ["verify", "solve", "sensitivity"])
def test_one_pass_meets_every_gate(workloads, name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name](101, tmp_path)
    ops = workload.ops()
    assert ops
    for i, op in enumerate(ops):
        out = tmp_path / f"op{i}"
        assert op.check(op.run(out), out) is None, op.label

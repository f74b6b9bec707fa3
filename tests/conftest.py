import sys

import numpy as np
import pytest

import herglotz as hg
from herglotz import conditions
from herglotz.bundles import bundle


@pytest.fixture(scope="session")
def paper_bundle():
    return bundle("paper-s4")


def build_paper(n):
    """Delayed reference problem with its piecewise extremal trajectory."""
    cfg = bundle("paper-s4").config()
    problem, traj, group, opts = cfg.build(n_override=n)
    return problem, traj, group, opts


def build_bundle(name, n=None):
    cfg = bundle(name).config()
    return cfg.build(n_override=n)


@pytest.fixture(scope="session")
def paper400():
    problem, traj, group, _ = build_paper(400)
    zpath = hg.integrate_z(problem, traj)
    return problem, traj, group, zpath


def wavy_sampled(problem, amplitude=0.3, freq=2.0):
    """Smooth non-extremal sampled trajectory: linear seed plus a bump that
    vanishes with its second derivative at both pinned ends."""
    g = problem.grid
    traj = hg.seed_trajectory(problem, "linear")
    vals = traj.values.copy()
    tm = g.nodes[g.m + 1: g.n + g.m]
    span = g.b - g.a
    vals[g.m + 1: g.n + g.m] += amplitude * np.sin(
        freq * np.pi * (tm - g.a) / span)
    return hg.SampledTrajectory(g, vals)


@pytest.fixture
def node_table_calls(monkeypatch):
    """List that grows by one per conditions.node_tables call, wherever the
    function was imported."""
    calls = []
    original = conditions.node_tables

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("herglotz") and getattr(module, "node_tables", None) is original:
            monkeypatch.setattr(module, "node_tables", counted)
    return calls


@pytest.fixture
def trajectory_reads(monkeypatch):
    """Called with a trajectory class, returns a list that grows by the
    want_ddx of each later eval_many call on that class."""
    def watch(cls):
        reads = []
        original = cls.eval_many

        def recorded(self, ts, side="right", want_ddx=True):
            reads.append(want_ddx)
            return original(self, ts, side=side, want_ddx=want_ddx)

        monkeypatch.setattr(cls, "eval_many", recorded)
        return reads
    return watch

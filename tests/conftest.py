import sys
from math import isfinite

import numpy as np
import pytest

import herglotz as hg
from herglotz import conditions, expr
from herglotz.bundles import bundle
from herglotz.errors import FixedNode
from herglotz.integrate import Panels, VariationDirection


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


def whole_tree_z(problem, traj):
    """Oracle: z and lambda at the nodes by RK4 stages that bind all six
    names and walk the whole tree of L at every stage."""
    P = Panels(problem, traj)
    k, hs = P.k, P.hs
    b = {}

    def stage(j, zv):
        for name in ("t", "x", "dx", "xtau", "dxtau"):
            b[name] = P.bind[name][j]
        b["z"] = zv
        val, dz = expr.value_and_partial(problem.lagrangian, "z", b)
        return float(val), -float(dz)

    zs, mus = np.empty(k + 1), np.empty(k + 1)
    z = zs[0] = float(problem.gamma)
    mu = mus[0] = 0.0
    for i in range(k):
        h = hs[i]
        z1, m1 = stage(i, z)
        z2, m2 = stage(k + i, z + 0.5 * h * z1)
        z3, m3 = stage(k + i, z + 0.5 * h * z2)
        z4, m4 = stage(2 * k + i, z + h * z3)
        z = z + h * (z1 + 2.0 * z2 + 2.0 * z3 + z4) / 6.0
        mu = mu + h * (m1 + 2.0 * m2 + 2.0 * m3 + m4) / 6.0
        assert isfinite(z) and isfinite(mu)
        zs[i + 1] = z
        mus[i + 1] = mu
    return zs[P.node_pos], np.exp(mus[P.node_pos])


def unit_direction(grid, node_index):
    """Admissible direction with value 1 at one free node (global node
    index); a pinned node raises FixedNode."""
    if not (grid.m < node_index < grid.n + grid.m):
        raise FixedNode(f"node {node_index} is pinned")
    vals = np.zeros(grid.n + 1)
    vals[node_index - grid.m] = 1.0
    return VariationDirection(grid, vals)


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

"""Delay-aware integration: the z-path, the integrating factor, first variation.

The functional value z(b) is produced by integrating

    z'(t) = L(t, x(t), x'(t), x(t-tau), x'(t-tau), z(t)),   z(a) = gamma

with classic 4-stage Runge-Kutta, one step per grid interval of [a, b].
Every trajectory kink is a grid node (trajectory.PiecewiseTrajectory), and
so is its image m nodes on (tau = m h), so no stage straddles a kink of the
integrand. Stage times at step ends use one-sided trajectory limits so the
integrand stays smooth within each step. Along the trajectory only z
changes from stage to stage. Where L is affine in z, L = A + B z (expr.affine;
every shipped bundle is), one array walk over all the samples gives the
columns A and B: log-lambda is then one running sum of -B, bit for bit the
stage walk's up to the last bits of ^ (other than ^2) and the functions,
which numpy's kernels and libm may round apart, and each RK4 step is an
affine map z -> z + p + r z, its p and r the stage formulas on the whole
columns. A scan composes the k maps in ceil(log2 k) whole-array rounds,
in place in preallocated buffers, with no Python loop over the panels; z
then rounds otherwise than a stage loop, and lies within 16 u M of exact
RK4 on the same columns at every stop (u = 2^-53, M the same formulas run
on |A|, |B| and |gamma|). Otherwise each stage binds the sample's t, x, dx,
xtau and dxtau as floats, then z, and walks the whole tree of L; z and
lambda are bit for bit those of that walk. A stage that meets a non-finite
z, or a stop where z or log-lambda is one, raises NonFinite; where the scan
meets a non-finite value, the stage walk runs instead, so the error names
the same t, and a composed map that overflows where z does not (r * 0)
costs only time.

The integrating factor lambda(t) = exp(-int_a^t dL/dz) is accumulated in the
same pass as log-lambda (positivity by construction) and exponentiated once
at every stop (ZPath.stop_lam; the node values are a slice of it); if L does
not depend on z the integrand is exactly zero and lambda is exactly one at
every node.

The first variation zeta(b) of z(b) along an admissible direction eta is the
closed integral

    zeta(b) = (1/lambda(b)) int_a^b lambda(s) [ L_x eta + L_dx eta'
              + L_xtau eta(s-tau) + L_dxtau eta'(s-tau) ] ds

with eta identically zero left of a, evaluated by composite Simpson on the
grid's intervals of [a, b], midpoint sampled. These panels are the RK4
steps, so one sampler serves both: Panels.read reads a trajectory,
one-sided, at the panel ends and midpoints and at their delayed images;
integrate_z runs its RK4 stages on the reads of x and keeps z and
log-lambda at the stops, the panel ends, which the z-path carries on with
the samples. The panel geometry depends on the grid alone, so it is
computed once per grid (PanelPlan, kept on the grid); since tau is m steps,
the delayed samples of panel i are the samples of grid interval i. A
trajectory is read once on the whole grid, with no interval search, each
row a slice of that read: a sampled trajectory or direction at its nodes
and one cubic per interval (SampledTrajectory.read_grid), a piecewise one
by one walk of each piece over its run of nodes and midpoints
(PiecewiseTrajectory.read_grid). The package's one spline adjoint, behind
the solver gradient and the weak form, is the transpose of that read
(Panels.scatter): it folds each delayed sample onto the panel m back and
sums the weights per piece by slices. The first variation's one weight
table (variation_weights) is read by first_variation and scattered by the
gradient.
The first variation, the solver gradient and the invariance defect take
the samples from the z-path, with z and lambda there (ZPath.samples; no
spline): the stop values at the panel ends, and RK4's cubic Hermite dense
output, with its one exp, only at the k midpoints. The Lagrangian partials
are filled in on first use, and each consumer is a short formula over
them. A direction eta is a sampled trajectory with zero history
(trajectory.VariationDirection), so the first variation reads it through
Panels.read too; the one spline through node values (trajectory.CubicSpline)
and the transpose of its build (trajectory.build_adjoint) live in trajectory.
Each array is checked finite once, where it is made: a read of the
trajectory that L walks over where Panels makes it (a non-finite one raises
InvalidBinding, as a lookup of it would), z and lambda at the samples where
ZPath.samples makes them, z and log-lambda at the stops where the
integration makes them. The panel bindings are an expr.CheckedBindings, so
no walk of L over them scans an array again. The affine columns A and B are
the two rows of one array (expr.affine), on which the stage formulas run
at once.
All operations are pure (a fill-in on first use writes the same values
whichever caller comes first); concurrent integrations are safe.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite
from typing import Optional

import numpy as np

from . import expr
from .errors import BadInterval, InvalidTrajectory, NonFinite
from .reportio import csv_text
from .trajectory import (
    Grid,
    HerglotzProblem,
    PiecewiseTrajectory,
    Trajectory,
    Tridiagonal,
    VariationDirection,
    adjoint_band,
    build_adjoint,
)

# the factors p of z^(p-1) wd in the weight of the z^p coefficient, p = 1, 2, 3
_POWER_RANKS = np.array([[1.0], [2.0], [3.0]])
_POWER_RANKS.setflags(write=False)


def integration_stops(problem: HerglotzProblem, traj: Trajectory):
    """The stops of integrate_z, the nodes of [a, b], and the stop index of
    each node; the same for every trajectory on the grid."""
    return problem.grid.main_nodes, np.arange(problem.grid.n + 1)


@dataclass(eq=False)
class ZPath:
    """z and lambda at the nodes of [a, b], z, mu = log lambda and lambda =
    exp(mu) at every integration stop (lam is a slice of stop_lam, the one
    exp of the z-path's mu), and the panel samples of the trajectory they
    were integrated on; affine holds the columns (A, B) of L = A + B z at
    the samples where the z-path composed its affine steps, as the rows of
    one array (expr.affine), else None."""

    grid: Grid
    z: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    panels: Panels = field(repr=False)
    stop_z: np.ndarray = field(repr=False)
    stop_mu: np.ndarray = field(repr=False)
    stop_lam: np.ndarray = field(repr=False)
    affine: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def times(self) -> np.ndarray:
        return self.grid.main_nodes

    @property
    def z_b(self) -> float:
        return float(self.z[-1])

    @property
    def lambda_b(self) -> float:
        return float(self.lam[-1])

    def csv(self) -> str:
        return csv_text(["t", "z", "lambda"], [self.times, self.z, self.lam])

    def samples(self, traj: Trajectory) -> Panels:
        """The panel samples this z-path was integrated on, with z and lambda
        there filled in on first use. traj must be the very trajectory object
        it was integrated along; a z-path is never re-sampled. At the panel
        ends they are the stop values; at a midpoint, u = z and u = mu take
        RK4's cubic Hermite dense output (u_i + u_{i+1})/2 + h/8 (u'_i -
        u'_{i+1}) from z' = L and mu' = -L_z at the one-sided end samples:
        A + B z and B where the z-path holds the affine columns (in the last
        bits they may round otherwise than the tree of L where it is not A +-
        b z itself), else a walk of the tree at the ends. Only the k
        midpoints are computed and exponentiated here.

        z and lambda are checked finite here, where they are made, as the
        reads were where Panels made them, so no walk over the samples scans
        its bindings again. On the affine path that check covers the end
        slopes too: the columns are finite wherever the scan's z and mu are,
        and an A + B z that overflows makes z at the midpoint non-finite. The
        tree walk checks its slopes as well, since an infinite L_z can give
        lambda = exp(-inf) = 0."""
        P = self.panels
        if traj is not P.traj:
            raise InvalidTrajectory("z-path was integrated along a different trajectory")
        if "z" not in P.bind:
            k, zs, mus = P.k, self.stop_z, self.stop_mu
            with np.errstate(over="ignore", invalid="ignore"):
                if self.affine is None:
                    bind = expr.CheckedBindings(
                        (name, np.concatenate([col[:k], col[2 * k:]]))
                        for name, col in P.bind.items())
                    bind["z"] = np.concatenate([zs[:-1], zs[1:]])
                    L, Lz = (np.broadcast_to(np.asarray(v, dtype=float), (2 * k,))
                             for v in expr.value_and_partial(P.lagrangian, "z", bind))
                    (L0, L1), (Lz0, Lz1) = (v.reshape(2, k) for v in (L, Lz))
                    slopes = (L0, L1, Lz0, Lz1)
                else:
                    A, B = self.affine
                    Lz0, Lz1 = B[:k], B[2 * k:]
                    L0, L1 = A[:k] + Lz0 * zs[:-1], A[2 * k:] + Lz1 * zs[1:]
                    slopes = ()
                # mu' = -L_z, and -Lz0 - (-Lz1) is Lz1 - Lz0 to the bit
                h8 = P.hs / 8.0
                z_mid = 0.5 * (zs[:-1] + zs[1:]) + h8 * (L0 - L1)
                lam_mid = np.exp(0.5 * (mus[:-1] + mus[1:]) + h8 * (Lz1 - Lz0))
                lams = self.stop_lam
                z = np.concatenate([zs[:-1], z_mid, zs[1:]])
                lam = np.concatenate([lams[:-1], lam_mid, lams[1:]])
            if not all(np.isfinite(v).all() for v in (*slopes, z, lam)):
                raise NonFinite("z-path is non-finite at a panel sample")
            P.z, P.lam = z, lam
            P.bind["z"] = P.z
        return P


def integrate_z(problem: HerglotzProblem, traj: Trajectory) -> ZPath:
    """Integrate z and log-lambda over [a, b] along the given trajectory."""
    g = problem.grid
    P = Panels(problem, traj)
    coeffs = expr.affine(problem.lagrangian, "z", P.bind)
    path = None if coeffs is None else _affine_stages(P, problem.gamma, coeffs)
    # L not affine in z, or a non-finite value on the way: the stage walk decides
    zs, mus = _stages(problem, P) if path is None else path
    with np.errstate(over="ignore"):
        lams = np.exp(mus)
    lam = lams[P.node_pos]
    if not np.isfinite(lam).all():
        raise NonFinite("integrating factor overflowed")
    return ZPath(grid=g, z=zs[P.node_pos], lam=lam, panels=P, stop_z=zs, stop_mu=mus,
                 stop_lam=lams, affine=None if path is None else coeffs)


def _stages(problem: HerglotzProblem, P: Panels):
    """z and mu = log lambda at every stop, by RK4 stages that walk the whole
    tree of L on the floats of the stage's sample and z. A non-finite z or mu
    raises NonFinite at the first t it reaches."""
    k, hs, ts = P.k, P.hs, P.times
    L = problem.lagrangian
    cols = [(name, P.bind[name].tolist()) for name in ("t", "x", "dx", "xtau", "dxtau")]
    b: dict = {}

    def stage(j, zv):
        if not isfinite(zv):
            raise NonFinite(f"z integration produced a non-finite value at t={ts[j]}")
        for name, col in cols:
            b[name] = col[j]
        b["z"] = zv
        val, dz = expr.value_and_partial(L, "z", b)
        return float(val), -float(dz)

    zs = np.empty(k + 1)
    mus = np.empty(k + 1)
    z = zs[0] = float(problem.gamma)
    mu = mus[0] = 0.0
    # the tangent of abs is a numpy scalar, which warns where a float overflows
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k):
            h = hs[i]
            z1, m1 = stage(i, z)
            z2, m2 = stage(k + i, z + 0.5 * h * z1)
            z3, m3 = stage(k + i, z + 0.5 * h * z2)
            z4, m4 = stage(2 * k + i, z + h * z3)
            z = z + h * (z1 + 2.0 * z2 + 2.0 * z3 + z4) / 6.0
            mu = mu + h * (m1 + 2.0 * m2 + 2.0 * m3 + m4) / 6.0
            if not (isfinite(z) and isfinite(mu)):
                raise NonFinite(
                    f"z integration produced a non-finite value at t={ts[2 * k + i]}")
            zs[i + 1] = z
            mus[i + 1] = mu
    return zs, mus


def _affine_stages(P: Panels, gamma: float, AB: np.ndarray):
    """The same stages for L = A + B z, from the columns A = AB[0] and B =
    AB[1] at the samples, with no tree walk; None if z or mu meets a
    non-finite value. mu' = -B does not depend on z, so its RK4 sums are one
    running sum. Each RK4 step is the affine map z -> z + p_i + r_i z, (p, r)
    the stage formulas run on both rows of AB at once. An inclusive Hillis-Steele
    scan composes them: step j after a map (p, r) is (p_j + p + r_j p,
    r_j + r + r_j r), so ceil(log2 k) whole-array rounds (k log2 k
    multiply-adds) give every stop as gamma + p + r gamma. r stays apart from
    the identity's 1: q = 1 + r would round off the low bits of h B on every
    step alike. The stage sums and the rounds run in place, in three (2, k)
    buffers; every operation keeps its operands and association (x * y and
    x + y are y * x and y + x to the bit), so the bits are those of the same
    formulas written out, temporaries and all."""
    k, hs = P.k, P.hs
    lo, mid, hi = slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k)
    B = AB[1]
    m = -B
    with np.errstate(over="ignore", invalid="ignore"):
        mus = np.cumsum(np.concatenate(
            ([0.0], hs * (m[lo] + 2.0 * m[mid] + 2.0 * m[mid] + m[hi]) / 6.0)))
        # stage j of step i is p_j + r_j z, with (p, r) one stacked row each:
        # s2 = AB_mid + bm (h/2 s1), s3 = AB_mid + bm (h/2 s2),
        # s4 = AB_hi + br (h s3) and pr = h (s1 + 2 s2 + 2 s3 + s4) / 6,
        # the stage in st, the running sum in pr and 2 s3 in tmp
        half = 0.5 * hs
        bm, br = B[mid], B[hi]
        s1, ab_mid = AB[:, lo], AB[:, mid]
        st, pr, tmp = np.empty((3, 2, k))
        np.multiply(half, s1, out=st)
        st *= bm
        st += ab_mid
        np.multiply(2.0, st, out=pr)
        pr += s1
        st *= half
        st *= bm
        st += ab_mid
        np.multiply(2.0, st, out=tmp)
        pr += tmp
        st *= hs
        st *= br
        st += AB[:, hi]
        pr += st
        pr *= hs
        pr /= 6.0
        # after the round of shift s, column i composes steps i - 2s + 1 .. i:
        # pr[:, s:] += pr[:, :-s] + pr[1, s:] pr[:, :-s], the sum in tmp first
        s = 1
        while s < k:
            t = tmp[:, :k - s]
            np.multiply(pr[1, s:], pr[:, :-s], out=t)
            t += pr[:, :-s]
            pr[:, s:] += t
            s *= 2
        # every stop is gamma + p + r gamma
        z0 = float(gamma)
        zs = np.empty(k + 1)
        zs[0] = z0
        pr[1] *= z0
        np.add(z0, pr[0], out=zs[1:])
        zs[1:] += pr[1]
    if np.isfinite(zs).all() and np.isfinite(mus).all():
        return zs, mus
    return None


class Samples:
    """The Lagrangian at a set of trajectory samples: L itself or one of its
    partials, evaluated by name under the bindings on first use and kept on
    the instance. The one place Lagrangian tables are filled; the panel
    samples and the node tables of the condition checks are its two kinds.
    A partial in a variable L does not read is an exact zero table, filled
    with no walk of L."""

    def __init__(self, lagrangian: expr.Expression, bind: dict):
        self.lagrangian = lagrangian
        self.bind = bind
        self._tables: dict = {}

    @cached_property
    def variables(self) -> frozenset:
        """The variables L reads."""
        return expr.variables_in(self.lagrangian)

    def table(self, name: str) -> np.ndarray:
        """L itself (name "L") or its partial in name at the samples,
        contiguous even where the expression is constant, so sums and dot
        products over it round the same way whatever its shape. A table the
        walk made as a whole array is read-only, and is that array itself;
        where L is a bare variable, it is a read-only view of its binding.

        L and its partials in the variables it reads walk the tree and raise
        what the walk raises. Any other partial is zero by structure and is
        not walked: its seed never occurs in the tree, so its walk could
        only have raised what L's own value raises at these samples."""
        if name not in self._tables:
            L, bind = self.lagrangian, self.bind
            if name == "L":
                v = expr.evaluate(L, bind)
            elif name in self.variables:
                v = expr.partial(L, name, bind)
            else:
                v = 0.0
            v = np.asarray(v, dtype=float)
            if v.shape != bind["t"].shape or not v.flags.c_contiguous:
                v = np.ascontiguousarray(np.broadcast_to(v, bind["t"].shape))
            else:
                # an array table is read-only, and a binding (L a bare
                # variable) is handed out as a read-only view of itself
                if any(v is b for b in bind.values()):
                    v = v.view()
                v.flags.writeable = False
            self._tables[name] = v
        return self._tables[name]


class PanelPlan:
    """The Simpson panels of a grid, which every trajectory and direction on
    it shares (panel_plan): panel i is grid interval m + i, from node i of
    [a, b] to node i + 1, sampled at its ends and midpoint, and its delayed
    samples are those of grid interval i, tau = m h back. It holds the node
    positions among the stops, the panel steps hs, the sample times, their
    delayed images, the inside mask and the midpoint offsets into every grid
    interval, history first; filled in on first use, the Simpson weights of
    the samples, the adjoint's transposed slope matrix factored once
    (Tridiagonal), the pieces and offsets of the grid reads and the
    scatter's offset powers. A grid too fine for every midpoint to lie
    strictly inside its interval raises BadInterval. Its arrays are
    read-only. The grid keeps its plan (Grid.plan_slot), and the plan refers
    back to it weakly: a reference each way would keep every grid and its
    plan alive until the cyclic collector runs. A Panels holds the grid.
    """

    def __init__(self, grid: Grid):
        self._grid = weakref.ref(grid)
        nodes, m, n = grid.nodes, grid.m, grid.n
        lo, hi = nodes[:-1], nodes[1:]
        mids = 0.5 * (lo + hi)
        if not np.all((lo < mids) & (mids < hi)):
            raise BadInterval(
                f"grid step h={grid.h} too fine for [{grid.a}, {grid.b}]: "
                "an interval midpoint is not inside its interval")
        self.k = k = n
        times = np.concatenate([lo[m:], mids[m:], hi[m:]])
        delayed = np.concatenate([lo[:n], mids[:n], hi[:n]])
        # delayed images that fall inside [a, b], where the solver's spline
        # adjoint and the group generators act; rights take the left limit, so
        # exactly s - tau = a counts as outside there and a kink at s = a + tau
        # never leaks across its panel boundary
        inside = delayed >= grid.a
        inside[2 * k:] = delayed[2 * k:] > grid.a
        self.offsets = mids - lo
        self.node_pos, self.hs, self.times, self.delayed, self.inside = (
            np.arange(n + 1), hi[m:] - lo[m:], times, delayed, inside)
        for arr in (self.node_pos, self.hs, times, delayed, inside, self.offsets):
            arr.setflags(write=False)

    @property
    def grid(self) -> Grid:
        """The plan's grid, alive while a Panels on it is."""
        return self._grid()

    @cached_property
    def weights(self) -> np.ndarray:
        """The package's one Simpson rule: h/6, 4h/6, h/6 per panel."""
        hs = self.hs
        w = np.concatenate([hs / 6.0, 4.0 * hs / 6.0, hs / 6.0])
        w.setflags(write=False)
        return w

    @cached_property
    def adjoint(self) -> Tridiagonal:
        """The transpose of the grid's [a, b] slope matrix, factored: the
        system of every build_adjoint on the grid."""
        return Tridiagonal(adjoint_band(self.grid.spline_geometry[1][1].band))

    @cached_property
    def grid_read(self) -> tuple:
        """The pieces and offsets of SampledTrajectory.read_grid on the
        plan's grid: every interval at its midpoint, then the last pieces of
        [a, b] and, if tau > 0, of the history at their lengths."""
        m, nodes = self.grid.m, self.grid.nodes
        ends = [len(nodes) - 2] + ([m - 1] if m else [])
        pieces = np.append(np.arange(len(nodes) - 1), ends)
        z = np.append(self.offsets, nodes[np.add(ends, 1)] - nodes[ends])
        for arr in (pieces, z):
            arr.setflags(write=False)
        return pieces, z

    @cached_property
    def grid_times(self) -> np.ndarray:
        """The samples of PiecewiseTrajectory.read_grid on the plan's grid:
        its nodes and interval midpoints in turn, t_0, m_0, .., t_N."""
        nodes = self.grid.nodes
        ts = np.empty(2 * len(nodes) - 1)
        ts[::2] = nodes
        ts[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
        ts.setflags(write=False)
        return ts

    @cached_property
    def powers(self) -> np.ndarray:
        """The offset powers 1, z, z^2 of the k + 1 samples of [a, b] off its
        nodes that Panels.scatter weighs: the midpoints, then b on the last
        piece."""
        nodes = self.grid.main_nodes
        z = np.append(self.offsets[self.grid.m:], nodes[-1] - nodes[-2])
        powers = np.stack([np.ones_like(z), z, z * z])
        powers.setflags(write=False)
        return powers


def panel_plan(grid: Grid) -> PanelPlan:
    """The grid's panel plan, built on first use and kept on the grid
    (Grid.plan_slot) for every trajectory on it."""
    if not grid.plan_slot:
        grid.plan_slot[:] = [PanelPlan(grid)]
    return grid.plan_slot[0]


class Panels(Samples):
    """The Simpson panels of [a, b] sampled once along a trajectory: the one
    sampler behind the RK4 stages of integrate_z, the first variation, the
    solver gradient and the invariance defect. The z-path carries it
    (ZPath.samples), which fills in z and lambda here. The geometry comes
    from the panel plan (plan) of the problem's grid (grid). The reads of the variables L reads
    are checked finite here, once; a non-finite one raises InvalidBinding.

    Sample arrays are ordered panel lefts, then midpoints, then rights (k of
    each). Trajectory reads are one-sided: lefts and midpoints take the right
    limit, rights the left limit, and the delayed images follow the same
    sides.
    """

    def __init__(self, problem: HerglotzProblem, traj: Trajectory):
        self.grid = problem.grid
        plan = self.plan = panel_plan(self.grid)
        self.traj = traj
        self.k, self.hs, self.node_pos = plan.k, plan.hs, plan.node_pos
        self.times, self.delayed, self.inside = plan.times, plan.delayed, plan.inside
        self.x, self.dx, self.xtau, self.dxtau = self.read(traj)
        reads = {"x": self.x, "dx": self.dx, "xtau": self.xtau, "dxtau": self.dxtau}
        super().__init__(problem.lagrangian,
                         expr.CheckedBindings(t=self.times, **reads))
        # the one finiteness check of each read L walks over; the times are
        # finite with the grid
        for name, v in reads.items():
            if name in self.variables:
                expr.check_finite(name, v)

    def read(self, traj: Trajectory):
        """x, x', x(s - tau) and x'(s - tau) of traj at the samples s, with
        the one-sided limits of the class docstring, by one read of the
        whole grid (SampledTrajectory.read_grid at the plan's grid_read,
        PiecewiseTrajectory.read_grid at its grid_times), each row sliced
        out of it: the delayed samples of panel i are those of grid interval
        i, and x and x' at a right end on a kink are read from the left. A
        trajectory on a grid other than the problem's (by ==) raises
        InvalidTrajectory."""
        plan, k = self.plan, self.k
        if traj.grid != self.grid:
            raise InvalidTrajectory("trajectory is on a grid other than the problem's")
        if isinstance(traj, PiecewiseTrajectory):
            node, mid, left = traj.read_grid(plan.grid_times)
        else:
            node, mid, left = traj.read_grid(*plan.grid_read)
        out = np.empty((4, 3 * k))
        # x and x' from interval m on, x(s - tau) and x'(s - tau) from 0
        for r, i in ((0, self.grid.m), (2, 0)):
            rows = slice(r, r + 2)
            out[rows, :k], out[rows, k:2 * k], out[rows, 2 * k:] = (
                node[:, i:i + k], mid[:, i:i + k], node[:, i + 1:i + k + 1])
            # a kink, node j, is the right end of panel j - 1 - i
            for j, x, dx in left:
                if 0 <= j - 1 - i < k:
                    out[r, 2 * k + j - 1 - i], out[r + 1, 2 * k + j - 1 - i] = x, dx
        return list(out)

    def scatter(self, w: np.ndarray) -> np.ndarray:
        """Node weights g on [a, b] with g . y = sum(w[0] x + w[1] x' + w[2]
        x(s - tau) + w[3] x'(s - tau)) over the samples s, the reads of a
        sampled trajectory on the plan's grid with node values y on [a, b]
        (delayed reads left of a leave y alone): the transpose of read, the
        package's one spline adjoint, behind the gradient and the weak form.
        A panel's delayed samples are those of the panel m back, so the
        delayed weights first fold onto them, by one slice-add over lefts,
        midpoints and rights. Then, per piece of the [a, b] spline, a node
        sample adds its weights to the constant and the linear coefficient,
        and the midpoints and b add theirs at the plan's offset powers."""
        plan, k = self.plan, self.k
        m, powers = self.grid.m, plan.powers
        # x and x' at the lefts, midpoints and rights, with the delayed
        # samples of panel i >= m folded onto panel i - m
        v = w[:2].reshape(2, 3, k).copy()
        v[:, :, :k - m] += w[2:].reshape(2, 3, k)[:, :, m:]
        lefts, mids, rights = v[:, 0], v[:, 1], v[:, 2]
        # the coefficient weights of the midpoints and b, by power of z:
        # wv, z wv + wd, z (z wv + 2 wd), z z (z wv + 3 wd)
        wv, wd = np.concatenate([mids, rights[:, -1:]], axis=1)
        gc = np.empty((4, k + 1))
        gc[0] = wv
        np.multiply(powers, powers[1] * wv + _POWER_RANKS * wd, out=gc[1:])
        gc[:, -2] += gc[:, -1]
        gc = gc[:, :k]
        gc[:2] += lefts
        gc[:2, 1:] += rights[:, :-1]
        return build_adjoint(self.grid.spline_geometry[1][0], plan.adjoint, gc)

    def simpson(self, f: np.ndarray) -> np.ndarray:
        """Composite Simpson integral of sampled f over each panel (weights)."""
        return (self.plan.weights * f).reshape(3, self.k).sum(axis=0)


def variation_weights(zpath: ZPath, traj: Trajectory) -> tuple:
    """The z-path's panel samples P along traj, and w, Simpson weight times
    lambda times L_x, L_dx, L_xtau and L_dxtau, a row each (+0.0 for a
    partial L does not read): the first variation along eta is sum(w *
    P.read(eta)) / lambda(b). A lambda(b) that underflows raises NonFinite."""
    P = zpath.samples(traj)
    if zpath.lambda_b == 0.0:
        raise NonFinite("integrating factor lambda(b) underflowed to 0")
    wl = P.plan.weights * P.lam
    w = np.zeros((4, len(wl)))
    for row, name in zip(w, ("x", "dx", "xtau", "dxtau")):
        if name in P.variables:
            np.multiply(wl, P.table(name), out=row)
    return P, w


def first_variation(problem: HerglotzProblem, traj: Trajectory, zpath: ZPath,
                    eta: VariationDirection) -> float:
    """Directional derivative zeta(b) of z(b) along the admissible direction,
    variation_weights contracted with eta's panel reads: its zero history and
    the left limits at the panel rights keep the delayed terms zero left of a."""
    P, w = variation_weights(zpath, traj)
    total = float(np.sum(w * P.read(eta)))
    if not isfinite(total):
        raise NonFinite("first variation is non-finite")
    return total / zpath.lambda_b

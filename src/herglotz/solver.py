"""Direct transcription: free node values, objective z(b), exact gradient.

The decision variables are the node values strictly between a and b; the
history segment is pinned by the initial function and x(b) by the endpoint
condition. The gradient of z(b) with respect to node j is the first variation
along that node's unit direction, which by linearity of spline interpolation
is exactly the direction the trajectory moves when the node is perturbed, so
the analytic gradient and the central-difference oracle agree to quadrature
precision.

The descent loop is L-BFGS (memory 10) with Armijo backtracking; accepted
steps decrease the working objective strictly, a trial point whose
integration overflows or leaves the real domain is a rejected step, and
maximize problems run on the negated objective. The gradient is the adjoint
of the natural spline through the node values (integrate.Panels.scatter,
the transpose of the read, then trajectory.build_adjoint, the transpose of
the build of trajectory.CubicSpline) applied to the first variation's
weight table (integrate.variation_weights): each delayed weight folded onto
the panel m back, summed per spline piece by slices (the panels are the
grid's intervals), plus one solve with the plan's transposed slope
matrix, factored once per grid, O(n) per call.

The two-loop recursion is seeded with an H1 (Sobolev) metric weighted by
the integrating factor, H0 = gamma K_W^-1 (Neuberger, Sobolev Gradients and
Differential Equations, LNM 1670; Nocedal & Wright, Numerical Optimization,
sec. 7.2): K_W is a stiffness on the free nodes whose weights follow lambda
where x' enters z(b), read once per solve off the seed's z-path and factored
then (_h1_band).
The Hessian of z(b) in the node values scales like K_W, so the iteration
count does not grow with n and L-BFGS need not learn how lambda weighs the
nodes; with lambda = 1 and L reading dx, K_W = tridiag(-1, 2, -1)/h. Before
the first curvature pair the direction is -K_W^-1 g scaled to inf-norm at
most 1, so a unit first step is bounded whatever the scale of z. Each
stored (s, y) pair carries its y's (1/rho of Nocedal & Wright, Algorithm
7.4), formed once for the pair test and reused by both loops and the gamma
scaling. The stop test is the raw gradient inf-norm against grad_tol.

A trial is built from the seed by SampledTrajectory._with_values: it reuses
the seed's history columns and the grid's factored slope matrices
(Grid.spline_geometry), so a trial builds only what depends on its node
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from numbers import Real
from typing import Optional, Sequence, Union

import numpy as np

from . import expr
from .errors import BadInterval, DomainError, InvalidTrajectory, NonFinite
from .integrate import ZPath, integrate_z, variation_weights
from .trajectory import (
    HerglotzProblem,
    SampledTrajectory,
    Tridiagonal,
    perturb,
    seed_trajectory,
)

_LBFGS_MEMORY = 10
_MAX_BACKTRACKS = 60
_ARMIJO_C = 1e-4
_SHRINK = 0.5
_INITIAL_STEP = 1.0
_WEIGHT_FLOOR = 1e-3  # least H1 metric node weight, met where x' leaves z(b) alone


@dataclass(frozen=True)
class SolveOptions:
    """Descent controls, the keys a config's solver section accepts (any
    other exits 2): max_iters (an integer >= 0, default 1000), grad_tol (stop
    at this gradient inf-norm, a finite real > 0, default 1e-6) and
    seed_guess ("linear" between delta(a) and beta, "zero" or node values);
    a bool or other bad value raises BadInterval. The line search is fixed:
    _ARMIJO_C, _SHRINK, _INITIAL_STEP."""

    max_iters: int = 1000
    grad_tol: float = 1e-6
    seed_guess: Union[str, Sequence[float]] = "linear"

    def __post_init__(self):
        m = self.max_iters
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
            raise BadInterval(f"need an integer max_iters >= 0, got {m!r}")
        g = self.grad_tol
        if isinstance(g, bool) or not isinstance(g, Real) or not 0 < g < np.inf:
            raise BadInterval(f"need a finite real grad_tol > 0, got {g!r}")


@dataclass
class SolveResult:
    """stop_reason: "converged", "max_iters" or "line_search_failed" (no
    backtracking trial along the search direction met the Armijo test).
    zpath is z and lambda along the final trajectory."""

    trajectory: SampledTrajectory
    z_b: float
    iterations: int
    final_grad_norm: float
    stop_reason: str
    objective_history: list = field(repr=False)
    zpath: ZPath = field(repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def summary(self) -> dict:
        return {
            "z_b": self.z_b,
            "iterations": self.iterations,
            "final_grad_norm": self.final_grad_norm,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "objective_history": list(self.objective_history),
        }


def variational_gradient(problem: HerglotzProblem, traj: SampledTrajectory,
                         zpath: ZPath) -> np.ndarray:
    """d z(b) / d x_j for every free node j (indices m+1 .. n+m-1), computed
    in one quadrature pass from the first-variation integral; the sign is
    flipped for maximize problems so descent always means improvement.

    The weight table of the first variation (integrate.variation_weights,
    which first_variation contracts with a direction's reads) is pulled back
    onto the nodes through the spline adjoint (Panels.scatter), so all unit
    directions are paired at once in O(n).

    The solver drives sampled trajectories, but a piecewise one is accepted
    too. The entries are the first variations along the unit node
    directions of the grid. zpath must come from integrate_z along this
    very trajectory object, whose samples it carries, on a grid equal (==)
    to the problem's, else InvalidTrajectory. A lambda(b) that underflows to
    0 raises NonFinite."""
    P, w = variation_weights(zpath, traj)
    if problem.grid != P.grid:
        raise InvalidTrajectory("z-path was integrated on a different grid")
    g = P.scatter(w)[1:-1]
    g /= zpath.lambda_b
    if problem.sense == "maximize":
        g = -g
    return g


def fd_gradient(problem: HerglotzProblem, traj: SampledTrajectory,
                eps: float = 1e-5) -> np.ndarray:
    """Central-difference oracle: perturb each free node by +-eps, re-spline,
    re-integrate. O(number of free nodes) integrations; same sign convention
    as variational_gradient."""
    g = np.empty(problem.grid.n - 1)
    for col, j in enumerate(problem.grid.free_indices):
        zp = integrate_z(problem, perturb(traj, j, +eps)).z_b
        zm = integrate_z(problem, perturb(traj, j, -eps)).z_b
        g[col] = (zp - zm) / (2.0 * eps)
    if problem.sense == "maximize":
        g = -g
    return g


def _h1_band(problem: HerglotzProblem, zpath: ZPath) -> np.ndarray:
    """The lambda-weighted stiffness K_W on the free nodes, with Dirichlet
    ends (a, b and the history are pinned), in Tridiagonal's band layout:
    factored once per solve (Tridiagonal), applying K_W^-1 is one gttrs
    solve, O(n).

    The node weights W are the leading coefficient of the delayed
    Euler-Lagrange operator for an L quadratic in x': lambda(s) if L reads
    dx, plus lambda(s + tau) on the nodes s <= b - tau if L reads dxtau (x'
    on (b - tau, b) does not enter z(b) through dxtau), taken from zpath,
    normalised by their maximum and floored at _WEIGHT_FLOOR; W = 1 if L
    reads neither. Interval j between main nodes j and j + 1 weighs
    w_j = (W_j + W_{j+1})/2, and K_W = sum_j w_j (e_j - e_{j+1})(e_j -
    e_{j+1})^T / h. With lambda = 1 and L reading dx, w = 1 and K_W is
    tridiag(-1, 2, -1)/h to the bit."""
    g = problem.grid
    reads = expr.variables_in(problem.lagrangian)
    lam = zpath.lam
    W = np.zeros(g.n + 1)
    if "dx" in reads:
        W += lam
    if "dxtau" in reads:
        W[:g.n + 1 - g.m] += lam[g.m:]
    W = np.maximum(W / W.max(), _WEIGHT_FLOOR) if W.any() else np.ones_like(W)
    w = 0.5 * (W[:-1] + W[1:])
    band = np.empty((3, g.n - 1))
    band[0] = -w[:-1] / g.h
    band[1] = (w[:-1] + w[1:]) / g.h
    band[2] = -w[1:] / g.h
    return band


def _two_loop(grad, pairs, kinv):
    """H grad for the L-BFGS inverse Hessian H built from the (s, y, y's)
    pairs on top of H0 = gamma K_W^-1 (kinv), gamma = s'y / y'K_W^-1 y of
    the newest pair. With no pairs it is K_W^-1 grad, shrunk to inf-norm at
    most 1. Each pair carries its y's = 1/rho (Nocedal & Wright, Algorithm
    7.4), formed once when the pair is stored; s'y is the same dot product."""
    q = grad.copy()
    alphas = []
    for s, y, ys in reversed(pairs):
        a = (s @ q) / ys
        alphas.append(a)
        q -= a * y
    q = kinv(q)
    if pairs:
        _, y, ys = pairs[-1]
        q *= ys / (y @ kinv(y))
    else:
        q /= max(1.0, float(np.max(np.abs(q))))
    for (s, y, ys), a in zip(pairs, reversed(alphas)):
        b = (y @ q) / ys
        q += (a - b) * s
    return q


def solve_direct(problem: HerglotzProblem, opts: Optional[SolveOptions] = None) -> SolveResult:
    """Extremize z(b) over the free node values.

    Each iteration re-splines the trajectory, re-integrates z and lambda,
    takes an L-BFGS step with Armijo backtracking, and records the achieved
    functional value. Terminates on the gradient tolerance, the iteration
    cap or a failed line search; stop_reason reports which.
    """
    opts = opts or SolveOptions()
    base = seed_trajectory(problem, opts.seed_guess)
    g = problem.grid
    free = np.fromiter(g.free_indices, dtype=int)
    sign = -1.0 if problem.sense == "maximize" else 1.0

    def build(xfree: np.ndarray) -> SampledTrajectory:
        values = base.values.copy()
        values[free] = xfree
        return base._with_values(values)

    def objective(xfree: np.ndarray):
        traj = build(xfree)
        zpath = integrate_z(problem, traj)
        return sign * zpath.z_b, traj, zpath

    x = base.values[free].copy()
    try:
        f, traj, zpath = objective(x)
    except NonFinite as e:
        raise NonFinite(f"objective failed at iteration 0: {e}") from e
    kinv = Tridiagonal(_h1_band(problem, zpath)).solve
    grad = variational_gradient(problem, traj, zpath)
    history = [sign * f]
    pairs: list = []
    iterations = 0
    stop_reason = "max_iters"
    for it in range(1, opts.max_iters + 1):
        gnorm = float(np.max(np.abs(grad))) if len(grad) else 0.0
        if gnorm <= opts.grad_tol:
            stop_reason = "converged"
            break
        d = -_two_loop(grad, pairs, kinv)
        dg = float(d @ grad)
        if dg >= 0.0:  # round-off cost the pairs their descent: step without them
            d = -_two_loop(grad, [], kinv)
            dg = float(d @ grad)
        step = _INITIAL_STEP
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            trial = x + step * d
            # overflow or a trip outside the real domain, in z(b) or in the
            # gradient of a trial that passes, rejects the trial
            try:
                f_new, traj_new, zpath_new = objective(trial)
                # f_new < f: an Armijo term that rounds away must not pass an unchanged f
                if f_new < f and f_new <= f + _ARMIJO_C * step * dg:
                    accepted = (trial, f_new, traj_new, zpath_new,
                                variational_gradient(problem, traj_new, zpath_new))
                    break
            except (NonFinite, DomainError):
                pass
            step *= _SHRINK
        if accepted is None:
            stop_reason = "line_search_failed"
            break
        x_new, f_new, traj, zpath, grad_new = accepted
        s = x_new - x
        y = grad_new - grad
        ys = y @ s
        # sqrt(v @ v) is np.linalg.norm(v) for a 1-D float array, bit for bit
        if ys > 1e-12 * sqrt(y @ y) * sqrt(s @ s):
            pairs.append((s, y, ys))
            if len(pairs) > _LBFGS_MEMORY:
                pairs.pop(0)
        x, f, grad = x_new, f_new, grad_new
        iterations = it
        history.append(sign * f)
    final_gnorm = float(np.max(np.abs(grad))) if len(grad) else 0.0
    if stop_reason == "max_iters" and final_gnorm <= opts.grad_tol:
        stop_reason = "converged"
    return SolveResult(trajectory=traj, z_b=sign * f, iterations=iterations,
                       final_grad_norm=final_gnorm, stop_reason=stop_reason,
                       objective_history=history, zpath=zpath)

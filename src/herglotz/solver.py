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
of the natural spline through the node values (trajectory.located_adjoint,
the transpose of the build and read of trajectory.CubicSpline): a scatter of
the Simpson-weighted partials at the samples the grid's panel plan located
once, plus one tridiagonal solve with the plan's band, O(n) per call.

The two-loop recursion is seeded with the H1 (Sobolev) metric:
H0 = gamma K^-1 with K = tridiag(-1, 2, -1)/h on the free nodes
(Neuberger, Sobolev Gradients and Differential Equations, LNM 1670; Nocedal &
Wright, Numerical Optimization, sec. 7.2). The Hessian of z(b) in the node
values scales like K, so the iteration count does not grow with n. Before the
first curvature pair the direction is -K^-1 g scaled to inf-norm at most 1,
so a unit first step is bounded whatever the scale of z. The stop test is the
raw gradient inf-norm against grad_tol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BadInterval, DomainError, InvalidTrajectory, NonFinite
from .integrate import ZPath, integrate_z
from .trajectory import (
    HerglotzProblem,
    SampledTrajectory,
    located_adjoint,
    perturb,
    seed_trajectory,
    solve_tridiagonal,
)

_LBFGS_MEMORY = 10
_MAX_BACKTRACKS = 60
_ARMIJO_C = 1e-4
_SHRINK = 0.5
_INITIAL_STEP = 1.0


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

    The Simpson-weighted partials at the panel samples and at their delayed
    images inside [a, b] are pulled back onto the nodes through the spline
    adjoint, so all unit directions are paired at once in O(n).

    The solver drives sampled trajectories, but any trajectory backend is
    accepted: the entries are then the first variations along the unit node
    directions of the grid. zpath must come from integrate_z along this very
    trajectory object, whose samples it carries, on a grid equal to the
    problem's (equal grids have the same nodes, so the samples' location on
    them holds)."""
    P = zpath.samples(traj)
    plan = P.plan
    if problem.grid != plan.grid:
        raise InvalidTrajectory("z-path was integrated on a different grid")
    k, hs = P.k, P.hs
    w = np.empty(3 * k)
    w[:k] = hs / 6.0
    w[k:2 * k] = 4.0 * hs / 6.0
    w[2 * k:] = hs / 6.0
    c0, c1, c2, c3 = (w * P.lam * P.table(name)
                      for name in ("x", "dx", "xtau", "dxtau"))
    inside = P.inside
    g = located_adjoint(plan.grid.main_nodes, plan.main, plan.band,
                        np.concatenate([c0, c2[inside]]),
                        np.concatenate([c1, c3[inside]]))[1:-1]
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


def _h1_inverse(count: int, h: float):
    """v -> K^-1 v for K = tridiag(-1, 2, -1)/h on the free nodes, with
    Dirichlet ends (a, b and the history are pinned): one tridiagonal solve,
    O(n)."""
    band = np.empty((3, count))
    band[0] = band[2] = -1.0 / h
    band[1] = 2.0 / h
    return lambda v: solve_tridiagonal(band, v)


def _two_loop(grad, s_list, y_list, kinv):
    """H grad for the L-BFGS inverse Hessian H built from the (s, y) pairs on
    top of H0 = gamma K^-1, gamma = s'y / y'K^-1 y of the newest pair. With no
    pairs it is K^-1 grad, shrunk to inf-norm at most 1."""
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(s_list), reversed(y_list)):
        a = (s @ q) / (y @ s)
        alphas.append(a)
        q -= a * y
    q = kinv(q)
    if s_list:
        y = y_list[-1]
        q *= (s_list[-1] @ y) / (y @ kinv(y))
    else:
        q /= max(1.0, float(np.max(np.abs(q))))
    for (s, y), a in zip(zip(s_list, y_list), reversed(alphas)):
        b = (y @ q) / (y @ s)
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
    kinv = _h1_inverse(len(free), g.h)

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
    grad = variational_gradient(problem, traj, zpath)
    history = [sign * f]
    s_list: list = []
    y_list: list = []
    iterations = 0
    stop_reason = "max_iters"
    for it in range(1, opts.max_iters + 1):
        gnorm = float(np.max(np.abs(grad))) if len(grad) else 0.0
        if gnorm <= opts.grad_tol:
            stop_reason = "converged"
            break
        d = -_two_loop(grad, s_list, y_list, kinv)
        dg = float(d @ grad)
        if dg >= 0.0:  # round-off cost the pairs their descent: step without them
            d = -_two_loop(grad, [], [], kinv)
            dg = float(d @ grad)
        step = _INITIAL_STEP
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            trial = x + step * d
            try:
                f_new, traj_new, zpath_new = objective(trial)
            except (NonFinite, DomainError):
                f_new = np.inf  # overflow or a trip outside the real domain: reject
            # f_new < f: an Armijo term that rounds away must not pass an unchanged f
            if f_new < f and f_new <= f + _ARMIJO_C * step * dg:
                accepted = (trial, f_new, traj_new, zpath_new)
                break
            step *= _SHRINK
        if accepted is None:
            stop_reason = "line_search_failed"
            break
        x_new, f_new, traj, zpath = accepted
        grad_new = variational_gradient(problem, traj, zpath)
        s = x_new - x
        y = grad_new - grad
        if (y @ s) > 1e-12 * np.linalg.norm(y) * np.linalg.norm(s):
            s_list.append(s)
            y_list.append(y)
            if len(s_list) > _LBFGS_MEMORY:
                s_list.pop(0)
                y_list.pop(0)
        x, f, grad = x_new, f_new, grad_new
        iterations = it
        history.append(sign * f)
    final_gnorm = float(np.max(np.abs(grad))) if len(grad) else 0.0
    if stop_reason == "max_iters" and final_gnorm <= opts.grad_tol:
        stop_reason = "converged"
    return SolveResult(trajectory=traj, z_b=sign * f, iterations=iterations,
                       final_grad_norm=final_gnorm, stop_reason=stop_reason,
                       objective_history=history, zpath=zpath)

"""Problem definition files: JSON loading, validation, object construction.

The accepted structure is documented by the schema shipped at
herglotz/schema/problem.schema.json (see schema_path). Expression payloads
are plain strings in the expression grammar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .noether import SymmetryGroup
from .solver import SolveOptions
from .trajectory import (
    HerglotzProblem,
    PiecewiseTrajectory,
    Trajectory,
    build_grid,
    sampled_from_csv,
)

_NUMBER = (int, float)
# key -> JSON types the schema allows; seed_guess is further restricted below
_SOLVER_KINDS = {"max_iters": int, "grad_tol": _NUMBER, "seed_guess": (str, list)}
_PIECE_KINDS = {"from": _NUMBER, "to": _NUMBER, "expr": str}
# the keys the schema allows at the top level
_TOP_KEYS = ("interval", "tau", "n", "gamma", "beta", "history", "lagrangian",
             "trajectory", "group", "solver")


def schema_path() -> Path:
    """Stable filesystem path of the shipped config schema."""
    return Path(str(resources.files("herglotz").joinpath("schema/problem.schema.json")))


@dataclass
class ProblemConfig:
    """A parsed config: the top-level keys of the schema, with interval split
    into a and b, and base_dir, against which a samples path resolves."""

    a: float
    b: float
    tau: float
    n: int
    gamma: float
    beta: float
    history: str
    lagrangian: str
    trajectory: Optional[dict] = None
    group: Optional[dict] = None
    solver: Optional[dict] = None
    base_dir: Path = Path(".")

    def build(self, n_override: Optional[int] = None):
        """Construct (problem, trajectory or None, group or None, options)."""
        n = int(n_override) if n_override is not None else self.n
        grid = build_grid(self.a, self.b, self.tau, n)
        problem = HerglotzProblem(grid=grid, gamma=self.gamma, beta=self.beta,
                                  history=self.history, lagrangian=self.lagrangian)
        traj: Optional[Trajectory] = None
        if self.trajectory is not None:
            backend = self.trajectory.get("backend")
            if backend == "pieces":
                pieces = [(p["from"], p["to"], p["expr"])
                          for p in self.trajectory["pieces"]]
                traj = PiecewiseTrajectory(grid, pieces)
            elif backend == "samples":
                traj = sampled_from_csv(grid, self.base_dir / self.trajectory["path"])
            else:
                raise ConfigError(f"unknown trajectory backend {backend!r}")
        group = None
        if self.group is not None:
            group = SymmetryGroup(sigma=self.group["sigma"], xi=self.group["xi"])
        opts = SolveOptions(**(self.solver or {}))
        return problem, traj, group, opts


def _need(data: dict, key: str, kinds, where: str):
    """data[key], required and of one of the JSON types kinds (a bool is no number)."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: must be an object")
    if key not in data:
        raise ConfigError(f"{where}: missing key {key!r}")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{where}: key {key!r} has type {type(value).__name__}")
    return value


def _only(data: dict, keys, where: str) -> None:
    """Reject keys outside keys, as additionalProperties: false in the schema."""
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def parse_config(data: dict, base_dir: Path = Path("."), where: str = "config") -> ProblemConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: top level must be an object")
    _only(data, _TOP_KEYS, where)
    interval = _need(data, "interval", dict, where)
    _only(interval, ("a", "b"), f"{where}.interval")
    a = float(_need(interval, "a", _NUMBER, f"{where}.interval"))
    b = float(_need(interval, "b", _NUMBER, f"{where}.interval"))
    tau = float(_need(data, "tau", _NUMBER, where))
    n = _need(data, "n", int, where)
    gamma = float(_need(data, "gamma", _NUMBER, where))
    beta = float(_need(data, "beta", _NUMBER, where))
    history = _need(data, "history", str, where)
    lagrangian = _need(data, "lagrangian", str, where)
    trajectory = data.get("trajectory")
    if trajectory is not None:
        at = f"{where}.trajectory"
        backend = _need(trajectory, "backend", str, at)
        _only(trajectory, ("backend", "pieces", "path"), at)
        if backend not in ("pieces", "samples"):
            raise ConfigError(f"{where}: trajectory backend must be pieces or samples")
        stray = "path" if backend == "pieces" else "pieces"
        if stray in trajectory:
            raise ConfigError(f"{at}: key {stray!r} does not go with backend {backend!r}")
        if backend == "pieces":
            pieces = _need(trajectory, "pieces", list, at)
            for i, p in enumerate(pieces):
                for key, kinds in _PIECE_KINDS.items():
                    _need(p, key, kinds, f"{at}.pieces[{i}]")
                _only(p, _PIECE_KINDS, f"{at}.pieces[{i}]")
        else:
            _need(trajectory, "path", str, at)
    group = data.get("group")
    if group is not None:
        _need(group, "sigma", str, f"{where}.group")
        _need(group, "xi", str, f"{where}.group")
        _only(group, ("sigma", "xi"), f"{where}.group")
    solver = data.get("solver")
    if solver is not None:
        if not isinstance(solver, dict):
            raise ConfigError(f"{where}: solver must be an object")
        _only(solver, _SOLVER_KINDS, f"{where}.solver")
        for key in solver:
            _need(solver, key, _SOLVER_KINDS[key], f"{where}.solver")
        seed = solver.get("seed_guess", "linear")
        if isinstance(seed, list) and not all(
                isinstance(v, _NUMBER) and not isinstance(v, bool) for v in seed):
            raise ConfigError(f"{where}.solver: seed_guess must be \"linear\", "
                              "\"zero\" or an array of numbers")
    return ProblemConfig(a=a, b=b, tau=tau, n=n, gamma=gamma, beta=beta,
                         history=history, lagrangian=lagrangian,
                         trajectory=trajectory, group=group, solver=solver,
                         base_dir=Path(base_dir))


def load_config(path) -> ProblemConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from None
    return parse_config(data, base_dir=path.parent, where=str(path))

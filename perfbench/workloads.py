"""The benchmark's workloads: seeded inputs, timed operations, correctness gates.

Each workload is built once per process (its set-up), then hands out the
operation list of one pass at a time. An operation has a timed ``run`` that
goes through herglotz's public calls only, and an untimed ``check`` that
returns None or a ``Failure``. Module attributes are looked up at call time
so that the tracer's wrappers, when installed, see every call.

The references below are constants, independent of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from herglotz import bundle, cli, integrate, seed_trajectory, solver
from herglotz.trajectory import SampledTrajectory

BUNDLES = ("paper-s4", "paper-s4-nonextremal", "herglotz-damped", "classical-line")
VERIFY_COMMANDS = ("integrate", "check-el", "check-dbr", "check-hyp", "invariance", "noether")
# commands whose check is meant to fail: x(t) = t is not an extremal
EXPECTED_EXIT_1 = {("check-el", "paper-s4-nonextremal"),
                   ("check-dbr", "paper-s4-nonextremal"),
                   ("noether", "paper-s4-nonextremal")}
Z_TOL = 1e-8
Q_TOL = 1e-6

SOLVE_CASES = (("paper-s4", 100), ("herglotz-damped", 100),
               ("classical-line", 100), ("classical-line", 200))
# damped: integrate_z along the shipped closed-form extremal at n=100
SOLVE_REFERENCE_Z = {"paper-s4": math.e ** 2 - math.e,
                     "herglotz-damped": 0.1519426178,
                     "classical-line": 1.0}
SOLVE_Z_TOL = 1e-4

SENSITIVITY_CASES = ("paper-s4", "herglotz-damped", "classical-line")
SENSITIVITY_N = 2000
FIRST_VARIATION_RTOL = 1e-9
CENTRAL_DIFFERENCE_RTOL = 1e-6
CENTRAL_DIFFERENCE_EPS = 1e-3

# shift applied to every reference by --corrupt-reference, far above each tolerance
CORRUPTION = 1e-3


@dataclass(frozen=True)
class Failure:
    reason: str
    wrong: bool = True  # False: no answer delivered (e.g. iteration cap), not a wrong one


@dataclass
class Op:
    label: str
    run: Callable[[Path], object]
    check: Callable[[object, Path], Optional[Failure]]


def _reports_digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Verify:
    """Every check command on every bundle at its shipped n, plus
    paper-example, each through ``herglotz.cli.main`` into a fresh --out
    directory. The seed only permutes the command order of each pass."""

    def __init__(self, seed: int, workdir: Path, corrupt: bool = False):
        self.rng = random.Random(seed)
        self.expected = {name: dict(bundle(name).expected) for name in BUNDLES}
        if corrupt:
            self.expected["paper-s4"]["z_b"] += CORRUPTION
        self.digests: dict = {}
        self.commands = [(cmd, name) for name in BUNDLES for cmd in VERIFY_COMMANDS]
        self.commands.append(("paper-example", None))

    def ops(self) -> list:
        order = list(self.commands)
        self.rng.shuffle(order)
        return [self._op(cmd, name) for cmd, name in order]

    def _op(self, cmd: str, name: Optional[str]) -> Op:
        argv = [cmd] if name is None else [cmd, name]
        label = " ".join(argv)

        def run(out: Path):
            return cli.main(argv + ["--out", str(out)])

        def check(code, out: Path) -> Optional[Failure]:
            want = 1 if (cmd, name) in EXPECTED_EXIT_1 else 0
            if code != want:
                return Failure(f"exit code {code}, expected {want}")
            digest = _reports_digest(out)
            if self.digests.setdefault(label, digest) != digest:
                return Failure("report files differ from an earlier run of the same command")
            expected = self.expected.get(name, {})
            if cmd == "integrate" and "z_b" in expected:
                z_b = json.loads((out / "integrate.json").read_text())["z_b"]
                if not abs(z_b - expected["z_b"]) <= Z_TOL:
                    return Failure(f"z_b {z_b!r} differs from {expected['z_b']!r}")
            if cmd == "noether" and want == 0:
                means = {p["label"]: p["mean"] for p in json.loads(
                    (out / "noether.json").read_text())["conservation"]["profiles"]}
                for key, label_prefix in (("q1_mean", "Q1"), ("q2_mean", "Q2"), ("q_mean", "Q ")):
                    if key not in expected:
                        continue
                    got = [v for k, v in means.items() if k.startswith(label_prefix)]
                    if len(got) != 1 or not abs(got[0] - expected[key]) <= Q_TOL:
                        return Failure(f"{key} {got!r} differs from {expected[key]!r}")
            return None

        return Op(label, run, check)


class Solve:
    """``herglotz solve`` on generated configs: each bundle's own config
    with n set and solver.seed_guess written out as the explicit node values
    of the bundle's own start. The seed only permutes the solve order: the
    L-BFGS iteration count is chaotic in the start (a 1e-8 bump moves it by
    up to a quarter), so a seeded bump would make time to solution unsteady
    and would let the classical-line n=200 case converge on some seeds."""

    def __init__(self, seed: int, workdir: Path, corrupt: bool = False):
        self.rng = random.Random(seed)
        self.reference = {k: v + (CORRUPTION if corrupt else 0.0)
                          for k, v in SOLVE_REFERENCE_Z.items()}
        self.configs = []
        for name, n in SOLVE_CASES:
            info = bundle(name)
            data = json.loads(info.config_path.read_text())
            problem, _, _, opts = info.config().build(n_override=n)
            start = seed_trajectory(problem, opts.seed_guess).values
            data["n"] = n
            data["solver"] = dict(data.get("solver") or {}, seed_guess=start.tolist())
            path = workdir / f"solve-{name}-n{n}.json"
            path.write_text(json.dumps(data))
            self.configs.append((name, n, path))

    def ops(self) -> list:
        order = list(self.configs)
        self.rng.shuffle(order)
        return [self._op(*case) for case in order]

    def _op(self, name: str, n: int, path: Path) -> Op:
        def run(out: Path):
            return cli.main(["solve", str(path), "--out", str(out)])

        def check(code, out: Path) -> Optional[Failure]:
            if code not in (0, 1):
                return Failure(f"exit code {code}")
            summary = json.loads((out / "solve.json").read_text())
            if not summary["converged"] or code != 0:
                return Failure(f"not converged after {summary['iterations']} iterations",
                               wrong=False)
            ref = self.reference[name]
            if not abs(summary["z_b"] - ref) <= SOLVE_Z_TOL:
                return Failure(f"z_b {summary['z_b']!r} differs from {ref!r}")
            return None

        return Op(f"solve {name} n={n}", run, check)


def _smooth(rng: np.random.Generator, s: np.ndarray, scale: float) -> np.ndarray:
    """Random sine series on s in [0, 1], zero at both ends."""
    coeffs = rng.normal(0.0, scale, 4) / np.arange(1, 5)
    return sum(c * np.sin((k + 1) * np.pi * s) for k, c in enumerate(coeffs))


class Sensitivity:
    """``integrate_z`` then ``variational_gradient`` at n=2000, where the
    gradient takes the per-column spline loop, on a freshly generated seeded
    sampled trajectory per operation."""

    def __init__(self, seed: int, workdir: Path, corrupt: bool = False):
        self.rng = np.random.default_rng(seed)
        self.reference_factor = 1.0 + (CORRUPTION if corrupt else 0.0)
        self.problems = []
        for name in SENSITIVITY_CASES:
            problem, _, _, _ = bundle(name).config().build(n_override=SENSITIVITY_N)
            self.problems.append((name, problem))

    def ops(self) -> list:
        order = [self.problems[i] for i in self.rng.permutation(len(self.problems))]
        return [self._op(name, problem) for name, problem in order]

    def _op(self, name: str, problem) -> Op:
        g = problem.grid
        s = (g.main_nodes - g.a) / (g.b - g.a)
        values = np.empty(len(g.nodes))
        values[: g.m + 1] = problem.history_values()
        values[g.m:] = (values[g.m] + (problem.beta - values[g.m]) * s
                        + _smooth(self.rng, s, 0.3))
        values[-1] = problem.beta
        traj = SampledTrajectory(g, values)
        eta_free = _smooth(self.rng, s, 1.0)[1:-1]

        def run(out: Path):
            zpath = integrate.integrate_z(problem, traj)
            return zpath, solver.variational_gradient(problem, traj, zpath)

        def check(result, out: Path) -> Optional[Failure]:
            zpath, grad = result
            directional = float(grad @ eta_free)
            scale = float(np.abs(grad) @ np.abs(eta_free))
            eta = integrate.VariationDirection.from_free(g, eta_free)
            fv = integrate.first_variation(problem, traj, zpath, eta) * self.reference_factor
            if not abs(directional - fv) <= FIRST_VARIATION_RTOL * scale:
                return Failure(f"grad.eta {directional!r} vs first_variation {fv!r}")
            shift = np.zeros_like(values)
            shift[g.m + 1: -1] = CENTRAL_DIFFERENCE_EPS * eta_free
            zp = integrate.integrate_z(problem, SampledTrajectory(g, values + shift)).z_b
            zm = integrate.integrate_z(problem, SampledTrajectory(g, values - shift)).z_b
            cd = (zp - zm) / (2.0 * CENTRAL_DIFFERENCE_EPS) * self.reference_factor
            if not abs(directional - cd) <= CENTRAL_DIFFERENCE_RTOL * scale:
                return Failure(f"grad.eta {directional!r} vs central difference {cd!r}")
            return None

        return Op(f"sensitivity {name} n={SENSITIVITY_N}", run, check)


WORKLOADS = {"verify": Verify, "solve": Solve, "sensitivity": Sensitivity}

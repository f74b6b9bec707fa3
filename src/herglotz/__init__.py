"""Numerical toolkit for Herglotz-type variational problems with time delay.

The functional value z(b) is defined through the initial value problem
z'(t) = L(t, x(t), x'(t), x(t-tau), x'(t-tau), z(t)), z(a) = gamma, with x
pinned to a history function on [a-tau, a] and to beta at b. The package
integrates z together with the integrating factor lambda, evaluates the
residuals of the delayed Euler-Lagrange and DuBois-Reymond necessary
conditions, tests one-parameter symmetry invariance, monitors the two
associated conserved quantities, and extremizes z(b) by direct transcription
with the exact first-variation gradient.
"""

from . import errors
from .bundles import BundleInfo, bundle, bundled_problems
from .conditions import (
    ResidualReport,
    dbr_residuals,
    el_residuals,
    hypothesis_profiles,
)
from .config import ProblemConfig, load_config, parse_config, schema_path
from .expr import evaluate, parse, partial, to_text, variables_in
from .integrate import ZPath, first_variation, integrate_z
from .noether import (
    ConservationReport,
    InvarianceProfile,
    NoetherVerdict,
    SymmetryGroup,
    check_noether,
    conserved_quantities,
    group_variation,
)
from .solver import (
    SolveOptions,
    SolveResult,
    fd_gradient,
    solve_direct,
    variational_gradient,
)
from .trajectory import (
    Grid,
    HerglotzProblem,
    PiecewiseTrajectory,
    SampledTrajectory,
    VariationDirection,
    build_grid,
    perturb,
    sampled_from_csv,
    seed_trajectory,
    trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BundleInfo",
    "ConservationReport",
    "Grid",
    "HerglotzProblem",
    "InvarianceProfile",
    "NoetherVerdict",
    "PiecewiseTrajectory",
    "ProblemConfig",
    "ResidualReport",
    "SampledTrajectory",
    "SolveOptions",
    "SolveResult",
    "SymmetryGroup",
    "VariationDirection",
    "ZPath",
    "build_grid",
    "bundle",
    "bundled_problems",
    "check_noether",
    "conserved_quantities",
    "dbr_residuals",
    "el_residuals",
    "errors",
    "evaluate",
    "fd_gradient",
    "first_variation",
    "group_variation",
    "hypothesis_profiles",
    "integrate_z",
    "load_config",
    "parse",
    "parse_config",
    "partial",
    "perturb",
    "sampled_from_csv",
    "schema_path",
    "seed_trajectory",
    "solve_direct",
    "to_text",
    "trajectory_csv",
    "variables_in",
    "variational_gradient",
    "__version__",
]

import json
import math
import re
from pathlib import Path

import pytest

from herglotz.bundles import BUNDLE_NAMES, bundle, bundled_problems
from herglotz.conditions import el_residuals
from herglotz.config import load_config, parse_config, schema_path
from herglotz.errors import ConfigError
from herglotz.integrate import integrate_z

from conftest import build_bundle


def test_listing_ships_configs_and_expectations():
    infos = bundled_problems()
    assert [b.name for b in infos] == list(BUNDLE_NAMES)
    for info in infos:
        assert info.config_path.exists()
        assert isinstance(info.expected, dict) and info.expected
        problem, traj, group, _ = info.config().build()
        assert traj is not None
        assert group is not None


def test_damped_oscillator_solution_is_extremal():
    info = bundle("herglotz-damped")
    problem, traj, _, _ = info.config().build()
    zpath = integrate_z(problem, traj)
    r1, r2 = el_residuals(problem, traj, zpath, tol=info.expected["el_residual_bound"])
    assert r1.sup_norm < info.expected["el_residual_bound"]
    assert r1.passed and r2.passed


def test_damped_oscillator_endpoint_matches_solution():
    info = bundle("herglotz-damped")
    problem, traj, _, _ = info.config().build()
    x_b, _, _ = traj.eval(problem.grid.b)
    assert abs(x_b - problem.beta) < 1e-12
    omega = math.sqrt(0.99)
    assert abs(problem.beta - math.exp(-0.2) * math.cos(2 * omega)) < 1e-15


def test_classical_line_expected_values():
    info = bundle("classical-line")
    problem, traj, _, _ = info.config().build()
    zpath = integrate_z(problem, traj)
    assert abs(zpath.z_b - info.expected["z_b"]) < 1e-10


def test_reference_problem_expected_values():
    info = bundle("paper-s4")
    assert abs(info.expected["z_b"] - (math.e ** 2 - math.e)) < 1e-15
    assert abs(info.expected["q2_mean"] - (1.0 - 1.0 / math.e)) < 1e-15
    problem, traj, _, _ = build_bundle("paper-s4", n=200)
    zpath = integrate_z(problem, traj)
    assert abs(zpath.z_b - info.expected["z_b"]) < 1e-9


def readme_config() -> dict:
    """The example config block under the README's "Problem configuration"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Problem configuration", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


@pytest.mark.parametrize("name", BUNDLE_NAMES + ("README",))
def test_shipped_configs_follow_the_schema_and_load(name):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(schema_path().read_text())
    if name == "README":
        data = readme_config()
        config = parse_config(data, where="README")
    else:
        path = bundle(name).config_path
        data = json.loads(path.read_text())
        config = load_config(path)
    jsonschema.validate(data, schema)
    config.build(n_override=20)
    # a key the schema does not list fails both the schema and the parser
    data["sense"] = "minimize"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, schema)
    with pytest.raises(ConfigError, match=r"unknown keys \['sense'\]"):
        parse_config(data)

"""Bundled reference problems shipped with the package.

Each bundle is a config file plus an expected-values file; the acceptance
tests consume both, and the CLI resolves a bundle name anywhere a config
path is accepted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .config import ProblemConfig, load_config
from .errors import ConfigError

BUNDLE_NAMES = (
    "paper-s4",
    "paper-s4-nonextremal",
    "herglotz-damped",
    "classical-line",
)
# resolved once: the directory of the shipped bundle files
_BUNDLE_DIR = Path(str(resources.files("herglotz").joinpath("bundles")))


@dataclass(frozen=True)
class BundleInfo:
    name: str
    config_path: Path
    expected: dict

    def config(self) -> ProblemConfig:
        return load_config(self.config_path)


def bundle_config_path(name: str) -> Path:
    """The config file of a shipped bundle; its expected values are not read."""
    if name not in BUNDLE_NAMES:
        raise ConfigError(f"unknown bundle {name!r}; available: {', '.join(BUNDLE_NAMES)}")
    return _BUNDLE_DIR / f"{name}.json"


def bundle(name: str) -> BundleInfo:
    cfg = bundle_config_path(name)
    expected = json.loads(cfg.with_name(f"{name}.expected.json").read_text())
    return BundleInfo(name=name, config_path=cfg, expected=expected)


def bundled_problems() -> list:
    """All shipped bundles, config paths and expected values included."""
    return [bundle(name) for name in BUNDLE_NAMES]

"""Run configuration files and named presets.

A config file is one flat JSON object whose keys match SimConfig's fields.
Optional keys take documented defaults (h = 0.01, integrator = rk4,
epsilon = 1/lambda_max, b_i = 1/(5 l_ii) via null). Loading validates the
full parameter set once, through ``prepare``, and returns the prepared run:
``run(load_config(path))`` runs it without validating or deriving anything
again.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from pathlib import Path

from .errors import ConfigError
from .simulator import Prepared, SimConfig, prepare

_FIG1_EDGES = [[1, 2, 1.0], [2, 3, 1.0], [2, 5, 1.0], [3, 4, 1.0]]
_X0 = [
    [0.95, 0.63],
    [-0.70, -0.73],
    [-0.33, -0.54],
    [-0.25, 0.02],
    [0.86, 0.01],
]


def _base_preset() -> dict:
    return {
        "model": "paper-sys",
        "theta": [0.5],
        "theta_hat": [0.40],
        "n_agents": 5,
        "edges": [list(e) for e in _FIG1_EDGES],
        "x0": [list(x) for x in _X0],
        "h": 0.01,
        "duration": 10.0,
        "integrator": "rk4",
        "ctc": "asymptotic",
        "kappa1": 0.1,
        "kappa2": 5.0,
        "sigma": [0.8, 0.9, 0.9, 0.9, 0.9],
        "b": None,
        "epsilon": None,
        "xi": 0.0,
        "P": [[5.0, 2.0], [2.0, 1.0]],
        "rho": 0.02,
        "q": 1.0,
        "dump_estimates": False,
        "check_synchrony": True,
        "seed": 0,
    }


def _preset_dicts() -> dict[str, dict]:
    asym_040 = _base_preset()
    asym_035 = _base_preset()
    asym_035["theta_hat"] = [0.35]
    zeno_040 = _base_preset()
    zeno_040.update({"ctc": "practical", "xi": 20.0, "duration": 30.0})
    zeno_035 = _base_preset()
    zeno_035.update({"ctc": "practical", "xi": 20.0, "duration": 30.0, "theta_hat": [0.35]})
    return {
        "paper-asym-040": asym_040,
        "paper-asym-035": asym_035,
        "paper-zeno-040": zeno_040,
        "paper-zeno-035": zeno_035,
    }


PRESET_NAMES = tuple(sorted(_preset_dicts()))

_DEFAULTS = {f.name: f.default for f in fields(SimConfig) if f.default is not MISSING}
_REQUIRED = tuple(f.name for f in fields(SimConfig) if f.default is MISSING)


def preset_config(name: str) -> dict:
    """Canonical dict form of a named preset."""
    presets = _preset_dicts()
    try:
        return presets[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConfigError(
            f"unknown preset {name!r}; available: {PRESET_NAMES}"
        ) from None


def prepare_dict(data: dict, **overrides) -> Prepared:
    """Build, validate and derive a run from a flat dict of config keys.

    ``overrides`` replace keys of ``data`` before the one validation.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    known = {f.name for f in fields(SimConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    missing = sorted(k for k in _REQUIRED if k not in data)
    if missing:
        raise ConfigError(f"missing required config field(s): {', '.join(missing)}")
    merged = dict(_DEFAULTS)
    merged.update(data)
    merged.update(overrides)
    return prepare(SimConfig(**merged))


def config_from_dict(data: dict) -> SimConfig:
    """Build and validate a SimConfig from a flat dict of config keys."""
    return prepare_dict(data).cfg


def load_preset(name: str, **overrides) -> Prepared:
    """Load and validate a named preset, with ``overrides`` merged in first."""
    return prepare_dict(preset_config(name), **overrides)


def load_config(path, **overrides) -> Prepared:
    """Load and validate a JSON config file, with ``overrides`` merged in first."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return prepare_dict(data, **overrides)

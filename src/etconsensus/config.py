"""The run config: ``SimConfig``, its checks, named presets and config files.

Each ``SimConfig`` field declares its kind once, in its ``metadata``, and
``prepare`` checks every field against its kind in one loop (see ``_KINDS``).
A field may be None exactly when its default is None. ``prepare`` itself
keeps only the rules that tie fields together, then derives the run. The
ranges a component owns are checked there: the gains, sigma_i and b_i in
``control``, epsilon in ``graph``, rho and q in ``dynamics``.

A config file is one flat JSON object whose keys match SimConfig's fields.
Optional keys take documented defaults (h = 0.01, integrator = rk4,
epsilon = 1/lambda_max, b_i = 1/(5 l_ii) via null). Loading validates the
full parameter set once, through ``prepare``, and returns the prepared run:
``run(load_config(path))`` runs it without validating or deriving anything
again.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .control import TriggerParams, build_trigger_params, check_gain_condition
from .dynamics import CmfCertificate, SystemModel, make_model
from .errors import ConfigError
from .graph import Graph, Laplacian, build_laplacian
from .integrate import INTEGRATORS

CTC_VARIANTS = ("asymptotic", "practical")


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _is_array(v) -> bool:
    try:
        arr = np.asarray(v)
    except ValueError:  # ragged nesting
        return False
    return arr.dtype.kind in "iuf" and bool(np.isfinite(arr).all())


def _is_edge(edge) -> bool:
    return (
        isinstance(edge, (list, tuple))
        and len(edge) in (2, 3)
        and all(_is_int(v) for v in edge[:2])
        and all(_is_real(v) for v in edge[2:])
    )


# Each field kind: what a value must be, and the test of it. A tuple kind
# lists the values a field may take; "edges" tests each entry on its own.
_KINDS = {
    "count": ("a positive integer", lambda v: _is_int(v) and v >= 1),
    "int": ("an integer", _is_int),
    "name": ("a name", lambda v: isinstance(v, str)),
    "flag": ("true or false", lambda v: isinstance(v, (bool, np.bool_))),
    "real": ("a finite number", _is_real),
    "positive": ("a finite number > 0", lambda v: _is_real(v) and v > 0.0),
    "non-negative": ("a finite number >= 0", lambda v: _is_real(v) and v >= 0.0),
    "array": ("a number or a rectangular array of finite numbers", _is_array),
    "edges": ("[i, j] or [i, j, weight] with integer agent ids and a finite weight", _is_edge),
}


def _check_field(name: str, kind, v) -> None:
    """Refuse ``v`` for field ``name`` unless it is of ``kind``, naming the field."""
    if isinstance(kind, tuple):
        what, test = f"one of {kind}", lambda u: isinstance(u, str) and u in kind
    else:
        what, test = _KINDS[kind]
    if kind == "edges":
        for edge in v if isinstance(v, (list, tuple)) else [v]:
            if not test(edge):
                raise ConfigError(f"{name} entry {edge!r} must be {what}")
    elif not test(v):
        raise ConfigError(f"{name} must be {what}, got {v!r}")


def check_fits(n_rows, row_bytes: int, what: str, fix: str = "shorten duration or raise h") -> None:
    """Refuse the ``n_rows`` x ``row_bytes`` bytes ``what`` needs beyond this machine's memory."""
    need = n_rows * row_bytes
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ConfigError(
            f"{what} need {need / 2**30:.3g} GiB, more than this machine's"
            f" {have / 2**30:.3g} GiB of memory; {fix}"
        )


@dataclass
class SimConfig:
    """Complete description of one simulation run.

    Each field's ``metadata["kind"]`` is its check in ``prepare``. Only ``b``
    and ``epsilon`` may be None, their default, for b_i = 1/(5 l_ii) and
    epsilon = 1/lambda_max(L). ``seed`` is reserved for future stochastic
    extensions and unused: runs are deterministic. ``check_synchrony`` is
    accepted and echoed but does nothing: with one stored estimate per agent
    the copies cannot disagree, so ``sync_mismatches`` is always 0.
    """

    n_agents: int = field(metadata={"kind": "count"})
    edges: list = field(metadata={"kind": "edges"})
    x0: list = field(metadata={"kind": "array"})
    duration: float = field(metadata={"kind": "non-negative"})
    ctc: str = field(metadata={"kind": CTC_VARIANTS})
    kappa1: float = field(metadata={"kind": "real"})
    kappa2: float = field(metadata={"kind": "real"})
    sigma: object = field(metadata={"kind": "array"})
    P: list = field(metadata={"kind": "array"})
    rho: float = field(metadata={"kind": "real"})
    q: float = field(metadata={"kind": "real"})
    theta: list = field(metadata={"kind": "array"})
    theta_hat: list = field(metadata={"kind": "array"})
    model: str = field(default="paper-sys", metadata={"kind": "name"})
    h: float = field(default=0.01, metadata={"kind": "positive"})
    integrator: str = field(default="rk4", metadata={"kind": INTEGRATORS})
    b: object = field(default=None, metadata={"kind": "array"})
    epsilon: float | None = field(default=None, metadata={"kind": "real"})
    xi: float = field(default=0.0, metadata={"kind": "real"})
    dump_estimates: bool = field(default=False, metadata={"kind": "flag"})
    check_synchrony: bool = field(default=True, metadata={"kind": "flag"})
    seed: int = field(default=0, metadata={"kind": "int"})

    def to_dict(self) -> dict:
        """JSON-ready form, one key per field."""

        def plain(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, (list, tuple)):
                return [plain(u) for u in v]
            return v

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True, eq=False)
class Prepared:
    """A run's validated inputs and what its config derives.

    ``n_steps`` is duration/h; h and the integrator are read from ``cfg``.
    The step loop reads a ``lockstep.Lockstep`` built from one or more of
    these, never a ``Prepared`` itself.
    """

    cfg: SimConfig
    model: SystemModel
    graph: Graph
    lap: Laplacian
    params: TriggerParams
    cert: CmfCertificate
    x0: np.ndarray
    n_steps: int


def prepare(cfg: SimConfig) -> Prepared:
    """Validate a config and derive every object a run needs.

    Raises ConfigError (or a more specific package error) naming the field
    and the violated constraint.
    """
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if not (v is None and f.default is None):
            _check_field(f.name, f.metadata["kind"], v)
    n = cfg.n_agents
    check_fits(n * n, 8, f"the {n} x {n} adjacency of n_agents = {n}", "lower n_agents")
    steps = cfg.duration / cfg.h
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * max(steps, 1.0)):
        raise ConfigError(
            f"duration must be an integer multiple of h, got duration = {cfg.duration!r}"
            f" and h = {cfg.h!r}"
        )
    if (cfg.xi > 0.0) != (cfg.ctc == "practical"):  # build_trigger_params refuses xi < 0
        raise ConfigError(f"xi must be > 0 when ctc is practical and 0 otherwise, got {cfg.xi!r}")

    model = make_model(cfg.model, cfg.theta, cfg.theta_hat)
    graph = Graph.from_edges(cfg.n_agents, cfg.edges)
    lap = build_laplacian(graph, cfg.epsilon)

    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (cfg.n_agents, model.state_dim):
        raise ConfigError(
            f"x0 must have shape {(cfg.n_agents, model.state_dim)}, got {x0.shape}"
        )

    P = np.asarray(cfg.P, dtype=float)
    if P.shape != (model.state_dim, model.state_dim):
        raise ConfigError(
            f"P must have shape {(model.state_dim, model.state_dim)}, got {P.shape}"
        )
    cert = CmfCertificate(P=P, rho=cfg.rho, q=cfg.q)
    check_gain_condition(cfg.kappa1, cfg.rho, lap.mu)
    params = build_trigger_params(
        lap,
        cert.P,
        model.B,
        kappa1=cfg.kappa1,
        kappa2=cfg.kappa2,
        sigma=cfg.sigma,
        b=cfg.b,
        xi=cfg.xi,
    )
    return Prepared(cfg, model, graph, lap, params, cert, x0, int(round(steps)))


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

"""Agent dynamics: vector fields, decay certificates, and Lipschitz data.

The plant family is input-affine. The leader integrates dx/dt = f(x, theta)
with no input; every follower adds B u to the same drift. Models live in a
named registry; the built-in "paper-sys" entry is a two-state nonlinear
oscillator with one bounded parameter and is the system behind all presets.

Two numerical checks certify the data a run depends on:

* ``check_cmf`` samples the decay inequality
  lambda_max(J(x, theta)' P + P J(x, theta) - rho P B B' P + q P) <= 0
  over a state/parameter grid and reports the worst margin,
* ``estimate_lipschitz`` bounds the Jacobian's spectral norm (k) and the
  parameter-mismatch drift |f(x, theta_hat) - f(x, theta)| (Delta), each
  inflated by a small safety factor.

Both walk the grid in fixed-size chunks of states, one vectorized pass per
chunk, so the temporaries stay bounded however fine the grid is. Like ``f``,
a model's ``jacobian_f`` maps states of shape (..., n) to Jacobians of shape
(..., n, n); a Jacobian that does not depend on the state may come back as
one (n, n) matrix and is broadcast.

For the built-in model both checks are exhaustive on a [-pi, pi]^2 grid
because its Jacobian depends on the state only through bounded trig terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CertificateError, ModelError
from .linalg import eigvalsh, is_symmetric, spectral_norm

# Grid points per vectorized pass of check_cmf and estimate_lipschitz.
_GRID_CHUNK = 1024


@dataclass(frozen=True)
class SystemModel:
    """Input-affine model dx/dt = f(x, theta) + B u with a boxed parameter.

    ``f`` maps states (..., n) to drifts (..., n) and ``jacobian_f`` maps them
    to Jacobians (..., n, n), or to one (n, n) matrix when constant. The
    parameter passed to ``f`` is either one (p,) vector for every state, or a
    (..., p) array aligned with the states' leading axes, one parameter per
    state: the simulator steps true states and estimates as one stack, each
    row under its own parameter.
    """

    name: str
    state_dim: int
    input_dim: int
    param_dim: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian_f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    B: np.ndarray
    theta_true: np.ndarray
    theta_hat: np.ndarray
    param_low: np.ndarray
    param_high: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "B", B)
        for attr in ("theta_true", "theta_hat", "param_low", "param_high"):
            object.__setattr__(self, attr, np.asarray(getattr(self, attr), dtype=float))
        if B.shape != (self.state_dim, self.input_dim):
            raise ModelError(
                f"B must have shape {(self.state_dim, self.input_dim)}, got {B.shape}"
            )
        for attr in ("theta_true", "theta_hat"):
            th = getattr(self, attr)
            if th.shape != (self.param_dim,):
                raise ModelError(f"{attr} must have shape ({self.param_dim},), got {th.shape}")
            if np.any(th < self.param_low) or np.any(th > self.param_high):
                raise ModelError(
                    f"{attr} = {th.tolist()} lies outside the parameter box"
                    f" [{self.param_low.tolist()}, {self.param_high.tolist()}]"
                )


def _as_theta(model: SystemModel, theta) -> np.ndarray:
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.shape != (model.param_dim,):
        raise ModelError(
            f"theta must have shape ({model.param_dim},), got {th.shape}"
        )
    return th


def eval_f(model: SystemModel, x, theta) -> np.ndarray:
    """Evaluate the drift at one state or a batch of states (last axis = state)."""
    th = _as_theta(model, theta)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != model.state_dim:
        raise ModelError(
            f"state must have trailing dimension {model.state_dim}, got shape {x.shape}"
        )
    return model.f(x, th)


# --- model registry ---------------------------------------------------------

_REGISTRY: dict[str, Callable[[np.ndarray | None, np.ndarray | None], SystemModel]] = {}


def register_model(name: str, builder) -> None:
    _REGISTRY[name] = builder


def available_models() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_model(name: str, theta=None, theta_hat=None) -> SystemModel:
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ModelError(
            f"unknown model {name!r}; available: {available_models()}"
        ) from None
    return builder(theta, theta_hat)


def _paper_f(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    th = theta[..., 0]
    z1 = x[..., 0]
    z2 = x[..., 1]
    c2 = np.cos(z2)
    out = np.empty_like(x)
    out[..., 0] = z2 + th * c2
    out[..., 1] = -z1 + th * c2 + (th * th) * np.cos(z1) * np.sin(z1)
    return out


def _paper_jacobian(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    th = float(theta[0])
    x = np.asarray(x, dtype=float)
    s2 = np.sin(x[..., 1])
    J = np.zeros(x.shape[:-1] + (2, 2))
    J[..., 0, 1] = 1.0 - th * s2
    J[..., 1, 0] = -1.0 + th * th * np.cos(2.0 * x[..., 0])
    J[..., 1, 1] = -th * s2
    return J


def _build_paper_sys(theta=None, theta_hat=None) -> SystemModel:
    theta = [0.5] if theta is None else theta
    theta_hat = [0.40] if theta_hat is None else theta_hat
    return SystemModel(
        name="paper-sys",
        state_dim=2,
        input_dim=1,
        param_dim=1,
        f=_paper_f,
        jacobian_f=_paper_jacobian,
        B=np.array([[0.0], [-1.0]]),
        theta_true=theta,
        theta_hat=theta_hat,
        param_low=np.array([0.0]),
        param_high=np.array([1.0]),
    )


register_model("paper-sys", _build_paper_sys)


def trig_grid(step: float = 0.05, bound: float = math.pi) -> np.ndarray:
    """Uniform grid over [-bound, bound]^2, returned as an (K, 2) array."""
    axis = np.arange(-bound, bound + 1e-9, step)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([g1.ravel(), g2.ravel()], axis=1)


def _grid(model: SystemModel, states) -> np.ndarray:
    states = np.asarray(states, dtype=float)
    if states.size == 0:
        raise ModelError("state grid is empty")
    if states.ndim != 2 or states.shape[1] != model.state_dim:
        raise ModelError(
            f"state grid must have shape (K, {model.state_dim}), got {states.shape}"
        )
    return states


def _chunks(states: np.ndarray):
    for start in range(0, states.shape[0], _GRID_CHUNK):
        yield states[start : start + _GRID_CHUNK]


def _jacobians(model: SystemModel, xs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Jacobians at a chunk of states, (K, n, n), broadcasting a constant one."""
    J = np.asarray(model.jacobian_f(xs, theta), dtype=float)
    return np.broadcast_to(J, xs.shape + (model.state_dim,))


# --- decay certificate -------------------------------------------------------


@dataclass(frozen=True)
class CmfReport:
    """Outcome of sampling the decay inequality over a grid."""

    holds: bool
    worst_margin: float
    worst_point: tuple[tuple[float, ...], tuple[float, ...]]
    tolerance: float
    n_points: int


@dataclass
class CmfCertificate:
    """Candidate decay certificate (P, rho, q) for a model.

    P must be symmetric positive definite, rho >= 0 and q > 0. The report of
    the most recent ``check_cmf`` call is stored on ``sample_report``.
    """

    P: np.ndarray
    rho: float
    q: float
    sample_report: CmfReport | None = None

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        self.P = P
        if not is_symmetric(P):
            raise CertificateError("P must be symmetric")
        if eigvalsh(P)[0] <= 0.0:
            raise CertificateError("P must be positive definite")
        if self.rho < 0.0:
            raise CertificateError(f"rho must be >= 0, got {self.rho!r}")
        if self.q <= 0.0:
            raise CertificateError(f"q must be > 0, got {self.q!r}")


def check_cmf(
    model: SystemModel,
    cert: CmfCertificate,
    states: np.ndarray,
    thetas=None,
    tolerance: float = 1e-9,
) -> CmfReport:
    """Sample the decay inequality on a state/parameter grid.

    Returns a report whose ``worst_margin`` is the largest eigenvalue of
    J' P + P J - rho P B B' P + q P seen anywhere on the grid; the
    certificate holds when that value stays at or below ``tolerance``. The
    worst point is the first strict maximum in theta-major, then grid order;
    a NaN margin is never the worst.
    """
    states = _grid(model, states)
    if thetas is None:
        thetas = (model.theta_true, model.theta_hat)
    thetas = [_as_theta(model, th) for th in thetas]

    P = cert.P
    pbbp = P @ model.B @ model.B.T @ P
    offset = cert.q * P - cert.rho * pbbp
    worst = -math.inf
    worst_point = None
    for th in thetas:
        for xs in _chunks(states):
            J = _jacobians(model, xs, th)
            m = eigvalsh(np.matmul(np.swapaxes(J, 1, 2), P) + np.matmul(P, J) + offset)[:, -1]
            i = int(np.argmax(np.where(np.isnan(m), -math.inf, m)))
            if m[i] > worst:
                worst = float(m[i])
                worst_point = (tuple(float(v) for v in xs[i]), tuple(float(v) for v in th))
    report = CmfReport(
        holds=bool(worst <= tolerance),
        worst_margin=float(worst),
        worst_point=worst_point,
        tolerance=tolerance,
        n_points=len(thetas) * states.shape[0],
    )
    cert.sample_report = report
    return report


# --- Lipschitz data ----------------------------------------------------------


@dataclass(frozen=True)
class LipschitzData:
    """Grid bounds on the drift: k for the Jacobian norm, Delta for mismatch drift.

    ``k`` and ``Delta`` include the safety factor; the raw grid maxima are
    kept alongside for diagnostics.
    """

    k: float
    Delta: float
    k_grid_max: float
    delta_grid_max: float
    safety: float


def estimate_lipschitz(
    model: SystemModel,
    states: np.ndarray,
    thetas=None,
    safety: float = 1.05,
) -> LipschitzData:
    """Bound the state Lipschitz constant and the parameter-mismatch drift."""
    states = _grid(model, states)
    if thetas is None:
        thetas = (model.theta_true, model.theta_hat)
    thetas = [_as_theta(model, th) for th in thetas]

    k_raw = 0.0
    for th in thetas:
        for xs in _chunks(states):
            top = float(np.fmax.reduce(spectral_norm(_jacobians(model, xs, th))))
            if top > k_raw:
                k_raw = top
    theta_hat = _as_theta(model, model.theta_hat)
    theta_true = _as_theta(model, model.theta_true)
    drift_max = []
    for xs in _chunks(states):
        drift = model.f(xs, theta_hat) - model.f(xs, theta_true)
        drift_max.append(np.sqrt((drift * drift).sum(axis=1)).max())
    delta_raw = float(np.max(drift_max))
    return LipschitzData(
        k=safety * k_raw,
        Delta=safety * delta_raw,
        k_grid_max=float(k_raw),
        delta_grid_max=delta_raw,
        safety=safety,
    )

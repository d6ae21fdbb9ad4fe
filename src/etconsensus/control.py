"""Distributed control law, trigger quantities, gain matrices, and analytic bounds.

Agent indices are 0-based throughout the API; agent 0 is the uncontrolled
leader. Each follower i applies u_i = -kappa * sum_j l_ij * B'P xhat_j^i,
which equals -kappa * B'P w_i with w_i = sum_j l_ij (xhat_j^i - xhat_i^i)
because Laplacian rows sum to zero.

Triggering compares delta_i = e_i' S_i e_i + |w_i' R_i e_i| against the
threshold sigma_i * w_i' Theta_i w_i, plus a constant relaxation xi in the
practical variant. S_i, Theta_i and R_i are s_i Q, theta_i Q and 2 kappa Q
for one Q = P B B' P, so only Q and the coefficients are stored. S_i's
coefficient is used exactly as derived, with no clamping: a negative
coefficient only delays triggering.

The Zeno guard holds a practical-CTC run record's measured inter-event gaps
against the analytic lower bound tau_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DegenerateError, UsageError
from .graph import Laplacian
from .linalg import eigvalsh, spectral_norm

if TYPE_CHECKING:
    from .dynamics import LipschitzData


@dataclass(frozen=True)
class TriggerParams:
    """Trigger gains, and the coefficients of S_i = s_i Q and Theta_i = theta_i Q.

    ``Q`` is P B B' P; R_i = 2 kappa Q for every agent.
    """

    kappa: float
    sigma: np.ndarray
    b: np.ndarray
    xi: float
    s_coeff: np.ndarray
    theta_coeff: np.ndarray
    B: np.ndarray
    BtP: np.ndarray
    Q: np.ndarray


@dataclass
class TriggerState:
    """Per-agent trigger quantities of one evaluation, and which agents fired."""

    e: np.ndarray
    w: np.ndarray
    delta: np.ndarray
    threshold: np.ndarray
    fired: np.ndarray

    @classmethod
    def initial(cls, n_agents: int, state_dim: int) -> "TriggerState":
        return cls(
            e=np.zeros((n_agents, state_dim)),
            w=np.zeros((n_agents, state_dim)),
            delta=np.zeros(n_agents),
            threshold=np.zeros(n_agents),
            fired=np.zeros(n_agents, dtype=bool),
        )


def _vector_param(value, n: int, name: str, low: float, high) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ConfigError(f"{name} must be a scalar or a length-{n} vector, got shape {arr.shape}")
    for i, v in enumerate(arr):
        hi = high[i] if isinstance(high, np.ndarray) else high
        if not (low < v < hi):
            raise ConfigError(
                f"{name}[{i}] must satisfy {low} < {name} < {hi}, got {v!r}"
            )
    return arr


def build_trigger_params(
    lap: Laplacian,
    P: np.ndarray,
    B: np.ndarray,
    kappa1: float,
    kappa2: float,
    sigma,
    b=None,
    xi: float = 0.0,
) -> TriggerParams:
    """Assemble gains and the coefficients of S_i and Theta_i for one topology."""
    if kappa1 <= 0.0:
        raise ConfigError(f"kappa1 must be > 0, got {kappa1!r}")
    if kappa2 <= 0.0:
        raise ConfigError(f"kappa2 must be > 0, got {kappa2!r}")
    if xi < 0.0:
        raise ConfigError(f"xi must be >= 0, got {xi!r}")
    P = np.asarray(P, dtype=float)
    B = np.asarray(B, dtype=float)
    L = lap.L
    n_agents = L.shape[0]
    l_diag = np.diag(L)
    if np.any(l_diag <= 0.0):
        raise ConfigError("every agent needs at least one edge (l_ii > 0)")

    sigma = _vector_param(sigma, n_agents, "sigma", 0.0, 1.0)
    if b is None:
        b = 1.0 / (5.0 * l_diag)
    b = _vector_param(b, n_agents, "b", 0.0, 1.0 / (2.0 * l_diag))

    kappa = kappa1 + kappa2
    Q = P @ B @ B.T @ P
    eps = lap.epsilon
    with np.errstate(all="ignore"):  # a b_i near 0 overflows; refused below
        theta_coeff = 2.0 * kappa2 * eps * (1.0 - 2.0 * l_diag * b)
        s_coeff = (
            2.0 * kappa * l_diag * b
            + 2.0 * kappa * l_diag / b
            + kappa2 * eps * (4.0 * l_diag / b - n_agents * lap.M * (b / 2.0 + 1.0 / (2.0 * b)))
        )
    # A NaN s_i would never fire: NaN > 0 is false.
    bad = np.flatnonzero(~(np.isfinite(s_coeff) & np.isfinite(theta_coeff)))
    if bad.size:
        i = bad[0]
        raise ConfigError(
            f"b[{i}] = {float(b[i])!r} makes agent {i}'s trigger coefficients non-finite"
            f" (s = {float(s_coeff[i])!r}, theta = {float(theta_coeff[i])!r})"
        )
    negative = np.flatnonzero(eigvalsh(theta_coeff[:, None, None] * Q)[:, 0] < -1e-12)
    if negative.size:
        raise ConfigError(f"Theta[{negative[0]}] is not positive semidefinite")
    return TriggerParams(
        kappa=float(kappa),
        sigma=sigma,
        b=b,
        xi=float(xi),
        s_coeff=s_coeff,
        theta_coeff=theta_coeff,
        B=B,
        BtP=B.T @ P,
        Q=Q,
    )


def check_gain_condition(kappa1: float, rho: float, mu: float) -> None:
    """Validate the coupling-gain inequality kappa1 > rho/(2 mu)."""
    bound = rho / (2.0 * mu)
    if not (kappa1 > bound):
        raise ConfigError(f"kappa1 must exceed rho/(2*mu) = {bound!r}, got {kappa1!r}")


def error_growth_gain(kappa: float, bbtp_norm: float, w_max: float, Delta: float, k: float) -> float:
    """Scale nu = kappa |B B'P| (w_max + Delta) / k of the inter-event error bound."""
    if k <= 0.0:
        raise ConfigError(f"k must be > 0, got {k!r}")
    return kappa * bbtp_norm * (w_max + Delta) / k


def tau_lower_bound(
    k: float, nu: float, S_norm: float, R_norm: float, w_max: float, xi: float
) -> float:
    """Closed-form positive lower bound on the inter-event time of one agent.

    With c1 = |S_i| nu^2 and c2 = w_max |R_i| nu, the bound is
    tau = (1/k) log( sqrt(xi/c1 + c2^2/(4 c1^2)) + 1 - c2/(2 c1) ).
    """
    if k <= 0.0:
        raise ConfigError(f"k must be > 0, got {k!r}")
    if xi <= 0.0:
        raise ConfigError(f"xi must be > 0, got {xi!r}")
    if nu <= 0.0:
        raise DegenerateError(
            f"nu = {nu!r}: the estimation error never grows, inter-event time unbounded"
        )
    c1 = S_norm * nu * nu
    c2 = w_max * R_norm * nu
    if c1 == 0.0:
        raise DegenerateError("c1 = |S_i| nu^2 is zero; inter-event time unbounded")
    half = c2 / (2.0 * c1)
    return (1.0 / k) * math.log(math.sqrt(xi / c1 + half * half) + 1.0 - half)


def practical_consensus_bound(N: int, xi: float, q: float, P: np.ndarray) -> float:
    """Steady-state bound N xi / (q lambda_min(P)) on the squared consensus distance."""
    if q <= 0.0:
        raise ConfigError(f"q must be > 0, got {q!r}")
    P = np.asarray(P, dtype=float)
    lam_min = float(eigvalsh(P)[0])
    if lam_min <= 0.0:
        from .errors import CertificateError

        raise CertificateError("P must be positive definite")
    return N * xi / (q * lam_min)


@dataclass(frozen=True)
class ZenoGuardReport:
    """Per-agent comparison of measured minimum inter-event gaps against tau_i."""

    min_inter_event: tuple
    tau: tuple
    w_max: tuple
    satisfied: bool


def zeno_guard_report(record, params: TriggerParams, lipschitz: LipschitzData) -> ZenoGuardReport:
    """Check min inter-event time >= tau_i per agent on a practical-CTC ``RunRecord``.

    Agents with fewer than two events are vacuously satisfied. tau_i uses the
    run-measured w_max and the grid-estimated k and Delta, so a record
    without its |w| series (one reloaded from files) is refused.
    """
    if record.config is None or record.config.ctc != "practical":
        raise UsageError(
            "the Zeno guard applies only to practical-CTC records;"
            " the asymptotic trigger carries no inter-event guarantee"
        )
    if record.w_max is None:
        raise UsageError(
            "the Zeno guard needs the run's |w| series, which a reloaded record lacks"
        )
    bbtp_norm = spectral_norm(params.B @ params.BtP)
    # |S_i| for every agent in one stacked call; |R_i| = |2 kappa Q| is the same for all.
    # A degenerate s_i Q fails the stack, and each agent then takes its own norms.
    try:
        stacked = (
            spectral_norm(params.s_coeff[:, None, None] * params.Q).tolist(),
            spectral_norm(2.0 * params.kappa * params.Q),
        )
    except Exception:
        stacked = None
    gaps = record.min_inter_event
    taus = []
    w_maxes = [float(v) for v in record.w_max]
    for i, w_max in enumerate(w_maxes):
        try:
            nu = error_growth_gain(params.kappa, bbtp_norm, w_max, lipschitz.Delta, lipschitz.k)
            if stacked is None:
                s_norm = spectral_norm(params.s_coeff[i] * params.Q)
                r_norm = spectral_norm(2.0 * params.kappa * params.Q)
            else:
                s_norm, r_norm = stacked[0][i], stacked[1]
            tau = tau_lower_bound(lipschitz.k, nu, s_norm, r_norm, w_max, params.xi)
        except Exception:
            tau = math.inf
        taus.append(tau)
    return ZenoGuardReport(
        min_inter_event=tuple(gaps),
        tau=tuple(taus),
        w_max=tuple(w_maxes),
        satisfied=all(not gap < tau for gap, tau in zip(gaps, taus)),
    )

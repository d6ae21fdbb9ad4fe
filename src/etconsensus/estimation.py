"""Open-loop estimates with broadcast resets, stepped together with the plant.

In the scheme each agent i holds an estimate of itself and of each neighbour.
Every estimate integrates the pure drift under the shared parameter estimate;
the control input never enters, so between broadcasts an estimate depends
only on its value at the last reset. When agent j broadcasts, every holder of
an estimate of j (j itself and each neighbour) resets it to j's true state.

All holders run the same integrator on the same parameter estimate and reset
at the same instants, so every copy of an estimate of j is bit-identical to
every other. The simulator therefore stores one estimate per agent: row j of
an (N, n) array ``xhat``. ``propagate_all`` steps the true states and the
estimates as one stacked (2N, n) array in a single integrator call, and
``apply_broadcast`` resets one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, TopologyError
from .integrate import Field, step_fn


# The benchmark's tracing counts constructions of this class; the bank-form
# test reference builds its banks from it.
@dataclass
class EstimatorBank:
    """Estimates held by one agent: its own state plus each neighbour's."""

    owner: int
    agents: tuple[int, ...]
    estimates: np.ndarray
    theta_hat: np.ndarray
    _pos: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.owner not in self.agents:
            raise TopologyError(
                f"bank for agent {self.owner} must hold the owner's own estimate"
            )
        if len(set(self.agents)) != len(self.agents):
            raise TopologyError(f"bank agent list {self.agents} has duplicates")
        if self.estimates.shape[0] != len(self.agents):
            raise TopologyError(
                f"bank holds {self.estimates.shape[0]} estimates for {len(self.agents)} agents"
            )
        self._pos = {j: t for t, j in enumerate(self.agents)}

    def holds(self, j: int) -> bool:
        return j in self._pos

    def estimate_of(self, j: int) -> np.ndarray:
        try:
            return self.estimates[self._pos[j]]
        except KeyError:
            raise TopologyError(
                f"agent {self.owner} holds no estimate of agent {j}"
            ) from None


def propagate_all(
    y: np.ndarray, field: Field, h: float, scheme: str = "rk4", t: float = 0.0
) -> np.ndarray:
    """Advance y = [x; xhat], (2N, n), from time ``t`` by one integrator step of ``field``.

    Raises NumericsError naming the first estimate that becomes non-finite
    and the time it does; the caller checks the true-state rows.
    """
    new = step_fn(scheme)(field, y, h)
    n_agents = y.shape[0] // 2
    if not np.isfinite(new[n_agents:]).all():
        j = int((~np.isfinite(new[n_agents:]).all(axis=1)).argmax())
        raise NumericsError(
            f"estimator state of agent {j} became non-finite at t = {t + h:.6f}:"
            f" xhat = {new[n_agents + j].tolist()}"
        )
    return new


def apply_broadcast(xhat: np.ndarray, sender: int, state: np.ndarray) -> None:
    """Reset the estimate of ``sender``, held by it and its neighbours, to ``state``."""
    n = xhat.shape[0]
    if not (0 <= sender < n):
        raise TopologyError(f"unknown sender {sender}; agents are 0..{n - 1}")
    xhat[sender] = state

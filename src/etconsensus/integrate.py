"""Fixed-step explicit integrators, stepping the plant and the estimates as one stack."""

from __future__ import annotations

from typing import Callable

import numpy as np

Field = Callable[[np.ndarray], np.ndarray]


def euler_step(field: Field, y: np.ndarray, h: float) -> np.ndarray:
    return y + h * field(y)


def rk4_step(field: Field, y: np.ndarray, h: float) -> np.ndarray:
    k1 = field(y)
    k2 = field(y + (h / 2.0) * k1)
    k3 = field(y + (h / 2.0) * k2)
    k4 = field(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_STEPPERS = {"euler": euler_step, "rk4": rk4_step}
INTEGRATORS = tuple(_STEPPERS)


def step_fn(name: str):
    """The stepper of an integrator name, one of ``INTEGRATORS`` (``prepare`` checks it)."""
    return _STEPPERS[name]

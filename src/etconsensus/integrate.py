"""Fixed-step explicit integrators, stepping the plant and the estimates as one stack.

A field writes dy/dt at y into a buffer, ``field(y, out)``. A stepper works
in ``stages`` (k1..k4 and the stage input, from ``stage_buffers``, allocated
once by the caller), keeps its textbook form's operations, and returns the
state one step on as a fresh array.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Field = Callable[[np.ndarray, np.ndarray], None]


def stage_buffers(shape) -> tuple:
    """The five stage buffers of a stepper on states of ``shape``."""
    return tuple(np.empty((5, *shape)))


def euler_step(field: Field, y: np.ndarray, h: float, stages: tuple) -> np.ndarray:
    """y + h f(y)."""
    k1 = stages[0]
    field(y, k1)
    return y + np.multiply(h, k1, k1)


def rk4_step(field: Field, y: np.ndarray, h: float, stages: tuple) -> np.ndarray:
    """y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), each stage input y + c h k."""
    k1, k2, k3, k4, ys = stages
    field(y, k1)
    np.add(y, np.multiply(h / 2.0, k1, ys), ys)
    field(ys, k2)
    np.add(y, np.multiply(h / 2.0, k2, ys), ys)
    field(ys, k3)
    np.add(y, np.multiply(h, k3, ys), ys)
    field(ys, k4)
    np.add(k1, np.multiply(2.0, k2, k2), k2)
    np.add(k2, np.multiply(2.0, k3, k3), k2)
    np.add(k2, k4, k2)
    return y + np.multiply(h / 6.0, k2, k2)


_STEPPERS = {"euler": euler_step, "rk4": rk4_step}
INTEGRATORS = tuple(_STEPPERS)


def step_fn(name: str):
    """The stepper of an integrator name, one of ``INTEGRATORS`` (``prepare`` checks it)."""
    return _STEPPERS[name]

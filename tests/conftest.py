"""Shared fixtures: cached simulation runs and reference oracles.

The run cache is session scoped because the acceptance checks reuse the same
sixteen runs many times; every cached entry is keyed by the preset name plus
the exact override values, so no test can observe another test's mutations.
"""

from __future__ import annotations

import numpy as np
import pytest

from etconsensus.config import config_from_dict, preset_config
from etconsensus.dynamics import estimate_lipschitz, make_model, trig_grid
from etconsensus.graph import Graph
from etconsensus.simulator import run


def drift(model, x, theta) -> np.ndarray:
    """The model's drift at states ``x`` under ``theta``, as a fresh array."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    model.f(x, np.asarray(theta, dtype=float), out)
    return out


def paper_dict(**overrides) -> dict:
    """Canonical five-agent benchmark config as a plain dict."""
    d = preset_config("paper-asym-040")
    d.update(overrides)
    return d


def paper_cfg(**overrides):
    """Validated SimConfig for the five-agent benchmark."""
    return config_from_dict(paper_dict(**overrides))


def charpoly_eigs(a) -> np.ndarray:
    """Eigenvalues through the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier recursion and the roots from
    numpy's companion-matrix solver, so this shares no code with the package's
    Jacobi sweep eigensolver.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    eye = np.eye(n)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * eye
        coeffs.append(-np.trace(a @ m) / k)
    return np.sort(np.roots(coeffs).real)


def random_connected_graph(rng: np.random.Generator, n: int, extra: int = 2,
                           weighted: bool = False) -> Graph:
    """Random spanning tree plus a few extra edges; optionally weighted."""
    edges = []
    seen = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        w = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
        edges.append([j + 1, i + 1, w])
        seen.add((j, i))
    for _ in range(extra):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        w = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
        edges.append([key[0] + 1, key[1] + 1, w])
    return Graph.from_edges(n, edges)


@pytest.fixture(scope="session")
def run_cache():
    """Memoized preset runner: run_cache(preset, **overrides) -> RunRecord."""
    cache: dict = {}

    def get(preset: str, **overrides):
        key = (preset, tuple(sorted((k, repr(v)) for k, v in overrides.items())))
        if key not in cache:
            d = preset_config(preset)
            d.update(overrides)
            cache[key] = run(config_from_dict(d))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def lipschitz_cache():
    """Memoized growth constants on the standard trig grid, per theta_hat."""
    cache: dict = {}

    def get(theta_hat):
        key = tuple(np.atleast_1d(np.asarray(theta_hat, dtype=float)).tolist())
        if key not in cache:
            model = make_model("paper-sys", [0.5], list(key))
            cache[key] = (model, estimate_lipschitz(model, trig_grid()))
        return cache[key]

    return get

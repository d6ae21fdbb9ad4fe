"""Seeded inputs for the four benchmark workloads.

Each generator returns plain JSON-ready dicts; the program only ever sees
them as config files passed to its CLI. Seed 0 gives the paper's five-agent
presets exactly (and a fixed 80-agent graph); any other seed draws the
initial states x0 uniformly from [-1, 1]^2 per agent and, for network-80,
also the graph.
"""

from __future__ import annotations

import numpy as np

# The paper's five-agent leader-follower benchmark (agent 1 leads), copied
# here so the benchmark fixes its own inputs instead of reading the program's
# preset table.
_PAPER_EDGES = [[1, 2, 1.0], [2, 3, 1.0], [2, 5, 1.0], [3, 4, 1.0]]
_PAPER_X0 = [
    [0.95, 0.63],
    [-0.70, -0.73],
    [-0.33, -0.54],
    [-0.25, 0.02],
    [0.86, 0.01],
]


def _paper_x0(seed: int) -> list:
    if seed == 0:
        return [list(x) for x in _PAPER_X0]
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(5, 2)).tolist()


def _paper_config(x0: list, **overrides) -> dict:
    cfg = {
        "model": "paper-sys",
        "theta": [0.5],
        "theta_hat": [0.40],
        "n_agents": 5,
        "edges": [list(e) for e in _PAPER_EDGES],
        "x0": x0,
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
    cfg.update(overrides)
    return cfg


def paper_asym(seed: int) -> dict:
    """``run`` on paper-asym-040 for 30 s with RK4.

    Chosen because the asymptotic trigger broadcasts often (12,549 events over
    3,000 steps at seed 0): the step loop, the estimator banks and
    ``apply_broadcast`` carry the run, and no analysis grid is ever built.
    This is the workload that exercises per-step and per-broadcast costs.
    """
    return {"config": _paper_config(_paper_x0(seed), duration=30.0)}


def paper_zeno(seed: int) -> dict:
    """``run`` on paper-zeno-040 (30 s, RK4), then ``check-cmf`` on it.

    Chosen because the practical trigger broadcasts rarely (371 events at
    seed 0), so broadcast cost is near zero, while the CLI's Lipschitz grid
    and Zeno guard take most of the run. The Lipschitz grid and ``check-cmf``
    each evaluate 31,752 grid points (15,876 states x 2 parameter values),
    each through a 2x2 Jacobi ``eigvalsh``. This is the workload for the
    analysis grids; paper-asym is its bypass.
    """
    return {"config": _paper_config(_paper_x0(seed), ctc="practical", xi=20.0, duration=30.0)}


N_NETWORK = 80
_EXTRA_EDGES = 20


def _random_edges(rng: np.random.Generator, n: int, extra: int) -> list:
    """Random spanning tree plus up to ``extra`` distinct chords, 1-based.

    Same construction as the test suite's random connected graph: node i
    attaches to a uniformly drawn earlier node, then ``extra`` draws of
    (i, j) add an edge unless it is a self-loop or already present.
    """
    edges = []
    seen = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append([j + 1, i + 1, 1.0])
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
        edges.append([key[0] + 1, key[1] + 1, 1.0])
    return edges


def network_80(seed: int) -> dict:
    """``run`` on 80 agents, asymptotic trigger, 5 s, RK4.

    Chosen to measure the layers that scale with the agent count: the Jacobi
    Laplacian eigensolver (run twice per invocation, once when the config is
    validated and again inside ``run``) and the per-agent Python loops of
    the step. Broadcast is bypassed: the trigger gain s_i carries the term
    -kappa2 * epsilon * N * M_i * (b_i/2 + 1/(2 b_i)), with M_i the i-th row
    sum of L^2. At N = 80 it outweighs the positive terms for every agent, so
    s_i < 0 and the trigger never fires (0 events at seed 0). The gain
    kappa1 = max(0.1, rho/mu) satisfies kappa1 > rho/(2 mu), which 0.1 alone
    fails on random trees of this size; mu comes from numpy's LAPACK here,
    outside any timed region, so the program's own solver is only timed
    inside the CLI.
    """
    rng = np.random.default_rng(seed)
    edges = _random_edges(rng, N_NETWORK, _EXTRA_EDGES)
    x0 = rng.uniform(-1.0, 1.0, size=(N_NETWORK, 2)).tolist()
    adj = np.zeros((N_NETWORK, N_NETWORK))
    for i, j, w in edges:
        adj[i - 1, j - 1] = adj[j - 1, i - 1] = w
    lap = np.diag(adj.sum(axis=1)) - adj
    mu = float(np.linalg.eigvalsh(lap[1:, 1:])[0])
    rho = 0.02
    cfg = _paper_config(
        x0,
        n_agents=N_NETWORK,
        edges=edges,
        duration=5.0,
        sigma=[0.8] + [0.9] * (N_NETWORK - 1),
        kappa1=max(0.1, rho / mu),
        rho=rho,
    )
    return {"config": cfg}


SWEEP_GRID = {
    "theta_hat": [[0.35], [0.40], [0.45]],
    "sigma": [0.5, 0.7, 0.9],
    "integrator": ["euler", "rk4"],
}


def sweep(seed: int) -> dict:
    """``sweep`` over paper-asym-040 at 10 s: 3 x 3 x 2 = 18 points.

    Chosen as the only workload made of many short configs: it pays
    ``config_from_dict`` and ``prepare`` per point, writes 18 output
    directories, and at ``--jobs 2`` goes through the process pool. It runs
    at ``--jobs 1`` and ``--jobs 2`` so pool overhead and parallel speed-up
    both show.
    """
    base = _paper_config(_paper_x0(seed))
    return {"config": base, "sweep": {"base": base, "grid": SWEEP_GRID}}


GENERATORS = {
    "paper-asym": paper_asym,
    "paper-zeno": paper_zeno,
    "network-80": network_80,
    "sweep": sweep,
}

"""Communication topology: weighted undirected graphs and Laplacian spectral data.

Agent 1 (index 0) is the leader by convention. The graph must be connected;
spectral quantities that drive the trigger design are derived from the
Laplacian L, its follower block L22, and the row sums of L squared.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConnectivityError, TopologyError
from .linalg import _jacobi, is_symmetric


@dataclass(frozen=True)
class Graph:
    """Undirected weighted communication graph over ``n_agents`` nodes."""

    n_agents: int
    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=float)
        object.__setattr__(self, "adjacency", adj)
        if self.n_agents < 1:
            raise TopologyError(f"n_agents must be >= 1, got {self.n_agents}")
        if adj.shape != (self.n_agents, self.n_agents):
            raise TopologyError(
                f"adjacency must have shape {(self.n_agents, self.n_agents)}, got {adj.shape}"
            )
        if not is_symmetric(adj):
            raise TopologyError("adjacency matrix must be symmetric")
        if np.any(adj < 0.0):
            raise TopologyError("edge weights must be nonnegative")
        if np.any(np.diag(adj) != 0.0):
            raise TopologyError("self-loops are not allowed")
        if not _connected(adj):
            raise ConnectivityError("communication graph is not connected")

    @classmethod
    def from_edges(cls, n_agents: int, edges) -> "Graph":
        """Build a graph from a 1-based edge list of [i, j] or [i, j, weight]."""
        adj = np.zeros((n_agents, n_agents))
        for edge in edges:
            if len(edge) == 2:
                i, j = edge
                w = 1.0
            elif len(edge) == 3:
                i, j, w = edge
            else:
                raise TopologyError(f"edge must be [i, j] or [i, j, weight], got {edge!r}")
            if not (1 <= i <= n_agents and 1 <= j <= n_agents):
                raise TopologyError(
                    f"edge {edge!r} references an agent outside 1..{n_agents}"
                )
            if i == j:
                raise TopologyError(f"edge {edge!r} is a self-loop")
            w = float(w)
            if w <= 0.0:
                raise TopologyError(f"edge {edge!r} must have a positive weight")
            if adj[i - 1, j - 1] != 0.0:
                raise TopologyError(f"duplicate edge between agents {i} and {j}")
            adj[i - 1, j - 1] = w
            adj[j - 1, i - 1] = w
        return cls(n_agents=n_agents, adjacency=adj)

    def neighbours(self, i: int) -> np.ndarray:
        """0-based indices of the agents adjacent to agent ``i``."""
        return np.nonzero(self.adjacency[i])[0]


def _connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    queue = deque([0])
    seen[0] = True
    while queue:
        u = queue.popleft()
        for v in np.nonzero(adj[u])[0]:
            if not seen[v]:
                seen[v] = True
                queue.append(int(v))
    return bool(seen.all())


@dataclass(frozen=True)
class Laplacian:
    """Laplacian of a connected graph plus the spectral data used by the triggers.

    mu is the smallest eigenvalue of the follower block L22 (rows and columns
    2..N), lambda_max the largest eigenvalue of L, epsilon a mixing weight in
    (0, 1/lambda_max], and M[i] the i-th row sum of L squared.
    """

    L: np.ndarray
    mu: float
    lambda_max: float
    epsilon: float
    M: np.ndarray


def build_laplacian(graph: Graph, epsilon: float | None = None) -> Laplacian:
    """Laplacian and spectral data for ``graph``; epsilon defaults to 1/lambda_max."""
    if graph.n_agents < 2:
        raise TopologyError("at least 2 agents are required to form a follower block")
    adj = graph.adjacency
    L = np.diag(adj.sum(axis=1)) - adj
    mu, lambda_max = spectral_bounds(L)
    if epsilon is None:
        epsilon = 1.0 / lambda_max
    else:
        epsilon = float(epsilon)
        if not (0.0 < epsilon <= (1.0 / lambda_max) * (1.0 + 1e-12)):
            raise ConfigError(
                f"epsilon must satisfy 0 < epsilon <= 1/lambda_max(L) = {1.0 / lambda_max!r},"
                f" got {epsilon!r}"
            )
    M = (L * L).sum(axis=1)
    return Laplacian(
        L=L,
        mu=mu,
        lambda_max=lambda_max,
        epsilon=epsilon,
        M=M,
    )


def spectral_bounds(L: np.ndarray) -> tuple[float, float]:
    """(mu, lambda_max) of a Laplacian: min eigenvalue of L22 and max of L."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise TopologyError(f"Laplacian must be square, got shape {L.shape}")
    if L.shape[0] < 2:
        raise TopologyError("spectral bounds need at least 2 agents")
    if not is_symmetric(L):
        raise TopologyError("Laplacian must be symmetric")
    stack = np.zeros((2,) + L.shape)  # L22 bordered by a zero row and column, and L
    stack[0, :-1, :-1], stack[1] = L[1:, 1:], L
    l22, full = _jacobi(stack, (len(L) - 1, len(L)))
    return float(l22[0]), float(full[-1])

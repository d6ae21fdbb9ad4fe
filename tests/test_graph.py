"""Graph construction, Laplacian spectral data, and the Jacobi eigensolver."""

import math

import numpy as np
import pytest

from conftest import charpoly_eigs, random_connected_graph
from etconsensus.errors import ConfigError, ConnectivityError, TopologyError
from etconsensus.graph import Graph, build_laplacian, spectral_bounds
from etconsensus.linalg import eigvalsh, is_symmetric, spectral_norm

FIG_EDGES = [[1, 2], [2, 3], [2, 5], [3, 4]]


def fig_graph():
    return Graph.from_edges(5, FIG_EDGES)


class TestEigensolver:
    def test_matches_charpoly_oracle_on_random_symmetric(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            for _ in range(20):
                a = rng.normal(size=(n, n))
                a = (a + a.T) / 2.0
                got = eigvalsh(a.copy())
                want = charpoly_eigs(a)
                assert np.allclose(got, want, rtol=0.0, atol=1e-9)

    def test_known_closed_form_eigenvalues(self):
        p = np.array([[5.0, 2.0], [2.0, 1.0]])
        got = eigvalsh(p)
        want = np.array([3.0 - 2.0 * math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(2.0)])
        assert np.allclose(got, want, atol=1e-12)

    def test_diagonal_and_degenerate_inputs(self):
        assert np.allclose(eigvalsh(np.diag([3.0, -1.0, 2.0])), [-1.0, 2.0, 3.0])
        assert eigvalsh(np.zeros((4, 4))).tolist() == [0.0] * 4
        assert eigvalsh(np.array([[2.5]])).tolist() == [2.5]

    def test_spectral_norm_matches_numpy(self):
        rng = np.random.default_rng(11)
        for shape in [(2, 2), (3, 5), (5, 3), (1, 4)]:
            for _ in range(10):
                a = rng.normal(size=shape)
                assert math.isclose(
                    spectral_norm(a), np.linalg.norm(a, 2), rel_tol=1e-9, abs_tol=1e-12
                )

    def test_spectral_norm_of_vector_is_euclidean(self):
        v = np.array([3.0, 4.0])
        assert math.isclose(spectral_norm(v), 5.0, rel_tol=1e-12)

    def test_min_max_eig_and_symmetry_predicate(self):
        p = np.array([[5.0, 2.0], [2.0, 1.0]])
        assert math.isclose(eigvalsh(p)[0], 3.0 - 2.0 * math.sqrt(2.0), rel_tol=1e-12)
        assert math.isclose(eigvalsh(p)[-1], 3.0 + 2.0 * math.sqrt(2.0), rel_tol=1e-12)
        assert is_symmetric(p)
        assert not is_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGraphValidation:
    def test_from_edges_accepts_two_and_three_tuples(self):
        g = Graph.from_edges(3, [[1, 2], [2, 3, 2.5]])
        assert g.adjacency[0, 1] == 1.0
        assert g.adjacency[1, 2] == 2.5
        assert g.adjacency[2, 1] == 2.5

    def test_neighbours(self):
        g = fig_graph()
        assert g.neighbours(1).tolist() == [0, 2, 4]
        assert g.neighbours(3).tolist() == [2]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(TopologyError):
            Graph.from_edges(3, [[1, 2], [2, 3], [2, 1]])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Graph.from_edges(3, [[1, 1], [2, 3]])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(TopologyError):
            Graph.from_edges(3, [[1, 2], [3, 4]])
        with pytest.raises(TopologyError):
            Graph.from_edges(3, [[0, 2], [2, 3]])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(TopologyError):
            Graph.from_edges(2, [[1, 2, 0.0]])
        with pytest.raises(TopologyError):
            Graph.from_edges(2, [[1, 2, -1.0]])

    def test_asymmetric_adjacency_rejected(self):
        adj = np.zeros((2, 2))
        adj[0, 1] = 1.0
        with pytest.raises(TopologyError):
            Graph(2, adj)

    def test_negative_adjacency_rejected(self):
        adj = -np.ones((2, 2)) + np.eye(2)
        with pytest.raises(TopologyError):
            Graph(2, adj)

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ConnectivityError):
            Graph.from_edges(4, [[1, 2], [3, 4]])


class TestLaplacianConstants:
    def test_benchmark_spectral_data(self):
        lap = build_laplacian(fig_graph())
        assert np.diag(lap.L).tolist() == [1.0, 3.0, 2.0, 1.0, 1.0]
        assert lap.L[0, 1] == -1.0
        assert lap.L.sum(axis=1).tolist() == [0.0] * 5
        assert math.isclose(lap.mu, 0.17290908471479785, rel_tol=1e-9)
        assert math.isclose(lap.lambda_max, 4.170086486626034, rel_tol=1e-9)
        assert math.isclose(lap.epsilon, 1.0 / lap.lambda_max, rel_tol=1e-12)
        assert lap.M.tolist() == [2.0, 12.0, 6.0, 2.0, 2.0]

    def test_epsilon_override_accepted_in_range(self):
        lap = build_laplacian(fig_graph(), epsilon=0.1)
        assert lap.epsilon == 0.1

    def test_epsilon_override_rejected_out_of_range(self):
        with pytest.raises(ConfigError, match="epsilon"):
            build_laplacian(fig_graph(), epsilon=0.5)
        with pytest.raises(ConfigError, match="epsilon"):
            build_laplacian(fig_graph(), epsilon=0.0)
        with pytest.raises(ConfigError, match="epsilon"):
            build_laplacian(fig_graph(), epsilon=-0.1)

    def test_single_agent_rejected(self):
        g = Graph(1, np.zeros((1, 1)))
        with pytest.raises(TopologyError):
            build_laplacian(g)

    def test_spectral_bounds_validation(self):
        with pytest.raises(TopologyError):
            spectral_bounds(np.zeros((1, 1)))
        bad = np.array([[1.0, -1.0], [0.0, 1.0]])
        with pytest.raises(TopologyError):
            spectral_bounds(bad)

    def test_spectral_bounds_match_oracle(self):
        lap = build_laplacian(fig_graph())
        mu, lam = spectral_bounds(lap.L)
        want_mu = charpoly_eigs(lap.L[1:, 1:])[0]
        want_lam = charpoly_eigs(lap.L)[-1]
        assert math.isclose(mu, want_mu, rel_tol=1e-9)
        assert math.isclose(lam, want_lam, rel_tol=1e-9)


class TestLaplacianProperties:
    def test_random_graph_invariants(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            n = int(rng.integers(2, 9))
            g = random_connected_graph(rng, n, extra=int(rng.integers(0, 3)),
                                       weighted=bool(trial % 2))
            lap = build_laplacian(g)
            ones = np.ones(n)
            assert np.allclose(lap.L @ ones, 0.0, atol=1e-12)
            for _ in range(5):
                x = rng.normal(size=n)
                assert x @ lap.L @ x >= -1e-12
            assert lap.mu > 0.0
            assert lap.epsilon * lap.lambda_max <= 1.0 + 1e-12
            # The mixing inequality behind the trigger design.
            m = lap.L - lap.epsilon * (lap.L @ lap.L)
            for _ in range(5):
                o = rng.normal(size=n)
                assert o @ m @ o >= -1e-9 * float(o @ o)

    def test_eigenvalues_match_oracle_on_random_laplacians(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            g = random_connected_graph(rng, n, extra=1, weighted=True)
            lap = build_laplacian(g)
            assert np.allclose(eigvalsh(lap.L.copy()), charpoly_eigs(lap.L), atol=1e-9)

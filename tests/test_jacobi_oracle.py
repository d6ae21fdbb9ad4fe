"""The lockstep Jacobi solver against the rotation loop it replaced.

``eigvalsh`` computes the two rotated rows with one product, mirrors them
into the two columns, and takes the rotated diagonal pair from the 2x2 block,
with the scalar angle arithmetic in Python floats; a (K, n, n) stack and
``spectral_bounds``' pair of L22 (bordered by a zero row and column) and L
share those products across the matrices. ``reference_eigvalsh`` below is
the earlier loop for one matrix, which formed the row and the column products
separately with numpy scalars. On a bitwise-symmetric matrix (and on any 2x2
one) the two must agree bit for bit, for each member of a stack too.
"""

import math

import numpy as np
import pytest

from conftest import random_connected_graph
from etconsensus.errors import NumericsError
from etconsensus.graph import Graph, spectral_bounds
from etconsensus.linalg import _jacobi, eigvalsh


def reference_eigvalsh(a) -> np.ndarray:
    """The earlier cyclic Jacobi loop for one square matrix."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0].copy()
    scale = np.sqrt((a * a).sum())
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(64):
        off = np.sqrt(2.0 * (np.triu(a, 1) ** 2).sum())
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                rows = a[[p, q], :]
                a[[p, q], :] = rot.T @ rows
                cols = a[:, [p, q]]
                a[:, [p, q]] = cols @ rot
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise NumericsError("Jacobi eigenvalue iteration did not converge")
    return np.sort(np.diag(a))


def reference(a) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return reference_eigvalsh(np.asarray(a, dtype=float))


def assert_same_bits(a) -> np.ndarray:
    """eigvalsh(a) against the reference solve, which is returned."""
    want = reference(a)
    got = eigvalsh(a)
    assert got.tobytes() == want.tobytes(), (got, want)
    return want


def assert_same_bounds(L) -> None:
    """eigvalsh on L22 and L, and spectral_bounds(L), against two reference solves."""
    want = (assert_same_bits(L[1:, 1:])[0], assert_same_bits(L)[-1])
    got = spectral_bounds(L)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want], (got, want)


def laplacian(graph) -> np.ndarray:
    adj = graph.adjacency
    return np.diag(adj.sum(axis=1)) - adj


@pytest.mark.parametrize("seed", range(6))
def test_eighty_agent_laplacians(seed):
    # The benchmark's network-80 construction: a random tree plus 20 chords.
    assert_same_bounds(laplacian(random_connected_graph(np.random.default_rng(seed), 80, extra=20)))


@pytest.mark.parametrize("seed", range(2))
def test_weighted_eighty_agent_laplacians(seed):
    rng = np.random.default_rng(seed)
    assert_same_bounds(laplacian(random_connected_graph(rng, 80, extra=20, weighted=True)))


def test_paper_and_smallest_laplacians():
    assert_same_bounds(laplacian(Graph.from_edges(5, [[1, 2], [2, 3], [2, 5], [3, 4]])))
    assert_same_bounds(laplacian(Graph.from_edges(2, [[1, 2, 1.5]])))  # L22 is 1x1
    assert_same_bounds(laplacian(Graph.from_edges(3, [[1, 2], [2, 3, 0.7]])))
    assert_same_bounds(laplacian(Graph.from_edges(3, [[1, 2], [1, 3], [2, 3]])))


def test_stacks_match_each_member_alone():
    rng = np.random.default_rng(47)
    n = 6
    dense = rng.normal(size=(n, n))
    near_diagonal = np.diag(np.arange(1.0, n + 1.0)) + 1e-9 * (dense + dense.T)
    L = laplacian(random_connected_graph(rng, n, extra=3, weighted=True))
    with_inf = np.diag(np.arange(1.0, n + 1.0))
    with_inf[2, 4] = with_inf[4, 2] = math.inf
    # Members that rotate at every pair, converge at different sweeps, or
    # never rotate at all.
    rotating = [dense + dense.T, near_diagonal, L, 1e6 * (dense + dense.T)]
    idle = [np.diag(rng.normal(size=n)), np.zeros((n, n)), -np.zeros((n, n)), with_inf]
    for members in (rotating, idle, rotating + idle, idle[::-1] + rotating[::-1]):
        stack = np.stack(members)
        with np.errstate(over="ignore", invalid="ignore"):
            got = eigvalsh(stack)
        assert got.shape == (len(members), n)
        for row, member in zip(got, members):
            assert row.tobytes() == reference(member).tobytes(), (row, member)


def test_rotation_products_are_per_matrix_and_per_column():
    # The lockstep relies on two properties of numpy's matmul that the BLAS
    # build, not the algorithm, decides: a stacked product gives each matrix
    # the bits of its own product, and a column of (2, 2) @ (2, n) does not
    # depend on n. The bordered L22 takes n + 1 columns instead of n.
    rng = np.random.default_rng(53)
    for n in (3, 8, 79):
        t = rng.uniform(-3.0, 3.0, size=2)
        c = 1.0 / np.sqrt(t * t + 1.0)
        s = t * c
        rot = np.stack([np.array([[ck, sk], [-sk, ck]]) for ck, sk in zip(c, s)])
        rows = rng.normal(size=(2, 2, n + 1)) * 10.0 ** rng.integers(-3, 4, size=(2, 1, 1))
        stacked = np.matmul(rot.transpose(0, 2, 1), rows)
        for k in range(2):
            alone = rot[k].T @ rows[k]
            assert stacked[k].tobytes() == alone.tobytes()
            assert (rot[k].T @ rows[k, :, :n]).tobytes() == alone[:, :n].tobytes()


def test_small_random_laplacians():
    for seed, trials, n_range, extra in ((23, 25, (2, 9), None), (31, 10, (3, 8), 1)):
        rng = np.random.default_rng(seed)
        for trial in range(trials):
            n = int(rng.integers(*n_range))
            k = int(rng.integers(0, 3)) if extra is None else extra
            L = laplacian(random_connected_graph(rng, n, extra=k, weighted=bool(trial % 2)))
            assert_same_bits(L)
            assert_same_bits(L[1:, 1:])


def test_random_symmetric():
    rng = np.random.default_rng(41)
    for n in range(2, 41):
        for _ in range(3):
            a = rng.normal(size=(n, n)) * 10.0 ** int(rng.integers(-6, 7))
            assert_same_bits(a + a.T)


def test_integer_valued_ties():
    # Equal diagonal pairs make theta == 0, which takes t = 1.
    rng = np.random.default_rng(43)
    for n in range(2, 16):
        a = rng.integers(-3, 4, size=(n, n)).astype(float)
        assert_same_bits(a + a.T)
        assert_same_bits(np.full((n, n), 2.0))


def test_special_matrices():
    assert_same_bits(np.diag([3.0, -1.0, 2.0, 0.0]))
    assert_same_bits(np.zeros((5, 5)))
    assert_same_bits(-np.zeros((3, 3)))
    assert_same_bits(np.eye(1) * 7.0)
    for value in (math.inf, -math.inf):
        a = np.array([[1.0, 2.0, 0.0], [2.0, 3.0, 1.0], [0.0, 1.0, value]])
        assert_same_bits(a)
        b = np.array([[1.0, value, 0.5], [value, 3.0, 1.0], [0.5, 1.0, 2.0]])
        assert_same_bits(b)
    assert_same_bits(np.array([[1.0, 2.0], [-3.0, 4.0]]))  # a 2x2 need not be symmetric


def test_lone_2x2_matches_the_loop_and_the_general_solver():
    """A 2-D 2x2 matrix takes the vectorized 2x2 rotation; its bits are the loop's."""
    rng = np.random.default_rng(53)
    a = rng.normal(size=(300, 2, 2)) * 10.0 ** rng.integers(-8, 8, size=(300, 1, 1))
    special = [
        np.zeros((2, 2)),
        -np.zeros((2, 2)),
        np.diag([3.0, -1.0]),
        [[2.0, 0.5], [0.5, 2.0]],  # equal diagonals: theta == 0
        [[1.0, 1e-19], [1e-19, 2.0]],  # |b| <= 1e-18 scale: no rotation
        [[1.0, 1e-16], [1e-16, 1.0]],  # below 1e-15 scale overall
        [[5e-324, 5e-324], [5e-324, 0.0]],
        [[1e300, 1e300], [1e300, 1e300]],
        [[math.inf, 1.0], [1.0, 0.0]],
        [[1.0, 2.0], [-3.0, 4.0]],  # a 2x2 need not be symmetric
    ]
    for m in [*(a + np.swapaxes(a, 1, 2)), *np.array(special)]:
        with np.errstate(over="ignore", invalid="ignore"):
            want = assert_same_bits(m)
            general = _jacobi(m[None].copy(), [2])[0]
        assert general.tobytes() == want.tobytes(), (m, general, want)


def test_nan_raises():
    with pytest.raises(NumericsError):
        eigvalsh(np.array([[1.0, 2.0, math.nan], [2.0, 0.0, 1.0], [math.nan, 1.0, 3.0]]))
    with pytest.raises(NumericsError):
        eigvalsh(np.array([[math.nan, 1.0], [1.0, 0.0]]))

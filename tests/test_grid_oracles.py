"""Batched analysis grids against the per-point loops they replaced.

``check_cmf`` and ``estimate_lipschitz`` evaluate the grid one chunk of
states at a time through stacked Jacobians and the stacked 2x2 Jacobi
rotation. The per-point loops below are the earlier implementations, kept as
oracles: every reported number must agree with them bit for bit, including
which point wins a tie and how a NaN margin is treated.
"""

import math

import numpy as np
import pytest

from etconsensus import dynamics
from etconsensus.dynamics import (
    CmfCertificate,
    SystemModel,
    check_cmf,
    estimate_lipschitz,
    make_model,
    trig_grid,
)
from etconsensus.errors import NumericsError
from etconsensus.linalg import eigvalsh, spectral_norm

THETAS = ([0.5], [0.40], [0.35])
P_PAPER = np.array([[5.0, 2.0], [2.0, 1.0]])


def paper_jacobian_ref(x, theta):
    """The paper model's Jacobian at one state, with scalar math."""
    th = float(theta[0])
    z1 = float(x[0])
    s2 = math.sin(float(x[1]))
    return np.array(
        [
            [0.0, 1.0 - th * s2],
            [-1.0 + th * th * math.cos(2.0 * z1), -th * s2],
        ]
    )


def max_eig_ref(a) -> float:
    return float(eigvalsh(a)[-1])


def spectral_norm_ref(a) -> float:
    """Largest singular value of one matrix, through its Gram matrix."""
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    return float(np.sqrt(max(eigvalsh(gram)[-1], 0.0)))


def check_cmf_ref(model, cert, states, thetas, jacobian):
    """Per-point loop: (worst margin, worst point, number of points)."""
    P = cert.P
    offset = cert.q * P - cert.rho * (P @ model.B @ model.B.T @ P)
    worst = -math.inf
    worst_point = None
    count = 0
    for th in thetas:
        th = np.atleast_1d(np.asarray(th, dtype=float))
        for x in states:
            J = jacobian(x, th)
            m = max_eig_ref(J.T @ P + P @ J + offset)
            count += 1
            if m > worst:
                worst = m
                worst_point = (tuple(float(v) for v in x), tuple(float(v) for v in th))
    return worst, worst_point, count


def lipschitz_ref(model, states, thetas, jacobian):
    """Per-point loop: (k_raw, delta_raw) before the safety factor."""
    k_raw = 0.0
    for th in thetas:
        th = np.atleast_1d(np.asarray(th, dtype=float))
        for x in states:
            k_raw = max(k_raw, spectral_norm_ref(jacobian(x, th)))
    drift = model.f(states, model.theta_hat) - model.f(states, model.theta_true)
    return k_raw, float(np.sqrt((drift * drift).sum(axis=1)).max())


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_cmf_matches(model, cert, states, thetas, jacobian=None):
    want = check_cmf_ref(model, cert, states, thetas, jacobian or model.jacobian_f)
    report = check_cmf(model, cert, states, thetas=thetas)
    assert same_bits(report.worst_margin, want[0])
    assert report.worst_point == want[1]
    assert report.n_points == want[2]
    return report


def assert_lipschitz_matches(model, states, thetas, jacobian=None):
    k_raw, delta_raw = lipschitz_ref(model, states, thetas, jacobian or model.jacobian_f)
    lip = estimate_lipschitz(model, states, thetas=thetas)
    assert same_bits(lip.k_grid_max, k_raw)
    assert same_bits(lip.delta_grid_max, delta_raw)
    assert same_bits(lip.k, lip.safety * k_raw)
    assert same_bits(lip.Delta, lip.safety * delta_raw)
    return lip


def ramp_model(state_dim: int, jac) -> SystemModel:
    """A model whose Jacobian is ``jac(x)``; the drift is the identity."""
    return SystemModel(
        name="ramp",
        state_dim=state_dim,
        input_dim=state_dim,
        param_dim=1,
        f=lambda x, th: np.array(x, dtype=float),
        jacobian_f=lambda x, th: jac(np.asarray(x, dtype=float)),
        B=np.eye(state_dim),
        theta_true=[0.0],
        theta_hat=[0.0],
        param_low=[0.0],
        param_high=[1.0],
    )


def constant_model(F) -> SystemModel:
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    return SystemModel(
        name="constant-jacobian",
        state_dim=n,
        input_dim=n,
        param_dim=1,
        f=lambda x, th: x @ F.T + th[0],
        jacobian_f=lambda x, th: F,
        B=np.eye(n),
        theta_true=[0.0],
        theta_hat=[0.25],
        param_low=[0.0],
        param_high=[1.0],
    )


class TestPaperModel:
    @pytest.mark.parametrize("step", [0.05, 0.5])
    def test_stacked_jacobian_matches_scalar(self, step):
        grid = trig_grid(step=step)
        model = make_model("paper-sys")
        for th in THETAS:
            th = np.asarray(th)
            want = np.array([paper_jacobian_ref(x, th) for x in grid])
            assert same_bits(model.jacobian_f(grid, th), want)

    @pytest.mark.parametrize("rho,step", [(0.02, 0.05), (20.0, 0.5)])
    def test_certificate_sampling_matches_loop(self, rho, step):
        # rho = 0.02 on the 0.05 grid is acceptance criterion 7: 3 x 15876 samples.
        model = make_model("paper-sys")
        cert = CmfCertificate(P=P_PAPER, rho=rho, q=1.0)
        assert_cmf_matches(model, cert, trig_grid(step=step), THETAS, paper_jacobian_ref)

    @pytest.mark.parametrize("theta_hat", [0.40, 0.35])
    def test_lipschitz_matches_loop(self, theta_hat):
        model = make_model("paper-sys", [0.5], [theta_hat])
        thetas = (model.theta_true, model.theta_hat)
        assert_lipschitz_matches(model, trig_grid(), thetas, paper_jacobian_ref)

    @pytest.mark.parametrize("which", ["cmf", "gram"])
    def test_stacked_eigvalsh_matches_loop_on_grid(self, which):
        model = make_model("paper-sys")
        offset = 1.0 * P_PAPER - 0.02 * (P_PAPER @ model.B @ model.B.T @ P_PAPER)
        grid = trig_grid()
        for th in THETAS:
            J = model.jacobian_f(grid, np.asarray(th))
            Jt = np.swapaxes(J, 1, 2)
            mats = Jt @ P_PAPER + P_PAPER @ J + offset if which == "cmf" else Jt @ J
            want = np.array([eigvalsh(m) for m in mats])
            assert same_bits(eigvalsh(mats), want)


class TestStackedEigvalsh:
    def test_random_and_special_2x2(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4000, 2, 2)) * 10.0 ** rng.integers(-8, 8, size=(4000, 1, 1))
        a = a + np.swapaxes(a, 1, 2)
        special = np.array(
            [
                np.zeros((2, 2)),
                -np.zeros((2, 2)),
                np.diag([3.0, -1.0]),
                np.diag([-2.0, 5.0]),
                [[2.0, 0.5], [0.5, 2.0]],  # equal diagonals: theta == 0
                [[-1.0, -3.0], [-3.0, -1.0]],
                [[1.0, 1e-19], [1e-19, 2.0]],  # |b| <= 1e-18 scale: no rotation
                [[1.0, 2e-18], [2e-18, 1.0]],
                [[1.0, 1e-16], [1e-16, 1.0]],  # below 1e-15 scale overall
                [[5e-324, 5e-324], [5e-324, 0.0]],
                [[1e300, 1e300], [1e300, 1e300]],
                [[math.inf, 1.0], [1.0, 0.0]],
            ]
        )
        stack = np.concatenate([a, special, rng.normal(size=(50, 2, 2))])
        with np.errstate(over="ignore"):
            want = np.array([eigvalsh(m) for m in stack])
            got = eigvalsh(stack)
        assert same_bits(got, want)

    def test_other_sizes_and_empty(self):
        rng = np.random.default_rng(12)
        for n in (1, 3):
            a = rng.normal(size=(20, n, n))
            a = a + np.swapaxes(a, 1, 2)
            assert same_bits(eigvalsh(a), np.array([eigvalsh(m) for m in a]))
        assert eigvalsh(np.zeros((0, 2, 2))).shape == (0, 2)

    def test_nan_matrix_raises_like_loop(self):
        bad = np.array([[math.nan, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericsError):
            eigvalsh(bad)
        with pytest.raises(NumericsError):
            eigvalsh(np.stack([np.eye(2), bad]))

    def test_stacked_spectral_norm(self):
        rng = np.random.default_rng(13)
        for shape in ((30, 2, 2), (30, 3, 2), (30, 2, 3)):
            a = rng.normal(size=shape)
            want = np.array([spectral_norm_ref(m) for m in a])
            assert same_bits(spectral_norm(a), want)


class TestChunkOrder:
    def test_tie_across_chunk_boundary_keeps_first(self):
        # The margin of J = diag(x1, -1), P = I, rho = 0, q = 1 is 2 x1 + 1.
        chunk = dynamics._GRID_CHUNK
        n = 2 * chunk + 10
        states = np.column_stack([np.full(n, -1.0), np.arange(n, dtype=float)])
        states[[chunk - 1, chunk, 2 * chunk], 0] = 5.0

        def jac(x):
            J = np.zeros(x.shape[:-1] + (2, 2))
            J[..., 0, 0] = x[..., 0]
            J[..., 1, 1] = -1.0
            return J

        model = ramp_model(2, jac)
        cert = CmfCertificate(P=np.eye(2), rho=0.0, q=1.0)
        report = assert_cmf_matches(model, cert, states, [[0.0], [0.5]])
        assert report.worst_point == ((5.0, float(chunk - 1)), (0.0,))
        assert report.worst_margin == 11.0
        assert_lipschitz_matches(model, states, [[0.0], [0.5]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("nan_at", [0, 7, 1500])
    def test_nan_margin_is_skipped(self, nan_at):
        # A one-state model: its 1x1 "eigenvalue" is the entry itself, so a
        # NaN Jacobian gives a NaN margin, which `m > worst` never selects.
        states = np.linspace(-1.0, 1.0, 2000)[:, None]
        states[nan_at, 0] = 4.0

        def jac(x):
            return np.where(x[..., None] == 4.0, math.nan, x[..., None])

        model = ramp_model(1, jac)
        cert = CmfCertificate(P=np.eye(1), rho=0.0, q=1.0)
        report = assert_cmf_matches(model, cert, states, [[0.0]])
        assert math.isfinite(report.worst_margin)
        assert report.worst_point[0] != (4.0,)
        assert_lipschitz_matches(model, states, [[0.0]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_in_two_state_grid_raises_like_loop(self):
        states = np.zeros((10, 2))
        states[3] = math.nan
        model = ramp_model(2, lambda x: np.broadcast_to(x[..., None], x.shape + (2,)))
        cert = CmfCertificate(P=np.eye(2), rho=0.0, q=1.0)
        with pytest.raises(NumericsError):
            check_cmf_ref(model, cert, states, [[0.0]], model.jacobian_f)
        with pytest.raises(NumericsError):
            check_cmf(model, cert, states, thetas=[[0.0]])


class TestConstantJacobian:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_constant_models_match_loop(self, seed):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(2, 2))
        model = constant_model(F)
        states = rng.uniform(-3.0, 3.0, size=(2500, 2))
        cert = CmfCertificate(P=np.array([[2.0, 0.3], [0.3, 1.0]]), rho=0.5, q=1.0)
        report = assert_cmf_matches(model, cert, states, [[0.0], [0.25]])
        # Every point ties, so the first point of the first theta wins.
        assert report.worst_point == (tuple(states[0].tolist()), (0.0,))
        assert_lipschitz_matches(model, states, [[0.0], [0.25]])

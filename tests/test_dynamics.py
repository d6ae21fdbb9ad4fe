"""Model registry, drift, decay certificate, growth constants."""

import math

import numpy as np
import pytest

from conftest import drift
from etconsensus.dynamics import (
    LIPSCHITZ_SAFETY,
    CmfCertificate,
    SystemModel,
    available_models,
    check_cmf,
    estimate_lipschitz,
    make_model,
    register_model,
    trig_grid,
)
from etconsensus.errors import CertificateError, ModelError


def linear_model(F: np.ndarray) -> SystemModel:
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    return SystemModel(
        name="linear-test",
        state_dim=n,
        input_dim=n,
        param_dim=1,
        f=lambda x, th, out: np.matmul(x, F.T, out=out),
        jacobian_f=lambda x, th: F,
        B=np.eye(n),
        theta_true=[0.0],
        theta_hat=[0.0],
        param_low=[0.0],
        param_high=[1.0],
    )


def scalar_drift(model, x, theta) -> np.ndarray:
    """The model's drift at state(s) ``x`` under the scalar parameter ``theta``."""
    return drift(model, x, [theta])


class TestDrift:
    def test_pointwise_values(self):
        model = make_model("paper-sys")
        assert np.allclose(scalar_drift(model, [0.0, 0.0], 0.5), [0.5, 0.5], atol=1e-15)
        assert np.allclose(
            scalar_drift(model, [0.0, math.pi / 2.0], 0.0), [math.pi / 2.0, 0.0], atol=1e-15
        )
        th = 0.5
        want = [
            1.0 + th * math.cos(1.0),
            -1.0 + th * math.cos(1.0) + th * th * math.cos(1.0) * math.sin(1.0),
        ]
        assert np.allclose(scalar_drift(model, [1.0, 1.0], th), want, atol=1e-15)

    def test_batch_matches_loop(self):
        model = make_model("paper-sys")
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(40, 2))
        batch = scalar_drift(model, xs, 0.37)
        for k in range(xs.shape[0]):
            assert np.array_equal(batch[k], scalar_drift(model, xs[k], 0.37))

    def test_jacobian_matches_finite_differences(self):
        model = make_model("paper-sys")
        rng = np.random.default_rng(5)
        eps = 1e-6
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0, size=2)
            th = np.array([rng.uniform(0.0, 1.0)])
            J = model.jacobian_f(x, th)
            for col in range(2):
                dx = np.zeros(2)
                dx[col] = eps
                num = (drift(model, x + dx, th) - drift(model, x - dx, th)) / (2.0 * eps)
                assert np.allclose(J[:, col], num, atol=1e-6)


def reference_paper_f(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The paper system's drift, one column at a time: the operations ``_paper_f`` must keep."""
    th = theta[..., 0]
    z1 = x[..., 0]
    z2 = x[..., 1]
    tc2 = th * np.cos(z2)
    out = np.empty_like(x)
    out[..., 0] = z2 + tc2
    out[..., 1] = (tc2 - z1) + (th * th) * np.cos(z1) * np.sin(z1)
    return out


class TestDriftOracle:
    """``_paper_f`` is bit for bit the column-wise formula, whatever the layout of its input."""

    @staticmethod
    def states(rng) -> list:
        signed_zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]])
        large = rng.choice([-1.0, 1.0], size=(64, 2)) * 10.0 ** rng.uniform(3, 300, size=(64, 2))
        wide = rng.normal(size=(512, 5)) * 4.0
        return [
            trig_grid(0.2),
            rng.normal(size=(300, 2)) * 3.0,
            wide[:, 1:5:3],  # strided columns
            wide[::3, :2],  # strided rows
            signed_zeros,
            large,
            np.concatenate((signed_zeros, large, -large)),
        ]

    @staticmethod
    def assert_same_bits(x, theta):
        """Into a fresh buffer, and into strided columns of one holding NaN."""
        model = make_model("paper-sys")
        wide = np.full(x.shape[:-1] + (5,), np.nan)
        with np.errstate(all="ignore"):
            got, want = drift(model, x, theta), reference_paper_f(x, theta)
            model.f(x, theta, wide[..., 1:5:3])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert wide[..., 1:5:3].tobytes() == want.tobytes()

    def test_shared_theta(self):
        rng = np.random.default_rng(11)
        for x in self.states(rng):
            for th in (0.0, -0.0, 0.37, 0.5, 1.0):
                self.assert_same_bits(x, np.array([th]))
        self.assert_same_bits(np.array([1.0, -2.0]), np.array([0.4]))

    def test_per_row_theta(self):
        rng = np.random.default_rng(12)
        for x in self.states(rng):
            theta = rng.uniform(0.0, 1.0, size=(len(x), 1))
            self.assert_same_bits(x, theta)
            wide = rng.uniform(0.0, 1.0, size=(len(x), 3))
            self.assert_same_bits(x, wide[:, 1:2])  # a strided parameter column
        stack = rng.normal(size=(4, 6, 2))
        self.assert_same_bits(stack, rng.uniform(0.0, 1.0, size=(4, 6, 1)))


class TestRegistry:
    def test_paper_sys_registered_with_defaults(self):
        assert "paper-sys" in available_models()
        model = make_model("paper-sys")
        assert model.theta_true.tolist() == [0.5]
        assert model.theta_hat.tolist() == [0.40]
        assert model.B.tolist() == [[0.0], [-1.0]]
        assert (model.state_dim, model.input_dim, model.param_dim) == (2, 1, 1)

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError):
            make_model("no-such-system")

    def test_parameter_box_enforced(self):
        with pytest.raises(ModelError):
            make_model("paper-sys", [1.5], [0.4])
        with pytest.raises(ModelError):
            make_model("paper-sys", [0.5], [-0.1])

    def test_custom_model_roundtrip(self):
        register_model("linear-test", lambda th, thh: linear_model(-np.eye(2)))
        model = make_model("linear-test")
        assert np.allclose(scalar_drift(model, [1.0, 2.0], 0.0), [-1.0, -2.0])

    def test_b_shape_validated(self):
        with pytest.raises(ModelError):
            SystemModel(
                name="bad",
                state_dim=2,
                input_dim=1,
                param_dim=1,
                f=lambda x, th, out: np.copyto(out, x),
                jacobian_f=lambda x, th: np.eye(2),
                B=np.zeros((3, 1)),
                theta_true=[0.5],
                theta_hat=[0.5],
                param_low=[0.0],
                param_high=[1.0],
            )


class TestTrigGrid:
    def test_shape_and_bounds(self):
        grid = trig_grid()
        per_axis = int(math.floor(2.0 * math.pi / 0.05)) + 1
        assert grid.shape == (per_axis * per_axis, 2)
        assert grid.min() >= -math.pi - 1e-12
        assert grid.max() <= math.pi + 1e-12

    def test_custom_step(self):
        grid = trig_grid(step=1.0)
        assert grid.shape == (49, 2)  # -pi, 1 - pi, ..., 6 - pi on each axis
        assert np.allclose(np.unique(grid[:, 0]), np.arange(7.0) - math.pi, atol=1e-15)


class TestCertificate:
    def test_validation(self):
        with pytest.raises(CertificateError):
            CmfCertificate(P=np.array([[1.0, 0.5], [0.0, 1.0]]), rho=0.0, q=1.0)
        with pytest.raises(CertificateError):
            CmfCertificate(P=-np.eye(2), rho=0.0, q=1.0)
        with pytest.raises(CertificateError):
            CmfCertificate(P=np.eye(2), rho=-0.1, q=1.0)
        with pytest.raises(CertificateError):
            CmfCertificate(P=np.eye(2), rho=0.0, q=0.0)

    def test_linear_decay_margins(self):
        # For dx/dt = -x with P = I, rho = 0 the sampled matrix is (q - 2) I.
        model = linear_model(-np.eye(2))
        grid = np.array([[0.0, 0.0], [1.0, -1.0]])
        r1 = check_cmf(model, CmfCertificate(P=np.eye(2), rho=0.0, q=1.0), grid)
        assert r1.holds and math.isclose(r1.worst_margin, -1.0, abs_tol=1e-12)
        r2 = check_cmf(model, CmfCertificate(P=np.eye(2), rho=0.0, q=2.0), grid)
        assert r2.holds and abs(r2.worst_margin) <= 1e-12
        r3 = check_cmf(model, CmfCertificate(P=np.eye(2), rho=0.0, q=3.0), grid)
        assert not r3.holds and math.isclose(r3.worst_margin, 1.0, abs_tol=1e-12)

    def test_benchmark_certificate_on_coarse_grid(self):
        model = make_model("paper-sys")
        grid = trig_grid(step=0.5)
        cert = CmfCertificate(
            P=np.array([[5.0, 2.0], [2.0, 1.0]]), rho=0.02, q=1.0
        )
        report = check_cmf(model, cert, grid, thetas=[[0.5], [0.40], [0.35]])
        assert not report.holds
        assert report.worst_margin > 1.0
        assert report.n_points == grid.shape[0] * 3

    def test_large_rho_restores_decay_on_coarse_grid(self):
        model = make_model("paper-sys")
        grid = trig_grid(step=0.5)
        cert = CmfCertificate(
            P=np.array([[5.0, 2.0], [2.0, 1.0]]), rho=20.0, q=1.0
        )
        report = check_cmf(model, cert, grid, thetas=[[0.5], [0.40], [0.35]])
        assert report.holds

    def test_empty_grid_rejected(self):
        model = make_model("paper-sys")
        cert = CmfCertificate(P=np.eye(2), rho=0.0, q=1.0)
        with pytest.raises(ModelError):
            check_cmf(model, cert, np.zeros((0, 2)))
        with pytest.raises(ModelError):
            check_cmf(model, cert, np.zeros((4, 3)))


class TestLipschitz:
    def test_benchmark_constants(self, lipschitz_cache):
        model, lip = lipschitz_cache([0.40])
        assert math.isclose(lip.k / LIPSCHITZ_SAFETY, 1.676895, abs_tol=1e-3)
        assert math.isclose(lip.Delta / LIPSCHITZ_SAFETY, 0.176139, abs_tol=1e-3)

    def test_larger_mismatch_for_worse_estimate(self, lipschitz_cache):
        _, lip40 = lipschitz_cache([0.40])
        _, lip35 = lipschitz_cache([0.35])
        assert math.isclose(lip35.Delta / LIPSCHITZ_SAFETY, 0.261130, abs_tol=1e-3)
        assert lip35.Delta > lip40.Delta
        assert math.isclose(lip35.k, lip40.k, rel_tol=1e-6)

    def test_zero_mismatch_when_estimate_exact(self):
        model = make_model("paper-sys", [0.5], [0.5])
        lip = estimate_lipschitz(model, trig_grid(step=0.5))
        assert lip.Delta == 0.0
        assert lip.k > 0.0

    def test_empty_grid_rejected(self):
        model = make_model("paper-sys")
        with pytest.raises(ModelError):
            estimate_lipschitz(model, np.zeros((0, 2)))

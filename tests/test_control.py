"""Gain matrices, the reference's scalar trigger predicates, and event-spacing bounds."""

import math

import numpy as np
import pytest

from bank_reference import (
    compute_delta,
    compute_wi,
    control_input,
    ctc_fire_asymptotic,
    ctc_fire_practical,
    ctc_threshold,
    make_banks,
    trigger_matrices,
)
from etconsensus.control import (
    build_trigger_params,
    check_gain_condition,
    error_growth_gain,
    practical_consensus_bound,
    tau_lower_bound,
)
from etconsensus.errors import (
    CertificateError,
    ConfigError,
    DegenerateError,
    TopologyError,
    UsageError,
)
from etconsensus.estimation import EstimatorBank
from etconsensus.graph import Graph, build_laplacian
from etconsensus.linalg import eigvalsh, spectral_norm

P = np.array([[5.0, 2.0], [2.0, 1.0]])
B = np.array([[0.0], [-1.0]])
PBBP = np.array([[4.0, 2.0], [2.0, 1.0]])
SIGMA = [0.8, 0.9, 0.9, 0.9, 0.9]

S_COEFF = np.array(
    [
        45.84590460264706,
        134.90767532000052,
        120.31036318154422,
        45.84590460264706,
        45.84590460264706,
    ]
)
THETA_COEFF = 1.438819079470586


def fig_lap():
    return build_laplacian(Graph.from_edges(5, [[1, 2], [2, 3], [2, 5], [3, 4]]))


def fig_params(**kw):
    args = dict(kappa1=0.1, kappa2=5.0, sigma=SIGMA)
    args.update(kw)
    return build_trigger_params(fig_lap(), P, B, **args)


def pair_lap():
    return build_laplacian(Graph.from_edges(2, [[1, 2]]))


def pair_params(**kw):
    args = dict(kappa1=0.1, kappa2=5.0, sigma=0.5)
    args.update(kw)
    return build_trigger_params(pair_lap(), P, B, **args)


class TestGainMatrices:
    def test_benchmark_constants(self):
        params = fig_params()
        assert params.kappa == 5.1
        assert np.array_equal(params.BtP, np.array([[-2.0, -1.0]]))
        assert np.allclose(params.b, [0.2, 1.0 / 15.0, 0.1, 0.2, 0.2], atol=1e-15)
        assert np.allclose(params.s_coeff, S_COEFF, rtol=1e-9)
        assert np.allclose(params.theta_coeff, THETA_COEFF, rtol=1e-9)
        assert np.array_equal(params.Q, PBBP)
        for i in range(5):
            assert np.allclose(trigger_matrices(i, params)[2], 10.2 * PBBP, atol=1e-12)
        assert math.isclose(spectral_norm(trigger_matrices(0, params)[2]), 51.0, rel_tol=1e-12)

    def test_matrices_match_scalar_formulas(self):
        lap = fig_lap()
        params = fig_params()
        kap = 5.1
        n = 5
        for i in range(5):
            l = lap.L[i, i]
            b = params.b[i]
            s = (
                2.0 * kap * l * b
                + 2.0 * kap * l / b
                + 5.0 * lap.epsilon * (
                    4.0 * l / b - n * lap.M[i] * (b / 2.0 + 1.0 / (2.0 * b))
                )
            )
            t = 2.0 * 5.0 * lap.epsilon * (1.0 - 2.0 * l * b)
            S, Theta, R = trigger_matrices(i, params)
            assert np.allclose(S, s * PBBP, rtol=1e-12)
            assert np.allclose(Theta, t * PBBP, rtol=1e-12)
            assert np.allclose(R, 2.0 * kap * PBBP, rtol=1e-12)

    def test_theta_matrices_positive_semidefinite(self):
        params = fig_params()
        for i in range(5):
            assert eigvalsh(trigger_matrices(i, params)[1])[0] >= -1e-12

    def test_indefinite_theta_names_the_first_failing_agent(self):
        # P B B'P is positive semidefinite in exact arithmetic; with this P its
        # rounding leaves an eigenvalue of about -0.019. With b[0] below, Theta[0]
        # scales it by 1 - 2 L[0, 0] b[0] ~ 2e-16, back inside the -1e-12 tolerance.
        bad_p = np.array([[7231901.098189695, 22510810.08259379],
                          [22510810.08259379, -14074704.716139851]])
        lap = fig_lap()
        with pytest.raises(ConfigError, match=r"Theta\[0\] is not positive semidefinite"):
            build_trigger_params(lap, bad_p, B, kappa1=0.1, kappa2=5.0, sigma=SIGMA)
        b = [0.4999999999999999, 0.1, 0.1, 0.2, 0.2]
        with pytest.raises(ConfigError, match=r"Theta\[1\] is not positive semidefinite"):
            build_trigger_params(lap, bad_p, B, kappa1=0.1, kappa2=5.0, sigma=SIGMA, b=b)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError, match="sigma"):
            fig_params(sigma=1.2)
        with pytest.raises(ConfigError, match="sigma"):
            fig_params(sigma=0.0)
        with pytest.raises(ConfigError, match="b"):
            fig_params(b=[0.5, 1.0 / 6.0, 0.25, 0.5, 0.5])
        with pytest.raises(ConfigError, match="kappa1"):
            fig_params(kappa1=0.0)
        with pytest.raises(ConfigError, match="kappa2"):
            fig_params(kappa2=-1.0)
        with pytest.raises(ConfigError, match="xi"):
            fig_params(xi=-1.0)

    def test_gain_condition(self):
        lap = fig_lap()
        check_gain_condition(0.1, 0.02, lap.mu)
        with pytest.raises(ConfigError, match=r"rho/\(2\*mu\)"):
            check_gain_condition(0.001, 0.02, lap.mu)


class TestControlInput:
    def test_leader_has_no_input(self):
        lap = fig_lap()
        params = fig_params()
        banks = make_banks(
            Graph.from_edges(5, [[1, 2], [2, 3], [2, 5], [3, 4]]),
            np.zeros((5, 2)),
            [0.4],
        )
        with pytest.raises(UsageError):
            control_input(0, banks[0], lap, params)

    def test_two_agent_value(self):
        lap = pair_lap()
        params = pair_params()
        bank = EstimatorBank(
            owner=1,
            agents=(0, 1),
            estimates=np.array([[0.0, 0.0], [1.0, 0.0]]),
            theta_hat=np.array([0.4]),
        )
        u = control_input(1, bank, lap, params)
        # u = -kappa (l_10 B'P xhat_0 + l_11 B'P xhat_1) = -5.1 * (-2.0)
        assert u.shape == (1,)
        assert math.isclose(u[0], 10.2, rel_tol=1e-12)

    def test_zero_at_consensus(self):
        lap = fig_lap()
        params = fig_params()
        x0 = np.tile([0.3, -0.7], (5, 1))
        banks = make_banks(
            Graph.from_edges(5, [[1, 2], [2, 3], [2, 5], [3, 4]]), x0, [0.4]
        )
        for i in range(1, 5):
            assert np.allclose(control_input(i, banks[i], lap, params), 0.0, atol=1e-12)

    def test_equals_gain_times_disagreement(self):
        lap = fig_lap()
        params = fig_params()
        graph = Graph.from_edges(5, [[1, 2], [2, 3], [2, 5], [3, 4]])
        rng = np.random.default_rng(17)
        for _ in range(50):
            banks = make_banks(graph, rng.normal(size=(5, 2)), [0.4])
            for bank in banks:
                bank.estimates[:] = rng.normal(size=bank.estimates.shape)
            for i in range(1, 5):
                u = control_input(i, banks[i], lap, params)
                w = compute_wi(i, banks[i], lap)
                want = -params.kappa * (params.BtP @ w)
                assert np.allclose(u, want, atol=1e-12)


class TestDisagreement:
    def test_two_agent_value(self):
        lap = pair_lap()
        bank = EstimatorBank(
            owner=1,
            agents=(0, 1),
            estimates=np.array([[0.0, 0.0], [1.0, 0.0]]),
            theta_hat=np.array([0.4]),
        )
        w = compute_wi(1, bank, lap)
        assert np.allclose(w, [1.0, 0.0], atol=1e-15)

    def test_zero_at_consensus(self):
        lap = fig_lap()
        graph = Graph.from_edges(5, [[1, 2], [2, 3], [2, 5], [3, 4]])
        banks = make_banks(graph, np.tile([1.0, 2.0], (5, 1)), [0.4])
        for i in range(5):
            assert np.array_equal(compute_wi(i, banks[i], lap), np.zeros(2))

    def test_matrix_form_on_shared_estimates(self):
        lap = fig_lap()
        graph = Graph.from_edges(5, [[1, 2], [2, 3], [2, 5], [3, 4]])
        rng = np.random.default_rng(29)
        for _ in range(50):
            xhat = rng.normal(size=(5, 2))
            banks = make_banks(graph, xhat, [0.4])
            want = lap.L @ xhat
            for i in range(5):
                assert np.allclose(compute_wi(i, banks[i], lap), want[i], atol=1e-12)

    def test_missing_estimate_rejected(self):
        lap = fig_lap()
        bank = EstimatorBank(
            owner=1,
            agents=(0, 1),
            estimates=np.zeros((2, 2)),
            theta_hat=np.array([0.4]),
        )
        with pytest.raises(TopologyError):
            compute_wi(1, bank, lap)


class TestTriggerFunction:
    def test_zero_error_gives_zero(self):
        params = fig_params()
        w = np.array([0.3, -0.8])
        assert compute_delta(2, np.zeros(2), w, params) == 0.0

    def test_zero_disagreement_keeps_quadratic_term(self):
        params = fig_params()
        e = np.array([0.2, -0.1])
        want = float(e @ trigger_matrices(1, params)[0] @ e)
        assert math.isclose(compute_delta(1, e, np.zeros(2), params), want, rel_tol=1e-12)

    def test_scalar_expansion(self):
        params = fig_params()
        rng = np.random.default_rng(41)
        for _ in range(100):
            i = int(rng.integers(0, 5))
            e = rng.normal(size=2)
            w = rng.normal(size=2)
            s = params.s_coeff[i]
            quad = s * (4.0 * e[0] ** 2 + 4.0 * e[0] * e[1] + e[1] ** 2)
            cross = 10.2 * (
                4.0 * w[0] * e[0] + 2.0 * w[0] * e[1] + 2.0 * w[1] * e[0] + w[1] * e[1]
            )
            want = quad + abs(cross)
            assert math.isclose(compute_delta(i, e, w, params), want, rel_tol=1e-10,
                                abs_tol=1e-12)
            thr = params.sigma[i] * params.theta_coeff[i] * (
                4.0 * w[0] ** 2 + 4.0 * w[0] * w[1] + w[1] ** 2
            )
            assert math.isclose(ctc_threshold(i, w, params), thr, rel_tol=1e-10,
                                abs_tol=1e-12)

    def test_fire_conditions_are_strict(self):
        params = fig_params(xi=20.0)
        w = np.array([0.5, 0.25])
        thr = ctc_threshold(3, w, params)
        assert not ctc_fire_asymptotic(thr, w, params, 3)
        assert ctc_fire_asymptotic(thr + 1e-9, w, params, 3)
        assert not ctc_fire_practical(thr + 20.0, w, params, 3)
        assert ctc_fire_practical(thr + 20.0 + 1e-6, w, params, 3)
        assert not ctc_fire_practical(thr + 19.999, w, params, 3)

    def test_practical_requires_positive_margin(self):
        params = fig_params()
        with pytest.raises(ConfigError, match="xi"):
            ctc_fire_practical(1.0, np.zeros(2), params, 0)


class TestEventSpacing:
    def test_growth_gain_formula(self):
        nu = error_growth_gain(5.1, math.sqrt(5.0), 2.0, 0.25, 1.7)
        assert math.isclose(nu, 5.1 * math.sqrt(5.0) * 2.25 / 1.7, rel_tol=1e-12)
        with pytest.raises(ConfigError):
            error_growth_gain(5.1, math.sqrt(5.0), 2.0, 0.25, 0.0)

    def test_closed_form_value(self):
        # c1 = 1, c2 = 0: tau = log(sqrt(xi) + 1) / k.
        tau = tau_lower_bound(k=1.0, nu=1.0, S_norm=1.0, R_norm=0.0, w_max=7.0, xi=3.0)
        assert math.isclose(tau, math.log(math.sqrt(3.0) + 1.0), rel_tol=1e-12)

    def test_matches_growth_envelope_crossing(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            k = float(rng.uniform(0.2, 3.0))
            nu = float(rng.uniform(0.05, 4.0))
            s_norm = float(rng.uniform(0.1, 80.0))
            r_norm = float(rng.uniform(0.0, 60.0))
            w_max = float(rng.uniform(0.0, 5.0))
            xi = float(rng.uniform(0.5, 40.0))
            tau = tau_lower_bound(k, nu, s_norm, r_norm, w_max, xi)
            c1 = s_norm * nu * nu
            c2 = w_max * r_norm * nu

            def envelope(t):
                g = math.expm1(k * t)
                return c1 * g * g + c2 * g

            lo, hi = 0.0, 1.0
            while envelope(hi) < xi:
                hi *= 2.0
            for _ in range(200):
                mid = (lo + hi) / 2.0
                if envelope(mid) < xi:
                    lo = mid
                else:
                    hi = mid
            assert math.isclose(tau, lo, rel_tol=1e-9, abs_tol=1e-12)
            assert tau > 0.0

    def test_degenerate_and_invalid_inputs(self):
        with pytest.raises(DegenerateError):
            tau_lower_bound(1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DegenerateError):
            tau_lower_bound(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            tau_lower_bound(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            tau_lower_bound(1.0, 1.0, 1.0, 1.0, 1.0, 0.0)


class TestPracticalBound:
    def test_benchmark_value(self):
        bound = practical_consensus_bound(5, 20.0, 1.0, P)
        assert math.isclose(bound, 100.0 / (3.0 - 2.0 * math.sqrt(2.0)), rel_tol=1e-9)
        assert math.isclose(bound, 582.8427124746189, rel_tol=1e-9)

    def test_scaling(self):
        b1 = practical_consensus_bound(5, 10.0, 1.0, P)
        b2 = practical_consensus_bound(5, 20.0, 1.0, P)
        b3 = practical_consensus_bound(5, 20.0, 2.0, P)
        assert math.isclose(2.0 * b1, b2, rel_tol=1e-12)
        assert math.isclose(b3, b2 / 2.0, rel_tol=1e-12)
        assert practical_consensus_bound(5, 0.0, 1.0, P) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            practical_consensus_bound(5, 20.0, 0.0, P)
        with pytest.raises(CertificateError):
            practical_consensus_bound(5, 20.0, 1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))

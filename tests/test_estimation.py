"""Estimates: the stacked step and row resets of the simulator, and the bank-form reference.

The bank tests check the reference in ``bank_reference`` that the simulator
is compared against; the ``propagate_all``/``apply_broadcast`` tests check the
simulator's one-estimate-per-agent form against those banks.
"""

import numpy as np
import pytest

from bank_reference import apply_broadcast as bank_broadcast
from bank_reference import make_banks, propagate
from bank_reference import propagate_all as propagate_banks
from conftest import drift
from etconsensus.dynamics import SystemModel, make_model
from etconsensus.errors import NumericsError, TopologyError
from etconsensus.estimation import EstimatorBank, apply_broadcast, propagate_all
from etconsensus.graph import Graph
from etconsensus.integrate import stage_buffers

X0 = np.array(
    [[0.95, 0.63], [-0.70, -0.73], [-0.33, -0.54], [-0.25, 0.02], [0.86, 0.01]]
)
# The integrator's buffers for a stacked [x; xhat] of the five agents.
STAGES = stage_buffers((10, 2))


def fig_graph():
    return Graph.from_edges(5, [[1, 2], [2, 3], [2, 5], [3, 4]])


def stacked_field(model, n_agents=5):
    """Drift of [x; xhat] with theta_true on the true rows and theta_hat below."""
    theta = np.concatenate(
        (np.tile(model.theta_true, (n_agents, 1)), np.tile(model.theta_hat, (n_agents, 1)))
    )
    return lambda y, out: model.f(y, theta, out)


def zero_model() -> SystemModel:
    return SystemModel(
        name="zero",
        state_dim=2,
        input_dim=1,
        param_dim=1,
        f=lambda x, th, out: out.fill(0.0),
        jacobian_f=lambda x, th: np.zeros((2, 2)),
        B=np.array([[0.0], [1.0]]),
        theta_true=[0.0],
        theta_hat=[0.0],
        param_low=[0.0],
        param_high=[1.0],
    )


class TestMakeBanks:
    def test_membership_matches_closed_neighbourhoods(self):
        banks = make_banks(fig_graph(), X0, [0.4])
        assert [b.agents for b in banks] == [
            (0, 1),
            (0, 1, 2, 4),
            (1, 2, 3),
            (2, 3),
            (1, 4),
        ]
        assert [b.owner for b in banks] == [0, 1, 2, 3, 4]

    def test_seeded_with_initial_states(self):
        banks = make_banks(fig_graph(), X0, [0.4])
        for bank in banks:
            for j in bank.agents:
                assert np.array_equal(bank.estimate_of(j), X0[j])

    def test_estimate_of_unknown_agent(self):
        banks = make_banks(fig_graph(), X0, [0.4])
        assert not banks[0].holds(3)
        with pytest.raises(TopologyError):
            banks[0].estimate_of(3)

    def test_bank_construction_validation(self):
        with pytest.raises(TopologyError):
            EstimatorBank(owner=2, agents=(0, 1), estimates=np.zeros((2, 2)),
                          theta_hat=np.array([0.4]))
        with pytest.raises(TopologyError):
            EstimatorBank(owner=0, agents=(0, 0), estimates=np.zeros((2, 2)),
                          theta_hat=np.array([0.4]))
        with pytest.raises(TopologyError):
            EstimatorBank(owner=0, agents=(0, 1), estimates=np.zeros((3, 2)),
                          theta_hat=np.array([0.4]))


class TestPropagate:
    def test_zero_drift_is_identity(self):
        banks = make_banks(fig_graph(), X0, [0.0])
        new = propagate(banks[1], zero_model(), 0.01)
        assert np.array_equal(new.estimates, banks[1].estimates)

    def test_euler_matches_closed_form(self):
        model = make_model("paper-sys")
        banks = make_banks(fig_graph(), X0, [0.4])
        bank = banks[2]
        want = bank.estimates + 0.01 * drift(model, bank.estimates, model.theta_hat)
        new = propagate(bank, model, 0.01, scheme="euler")
        assert np.array_equal(new.estimates, want)

    def test_rk4_against_fine_reference(self):
        model = make_model("paper-sys")
        banks = make_banks(fig_graph(), X0, [0.4])
        coarse = propagate(banks[1], model, 0.01).estimates
        ref = banks[1].estimates.copy()
        sub = 1000
        hs = 0.01 / sub
        for _ in range(sub):
            k1 = drift(model, ref, model.theta_hat)
            k2 = drift(model, ref + (hs / 2.0) * k1, model.theta_hat)
            k3 = drift(model, ref + (hs / 2.0) * k2, model.theta_hat)
            k4 = drift(model, ref + hs * k3, model.theta_hat)
            ref = ref + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.abs(coarse - ref).max() <= 1e-9

    def test_propagate_all_matches_per_bank(self):
        # One stacked step of [x; xhat] gives every bank's rows, and the true
        # states of a plant stepped alone under theta_true.
        model = make_model("paper-sys", [0.5], [0.4])
        banks = make_banks(fig_graph(), X0, [0.4])
        plant = EstimatorBank(owner=0, agents=(0, 1, 2, 3, 4), estimates=X0.copy(),
                              theta_hat=model.theta_true)
        for scheme in ("euler", "rk4"):
            y = propagate_all(np.concatenate((X0, X0)), stacked_field(model), 0.01, STAGES, scheme)
            for bank in banks:
                want = propagate(bank, model, 0.01, scheme)
                assert np.array_equal(y[5:][list(bank.agents)], want.estimates)
            assert np.array_equal(y[:5], propagate(plant, model, 0.01, scheme).estimates)

    def test_propagate_all_deterministic(self):
        model = make_model("paper-sys")
        field = stacked_field(model)
        a = propagate_all(np.concatenate((X0, X0)), field, 0.01, STAGES, "rk4")
        b = propagate_all(np.concatenate((X0, X0)), field, 0.01, STAGES, "rk4")
        assert np.array_equal(a, b)
        banks = make_banks(fig_graph(), X0, [0.4])
        for x, y in zip(propagate_banks(banks, model, 0.01), propagate_banks(banks, model, 0.01)):
            assert np.array_equal(x.estimates, y.estimates)

    def test_non_finite_estimate_raises(self):
        banks = make_banks(fig_graph(), X0, [0.4])
        banks[0].estimates[0, 0] = np.nan
        model = make_model("paper-sys")
        with pytest.raises(NumericsError):
            propagate(banks[0], model, 0.01)
        with pytest.raises(NumericsError):
            propagate_banks(banks, model, 0.01)
        y = np.concatenate((X0, X0))
        y[7, 1] = np.nan
        with pytest.raises(NumericsError, match="estimator"):
            propagate_all(y, stacked_field(model), 0.01, STAGES)
        # With every estimate finite, the non-finite true state is named, with its time.
        y = np.concatenate((X0, X0))
        y[2, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericsError, match=r"non-finite true state at t = 0\.260000"):
                propagate_all(y, stacked_field(model), 0.01, STAGES, t=0.25)
        # When both go non-finite, the estimate is named first.
        y[7, 1] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericsError, match="estimator state of agent 2 "):
                propagate_all(y, stacked_field(model), 0.01, STAGES)


class TestBroadcast:
    def test_reset_reaches_exactly_the_holders(self):
        banks = make_banks(fig_graph(), X0, [0.4])
        state = np.array([7.0, -3.0])
        before3 = banks[3].estimates.copy()
        bank_broadcast(banks, 1, state)
        for i in (0, 1, 2, 4):
            assert np.array_equal(banks[i].estimate_of(1), state)
        assert np.array_equal(banks[3].estimates, before3)
        # The one stored estimate of agent 1 is its row; no other row moves.
        xhat = X0.copy()
        apply_broadcast(xhat, 1, state)
        assert np.array_equal(xhat[1], state)
        assert np.array_equal(np.delete(xhat, 1, axis=0), np.delete(X0, 1, axis=0))

    def test_unknown_sender_rejected(self):
        banks = make_banks(fig_graph(), X0, [0.4])
        for reset, target in ((bank_broadcast, banks), (apply_broadcast, X0.copy())):
            with pytest.raises(TopologyError):
                reset(target, 5, np.zeros(2))
            with pytest.raises(TopologyError):
                reset(target, -1, np.zeros(2))

    def test_estimates_of_one_agent_stay_bitwise_equal(self):
        # Every bank's copy of agent j equals row j of the stacked estimates.
        model = make_model("paper-sys")
        banks = make_banks(fig_graph(), X0, [0.4])
        y = np.concatenate((X0, X0))
        for _ in range(10):
            banks = propagate_banks(banks, model, 0.01, "rk4")
            y = propagate_all(y, stacked_field(model), 0.01, STAGES, "rk4")
        for j in range(5):
            holders = [b for b in banks if b.holds(j)]
            for bank in holders:
                assert np.array_equal(bank.estimate_of(j), y[5 + j])

"""Performance index, decay-rate fit, and report formatting."""

import math

import numpy as np

from etconsensus.metrics import compute_metrics, fit_decay_rate, markdown_tables
from etconsensus.simulator import RunRecord


def synthetic_record(
    states: np.ndarray,
    events=None,
    times=None,
    v_series=None,
    degrees=None,
) -> RunRecord:
    states = np.asarray(states, dtype=float)
    k, n_agents, _ = states.shape
    times = np.arange(k, dtype=float) * 0.01 if times is None else np.asarray(times)
    events = [] if events is None else events
    flags = np.zeros((k, n_agents), dtype=bool)
    h = times[1] - times[0] if k > 1 else 1.0
    for t, a in events:
        flags[int(round(t / h)), a] = True
    rf = states[:, 1:, :] - states[:, :1, :]
    if v_series is None:
        v_series = np.einsum("kin,in->k", rf * rf, np.ones((n_agents - 1, states.shape[2])))
    return RunRecord(
        times=times,
        v_series=np.asarray(v_series, dtype=float),
        per_agent_event_counts=flags.sum(axis=0),
        r_norm_sum=float(np.sqrt((rf * rf).sum(axis=2)).sum()),
        states=states,
        event_flags=flags,
        agent_degrees=None if degrees is None else np.asarray(degrees, dtype=int),
    )


class TestGamma:
    def test_zero_error_zero_events(self):
        states = np.zeros((10, 5, 2))
        report = compute_metrics(synthetic_record(states))
        assert report.gamma == 0.0
        assert report.consensus_sum == 0.0
        assert report.comm_count == 0

    def test_combines_error_and_events_at_paper_weight(self):
        # One instant, r_i chosen so the per-agent norms sum to 5 * 311;
        # 3800 events (all five agents at each of 760 instants) then
        # reproduce gamma = 311 + 0.1 * 3800 / 5 = 387.
        states = np.zeros((760, 5, 2))
        for i in range(1, 5):
            states[0, i, 0] = 311.0 * 5.0 / 4.0
        events = [(k * 0.01, i) for k in range(760) for i in range(5)]
        rec = synthetic_record(states, events=events)
        report = compute_metrics(rec)
        assert math.isclose(report.consensus_sum, 311.0, rel_tol=1e-12)
        assert report.comm_count == 3800
        assert math.isclose(report.gamma, 387.0, rel_tol=1e-12)

    def test_second_bracket_identity(self):
        states = np.zeros((3760, 5, 2))
        for i in range(1, 5):
            states[0, i, 1] = 388.0 * 5.0 / 4.0
        events = [(k * 0.01, i) for k in range(3760) for i in range(5)]
        report = compute_metrics(synthetic_record(states, events=events))
        assert math.isclose(report.gamma, 388.0 + 0.1 * 18800.0 / 5.0, rel_tol=1e-12)

    def test_monotone_in_chi(self):
        states = np.random.default_rng(2).normal(size=(20, 5, 2))
        events = [(0.05, 1), (0.1, 2)]
        rec = synthetic_record(states, events=events)
        g1 = compute_metrics(rec, chi=0.1).gamma
        g2 = compute_metrics(rec, chi=0.5).gamma
        assert g2 > g1
        assert math.isclose(
            g2 - g1, (0.5 - 0.1) * len(events) / 5.0, rel_tol=1e-12
        )

    def test_receiver_weighted_uses_sender_degree(self):
        states = np.zeros((3, 5, 2))
        events = [(0.0, 1), (0.01, 1), (0.02, 3)]
        rec = synthetic_record(states, events=events, degrees=[1, 3, 2, 1, 1])
        report = compute_metrics(rec)
        assert report.receiver_weighted_count == 3 + 3 + 1
        assert report.comm_count == 3

    def test_receiver_weighted_absent_without_degrees(self):
        states = np.zeros((2, 5, 2))
        report = compute_metrics(synthetic_record(states, events=[(0.0, 0)]))
        assert report.receiver_weighted_count is None


class TestDecayRate:
    def test_recovers_exponential_rate(self):
        times = np.linspace(0.0, 10.0, 1001)
        states = np.zeros((1001, 2, 2))
        v = 51.0 * np.exp(-2.0 * times)
        rec = synthetic_record(states, times=times, v_series=v)
        assert math.isclose(fit_decay_rate(rec), 2.0, rel_tol=1e-9)

    def test_constant_series_gives_zero(self):
        times = np.linspace(0.0, 1.0, 11)
        states = np.zeros((11, 2, 2))
        rec = synthetic_record(states, times=times, v_series=np.full(11, 3.0))
        assert fit_decay_rate(rec) == 0.0

    def test_zero_crossing_truncates_window(self):
        times = np.linspace(0.0, 1.0, 101)
        v = np.exp(-4.0 * times)
        v[60:] = 0.0
        states = np.zeros((101, 2, 2))
        rec = synthetic_record(states, times=times, v_series=v)
        assert math.isclose(fit_decay_rate(rec), 4.0, rel_tol=1e-9)

    def test_too_short_series_gives_zero(self):
        states = np.zeros((1, 2, 2))
        rec = synthetic_record(states, v_series=np.array([5.0]))
        assert fit_decay_rate(rec) == 0.0


class TestReportFormat:
    def test_to_dict_round_trip(self):
        states = np.random.default_rng(8).normal(size=(5, 5, 2))
        report = compute_metrics(synthetic_record(states, events=[(0.0, 2)]))
        d = report.to_dict()
        assert d["gamma"] == report.gamma
        assert d["comm_count"] == 1
        assert len(d["per_agent_event_counts"]) == 5

    def test_markdown_tables_structure(self):
        states = np.zeros((2, 5, 2))
        reports = {
            "run-a": compute_metrics(synthetic_record(states)),
            "run-b": compute_metrics(synthetic_record(states, events=[(0.0, 1)])),
        }
        text = markdown_tables(reports)
        assert "### Performance index gamma" in text
        assert "### Consensus error sum" in text
        assert "### Communication count" in text
        assert "| run-a |" in text
        assert "| run-b |" in text

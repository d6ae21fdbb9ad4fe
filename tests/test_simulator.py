"""Closed-loop stepping, run records, failure paths, and file round trips."""

import dataclasses
import math

import numpy as np
import pytest

import bank_reference
from bank_reference import compute_wi, make_banks, run_reference
from conftest import drift, paper_cfg, paper_dict, random_connected_graph
from etconsensus import control
from etconsensus.config import load_preset, prepare_dict
from etconsensus.dynamics import SystemModel, make_model, register_model
from etconsensus.errors import ConfigError, NumericsError, UsageError
from etconsensus.graph import Graph
from etconsensus.lockstep import lockstep
from etconsensus.simulator import (
    SimConfig,
    _assemble_record,
    _disagreement,
    initial_world,
    load_run_record,
    prepare,
    run,
    run_batch,
    step,
    write_run_outputs,
    zeno_guard_report,
)


def _zero_builder(theta, theta_hat):
    return SystemModel(
        name="zero-2d",
        state_dim=2,
        input_dim=2,
        param_dim=1,
        f=lambda x, th, out: out.fill(0.0),
        jacobian_f=lambda x, th: np.zeros((2, 2)),
        B=np.eye(2),
        theta_true=[0.0] if theta is None else theta,
        theta_hat=[0.0] if theta_hat is None else theta_hat,
        param_low=[0.0],
        param_high=[1.0],
    )


register_model("zero-2d", _zero_builder)


def geometric_cfg(n_steps: int) -> SimConfig:
    return SimConfig(
        n_agents=2,
        edges=[[1, 2]],
        x0=[[0.0, 0.0], [1.0, 1.0]],
        duration=n_steps * 0.01,
        ctc="asymptotic",
        kappa1=0.1,
        kappa2=5.0,
        sigma=1e-9,
        P=[[1.0, 0.0], [0.0, 1.0]],
        rho=0.0,
        q=1.0,
        theta=[0.0],
        theta_hat=[0.0],
        model="zero-2d",
        integrator="euler",
    )


class TestPrepareValidation:
    def test_rejects_bad_scalars(self):
        with pytest.raises(ConfigError, match="h"):
            prepare(paper_cfg(h=0.0))
        with pytest.raises(ConfigError, match="duration"):
            prepare(paper_cfg(duration=-1.0))
        with pytest.raises(ConfigError, match="integrator"):
            prepare(paper_cfg(integrator="rk45"))
        with pytest.raises(ConfigError, match="ctc"):
            prepare(paper_cfg(ctc="periodic"))

    def test_margin_must_match_variant(self):
        with pytest.raises(ConfigError, match="xi"):
            prepare(paper_cfg(ctc="practical", xi=0.0))
        with pytest.raises(ConfigError, match="xi"):
            prepare(paper_cfg(ctc="asymptotic", xi=5.0))

    def test_rejects_bad_shapes_and_gains(self):
        with pytest.raises(ConfigError, match="x0"):
            prepare(paper_cfg(x0=[[0.0, 0.0]] * 4))
        with pytest.raises(ConfigError, match="sigma"):
            prepare(paper_cfg(sigma=1.2))
        with pytest.raises(ConfigError, match="kappa1"):
            prepare(paper_cfg(kappa1=0.001))


class TestStepSemantics:
    def test_zero_duration_returns_initial_row(self):
        rec = run(paper_cfg(duration=0.0))
        assert rec.n_steps == 0
        assert rec.times.tolist() == [0.0]
        assert len(rec.events) == 0
        x0 = np.asarray(rec.config.x0)
        P = np.asarray(rec.config.P)
        want = sum((x0[i] - x0[0]) @ P @ (x0[i] - x0[0]) for i in range(1, 5))
        assert math.isclose(rec.v_initial, want, rel_tol=1e-12)
        assert math.isclose(rec.v_initial, 51.1376, rel_tol=1e-9)

    @pytest.mark.parametrize("integrator", ["euler", "rk4"])
    def test_one_step_matches_straight_line_reference(self, integrator):
        cfg = paper_cfg(duration=0.01, integrator=integrator)
        rec = run(cfg)

        model = make_model(cfg.model, cfg.theta, cfg.theta_hat)
        adj = Graph.from_edges(cfg.n_agents, cfg.edges).adjacency
        L = np.diag(adj.sum(axis=1)) - adj
        P = np.asarray(cfg.P)
        kappa = cfg.kappa1 + cfg.kappa2
        BtP = model.B.T @ P
        x0 = np.asarray(cfg.x0)
        h = cfg.h

        bu = np.zeros_like(x0)
        for i in range(1, 5):
            u = np.zeros(model.input_dim)
            for j in range(5):
                if L[i, j] != 0.0:
                    u = u - kappa * L[i, j] * (BtP @ x0[j])
            bu[i] = model.B @ u

        def plant(y):
            out = drift(model, y, model.theta_true)
            out[1:] = out[1:] + bu[1:]
            return out

        def est(y):
            return drift(model, y, model.theta_hat)

        def one(field, y):
            if integrator == "euler":
                return y + h * field(y)
            k1 = field(y)
            k2 = field(y + (h / 2.0) * k1)
            k3 = field(y + (h / 2.0) * k2)
            k4 = field(y + h * k3)
            return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        x1 = one(plant, x0)
        xhat1 = one(est, x0)
        assert np.allclose(rec.states[1], x1, rtol=1e-9, atol=1e-12)

        w = L @ xhat1
        e = x1 - xhat1
        Q = P @ model.B @ model.B.T @ P
        lap_eps = rec.derived["epsilon"]
        sc = np.asarray(rec.derived["s_coeff"])
        tc = np.asarray(rec.derived["theta_coeff"])
        sigma = np.asarray(rec.derived["sigma"])
        delta = sc * np.einsum("ij,jk,ik->i", e, Q, e) + np.abs(
            2.0 * kappa * np.einsum("ij,jk,ik->i", w, Q, e)
        )
        thr = sigma * tc * np.einsum("ij,jk,ik->i", w, Q, w)
        assert 0.0 < lap_eps < 1.0
        assert np.allclose(rec.delta[1], delta, rtol=1e-9, atol=1e-12)
        assert np.allclose(rec.threshold[1], thr, rtol=1e-9, atol=1e-12)
        assert np.array_equal(rec.event_flags[1], delta - thr > 0.0)
        assert np.allclose(rec.w_norm[1], np.sqrt((w * w).sum(axis=1)), rtol=1e-9)
        assert np.allclose(rec.e_norm[1], np.sqrt((e * e).sum(axis=1)), rtol=1e-9)

    def test_consensus_is_invariant_with_exact_estimate(self):
        x0 = [[0.4, -0.2]] * 5
        rec = run(paper_cfg(x0=x0, duration=0.5, theta_hat=[0.5]))
        assert len(rec.events) == 0
        for k in range(rec.states.shape[0]):
            for i in range(1, 5):
                assert np.array_equal(rec.states[k, i], rec.states[k, 0])
        assert rec.v_series.max() == 0.0

    def test_consensus_holds_under_estimate_mismatch(self):
        # A wrong theta_hat keeps estimation errors alive, so events keep
        # firing, but identical agents stay identical.
        x0 = [[0.4, -0.2]] * 5
        rec = run(paper_cfg(x0=x0, duration=0.5))
        assert rec.per_agent_event_counts.tolist() == [rec.n_steps] * 5
        for k in range(rec.states.shape[0]):
            for i in range(1, 5):
                assert np.array_equal(rec.states[k, i], rec.states[k, 0])
        assert rec.v_series.max() == 0.0

    def test_geometric_contraction_with_zero_drift(self):
        n_steps = 100
        rec = run(geometric_cfg(n_steps))
        kappa = 5.1
        h = 0.01
        factor = 1.0 - h * kappa
        for k in range(n_steps + 1):
            want = factor**k * np.ones(2)
            assert np.allclose(rec.states[k, 1], want, rtol=1e-12)
            assert np.array_equal(rec.states[k, 0], np.zeros(2))
        assert rec.per_agent_event_counts.tolist() == [0, n_steps]

    @pytest.mark.parametrize("preset", ["paper-asym-040", "paper-zeno-040"])
    def test_initial_world_trigger_is_row_0(self, preset):
        """Row 0 is the initial world's own evaluation at t = 0: every estimate
        starts at x0, so e = 0, and no agent fires."""
        prep = load_preset(preset, duration=0.05)
        rec = run(prep)
        trigger = initial_world(lockstep([prep])).trigger
        assert not trigger.fired.any() and not rec.event_flags[0].any()
        assert not trigger.e.any() and trigger.threshold.all()
        assert np.array_equal(trigger.delta, rec.delta[0])
        assert np.array_equal(trigger.threshold, rec.threshold[0])
        assert np.array_equal(np.linalg.norm(trigger.w, axis=1), rec.w_norm[0])
        assert np.array_equal(np.linalg.norm(trigger.e, axis=1), rec.e_norm[0])

    def test_public_step_matches_run(self):
        cfg = paper_cfg(duration=0.05)
        rec = run(cfg)
        core = lockstep([prepare(cfg)])
        world = initial_world(core)
        for k in range(1, 6):
            world = step(world, core)
            assert np.array_equal(world.x, rec.states[k])
            assert np.array_equal(world.trigger.fired, rec.event_flags[k])
        assert math.isclose(world.t, 0.05, rel_tol=1e-12)

    def test_leader_ignores_the_network(self, run_cache):
        rec = run_cache("paper-asym-040", duration=2.0)
        cfg = rec.config
        model = make_model(cfg.model, cfg.theta, cfg.theta_hat)
        y = np.asarray(cfg.x0)[0].copy()
        h = cfg.h
        for k in range(rec.n_steps + 1):
            assert np.array_equal(rec.states[k, 0], y)
            k1 = drift(model, y, model.theta_true)
            k2 = drift(model, y + (h / 2.0) * k1, model.theta_true)
            k3 = drift(model, y + (h / 2.0) * k2, model.theta_true)
            k4 = drift(model, y + h * k3, model.theta_true)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestRunRecord:
    def test_bitwise_deterministic(self):
        a = run(paper_cfg(duration=1.0))
        b = run(paper_cfg(duration=1.0))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.v_series, b.v_series)
        assert a.events == b.events

    def test_no_sync_mismatches(self, run_cache):
        # One stored estimate per agent cannot disagree with itself; the
        # bank-form reference, which keeps every copy, must agree too.
        rec = run_cache("paper-asym-040", duration=2.0)
        assert rec.sync_mismatches == 0
        assert run_reference(prepare(rec.config)).sync_mismatches == 0

    def test_events_are_sample_aligned_and_spaced(self, run_cache):
        rec = run_cache("paper-asym-040", duration=2.0)
        h = rec.config.h
        for t, agent in rec.events:
            assert 0 <= agent < 5
            k = t / h
            assert abs(k - round(k)) < 1e-9
        for i in range(5):
            ts = [t for t, a in rec.events if a == i]
            for a, b in zip(ts, ts[1:]):
                assert b - a >= h * (1.0 - 1e-12)

    def test_short_horizon_ripple(self, run_cache):
        rec = run_cache("paper-asym-040", duration=2.0)
        v = rec.v_series
        h = rec.config.h
        assert np.all(v[1:] <= v[:-1] * (1.0 + 10.0 * h) + 1e-12)

    def test_dispersion_bounded_by_leader_distance(self, run_cache):
        rec = run_cache("paper-asym-040", duration=2.0)
        r2 = (rec.r_series * rec.r_series).sum(axis=(1, 2))
        assert np.all(rec.dist_series <= r2 + 1e-9)

    def test_dump_estimates(self):
        rec = run(paper_cfg(duration=0.1, dump_estimates=True))
        assert rec.est_series is not None
        assert rec.est_series.shape == rec.states.shape
        # The own-estimate equals the true state right after each broadcast.
        for k in range(rec.states.shape[0]):
            for i in range(5):
                if rec.event_flags[k, i]:
                    assert np.array_equal(rec.est_series[k, i], rec.states[k, i])


class TestNumericsFailure:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_run_raises_with_partial_record(self):
        cfg = paper_cfg(h=1e6, duration=6e7)
        with pytest.raises(NumericsError) as exc_info:
            run(cfg)
        rec = exc_info.value.partial_record
        assert rec is not None
        assert rec.error
        assert 1 <= len(rec.times) < 61
        assert rec.states.shape[0] == len(rec.times)
        assert np.isfinite(rec.states).all()


def fabricated(prep, rec, flags):
    """``rec`` with its event log replaced, its facts worked out again."""
    return _assemble_record(prep, rec.states, flags, rec.delta, rec.threshold,
                            rec.w_norm, rec.e_norm, None, 0.0)


class TestZenoGuard:
    def test_rejects_asymptotic_records(self, run_cache, lipschitz_cache):
        rec = run_cache("paper-asym-040", duration=2.0)
        prep = prepare(rec.config)
        _, lip = lipschitz_cache([0.40])
        with pytest.raises(UsageError):
            zeno_guard_report(rec, prep.params, lip)

    def test_practical_gaps_exceed_bound(self, run_cache, lipschitz_cache):
        rec = run_cache("paper-zeno-040", duration=5.0)
        prep = prepare(rec.config)
        _, lip = lipschitz_cache([0.40])
        report = zeno_guard_report(rec, prep.params, lip)
        assert len(report.tau) == 5
        assert all(t > 0.0 for t in report.tau)
        assert report.satisfied
        for gap, tau in zip(report.min_inter_event, report.tau):
            assert gap >= tau

    def test_fabricated_close_events_fail_the_guard(self, run_cache, lipschitz_cache):
        rec = run_cache("paper-zeno-040", duration=5.0)
        prep = prepare(rec.config)
        _, lip = lipschitz_cache([0.40])
        flags = np.zeros_like(rec.event_flags)
        flags[1:3, 3] = True  # one step apart: h = 0.01 is below agent 3's tau
        fake = fabricated(prep, rec, flags)
        assert fake.min_inter_event[3] == prep.cfg.h
        report = zeno_guard_report(fake, prep.params, lip)
        assert not report.satisfied
        assert report.min_inter_event[3] < report.tau[3]

    def test_degenerate_agent_leaves_the_others_bounded(self, run_cache, lipschitz_cache):
        """A NaN s_i (``prepare`` refuses one; see the malformed-config cases):
        that agent's tau is inf, as when its norm failed alone, and every
        other agent keeps its bound."""
        rec = run_cache("paper-zeno-040", duration=5.0)
        prep = prepare(rec.config)
        _, lip = lipschitz_cache([0.40])
        s_coeff = prep.params.s_coeff.copy()
        s_coeff[2] = math.nan
        params = dataclasses.replace(prep.params, s_coeff=s_coeff)
        assert np.isnan(params.s_coeff[2])
        with np.errstate(all="ignore"):
            report = zeno_guard_report(rec, params, lip)
        healthy = zeno_guard_report(rec, prep.params, lip)
        assert report.tau[2] == math.inf
        assert report.tau[:2] + report.tau[3:] == healthy.tau[:2] + healthy.tau[3:]

    def test_failing_r_norm_leaves_every_agent_unbounded(self, run_cache, lipschitz_cache):
        """|R_i| = |2 kappa Q| is every agent's: when it fails, every tau is inf."""
        rec = run_cache("paper-zeno-040", duration=5.0)
        prep = prepare(rec.config)
        _, lip = lipschitz_cache([0.40])
        params = dataclasses.replace(prep.params, kappa=math.nan)
        with np.errstate(all="ignore"):
            report = zeno_guard_report(rec, params, lip)
        assert report.tau == (math.inf,) * 5

    def test_programming_error_in_the_bound_propagates(self, run_cache, lipschitz_cache,
                                                       monkeypatch):
        """Only package errors make tau inf; a TypeError is a fault, not a Zeno verdict."""
        rec = run_cache("paper-zeno-040", duration=5.0)
        prep = prepare(rec.config)
        _, lip = lipschitz_cache([0.40])

        def broken(*args):
            raise TypeError("broken bound")

        monkeypatch.setattr(control, "error_growth_gain", broken)
        with pytest.raises(TypeError, match="broken bound"):
            zeno_guard_report(rec, prep.params, lip)

    def test_agents_without_event_pairs_are_vacuous(self, run_cache, lipschitz_cache):
        rec = run_cache("paper-zeno-040", duration=5.0)
        prep = prepare(rec.config)
        _, lip = lipschitz_cache([0.40])
        flags = np.zeros_like(rec.event_flags)
        flags[50, 2] = True
        fake = fabricated(prep, rec, flags)
        report = zeno_guard_report(fake, prep.params, lip)
        assert report.satisfied
        assert all(math.isinf(g) for g in report.min_inter_event)


def graph_dict(adj: np.ndarray, x0: list, duration: float) -> dict:
    """The paper's agents on the graph ``adj``, with gain kappa1 >= rho/mu."""
    n = adj.shape[0]
    edges = [[i + 1, j + 1, float(adj[i, j])] for i, j in zip(*np.nonzero(np.triu(adj)))]
    mu = float(np.linalg.eigvalsh(np.diag(adj.sum(axis=1))[1:, 1:] - adj[1:, 1:])[0])
    return paper_dict(
        n_agents=n, edges=edges, x0=x0, duration=duration,
        sigma=[0.8] + [0.9] * (n - 1), kappa1=max(0.1, 0.02 / mu),
    )


def network_80_dict(seed: int, duration: float) -> dict:
    """80 agents on a random spanning tree plus 20 chords."""
    rng = np.random.default_rng(seed)
    adj = random_connected_graph(rng, 80, extra=20).adjacency
    return graph_dict(adj, rng.uniform(-1.0, 1.0, size=(80, 2)).tolist(), duration)


class TestDisagreement:
    """The flat-gather w against the per-agent forms of the bank reference.

    The bank reference forms w_i as one product ``coeffs_i @ (est - own)``
    per agent, the arithmetic the core must match bit for bit. The scalar
    ``compute_wi`` adds the terms one at a time, a different rounding order,
    so it agrees only to rounding.
    """

    @staticmethod
    def check(prep, rng):
        n_agents = prep.graph.n_agents
        core = lockstep([prep])
        layout = bank_reference.bank_layout(prep)
        for scale in (1e-3, 1.0, 1e3):
            xhat = scale * rng.normal(size=(n_agents, 2))
            banks = make_banks(prep.graph, xhat, prep.model.theta_hat)
            w = _disagreement(xhat, core)
            ref = bank_reference._evaluate(xhat, banks, prep, layout).w
            assert np.array_equal(w, ref)
            scalar = np.array([compute_wi(i, banks[i], prep.lap) for i in range(n_agents)])
            assert np.allclose(w, scalar, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 30 + 10 * seed
        graph = random_connected_graph(rng, n, extra=2 * n, weighted=True)
        prep = prepare_dict(graph_dict(graph.adjacency, [[0.0, 0.0]] * n, duration=0.0))
        assert max(len(graph.neighbours(i)) + 1 for i in range(n)) >= 10
        assert len(lockstep([prep]).blocks) > 3
        self.check(prep, rng)

    @pytest.mark.parametrize("seed", range(6))
    def test_network_80(self, seed):
        prep = prepare_dict(network_80_dict(seed, duration=0.0))
        self.check(prep, np.random.default_rng(seed))

    def test_w_outlives_the_core_buffers(self):
        """The core reuses its disagreement buffers on every call, so each w handed
        out must own its memory: a kept w, returned or carried by a world, stays
        as it was while the next steps run."""
        prep = load_preset("paper-asym-040", duration=1.0)
        core = lockstep([prep])
        world = initial_world(core)
        moved = 0
        for _ in range(prep.cfg.n_steps):
            kept, kept_w = world, world.w.copy()
            w = _disagreement(world.xhat, core)
            w_copy = w.copy()
            world = step(world, core)
            _disagreement(world.x, core)  # other contents in the buffers
            assert np.array_equal(kept.w, kept_w)
            assert np.array_equal(w, w_copy)
            assert not np.shares_memory(world.w, core.sums)
            moved += not np.array_equal(world.w, kept_w)
        assert moved > prep.cfg.n_steps // 2

    def test_kept_worlds_and_records_never_change(self):
        """The core reuses its stage, drive and trigger buffers on every step, so
        nothing a step or a run hands out may be one of them: every array of a
        kept world, of its trigger evaluation and of a ``run_batch`` member's
        record reads the same after further steps and further runs."""

        def arrays(obj) -> dict:
            return {k: v.tobytes() for k, v in vars(obj).items() if isinstance(v, np.ndarray)}

        preps = [load_preset(name, duration=1.0) for name in ("paper-asym-040", "paper-zeno-040")]
        core = lockstep(preps[:1])
        world = initial_world(core)
        kept = []
        for _ in range(preps[0].cfg.n_steps):
            world = step(world, core)
            kept.append((world, arrays(world), arrays(world.trigger)))
        assert len(kept[0][1]) == 3 and len(kept[0][2]) == 5
        for world, at_step, trigger_at_step in kept:
            assert arrays(world) == at_step
            assert arrays(world.trigger) == trigger_at_step
        records = run_batch(preps)
        at_close = [arrays(rec) for rec in records]
        run_batch(preps)
        run(preps[0])
        assert [arrays(rec) for rec in records] == at_close

    @pytest.mark.parametrize("preset", ["paper-asym-040", "paper-zeno-040"])
    def test_carried_w_matches_recomputed(self, preset):
        """The public step over 300 steps: the carried w is the estimates' own, and
        each step's states, flags and trigger series equal run()'s."""
        prep = load_preset(preset, duration=3.0)
        core = lockstep([prep])
        rec = run(prep)
        world = initial_world(core)
        assert np.array_equal(world.w, _disagreement(world.xhat, core))
        for k in range(1, prep.cfg.n_steps + 1):
            world = step(world, core)
            assert np.array_equal(world.w, _disagreement(world.xhat, core))
            assert np.array_equal(world.x, rec.states[k])
            assert np.array_equal(world.trigger.fired, rec.event_flags[k])
            assert np.array_equal(world.trigger.delta, rec.delta[k])
            assert np.array_equal(world.trigger.threshold, rec.threshold[k])
        assert 0 < rec.event_flags.any(axis=1).sum() < prep.cfg.n_steps


class TestBankReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_network_80_matches_reference(self, seed):
        prep = prepare_dict(network_80_dict(seed, duration=0.3))
        assert len(lockstep([prep]).blocks) > 2
        rec = run(prep)
        ref = run_reference(prep)
        assert ref.sync_mismatches == 0
        for name in ("states", "event_flags", "delta", "threshold", "w_norm", "e_norm"):
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name


class TestFileOutputs:
    def test_written_files_round_trip(self, tmp_path):
        rec = run(paper_cfg(duration=0.5))
        out = write_run_outputs(rec, tmp_path / "a")
        assert (out / "states.csv").exists()
        assert (out / "events.csv").exists()
        assert (out / "summary.json").exists()

        loaded = load_run_record(out)
        assert np.array_equal(loaded.times, rec.times)
        assert np.array_equal(loaded.states, rec.states)
        assert np.array_equal(loaded.v_series, rec.v_series)
        assert loaded.events == rec.events
        assert loaded.config.to_dict() == rec.config.to_dict()
        assert np.array_equal(loaded.per_agent_event_counts, rec.per_agent_event_counts)

    def test_rewrites_are_byte_identical(self, tmp_path):
        rec = run(paper_cfg(duration=0.5))
        a = write_run_outputs(rec, tmp_path / "a")
        b = write_run_outputs(rec, tmp_path / "b")
        for name in ("states.csv", "events.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_estimates_add_columns(self, tmp_path):
        rec = run(paper_cfg(duration=0.1, dump_estimates=True))
        out = write_run_outputs(rec, tmp_path / "est")
        header = (out / "states.csv").read_text().splitlines()[0]
        assert "xhat1_1" in header
        assert "xhat5_2" in header
        loaded = load_run_record(out)
        assert np.array_equal(loaded.states, rec.states)

    def test_reloaded_record_has_no_trigger_series(self, tmp_path, lipschitz_cache):
        rec = run(paper_cfg(ctc="practical", xi=20.0, duration=0.5))
        loaded = load_run_record(write_run_outputs(rec, tmp_path / "prac"))
        for name in ("delta", "threshold", "w_norm", "e_norm", "e_norm_post"):
            assert getattr(loaded, name) is None, name
        assert np.array_equal(loaded.event_flags, rec.event_flags)
        _, lip = lipschitz_cache([0.40])
        with pytest.raises(UsageError, match="w"):
            zeno_guard_report(loaded, prepare(rec.config).params, lip)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_record(tmp_path / "nothing-here")

    def test_one_based_agent_numbers_in_events_file(self, tmp_path):
        rec = run(paper_cfg(duration=0.2))
        out = write_run_outputs(rec, tmp_path / "ids")
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[0] == "t,agent"
        agents = {int(line.split(",")[1]) for line in lines[1:]}
        assert agents
        assert agents <= {1, 2, 3, 4, 5}
        zero_based = {a for _, a in rec.events}
        assert {a + 1 for a in zero_based} == agents

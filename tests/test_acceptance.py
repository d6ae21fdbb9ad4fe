"""Delivery acceptance checks, one test per criterion.

Each test prints a single verdict line (run with ``pytest -s`` to see them
all) and then asserts, so a red criterion shows up as an ordinary test
failure whose message carries the full detail. The benchmark targets come
from the reference study the four presets reproduce; the gamma target for
the practical CTC at theta_hat = 0.40 and T = 10 s is 425, the value implied
by the consensus and communication targets (420 + 0.1 * 250 / 5), because
the reported 343 is inconsistent with them.
"""

import json
import math

import numpy as np

from bank_reference import (
    compute_delta,
    compute_wi,
    control_input,
    ctc_threshold,
    make_banks,
    run_reference,
)
from conftest import charpoly_eigs
from etconsensus import simulator
from etconsensus.config import config_from_dict, preset_config
from etconsensus.control import build_trigger_params, practical_consensus_bound
from etconsensus.dynamics import CmfCertificate, check_cmf, make_model, trig_grid
from etconsensus.graph import Graph, build_laplacian
from etconsensus.metrics import compute_metrics, fit_decay_rate
from etconsensus.simulator import prepare, run, write_run_outputs, zeno_guard_report

PRESETS = ("paper-asym-040", "paper-asym-035", "paper-zeno-040", "paper-zeno-035")
DURATIONS = (10.0, 30.0)
INTEGRATORS = ("rk4", "euler")
BAND = 0.15

TARGET_GAMMA = {
    ("paper-asym-040", 10.0): 387.0,
    ("paper-asym-035", 10.0): 393.0,
    ("paper-zeno-040", 10.0): 425.0,
    ("paper-zeno-035", 10.0): 395.0,
    ("paper-asym-040", 30.0): 727.0,
    ("paper-asym-035", 30.0): 764.0,
    ("paper-zeno-040", 30.0): 843.0,
    ("paper-zeno-035", 30.0): 843.0,
}
TARGET_CONSENSUS = {
    ("paper-asym-040", 10.0): 311.0,
    ("paper-asym-035", 10.0): 300.0,
    ("paper-zeno-040", 10.0): 420.0,
    ("paper-zeno-035", 10.0): 393.0,
    ("paper-asym-040", 30.0): 409.0,
    ("paper-asym-035", 30.0): 388.0,
    ("paper-zeno-040", 30.0): 829.0,
    ("paper-zeno-035", 30.0): 830.0,
}
TARGET_COMM = {
    ("paper-asym-040", 10.0): 3800.0,
    ("paper-asym-035", 10.0): 4650.0,
    ("paper-zeno-040", 10.0): 250.0,
    ("paper-zeno-035", 10.0): 200.0,
    ("paper-asym-040", 30.0): 15850.0,
    ("paper-asym-035", 30.0): 18800.0,
    ("paper-zeno-040", 30.0): 700.0,
    ("paper-zeno-035", 30.0): 650.0,
}

FIG_EDGES = [[1, 2], [2, 3], [2, 5], [3, 4]]
P = np.array([[5.0, 2.0], [2.0, 1.0]])
B = np.array([[0.0], [-1.0]])
SIGMA = [0.8, 0.9, 0.9, 0.9, 0.9]


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def finish(n: int, failures: list, pass_detail: str) -> None:
    if failures:
        verdict(n, False, f"{len(failures)} checks failed")
        for line in failures:
            print(f"    {line}")
    else:
        verdict(n, True, pass_detail)
    assert not failures, "\n".join(failures)


def test_criterion_1_benchmark_tables(run_cache):
    failures = []
    reports = {}
    for integ in INTEGRATORS:
        for preset in PRESETS:
            for T in DURATIONS:
                rec = run_cache(preset, duration=T, integrator=integ)
                reports[(integ, preset, T)] = (compute_metrics(rec), rec)

    for (integ, preset, T), (rep, rec) in reports.items():
        cells = (
            ("gamma", rep.gamma, TARGET_GAMMA[preset, T]),
            ("consensus", rep.consensus_sum, TARGET_CONSENSUS[preset, T]),
            ("comm", float(rep.comm_count), TARGET_COMM[preset, T]),
        )
        for label, value, target in cells:
            lo, hi = target * (1.0 - BAND), target * (1.0 + BAND)
            if not (lo <= value <= hi):
                failures.append(
                    f"{preset} T={T:g} {integ}: {label} {value:.6g}"
                    f" outside {target:g} +/- 15% [{lo:.6g}, {hi:.6g}]"
                )

    for integ in INTEGRATORS:
        for hat in ("040", "035"):
            for T in DURATIONS:
                asym = reports[(integ, f"paper-asym-{hat}", T)][0]
                prac = reports[(integ, f"paper-zeno-{hat}", T)][0]
                if not prac.comm_count < asym.comm_count:
                    failures.append(
                        f"theta_hat 0.{hat[1:]} T={T:g} {integ}: comm ordering violated"
                        f" (practical {prac.comm_count} vs asymptotic {asym.comm_count})"
                    )
                if not asym.consensus_sum < prac.consensus_sum:
                    failures.append(
                        f"theta_hat 0.{hat[1:]} T={T:g} {integ}: consensus ordering violated"
                        f" (asymptotic {asym.consensus_sum:.6g}"
                        f" vs practical {prac.consensus_sum:.6g})"
                    )

    for (integ, preset, T), (rep, rec) in reports.items():
        if T == 30.0 and not rec.runtime_seconds < 1.0:
            failures.append(
                f"{preset} {integ}: 30 s run took {rec.runtime_seconds:.3f} s (>= 1 s)"
            )

    finish(1, failures, "48 table cells in band, orderings exact, 30 s runs under 1 s")


def test_criterion_2_asymptotic_decay(run_cache):
    failures = []
    for integ in INTEGRATORS:
        for preset in ("paper-asym-040", "paper-asym-035"):
            rec = run_cache(preset, duration=10.0, integrator=integ)
            tag = f"{preset} {integ}"
            ratio = rec.v_final / rec.v_initial
            if not ratio < 0.01:
                failures.append(f"{tag}: V(10)/V(0) = {ratio:.3e} not below 0.01")
            rate = fit_decay_rate(rec)
            if not rate > 0.0:
                failures.append(f"{tag}: fitted decay rate {rate:.3e} not positive")
            growth = 1.0 + 10.0 * rec.config.h
            bad = int(np.count_nonzero(rec.v_series[1:] > rec.v_series[:-1] * growth))
            if bad:
                failures.append(f"{tag}: ripple bound violated at {bad} steps")
    finish(
        2,
        failures,
        "V(10) < 0.01 V(0), decay rate positive, ripple bound clean"
        " for both estimates and integrators",
    )


def test_criterion_3_practical_bound(run_cache):
    failures = []
    cfg0 = config_from_dict(preset_config("paper-zeno-040"))
    bound = practical_consensus_bound(cfg0.n_agents, cfg0.xi, cfg0.q, np.asarray(cfg0.P))
    closed_form = 100.0 / (3.0 - 2.0 * math.sqrt(2.0))
    if not math.isclose(bound, closed_form, rel_tol=1e-12):
        failures.append(f"bound {bound!r} does not match 100/(3 - 2 sqrt(2))")
    for integ in INTEGRATORS:
        for preset in ("paper-zeno-040", "paper-zeno-035"):
            rec = run_cache(preset, duration=30.0, integrator=integ)
            cfg = rec.config
            tag = f"{preset} {integ}"
            tail = rec.dist_series[rec.times >= rec.times[-1] - 5.0 - 1e-12]
            worst = float(tail.max())
            if not worst <= bound:
                failures.append(
                    f"{tag}: max squared distance over the last 5 s"
                    f" {worst:.6g} exceeds {bound:.6g}"
                )
            floor = cfg.n_agents * cfg.xi / cfg.q
            envelope = (rec.v_initial - floor) * np.exp(-cfg.q * rec.times) + floor
            bad = int(np.count_nonzero(rec.v_series > envelope * 1.05))
            if bad:
                failures.append(f"{tag}: V exceeds the 5% envelope at {bad} samples")
    finish(
        3,
        failures,
        f"squared distance stays under {bound:.6g} over the last 5 s"
        " and V stays inside the envelope at every sample",
    )


def test_criterion_4_event_spacing_guard(run_cache, lipschitz_cache):
    failures = []
    nontrivial = 0
    for integ in INTEGRATORS:
        for preset, hat in (("paper-zeno-040", (0.40,)), ("paper-zeno-035", (0.35,))):
            rec = run_cache(preset, duration=30.0, integrator=integ)
            params = prepare(rec.config).params
            _, lip = lipschitz_cache(list(hat))
            guard = zeno_guard_report(rec, params, lip)
            tag = f"{preset} {integ}"
            for i, tau in enumerate(guard.tau):
                if not tau > 0.0:
                    failures.append(f"{tag}: tau[{i}] = {tau!r} not positive")
            for i, (gap, tau) in enumerate(zip(guard.min_inter_event, guard.tau)):
                if math.isfinite(gap):
                    nontrivial += 1
                if gap < tau:
                    failures.append(
                        f"{tag}: agent {i + 1} min inter-event gap {gap:.6g}"
                        f" below its bound tau = {tau:.6g}"
                    )
            if not guard.satisfied:
                failures.append(f"{tag}: guard report not satisfied")
    if nontrivial == 0:
        failures.append("no agent fired twice anywhere; the guard was never exercised")
    finish(
        4,
        failures,
        f"all taus positive and every measured gap at least tau"
        f" ({nontrivial} agent/run pairs exercised)",
    )


def test_criterion_5_trigger_soundness(run_cache):
    failures = []
    quiet_total = 0
    for integ in INTEGRATORS:
        for preset in PRESETS:
            rec = run_cache(preset, duration=30.0, integrator=integ)
            cfg = rec.config
            tag = f"{preset} {integ}"
            if rec.delta.shape[0] < 3000 or rec.delta.shape[1] != 5:
                failures.append(f"{tag}: sample grid {rec.delta.shape} too small")
            xi = cfg.xi if cfg.ctc == "practical" else 0.0
            quiet = ~rec.event_flags
            excess = rec.delta - (rec.threshold + xi + 1e-9)
            bad = int(np.count_nonzero(quiet & (excess > 0.0)))
            if bad:
                failures.append(
                    f"{tag}: delta exceeds the trigger threshold at {bad}"
                    " quiet agent samples"
                )
            quiet_total += int(np.count_nonzero(quiet))
            nonzero_post = int(np.count_nonzero(rec.e_norm_post[rec.event_flags]))
            if nonzero_post:
                failures.append(
                    f"{tag}: estimation error nonzero right after {nonzero_post} events"
                )
    prep = prepare(config_from_dict(preset_config("paper-zeno-040")))
    params = prep.params
    rng = np.random.default_rng(77)
    for i in range(5):
        for _ in range(10):
            if compute_delta(i, np.zeros(2), rng.normal(size=2), params) != 0.0:
                failures.append(f"delta not exactly zero at e = 0 for agent {i + 1}")
    for _ in range(10):
        x = rng.normal(size=(5, 2))
        if np.any(simulator._evaluate(x, x, prep).delta != 0.0):
            failures.append("the simulator's delta is not exactly zero at e = 0")
    finish(
        5,
        failures,
        f"delta within threshold at all {quiet_total} quiet agent samples;"
        " error and delta exactly zero after every event",
    )


def test_criterion_6_oracle_equivalences():
    failures = []
    graph = Graph.from_edges(5, FIG_EDGES)
    lap = build_laplacian(graph)
    params = build_trigger_params(lap, P, B, kappa1=0.1, kappa2=5.0, sigma=SIGMA)

    # The simulator's vectorized trigger quantities against the scalar
    # per-agent forms, on the same graph and gains.
    prep = prepare(config_from_dict(preset_config("paper-asym-040")))
    rng = np.random.default_rng(1234)
    worst_w = 0.0
    worst_phi = 0.0
    worst_core = 0.0
    for _ in range(1000):
        xhat = rng.normal(size=(5, 2))
        x = xhat + rng.normal(size=(5, 2))
        banks = make_banks(graph, xhat, [0.4])
        want = lap.L @ xhat
        core = simulator._evaluate(x, xhat, prep)
        for i in range(5):
            w = compute_wi(i, banks[i], lap)
            worst_w = max(worst_w, float(np.max(np.abs(w - want[i]))))
            worst_core = max(
                worst_core,
                float(np.max(np.abs(core.w[i] - w))),
                abs(core.delta[i] - compute_delta(i, x[i] - xhat[i], w, params))
                / max(1.0, abs(core.delta[i])),
                abs(core.threshold[i] - ctc_threshold(i, w, params))
                / max(1.0, abs(core.threshold[i])),
            )
            if i > 0:
                u = control_input(i, banks[i], lap, params)
                phi = -params.kappa * (params.BtP @ w)
                worst_phi = max(worst_phi, float(np.max(np.abs(u - phi))))
    if worst_w > 1e-12:
        failures.append(f"disagreement forms differ by {worst_w:.3e} (> 1e-12)")
    if worst_phi > 1e-12:
        failures.append(f"control identity off by {worst_phi:.3e} (> 1e-12)")
    if worst_core > 1e-12:
        failures.append(f"simulator trigger quantities off the scalar forms by {worst_core:.3e}")

    eigs_L = charpoly_eigs(lap.L)
    eigs_follower = charpoly_eigs(lap.L[1:, 1:])
    if abs(lap.lambda_max - eigs_L[-1]) > 1e-9:
        failures.append(
            f"lambda_max {lap.lambda_max!r} vs charpoly {eigs_L[-1]!r}"
        )
    if abs(lap.mu - eigs_follower[0]) > 1e-9:
        failures.append(f"mu {lap.mu!r} vs charpoly {eigs_follower[0]!r}")
    if abs(lap.epsilon - 1.0 / eigs_L[-1]) > 1e-9:
        failures.append(f"epsilon {lap.epsilon!r} vs 1/lambda_max")

    # scalar gain oracle, term by term
    btp = (-P[0][1], -P[1][1])
    pbbp = [[btp[a] * btp[b] for b in range(2)] for a in range(2)]
    kappa = 0.1 + 5.0
    eps = lap.epsilon
    worst_gain = 0.0
    for i in range(5):
        l_ii = float(lap.L[i, i])
        b_i = 1.0 / (5.0 * l_ii)
        m_i = float(sum(lap.L[i, j] ** 2 for j in range(5)))
        theta_c = 2.0 * 5.0 * eps * (1.0 - 2.0 * l_ii * b_i)
        s_c = (
            2.0 * kappa * l_ii * b_i
            + 2.0 * kappa * l_ii / b_i
            + 5.0 * eps * (4.0 * l_ii / b_i - 5.0 * m_i * (b_i / 2.0 + 1.0 / (2.0 * b_i)))
        )
        for a in range(2):
            for c in range(2):
                for got, want in (
                    (params.R[i][a][c], 2.0 * kappa * pbbp[a][c]),
                    (params.Theta[i][a][c], theta_c * pbbp[a][c]),
                    (params.S[i][a][c], s_c * pbbp[a][c]),
                ):
                    err = abs(got - want) / max(1.0, abs(want))
                    worst_gain = max(worst_gain, err)
    if worst_gain > 1e-12:
        failures.append(f"gain matrices differ from scalar oracle by {worst_gain:.3e}")

    finish(
        6,
        failures,
        "disagreement, control, simulator trigger, spectral, and gain-matrix oracles agree"
        f" (worst deviations {worst_w:.1e}, {worst_phi:.1e}, {worst_core:.1e}, {worst_gain:.1e})",
    )


def test_criterion_7_certificate_sampling():
    failures = []
    model = make_model("paper-sys", [0.5], [0.40])
    grid = trig_grid()
    thetas = [[0.5], [0.40], [0.35]]
    report = check_cmf(model, CmfCertificate(P=P.copy(), rho=0.02, q=1.0), grid, thetas=thetas)
    negative = check_cmf(model, CmfCertificate(P=P.copy(), rho=0.02, q=10.0), grid, thetas=thetas)
    if not report.holds:
        x, th = report.worst_point
        failures.append(
            f"certificate rejected on the grid: worst margin {report.worst_margin:.6g}"
            f" at x = ({x[0]:g}, {x[1]:g}), theta = {th[0]:g}"
            f" over {report.n_points} samples"
        )
    if negative.holds:
        failures.append("negative control q = 10 unexpectedly holds")
    finish(
        7,
        failures,
        f"certificate holds (margin {report.worst_margin:.3g}) and the q = 10"
        f" control fails (margin {negative.worst_margin:.3g})",
    )


def test_criterion_8_structural_invariants(run_cache, tmp_path):
    # Synchrony: in the bank-form reference, where every holder keeps its own
    # copy of an estimate, the copies agree bit for bit at every step; and the
    # simulator, which stores one copy, reproduces the reference bit for bit.
    failures = []
    for integ in INTEGRATORS:
        for preset in PRESETS:
            for T in DURATIONS:
                rec = run_cache(preset, duration=T, integrator=integ)
                ref = run_reference(prepare(rec.config))
                tag = f"{preset} T={T:g} {integ}"
                if ref.sync_mismatches != 0:
                    failures.append(f"{tag}: {ref.sync_mismatches} estimator synchrony mismatches")
                for name in ("states", "event_flags", "delta", "threshold", "w_norm", "e_norm"):
                    if not np.array_equal(getattr(rec, name), getattr(ref, name)):
                        failures.append(f"{tag}: {name} differs from the bank-form reference")

    rec_a = run(config_from_dict(preset_config("paper-asym-040")))
    rec_b = run(config_from_dict(preset_config("paper-asym-040")))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_run_outputs(rec_a, dir_a)
    write_run_outputs(rec_b, dir_b)
    for name in ("states.csv", "events.csv"):
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            failures.append(f"repeated runs differ in {name}")
    sum_a = json.loads((dir_a / "summary.json").read_text())
    sum_b = json.loads((dir_b / "summary.json").read_text())
    sum_a.pop("runtime_seconds")
    sum_b.pop("runtime_seconds")
    if sum_a != sum_b:
        failures.append("repeated runs differ in summary.json beyond runtime")

    rec = run_cache("paper-asym-040", duration=10.0, integrator="rk4")
    model = make_model("paper-sys", [0.5], [0.40])
    h = rec.config.h
    y = np.asarray(rec.config.x0, dtype=float)[0].copy()
    for k in range(rec.n_steps + 1):
        if not np.array_equal(rec.states[k, 0], y):
            failures.append(f"leader trajectory leaves the autonomous solution at step {k}")
            break
        k1 = model.f(y, model.theta_true)
        k2 = model.f(y + (h / 2.0) * k1, model.theta_true)
        k3 = model.f(y + (h / 2.0) * k2, model.theta_true)
        k4 = model.f(y + h * k3, model.theta_true)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    finish(
        8,
        failures,
        "synchrony bit-exact in all 16 runs and equal to the bank-form reference,"
        " repeated runs byte-identical,"
        " leader bitwise autonomous",
    )

"""Fixed-step deterministic closed-loop simulation.

One step advances the world from t to t+h in a fixed order: controls are
computed from the current estimates and held constant over the step (zero
order hold), the true states and every estimator bank advance one integrator
step, then the triggering conditions are evaluated for all agents on the
post-integration values and every firing agent broadcasts its true state in
one synchronous batch, so evaluation order cannot leak between agents.

Runs are bit-for-bit reproducible for a fixed numpy/BLAS build: no
randomness, no wall-clock dependence in the dynamics, and a deterministic
Jacobi eigensolver instead of LAPACK.
The leader's row is never touched by the control term, so its trajectory is
bitwise identical to a leader integrated alone.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .control import (
    TriggerParams,
    TriggerState,
    build_trigger_params,
    check_gain_condition,
    compute_wi,
    ctc_threshold,
    error_growth_gain,
    tau_lower_bound,
)
from .dynamics import CmfCertificate, LipschitzData, SystemModel, make_model
from .errors import ConfigError, NumericsError, UsageError
from .estimation import EstimatorBank, apply_broadcast, make_banks, propagate_all
from .graph import Graph, Laplacian, build_laplacian
from .integrate import INTEGRATORS, step_fn

CTC_VARIANTS = ("asymptotic", "practical")


@dataclass
class SimConfig:
    """Complete description of one simulation run.

    ``seed`` is reserved for future stochastic extensions and unused: runs
    are deterministic. ``b`` and ``epsilon`` may be None to take the defaults
    b_i = 1/(5 l_ii) and epsilon = 1/lambda_max(L).
    """

    n_agents: int
    edges: list
    x0: list
    duration: float
    ctc: str
    kappa1: float
    kappa2: float
    sigma: object
    P: list
    rho: float
    q: float
    theta: list
    theta_hat: list
    model: str = "paper-sys"
    h: float = 0.01
    integrator: str = "rk4"
    b: object = None
    epsilon: float | None = None
    xi: float = 0.0
    dump_estimates: bool = False
    check_synchrony: bool = True
    seed: int = 0

    def to_dict(self) -> dict:
        """Canonical JSON-ready form with a fixed key order."""

        def plain(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, (list, tuple)):
                return [plain(u) for u in v]
            return v

        keys = (
            "model",
            "theta",
            "theta_hat",
            "n_agents",
            "edges",
            "x0",
            "h",
            "duration",
            "integrator",
            "ctc",
            "kappa1",
            "kappa2",
            "sigma",
            "b",
            "epsilon",
            "xi",
            "P",
            "rho",
            "q",
            "dump_estimates",
            "check_synchrony",
            "seed",
        )
        return {k: plain(getattr(self, k)) for k in keys}


@dataclass(frozen=True)
class Prepared:
    """Validated, fully derived run inputs.

    ``members``/``coeffs``/``own_pos`` precompute, per agent, the bank row
    layout (make_banks orders rows by ascending agent id) and the matching
    Laplacian row entries, so the step loop can evaluate w_i and the control
    sums without per-call index lookups. ``sync_groups`` lists, per observed
    agent, every (bank index, row index) holding an estimate of it.
    """

    cfg: SimConfig
    model: SystemModel
    graph: Graph
    lap: Laplacian
    params: TriggerParams
    cert: CmfCertificate
    x0: np.ndarray
    members: tuple
    coeffs: tuple
    own_pos: tuple
    sync_groups: tuple
    Q: np.ndarray
    n_steps: int


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _check_field_types(cfg: SimConfig) -> None:
    """Reject a wrong type or a non-finite number before any field is used."""
    if not _is_int(cfg.n_agents) or cfg.n_agents < 1:
        raise ConfigError(f"n_agents must be a positive integer, got {cfg.n_agents!r}")
    if not isinstance(cfg.model, str):
        raise ConfigError(f"model must be a model name, got {cfg.model!r}")
    for name in ("dump_estimates", "check_synchrony"):
        if not isinstance(getattr(cfg, name), (bool, np.bool_)):
            raise ConfigError(f"{name} must be true or false, got {getattr(cfg, name)!r}")
    for name in ("h", "duration", "kappa1", "kappa2", "xi", "rho", "q", "epsilon"):
        v = getattr(cfg, name)
        if not (_is_finite_real(v) or (v is None and name == "epsilon")):
            raise ConfigError(f"{name} must be a finite number, got {v!r}")
    for name in ("theta", "theta_hat", "x0", "sigma", "b", "P"):
        v = getattr(cfg, name)
        if v is None and name == "b":
            continue
        try:
            arr = np.asarray(v)
        except ValueError:  # ragged nesting
            arr = None
        if arr is None or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise ConfigError(
                f"{name} must be a number or a rectangular array of finite numbers, got {v!r}"
            )
    edges = cfg.edges if isinstance(cfg.edges, (list, tuple)) else [cfg.edges]
    for edge in edges:
        if not (
            isinstance(edge, (list, tuple))
            and len(edge) in (2, 3)
            and all(_is_int(v) for v in edge[:2])
            and all(_is_finite_real(v) for v in edge[2:])
        ):
            raise ConfigError(
                f"edges entry {edge!r} must be [i, j] or [i, j, weight]"
                " with integer agent ids and a finite weight"
            )


def prepare(cfg: SimConfig) -> Prepared:
    """Validate a config and derive every object a run needs.

    Raises ConfigError (or a more specific package error) naming the field
    and the violated constraint.
    """
    _check_field_types(cfg)
    if cfg.h <= 0.0:
        raise ConfigError(f"h must be > 0, got {cfg.h!r}")
    if cfg.duration < 0.0:
        raise ConfigError(f"duration must be >= 0, got {cfg.duration!r}")
    steps = cfg.duration / cfg.h
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * max(steps, 1.0)):
        raise ConfigError(
            f"duration must be an integer multiple of h, got duration = {cfg.duration!r}"
            f" and h = {cfg.h!r}"
        )
    if cfg.integrator not in INTEGRATORS:
        raise ConfigError(
            f"integrator must be one of {INTEGRATORS}, got {cfg.integrator!r}"
        )
    if cfg.ctc not in CTC_VARIANTS:
        raise ConfigError(f"ctc must be one of {CTC_VARIANTS}, got {cfg.ctc!r}")
    if cfg.ctc == "practical" and cfg.xi <= 0.0:
        raise ConfigError(f"xi must be > 0 when ctc is practical, got {cfg.xi!r}")
    if cfg.ctc == "asymptotic" and cfg.xi != 0.0:
        raise ConfigError(f"xi must be 0 when ctc is asymptotic, got {cfg.xi!r}")

    model = make_model(cfg.model, cfg.theta, cfg.theta_hat)
    graph = Graph.from_edges(cfg.n_agents, cfg.edges)
    lap = build_laplacian(graph, cfg.epsilon)

    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (cfg.n_agents, model.state_dim):
        raise ConfigError(
            f"x0 must have shape {(cfg.n_agents, model.state_dim)}, got {x0.shape}"
        )

    cert = CmfCertificate(P=np.asarray(cfg.P, dtype=float), rho=cfg.rho, q=cfg.q)
    check_gain_condition(cfg.kappa1, cfg.rho, lap.mu)
    params = build_trigger_params(
        lap,
        cert.P,
        model.B,
        kappa1=cfg.kappa1,
        kappa2=cfg.kappa2,
        sigma=cfg.sigma,
        b=cfg.b,
        xi=cfg.xi,
    )

    # Bank row layout mirrors make_banks: rows sorted by agent id, and the
    # nonzero entries of Laplacian row i are exactly {i} union neighbours(i).
    members = tuple(
        tuple(sorted({i} | set(graph.neighbours(i)))) for i in range(cfg.n_agents)
    )
    coeffs = tuple(lap.L[i, list(members[i])].copy() for i in range(cfg.n_agents))
    own_pos = tuple(members[i].index(i) for i in range(cfg.n_agents))
    groups = []
    for j in range(cfg.n_agents):
        holders = tuple(
            (i, members[i].index(j)) for i in range(cfg.n_agents) if j in members[i]
        )
        if len(holders) > 1:
            groups.append(holders)
    Q = params.P @ params.B @ params.B.T @ params.P
    return Prepared(
        cfg=cfg,
        model=model,
        graph=graph,
        lap=lap,
        params=params,
        cert=cert,
        x0=x0,
        members=members,
        coeffs=coeffs,
        own_pos=own_pos,
        sync_groups=tuple(groups),
        Q=Q,
        n_steps=int(round(steps)),
    )


@dataclass
class WorldState:
    """Instantaneous simulation state: time, true states, banks, trigger data."""

    t: float
    x: np.ndarray
    banks: list[EstimatorBank]
    trigger: TriggerState


def initial_world(prep: Prepared) -> WorldState:
    return WorldState(
        t=0.0,
        x=prep.x0.copy(),
        banks=make_banks(prep.graph, prep.x0, prep.model.theta_hat),
        trigger=TriggerState.initial(prep.graph.n_agents, prep.model.state_dim),
    )


def step(world: WorldState, prep: Prepared) -> WorldState:
    """Advance one step of the prepared run."""
    return _step(world, prep)


def _step(world: WorldState, prep: Prepared) -> WorldState:
    cfg = prep.cfg
    model = prep.model
    n_agents = prep.graph.n_agents
    stepper = step_fn(cfg.integrator)
    h = cfg.h
    params = prep.params
    kappa = params.kappa
    BtP = params.BtP

    # Zero-order hold: inputs from the estimates at time t, constant over the
    # step. The disagreement form equals control_input up to rounding order
    # and vanishes exactly when a bank's estimates agree, so a consensus
    # state cannot be perturbed by summation residue.
    bu = np.zeros_like(world.x)
    for i in range(1, n_agents):
        est = world.banks[i].estimates
        w_ctl = prep.coeffs[i] @ (est - est[prep.own_pos[i]])
        bu[i] = model.B @ (-kappa * (BtP @ w_ctl))

    theta_true = model.theta_true

    def plant_field(y: np.ndarray) -> np.ndarray:
        out = model.f(y, theta_true)
        out[1:] += bu[1:]
        return out

    x_new = stepper(plant_field, world.x, h)
    banks_new = propagate_all(world.banks, model, h, cfg.integrator)
    t_new = world.t + h
    if not np.isfinite(x_new).all():
        raise NumericsError(
            f"non-finite true state at t = {t_new:.6f}: x = {x_new.tolist()}"
        )

    # Evaluate both trigger quantities for every agent on post-integration,
    # pre-reset values, then broadcast all firing agents as one batch. The
    # quadratic forms use S_i = s_i Q, Theta_i = c_i Q, R_i = 2 kappa Q with
    # Q = P B B' P, so one (N, n) sweep covers every agent.
    tr = world.trigger
    e = np.empty_like(x_new)
    w = np.empty_like(x_new)
    for i in range(n_agents):
        est = banks_new[i].estimates
        own = est[prep.own_pos[i]]
        e[i] = x_new[i] - own
        w[i] = prep.coeffs[i] @ (est - own)
    wQ = w @ prep.Q
    eQ = e @ prep.Q
    delta = params.s_coeff * (eQ * e).sum(axis=1) + np.abs(
        2.0 * kappa * (wQ * e).sum(axis=1)
    )
    threshold = params.sigma * params.theta_coeff * (wQ * w).sum(axis=1)
    fired = delta - threshold - params.xi > 0.0

    last_event = tr.last_event_time.copy()
    counts = tr.event_count.copy()
    for i in np.nonzero(fired)[0]:
        apply_broadcast(banks_new, int(i), x_new[int(i)])
        last_event[i] = t_new
        counts[i] += 1

    return WorldState(
        t=t_new,
        x=x_new,
        banks=banks_new,
        trigger=TriggerState(
            last_event_time=last_event,
            event_count=counts,
            e=e,
            w=w,
            delta=delta,
            threshold=threshold,
            fired=fired,
        ),
    )


@dataclass
class RunRecord:
    """Complete time series and event log of one run.

    ``delta``, ``threshold``, ``w_norm``, ``e_norm`` hold the trigger
    quantities as evaluated at each instant's CTC check (pre-reset);
    ``e_norm_post`` holds the estimation error after the batch of resets, so
    it is exactly zero wherever an event fired. ``r_series``, each agent's
    offset from the leader, is derived from ``states`` on access.
    """

    times: np.ndarray
    states: np.ndarray
    events: list
    event_flags: np.ndarray
    v_series: np.ndarray
    dist_series: np.ndarray
    per_agent_event_counts: np.ndarray
    delta: np.ndarray
    threshold: np.ndarray
    w_norm: np.ndarray
    e_norm: np.ndarray
    e_norm_post: np.ndarray
    config: SimConfig | None = None
    est_series: np.ndarray | None = None
    agent_degrees: np.ndarray | None = None
    derived: dict = field(default_factory=dict)
    sync_mismatches: int = 0
    runtime_seconds: float = 0.0
    error: str | None = None

    @property
    def r_series(self) -> np.ndarray:
        return self.states - self.states[:, :1, :]

    @property
    def v_initial(self) -> float:
        return float(self.v_series[0])

    @property
    def v_final(self) -> float:
        return float(self.v_series[-1])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _banks_synchronized(banks: list[EstimatorBank], groups: tuple) -> bool:
    """Bitwise agreement of every pair of estimates of the same agent.

    ``groups`` is the (bank index, row index) layout from Prepared.sync_groups.
    """
    for grp in groups:
        b0, r0 = grp[0]
        ref = banks[b0].estimates[r0].tobytes()
        for b, r in grp[1:]:
            if banks[b].estimates[r].tobytes() != ref:
                return False
    return True


def _v_and_dist(states: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V(k) = sum over followers of r_i' P r_i, and the squared spread about the mean.

    Each full-size temporary is freed before the next is made, and all are
    freed before a record's event list is built.
    """
    rf = (states - states[:, :1, :])[:, 1:, :]
    v_series = np.einsum("kin,nm,kim->k", rf, P, rf)
    del rf
    centered = states - states.mean(axis=1, keepdims=True)
    centered *= centered
    return v_series, centered.sum(axis=(1, 2))


def _assemble_record(
    prep: Prepared,
    times,
    states,
    flags,
    delta,
    threshold,
    w_norm,
    e_norm,
    e_norm_post,
    est_series,
    sync_mismatches,
    runtime,
    error=None,
) -> RunRecord:
    cfg = prep.cfg
    states = np.asarray(states)
    flags = np.asarray(flags)
    v_series, dist_series = _v_and_dist(states, prep.cert.P)
    events = [
        (float(times[k]), int(i))
        for k in range(flags.shape[0])
        for i in np.nonzero(flags[k])[0]
    ]
    derived = {
        "mu": prep.lap.mu,
        "lambda_max": prep.lap.lambda_max,
        "epsilon": prep.lap.epsilon,
        "M": prep.lap.M.tolist(),
        "l_diag": np.diag(prep.lap.L).tolist(),
        "kappa": prep.params.kappa,
        "s_coeff": prep.params.s_coeff.tolist(),
        "theta_coeff": prep.params.theta_coeff.tolist(),
        "R": [m.tolist() for m in prep.params.R],
        "Theta": [m.tolist() for m in prep.params.Theta],
        "S": [m.tolist() for m in prep.params.S],
        "sigma": prep.params.sigma.tolist(),
        "b": prep.params.b.tolist(),
    }
    return RunRecord(
        times=np.asarray(times),
        states=states,
        events=events,
        event_flags=flags,
        v_series=v_series,
        dist_series=dist_series,
        per_agent_event_counts=flags.sum(axis=0).astype(int),
        delta=np.asarray(delta),
        threshold=np.asarray(threshold),
        w_norm=np.asarray(w_norm),
        e_norm=np.asarray(e_norm),
        e_norm_post=np.asarray(e_norm_post),
        config=cfg,
        est_series=None if est_series is None else np.asarray(est_series),
        agent_degrees=(prep.graph.adjacency > 0).sum(axis=1).astype(int),
        derived=derived,
        sync_mismatches=sync_mismatches,
        runtime_seconds=runtime,
        error=error,
    )


def run(spec: Prepared | SimConfig) -> RunRecord:
    """Execute duration/h steps and return the complete record.

    ``spec`` is a prepared run, or a config that is prepared here once.
    Bit-identical across repeated invocations with the same config. If the
    state becomes non-finite, the NumericsError carries the truncated record
    (every completed step) as ``partial_record``.
    """
    prep = spec if isinstance(spec, Prepared) else prepare(spec)
    cfg = prep.cfg
    n_agents = prep.graph.n_agents
    n = prep.model.state_dim
    n_steps = prep.n_steps

    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, n_agents, n))
    flags = np.zeros((n_steps + 1, n_agents), dtype=bool)
    delta = np.zeros((n_steps + 1, n_agents))
    threshold = np.zeros((n_steps + 1, n_agents))
    w_norm = np.zeros((n_steps + 1, n_agents))
    e_norm = np.zeros((n_steps + 1, n_agents))
    e_norm_post = np.zeros((n_steps + 1, n_agents))
    est_series = np.empty((n_steps + 1, n_agents, n)) if cfg.dump_estimates else None

    world = initial_world(prep)
    times[0] = 0.0
    states[0] = world.x
    for i in range(n_agents):
        w0 = compute_wi(i, world.banks[i], prep.lap)
        w_norm[0, i] = math.sqrt(float(w0 @ w0))
        threshold[0, i] = ctc_threshold(i, w0, prep.params)
    if est_series is not None:
        est_series[0] = [world.banks[i].estimate_of(i) for i in range(n_agents)]

    sync_mismatches = 0
    start = time.perf_counter()
    for k in range(1, n_steps + 1):
        try:
            world = _step(world, prep)
        except NumericsError as exc:
            runtime = time.perf_counter() - start
            exc.partial_record = _assemble_record(
                prep,
                times[:k],
                states[:k],
                flags[:k],
                delta[:k],
                threshold[:k],
                w_norm[:k],
                e_norm[:k],
                e_norm_post[:k],
                None if est_series is None else est_series[:k],
                sync_mismatches,
                runtime,
                error=str(exc),
            )
            raise
        times[k] = k * cfg.h
        states[k] = world.x
        tr = world.trigger
        flags[k] = tr.fired
        delta[k] = tr.delta
        threshold[k] = tr.threshold
        w_norm[k] = np.sqrt((tr.w * tr.w).sum(axis=1))
        e_norm[k] = np.sqrt((tr.e * tr.e).sum(axis=1))
        for i in range(n_agents):
            if tr.fired[i]:
                post = world.x[i] - world.banks[i].estimate_of(i)
                e_norm_post[k, i] = math.sqrt(float(post @ post))
            else:
                e_norm_post[k, i] = e_norm[k, i]
        if est_series is not None:
            est_series[k] = [world.banks[i].estimate_of(i) for i in range(n_agents)]
        if cfg.check_synchrony and not _banks_synchronized(world.banks, prep.sync_groups):
            sync_mismatches += 1
    runtime = time.perf_counter() - start

    return _assemble_record(
        prep,
        times,
        states,
        flags,
        delta,
        threshold,
        w_norm,
        e_norm,
        e_norm_post,
        est_series,
        sync_mismatches,
        runtime,
    )


@dataclass(frozen=True)
class ZenoGuardReport:
    """Per-agent comparison of measured minimum inter-event gaps against tau_i."""

    min_inter_event: tuple
    tau: tuple
    w_max: tuple
    satisfied: bool


def zeno_guard_report(
    record: RunRecord, params: TriggerParams, lipschitz: LipschitzData
) -> ZenoGuardReport:
    """Check min inter-event time >= tau_i per agent on a practical-CTC record.

    Agents with fewer than two events are vacuously satisfied. tau_i uses the
    run-measured per-agent w_max and the grid-estimated k and Delta.
    """
    if record.config is None or record.config.ctc != "practical":
        raise UsageError(
            "the Zeno guard applies only to practical-CTC records;"
            " the asymptotic trigger carries no inter-event guarantee"
        )
    n_agents = record.w_norm.shape[1]
    from .linalg import spectral_norm

    bbtp_norm = spectral_norm(params.B @ params.BtP)
    gaps = []
    taus = []
    w_maxes = []
    ok = True
    for i in range(n_agents):
        w_max = float(record.w_norm[:, i].max())
        w_maxes.append(w_max)
        try:
            nu = error_growth_gain(params.kappa, bbtp_norm, w_max, lipschitz.Delta, lipschitz.k)
            tau = tau_lower_bound(
                lipschitz.k,
                nu,
                spectral_norm(params.S[i]),
                spectral_norm(params.R[i]),
                w_max,
                params.xi,
            )
        except Exception:
            tau = math.inf
        taus.append(tau)
        t_events = [t for t, a in record.events if a == i]
        if len(t_events) < 2:
            gaps.append(math.inf)
            continue
        gap = min(b - a for a, b in zip(t_events, t_events[1:]))
        gaps.append(gap)
        if gap < tau:
            ok = False
    return ZenoGuardReport(
        min_inter_event=tuple(gaps), tau=tuple(taus), w_max=tuple(w_maxes), satisfied=ok
    )


# --- file outputs ------------------------------------------------------------


# Rows of states.csv gathered into one array per block before formatting.
_WRITE_BLOCK = 256


def write_run_outputs(
    record: RunRecord,
    out_dir,
    extra_summary: dict | None = None,
    report: metrics_mod.MetricReport | None = None,
) -> Path:
    """Write states.csv, events.csv and summary.json into ``out_dir``.

    ``report`` is the record's metric report when the caller already has it;
    otherwise it is computed here.

    The CSVs are streamed: states go out in blocks of rows and each row is
    formatted on its own, so no file's full text is held in memory. One
    "%.17g" per value gives the same text as format(v, ".17g") for every
    double, -0.0, subnormals, inf and nan included.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_samples, n_agents, n = record.states.shape

    cols = [f"x{i + 1}_{d + 1}" for i in range(n_agents) for d in range(n)]
    series = [record.times[:, None], record.states.reshape(n_samples, -1)]
    if record.est_series is not None:
        cols += [f"xhat{i + 1}_{d + 1}" for i in range(n_agents) for d in range(n)]
        series.append(record.est_series.reshape(n_samples, -1))
    row_fmt = ",".join(["%.17g"] * (len(cols) + 1)) + "\n"
    with (out / "states.csv").open("w") as fh:
        fh.write("t," + ",".join(cols) + "\n")
        for start in range(0, n_samples, _WRITE_BLOCK):
            block = np.concatenate([s[start : start + _WRITE_BLOCK] for s in series], axis=1)
            for row in block:
                fh.write(row_fmt % tuple(row.tolist()))

    with (out / "events.csv").open("w") as fh:
        fh.write("t,agent\n")
        for t, agent in record.events:
            fh.write("%.17g,%d\n" % (t, agent + 1))

    if report is None:
        report = metrics_mod.compute_metrics(record)
    summary = {
        "config": None if record.config is None else record.config.to_dict(),
        "derived": record.derived,
        "metrics": report.to_dict(),
        "v_initial": record.v_initial,
        "v_final": record.v_final,
        "n_events": len(record.events),
        "per_agent_event_counts": record.per_agent_event_counts.tolist(),
        "sync_mismatches": record.sync_mismatches,
        "runtime_seconds": record.runtime_seconds,
        "error": record.error,
    }
    if extra_summary:
        summary.update(extra_summary)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return out


def load_run_record(run_dir) -> RunRecord:
    """Rebuild a metrics-grade record from states.csv, events.csv, summary.json."""
    run_dir = Path(run_dir)
    states_path = run_dir / "states.csv"
    if not states_path.exists():
        raise ConfigError(f"{states_path} not found; not a run output directory")
    raw = np.genfromtxt(states_path, delimiter=",", names=True)
    names = list(raw.dtype.names)
    times = np.asarray(raw["t"], dtype=float).reshape(-1)
    state_cols = [c for c in names if c.startswith("x") and not c.startswith("xhat")]
    agents = sorted({int(c[1:].split("_")[0]) for c in state_cols})
    dims = sorted({int(c.split("_")[1]) for c in state_cols})
    n_agents, n = len(agents), len(dims)
    states = np.empty((times.size, n_agents, n))
    for i in agents:
        for d in dims:
            states[:, i - 1, d - 1] = np.asarray(raw[f"x{i}_{d}"], dtype=float).reshape(-1)

    events = []
    ev_path = run_dir / "events.csv"
    if ev_path.exists():
        for line in ev_path.read_text().splitlines()[1:]:
            if not line.strip():
                continue
            t_str, agent_str = line.split(",")
            events.append((float(t_str), int(agent_str) - 1))
    flags = np.zeros((times.size, n_agents), dtype=bool)
    h = times[1] - times[0] if times.size > 1 else 1.0
    for t, agent in events:
        flags[int(round(t / h)), agent] = True

    summary_path = run_dir / "summary.json"
    cfg = None
    P = None
    degrees = None
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
        if summary.get("config"):
            cfg = SimConfig(**summary["config"])
            P = np.asarray(cfg.P, dtype=float)
            adj = Graph.from_edges(cfg.n_agents, cfg.edges).adjacency
            degrees = (adj > 0).sum(axis=1).astype(int)
    if P is None:
        P = np.eye(n)

    v_series, dist_series = _v_and_dist(states, P)
    zeros = np.zeros((times.size, n_agents))
    return RunRecord(
        times=times,
        states=states,
        events=events,
        event_flags=flags,
        v_series=v_series,
        dist_series=dist_series,
        per_agent_event_counts=flags.sum(axis=0).astype(int),
        delta=zeros,
        threshold=zeros,
        w_norm=zeros,
        e_norm=zeros,
        e_norm_post=zeros,
        config=cfg,
        agent_degrees=degrees,
    )

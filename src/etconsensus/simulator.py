"""Fixed-step deterministic closed-loop simulation.

One step advances the world from t to t+h in a fixed order: controls are
computed from the current estimates and held constant over the step (zero
order hold), the true states and the estimates advance in one integrator
step, then the triggering conditions are evaluated for all agents on the
post-integration values and every firing agent broadcasts its true state in
one synchronous batch, so evaluation order cannot leak between agents.

Each agent's estimate is stored once, as one row of an (N, n) array, although
in the scheme agent i holds an estimate of itself and of every neighbour.
That is exact: every copy of an estimate integrates the same drift under the
same parameter estimate and is reset by the same broadcasts, so the copies
agree bit for bit.

The disagreement w_i = sum_j l_ij (xhat_j - xhat_i) feeds the control law and
both trigger conditions. ``lockstep`` lays every agent's closed neighbourhood
out flat, the agents grouped by neighbourhood size, so one gather forms every
difference xhat_j - xhat_i and one batched product per size forms the sums:
the same per-row arithmetic as one product per agent, into two buffers the
core allocates once; w is copied out, as a world keeps it past the next call.
A world carries the disagreement of its estimates after the step's
broadcasts, so the next step's control term reads it instead of recomputing
it, and when no agent fired the trigger's own w is that disagreement already.

The step loop reads a ``Lockstep``: prepared runs stepped as one run over the
disjoint union of their graphs. Every row's arithmetic is the one its run
does alone, so each member of a ``run_batch`` is bit-for-bit its solo run,
and a solo ``run`` is the batch of one.

The run config (``SimConfig``, ``Prepared``, ``prepare``) lives in ``config``
and is re-exported here as the same objects.

Runs are bit-for-bit reproducible for a fixed numpy/BLAS build: no
randomness, no wall-clock dependence in the dynamics, and a deterministic
Jacobi eigensolver instead of LAPACK.
The leader's row is never touched by the control term, so its trajectory is
bitwise identical to a leader integrated alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import Prepared, SimConfig, prepare  # the run config is part of this module's API
from .control import (  # the Zeno guard is part of this module's API
    TriggerState,
    ZenoGuardReport,
    zeno_guard_report,
)
from .errors import NumericsError
from .estimation import EstimatorBank, apply_broadcast, propagate_all
from .lockstep import Lockstep, lockstep
from .outputs import (  # records and their files are part of this module's API
    RunRecord,
    RunSink,
    load_run_record,
    practical_lipschitz,
    write_run_outputs,
)

# Steps whose rows are buffered before each member's sink takes them.
_STEP_BLOCK = 64


@dataclass
class WorldState:
    """Instantaneous simulation state: time, true states, estimates, trigger data.

    ``x`` and ``xhat`` are (R, n), one row per agent of the run or union;
    ``xhat[j]`` is the estimate of agent j held by j and by each of its
    neighbours. ``w`` (R, n) is the disagreement of ``xhat`` as it stands,
    after this step's broadcasts: it is always bitwise equal to
    ``_disagreement(xhat, core)``, and the next step's control term reads
    it. ``trigger`` is this step's evaluation, made before the broadcasts.
    """

    t: float
    x: np.ndarray
    xhat: np.ndarray
    w: np.ndarray
    trigger: TriggerState | None


def initial_world(core: Lockstep) -> WorldState:
    n_rows, n = core.x0.shape
    xhat = core.x0.copy()
    return WorldState(
        t=0.0,
        x=core.x0.copy(),
        xhat=xhat,
        w=_disagreement(xhat, core),
        trigger=TriggerState.initial(n_rows, n),
    )


def step(world: WorldState, core: Lockstep) -> WorldState:
    """Advance one step of the prepared run (or lockstep union)."""
    return _step(world, core)


def _disagreement(xhat: np.ndarray, core: Lockstep, out: np.ndarray | None = None) -> np.ndarray:
    """w_i = sum_j l_ij (xhat_j - xhat_i) over i's closed neighbourhood, for every i.

    One gather forms every difference, then one batched product per
    neighbourhood size runs the same per-row product as one
    ``coeffs_i @ (xhat[members_i] - xhat_i)`` per agent, so the bits agree
    with it; a dense ``L @ xhat`` or one zero-padded stack does not. Both go
    into the core's buffers, and the final gather copies w out of them, into
    ``out`` when given.
    Here and in the rest of the step, a ufunc's output buffer is passed
    positionally: ``out=`` as a keyword costs about twice the call.
    """
    np.subtract(xhat.take(core.flat_idx, 0), xhat.take(core.flat_own, 0), core.diffs)
    for coeffs, d, w in core.blocks:
        np.matmul(coeffs, d, w)
    return core.sums.take(core.inv, 0, out)


def _evaluate(
    x: np.ndarray, xhat: np.ndarray, core: Lockstep, w: np.ndarray | None = None
) -> TriggerState:
    """Both trigger quantities and the firing test, for every agent at once.

    ``w`` is the disagreement of ``xhat`` when the caller already has it.
    The quadratic forms use S_i = s_i Q, Theta_i = c_i Q, R_i = 2 kappa Q with
    Q = P B B' P, so one (R, n) sweep covers every agent. e and w share one
    fresh array, so one product and one reduction, into the core's buffers,
    form e'Qe, w'Qe and w'Qw. They also form e'Qw, which nothing reads: one
    multiply of four products costs less than two of three.
    """
    ew = np.empty((2, *x.shape))
    e, w_kept = ew
    np.subtract(x, xhat, e)
    if w is None:
        _disagreement(xhat, core, w_kept)
    else:
        w_kept[...] = w
    np.matmul(ew, core.Q, core.ewQ)
    np.add.reduce(np.multiply(core.ewQ_by, ew, core.prods), 3, None, core.forms)
    delta = core.s_coeff * core.eQe
    delta += np.abs(np.multiply(core.two_kappa, core.wQe, core.wQe), core.wQe)
    threshold = core.sig_theta * core.wQw
    np.subtract(delta, threshold, core.wQw)
    fired = np.subtract(core.wQw, core.xi, core.wQw) > 0.0
    return TriggerState(e=e, w=w_kept, delta=delta, threshold=threshold, fired=fired)


def _advance(world: WorldState, core: Lockstep) -> np.ndarray:
    """The stacked [x; xhat] one step on; NumericsError if a row becomes non-finite.

    Zero-order hold: inputs from the estimates at time t, constant over the
    step. The disagreement form equals the control law up to rounding order
    and vanishes exactly when the estimates agree, so a consensus state
    cannot be perturbed by summation residue. Only follower plant rows get
    it (``core.drive_rows``).
    """
    lead = core.leaders
    np.matmul(core.neg_kappa * (world.w[lead:] @ core.BtPt), core.Bt, core.drive_rows)
    np.concatenate((world.x, world.xhat), out=core.y)
    return propagate_all(core.y, core.field, core.h, core.stages, core.integrator, world.t)


def _step(world: WorldState, core: Lockstep) -> WorldState:
    y = _advance(world, core)
    n_rows = len(world.x)
    x_new, xhat_new = y[:n_rows], y[n_rows:]
    # Evaluate every agent on post-integration, pre-reset values, then
    # broadcast all firing agents as one batch. Without a broadcast the
    # estimates stand as evaluated, and so does their disagreement.
    trigger = _evaluate(x_new, xhat_new, core)
    fired = trigger.fired.nonzero()[0].tolist()
    for i in fired:
        apply_broadcast(xhat_new, i, x_new[i])
    w = _disagreement(xhat_new, core) if fired else trigger.w
    return WorldState(t=world.t + core.h, x=x_new, xhat=xhat_new, w=w, trigger=trigger)


# The benchmark's tracing wraps this by name; the bank-form test reference calls it.
def _banks_synchronized(banks: list[EstimatorBank], groups: tuple) -> bool:
    """Bitwise agreement of every pair of estimates of the same agent.

    ``groups`` lists, per observed agent, every (bank index, row index)
    holding an estimate of it.
    """
    for grp in groups:
        b0, r0 = grp[0]
        ref = banks[b0].estimates[r0].tobytes()
        for b, r in grp[1:]:
            if banks[b].estimates[r].tobytes() != ref:
                return False
    return True


# The run path does not call this: the benchmark's tracing wraps it by name, and the
# bank-form test reference and the Zeno guard tests build their records through it.
def _assemble_record(
    prep: Prepared,
    times,
    states,
    flags,
    delta,
    threshold,
    w_norm,
    e_norm,
    est_series,
    runtime,
    error=None,
) -> RunRecord:
    """The record of a run's complete rows, fed through an in-memory ``RunSink`` in one block."""
    rows = {"times": times, "states": states, "flags": flags, "delta": delta,
            "threshold": threshold, "w_norm": w_norm, "e_norm": e_norm, "est": est_series}
    sink = RunSink(prep)
    sink.put({name: np.asarray(a) for name, a in rows.items() if a is not None})
    return sink.close(runtime, error)


class _Buffer:
    """The last steps' rows of every member, handed to their sinks a block at a time.

    Each sink gets its member's columns of every buffered series, C-contiguous
    (``np.take``; a fancy index on the agent axis would come back agent-axis
    major), with the sample times ``k * h``.
    """

    def __init__(self, core: Lockstep, names: tuple, k0: int, sinks: list):
        n_rows, n = core.x0.shape
        self.arrays = {
            name: np.zeros(
                (_STEP_BLOCK, n_rows, n) if name in ("states", "est") else (_STEP_BLOCK, n_rows),
                dtype=bool if name == "flags" else float,
            )
            for name in names
        }
        get = self.arrays.get
        self.states, self.flags, self.est = get("states"), get("flags"), get("est")
        self.delta, self.threshold = get("delta"), get("threshold")
        self.w_norm, self.e_norm = get("w_norm"), get("e_norm")
        self.h = core.h
        self.members = tuple(zip(sinks, core.member_rows))
        self.k0 = k0
        self.j = 0

    def keep(self, world: WorldState, tr: TriggerState, fired: bool = True) -> None:
        j = self.j
        if j == _STEP_BLOCK:
            self.flush()
            j = 0
        self.states[j] = world.x
        self.flags[j] = tr.fired if fired else False
        if self.delta is not None:
            self.delta[j] = tr.delta
        if self.threshold is not None:
            self.threshold[j] = tr.threshold
        if self.w_norm is not None:
            np.sqrt(np.add.reduce(tr.w * tr.w, axis=1), out=self.w_norm[j])
        if self.e_norm is not None:
            np.sqrt(np.add.reduce(tr.e * tr.e, axis=1), out=self.e_norm[j])
        if self.est is not None:
            self.est[j] = world.xhat
        self.j = j + 1

    def flush(self) -> None:
        j = self.j
        times = np.arange(self.k0, self.k0 + j) * self.h
        for sink, rows in self.members:
            sink.put({"times": times,
                      **{name: np.take(a[:j], rows, axis=1) for name, a in self.arrays.items()}})
        self.k0 += j
        self.j = 0


def _failures(exc: NumericsError, world: WorldState, core, preps: list) -> dict:
    """The members that go non-finite on this step, each with the error its solo run raises.

    Each member's rows are stepped alone, which is bitwise what its solo run
    does at this step, so the message is its solo run's own.
    """
    failed = {}
    for b, (prep, rows) in enumerate(zip(preps, core.member_rows)):
        alone = WorldState(world.t, world.x[rows], world.xhat[rows], world.w[rows], None)
        try:
            _advance(alone, lockstep([prep]))
        except NumericsError as member_exc:
            failed[b] = str(member_exc)
    if not failed:
        raise exc
    return failed


def run_batch(preps, sinks=None) -> list:
    """Step prepared runs in lockstep, as one run over the disjoint union of their graphs.

    The runs must agree on model, integrator, h, step count, N and P (see
    ``lockstep``); edges, x0, parameters and gains may differ. Every member is
    bit for bit its solo ``run``. Each member's rows go to its sink a block
    of steps at a time: ``sink.put(rows)`` gets a dict of its samples
    (``times``, ``states``, ``flags``, the trigger series any sink names in
    its ``series``, and ``est`` when any member dumps estimates), and
    ``sink.close(runtime, error)`` gives the member's result. Without sinks
    every member is kept in memory by an ``outputs.RunSink``, given its
    Lipschitz data when practical, and comes back as its ``RunRecord``. A
    member that becomes non-finite is closed after its last finite row with
    the error its solo run raises, and leaves the batch; the others carry
    on. Returns the results in member order; ``runtime`` is the batch's loop
    time up to the member's close.
    """
    preps = list(preps)
    if sinks is None:
        known = {}  # Lipschitz data per model and theta pair, each estimated before its sink opens
        sinks = [RunSink(p, None, practical_lipschitz(p, known)) for p in preps]
    sinks = list(sinks)
    names = ("states", "flags", *dict.fromkeys(s for k in sinks for s in k.series))
    if any(p.cfg.dump_estimates for p in preps):
        names += ("est",)
    results = [None] * len(preps)
    alive = list(range(len(preps)))
    core = lockstep(preps)
    world = initial_world(core)
    buf = _Buffer(core, names, 0, sinks)
    # Row 0: every estimate starts at x0, so e = 0 and delta = 0; no event.
    buf.keep(world, _evaluate(world.x, world.xhat, core, world.w), fired=False)
    start = time.perf_counter()
    k = 1
    while k <= core.n_steps:
        try:
            world = _step(world, core)
        except NumericsError as exc:
            buf.flush()
            failed = _failures(exc, world, core, [preps[b] for b in alive])
            runtime = time.perf_counter() - start
            for pos, message in failed.items():
                results[alive[pos]] = sinks[alive[pos]].close(runtime, message)
            kept = [pos for pos in range(len(alive)) if pos not in failed]
            if not kept:
                return results
            alive = [alive[pos] for pos in kept]
            old, core = core, lockstep([preps[b] for b in alive])
            rows = np.empty(len(core.x0), dtype=np.intp)
            for pos, new_rows in zip(kept, core.member_rows):
                rows[new_rows] = old.member_rows[pos]
            world = WorldState(world.t, world.x[rows], world.xhat[rows], world.w[rows], None)
            buf = _Buffer(core, names, buf.k0, [sinks[b] for b in alive])
            continue
        buf.keep(world, world.trigger)
        k += 1
    buf.flush()
    runtime = time.perf_counter() - start
    for b in alive:
        results[b] = sinks[b].close(runtime)
    return results


def run(spec: Prepared | SimConfig) -> RunRecord:
    """Execute duration/h steps and return the complete record.

    ``spec`` is a prepared run, or a config that is prepared here once.
    Bit-identical across repeated invocations with the same config. A
    practical run's record also carries its ``bounds`` and ``zeno_guard``.
    If the state becomes non-finite, the NumericsError carries the truncated
    record (every completed step) as ``partial_record``.
    """
    prep = spec if isinstance(spec, Prepared) else prepare(spec)
    (record,) = run_batch([prep])
    if record.error is not None:
        raise NumericsError(record.error, partial_record=record)
    return record

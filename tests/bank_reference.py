"""Reference implementation: per-agent estimator banks and the scalar trigger maths.

In this form agent i holds a bank of estimates, one of itself and one of each
neighbour, and every quantity is computed agent by agent from its own bank.
The simulator stores one estimate per agent instead, which is exact because
all copies of an estimate integrate the same drift and are reset at the same
instants. The tests run both and require equal bits: states, event flags and
trigger series. ``run_reference`` also counts the steps at which two banks'
copies of one estimate differ (``sync_mismatches``), which must stay 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from etconsensus.control import TriggerParams, TriggerState
from etconsensus.dynamics import SystemModel
from etconsensus.errors import ConfigError, NumericsError, TopologyError, UsageError
from etconsensus.estimation import EstimatorBank
from etconsensus.graph import Graph, Laplacian
from etconsensus.integrate import stage_buffers, step_fn
from etconsensus.lockstep import lockstep
from etconsensus.simulator import Prepared, RunRecord, _assemble_record, _banks_synchronized

# --- scalar trigger and control maths ------------------------------------------


def control_input(
    i: int,
    bank: EstimatorBank,
    lap: Laplacian,
    params: TriggerParams,
    P: np.ndarray | None = None,
) -> np.ndarray:
    """Follower control u_i = -kappa * sum_j l_ij B'P xhat_j^i (j with l_ij != 0)."""
    if i == 0:
        raise UsageError("agent 0 is the leader and applies no control input")
    btp = params.BtP if P is None else params.B.T @ np.asarray(P, dtype=float)
    row = lap.L[i]
    acc = np.zeros(params.B.shape[1])
    for pos, j in enumerate(bank.agents):
        lij = row[j]
        if lij != 0.0:
            acc = acc + lij * (btp @ bank.estimates[pos])
    return -params.kappa * acc


def compute_wi(i: int, bank: EstimatorBank, lap: Laplacian) -> np.ndarray:
    """Disagreement w_i = sum_j l_ij (xhat_j^i - xhat_i^i) over the bank's estimates."""
    row = lap.L[i]
    own = bank.estimate_of(i)
    w = np.zeros_like(own)
    for j in np.nonzero(row)[0]:
        if not bank.holds(int(j)):
            raise TopologyError(
                f"agent {i} holds no estimate of agent {int(j)} (l_ij != 0)"
            )
        w = w + row[j] * (bank.estimate_of(int(j)) - own)
    return w


def trigger_matrices(i: int, params: TriggerParams) -> tuple:
    """Agent i's (S_i, Theta_i, R_i): the products s_i Q, theta_i Q and 2 kappa Q."""
    Q = params.Q
    return params.s_coeff[i] * Q, params.theta_coeff[i] * Q, 2.0 * params.kappa * Q


def compute_delta(i: int, e_i: np.ndarray, w_i: np.ndarray, params: TriggerParams) -> float:
    """Trigger function delta_i = e_i' S_i e_i + |w_i' R_i e_i|."""
    S, _, R = trigger_matrices(i, params)
    return float(e_i @ S @ e_i + abs(w_i @ R @ e_i))


def ctc_threshold(i: int, w_i: np.ndarray, params: TriggerParams) -> float:
    """Threshold sigma_i * w_i' Theta_i w_i shared by both CTC variants."""
    Theta = trigger_matrices(i, params)[1]
    return float(params.sigma[i] * (w_i @ Theta @ w_i))


def ctc_fire_asymptotic(delta: float, w: np.ndarray, params: TriggerParams, i: int) -> bool:
    """Strict test delta_i - sigma_i w_i' Theta_i w_i > 0."""
    return delta - ctc_threshold(i, w, params) > 0.0


def ctc_fire_practical(delta: float, w: np.ndarray, params: TriggerParams, i: int) -> bool:
    """Strict test delta_i - sigma_i w_i' Theta_i w_i - xi > 0 (requires xi > 0)."""
    if params.xi <= 0.0:
        raise ConfigError(
            f"the practical trigger requires xi > 0 (got {params.xi!r});"
            " use the asymptotic trigger instead"
        )
    return delta - ctc_threshold(i, w, params) - params.xi > 0.0


# --- estimator banks -----------------------------------------------------------


def make_banks(graph: Graph, x0: np.ndarray, theta_hat) -> list[EstimatorBank]:
    """Initial banks seeded with the true initial states (t = 0 broadcast)."""
    x0 = np.asarray(x0, dtype=float)
    theta_hat = np.asarray(theta_hat, dtype=float)
    banks = []
    for i in range(graph.n_agents):
        members = tuple(sorted({i, *graph.neighbours(i).tolist()}))
        banks.append(
            EstimatorBank(
                owner=i,
                agents=members,
                estimates=x0[list(members)].copy(),
                theta_hat=theta_hat,
            )
        )
    return banks


def propagate(bank: EstimatorBank, model: SystemModel, h: float, scheme: str = "rk4") -> EstimatorBank:
    """Advance every estimate in a bank by one step of the pure drift."""
    stepper = step_fn(scheme)
    y = bank.estimates
    new = stepper(lambda y, out: model.f(y, bank.theta_hat, out), y, h, stage_buffers(y.shape))
    if not np.isfinite(new).all():
        raise NumericsError(f"estimator bank of agent {bank.owner} became non-finite")
    return EstimatorBank(
        owner=bank.owner, agents=bank.agents, estimates=new, theta_hat=bank.theta_hat
    )


def propagate_all(banks: list[EstimatorBank], model: SystemModel, h: float, scheme: str = "rk4") -> list[EstimatorBank]:
    """Advance all banks in one stacked integrator call."""
    stepper = step_fn(scheme)
    theta_hat = banks[0].theta_hat
    flat = np.concatenate([b.estimates for b in banks], axis=0)
    flat = stepper(lambda y, out: model.f(y, theta_hat, out), flat, h, stage_buffers(flat.shape))
    if not np.isfinite(flat).all():
        raise NumericsError("an estimator bank became non-finite")
    out = []
    offset = 0
    for b in banks:
        rows = flat[offset : offset + len(b.agents)]
        offset += len(b.agents)
        out.append(
            EstimatorBank(owner=b.owner, agents=b.agents, estimates=rows, theta_hat=b.theta_hat)
        )
    return out


def apply_broadcast(banks: list[EstimatorBank], sender: int, state: np.ndarray) -> None:
    """Reset every estimate of ``sender`` (own bank and neighbours) to ``state``."""
    n = len(banks)
    if not (0 <= sender < n):
        raise TopologyError(f"unknown sender {sender}; agents are 0..{n - 1}")
    state = np.asarray(state, dtype=float)
    for bank in banks:
        if bank.holds(sender):
            bank.estimates[bank._pos[sender]] = state


# --- the bank-form step loop ---------------------------------------------------


@dataclass(frozen=True)
class BankLayout:
    """Per agent: the Laplacian entries matching its bank rows, and its own row.

    Bank rows are sorted by agent id, as ``make_banks`` lays them out.
    ``sync_groups`` lists, per observed agent, every (bank index, row index)
    holding an estimate of it. ``Q`` is the run's core's P B B' P.
    """

    coeffs: tuple
    own_pos: tuple
    sync_groups: tuple
    Q: np.ndarray


def bank_layout(prep: Prepared) -> BankLayout:
    n_agents = prep.graph.n_agents
    members = tuple(
        tuple(sorted({i} | set(prep.graph.neighbours(i)))) for i in range(n_agents)
    )
    groups = []
    for j in range(n_agents):
        holders = tuple((i, members[i].index(j)) for i in range(n_agents) if j in members[i])
        if len(holders) > 1:
            groups.append(holders)
    return BankLayout(
        coeffs=tuple(prep.lap.L[i, list(members[i])].copy() for i in range(n_agents)),
        own_pos=tuple(members[i].index(i) for i in range(n_agents)),
        sync_groups=tuple(groups),
        Q=lockstep([prep]).Q,
    )


@dataclass
class BankWorld:
    t: float
    x: np.ndarray
    banks: list
    trigger: TriggerState


def _evaluate(x, banks, prep: Prepared, layout: BankLayout) -> TriggerState:
    """Trigger quantities of every agent, each computed from its own bank."""
    params = prep.params
    e = np.empty_like(x)
    w = np.empty_like(x)
    for i in range(prep.graph.n_agents):
        est = banks[i].estimates
        own = est[layout.own_pos[i]]
        e[i] = x[i] - own
        w[i] = layout.coeffs[i] @ (est - own)
    wQ = w @ layout.Q
    eQ = e @ layout.Q
    delta = params.s_coeff * (eQ * e).sum(axis=1) + np.abs(
        2.0 * params.kappa * (wQ * e).sum(axis=1)
    )
    threshold = params.sigma * params.theta_coeff * (wQ * w).sum(axis=1)
    fired = delta - threshold - params.xi > 0.0
    return TriggerState(e=e, w=w, delta=delta, threshold=threshold, fired=fired)


def bank_step(world: BankWorld, prep: Prepared, layout: BankLayout) -> BankWorld:
    cfg = prep.cfg
    model = prep.model
    kappa = prep.params.kappa
    bu = np.zeros_like(world.x)
    for i in range(1, prep.graph.n_agents):
        est = world.banks[i].estimates
        w_ctl = layout.coeffs[i] @ (est - est[layout.own_pos[i]])
        bu[i] = model.B @ (-kappa * (prep.params.BtP @ w_ctl))

    def plant_field(y, out):
        model.f(y, model.theta_true, out)
        out[1:] += bu[1:]

    x_new = step_fn(cfg.integrator)(plant_field, world.x, cfg.h, stage_buffers(world.x.shape))
    banks_new = propagate_all(world.banks, model, cfg.h, cfg.integrator)
    t_new = world.t + cfg.h
    if not np.isfinite(x_new).all():
        raise NumericsError(f"non-finite true state at t = {t_new:.6f}: x = {x_new.tolist()}")
    trigger = _evaluate(x_new, banks_new, prep, layout)
    for i in np.nonzero(trigger.fired)[0]:
        apply_broadcast(banks_new, int(i), x_new[int(i)])
    return BankWorld(t=t_new, x=x_new, banks=banks_new, trigger=trigger)


def run_reference(prep: Prepared) -> RunRecord:
    """The bank-form run of a prepared config, with its synchrony mismatch count."""
    layout = bank_layout(prep)
    n_agents = prep.graph.n_agents
    rows = prep.n_steps + 1
    states = np.empty((rows, n_agents, prep.model.state_dim))
    flags = np.zeros((rows, n_agents), dtype=bool)
    delta, threshold, w_norm, e_norm = (np.empty((rows, n_agents)) for _ in range(4))

    world = BankWorld(
        t=0.0,
        x=prep.x0.copy(),
        banks=make_banks(prep.graph, prep.x0, prep.model.theta_hat),
        trigger=None,
    )
    # Row 0 is evaluated like every later row, on the initial banks; no event.
    world.trigger = _evaluate(world.x, world.banks, prep, layout)
    mismatches = 0
    start = time.perf_counter()
    for k in range(rows):
        if k > 0:
            world = bank_step(world, prep, layout)
            flags[k] = world.trigger.fired
        tr = world.trigger
        states[k] = world.x
        delta[k] = tr.delta
        threshold[k] = tr.threshold
        w_norm[k] = np.sqrt((tr.w * tr.w).sum(axis=1))
        e_norm[k] = np.sqrt((tr.e * tr.e).sum(axis=1))
        if not _banks_synchronized(world.banks, layout.sync_groups):
            mismatches += 1
    record = _assemble_record(
        prep, states, flags, delta, threshold, w_norm, e_norm, None,
        time.perf_counter() - start,
    )
    record.sync_mismatches = mismatches
    return record

"""Performance metrics over run records.

The scalar index gamma folds tracking error and communication load into one
number: gamma = (1/N) sum_k sum_i (|r_i(k)| + chi * v_i(k)), where v_i(k) is
1 exactly when agent i broadcast at instant k. Equivalently
gamma = consensus_sum + chi * comm_count / N with
consensus_sum = (1/N) sum_k sum_i |r_i(k)| and comm_count the total number of
logged events. A receiver-weighted message count (each event multiplied by
the sender's neighbour count) is reported alongside as a diagnostic; it is
not part of gamma.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class MetricReport:
    gamma: float
    consensus_sum: float
    comm_count: int
    chi: float
    per_agent_event_counts: tuple
    decay_rate: float
    receiver_weighted_count: int | None
    v_initial: float
    v_final: float

    def to_dict(self) -> dict:
        return asdict(self)


# Samples per block wherever a run's samples are passed over a block at a time:
# from the step loop to the sinks, from a kept record to its CSVs, and below.
SAMPLES_PER_BLOCK = 64


def sample_blocks(n_samples: int):
    """The slices of ``SAMPLES_PER_BLOCK`` samples, in order, that cover ``n_samples``.

    The passes below take their samples a block at a time, so their
    temporaries stay small. Each computes every sample on its own, so
    neither the blocking nor a caller that passes a few samples at a time
    changes the bits.
    """
    return (slice(s, s + SAMPLES_PER_BLOCK) for s in range(0, n_samples, SAMPLES_PER_BLOCK))


def r_norms(states: np.ndarray) -> np.ndarray:
    """|r_i(k)|, every agent's distance from the leader at every sample, (samples, N)."""
    out = np.empty(states.shape[:2])
    for span in sample_blocks(len(states)):
        r = states[span] - states[span, :1]
        out[span] = np.sqrt((r * r).sum(axis=2))
    return out


def v_series(states: np.ndarray, P: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """V(k) = sum over followers of r_i' P r_i."""
    out = np.empty(len(states)) if out is None else out
    for span in sample_blocks(len(states)):
        rf = (states[span] - states[span, :1])[:, 1:]
        out[span] = np.einsum("kin,nm,kim->k", rf, P, rf)
    return out


def dist_series(states: np.ndarray) -> np.ndarray:
    """The squared spread of the states about their mean at every sample."""
    out = np.empty(len(states))
    for span in sample_blocks(len(states)):
        centered = states[span] - states[span].mean(axis=1, keepdims=True)
        centered *= centered
        out[span] = centered.sum(axis=(1, 2))
    return out


def compute_metrics(record, chi: float = 0.1) -> MetricReport:
    """Gamma and its components for one ``RunRecord``, at communication weight chi."""
    counts = record.per_agent_event_counts
    n_agents = len(counts)
    consensus_sum = record.r_norm_sum / n_agents
    comm_count = int(counts.sum())
    gamma = consensus_sum + chi * comm_count / n_agents
    if record.agent_degrees is None:
        weighted = None
    else:
        weighted = int(counts @ record.agent_degrees)
    return MetricReport(
        gamma=gamma,
        consensus_sum=consensus_sum,
        comm_count=comm_count,
        chi=chi,
        per_agent_event_counts=tuple(counts.tolist()),
        decay_rate=fit_decay_rate(record),
        receiver_weighted_count=weighted,
        v_initial=record.v_initial,
        v_final=record.v_final,
    )


def fit_decay_rate(record) -> float:
    """Exponential rate of V: minus the least-squares slope of log V(t).

    The fit window is the first half of the run; if V reaches exact zero the
    window is further cut to the prefix before the first zero. Returns 0.0
    when fewer than two usable samples remain.
    """
    v = np.asarray(record.v_series, dtype=float)
    t = np.asarray(record.times, dtype=float)
    half = (v.size + 1) // 2
    end = half
    nonpos = np.nonzero(v <= 0.0)[0]
    if nonpos.size:
        end = min(end, int(nonpos[0]))
    if end < 2:
        return 0.0
    tw = t[:end]
    yw = np.log(v[:end])
    tm = tw.mean()
    ym = yw.mean()
    denom = float(((tw - tm) ** 2).sum())
    if denom == 0.0:
        return 0.0
    slope = float(((tw - tm) * (yw - ym)).sum()) / denom
    rate = -slope
    return 0.0 if rate == 0.0 else rate


def markdown_tables(reports: dict[str, MetricReport]) -> str:
    """Three Markdown tables (gamma, consensus error sum, communication count)."""
    names = list(reports)
    out = []

    def table(title: str, cell) -> None:
        out.append(f"### {title}")
        out.append("")
        out.append("| run | value |")
        out.append("| --- | --- |")
        for name in names:
            out.append(f"| {name} | {cell(reports[name])} |")
        out.append("")

    table("Performance index gamma", lambda r: f"{r.gamma:.6g} (chi = {r.chi:g})")
    table("Consensus error sum", lambda r: f"{r.consensus_sum:.6g}")
    table("Communication count", lambda r: str(r.comm_count))
    return "\n".join(out)

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

import math
from dataclasses import dataclass

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
        return {
            "gamma": self.gamma,
            "consensus_sum": self.consensus_sum,
            "comm_count": self.comm_count,
            "chi": self.chi,
            "per_agent_event_counts": list(self.per_agent_event_counts),
            "decay_rate": self.decay_rate,
            "receiver_weighted_count": self.receiver_weighted_count,
            "v_initial": self.v_initial,
            "v_final": self.v_final,
        }


# Samples per block of a five-agent record when a pass over the states
# builds temporaries; wider records take proportionally fewer samples.
_NORM_BLOCK = 256


def block_rows(n_agents: int) -> int:
    """Samples per block, so that a block holds about _NORM_BLOCK * 5 agent states."""
    return max(1, _NORM_BLOCK * 5 // n_agents)


def compute_metrics(record, chi: float = 0.1) -> MetricReport:
    """Gamma and its components for one record, at communication weight chi."""
    states = record.states
    n_samples, n_agents, _ = states.shape
    r_norms = np.empty((n_samples, n_agents))
    rows = block_rows(n_agents)
    for start in range(0, n_samples, rows):
        block = states[start : start + rows]
        r = block - block[:, :1, :]
        r_norms[start : start + rows] = np.sqrt((r * r).sum(axis=2))
    consensus_sum = float(r_norms.sum() / n_agents)
    counts = record.event_flags.sum(axis=0)
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
        v_initial=float(record.v_series[0]),
        v_final=float(record.v_series[-1]),
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

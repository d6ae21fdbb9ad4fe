"""Run records and run outputs on disk: states.csv, events.csv and summary.json.

A run's rows reach disk through one writer, ``CsvWriter``, a block of rows
at a time, so the text of a file is never held in memory at once. It serves
two paths:

* ``RunSink``, the file sink the command line streams a run into: it writes
  the CSVs as the run goes and keeps only what the summary needs;
* ``write_run_outputs``, which feeds a complete ``RunRecord`` through the
  same writer.

``load_run_record`` reads a run directory back.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .errors import ConfigError
from .graph import Graph

# Rows of a record formatted per block by write_run_outputs.
_WRITE_BLOCK = 256


def check_fits(n_rows, row_bytes: int, what: str, fix: str = "shorten duration or raise h") -> None:
    """Refuse the ``n_rows`` x ``row_bytes`` bytes ``what`` needs beyond this machine's memory."""
    need = n_rows * row_bytes
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ConfigError(
            f"{what} need {need / 2**30:.3g} GiB, more than this machine's"
            f" {have / 2**30:.3g} GiB of memory; {fix}"
        )


def derived_constants(prep) -> dict:
    """The summary's echo of what a prepared run derived from its config."""
    lap, params = prep.lap, prep.params
    return {
        "mu": lap.mu,
        "lambda_max": lap.lambda_max,
        "epsilon": lap.epsilon,
        "M": lap.M.tolist(),
        "l_diag": np.diag(lap.L).tolist(),
        "kappa": params.kappa,
        "s_coeff": params.s_coeff.tolist(),
        "theta_coeff": params.theta_coeff.tolist(),
        "R": [m.tolist() for m in params.R],
        "Theta": [m.tolist() for m in params.Theta],
        "S": [m.tolist() for m in params.S],
        "sigma": params.sigma.tolist(),
        "b": params.b.tolist(),
    }


def degrees(graph: Graph) -> np.ndarray:
    return (graph.adjacency > 0).sum(axis=1).astype(int)


@dataclass
class RunRecord:
    """Complete time series and event log of one run.

    ``event_flags`` (samples, N) is the event log: True where an agent
    broadcast at that instant. ``delta``, ``threshold``, ``w_norm``, ``e_norm``
    hold the trigger quantities as evaluated at each instant's CTC check
    (pre-reset); a record reloaded from files has none of them (None).
    Derived on access: ``events``, the (t, agent) pairs in time then agent
    order; ``per_agent_event_counts``; ``e_norm_post``, the estimation error
    after the batch of resets, exactly zero wherever an event fired;
    ``r_series``, each agent's offset from the leader, and ``r_norm_sum``,
    the sum of its length over agents and samples; and the Zeno guard's
    inputs ``w_max`` and ``min_inter_event``.
    """

    times: np.ndarray
    states: np.ndarray
    event_flags: np.ndarray
    v_series: np.ndarray
    dist_series: np.ndarray
    delta: np.ndarray | None
    threshold: np.ndarray | None
    w_norm: np.ndarray | None
    e_norm: np.ndarray | None
    config: object = None
    est_series: np.ndarray | None = None
    agent_degrees: np.ndarray | None = None
    derived: dict = field(default_factory=dict)
    sync_mismatches: int = 0
    runtime_seconds: float = 0.0
    error: str | None = None

    @property
    def events(self) -> list:
        ks, agents = np.nonzero(self.event_flags)
        return list(zip(self.times[ks].tolist(), agents.tolist()))

    @property
    def per_agent_event_counts(self) -> np.ndarray:
        return self.event_flags.sum(axis=0).astype(int)

    @property
    def e_norm_post(self) -> np.ndarray | None:
        if self.e_norm is None:
            return None
        return np.where(self.event_flags, 0.0, self.e_norm)

    @property
    def r_series(self) -> np.ndarray:
        return self.states - self.states[:, :1, :]

    @property
    def r_norm_sum(self) -> float:
        return float(metrics_mod.r_norms(self.states).sum())

    @property
    def w_max(self) -> np.ndarray | None:
        """Each agent's largest |w|; None without the |w| series."""
        return None if self.w_norm is None else self.w_norm.max(axis=0)

    @property
    def min_inter_event(self) -> tuple:
        """Each agent's shortest gap between two of its events; inf below two events."""
        gaps = []
        for i in range(self.event_flags.shape[1]):
            t_events = self.times[self.event_flags[:, i]]
            gaps.append(float(np.diff(t_events).min()) if len(t_events) > 1 else math.inf)
        return tuple(gaps)

    @property
    def v_initial(self) -> float:
        return float(self.v_series[0])

    @property
    def v_final(self) -> float:
        return float(self.v_series[-1])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


class CsvWriter:
    """Appends blocks of rows to ``states.csv`` and ``events.csv`` in ``out_dir``.

    Each row is formatted on its own with one "%.17g" per value, which gives
    the same text as format(v, ".17g") for every double, -0.0, subnormals,
    inf and nan included. The files are opened per block, so a batch of many
    runs holds no file buffers between blocks.
    """

    def __init__(self, out_dir, n_agents: int, n: int, estimates: bool):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        cols = [f"x{i + 1}_{d + 1}" for i in range(n_agents) for d in range(n)]
        if estimates:
            cols += [f"xhat{i + 1}_{d + 1}" for i in range(n_agents) for d in range(n)]
        self.row_fmt = ",".join(["%.17g"] * (len(cols) + 1)) + "\n"
        (self.out / "states.csv").write_text("t," + ",".join(cols) + "\n")
        (self.out / "events.csv").write_text("t,agent\n")

    def put(self, times, states, flags, est=None) -> None:
        """Append samples: times (j,), states (j, N, n), flags (j, N), estimates (j, N, n)."""
        j = len(times)
        parts = [times[:, None], states.reshape(j, -1)]
        if est is not None:
            parts.append(est.reshape(j, -1))
        fmt = self.row_fmt
        with (self.out / "states.csv").open("a") as fh:
            for row in np.concatenate(parts, axis=1):
                fh.write(fmt % tuple(row.tolist()))
        ks, agents = np.nonzero(flags)
        if len(ks):
            with (self.out / "events.csv").open("a") as fh:
                for t, agent in zip(times[ks].tolist(), agents.tolist()):
                    fh.write("%.17g,%d\n" % (t, agent + 1))


class RunSink:
    """File sink of one prepared run: streams its CSVs, keeps what its summary needs.

    Kept whole, 8 bytes per sample: V, for the decay fit and its end values.
    Each agent's distance from the leader is summed as it arrives, in the
    order of numpy's pairwise sum over the whole (samples, N) array
    (``metrics.PairwiseSum``), so ``consensus_sum`` has the record's bits. A
    run cut short by a non-finite state has a shorter sum, whose order is
    known only then: its distances are read back from the states.csv written
    so far, whose "%.17g" text gives every double back exactly. Kept per
    agent: the event counts and, on practical runs, the Zeno guard's running
    largest |w| and shortest gap between events. A sink that would not fit
    in memory is refused before its directory is made.

    ``close`` returns the sink, which then stands for the run: it has the
    fields ``compute_metrics``, ``zeno_guard_report`` and
    ``write_run_outputs`` read from a ``RunRecord``.
    """

    sync_mismatches = 0

    def __init__(self, prep, out_dir):
        n_agents = prep.graph.n_agents
        rows = prep.n_steps + 1
        check_fits(rows, 16, f"duration/h = {prep.n_steps} steps")  # V, and the times made at close
        self.prep = prep
        self.config = prep.cfg
        self.csv = CsvWriter(out_dir, n_agents, prep.model.state_dim, prep.cfg.dump_estimates)
        self.out_dir = self.csv.out
        self.agent_degrees = degrees(prep.graph)
        self.v = np.empty(rows)
        self.r_sum = metrics_mod.PairwiseSum(rows * n_agents)
        self.per_agent_event_counts = np.zeros(n_agents, dtype=int)
        practical = prep.cfg.ctc == "practical"
        self.series = ("w_norm",) if practical else ()  # |w| feeds the Zeno guard
        self.w_max = np.full(n_agents, -np.inf) if practical else None
        self.last = [None] * n_agents
        self.gaps = [math.inf] * n_agents
        self.n = 0

    def put(self, rows: dict) -> None:
        times, states, flags = rows["times"], rows["states"], rows["flags"]
        span = slice(self.n, self.n + len(times))
        self.csv.put(times, states, flags, rows.get("est") if self.config.dump_estimates else None)
        self.r_sum.add(metrics_mod.r_norms(states))
        metrics_mod.v_series(states, self.prep.cert.P, out=self.v[span])
        self.per_agent_event_counts += flags.sum(axis=0)
        if self.w_max is not None:
            np.maximum(self.w_max, rows["w_norm"].max(axis=0), out=self.w_max)
            ks, agents = np.nonzero(flags)
            for t, i in zip(times[ks].tolist(), agents.tolist()):
                if self.last[i] is not None:
                    self.gaps[i] = min(self.gaps[i], t - self.last[i])
                self.last[i] = t
        self.n = span.stop

    def close(self, runtime: float, error: str | None = None) -> RunSink:
        n = self.n
        self.times = np.arange(n) * self.config.h
        self.v_series = self.v[:n]
        if self.r_sum.total is not None:
            self.r_norm_sum = float(self.r_sum.total)
        else:
            n_agents, dim = self.prep.x0.shape
            with (self.out_dir / "states.csv").open() as fh:
                next(fh)
                rows = [[float(v) for v in line.split(",")[1 : 1 + n_agents * dim]] for line in fh]
            states = np.array(rows).reshape(-1, n_agents, dim)
            self.r_norm_sum = float(metrics_mod.r_norms(states).sum())
        self.min_inter_event = None if self.w_max is None else tuple(self.gaps)
        self.derived = derived_constants(self.prep)
        self.runtime_seconds = runtime
        self.error = error
        return self

    @property
    def v_initial(self) -> float:
        return float(self.v_series[0])

    @property
    def v_final(self) -> float:
        return float(self.v_series[-1])


def write_run_outputs(
    record: RunRecord | RunSink,
    out_dir,
    extra_summary: dict | None = None,
    report: metrics_mod.MetricReport | None = None,
) -> Path:
    """Write states.csv, events.csv and summary.json into ``out_dir``.

    A ``RunRecord`` goes through the CSV writer in blocks of rows; a closed
    ``RunSink`` has written its CSVs there already, so only its summary is.
    ``report`` is the record's metric report when the caller already has
    it; otherwise it is computed here.
    """
    out = Path(out_dir)
    if isinstance(record, RunRecord):
        est = record.est_series
        writer = CsvWriter(out, *record.states.shape[1:], est is not None)
        for start in range(0, len(record.times), _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            writer.put(record.times[block], record.states[block], record.event_flags[block],
                       None if est is None else est[block])
    if report is None:
        report = metrics_mod.compute_metrics(record)
    counts = record.per_agent_event_counts
    summary = {
        "config": None if record.config is None else record.config.to_dict(),
        "derived": record.derived,
        "metrics": report.to_dict(),
        "v_initial": record.v_initial,
        "v_final": record.v_final,
        "n_events": int(counts.sum()),
        "per_agent_event_counts": counts.tolist(),
        "sync_mismatches": record.sync_mismatches,
        "runtime_seconds": record.runtime_seconds,
        "error": record.error,
    }
    if extra_summary:
        summary.update(extra_summary)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return out


def load_run_record(run_dir) -> RunRecord:
    """Rebuild a metrics-grade record from states.csv, events.csv, summary.json.

    The trigger series are not written, so the record has none (None).
    """
    from .simulator import SimConfig

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

    flags = np.zeros((times.size, n_agents), dtype=bool)
    h = times[1] - times[0] if times.size > 1 else 1.0
    ev_path = run_dir / "events.csv"
    if ev_path.exists():
        for line in ev_path.read_text().splitlines()[1:]:
            if not line.strip():
                continue
            t_str, agent_str = line.split(",")
            flags[int(round(float(t_str) / h)), int(agent_str) - 1] = True

    summary_path = run_dir / "summary.json"
    cfg = None
    P = np.eye(n)
    agent_degrees = None
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
        if summary.get("config"):
            cfg = SimConfig(**summary["config"])
            P = np.asarray(cfg.P, dtype=float)
            agent_degrees = degrees(Graph.from_edges(cfg.n_agents, cfg.edges))

    return RunRecord(
        times=times,
        states=states,
        event_flags=flags,
        v_series=metrics_mod.v_series(states, P),
        dist_series=metrics_mod.dist_series(states),
        delta=None,
        threshold=None,
        w_norm=None,
        e_norm=None,
        config=cfg,
        agent_degrees=agent_degrees,
    )

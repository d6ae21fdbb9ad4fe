"""Run records and run outputs on disk: states.csv, events.csv and summary.json.

``RunSink`` is the one sink a run's rows go to, and the one place the facts
its summary reports are worked out: V, the consensus sum, the event counts
and the Zeno guard's inputs, each as the rows arrive. ``RunSink(prep,
out_dir)`` streams the CSVs through ``CsvWriter``, a block of rows at a
time, so the text of a file is never held in memory at once;
``RunSink(prep)`` keeps every sample in memory instead. Either way ``close``
returns the run's ``RunRecord``.

``write_run_outputs`` writes a record's summary.json, after its CSVs when the
record kept its samples. ``load_run_record`` reads a run directory back
through an in-memory sink of the run's config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .config import check_fits, prepare_dict
from .errors import ConfigError, EtcError
from .graph import Graph

# Rows of a record formatted per block by write_run_outputs.
_WRITE_BLOCK = 256


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
        "R": [(2.0 * params.kappa * params.Q).tolist()] * len(params.s_coeff),
        "Theta": [(c * params.Q).tolist() for c in params.theta_coeff],
        "S": [(c * params.Q).tolist() for c in params.s_coeff],
        "sigma": params.sigma.tolist(),
        "b": params.b.tolist(),
    }


def degrees(graph: Graph) -> np.ndarray:
    return (graph.adjacency > 0).sum(axis=1).astype(int)


# The trigger series an in-memory sink keeps, as evaluated at each CTC check.
_TRIGGER_SERIES = ("delta", "threshold", "w_norm", "e_norm")


@dataclass
class RunRecord:
    """One run: the facts its ``RunSink`` worked out, and its samples if kept.

    Always present: ``times``, ``v_series``, ``per_agent_event_counts``,
    ``r_norm_sum`` (every agent's distance from the leader, summed over
    agents and samples) and, when the run's |w| series reached the sink, the
    Zeno guard's inputs ``w_max`` (each agent's largest |w|) and
    ``min_inter_event`` (each agent's shortest gap between two of its
    events, inf below two events).

    The samples, None on a streamed record: ``event_flags`` (samples, N), the
    event log, True where an agent broadcast at that instant; ``states``;
    ``delta``, ``threshold``, ``w_norm``, ``e_norm``, the trigger quantities
    as evaluated at each instant's CTC check (pre-reset), which a record
    reloaded from files has none of; and ``est_series`` when estimates are
    dumped. Derived from them on access: ``events``, the (t, agent) pairs in
    time then agent order; ``e_norm_post``, the estimation error after the
    batch of resets, exactly zero wherever an event fired; ``r_series``, each
    agent's offset from the leader; and ``dist_series``.
    """

    times: np.ndarray
    v_series: np.ndarray
    per_agent_event_counts: np.ndarray
    r_norm_sum: float
    w_max: np.ndarray | None = None
    min_inter_event: tuple | None = None
    states: np.ndarray | None = None
    event_flags: np.ndarray | None = None
    delta: np.ndarray | None = None
    threshold: np.ndarray | None = None
    w_norm: np.ndarray | None = None
    e_norm: np.ndarray | None = None
    est_series: np.ndarray | None = None
    config: object = None
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
    def e_norm_post(self) -> np.ndarray | None:
        if self.e_norm is None:
            return None
        return np.where(self.event_flags, 0.0, self.e_norm)

    @property
    def r_series(self) -> np.ndarray:
        return self.states - self.states[:, :1, :]

    @property
    def dist_series(self) -> np.ndarray:
        return metrics_mod.dist_series(self.states)

    @property
    def v_initial(self) -> float:
        return float(self.v_series[0])

    @property
    def v_final(self) -> float:
        return float(self.v_series[-1])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def csv_columns(n_agents: int, n: int, estimates: bool) -> list:
    """The columns of states.csv: t, every agent's state, then its estimate if dumped."""
    prefixes = ("x", "xhat") if estimates else ("x",)
    return ["t"] + [f"{p}{i + 1}_{d + 1}" for p in prefixes for i in range(n_agents) for d in range(n)]


class CsvWriter:
    """Appends blocks of rows to ``states.csv`` and ``events.csv`` in ``out_dir``.

    Each row is formatted on its own with one "%.17g" per value (a sample's
    time once, for its states row and its event rows), the same text as
    format(v, ".17g") for every double, -0.0, subnormals, inf and nan
    included. The files are opened per block, so a batch of many runs holds
    no file buffers between blocks.
    """

    def __init__(self, out_dir, n_agents: int, n: int, estimates: bool):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        cols = csv_columns(n_agents, n, estimates)
        self.row_fmt = ",".join(["%s"] + ["%.17g"] * (len(cols) - 1)) + "\n"
        (self.out / "states.csv").write_text(",".join(cols) + "\n")
        (self.out / "events.csv").write_text("t,agent\n")

    def put(self, times, states, flags, est=None) -> None:
        """Append samples: times (j,), states (j, N, n), flags (j, N), estimates (j, N, n)."""
        j = len(times)
        stamps = ["%.17g" % t for t in times.tolist()]
        values = states.reshape(j, -1)
        if est is not None:
            values = np.concatenate((values, est.reshape(j, -1)), axis=1)
        fmt = self.row_fmt
        with (self.out / "states.csv").open("a") as fh:
            for stamp, row in zip(stamps, values):
                fh.write(fmt % (stamp, *row.tolist()))
        ks, agents = np.nonzero(flags)
        if len(ks):
            with (self.out / "events.csv").open("a") as fh:
                for k, agent in zip(ks.tolist(), agents.tolist()):
                    fh.write("%s,%d\n" % (stamps[k], agent + 1))


class RunSink:
    """The sink of one prepared run, and the one place its summary facts are worked out.

    ``RunSink(prep, out_dir)`` streams the run's CSVs into ``out_dir`` and
    keeps only what the summary needs; ``RunSink(prep)`` keeps every sample
    in memory as well. Kept whole either way, 16 bytes per sample: the times
    and V, for the decay fit and its end values. Each agent's distance from
    the leader is summed as it arrives, in the order of numpy's pairwise sum
    over the whole (samples, N) array (``metrics.PairwiseSum``), so
    ``r_norm_sum`` has the bits of that sum. A run cut short by a non-finite
    state has a shorter sum, whose order is known only then: its distances
    are taken again from the kept states or, streamed, read back from the
    states.csv written so far, whose "%.17g" text gives every double back
    exactly. Kept per agent: the event counts and, when the rows carry the
    |w| the sink asks for (a streamed sink asks on practical runs only), the
    Zeno guard's running largest |w| and shortest gap between events. A sink
    that would not fit in memory is refused before its directory is made.
    """

    def __init__(self, prep, out_dir=None):
        n_agents, dim = prep.x0.shape
        rows = prep.n_steps + 1
        dump = prep.cfg.dump_estimates
        if out_dir is None:
            self.series = _TRIGGER_SERIES
            self.keep = ("states", "flags", *_TRIGGER_SERIES) + (("est",) if dump else ())
            row_bytes = 16 + n_agents * (8 * dim * (2 if dump else 1) + 8 * len(_TRIGGER_SERIES) + 1)
        else:
            self.series = ("w_norm",) if prep.cfg.ctc == "practical" else ()
            self.keep = ()
            row_bytes = 16
        check_fits(rows, row_bytes, f"duration/h = {prep.n_steps} steps")
        self.prep = prep
        self.csv = None if out_dir is None else CsvWriter(out_dir, n_agents, dim, dump)
        self.kept = {}
        self.times = np.empty(rows)
        self.v = np.empty(rows)
        self.r_sum = metrics_mod.PairwiseSum(rows * n_agents)
        self.counts = np.zeros(n_agents, dtype=int)
        self.w_max = None
        self.last = [None] * n_agents
        self.gaps = [math.inf] * n_agents
        self.n = 0

    def put(self, rows: dict) -> None:
        """Take the next samples: ``times``, ``states``, ``flags``, and any named series."""
        times, states, flags = rows["times"], rows["states"], rows["flags"]
        span = slice(self.n, self.n + len(times))
        if self.csv is not None:
            self.csv.put(times, states, flags, rows.get("est") if self.prep.cfg.dump_estimates else None)
        for name in self.keep:
            if name in rows:  # a series that never arrives stays None in the record
                if name not in self.kept:
                    a = rows[name]
                    self.kept[name] = np.empty((len(self.v), *a.shape[1:]), a.dtype)
                self.kept[name][span] = rows[name]
        self.times[span] = times
        self.r_sum.add(metrics_mod.r_norms(states))
        metrics_mod.v_series(states, self.prep.cert.P, out=self.v[span])
        self.counts += flags.sum(axis=0)
        if "w_norm" in rows and "w_norm" in self.series:
            w_max = rows["w_norm"].max(axis=0)
            self.w_max = w_max if self.w_max is None else np.maximum(self.w_max, w_max)
            ks, agents = np.nonzero(flags)
            for t, i in zip(times[ks].tolist(), agents.tolist()):
                if self.last[i] is not None:
                    self.gaps[i] = min(self.gaps[i], t - self.last[i])
                self.last[i] = t
        self.n = span.stop

    def close(self, runtime: float, error: str | None = None) -> RunRecord:
        n, prep = self.n, self.prep
        kept = {name: a[:n] for name, a in self.kept.items()}
        r_norm_sum = self.r_sum.total
        if r_norm_sum is None:
            if self.csv is None:
                states = kept["states"]
            else:
                states = _read_states(self.csv.out / "states.csv", prep)[1]
            r_norm_sum = metrics_mod.r_norms(states).sum()
        return RunRecord(
            times=self.times[:n],
            v_series=self.v[:n],
            per_agent_event_counts=self.counts,
            r_norm_sum=float(r_norm_sum),
            w_max=self.w_max,
            min_inter_event=None if self.w_max is None else tuple(self.gaps),
            states=kept.get("states"),
            event_flags=kept.get("flags"),
            **{name: kept.get(name) for name in _TRIGGER_SERIES},
            est_series=kept.get("est"),
            config=prep.cfg,
            agent_degrees=degrees(prep.graph),
            derived=derived_constants(prep),
            runtime_seconds=runtime,
            error=error,
        )


def write_run_outputs(
    record: RunRecord,
    out_dir,
    extra_summary: dict | None = None,
    report: metrics_mod.MetricReport | None = None,
) -> Path:
    """Write summary.json into ``out_dir``, after the CSVs of a record that kept its samples.

    A streamed record's CSVs are in its directory already. Kept samples go
    through the CSV writer in blocks of rows. ``report`` is the record's
    metric report when the caller already has it; otherwise it is computed
    here.
    """
    out = Path(out_dir)
    if record.states is not None:
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


def _read_states(path: Path, prep) -> tuple:
    """(times, states) of a states.csv written for ``prep``; a ConfigError naming it if malformed."""
    n_agents, dim = prep.x0.shape
    header = ",".join(csv_columns(n_agents, dim, prep.cfg.dump_estimates)) + "\n"
    try:
        with path.open() as fh:
            if fh.readline() != header:
                raise ValueError(f"its header is not {header.strip()!r}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if not 0 < len(data) <= prep.n_steps + 1 or data.shape[1] != header.count(",") + 1:
            raise ValueError(f"it holds {data.shape} values, not up to duration/h + 1 full rows")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path} is not the states of its run: {exc}") from None
    return data[:, 0], data[:, 1 : 1 + n_agents * dim].reshape(-1, n_agents, dim)


def load_run_record(run_dir) -> RunRecord:
    """Rebuild a metrics-grade record from states.csv, events.csv and summary.json.

    The rows go through an in-memory ``RunSink`` of the config in
    summary.json. The trigger series are not written, so the record has none
    (None). A missing or malformed file is a ConfigError naming it.
    """
    run_dir = Path(run_dir)
    path = run_dir / "summary.json"
    try:
        config = json.loads(path.read_text())["config"]
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise ConfigError(f"{path} is not the summary of a run output directory: {exc}") from None
    try:
        prep = prepare_dict(config)
    except EtcError as exc:
        raise ConfigError(f"{path} holds no valid run config: {exc}") from None
    times, states = _read_states(run_dir / "states.csv", prep)

    flags = np.zeros(states.shape[:2], dtype=bool)
    path = run_dir / "events.csv"
    try:
        for line in path.read_text().splitlines()[1:]:
            if line.strip():
                t, agent = line.split(",")
                k, i = round(float(t) / prep.cfg.h), int(agent) - 1
                if not (0 <= k < len(flags) and 0 <= i < flags.shape[1]):
                    raise ValueError(f"no sample at t = {t} of agent {agent}")
                flags[k, i] = True
    except (OSError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{path} is not the event log of its run: {exc}") from None

    sink = RunSink(prep)
    sink.put({"times": times, "states": states, "flags": flags})
    return sink.close(0.0)

"""Run outputs on disk: states.csv, events.csv and summary.json.

The CSVs are written in fixed-size blocks of rows, so the text of a file is
never held in memory at once. ``simulator.load_run_record`` reads them back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import metrics as metrics_mod

if TYPE_CHECKING:
    from .simulator import RunRecord


# Rows of states.csv, and events of events.csv, formatted per block.
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

    The CSVs are streamed: states and events go out in blocks of rows and
    each row is formatted on its own, so no file's full text, and no Python
    list of every event, is held in memory. One "%.17g" per value gives the
    same text as format(v, ".17g") for every double, -0.0, subnormals, inf
    and nan included.
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

    ks, agents = np.nonzero(record.event_flags)
    with (out / "events.csv").open("w") as fh:
        fh.write("t,agent\n")
        for start in range(0, len(ks), _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            for t, agent in zip(record.times[ks[block]].tolist(), agents[block].tolist()):
                fh.write("%.17g,%d\n" % (t, agent + 1))

    if report is None:
        report = metrics_mod.compute_metrics(record)
    summary = {
        "config": None if record.config is None else record.config.to_dict(),
        "derived": record.derived,
        "metrics": report.to_dict(),
        "v_initial": record.v_initial,
        "v_final": record.v_final,
        "n_events": len(ks),
        "per_agent_event_counts": record.per_agent_event_counts.tolist(),
        "sync_mismatches": record.sync_mismatches,
        "runtime_seconds": record.runtime_seconds,
        "error": record.error,
    }
    if extra_summary:
        summary.update(extra_summary)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return out

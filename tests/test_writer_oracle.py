"""The block-streamed CSV writer against the earlier all-in-memory writer.

``write_run_outputs`` formats each row with one "%.17g,..." % row and writes
fixed-size blocks of rows. The writer below is the earlier implementation,
one format(v, ".17g") per value joined in memory; the bytes must not differ.
"""

import dataclasses
import math

import pytest

from conftest import paper_cfg
from etconsensus import outputs
from etconsensus.errors import NumericsError
from etconsensus.simulator import run, write_run_outputs

BLOCK = outputs._WRITE_BLOCK


def _fmt(v) -> str:
    return format(float(v), ".17g")


def write_csvs_ref(record, out):
    out.mkdir(parents=True, exist_ok=True)
    n_agents, n = record.states.shape[1:]
    cols = [f"x{i + 1}_{d + 1}" for i in range(n_agents) for d in range(n)]
    if record.est_series is not None:
        cols += [f"xhat{i + 1}_{d + 1}" for i in range(n_agents) for d in range(n)]
    lines = ["t," + ",".join(cols)]
    for k in range(record.states.shape[0]):
        row = [_fmt(record.times[k])]
        row += [_fmt(v) for v in record.states[k].ravel()]
        if record.est_series is not None:
            row += [_fmt(v) for v in record.est_series[k].ravel()]
        lines.append(",".join(row))
    (out / "states.csv").write_text("\n".join(lines) + "\n")
    ev_lines = ["t,agent"]
    ev_lines += [f"{_fmt(t)},{agent + 1}" for t, agent in record.events]
    (out / "events.csv").write_text("\n".join(ev_lines) + "\n")


def assert_same_bytes(record, tmp_path):
    new = write_run_outputs(record, tmp_path / "new")
    write_csvs_ref(record, tmp_path / "old")
    for name in ("states.csv", "events.csv"):
        assert (new / name).read_bytes() == (tmp_path / "old" / name).read_bytes(), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_special_values(tmp_path):
    rec = run(paper_cfg(duration=0.3))
    states = rec.states.copy()
    specials = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3.0, -1e-310, 1e308,
                math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0, -123456789.0]
    states.reshape(-1)[: len(specials)] = specials
    times = rec.times.copy()
    times[1] = -0.0
    times[2] = 5e-324
    flags = rec.event_flags.copy()
    flags[1, 4] = flags[2, 0] = True
    assert_same_bytes(
        dataclasses.replace(rec, states=states, times=times, event_flags=flags), tmp_path
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_partial_record_after_numerics_error(tmp_path):
    with pytest.raises(NumericsError) as info:
        run(paper_cfg(h=1e6, duration=6e7))
    partial = info.value.partial_record
    assert partial is not None and partial.error is not None
    assert_same_bytes(partial, tmp_path)


@pytest.mark.parametrize("rows", [BLOCK, 2 * BLOCK + 37])
def test_block_boundaries_with_estimates(rows, tmp_path):
    rec = run(paper_cfg(duration=(rows - 1) * 0.01, dump_estimates=True))
    assert rec.states.shape[0] == rows
    assert rec.est_series is not None
    assert len(rec.events) > BLOCK
    assert_same_bytes(rec, tmp_path)


def test_zero_events(tmp_path):
    rec = run(paper_cfg(duration=0.2, theta_hat=[0.5], x0=[[0.4, -0.2]] * 5))
    assert rec.events == []
    assert_same_bytes(rec, tmp_path)
    assert (tmp_path / "new" / "events.csv").read_text() == "t,agent\n"

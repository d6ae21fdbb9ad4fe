"""Runs stepped in lockstep against the same runs stepped alone, and the streamed outputs.

``run_batch`` steps several prepared runs as one run over the disjoint union
of their graphs. Every member must equal its solo ``run()`` bit for bit, in
states, event flags and every trigger series, whatever else is in the batch:
a change of the stacked shape must not change a row's arithmetic. The CLI
streams a run into ``RunSink``; its files and summary must equal those
``write_run_outputs`` makes from the complete record, and a sweep point must
equal its solo ``run`` byte for byte, a point that goes non-finite included.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from etconsensus import metrics
from etconsensus.cli import main
from etconsensus.config import prepare_dict, preset_config
from etconsensus.dynamics import estimate_lipschitz, trig_grid
from etconsensus.errors import NumericsError, UsageError
from etconsensus.outputs import RunSink
from etconsensus.simulator import run, run_batch, write_run_outputs, zeno_guard_report

BENCH = Path(__file__).resolve().parents[1] / "bench"
SERIES = ("states", "event_flags", "delta", "threshold", "w_norm", "e_norm")


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _bench_workloads()


def assert_members_equal_solo(preps, solo=None):
    solo = [run(p) for p in preps] if solo is None else solo
    for i, (alone, member) in enumerate(zip(solo, run_batch(preps))):
        assert member.error is None
        for name in SERIES:
            assert np.array_equal(getattr(member, name), getattr(alone, name)), (i, name)
        assert np.array_equal(member.times, alone.times)
        assert np.array_equal(member.v_series, alone.v_series)
    return solo


class TestMembersEqualSoloRuns:
    def test_bench_sweep_points(self):
        base = workloads.sweep(0)["sweep"]["base"]
        keys = sorted(workloads.SWEEP_GRID)
        points = []
        for combo in itertools.product(*(workloads.SWEEP_GRID[k] for k in keys)):
            points.append(prepare_dict({**base, **dict(zip(keys, combo))}))
        assert len(points) == 18
        for integrator in ("euler", "rk4"):
            assert_members_equal_solo([p for p in points if p.cfg.integrator == integrator])

    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    def test_preset_cells_per_integrator(self, integrator, run_cache):
        names = ("paper-asym-040", "paper-asym-035", "paper-zeno-040", "paper-zeno-035")
        solo = [run_cache(name, duration=30.0, integrator=integrator) for name in names]
        preps = [prepare_dict(preset_config(name), duration=30.0, integrator=integrator)
                 for name in names]
        assert_members_equal_solo(preps, solo)

    @pytest.mark.parametrize("kappa2", [5.0, 0.25])
    def test_network_80_seeds_on_six_graphs(self, kappa2):
        preps = []
        for seed in range(6):
            cfg = workloads.network_80(seed)["config"]
            cfg.update(kappa2=kappa2, duration=2.0)
            preps.append(prepare_dict(cfg))
        solo = assert_members_equal_solo(preps)
        events = [int(rec.event_flags.sum()) for rec in solo]
        if kappa2 == 0.25:
            assert min(events) > 1000, events
        else:
            assert events == [0] * 6

    def test_batch_of_one_is_the_run(self):
        prep = prepare_dict(preset_config("paper-asym-040"), duration=2.0)
        assert_members_equal_solo([prep])

    def test_members_must_share_the_batch_key(self):
        a = prepare_dict(preset_config("paper-asym-040"), duration=1.0)
        b = prepare_dict(preset_config("paper-asym-040"), duration=2.0)
        with pytest.raises(UsageError, match="duration/h"):
            run_batch([a, b])


def test_failing_member_leaves_the_batch():
    """A member going non-finite closes with its solo run's error; the rest carry on as alone.

    A middle member fails; the first fails, which moves every leader row;
    two fail on the same step.
    """
    base = preset_config("paper-asym-040")
    for kappas in ((0.1, 1e300, 0.2), (1e300, 0.1, 0.2), (0.1, 1e300, 0.2, 3e299)):
        preps = [prepare_dict(base, duration=1.0, kappa1=k) for k in kappas]
        with np.errstate(all="ignore"):
            batch = run_batch(preps)
            alone = []
            for prep in preps:
                try:
                    alone.append(run(prep))
                except NumericsError as exc:  # kappa1 >= 3e299 goes non-finite at t = 0.02
                    alone.append(exc.partial_record)
        assert [rec.error is not None for rec in batch] == [k > 1.0 for k in kappas]
        for member, solo in zip(batch, alone):
            assert member.error == solo.error, kappas
            if member.error is not None:
                assert "non-finite" in member.error and "t = 0.020000" in member.error
            for name in SERIES:
                assert np.array_equal(getattr(member, name), getattr(solo, name)), (kappas, name)


class TestPairwiseSum:
    @pytest.mark.parametrize("chunk", [1, 7, 320, 10**6])
    def test_matches_numpy_sum(self, chunk):
        rng = np.random.default_rng(chunk)
        for n in list(range(1, 300)) + [1001 * 5, 8191, 8192, 8193, 3001 * 5, 501 * 80]:
            values = rng.random(n) * 10.0 ** rng.uniform(-3, 3, n)
            total = metrics.PairwiseSum(n)
            for start in range(0, n, chunk):
                total.add(values[start : start + chunk])
            assert total.total == values.sum(), n


def _run_dir_equal(a: Path, b: Path):
    for name in ("states.csv", "events.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), (a, name)
    summaries = [json.loads((d / "summary.json").read_text()) for d in (a, b)]
    for summary in summaries:
        del summary["runtime_seconds"]
    assert summaries[0] == summaries[1], a


@pytest.mark.parametrize(
    "preset,integrator",
    [("paper-asym-040", "rk4"), ("paper-zeno-040", "euler"), ("paper-zeno-035", "rk4")],
)
def test_streamed_run_matches_the_record(preset, integrator, tmp_path):
    """One formatter: the sink's files and summary fields equal the record's."""
    prep = prepare_dict(preset_config(preset), duration=10.0, integrator=integrator,
                        dump_estimates=True)
    (streamed,) = run_batch([prep], [RunSink(prep, tmp_path / "streamed")])
    record = run(prep)
    write_run_outputs(streamed, tmp_path / "streamed")
    write_run_outputs(record, tmp_path / "record")
    _run_dir_equal(tmp_path / "streamed", tmp_path / "record")
    if prep.cfg.ctc == "practical":
        lip = estimate_lipschitz(prep.model, trig_grid())
        assert zeno_guard_report(streamed, prep.params, lip) == zeno_guard_report(
            record, prep.params, lip
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_with_a_failing_point_matches_solo_runs(jobs, tmp_path, capsys):
    base = preset_config("paper-asym-040")
    base["duration"] = 1.0
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"base": base, "grid": {"kappa1": [0.1, 1e300]}}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(spec), "--out", str(out), "--jobs", jobs]) == 3
    codes = {}
    for kappa1 in (0.1, 1e300):
        cfg = tmp_path / f"{kappa1}.json"
        cfg.write_text(json.dumps({**base, "kappa1": kappa1}))
        codes[kappa1] = main(["run", "--config", str(cfg), "--out", str(tmp_path / f"run-{kappa1}")])
        _run_dir_equal(out / f"kappa1={kappa1}", tmp_path / f"run-{kappa1}")
    assert codes == {0.1: 0, 1e300: 3}
    summary = json.loads((out / "sweep_summary.json").read_text())
    failed = json.loads((out / "kappa1=1e+300" / "summary.json").read_text())["error"]
    assert summary["failed"] == {"kappa1=1e+300": failed}
    assert "non-finite" in failed and "t = 0.020000" in failed
    assert list(summary["points"]) == ["kappa1=0.1"]
    capsys.readouterr()


def test_streamed_memory_is_bounded_by_what_is_kept(tmp_path, capsys):
    """ROADMAP item 5's gate: a longer run keeps at most 8 (N + 2) bytes per added sample."""
    import tracemalloc

    def argv(duration):
        cfg = tmp_path / f"{duration}.json"
        cfg.write_text(json.dumps({**preset_config("paper-zeno-040"), "duration": duration}))
        return ["run", "--config", str(cfg), "--out", str(tmp_path / f"out-{duration}")]

    assert main(argv(1.0)) == 0  # first, so that one-time allocations are not counted
    peaks = {}
    for duration in (30.0, 120.0):
        tracemalloc.start()
        try:
            assert main(argv(duration)) == 0
            peaks[duration] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    added = (120.0 - 30.0) / 0.01
    n_agents = 5
    allowance = 64 * 1024
    assert peaks[120.0] - peaks[30.0] <= 8 * (n_agents + 2) * added + allowance, peaks

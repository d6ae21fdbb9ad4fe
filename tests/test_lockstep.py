"""Runs stepped in lockstep against the same runs stepped alone, and the streamed outputs.

``run_batch`` steps several prepared runs as one run over the disjoint union
of their graphs. Every member must equal its solo ``run()`` bit for bit, in
states, event flags and every trigger series, whatever else is in the batch:
a change of the stacked shape must not change a row's arithmetic. The CLI
streams a run into ``RunSink``; its files and summary must equal those
``write_run_outputs`` makes from the complete record, every summary key
included, and a sweep point must equal its solo ``run`` byte for byte, a
point that goes non-finite included.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import BLOCK_EDGES
from etconsensus import metrics
from etconsensus.cli import main
from etconsensus.config import config_from_dict, load_preset, prepare_dict, preset_config
from etconsensus.errors import NumericsError, UsageError
from etconsensus.lockstep import batch_key
from etconsensus.outputs import RunSink, practical_lipschitz
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

    def test_batch_key_compares_prepared_values(self):
        """An int P and its float twin, or a default h and the same h given, share a key."""
        base = preset_config("paper-asym-040")
        given = config_from_dict(base, duration=1.0)
        default_h = {k: v for k, v in base.items() if k != "h"}
        written_apart = config_from_dict(default_h, duration=1.0, P=[[5, 2], [2, 1]])
        assert batch_key(written_apart) == batch_key(given)
        assert batch_key(config_from_dict(base, duration=2.0)) != batch_key(given)


class TestOneSinkPerRun:
    """Runs and sinks pair one to one; a mismatch is refused before any step."""

    def test_more_runs_than_sinks(self):
        preps = [prepare_dict(preset_config(name), duration=0.5)
                 for name in ("paper-asym-040", "paper-asym-035")]
        sink = RunSink(preps[0])
        with pytest.raises(UsageError, match="got 2 run.s. and 1 sink"):
            run_batch(preps, [sink])
        assert sink.n == 0

    def test_more_sinks_than_runs(self, tmp_path):
        prep = prepare_dict(preset_config("paper-asym-040"), duration=0.5)
        sinks = [RunSink(prep, tmp_path / name) for name in ("a", "b")]
        with pytest.raises(UsageError, match="got 1 run.s. and 2 sink"):
            run_batch([prep], sinks)
        assert [sink.n for sink in sinks] == [0, 0]
        for name in ("a", "b"):
            assert (tmp_path / name / "states.csv").read_text().count("\n") == 1

    def test_no_runs_give_no_results(self):
        assert run_batch([]) == []


def test_failing_member_leaves_the_batch():
    """A member going non-finite closes with its solo run's error; the rest carry on as alone.

    A middle member fails; the first fails, which moves every other member's rows;
    two fail on the same step; one fails on its estimate, named first, a
    step before another fails on its true state.
    """
    base = preset_config("paper-asym-040")
    x0 = [list(row) for row in base["x0"]]
    x0[3] = [1e308, 1e308]
    ok, kappa = None, "non-finite true state at t = 0.020000"
    estimate = "estimator state of agent 3 became non-finite at t = 0.010000"
    cases = (
        [({"kappa1": 0.1}, ok), ({"kappa1": 1e300}, kappa), ({"kappa1": 0.2}, ok)],
        [({"kappa1": 1e300}, kappa), ({"kappa1": 0.1}, ok), ({"kappa1": 0.2}, ok)],
        [({"kappa1": 0.1}, ok), ({"kappa1": 1e300}, kappa), ({"kappa1": 0.2}, ok),
         ({"kappa1": 3e299}, kappa)],
        [({"kappa1": 0.1}, ok), ({"x0": x0}, estimate), ({"kappa1": 1e300}, kappa)],
    )
    for case in cases:
        preps = [prepare_dict(base, duration=1.0, **overrides) for overrides, _ in case]
        with np.errstate(all="ignore"):
            batch = run_batch(preps)
            alone = []
            for prep in preps:
                try:
                    alone.append(run(prep))
                except NumericsError as exc:
                    alone.append(exc.partial_record)
        for member, solo, (overrides, error) in zip(batch, alone, case):
            assert member.error == solo.error, overrides
            assert (member.error is None) == (error is None), overrides
            assert error is None or member.error.startswith(error), overrides
            for name in SERIES:  # a row 0 from x0 = 1e308 holds nan in its trigger series
                a, b = getattr(member, name), getattr(solo, name)
                assert np.array_equal(a, b, equal_nan=True), (overrides, name)


def _run_dir_equal(a: Path, b: Path):
    for name in ("states.csv", "events.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), (a, name)
    summaries = [json.loads((d / "summary.json").read_text()) for d in (a, b)]
    for summary in summaries:
        del summary["runtime_seconds"]
    assert summaries[0] == summaries[1], a


@pytest.mark.parametrize(
    "preset,integrator,rows",
    [
        pytest.param("paper-asym-040", "rk4", 1001, id="paper-asym-040-rk4"),
        pytest.param("paper-zeno-040", "euler", 1001, id="paper-zeno-040-euler"),
        pytest.param("paper-zeno-035", "rk4", 1001, id="paper-zeno-035-rk4"),
        *(pytest.param(preset, "rk4", rows, id=f"{preset}-rk4-{rows}-rows")
          for preset in ("paper-asym-040", "paper-zeno-040") for rows in BLOCK_EDGES),
    ],
)
def test_streamed_run_matches_the_record(preset, integrator, rows, tmp_path):
    """One formatter: the sink's files and summary fields equal the record's, at block edges too."""
    cfg = preset_config(preset)
    prep = prepare_dict(cfg, duration=(rows - 1) * cfg["h"], integrator=integrator,
                        dump_estimates=True)
    assert prep.cfg.n_steps + 1 == rows
    lip = practical_lipschitz(prep, {})
    (streamed,) = run_batch([prep], [RunSink(prep, tmp_path / "streamed", lip)])
    record = run(prep)
    assert record.r_norm_sum == metrics.r_norms(record.states).sum()
    write_run_outputs(streamed, tmp_path / "streamed")
    write_run_outputs(record, tmp_path / "record")
    _run_dir_equal(tmp_path / "streamed", tmp_path / "record")
    if prep.cfg.ctc == "practical":
        assert zeno_guard_report(streamed, prep.params, lip) == zeno_guard_report(
            record, prep.params, lip
        )


@pytest.mark.parametrize("dumps", [(True, False), (False, True)])
def test_batch_mixing_dumped_estimates_streams_solo_files(dumps, tmp_path):
    """Each sink takes ``est`` only when it names it, so a member that dumps its
    estimates and one that does not each stream their solo run's bytes."""
    preps = [prepare_dict(preset_config(name), duration=1.0, dump_estimates=dump)
             for name, dump in zip(("paper-asym-040", "paper-zeno-040"), dumps)]
    known = {}
    run_batch(preps, [RunSink(p, tmp_path / "batch" / str(i), practical_lipschitz(p, known))
                      for i, p in enumerate(preps)])
    for i, prep in enumerate(preps):
        solo = tmp_path / "solo" / str(i)
        run_batch([prep], [RunSink(prep, solo, practical_lipschitz(prep, known))])
        for name in ("states.csv", "events.csv"):
            assert (tmp_path / "batch" / str(i) / name).read_bytes() == (solo / name).read_bytes()
        assert ("xhat1_1" in (solo / "states.csv").open().readline()) == dumps[i]


@pytest.mark.parametrize("preset", ["paper-zeno-040", "paper-asym-040"])
def test_library_writes_the_summary_the_cli_writes(preset, tmp_path, capsys):
    """One summary writer: ``write_run_outputs(run(prep))`` gives the files of ``etconsensus run``."""
    write_run_outputs(run(load_preset(preset)), tmp_path / "library")
    assert main(["run", "--preset", preset, "--out", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    _run_dir_equal(tmp_path / "library", tmp_path / "cli")
    summary = json.loads((tmp_path / "library" / "summary.json").read_text())
    practical = preset.startswith("paper-zeno")
    assert ("bounds" in summary, "zeno_guard" in summary) == (practical, practical)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cut_short_practical_run_gets_no_bounds_on_either_path(tmp_path, capsys):
    cfg = {**preset_config("paper-zeno-040"), "kappa1": 1e300, "duration": 1.0}
    with pytest.raises(NumericsError) as exc_info:
        run(prepare_dict(cfg))
    write_run_outputs(exc_info.value.partial_record, tmp_path / "library")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "cli")]) == 3
    capsys.readouterr()
    _run_dir_equal(tmp_path / "library", tmp_path / "cli")
    summary = json.loads((tmp_path / "cli" / "summary.json").read_text())
    assert summary["error"]
    assert "bounds" not in summary and "zeno_guard" not in summary


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
    """ROADMAP item 5's gate: a longer run keeps at most 8 (N + 1) bytes per added sample."""
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
    assert peaks[120.0] - peaks[30.0] <= 8 * (n_agents + 1) * added + allowance, peaks

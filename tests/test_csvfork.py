"""The CSV writer child: the same bytes in both placements, and no process left behind.

``run_batch`` hands a streamed run's rows to a forked writer process when
``csvfork.may_fork()`` allows it, and writes them in process otherwise. The
``placement`` fixture forces each through the predicate's own inputs (the
CPU affinity) and checks that a child was forked exactly when asked for,
and that none remains once the test's runs have returned. It also slows
every block's write, so that a file read before the writer has caught up
shows, and arms a watchdog alarm, so that a run waiting forever on its
writer fails its test instead of hanging the suite.
"""

import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from etconsensus import csvfork, metrics, outputs
from etconsensus.cli import main
from etconsensus.config import prepare_dict, preset_config
from etconsensus.outputs import RunSink
from etconsensus.simulator import run, run_batch, write_run_outputs
from test_golden_outputs import GOLDEN, digests

CSVS = ("states.csv", "events.csv")
# Seconds a test of the placement fixture may take before its alarm fails it.
WATCHDOG_S = 120


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["child", "in-process"])
def placement(request, monkeypatch):
    cpus = {0, 1} if request.param == "child" else {0}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    put = outputs.CsvWriter.put

    def slow_put(*args):
        time.sleep(0.005)
        put(*args)

    monkeypatch.setattr(outputs.CsvWriter, "put", slow_put)

    def watchdog(signum, frame):
        raise TimeoutError(f"no result after {WATCHDOG_S} s; is run_batch waiting on its writer?")

    previous = signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(WATCHDOG_S)
    try:
        yield request.param
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert bool(forked) == (request.param == "child")
    assert_no_child()


def assert_same_files(a, b):
    for name in CSVS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), (a, name)


@pytest.mark.parametrize("preset,integrator", sorted(GOLDEN))
def test_golden_cells(preset, integrator, placement, tmp_path, capsys):
    assert digests(preset, integrator, tmp_path / "run", capsys) == GOLDEN[(preset, integrator)]


def test_dumped_estimates(placement, tmp_path):
    prep = prepare_dict(preset_config("paper-zeno-040"), duration=3.0, dump_estimates=True)
    (streamed,) = run_batch([prep], [RunSink(prep, tmp_path / "streamed")])
    write_run_outputs(run(prep), tmp_path / "record")
    assert_same_files(tmp_path / "streamed", tmp_path / "record")
    assert "xhat5_2" in (tmp_path / "streamed" / "states.csv").open().readline()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_member_going_non_finite(placement, tmp_path):
    """The cut-short member's files and sum equal its kept record's, as do the others'."""
    preps = [prepare_dict(preset_config("paper-asym-040"), duration=1.0, kappa1=k)
             for k in (0.1, 1e300, 0.2)]
    with np.errstate(all="ignore"):
        streamed = run_batch(preps, [RunSink(p, tmp_path / "streamed" / str(i))
                                     for i, p in enumerate(preps)])
        kept = run_batch(preps)
    assert [rec.error is not None for rec in streamed] == [False, True, False]
    for i, (member, record) in enumerate(zip(streamed, kept)):
        write_run_outputs(record, tmp_path / "record" / str(i))
        assert_same_files(tmp_path / "streamed" / str(i), tmp_path / "record" / str(i))
        assert member.error == record.error
        assert member.r_norm_sum == record.r_norm_sum
        assert record.r_norm_sum == metrics.r_norms(record.states).sum()


class _FailingSink(RunSink):
    """A streaming sink whose third block raises in the parent."""

    def put(self, rows):
        if self.n > 100:
            raise RuntimeError("sink failed")
        super().put(rows)


def test_parent_raising_mid_loop(placement, tmp_path):
    prep = prepare_dict(preset_config("paper-asym-040"), duration=3.0)
    with pytest.raises(RuntimeError, match="sink failed"):
        run_batch([prep], [_FailingSink(prep, tmp_path / "out")])


@pytest.mark.parametrize("placement", ["child"], indirect=True)
def test_writer_dying_without_a_report(placement, tmp_path, monkeypatch):
    """A writer child that exits non-zero without saying why is a RuntimeError, not a hang."""
    put = outputs.CsvWriter.put
    blocks = []

    def dying_put(*args):
        blocks.append(1)
        if len(blocks) == 2:
            os._exit(1)
        put(*args)

    monkeypatch.setattr(outputs.CsvWriter, "put", dying_put)
    prep = prepare_dict(preset_config("paper-asym-040"), duration=3.0)
    with pytest.raises(RuntimeError, match="writer process exited"):
        run_batch([prep], [RunSink(prep, tmp_path / "out")])


def test_writer_failing_to_write(placement, tmp_path):
    """The writer's OSError reaches run_batch's caller, naming the file, in either placement."""
    prep = prepare_dict(preset_config("paper-asym-040"), duration=3.0)
    sink = RunSink(prep, tmp_path / "out")
    states = tmp_path / "out" / "states.csv"
    states.unlink()
    states.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        run_batch([prep], [sink])
    assert info.value.filename == str(states)


def test_cli_exits_2_naming_the_file_the_writer_cannot_write(placement, tmp_path, monkeypatch,
                                                              capsys):
    out = tmp_path / "out"

    def refuse(self, *rows):
        raise PermissionError(13, "Permission denied", str(self.out / "states.csv"))

    monkeypatch.setattr(outputs.CsvWriter, "put", refuse)
    assert main(["run", "--preset", "paper-asym-040", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out / 'states.csv'}: Permission denied\n"
    assert not (out / "summary.json").exists()


class TestMayFork:
    def test_two_cpus_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert csvfork.may_fork()

    def test_one_cpu_writes_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not csvfork.may_fork()

    def test_without_fork_writes_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
        assert not csvfork.may_fork()

    def test_another_thread_running_writes_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            assert not csvfork.may_fork()
        finally:
            release.set()
            worker.join()

    def test_pool_worker_writes_in_process(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(csvfork.may_fork).result() is False
        assert_no_child()

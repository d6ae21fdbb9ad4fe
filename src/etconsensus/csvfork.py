"""Where a streamed run's CSV text is made: in a forked writer process, or in process.

Formatting a value with "%.17g" holds the GIL, as the step loop does, so a
thread cannot overlap the two; a second process can. While ``run_batch``
steps sinks that stream their CSVs, ``placed(sinks)`` forks one writer child
that runs each sink's own ``CsvWriter.put``, on its inherited copy of the
writer, while the parent keeps stepping. The parent's sinks then only
pickle each block's raw ``times``, ``states``, ``flags`` and ``est`` arrays
into a pipe; every summary fact is still worked out in the parent.

The child is used only when ``os.fork`` exists, the process may run on at
least two CPUs, no other Python thread runs (fork copies the calling thread
alone) and the process is not a multiprocessing worker (a sweep's pool keeps
the CPUs busy already). Otherwise the sinks write in process, through the
same ``CsvWriter.put``.

Leaving ``placed`` closes the pipe, waits for the child to write every
block and exit, and raises in the parent whatever exception the child met,
unless the parent is raising already. Every file is complete then.
"""

from __future__ import annotations

import os
import pickle
import sys
from contextlib import contextmanager

from .outputs import RunSink


def may_fork() -> bool:
    """Whether ``placed`` may fork its writer child in this process now."""
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    threading = sys.modules.get("threading")
    multiprocessing = sys.modules.get("multiprocessing")
    return (
        cpus >= 2
        and (threading is None or threading.active_count() == 1)
        and (multiprocessing is None or multiprocessing.parent_process() is None)
    )


class _Child:
    """The forked writer: the parent's end of its data pipe, its report pipe, and its pid."""

    def __init__(self, pid: int, fd: int, back: int):
        self.pid, self.pipe, self.back = pid, open(fd, "wb"), back

    def close(self, raising: bool) -> None:
        """EOF to the child, which writes what it holds and exits; reap it, and unless
        ``raising``, raise what it met."""
        try:
            self.pipe.close()
        except BrokenPipeError:  # the child has exited after a failure
            pass
        with open(self.back, "rb") as back:
            report = back.read()  # to EOF before the wait: a report may outgrow the pipe
        _, status = os.waitpid(self.pid, 0)
        if raising:
            return
        if report:
            raise pickle.loads(report)
        if status:
            raise RuntimeError("the CSV writer process exited before writing every row")


class _Piped:
    """A sink's writer as the parent sees it while the child writes: ``put`` sends the arrays."""

    def __init__(self, child: _Child, index: int):
        self.child, self.index = child, index

    def put(self, times, states, flags, est=None) -> None:
        pickle.dump((self.index, times, states, flags, est), self.child.pipe)


def _serve(writers: list, fd: int, back: int, inherited: tuple):
    """The child's loop: put every block it is sent with its sink's writer, until EOF.

    It first closes the parent's ends of the pipes, ``inherited``: while it
    holds the write end of its own input, it would never read EOF.
    """
    status = 1
    try:
        for end in inherited:
            os.close(end)
        with open(fd, "rb") as pipe:
            while True:
                try:
                    index, *block = pickle.load(pipe)
                except EOFError:
                    break
                writers[index].put(*block)
        status = 0
    except BaseException as exc:  # interrupts too: the parent raises whatever the child met
        try:
            report = pickle.dumps(exc)
        except Exception:
            report = pickle.dumps(RuntimeError(repr(exc)))
        with open(back, "wb") as pipe:  # a BrokenPipeError here still leaves through finally
            pipe.write(report)
    finally:
        os._exit(status)


def _fork(writers: list) -> _Child | None:
    """Fork the writer child of ``writers``; None when no process can be made."""
    data_r, data_w = os.pipe()
    back_r, back_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (data_r, data_w, back_r, back_w):
            os.close(fd)
        return None
    if pid == 0:
        _serve(writers, data_r, back_w, (data_w, back_r))
    os.close(data_r)
    os.close(back_w)
    return _Child(pid, data_w, back_r)


@contextmanager
def placed(sinks):
    """Within the block, the CSV-streaming ``RunSink``s among ``sinks`` hand their rows to one
    forked writer child, when ``may_fork()``; every file is complete once the block is left."""
    streamed = [s for s in sinks if isinstance(s, RunSink) and s.csv is not None]
    writers = [s.csv for s in streamed]
    child = _fork(writers) if streamed and may_fork() else None
    if child is None:
        yield
        return
    for index, sink in enumerate(streamed):
        sink.csv = _Piped(child, index)
    raising = True
    try:
        yield
        raising = False
    except BrokenPipeError:  # the child has exited: raise what it met instead
        raising = False
        raise
    finally:
        for sink, writer in zip(streamed, writers):
            sink.csv = writer
        child.close(raising)

"""Where a streamed run's CSV text is made: in a forked writer process, or in process.

Formatting a value with "%.17g" holds the GIL, as the step loop does, so a
thread cannot overlap the two; a second process can. While ``run_batch``
steps sinks that stream their CSVs, ``placed(sinks)`` forks one writer child
that runs each sink's own ``CsvWriter.put``, on its inherited copy of the
writer, while the parent keeps stepping. The parent's sinks then only copy
each block's raw ``times``, ``states``, ``flags`` and ``est`` arrays into a
pipe, behind a small header; every summary fact is still worked out in the
parent.

The child is used only when ``os.fork`` exists, the process may run on at
least two CPUs, no other Python thread runs (fork copies the calling thread
alone) and the process is not a multiprocessing worker (a sweep's pool keeps
the CPUs busy already). Otherwise the sinks write in process, through the
same ``CsvWriter.put``.

``sync()`` returns once the child has written every block sent so far, and
raises in the parent whatever exception the child met. Leaving ``placed``
syncs, unless the parent is raising already, then closes the pipe and reaps
the child, which leaves only through ``os._exit``.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
from contextlib import contextmanager

import numpy as np

from .outputs import RunSink

# Per message: sink index (_SYNC asks for a reply), rows, agents, state
# dimension, 1 when estimates follow.
_HEADER = struct.Struct("=5q")
_SYNC = -1
_OK, _FAILED = b"\0", b"\1"


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


class _InProcess:
    """The sinks write their own CSVs; nothing to wait for."""

    def sync(self) -> None:
        pass


class _Child:
    """The forked writer: the parent's end of its two pipes, and its pid."""

    def __init__(self, pid: int, fd: int, back: int):
        self.pid, self.fd, self.back = pid, fd, back

    def sync(self) -> None:
        self.write(_HEADER.pack(_SYNC, 0, 0, 0, 0))
        reply = os.read(self.back, 1)
        if reply != _OK:
            self._raise(reply)

    def close(self) -> None:
        """EOF to the child, which writes what it holds and exits; then reap it."""
        try:
            os.close(self.fd)
            os.waitpid(self.pid, 0)
        finally:
            os.close(self.back)

    def write(self, data: bytes) -> None:
        view = memoryview(data)
        try:
            while view:  # a signal handler can cut a write short
                view = view[os.write(self.fd, view):]
        except BrokenPipeError:  # the child has exited after a failure
            self._raise(b"")

    def _raise(self, head: bytes):
        chunks = [head]
        while chunk := os.read(self.back, 1 << 16):
            chunks.append(chunk)
        report = b"".join(chunks)
        if report[:1] == _FAILED:
            raise pickle.loads(report[1:])
        raise RuntimeError("the CSV writer process exited before writing every row")


class _Piped:
    """A sink's writer as the parent sees it while the child writes: ``put`` sends the arrays."""

    def __init__(self, child: _Child, index: int, out):
        self.child, self.index, self.out = child, index, out

    def put(self, times, states, flags, est=None) -> None:
        j, agents, dim = states.shape
        parts = [_HEADER.pack(self.index, j, agents, dim, est is not None),
                 np.ascontiguousarray(times, float), np.ascontiguousarray(states, float),
                 np.ascontiguousarray(flags, bool)]
        if est is not None:
            parts.append(np.ascontiguousarray(est, float))
        self.child.write(b"".join(parts))


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
            while header := pipe.read(_HEADER.size):
                index, j, agents, dim, dumped = _HEADER.unpack(header)
                if index == _SYNC:
                    os.write(back, _OK)
                    continue
                values = j * agents * dim
                data = pipe.read(8 * (j + values * (1 + dumped)) + j * agents)
                times = np.frombuffer(data, float, j)
                states = np.frombuffer(data, float, values, 8 * j).reshape(j, agents, dim)
                at = 8 * (j + values)
                flags = np.frombuffer(data, bool, j * agents, at).reshape(j, agents)
                est = None
                if dumped:
                    est = np.frombuffer(data, float, values, at + j * agents).reshape(j, agents, dim)
                writers[index].put(times, states, flags, est)
        status = 0
    except BaseException as exc:  # interrupts too: the parent raises whatever the child met
        try:
            report = pickle.dumps(exc)
        except Exception:
            report = pickle.dumps(RuntimeError(repr(exc)))
        os.write(back, _FAILED + report)  # a BrokenPipeError here still leaves through finally
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
    forked writer child, when ``may_fork()``; yields what ``sync()`` waits on."""
    streamed = [s for s in sinks if isinstance(s, RunSink) and s.csv is not None]
    writers = [s.csv for s in streamed]
    child = _fork(writers) if streamed and may_fork() else None
    if child is None:
        yield _InProcess()
        return
    for index, (sink, writer) in enumerate(zip(streamed, writers)):
        sink.csv = _Piped(child, index, writer.out)
    try:
        yield child
        child.sync()
    finally:
        for sink, writer in zip(streamed, writers):
            sink.csv = writer
        child.close()

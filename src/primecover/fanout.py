"""Map a function over contiguous chunks of a sequence, across the CPU cores.

`map_chunks` splits its items into contiguous chunks, one per process:
the caller's process computes the first chunk and each further chunk
runs in an `os.fork`ed worker, which pickles its result (or the
exception it raised) back through a pipe. The results come back in
chunk order, so a caller that joins them gets what one call over all the
items gives, byte for byte, whatever the number of cores.

The number of chunks is worked out, never set: the smaller of the CPUs
this process may run on and the chunks worth a fork (at least
`MIN_CHUNK` units of work each). It runs serially on one CPU, when
`os.fork` is missing, when other threads are alive (a forked child gets
a copy of every lock but only the forking thread) or when only one chunk
is worth it. A worker copies the caller's memory page by page as either side
writes, so each worker adds its own resident memory.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# The least work, in per-prime evaluations, that is worth a fork. Measured
# on a 2-core VM with Python 3.11.7, in a 43 MiB process holding the 1e6
# sequence: a fork, pipe and reap round trip with a trivial chunk costs
# 3.1-3.7 ms; two chunks of `ergodic` rows match one serial call at 1,000
# rows each (about 12 ms in all), beat it in two runs of three at 2,000
# each (19-20 ms against 25-26 ms) and in all three at 4,000 each (34-39
# ms against 48-55 ms). One per-prime evaluation is an `ergodic` CSV row
# (4.7-6.5 us) or one prime of one Monte Carlo trial (2.0 us at Y = 5000),
# so a chunk of 2,000 is 4-13 ms of work.
MIN_CHUNK = 2000


def cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def chunk_count(items: int, work_per_item: int = 1) -> int:
    """How many chunks `map_chunks` splits `items` items into; 1 means serial."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    worth = items * work_per_item // MIN_CHUNK
    return max(1, min(cpu_count(), worth, items))


def map_chunks(
    fn: Callable[[Sequence], T], items: Sequence, work_per_item: int = 1
) -> list[T]:
    """[fn(chunk) for each contiguous chunk of items], in order.

    work_per_item is the number of per-prime evaluations one item costs.
    fn must not depend on which process runs it. The earliest chunk's
    exception is raised, so a failure reads as the serial run's does; a
    worker that dies without a result is a RuntimeError. On every path,
    KeyboardInterrupt included, the workers still running are killed and
    all of them are reaped before this returns.
    """
    n = chunk_count(len(items), work_per_item)
    bounds = [len(items) * i // n for i in range(n + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe), chunks 1..n-1
    try:
        for chunk in chunks[1:]:
            workers.append(_fork(fn, chunk))
        results = [fn(chunks[0])]
        while workers:
            pid, fd = workers[0]
            with open(fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            workers.pop(0)
            os.close(fd)
            results.append(_result(payload, status))
        return results
    finally:
        for pid, fd in workers:
            os.close(fd)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid, _ in workers:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped just before an interrupt
                pass


def _fork(fn: Callable[[Sequence], T], chunk: Sequence) -> tuple[int, int]:
    """Start a worker that sends back fn(chunk); returns (pid, read end)."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        # the worker: whatever happens, it leaves by os._exit, so no stdout
        # buffer is flushed twice and no atexit hook or caller's frame runs
        try:
            os.close(read_end)
            try:
                payload = pickle.dumps((True, fn(chunk)), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # sent to the caller, which raises it
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)
    return pid, read_end


def _result(payload: bytes, status: int):
    """A worker's result from its payload and wait status; raises its exception."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(f"a worker process {how} before sending its result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value

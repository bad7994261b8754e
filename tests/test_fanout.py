import os
import signal
import threading
import time

import pytest

from primecover import fanout


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture()
def cpus(monkeypatch):
    """Set the CPUs fanout sees (at most 4) and make every item worth a fork."""

    def allow(n):
        assert 1 <= n <= 4
        monkeypatch.setattr(fanout, "cpu_count", lambda: n)

    monkeypatch.setattr(fanout, "MIN_CHUNK", 1)
    yield allow
    assert no_child_left()


def pid_and_items(chunk):
    return os.getpid(), list(chunk)


class TestMapChunks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("items", [range(10), range(7), tuple(range(5, 16, 3))])
    def test_results_in_order(self, cpus, n, items):
        cpus(n)
        results = fanout.map_chunks(pid_and_items, items)
        assert [x for _, chunk in results for x in chunk] == list(items)
        sizes = [len(chunk) for _, chunk in results]
        assert len(sizes) == min(n, len(items)) and max(sizes) - min(sizes) <= 1
        # the caller computes the first chunk, one worker each of the others
        pids = [pid for pid, _ in results]
        assert pids[0] == os.getpid() and len(set(pids)) == len(pids)

    def test_chunks_worth_a_fork(self, cpus, monkeypatch):
        cpus(4)
        monkeypatch.setattr(fanout, "MIN_CHUNK", 10)
        assert [fanout.chunk_count(n) for n in (0, 9, 19, 20, 35, 1000)] == [1, 1, 1, 2, 3, 4]
        # an item's work counts towards a chunk's, but a chunk keeps one item at least
        assert fanout.chunk_count(3, work_per_item=100) == 3

    @pytest.mark.parametrize("n", [3, 4])
    def test_earliest_exception_is_raised(self, cpus, n):
        cpus(n)

        def fail_in_chunks_0_and_2(chunk):
            if chunk[0] in (0, 2):
                raise ValueError(f"bad item {chunk[0]}")
            return list(chunk)

        with pytest.raises(ValueError, match="^bad item 0$"):
            fanout.map_chunks(fail_in_chunks_0_and_2, range(4))

    def test_exception_in_a_worker(self, cpus):
        cpus(4)

        def fail_in_chunk_2(chunk):
            if chunk[0] == 2:
                raise KeyError(2)
            return list(chunk)

        with pytest.raises(KeyError):
            fanout.map_chunks(fail_in_chunk_2, range(4))

    def test_worker_that_dies(self, cpus):
        cpus(3)

        def die_in_worker(chunk):
            if chunk[0] != 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return list(chunk)

        with pytest.raises(RuntimeError, match="killed by signal 9"):
            fanout.map_chunks(die_in_worker, range(3))

    def test_interrupt_kills_the_workers(self, cpus):
        cpus(3)

        def interrupt_or_sleep(chunk):
            if chunk[0] == 0:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            fanout.map_chunks(interrupt_or_sleep, range(3))
        assert time.monotonic() - start < 30  # killed, not waited for

    @pytest.mark.parametrize("fallback", ["one_cpu", "no_fork", "small_share"])
    def test_serial_fallback(self, cpus, monkeypatch, fallback):
        cpus(4)
        forked = fanout.map_chunks(pid_and_items, range(8))
        if fallback == "one_cpu":
            cpus(1)
        elif fallback == "no_fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(fanout, "MIN_CHUNK", 5)
        serial = fanout.map_chunks(pid_and_items, range(8))
        assert serial == [(os.getpid(), list(range(8)))]
        assert [x for _, chunk in forked for x in chunk] == serial[0][1]

    def test_serial_while_other_threads_run(self, cpus):
        cpus(4)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert fanout.map_chunks(pid_and_items, range(8)) == [(os.getpid(), list(range(8)))]
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

"""The thread map shared by the Monte Carlo estimator passes and the decomposition
slices, and the forked calls that write a run's CSVs."""

from __future__ import annotations

import contextlib
import os
import threading
import time

import pytest
from conftest import assert_no_children

from vastop._threads import ForkedCalls, ordered_map, worker_count


def _slow_square(i: int) -> int:
    time.sleep(0.002 * ((7 * i) % 5))  # later items often finish first
    return i * i


class TestWorkerCount:
    def test_thread_count_capped_at_the_items(self, cpus):
        cpus(3)
        assert worker_count(10) == 3
        assert worker_count(2) == 2

    def test_default_is_at_least_one(self):
        assert worker_count(1) == 1
        assert worker_count(10**6) == len(os.sched_getaffinity(0)) >= 1


class TestOrderedMap:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_results_in_order(self, cpus, threads):
        cpus(threads)
        before = threading.active_count()
        assert ordered_map(_slow_square, 23) == [i * i for i in range(23)]
        assert threading.active_count() == before

    def test_worker_error_propagates_and_joins(self, cpus):
        cpus(2)
        started = []

        def work(i):
            started.append(i)
            if i == 1:
                raise FloatingPointError("item 1")
            time.sleep(0.01)
            return i

        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="item 1"):
            ordered_map(work, 64)
        # the items not started when the error reached the caller were cancelled
        assert len(started) < 32
        assert threading.active_count() == before


def _log(path: str, i: int, fail_at: int = -1, sleep: float = 0.0) -> None:
    """After sleep seconds, append "pid i" to path, or fail if i is fail_at."""
    time.sleep(sleep or 0.001 * (i % 3))
    if i == fail_at:
        raise KeyError(f"call {i}")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()} {i}\n")


def _sleep(seconds: float) -> None:
    time.sleep(seconds)


def _touch(path: str, *args) -> None:
    with open(path, "w", encoding="utf-8"):
        pass


class _Opaque:
    def __reduce__(self):
        raise TypeError("_Opaque does not pickle")


class _TwoArgError(Exception):
    """Pickles, but does not unpickle: its pickle calls it with one argument."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _logged(path) -> list[tuple[int, int]]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [tuple(map(int, line.split())) for line in fh]


class TestOrderedProcess:
    """ForkedCalls, the helper that writes a run's CSVs."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_call_runs_once_in_a_child_of_its_own(self, tmp_path, cpus, threads):
        cpus(threads)
        # a call that failed in the first helper stops none of the others, nor
        # any of the second helper's
        for run, fail_at in enumerate((5, -1)):
            path = str(tmp_path / f"run{run}.log")
            with contextlib.suppress(KeyError), ForkedCalls() as writes:
                for i in range(12):
                    writes.submit(_log, path, i, fail_at)
            log = _logged(path)
            assert sorted(i for _, i in log) == [i for i in range(12) if i != fail_at]
            pids = {pid for pid, _ in log}
            assert len(pids) == len(log) and os.getpid() not in pids
            assert_no_children()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_first_failed_call_is_raised_after_all_ended(self, tmp_path, cpus, threads):
        cpus(threads)
        path = str(tmp_path / "log")
        with ForkedCalls() as writes:
            writes.submit(_log, path, 0)
            writes.submit(_log, path, 1, 1, 0.3)  # fails after call 2 has failed
            writes.submit(_log, path, 2, 2)
            writes.submit(_log, path, 3, -1, 0.6)  # healthy, and the last to end
            with pytest.raises(KeyError, match="call 1"):
                writes.join()
            assert_no_children()
        assert sorted(i for _, i in _logged(path)) == [0, 3]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_failed_call_wins_over_a_later_error(self, tmp_path, cpus, threads):
        cpus(threads)
        path = str(tmp_path / "log")
        with pytest.raises(KeyError, match="call 1"):
            with ForkedCalls() as writes:
                writes.submit(_log, path, 0)
                writes.submit(_log, path, 1, 1)
                raise FloatingPointError("after the calls")
        assert [i for _, i in _logged(path)] == [0]
        assert_no_children()

    def test_an_error_in_the_block_waits_for_the_calls(self, tmp_path, cpus):
        cpus(2)
        path = str(tmp_path / "log")
        with pytest.raises(FloatingPointError):
            with ForkedCalls() as writes:
                for i in range(6):
                    writes.submit(_log, path, i)
                raise FloatingPointError("after the calls")
        assert sorted(i for _, i in _logged(path)) == list(range(6))
        assert_no_children()

    def test_an_interrupt_kills_every_child(self, tmp_path, cpus):
        cpus(2)
        path = str(tmp_path / "log")
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            with ForkedCalls() as writes:
                writes.submit(_sleep, 5.0)
                writes.submit(_log, path, 0, -1, 5.0)
                raise KeyboardInterrupt
        assert time.perf_counter() - start < 2.0
        assert _logged(path) == []
        assert_no_children()

    def test_calls_and_arguments_need_not_pickle(self, tmp_path, cpus):
        cpus(2)
        with ForkedCalls() as writes:
            writes.submit(lambda: _touch(str(tmp_path / "closure")))
            writes.submit(_touch, str(tmp_path / "argument"), _Opaque())
        assert sorted(os.listdir(tmp_path)) == ["argument", "closure"]
        assert_no_children()

    @pytest.mark.parametrize("local", [True, False])
    def test_an_error_that_does_not_pickle_reaches_the_caller(self, cpus, local):
        cpus(2)

        class LocalError(Exception):
            pass

        def fail():
            raise LocalError("in the child") if local else _TwoArgError("in the child", "two")

        name = "LocalError: in the child" if local else "_TwoArgError: in the child: two"
        with pytest.raises(RuntimeError, match=name) as info:
            with ForkedCalls() as writes:
                writes.submit(fail)
        cause = str(info.value.__cause__)
        assert "Traceback (most recent call last)" in cause and "in fail" in cause
        assert name in cause
        assert_no_children()

"""The thread map shared by the Monte Carlo estimator passes and the decomposition
slices, and the one worker process that writes a run's CSVs."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from vastop._threads import OrderedProcess, ordered_map, worker_count
from vastop.model import ConfigError


def _slow_square(i: int) -> int:
    time.sleep(0.002 * ((7 * i) % 5))  # later items often finish first
    return i * i


class TestWorkerCount:
    def test_thread_count_capped_at_the_items(self, monkeypatch):
        monkeypatch.setenv("VASTOP_THREADS", "3")
        assert worker_count(10) == 3
        assert worker_count(2) == 2

    def test_default_is_at_least_one(self, monkeypatch):
        monkeypatch.delenv("VASTOP_THREADS", raising=False)
        assert worker_count(1) == 1
        assert worker_count(10**6) >= 1

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5"])
    def test_invalid_value_is_a_config_error(self, monkeypatch, value):
        monkeypatch.setenv("VASTOP_THREADS", value)
        with pytest.raises(ConfigError, match="VASTOP_THREADS"):
            worker_count(4)


class TestOrderedMap:
    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    def test_results_in_order(self, monkeypatch, threads):
        monkeypatch.setenv("VASTOP_THREADS", threads)
        before = threading.active_count()
        assert ordered_map(_slow_square, 23) == [i * i for i in range(23)]
        assert threading.active_count() == before

    def test_worker_error_propagates_and_joins(self, monkeypatch):
        monkeypatch.setenv("VASTOP_THREADS", "2")
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


# calls for OrderedProcess: module-level, so that they pickle to its worker


def _log(state: dict, path: str, i: int, fail_at: int = -1) -> None:
    """Append "pid i calls" to path, calls counting this worker's calls so far."""
    if i == fail_at:
        raise KeyError(f"call {i}")
    state["calls"] = state.get("calls", 0) + 1
    time.sleep(0.001 * (i % 3))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()} {i} {state['calls']}\n")


def _sleep(state: dict, seconds: float) -> None:
    time.sleep(seconds)


def _logged(path) -> list[tuple[int, int, int]]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [tuple(map(int, line.split())) for line in fh]


class TestOrderedProcess:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_calls_run_in_order_on_one_worker_with_its_own_state(self, tmp_path, monkeypatch,
                                                                 threads):
        monkeypatch.setenv("VASTOP_THREADS", threads)
        for run in range(2):  # each helper starts with an empty state
            path = str(tmp_path / f"run{run}.log")
            with OrderedProcess() as writes:
                for i in range(12):
                    writes.submit(_log, path, i)
            log = _logged(path)
            assert [(i, calls) for _, i, calls in log] == [(i, i + 1) for i in range(12)]
            pids = {pid for pid, _, _ in log}
            assert len(pids) == 1
            assert (pids == {os.getpid()}) == (threads == "1")
            assert not multiprocessing.active_children()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_failed_call_stops_the_later_ones(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("VASTOP_THREADS", threads)
        path = str(tmp_path / "log")
        with pytest.raises(KeyError, match="call 3"):
            with OrderedProcess() as writes:
                for i in range(8):
                    writes.submit(_log, path, i, 3)
        assert [i for _, i, _ in _logged(path)] == [0, 1, 2]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_failed_call_wins_over_a_later_error(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("VASTOP_THREADS", threads)
        path = str(tmp_path / "log")
        with pytest.raises(KeyError, match="call 1"):
            with OrderedProcess() as writes:
                writes.submit(_log, path, 0)
                writes.submit(_log, path, 1, 1)
                raise FloatingPointError("after the calls")
        assert [i for _, i, _ in _logged(path)] == [0]

    def test_an_error_in_the_block_waits_for_the_calls(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VASTOP_THREADS", "2")
        path = str(tmp_path / "log")
        with pytest.raises(FloatingPointError):
            with OrderedProcess() as writes:
                for i in range(6):
                    writes.submit(_log, path, i)
                raise FloatingPointError("after the calls")
        assert [i for _, i, _ in _logged(path)] == list(range(6))

    def test_an_interrupt_cancels_the_calls_not_started(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VASTOP_THREADS", "2")
        path = str(tmp_path / "log")
        with pytest.raises(KeyboardInterrupt):
            with OrderedProcess() as writes:
                writes.submit(_sleep, 0.2)
                for i in range(50):
                    writes.submit(_log, path, i)
                raise KeyboardInterrupt
        # the calls already handed to the worker may run; the rest never start
        assert len(_logged(path)) < 10

"""The ordered thread pool shared by the Monte Carlo chunks and the decomposition slices."""

from __future__ import annotations

import threading
import time

import pytest

from vastop._threads import ordered_map, worker_count
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
    @pytest.mark.parametrize("caller_first", [False, True])
    def test_results_in_order(self, monkeypatch, threads, caller_first):
        monkeypatch.setenv("VASTOP_THREADS", threads)
        before = threading.active_count()
        assert list(ordered_map(_slow_square, 23, caller_first=caller_first)) == [
            i * i for i in range(23)]
        assert threading.active_count() == before

    def test_caller_computes_the_first_item(self, monkeypatch):
        monkeypatch.setenv("VASTOP_THREADS", "3")
        me = threading.get_ident()
        idents = list(ordered_map(lambda i: threading.get_ident(), 3, caller_first=True))
        assert idents[0] == me
        assert me not in idents[1:]

    def test_single_worker_with_caller_first_starts_no_thread(self, monkeypatch):
        monkeypatch.setenv("VASTOP_THREADS", "1")
        me = threading.get_ident()
        assert set(ordered_map(lambda i: threading.get_ident(), 5, caller_first=True)) == {me}

    def test_early_close_cancels_pending_and_joins(self, monkeypatch):
        monkeypatch.setenv("VASTOP_THREADS", "2")
        started = []

        def work(i):
            started.append(i)
            time.sleep(0.01)
            return i

        before = threading.active_count()
        items = ordered_map(work, 64)
        assert next(items) == 0
        items.close()
        # the consumed item plus at most one in flight per worker; the rest cancelled
        assert len(started) <= 3
        assert threading.active_count() == before

    def test_worker_error_propagates_and_joins(self, monkeypatch):
        monkeypatch.setenv("VASTOP_THREADS", "2")

        def work(i):
            if i == 1:
                raise FloatingPointError("item 1")
            return i

        before = threading.active_count()
        seen = []
        with pytest.raises(FloatingPointError, match="item 1"):
            for value in ordered_map(work, 8):
                seen.append(value)
        assert seen == [0]
        assert threading.active_count() == before

    def test_caller_error_cancels_and_joins(self, monkeypatch):
        monkeypatch.setenv("VASTOP_THREADS", "2")

        def work(i):
            if i == 0:
                raise KeyError("item 0")
            time.sleep(0.01)
            return i

        before = threading.active_count()
        with pytest.raises(KeyError):
            list(ordered_map(work, 16, caller_first=True))
        assert threading.active_count() == before

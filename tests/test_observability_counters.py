"""Tests of :class:`repro.observability.Counters`, alone and under threads."""

from __future__ import annotations

import math
import sys
import threading

import pytest

from repro.observability import Counters

THREADS, ADDS = 8, 10_000


@pytest.fixture
def fast_switching():
    """Switch threads as often as the interpreter allows while a test runs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def join(thread: threading.Thread) -> None:
    thread.join(timeout=60.0)
    assert not thread.is_alive(), f"{thread.name} did not finish"


def run_threads(target, count: int = THREADS) -> None:
    threads = [threading.Thread(target=target, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        join(thread)


class TestCounters:
    def test_attribute_reads_and_declaration_order(self):
        stats = Counters(hits=0, seconds=0.0, level=3, gauges=("level",))
        stats.add("hits")
        stats.add("seconds", 0.25)
        stats.update(hits=2, level=7)
        assert (stats.hits, stats.seconds, stats.level) == (3, 0.25, 7)
        assert list(stats.snapshot()) == ["hits", "seconds", "level"]

    def test_assignment_and_unknown_names_raise(self):
        stats = Counters(hits=0, level=float("nan"), gauges=("level",))
        with pytest.raises(AttributeError, match="hits"):
            stats.hits = 5
        with pytest.raises(KeyError):
            stats.add("hitz")
        with pytest.raises(KeyError):
            stats.update(levle=1.0)
        assert math.isnan(stats.level)

    def test_gauges_and_maxima_need_a_starting_value(self):
        with pytest.raises(ValueError, match="depth"):
            Counters(hits=0, maxima=("depth",))


class TestCountersUnderThreads:
    def test_concurrent_adds_give_exact_totals(self, fast_switching):
        stats = Counters(hits=0, misses=0, seconds=0.0)

        def worker(index):
            for _ in range(ADDS):
                stats.add("hits")
                stats.update(misses=2, seconds=0.5)

        run_threads(worker)
        assert stats.snapshot() == {
            "hits": THREADS * ADDS,
            "misses": 2 * THREADS * ADDS,
            "seconds": 0.5 * THREADS * ADDS,
        }

    def test_snapshots_racing_updates_are_never_torn(self, fast_switching):
        stats = Counters(requests=0, pairs=0)
        seen: list[dict] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                seen.append(stats.snapshot())

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            run_threads(lambda index: [stats.update(requests=1, pairs=3) for _ in range(ADDS)])
        finally:
            stop.set()
            join(thread)
        assert len(seen) > 1
        assert stats.snapshot() == {"requests": THREADS * ADDS, "pairs": 3 * THREADS * ADDS}
        # One lock window per update and per snapshot: no snapshot is torn.
        assert all(values["pairs"] == 3 * values["requests"] for values in seen)

    def test_gauges_and_maxima_under_concurrent_updates(self, fast_switching):
        stats = Counters(calls=0, depth=0, level=-1, maxima=("depth",), gauges=("level",))

        def worker(index):
            for step in range(ADDS):
                stats.update(calls=1, depth=step, level=index)

        run_threads(worker)
        final = stats.snapshot()
        assert final["calls"] == THREADS * ADDS
        assert final["depth"] == ADDS - 1
        assert final["level"] in range(THREADS)

    def test_the_maximum_never_decreases_between_snapshots(self, fast_switching):
        stats = Counters(depth=0, maxima=("depth",))
        stop = threading.Event()
        seen: list[int] = []

        def reader():
            while not stop.is_set():
                seen.append(stats.snapshot()["depth"])

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            run_threads(
                lambda index: [
                    stats.update(depth=(step * 31 + index) % 5000) for step in range(ADDS)
                ]
            )
        finally:
            stop.set()
            join(thread)
        assert seen == sorted(seen)
        assert stats.depth == 4999

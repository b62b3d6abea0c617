"""Span self time, per-thread parenting, and wrap points that went away."""

from __future__ import annotations

import threading
import types

import pytest

from bench.spans import SpanRecorder


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_and_sibling_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    leaf = recorder.wrap("leaf", lambda: clock.advance(1.0))

    def middle_body():
        clock.advance(2.0)
        leaf()

    middle = recorder.wrap("middle", middle_body)

    def outer_body():
        clock.advance(3.0)
        middle()  # 2 own + 1 nested leaf
        leaf()  # a sibling of middle
        clock.advance(4.0)

    recorder.wrap("outer", outer_body)()
    summary = recorder.summary()
    assert summary["outer"] == {"count": 1, "total_s": 11.0, "self_s": 7.0}
    assert summary["middle"] == {"count": 1, "total_s": 3.0, "self_s": 2.0}
    assert summary["leaf"] == {"count": 2, "total_s": 2.0, "self_s": 2.0}
    # Self times partition the root's duration.
    assert sum(entry["self_s"] for entry in summary.values()) == 11.0


def test_rows_carry_parent_and_request_id():
    recorder = SpanRecorder(FakeClock())
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", inner)
    recorder.set_request(7)
    outer()
    rows = recorder.rows()
    assert [row["name"] for row in rows] == ["outer", "inner"]
    assert rows[0]["parent"] is None and rows[1]["parent"] == rows[0]["id"]
    assert {row["request"] for row in rows} == {7}


def test_parent_stack_is_per_thread():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)
    entered, release = threading.Event(), threading.Event()

    def outer_body():
        entered.set()
        assert release.wait(timeout=5)

    thread = threading.Thread(target=recorder.wrap("outer", outer_body))
    thread.start()
    assert entered.wait(timeout=5)
    inner()  # runs while "outer" is open on the other thread
    release.set()
    thread.join(timeout=5)
    assert not thread.is_alive()
    parents = {row["name"]: row["parent"] for row in recorder.rows()}
    assert parents == {"outer": None, "inner": None}


def test_span_closes_when_the_wrapped_call_raises():
    recorder = SpanRecorder(FakeClock())

    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        recorder.wrap("boom", boom)()
    assert recorder.summary()["boom"]["count"] == 1
    recorder.wrap("after", lambda: None)()
    assert recorder.rows()[-1]["parent"] is None


def test_removed_wrap_point_is_reported_missing_and_patches_are_restored(monkeypatch):
    module = types.ModuleType("bench_fake_program")

    class Layer:
        def work(self):
            return "done"

    module.Layer = Layer
    monkeypatch.setitem(__import__("sys").modules, "bench_fake_program", module)
    original = Layer.__dict__["work"]
    recorder = SpanRecorder()
    points = (
        ("layer.work", "bench_fake_program", "Layer.work"),
        ("layer.gone", "bench_fake_program", "Layer.removed_by_refactor"),
        ("module.gone", "bench_no_such_module", "anything"),
    )
    with recorder.installed(points):
        assert Layer.__dict__["work"] is not original
        assert Layer().work() == "done"
    assert Layer.__dict__["work"] is original
    assert recorder.missing == {"layer.gone", "module.gone"}
    assert set(recorder.summary()) == {"layer.work"}

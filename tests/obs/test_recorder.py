"""Tests for the Recorder, spans, and the ambient recorder stack."""

import pytest

from repro.obs import (
    NULL_RECORDER,
    MemorySink,
    NullRecorder,
    Recorder,
    current_recorder,
    install,
)


class TestRecorderEmission:
    def test_typed_helpers_reach_every_sink(self):
        a, b = MemorySink(), MemorySink()
        rec = Recorder([a, b])
        rec.round(1, 4, 32)
        rec.deliver(1, 0, 1, 8, value="x")
        rec.fault("drop", 2, 1, 2, 8)
        rec.query_batch(16, label="grover")
        rec.charge("setup", 12)
        for sink in (a, b):
            kinds = [e.kind for e in sink.events]
            assert kinds == ["round", "deliver", "fault", "query_batch", "charge"]

    def test_event_fields(self):
        sink = MemorySink()
        rec = Recorder([sink])
        rec.deliver(3, 5, 7, 11, value=(1, 2))
        (e,) = sink.events
        assert (e.round_no, e.src, e.dst, e.bits, e.value) == (3, 5, 7, 11, (1, 2))

    def test_add_sink_after_construction(self):
        rec = Recorder()
        sink = MemorySink()
        rec.add_sink(sink)
        rec.charge("x", 1)
        assert len(sink.events) == 1


class TestSpans:
    def test_events_carry_span_path(self):
        sink = MemorySink()
        rec = Recorder([sink])
        rec.charge("outside", 1)
        with rec.span("query"):
            rec.charge("top", 2)
            with rec.span("distribute"):
                rec.charge("nested", 3)
            rec.charge("after", 4)
        spans = {e.phase: e.span for e in sink.events if e.kind == "charge"}
        assert spans == {
            "outside": "",
            "top": "query",
            "nested": "query/distribute",
            "after": "query",
        }

    def test_span_begin_end_events(self):
        sink = MemorySink()
        rec = Recorder([sink])
        with rec.span("a"):
            with rec.span("b"):
                pass
        span_events = [(e.name, e.phase, e.span) for e in sink.events]
        assert span_events == [
            ("a", "begin", "a"),
            ("b", "begin", "a/b"),
            ("b", "end", "a/b"),
            ("a", "end", "a"),
        ]

    def test_span_path_restored_after_exception(self):
        rec = Recorder([MemorySink()])
        with pytest.raises(RuntimeError):
            with rec.span("doomed"):
                raise RuntimeError("boom")
        assert rec.span_path == ""


class TestNullRecorder:
    def test_inert(self):
        rec = NullRecorder()
        assert not rec.active
        rec.round(1, 1, 1)
        rec.deliver(1, 0, 1, 8)
        rec.fault("drop", 1, 0, 1)
        rec.query_batch(4)
        rec.charge("x", 1)
        with rec.span("anything") as inner:
            assert inner is rec
        assert rec.sinks == []

    def test_rejects_sinks(self):
        with pytest.raises(ValueError):
            NULL_RECORDER.add_sink(MemorySink())


class TestAmbientStack:
    def test_default_is_null(self):
        assert current_recorder() is NULL_RECORDER

    def test_install_nests_and_restores(self):
        outer, inner = Recorder(), Recorder()
        with install(outer):
            assert current_recorder() is outer
            with install(inner):
                assert current_recorder() is inner
            assert current_recorder() is outer
        assert current_recorder() is NULL_RECORDER

    def test_install_restores_on_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with install(rec):
                raise RuntimeError("boom")
        assert current_recorder() is NULL_RECORDER


class TestFork:
    def test_fork_feeds_parent_sinks_plus_extras(self):
        parent_sink, extra = MemorySink(), MemorySink()
        rec = Recorder([parent_sink])
        fork = rec.fork(extra)
        fork.charge("x", 1)
        assert len(parent_sink.events) == 1
        assert len(extra.events) == 1
        # The parent never sees the fork's sinks.
        rec.charge("y", 2)
        assert len(parent_sink.events) == 2
        assert len(extra.events) == 1

    def test_fork_of_null_recorder_drops_parent(self):
        extra = MemorySink()
        fork = NULL_RECORDER.fork(extra)
        assert fork.active
        fork.charge("x", 1)
        assert len(extra.events) == 1

    def test_fork_with_no_sinks_is_inactive(self):
        # Emitters guard on ``active``: a sinkless fork that claimed to be
        # active would make them build events for nobody.
        assert NULL_RECORDER.fork() is NULL_RECORDER
        assert Recorder().fork() is NULL_RECORDER
        assert not NULL_RECORDER.fork().active

    def test_fork_inherits_span_path(self):
        sink = MemorySink()
        rec = Recorder()
        with rec.span("query"):
            fork = rec.fork(sink)
        fork.charge("x", 1)
        (e,) = sink.events
        assert e.span == "query"

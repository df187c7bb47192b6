"""The ``sketch`` event: schema, validator, and MetricsSink counters."""

import json

import pytest

from repro.obs import (
    SKETCH,
    JSONLSink,
    MemorySink,
    MetricsSink,
    Recorder,
    SketchEvent,
)
from repro.obs.events import CoalesceEvent, to_json
from repro.obs.jsonl import validate_jsonl


class TestSketchEvent:
    def test_kind_and_fields(self):
        e = SketchEvent(sketch="lane0", op="insert", count=3)
        assert e.kind == SKETCH == "sketch"
        assert e.memo == ""

    def test_to_json_omits_empty_memo(self):
        physical = to_json(SketchEvent("lane0", "insert", 3))
        assert "memo" not in physical
        edge = to_json(SketchEvent("lane0", "query", 2, memo="hit"))
        assert edge["memo"] == "hit"
        assert edge["type"] == "sketch"

    def test_jsonl_round_trip_validates(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        recorder = Recorder([JSONLSink(path)])
        recorder.sketch("lane0", "insert", 2)
        recorder.sketch("lane0", "query", 1, memo="hit")
        recorder.close()
        counts = validate_jsonl(path)
        assert counts["sketch"] == 2
        lines = [json.loads(s) for s in open(path) if s.strip()]
        sketch_lines = [d for d in lines if d.get("type") == "sketch"]
        assert {d["op"] for d in sketch_lines} == {"insert", "query"}

    def test_validator_rejects_missing_field(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        recorder = Recorder([JSONLSink(path)])
        recorder.sketch("lane0", "insert", 1)
        recorder.close()
        lines = open(path).read().splitlines()
        doc = json.loads(lines[-1])
        del doc["count"]
        lines[-1] = json.dumps(doc)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="count"):
            validate_jsonl(path)


class TestMetricsSink:
    def make(self):
        sink = MetricsSink()
        recorder = Recorder([sink])
        return sink, recorder

    def test_physical_ops_sum_payload_widths(self):
        sink, recorder = self.make()
        recorder.sketch("lane0", "insert", 3)
        recorder.sketch("lane0", "insert", 2)
        recorder.sketch("lane0", "query", 4)
        assert sink.sketch_ops == {"insert": 5, "query": 4}
        assert sink.sketch_memo == {}

    def test_memo_edges_counted_separately(self):
        sink, recorder = self.make()
        recorder.sketch("lane0", "query", 4, memo="hit")
        recorder.sketch("lane0", "insert", 9, memo="invalidate")
        assert sink.sketch_ops == {}
        assert sink.sketch_memo == {"hit": 1, "invalidate": 1}

    def test_invalidation_coalesce_not_a_miss(self):
        sink, recorder = self.make()
        recorder.emit(
            CoalesceEvent(size=5, submissions=0, callers=0, rounds=0,
                          memo="invalidate")
        )
        assert sink.memo_invalidations == 5
        assert sink.coalesced_batches == 0
        assert sink.memo_evictions == 0

    def test_merge_sums_sketch_counters(self):
        a, ra = self.make()
        b, rb = self.make()
        ra.sketch("lane0", "insert", 2)
        ra.sketch("lane0", "query", 1, memo="hit")
        rb.sketch("lane0", "insert", 3)
        rb.emit(
            CoalesceEvent(size=2, submissions=0, callers=0, rounds=0,
                          memo="invalidate")
        )
        a.merge(b)
        assert a.sketch_ops == {"insert": 5}
        assert a.sketch_memo == {"hit": 1}
        assert a.memo_invalidations == 2

    def test_state_round_trip(self):
        sink, recorder = self.make()
        recorder.sketch("lane0", "insert", 2)
        recorder.sketch("lane0", "query", 3, memo="hit")
        restored = MetricsSink.from_state(sink.to_state())
        assert restored.sketch_ops == sink.sketch_ops
        assert restored.sketch_memo == sink.sketch_memo
        assert restored.memo_invalidations == sink.memo_invalidations

    def test_from_state_backward_compat(self):
        """Pre-PR-10 snapshots (no sketch keys) still restore."""
        sink, recorder = self.make()
        recorder.sketch("lane0", "insert", 2)
        state = sink.to_state()
        for key in ("sketch_ops", "sketch_memo", "memo_invalidations"):
            state.pop(key, None)
        restored = MetricsSink.from_state(state)
        assert restored.sketch_ops == {}
        assert restored.sketch_memo == {}
        assert restored.memo_invalidations == 0

    def test_summary_includes_sketch_counters(self):
        sink, recorder = self.make()
        recorder.sketch("lane0", "insert", 2)
        summary = sink.summary()
        assert summary["sketch_ops"] == {"insert": 2}
        assert "memo_invalidations" in summary


class TestMemorySink:
    def test_events_of_kind_finds_sketch(self):
        sink = MemorySink()
        recorder = Recorder([sink])
        recorder.sketch("lane0", "query", 1)
        events = sink.events_of_kind(SKETCH)
        assert len(events) == 1
        assert events[0].sketch == "lane0"

"""The frozen ``repro-trace/1`` stream: every event kind, byte for byte.

``golden_trace.jsonl`` is what :class:`~repro.obs.JSONLSink` wrote for
:data:`GOLDEN_EVENTS`, and ``golden_state.json`` is the
:meth:`~repro.obs.MetricsSink.to_state` snapshot of the same stream.  The
stream covers all eleven kinds, every omittable field both absent and
present, and payloads JSON cannot hold (tuples, non-string dict keys,
complex numbers).  Both files are frozen: regenerate them only for a
deliberate schema change, never to make this module pass.
"""

import json
from pathlib import Path

from repro.obs import (
    EVENT_KINDS,
    ChargeEvent,
    CoalesceEvent,
    DeliverEvent,
    FaultEvent,
    JSONLSink,
    MetricsSink,
    QueryBatchEvent,
    RoundEvent,
    ServeBatchEvent,
    ServeDrainEvent,
    ServeRequestEvent,
    SketchEvent,
    SpanEvent,
    validate_jsonl,
)

HERE = Path(__file__).parent
GOLDEN_TRACE = HERE / "golden_trace.jsonl"
GOLDEN_STATE = HERE / "golden_state.json"

GOLDEN_EVENTS = (
    SpanEvent(name="setup", phase="begin", span="setup"),
    ChargeEvent(phase="setup:bfs", rounds=10, span="setup"),
    SpanEvent(name="setup", phase="end", span="setup"),
    SpanEvent(name="query", phase="begin", span="query"),
    RoundEvent(round_no=1, messages=3, bits=24, span="query"),
    RoundEvent(round_no=2, messages=1, bits=8, span="query",
               mode="vectorized"),
    RoundEvent(round_no=3, messages=2, bits=16, span="query",
               model="congest-clique"),
    RoundEvent(round_no=2, messages=2, bits=16, span="query",
               mode="vectorized", model="local"),
    DeliverEvent(round_no=1, src=0, dst=1, bits=8, value=(1, 2),
                 span="query"),
    DeliverEvent(round_no=1, src=1, dst=0, bits=8,
                 value={"a": 1, 2: (3, 4)}, span="query"),
    DeliverEvent(round_no=2, src=0, dst=1, bits=8, value=1 + 2j,
                 span="query"),
    DeliverEvent(round_no=2, src=2, dst=1, bits=4, span="query"),
    FaultEvent(fault="drop", round_no=2, src=0, dst=1, span="query"),
    FaultEvent(fault="corrupt", round_no=3, src=1, dst=0, bits=8,
               value=[1, (2, 3j)], span="query"),
    FaultEvent(fault="drop", round_no=3, src=2, dst=1, bits=4, value=True,
               span="query"),
    FaultEvent(fault="crash", round_no=3, src=2, dst=2, span="query"),
    QueryBatchEvent(size=4, label="grover", span="query"),
    QueryBatchEvent(size=2, span="query"),
    QueryBatchEvent(size=1, label="grover"),
    SpanEvent(name="distribute", phase="begin", span="query/distribute"),
    ChargeEvent(phase="batch:grover", rounds=7, span="query/distribute",
                model="congest-clique"),
    ChargeEvent(phase="batch:grover", rounds=3, span="query/distribute"),
    SpanEvent(name="distribute", phase="end", span="query/distribute"),
    ChargeEvent(phase="uncompute", rounds=2, span="query", model="local"),
    SpanEvent(name="query", phase="end", span="query"),
    SpanEvent(name="query", phase="begin", span="query"),
    SpanEvent(name="query", phase="end", span="query"),
    CoalesceEvent(size=6, submissions=3, callers=2, rounds=12,
                  span="serve"),
    CoalesceEvent(size=2, submissions=1, callers=1, rounds=0, memo="hit"),
    CoalesceEvent(size=2, submissions=1, callers=1, rounds=0, memo="evict"),
    CoalesceEvent(size=5, submissions=0, callers=0, rounds=0,
                  memo="invalidate"),
    CoalesceEvent(size=3, submissions=2, callers=2, rounds=6, memo="miss"),
    ServeRequestEvent(tenant="t0", queries=3, status="accepted"),
    ServeRequestEvent(tenant="t0", queries=3, status="completed",
                      wait_ms=2.5),
    ServeRequestEvent(tenant="t1", queries=9, status="rejected",
                      span="serve"),
    ServeRequestEvent(tenant="t1", queries=2, status="accepted"),
    ServeRequestEvent(tenant="t1", queries=2, status="abandoned"),
    ServeBatchEvent(lane="default", size=6, tenants=2, rounds=12),
    ServeBatchEvent(lane="default", size=1, tenants=1, rounds=4,
                    span="serve"),
    ServeDrainEvent(reason="close", flushed=4, abandoned=1),
    SketchEvent(sketch="lane0", op="insert", count=3),
    SketchEvent(sketch="lane0", op="query", count=2, memo="hit"),
    SketchEvent(sketch="lane0", op="insert", count=4, memo="invalidate"),
    SketchEvent(sketch="lane1", op="compose", count=5, span="sketch"),
    SketchEvent(sketch="lane0", op="insert", count=1),
)


def _metrics(events) -> MetricsSink:
    sink = MetricsSink()
    for event in events:
        sink.handle(event)
    return sink


class TestGoldenTrace:
    def test_stream_covers_every_kind(self):
        assert {e.kind for e in GOLDEN_EVENTS} == set(EVENT_KINDS)

    def test_jsonl_bytes_match_fixture(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JSONLSink(str(path))
        for event in GOLDEN_EVENTS:
            sink.handle(event)
        sink.close()
        assert path.read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_fixture_validates(self):
        counts = validate_jsonl(str(GOLDEN_TRACE))
        assert set(counts) == {"meta", *EVENT_KINDS}
        assert sum(counts.values()) == len(GOLDEN_EVENTS) + 1


class TestGoldenMetrics:
    def test_state_matches_fixture(self):
        expected = json.loads(GOLDEN_STATE.read_text())
        # memo_misses counted physical batches a second time (it always
        # equalled coalesced_batches) and is no longer kept.
        assert expected.pop("memo_misses") == expected["coalesced_batches"]
        state = _metrics(GOLDEN_EVENTS).to_state()
        # Key order included: checkpoints serialize this dict verbatim.
        assert json.dumps(state) == json.dumps(expected)

    def test_fixture_state_loads(self):
        state = json.loads(GOLDEN_STATE.read_text())
        restored = MetricsSink.from_state(state)
        assert restored.summary() == _metrics(GOLDEN_EVENTS).summary()

"""Property-based tests for the observability spine's derived code paths.

One random stream mixes every event kind.  Split anywhere, the two
halves' :class:`~repro.obs.MetricsSink` shards merge into exactly the
sink that handled the whole stream, and every sink survives a JSON
snapshot round trip.  Whatever the stream, the ``repro-trace/1`` writer
emits records the validator accepts.  Floats are drawn as whole numbers
because float sums are not associative, and merging re-associates them.
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import (
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
from repro.obs.events import EVENT_TYPES

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

names = st.sampled_from(["", "setup", "query", "query/distribute"])
counts = st.integers(min_value=0, max_value=40)
nodes = st.integers(min_value=0, max_value=3)
whole_floats = st.integers(min_value=0, max_value=10**6).map(float)
models = st.sampled_from(["", "congest-clique", "local"])
payloads = st.one_of(
    st.none(), st.integers(), st.tuples(st.integers(), st.integers()),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)

BY_TYPE = {
    RoundEvent: st.builds(
        RoundEvent, round_no=counts, messages=counts, bits=counts,
        mode=st.sampled_from(["", "vectorized"]), model=models, span=names,
    ),
    DeliverEvent: st.builds(
        DeliverEvent, round_no=counts, src=nodes, dst=nodes, bits=counts,
        value=payloads, span=names,
    ),
    FaultEvent: st.builds(
        FaultEvent, fault=st.sampled_from(["drop", "corrupt", "crash"]),
        round_no=counts, src=nodes, dst=nodes, bits=counts, value=payloads,
        span=names,
    ),
    QueryBatchEvent: st.builds(
        QueryBatchEvent, size=counts, label=names, span=names,
    ),
    ChargeEvent: st.builds(
        ChargeEvent, phase=names, rounds=counts, model=models, span=names,
    ),
    SpanEvent: st.builds(
        SpanEvent, name=names, phase=st.sampled_from(["begin", "end"]),
        span=names,
    ),
    CoalesceEvent: st.builds(
        CoalesceEvent, size=counts, submissions=counts, callers=counts,
        rounds=counts,
        memo=st.sampled_from(["hit", "miss", "evict", "invalidate"]),
        span=names,
    ),
    ServeRequestEvent: st.builds(
        ServeRequestEvent, tenant=names, queries=counts,
        status=st.sampled_from(
            ["accepted", "rejected", "completed", "failed", "abandoned"]
        ),
        wait_ms=whole_floats, span=names,
    ),
    ServeBatchEvent: st.builds(
        ServeBatchEvent, lane=names, size=counts, tenants=counts,
        rounds=counts, span=names,
    ),
    ServeDrainEvent: st.builds(
        ServeDrainEvent, reason=st.sampled_from(["close", "signal"]),
        flushed=counts, abandoned=counts, span=names,
    ),
    SketchEvent: st.builds(
        SketchEvent, sketch=names,
        op=st.sampled_from(["insert", "query", "compose"]), count=counts,
        memo=st.sampled_from(["", "hit", "invalidate"]), span=names,
    ),
}
streams = st.lists(st.one_of(*BY_TYPE.values()), max_size=60)


def _metrics(events) -> MetricsSink:
    sink = MetricsSink()
    for event in events:
        sink.handle(event)
    return sink


def test_streams_draw_every_kind():
    assert set(BY_TYPE) == set(EVENT_TYPES)


@SETTINGS
@given(events=streams, data=st.data())
def test_merging_equals_handling(events, data):
    cut = data.draw(st.integers(min_value=0, max_value=len(events)))
    whole = _metrics(events)
    merged = _metrics(events[:cut]).merge(_metrics(events[cut:]))
    assert merged.to_state() == whole.to_state()
    assert merged.summary() == whole.summary()


@SETTINGS
@given(events=streams)
def test_state_round_trips_through_json(events):
    sink = _metrics(events)
    state = json.loads(json.dumps(sink.to_state()))
    restored = MetricsSink.from_state(state)
    assert restored.to_state() == sink.to_state()
    assert restored.edge_bits == sink.edge_bits
    assert restored.summary() == sink.summary()


@SETTINGS
@given(events=streams)
def test_written_streams_validate(events):
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        writer = JSONLSink(path)
        for event in events:
            writer.handle(event)
        writer.close()
        records = validate_jsonl(path)
    finally:
        os.remove(path)
    assert sum(records.values()) == len(events) + 1

"""repro.obs — the unified instrumentation spine.

One event bus for everything the repository accounts: engine rounds and
deliveries, injected faults, oracle query batches, and ledger round
charges, with span-based phase attribution (DESIGN.md §"Observability
spine").

Quick tour::

    from repro.obs import MetricsSink, Recorder, install

    metrics = MetricsSink()
    with install(Recorder([metrics])):
        run_framework(...)            # or any experiment / engine run
    print(metrics.summary())

Sinks are pluggable: :class:`MemorySink` keeps raw events,
:class:`MetricsSink` aggregates counters, :class:`JSONLSink` streams the
``repro-trace/1`` schema to disk, and
:class:`repro.congest.tracing.TraceSink` rebuilds the classic
:class:`~repro.congest.tracing.Trace`.  With no recorder installed the
:data:`NULL_RECORDER` is ambient and the whole spine reduces to one
boolean check on every hot path.
"""

from .events import (
    CHARGE,
    COALESCE,
    DELIVER,
    EVENT_KINDS,
    FAULT,
    QUERY_BATCH,
    ROUND,
    SERVE_BATCH,
    SERVE_DRAIN,
    SERVE_REQUEST,
    SKETCH,
    SPAN,
    ChargeEvent,
    CoalesceEvent,
    DeliverEvent,
    FaultEvent,
    QueryBatchEvent,
    RoundEvent,
    ServeBatchEvent,
    ServeDrainEvent,
    ServeRequestEvent,
    SketchEvent,
    SpanEvent,
    to_json,
)
from .jsonl import SCHEMA, JSONLSink, merge_jsonl_shards, validate_jsonl
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    current_recorder,
    install,
)
from .sinks import MemorySink, MetricsSink, Sink

__all__ = [
    "CHARGE",
    "COALESCE",
    "DELIVER",
    "EVENT_KINDS",
    "FAULT",
    "QUERY_BATCH",
    "ROUND",
    "SERVE_BATCH",
    "SERVE_DRAIN",
    "SERVE_REQUEST",
    "SKETCH",
    "SPAN",
    "SCHEMA",
    "ChargeEvent",
    "CoalesceEvent",
    "DeliverEvent",
    "FaultEvent",
    "JSONLSink",
    "MemorySink",
    "MetricsSink",
    "NULL_RECORDER",
    "NullRecorder",
    "QueryBatchEvent",
    "Recorder",
    "RoundEvent",
    "ServeBatchEvent",
    "ServeDrainEvent",
    "ServeRequestEvent",
    "Sink",
    "SketchEvent",
    "SpanEvent",
    "current_recorder",
    "install",
    "merge_jsonl_shards",
    "to_json",
    "validate_jsonl",
]

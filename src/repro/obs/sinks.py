"""Sinks: where recorded events land.

The sink contract is two methods — ``handle(event)`` called synchronously
per event, and ``close()`` called when the owning recorder is closed.
Sinks must not mutate events (they are shared between sinks) and must not
assume any particular emitter: a sink sees whatever mixture of engine,
fault, query, and ledger events the run produces.

This module holds the dependency-free sinks; the ``Trace``-compatible
sink lives in :mod:`repro.congest.tracing` (:class:`TraceSink`) next to
the :class:`~repro.congest.tracing.Trace` type it builds, and the JSONL
writer in :mod:`repro.obs.jsonl` next to its schema validator.
"""

from __future__ import annotations

import copy
import operator
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from .events import (
    CHARGE,
    COALESCE,
    DELIVER,
    EVENT_KINDS,
    FAULT,
    QUERY_BATCH,
    ROUND,
    SCENARIO,
    SERVE_BATCH,
    SERVE_DRAIN,
    SERVE_REQUEST,
    SKETCH,
    SPAN,
)


class Sink:
    """Base sink: subclasses override :meth:`handle`."""

    def handle(self, event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (default: nothing to release)."""


class MemorySink(Sink):
    """Keeps every event in an in-memory list, in emission order."""

    def __init__(self):
        self.events: List = []

    def handle(self, event) -> None:
        self.events.append(event)

    def events_of_kind(self, kind: str) -> List:
        return [e for e in self.events if e.kind == kind]


class Metric(NamedTuple):
    """One :class:`MetricsSink` counter, folded from one event kind.

    ``fold`` says how an event updates the counter and how two sinks'
    counters combine:

    * ``sum`` adds ``value`` (shards add);
    * ``max`` keeps the largest ``value`` seen (shards take the max);
    * ``sum_by`` adds ``value`` under ``key`` in a dict (shards add per
      key);
    * ``first_by`` keeps the first ``value`` seen per ``key`` (the
      earlier shard wins);
    * ``unique`` appends ``value`` to a list once, in first-seen order.

    ``value`` names an event field, or is the constant ``1`` to count
    events; ``key`` names a field, or a tuple of fields for a tuple key
    (snapshotted as ``"a,b"``, since JSON objects key on strings only);
    ``when`` is a Python condition on the event ``e`` that gates the row.
    """

    name: str
    kind: str
    fold: str
    value: Union[str, int] = 1
    key: Union[str, Tuple[str, ...], None] = None
    when: Optional[str] = None


#: A physical coalesced batch: every coalesce edge but a memo hit,
#: eviction or invalidation.
_BATCH = "e.memo not in ('hit', 'evict', 'invalidate')"

#: Every MetricsSink counter, in snapshot order.
METRICS = (
    # Round numbers restart per engine run: the highest seen, not a sum.
    Metric("engine_rounds", ROUND, "max", "round_no"),
    Metric("vectorized_rounds", ROUND, "sum", when="e.mode == 'vectorized'"),
    # Only non-default communication models are tagged, hence counted.
    Metric("rounds_by_model", ROUND, "sum_by", key="model", when="e.model"),
    Metric("charged_by_model", CHARGE, "sum_by", "rounds", "model", "e.model"),
    Metric("messages", DELIVER, "sum"),
    Metric("bits", DELIVER, "sum", "bits"),
    Metric("edge_bits", DELIVER, "sum_by", "bits", ("src", "dst")),
    Metric("fault_counts", FAULT, "sum_by", key="fault"),
    Metric("query_batches", QUERY_BATCH, "sum"),
    Metric("total_queries", QUERY_BATCH, "sum", "size"),
    Metric("batches_by_label", QUERY_BATCH, "sum_by", key="label"),
    Metric("charge_events", CHARGE, "sum"),
    Metric("charges_by_phase", CHARGE, "sum_by", "rounds", "phase"),
    # The span each phase was first charged under.
    Metric("phase_span", CHARGE, "first_by", "span", "phase"),
    Metric("charged_by_span", CHARGE, "sum_by", "rounds", "span"),
    Metric("span_names", SPAN, "unique", "span", when="e.phase == 'begin'"),
    Metric("coalesced_batches", COALESCE, "sum", when=_BATCH),
    Metric("coalesced_queries", COALESCE, "sum", "size", when=_BATCH),
    Metric("coalesced_submissions", COALESCE, "sum", "submissions",
           when=_BATCH),
    Metric("coalesce_rounds", COALESCE, "sum", "rounds", when=_BATCH),
    Metric("memo_hits", COALESCE, "sum", when="e.memo == 'hit'"),
    Metric("memo_evictions", COALESCE, "sum", when="e.memo == 'evict'"),
    Metric("serve_requests", SERVE_REQUEST, "sum_by", key="status"),
    Metric("serve_queries", SERVE_REQUEST, "sum", "queries",
           when="e.status == 'accepted'"),
    Metric("serve_batches", SERVE_BATCH, "sum"),
    Metric("serve_batch_rounds", SERVE_BATCH, "sum", "rounds"),
    Metric("serve_drains", SERVE_DRAIN, "sum"),
    Metric("scenario_events", SCENARIO, "sum"),
    # Wall-clock microseconds per link model name.
    Metric("wall_clock_by_link", SCENARIO, "sum_by", "wall_clock_us", "link"),
    # Physical sketch operations by op, summing payload widths; a memo
    # edge never touches the sketch state, so it counts in sketch_memo.
    Metric("sketch_ops", SKETCH, "sum_by", "count", "op", "not e.memo"),
    Metric("sketch_memo", SKETCH, "sum_by", key="memo", when="e.memo"),
    # Memo entries dropped by write-path invalidation.
    Metric("memo_invalidations", COALESCE, "sum", "size",
           when="e.memo == 'invalidate'"),
)


def _merge_sum_by(mine: dict, theirs: dict) -> dict:
    for key, value in theirs.items():
        mine[key] = mine.get(key, 0) + value
    return mine


def _merge_first_by(mine: dict, theirs: dict) -> dict:
    for key, value in theirs.items():
        mine.setdefault(key, value)
    return mine


def _merge_unique(mine: list, theirs: list) -> list:
    for value in theirs:
        if value not in mine:
            mine.append(value)
    return mine


class _Fold(NamedTuple):
    """How a fold starts, combines shards, and takes one event."""

    empty: type  # the counter's initial value
    merge: Any  # (mine, theirs) -> combined, may update ``mine`` in place
    update: str  # one event's update, as source over ``self`` and ``e``


_FOLDS = {
    "sum": _Fold(int, operator.add, "self.{name} += {value}"),
    "max": _Fold(int, max, "if {value} > self.{name}: self.{name} = {value}"),
    "sum_by": _Fold(
        dict, _merge_sum_by,
        "d = self.{name}; k = {key}; d[k] = d.get(k, 0) + {value}",
    ),
    "first_by": _Fold(
        dict, _merge_first_by, "self.{name}.setdefault({key}, {value})"
    ),
    "unique": _Fold(
        list, _merge_unique,
        "if {value} not in self.{name}: self.{name}.append({value})",
    ),
}


def _field(spec: Union[str, int, Tuple[str, ...], None]) -> str:
    """Source for a row's value or key, read off the event ``e``."""
    if isinstance(spec, tuple):
        return "(" + ", ".join(f"e.{name}" for name in spec) + ")"
    return f"e.{spec}" if isinstance(spec, str) else repr(spec)


def _compile_handler(kind: str):
    """One straight-line function applying every ``kind`` row to an event.

    Generated source, so handling an event costs one call rather than a
    call per counter.
    """
    body = []
    for m in METRICS:
        if m.kind != kind:
            continue
        update = _FOLDS[m.fold].update.format(
            name=m.name, value=_field(m.value), key=_field(m.key)
        )
        body.append(f"if {m.when}:\n        {update}" if m.when else update)
    namespace: Dict[str, Any] = {}
    exec(
        "def handle(self, e):\n"
        + "".join(f"    {line}\n" for line in body or ["pass"]),
        namespace,
    )
    return namespace["handle"]


_HANDLERS = {kind: _compile_handler(kind) for kind in EVENT_KINDS}


class MetricsSink(Sink):
    """Aggregating counters: the one-pass metrics registry.

    Accumulates everything ``python -m repro trace`` reports — engine
    round/message/bit totals, per-edge bit volume, fault counts by kind,
    query-batch counts, and per-phase round charges (with the span each
    phase was first charged under) — without retaining the events.  Each
    counter is one :data:`METRICS` row and an attribute of the same name.
    """

    def __init__(self):
        for m in METRICS:
            setattr(self, m.name, _FOLDS[m.fold].empty())

    def handle(self, event) -> None:
        _HANDLERS[event.kind](self, event)

    # -- cross-process merge --------------------------------------------

    def merge(self, other: "MetricsSink") -> "MetricsSink":
        """Fold another sink's counters into this one, in place.

        The invariant: merging equals handling.  After ``a.merge(b)``,
        ``a`` holds exactly what it would hold had it handled ``b``'s
        event stream after its own; each row's fold says how (see
        :class:`Metric`).  This is what stitches per-task
        :class:`MetricsSink` shards from parallel sweep workers into
        the single registry a one-process run would have produced.

        Returns ``self`` so merges chain/reduce.
        """
        for m in METRICS:
            merged = _FOLDS[m.fold].merge(
                getattr(self, m.name), getattr(other, m.name)
            )
            setattr(self, m.name, merged)
        return self

    # -- checkpoint serialization ---------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Lossless JSON-safe snapshot of every counter.

        Unlike :meth:`summary` (a human-facing digest), this round-trips
        through :meth:`from_state` exactly; tuple keys are rendered as
        ``"src,dst"`` strings because JSON objects cannot key on tuples.
        """
        state = {}
        for m in METRICS:
            value = getattr(self, m.name)
            if isinstance(m.key, tuple):
                value = {",".join(map(str, k)): v for k, v in value.items()}
            state[m.name] = copy.copy(value)
        return state

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "MetricsSink":
        """Rebuild a sink from a :meth:`to_state` snapshot.

        Counters missing from the snapshot (it predates them) start
        empty; keys no counter claims (retired counters) are ignored.
        """
        sink = cls()
        for m in METRICS:
            if m.name not in state:
                continue
            value = copy.copy(state[m.name])
            if isinstance(m.key, tuple):
                value = {
                    tuple(int(part) for part in k.split(",")): v
                    for k, v in value.items()
                }
            setattr(sink, m.name, value)
        return sink

    # -- derived --------------------------------------------------------

    @property
    def total_charged(self) -> int:
        """Total rounds charged across every ledger phase."""
        return sum(self.charges_by_phase.values())

    @property
    def total_faults(self) -> int:
        return sum(self.fault_counts.values())

    def busiest_edge(self) -> Tuple[Optional[Tuple[int, int]], int]:
        """(directed edge, bits) carrying the most payload bits.

        Ties break deterministically to the lowest ``(src, dst)`` pair;
        returns ``(None, 0)`` when no message was delivered.
        """
        if not self.edge_bits:
            return (None, 0)
        edge = min(self.edge_bits, key=lambda e: (-self.edge_bits[e], e))
        return (edge, self.edge_bits[edge])

    def summary(self) -> Dict[str, Any]:
        """A plain-dict digest (JSON-ready except the edge tuple)."""
        edge, edge_bits = self.busiest_edge()
        return {
            "engine_rounds": self.engine_rounds,
            "vectorized_rounds": self.vectorized_rounds,
            "rounds_by_model": dict(self.rounds_by_model),
            "messages": self.messages,
            "bits": self.bits,
            "busiest_edge": edge,
            "busiest_edge_bits": edge_bits,
            "fault_counts": dict(self.fault_counts),
            "query_batches": self.query_batches,
            "total_queries": self.total_queries,
            "charged_rounds": self.total_charged,
            "charges_by_phase": dict(self.charges_by_phase),
            "charged_by_span": dict(self.charged_by_span),
            "spans": list(self.span_names),
            "coalesced_batches": self.coalesced_batches,
            "coalesced_queries": self.coalesced_queries,
            "memo_hits": self.memo_hits,
            "memo_evictions": self.memo_evictions,
            "serve_requests": dict(self.serve_requests),
            "serve_batches": self.serve_batches,
            "wall_clock_by_link": dict(self.wall_clock_by_link),
            "sketch_ops": dict(self.sketch_ops),
            "sketch_memo": dict(self.sketch_memo),
            "memo_invalidations": self.memo_invalidations,
        }

"""Typed events carried by the observability spine.

Every accounting mechanism in the repository speaks through the twelve
event kinds below (DESIGN.md §"Observability spine"), one small frozen
dataclass each.  The dataclass is the only place a kind's fields are
stated: the recorder's emitters (``Recorder.round``,
``Recorder.serve_request``, ...), the ``repro-trace/1`` record
(:func:`to_json`) and its validator (:func:`repro.obs.jsonl.
validate_jsonl`) are derived from :data:`EVENT_TYPES`.  Adding a kind
means one dataclass here plus its counter rows in
:data:`repro.obs.sinks.METRICS`.

Field conventions, relied on by everything derived from the classes:

* ``span`` comes last: the ``/``-joined path of recorder spans open when
  the event was emitted, stamped by the recorder, so any sink can
  attribute costs to phases without coordinating with the emitters;
* a field named in ``omit_default`` is left out of the JSONL record while
  it holds its default, so streams that never set it stay byte-identical
  to streams written before it existed;
* a field typed ``Any`` is a free-form payload: :func:`to_json` coerces it
  to JSON and the validator leaves it unchecked;
* ``round_no`` is written as ``"round"``.
"""

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Tuple

#: The twelve event kinds, as they appear in JSONL ``type`` fields.
ROUND = "round"
DELIVER = "deliver"
FAULT = "fault"
QUERY_BATCH = "query_batch"
CHARGE = "charge"
SPAN = "span"
COALESCE = "coalesce"
SERVE_REQUEST = "serve.request"
SERVE_BATCH = "serve.batch"
SERVE_DRAIN = "serve.drain"
SCENARIO = "scenario"
SKETCH = "sketch"


class _Event:
    """Class-level declarations shared by every event dataclass."""

    kind: ClassVar[str]
    #: Fields the JSONL record omits while they hold their default.
    omit_default: ClassVar[Tuple[str, ...]] = ()


@dataclass(frozen=True)
class RoundEvent(_Event):
    """One engine communication round: its delivery count and bit volume.

    ``mode`` names the execution path that ran the round: ``""`` for the
    per-node loops (dense/active — indistinguishable by construction) or
    ``"vectorized"`` for the column-major bulk loop.  The mode is
    advisory metadata: schedule-equivalence comparisons exclude it.

    ``model`` names the communication model the round ran under —
    ``""`` for the default CONGEST model, else the model name
    (``"congest-clique"``, ``"local"``).
    """

    kind: ClassVar[str] = ROUND
    omit_default: ClassVar[Tuple[str, ...]] = ("mode", "model")

    round_no: int
    messages: int
    bits: int
    mode: str = ""
    model: str = ""
    span: str = ""


@dataclass(frozen=True)
class DeliverEvent(_Event):
    """One message delivered to a node at the start of a round."""

    kind: ClassVar[str] = DELIVER

    round_no: int
    src: int
    dst: int
    bits: int
    value: Any = None
    span: str = ""


@dataclass(frozen=True)
class FaultEvent(_Event):
    """One injected fault.

    ``fault`` names the fault kind (``drop``, ``corrupt``, ``delay``,
    ``crash``, ``recover``); node-level faults set ``src == dst``.
    """

    kind: ClassVar[str] = FAULT

    fault: str
    round_no: int
    src: int
    dst: int
    bits: int = 0
    value: Any = None
    span: str = ""


@dataclass(frozen=True)
class QueryBatchEvent(_Event):
    """One metered application of the parallel oracle (Definition 1)."""

    kind: ClassVar[str] = QUERY_BATCH

    size: int
    label: str = ""
    span: str = ""


@dataclass(frozen=True)
class ChargeEvent(_Event):
    """One phase charge on a :class:`~repro.core.cost.RoundLedger`.

    ``model`` tags the communication model whose rounds were charged —
    ``""`` for the default CONGEST model.
    """

    kind: ClassVar[str] = CHARGE
    omit_default: ClassVar[Tuple[str, ...]] = ("model",)

    phase: str
    rounds: int
    model: str = ""
    span: str = ""


@dataclass(frozen=True)
class SpanEvent(_Event):
    """Begin or end of a recorder span.

    ``span`` is the full path of the span itself (including ``name``), so
    a stream of span events reconstructs the phase tree on its own.
    """

    kind: ClassVar[str] = SPAN

    name: str
    phase: str  # "begin" | "end"
    span: str = ""


@dataclass(frozen=True)
class CoalesceEvent(_Event):
    """One scheduler action (:mod:`repro.sched`).

    ``memo="miss"`` marks a physical coalesced batch — ``size`` queries
    from ``submissions`` caller submissions across ``callers`` distinct
    callers, executed for ``rounds`` network rounds.  ``memo="hit"``
    marks a submission answered from the content-addressed result memo
    (``rounds == 0``, ``submissions == callers == 1``), ``"evict"`` an
    LRU eviction from that memo, and ``"invalidate"`` the write path
    dropping ``size`` stale memo entries.
    """

    kind: ClassVar[str] = COALESCE

    size: int
    submissions: int
    callers: int
    rounds: int
    memo: str = "miss"  # "hit" | "miss" | "evict" | "invalidate"
    span: str = ""


@dataclass(frozen=True)
class ServeRequestEvent(_Event):
    """One request's life-cycle edge inside the serving daemon.

    ``status`` is one of ``"accepted"`` (admitted to the tenant queue),
    ``"rejected"`` (quota exceeded or queue full — backpressure),
    ``"completed"`` (values delivered; ``wait_ms`` is submit-to-result
    latency) or ``"abandoned"`` (daemon drained before execution).
    """

    kind: ClassVar[str] = SERVE_REQUEST

    tenant: str
    queries: int
    status: str
    wait_ms: float = 0.0
    span: str = ""


@dataclass(frozen=True)
class ServeBatchEvent(_Event):
    """One physical batch stepped to completion by a daemon lane."""

    kind: ClassVar[str] = SERVE_BATCH

    lane: str
    size: int
    tenants: int
    rounds: int
    span: str = ""


@dataclass(frozen=True)
class ServeDrainEvent(_Event):
    """The daemon's shutdown handshake.

    ``reason`` names the trigger (``"signal"``, ``"close"``); ``flushed``
    counts requests completed during the drain window and ``abandoned``
    those cancelled because their tenant queue never emptied.
    """

    kind: ClassVar[str] = SERVE_DRAIN

    reason: str
    flushed: int
    abandoned: int
    span: str = ""


@dataclass(frozen=True)
class ScenarioEvent(_Event):
    """One wall-clock pricing of a run under a scenario's link model.

    ``scenario`` names the declared :class:`~repro.scenarios.Scenario`,
    ``link`` the :class:`~repro.core.cost.LinkCostModel` the rounds were
    priced on, ``rounds`` the round count being re-denominated, and
    ``wall_clock_us`` the resulting microseconds.  The event is emitted
    *in addition to* the underlying round/charge stream — pricing is an
    annotation, never a replacement.
    """

    kind: ClassVar[str] = SCENARIO

    scenario: str
    link: str
    rounds: int
    wall_clock_us: float
    span: str = ""


@dataclass(frozen=True)
class SketchEvent(_Event):
    """One amplitude-sketch operation or sketch-lane memo edge.

    ``sketch`` names the sketch (lane), ``op`` the operation kind
    (``insert`` / ``query`` / ``compose``), ``count`` the payload width
    (items inserted or queried; for ``compose``, the absorbed sketch's
    insert count; for ``memo="invalidate"``, the memo entries dropped).
    ``memo`` is ``""`` for a physical state operation, ``"hit"`` for a
    query served from the lane memo without touching the state, or
    ``"invalidate"`` for the write-path protocol dropping stale entries.
    """

    kind: ClassVar[str] = SKETCH
    omit_default: ClassVar[Tuple[str, ...]] = ("memo",)

    sketch: str
    op: str
    count: int
    memo: str = ""  # "" | "hit" | "invalidate"
    span: str = ""


#: Every event class; :data:`EVENT_KINDS` lists their kinds in this order.
EVENT_TYPES = (
    RoundEvent, DeliverEvent, FaultEvent, QueryBatchEvent, ChargeEvent,
    SpanEvent, CoalesceEvent, ServeRequestEvent, ServeBatchEvent,
    ServeDrainEvent, ScenarioEvent, SketchEvent,
)
EVENT_KINDS = tuple(cls.kind for cls in EVENT_TYPES)


def json_key(field: str) -> str:
    """The JSONL key a field is written under."""
    return "round" if field == "round_no" else field


def _jsonable(value: Any) -> Any:
    """Coerce an arbitrary payload into a JSON-serializable shape."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _layout(cls) -> Tuple[tuple, tuple]:
    """(always-written, omittable) field specs of one event class."""
    always = tuple(
        (f.name, json_key(f.name), f.type is Any)
        for f in fields(cls) if f.name not in cls.omit_default
    )
    omittable = tuple(
        (f.name, json_key(f.name), f.default)
        for f in fields(cls) if f.name in cls.omit_default
    )
    return always, omittable


_LAYOUT: Dict[type, Tuple[tuple, tuple]] = {
    cls: _layout(cls) for cls in EVENT_TYPES
}


def to_json(event: Any) -> Dict[str, Any]:
    """The stable ``repro-trace/1`` JSONL record for one event.

    The always-present fields come first, in declaration order, then any
    omittable field that differs from its default.
    """
    layout = _LAYOUT.get(type(event))
    if layout is None:
        raise ValueError(f"unknown event type {type(event).__name__!r}")
    always, omittable = layout
    record = {"type": event.kind}
    for name, key, payload in always:
        value = getattr(event, name)
        record[key] = _jsonable(value) if payload else value
    for name, key, default in omittable:
        value = getattr(event, name)
        if value != default:
            record[key] = value
    return record

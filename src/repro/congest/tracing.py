"""Execution tracing for the CONGEST engine.

Production distributed systems ship with observability; this module adds
it to the simulator.  A :class:`Trace` holds every message of a run as a
:class:`TraceEvent` and can render a per-edge timeline — which is also the
clearest way to *see* the paper's pipelining arguments (Lemma 7, Theorem 8):
chunks marching down a path one round apart instead of in D-round waves.

Events carry a ``kind`` so that fault injection (:mod:`repro.faults`) can
record drops, corruptions, delays, crashes, and recoveries as first-class
trace events next to ordinary deliveries; timelines mark them with
distinct symbols so a lossy run's retransmissions are visible at a glance.

Tracing is a *sink* on the observability spine (:mod:`repro.obs`): the
engine emits ``deliver``/``fault`` events on its recorder and
:class:`TraceSink` rebuilds the :class:`Trace` from them.
:func:`traced_recorder` attaches one to a fork of a recorder, which is how
:func:`run_traced` and :class:`repro.faults.FaultyEngine` trace a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.events import DELIVER as OBS_DELIVER
from ..obs.events import FAULT as OBS_FAULT
from ..obs.recorder import Recorder, current_recorder
from ..obs.sinks import Sink
from .engine import Engine, RunResult
from .network import Network
from .program import NodeProgram

#: Event kinds recorded in traces.  ``DELIVER`` is an ordinary delivery;
#: the rest are fault events emitted by :class:`repro.faults.FaultyEngine`.
DELIVER = "deliver"
DROP = "drop"
CORRUPT = "corrupt"
DELAY = "delay"
CRASH = "crash"
RECOVER = "recover"

#: Timeline symbol per event kind, in decreasing display priority.
_TIMELINE_SYMBOLS = ((DROP, "x"), (CORRUPT, "!"), (DELAY, "~"), (DELIVER, "#"))


@dataclass(frozen=True)
class TraceEvent:
    """One traced event: a delivered message or an injected fault.

    ``kind`` is :data:`DELIVER` for ordinary deliveries.  Fault kinds use
    the same (round, src, dst) coordinates; node-level events (``crash``,
    ``recover``) set ``src == dst`` to the affected node.
    """

    round_no: int
    src: int
    dst: int
    bits: int
    value: Any
    kind: str = DELIVER


@dataclass
class Trace:
    """All events of one run, with query helpers.

    The aggregate helpers (:meth:`busiest_round`, :meth:`total_bits`,
    :meth:`edge_utilization`, …) count *deliveries* only; fault events are
    reachable through :meth:`faults` and :meth:`events_of_kind`.
    """

    events: List[TraceEvent] = field(default_factory=list)

    def deliveries(self) -> List[TraceEvent]:
        """The ordinary message-delivery events."""
        return [e for e in self.events if e.kind == DELIVER]

    def faults(self) -> List[TraceEvent]:
        """Every non-delivery (fault) event."""
        return [e for e in self.events if e.kind != DELIVER]

    def events_of_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one ``kind`` (e.g. ``"drop"``)."""
        return [e for e in self.events if e.kind == kind]

    def rounds_used(self) -> int:
        """Largest round number appearing in any event."""
        return max((e.round_no for e in self.events), default=0)

    def events_on_edge(self, src: int, dst: int) -> List[TraceEvent]:
        """Delivery events on one directed edge."""
        return [
            e for e in self.events
            if e.src == src and e.dst == dst and e.kind == DELIVER
        ]

    def busiest_round(self) -> Tuple[int, int]:
        """(round, message count) of the most congested round.

        Ties break deterministically: among rounds with the maximal
        delivery count, the *lowest* round number wins, regardless of
        the order events were recorded in.
        """
        counts: Dict[int, int] = {}
        for e in self.deliveries():
            counts[e.round_no] = counts.get(e.round_no, 0) + 1
        if not counts:
            return (0, 0)
        round_no = min(counts, key=lambda r: (-counts[r], r))
        return (round_no, counts[round_no])

    def edge_utilization(self, src: int, dst: int) -> float:
        """Fraction of rounds the directed edge carried a message."""
        total = self.rounds_used()
        if total == 0:
            return 0.0
        return len(self.events_on_edge(src, dst)) / total

    def total_bits(self) -> int:
        """Total delivered payload bits."""
        return sum(e.bits for e in self.deliveries())

    def render_timeline(
        self, edges: List[Tuple[int, int]], max_rounds: Optional[int] = None
    ) -> str:
        """ASCII timeline: one row per directed edge.

        ``#`` = delivered, ``x`` = dropped, ``!`` = corrupted,
        ``~`` = delayed (held by the channel that round).
        """
        horizon = min(self.rounds_used(), max_rounds or self.rounds_used())
        lines = []
        header = "edge      " + "".join(
            str(r % 10) for r in range(1, horizon + 1)
        )
        lines.append(header)
        for src, dst in edges:
            by_round: Dict[int, str] = {}
            for kind, symbol in reversed(_TIMELINE_SYMBOLS):
                for e in self.events:
                    if e.src == src and e.dst == dst and e.kind == kind:
                        by_round[e.round_no] = symbol
            row = "".join(
                by_round.get(r, ".") for r in range(1, horizon + 1)
            )
            lines.append(f"{src:>3}->{dst:<3}  {row}")
        return "\n".join(lines)


class TraceSink(Sink):
    """Rebuilds a :class:`Trace` from spine ``deliver``/``fault`` events.

    The in-memory Trace-compatible sink: attach it to any recorder and
    every engine delivery and injected fault lands in ``self.trace``, in
    emission order.  Other event kinds (rounds, query batches, charges,
    spans) are ignored.
    """

    def __init__(self, trace: Optional[Trace] = None):
        self.trace = trace if trace is not None else Trace()

    def handle(self, event) -> None:
        kind = event.kind
        if kind == OBS_DELIVER:
            self.trace.events.append(
                TraceEvent(
                    round_no=event.round_no,
                    src=event.src,
                    dst=event.dst,
                    bits=event.bits,
                    value=event.value,
                )
            )
        elif kind == OBS_FAULT:
            self.trace.events.append(
                TraceEvent(
                    round_no=event.round_no,
                    src=event.src,
                    dst=event.dst,
                    bits=event.bits,
                    value=event.value,
                    kind=event.fault,
                )
            )


def traced_recorder(
    recorder: Optional[Recorder] = None,
) -> Tuple[Recorder, Trace]:
    """Fork ``recorder`` (default: the ambient one) with a :class:`TraceSink`.

    The fork feeds every sink of the given recorder as well, so installed
    sinks keep receiving events; the returned :class:`Trace` fills as an
    engine built on the fork runs.
    """
    base = recorder if recorder is not None else current_recorder()
    sink = TraceSink()
    return base.fork(sink), sink.trace


def run_traced(
    network: Network,
    programs: Dict[int, NodeProgram],
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
    stop_on_quiescence: bool = False,
    recorder: Optional[Recorder] = None,
) -> Tuple[RunResult, Trace]:
    """Run programs under tracing; return (result, trace)."""
    traced, trace = traced_recorder(recorder)
    engine = Engine(
        network,
        programs,
        seed=seed,
        max_rounds=max_rounds,
        stop_on_quiescence=stop_on_quiescence,
        recorder=traced,
    )
    return engine.run(), trace

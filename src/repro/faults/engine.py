"""The fault-injecting CONGEST engine.

:class:`FaultyEngine` is an :class:`~repro.congest.engine.Engine` with a
fault channel attached: every round, the engine's per-node loop hands
the in-flight messages to the channel, which applies channel faults
(drop / burst / corruption / delay) and node faults (crash-stop /
crash-recovery), so every existing
:class:`~repro.congest.program.NodeProgram` runs unmodified under them.
Fault events are emitted on the engine's recorder (:mod:`repro.obs`) —
the same bus deliveries ride — when it records: they land in any sink
it carries (JSONL, metrics) and, under :func:`run_with_faults`, in the
run's :class:`~repro.congest.tracing.Trace` as first-class events
(timelines show drops and retries next to ordinary deliveries).  Under
the null recorder a faulty run records nothing.

With the default :class:`~repro.faults.models.NoFaults` channel and no
crash schedule, a run is byte-for-byte identical (rounds, outputs,
traffic stats) to the plain engine — the zero-fault identity the tests
pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..congest.engine import Engine, RunResult
from ..congest.messages import Message
from ..congest.network import Network
from ..congest.program import NodeProgram
from ..congest.tracing import (
    CORRUPT,
    CRASH,
    DELAY,
    DELIVER,
    DROP,
    RECOVER,
    Trace,
    traced_recorder,
)
from ..obs.recorder import Recorder
from .crash import CrashSchedule
from .models import ChannelFaultModel, NoFaults

__all__ = ["FaultStats", "FaultyEngine", "run_with_faults"]


@dataclass
class FaultStats:
    """Aggregate fault counters for one run.

    Every message handed to the channel is counted once in ``attempted``
    and, once a run has finished, once in exactly one of ``delivered``
    (corrupted ones included), ``dropped`` or ``lost_to_down_nodes``;
    ``delayed`` counts the hold-ups on the way.
    """

    attempted: int = 0
    delivered: int = 0
    dropped: int = 0
    corrupted: int = 0
    delayed: int = 0
    crashes: int = 0
    recoveries: int = 0
    lost_to_down_nodes: int = 0
    per_round_drops: List[int] = field(default_factory=list)

    def loss_rate(self) -> float:
        """Observed fraction of attempted messages that were dropped."""
        if self.attempted == 0:
            return 0.0
        return self.dropped / self.attempted


class FaultChannel:
    """The faulty network between two rounds of the engine's per-node loop.

    Holds the channel fault model, the crash schedule and the run's
    :class:`FaultStats`, and emits each fault on the recorder while it
    is active.  The engine calls it at fixed points of every round:
    :meth:`begin_round` and :meth:`transmit` before deliveries,
    :meth:`is_down` for each node it would execute, and :meth:`pending`
    and :meth:`crash_stopped` in its termination test.
    """

    def __init__(
        self,
        fault_model: ChannelFaultModel,
        crash_schedule: Optional[CrashSchedule],
        recorder: Recorder,
    ):
        self.fault_model = fault_model
        self.crash_schedule = crash_schedule
        self.recorder = recorder
        self.stats = FaultStats()
        self._round = 0

    def begin_round(self, round_no: int) -> None:
        """Advance the model's clock and apply this round's crashes/recoveries."""
        self._round = round_no
        self.fault_model.on_round(round_no)
        if self.crash_schedule is None:
            return
        for node, kind in self.crash_schedule.transitions(round_no):
            if kind == "crash":
                self.stats.crashes += 1
                event_kind = CRASH
            else:
                self.stats.recoveries += 1
                event_kind = RECOVER
            if self.recorder.active:
                self.recorder.fault(event_kind, round_no, node, node)

    def transmit(
        self, messages: List[Message], round_no: int
    ) -> List[Message]:
        """The messages that arrive this round out of ``messages`` sent last round.

        May drop, corrupt or hold back each message; held messages stay
        reported by :meth:`pending` until released into a later round.
        """
        stats = self.stats
        stats.attempted += len(messages)
        delivered: List[Message] = list(self.fault_model.release(round_no))
        drops_this_round = 0
        for msg in messages:
            verdict, replacement = self.fault_model.apply(msg, round_no)
            if verdict == DELIVER:
                delivered.append(msg)
            elif verdict == CORRUPT:
                stats.corrupted += 1
                self._record_fault(CORRUPT, msg, round_no)
                delivered.append(replacement)
            elif verdict == DROP:
                stats.dropped += 1
                drops_this_round += 1
                self._record_fault(DROP, msg, round_no)
            elif verdict == DELAY:
                stats.delayed += 1
                self._record_fault(DELAY, msg, round_no)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown fault verdict {verdict!r}")
        stats.per_round_drops.append(drops_this_round)
        # Messages addressed to a currently-down node are lost in transit.
        if self.crash_schedule is not None:
            kept: List[Message] = []
            for msg in delivered:
                if self.crash_schedule.is_down(msg.dst, round_no):
                    stats.lost_to_down_nodes += 1
                    self._record_fault(DROP, msg, round_no)
                else:
                    kept.append(msg)
            delivered = kept
        stats.delivered += len(delivered)
        return delivered

    def pending(self) -> bool:
        """Whether the channel still holds undelivered (delayed) messages."""
        return self.fault_model.pending()

    def is_down(self, v: int, round_no: int) -> bool:
        """Whether node ``v`` is crashed (neither executes nor receives)."""
        return self.crash_schedule is not None and self.crash_schedule.is_down(
            v, round_no
        )

    def crash_stopped(self, contexts) -> bool:
        """Whether every node has halted or crash-stopped by now.

        Crash-stopped nodes never halt on their own; without this a
        single crash-stop fault would hang every run at the round limit.
        """
        if self.crash_schedule is None:
            return False
        return all(
            ctx.halted or self.crash_schedule.is_forever_down(v, self._round)
            for v, ctx in contexts.items()
        )

    def _record_fault(self, kind: str, msg: Message, round_no: int) -> None:
        """Emit one channel-fault event on the spine, if it records."""
        if self.recorder.active:
            self.recorder.fault(
                kind, round_no, msg.src, msg.dst, msg.bits, msg.value
            )


class FaultyEngine(Engine):
    """An engine whose messages and nodes pass through a fault channel.

    It records on the passed or ambient recorder, as the plain engine
    does (:func:`run_with_faults` attaches a :class:`~repro.congest.
    tracing.TraceSink`), and ``self.fault_stats`` counts the injected
    faults.  It always runs the per-node loop: the engine sees the fault
    channel and falls back with reason ``"fault-channel"``.

    Args:
        network: the communication graph.
        programs: one program per node, exactly as for the plain engine.
        fault_model: channel fault model; defaults to
            :class:`~repro.faults.models.NoFaults`.
        crash_schedule: node outages; ``None`` means no node faults.
        fault_seed: seed for the fault RNG stream, kept separate from the
            engine's per-node program RNGs so turning faults on never
            perturbs the algorithms' own coin flips.  Defaults to
            ``seed``.
        **kwargs: forwarded to :class:`~repro.congest.engine.Engine`.
    """

    def __init__(
        self,
        network: Network,
        programs: Dict[int, NodeProgram],
        fault_model: Optional[ChannelFaultModel] = None,
        crash_schedule: Optional[CrashSchedule] = None,
        fault_seed: Optional[int] = None,
        **kwargs,
    ):
        super().__init__(network, programs, **kwargs)
        fault_model = fault_model or NoFaults()
        if fault_seed is None:
            fault_seed = kwargs.get("seed")
        fault_model.bind(np.random.SeedSequence(fault_seed))
        self._channel = FaultChannel(fault_model, crash_schedule, self.recorder)
        self.fault_stats = self._channel.stats


def run_with_faults(
    network: Network,
    programs: Dict[int, NodeProgram],
    fault_model: Optional[ChannelFaultModel] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    seed: Optional[int] = None,
    fault_seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
    stop_on_quiescence: bool = False,
    recorder=None,
) -> Tuple[RunResult, Trace, FaultStats]:
    """Run programs under faults; return (result, trace, fault stats).

    The trace fills from a :class:`~repro.congest.tracing.TraceSink` on a
    fork of ``recorder`` (default: the ambient one), as for
    :func:`~repro.congest.tracing.run_traced`.
    """
    traced, trace = traced_recorder(recorder)
    engine = FaultyEngine(
        network,
        programs,
        fault_model=fault_model,
        crash_schedule=crash_schedule,
        fault_seed=fault_seed,
        seed=seed,
        max_rounds=max_rounds,
        stop_on_quiescence=stop_on_quiescence,
        recorder=traced,
    )
    result = engine.run()
    return result, trace, engine.fault_stats

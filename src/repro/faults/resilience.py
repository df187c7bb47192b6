"""Resilience toolkit: reliable links + a round synchronizer for faults.

:class:`ResilientProgram` wraps any :class:`~repro.congest.program.
NodeProgram` and makes it run correctly on a lossy, corrupting,
reordering channel.  It combines three classical mechanisms:

* **ack / retransmission** — every data frame is retransmitted on a
  timeout with exponential backoff until the neighbor acknowledges it
  (acks piggyback on whatever the node sends next);
* **sequence numbers + checksum** — frames carry a small modular
  sequence number (so delayed / reordered duplicates are recognized) and
  an 8-bit checksum (so in-domain bit corruption is detected and the
  frame discarded, to be recovered by retransmission);
* **an α-synchronizer** — each wrapped node runs its inner program in
  *virtual rounds*: it advances to virtual round ``r+1`` only once every
  neighbor has acknowledged its round-``r`` frame and it has received
  every neighbor's round-``r`` frame (an explicit empty frame when the
  inner program had nothing to say).  The inner program therefore sees
  exactly the synchronous CONGEST semantics it was written for.

The price is the round overhead the paper's lossless model hides: one
virtual round costs ≥ 2 physical rounds (frame + ack) plus retransmission
stalls, and the frame header costs :data:`HEADER_BITS` of each message's
bandwidth.  Experiment E19 measures exactly this overhead as a function
of the loss rate.

Termination uses a ``halted`` flag in every frame plus a linger phase:
a node whose inner program halted keeps acknowledging retransmissions
until its links are drained and the network has been silent towards it
for ``linger`` rounds, then leaves the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..congest.algorithms.aggregate import build_upcast_programs
from ..congest.algorithms.bfs import (
    BFSEchoProgram,
    BFSResult,
    bfs_result_from_run,
)
from ..congest.algorithms.leader import BoundedMaxIdFloodProgram
from ..congest.encoding import Field
from ..congest.engine import RunResult
from ..congest.errors import CongestError
from ..congest.messages import Inbox, Message
from ..congest.network import Network
from ..congest.program import Context, NodeProgram
from .crash import CrashSchedule
from .engine import FaultStats, FaultyEngine
from .models import ChannelFaultModel

__all__ = [
    "HEADER_BITS",
    "ResilientProgram",
    "ResilientRunResult",
    "run_resilient",
    "resilient_bfs",
    "resilient_convergecast",
    "resilient_leader",
]

#: Sequence numbers are taken modulo this; disambiguates the current and
#: next virtual round (and recognizes bounded-delay stragglers).
SEQ_MOD = 16
#: Checksum domain; an in-domain corruption slips through with
#: probability 1/256 per corrupted frame.
CHECKSUM_MOD = 256
#: Worst-case frame header budget in bits (sequence number, data flag,
#: halted flag, ack, checksum, empty-slot markers).  The inner program
#: sees the link bandwidth reduced by this much.
HEADER_BITS = 20


def _flatten(value: Any, acc: List[int]) -> None:
    """Serialize a payload into integers for checksumming."""
    if value is None:
        acc.append(0)
    elif isinstance(value, bool):
        acc.append(1 if value else 2)
    elif isinstance(value, Field):
        acc.extend((3, value.value % 100003, value.domain % 100003))
    elif isinstance(value, int):
        acc.extend((4, value % 100003))
    elif isinstance(value, float):
        acc.extend((5, int(value * 4096) % 100003))
    elif isinstance(value, str):
        acc.append(6)
        acc.extend(ord(c) for c in value)
    elif isinstance(value, (tuple, list)):
        acc.append(7 + len(value))
        for item in value:
            _flatten(item, acc)
    else:  # pragma: no cover - payload types are closed by encoding.py
        acc.append(9)


def frame_checksum(parts: Tuple[Any, ...]) -> int:
    """8-bit polynomial checksum over a frame's header and payload."""
    acc: List[int] = []
    _flatten(parts, acc)
    h = 0
    for token in acc:
        h = (h * 131 + token + 7) % CHECKSUM_MOD
    return h


@dataclass
class _LinkState:
    """Per-neighbor reliable-link bookkeeping."""

    out_payload: Any = None        # inner payload queued for current vr
    out_has_data: bool = False
    acked: bool = False            # neighbor acked our current-vr frame
    gave_up: bool = False          # retransmission budget exhausted
    got: bool = False              # we hold neighbor's current-vr frame
    in_has_data: bool = False
    in_payload: Any = None
    buffer: Optional[Tuple[bool, Any]] = None  # early frame for vr + 1
    last_rcvd_seq: Optional[int] = None
    owe_ack: bool = False          # a standalone ack is due
    peer_halted: bool = False
    resend_at: int = 0             # physical round of next transmission
    backoff: int = 0
    retries: int = 0


class ResilientProgram(NodeProgram):
    """Reliable-link + synchronizer wrapper around an inner node program.

    The inner program runs unmodified; it sees a
    :class:`~repro.congest.program.Context` whose ``round`` is the
    *virtual* round number and whose bandwidth is reduced by
    :data:`HEADER_BITS`.

    Args:
        inner: the node program to protect.
        timeout: physical rounds to wait for an ack before the first
            retransmission.
        max_backoff: retransmission interval cap (the timeout doubles
            after every retransmission up to this).
        max_retries: transmissions per frame before giving up on a link
            (a safety valve so one dead link cannot stall forever).
        linger: silent physical rounds a halted node waits, still
            acknowledging retransmissions, before leaving the simulation.
    """

    # Retransmission timeouts and the linger countdown advance on *silent*
    # physical rounds, so the wrapper must execute every round: active-set
    # scheduling would otherwise never fire a timeout on a lossy link.
    always_active = True

    def __init__(
        self,
        inner: NodeProgram,
        timeout: int = 2,
        max_backoff: int = 8,
        max_retries: int = 25,
        linger: Optional[int] = None,
    ):
        if timeout < 1:
            raise ValueError(f"timeout must be >= 1, got {timeout}")
        if max_backoff < timeout:
            raise ValueError("max_backoff must be >= timeout")
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.inner = inner
        self.timeout = timeout
        self.max_backoff = max_backoff
        self.max_retries = max_retries
        self.linger = linger if linger is not None else max_backoff + 2
        self.vr = 0
        self.links: Dict[int, _LinkState] = {}
        self.inner_halted = False
        self.linger_left = self.linger
        self.discarded_frames = 0
        self.giveups = 0
        self._ictx: Optional[Context] = None

    # -- inner-program plumbing ----------------------------------------

    def _inner_context(self, ctx: Context) -> Context:
        if self._ictx is None:
            inner_bandwidth = ctx.bandwidth - HEADER_BITS
            if inner_bandwidth < 1:
                raise CongestError(
                    f"bandwidth {ctx.bandwidth} too small for the "
                    f"{HEADER_BITS}-bit resilience header"
                )
            self._ictx = Context(
                node=ctx.node,
                neighbors=ctx.neighbors,
                n=ctx.n,
                bandwidth=inner_bandwidth,
                rng=ctx.rng,
            )
        return self._ictx

    def _load_outbox(self, ictx: Context) -> None:
        """Move the inner program's sends into the per-link out slots."""
        outbox = {m.dst: m.payload for m in ictx._drain_outbox(self.vr)}
        for u, st in self.links.items():
            st.out_has_data = u in outbox
            st.out_payload = outbox.get(u)
            st.acked = st.peer_halted  # nothing to deliver to a halted peer
            st.gave_up = False
            st.retries = 0
            st.backoff = self.timeout
            st.resend_at = 0  # transmit at the next opportunity

    def _advance(self, ctx: Context) -> None:
        """Enter the next virtual round: deliver, run inner, reset links."""
        self.vr += 1
        ictx = self._inner_context(ctx)
        inbox_msgs = [
            Message.make(u, ctx.node, st.in_payload, self.vr - 1)
            for u, st in self.links.items()
            if st.got and st.in_has_data
        ]
        ictx.round = self.vr
        self.inner.on_round(ictx, Inbox(inbox_msgs))
        self._load_outbox(ictx)
        for st in self.links.values():
            if st.buffer is not None:
                st.in_has_data, st.in_payload = st.buffer
                st.buffer = None
                st.got = True
                st.last_rcvd_seq = self.vr % SEQ_MOD
                st.owe_ack = True
            else:
                st.got = st.peer_halted
                st.in_has_data = False
                st.in_payload = None
        if ictx.halted:
            self.inner_halted = True
            self.linger_left = self.linger

    # -- frame handling -------------------------------------------------

    def _parse_frame(self, msg: Message) -> Optional[Tuple]:
        """Validate structure + checksum; return header fields or None."""
        payload = msg.payload
        if not isinstance(payload, tuple) or len(payload) != 6:
            return None
        seq_f, has_data, inner_payload, halted, ack_f, check_f = payload
        if not isinstance(check_f, Field):
            return None
        if frame_checksum(
            (seq_f, has_data, inner_payload, halted, ack_f)
        ) != check_f.value:
            return None
        seq = seq_f.value if isinstance(seq_f, Field) else None
        ack = ack_f.value if isinstance(ack_f, Field) else None
        return seq, bool(has_data), inner_payload, bool(halted), ack

    def _receive(self, msg: Message) -> Tuple[bool, bool]:
        """Process one incoming frame.

        Returns ``(valid, needs_us)``: whether the frame passed
        validation, and whether it carried a sequence number (i.e. the
        sender still requires an acknowledgment from us, so a halted
        node must not leave the simulation yet).
        """
        parsed = self._parse_frame(msg)
        if parsed is None:
            self.discarded_frames += 1
            return False, False
        seq, has_data, inner_payload, halted, ack = parsed
        st = self.links[msg.src]
        if halted:
            st.peer_halted = True
        if ack is not None and ack == self.vr % SEQ_MOD:
            st.acked = True
        if seq is not None:
            if seq == self.vr % SEQ_MOD:
                if not st.got:
                    st.got = True
                    st.in_has_data = has_data
                    st.in_payload = inner_payload
                st.last_rcvd_seq = seq
                st.owe_ack = True
            elif seq == (self.vr + 1) % SEQ_MOD:
                # The neighbor is one virtual round ahead; hold its frame
                # but do not ack it yet (acking early would let the
                # neighbor run two rounds ahead, breaking the mod-SEQ
                # disambiguation).
                st.buffer = (has_data, inner_payload)
            else:
                # Stale duplicate (our earlier ack was lost): re-ack it
                # so the neighbor can stop retransmitting.
                st.last_rcvd_seq = seq
                st.owe_ack = True
        return True, seq is not None

    def _drained(self) -> bool:
        """True when no outbound frame is still awaiting an ack."""
        return all(
            st.acked or st.gave_up or st.peer_halted
            for st in self.links.values()
        )

    def _send_frames(self, ctx: Context) -> None:
        """Transmit due data frames and owed acks, one message per link."""
        # Advertise the halt only once every outstanding frame is drained:
        # a premature halted flag would let neighbors advance past the
        # virtual round whose (lost, soon retransmitted) frame carries our
        # final data, and the stale retransmission would be acked without
        # ever being delivered.
        advertise_halted = self.inner_halted and self._drained()
        for u, st in self.links.items():
            send_data = (
                not st.acked
                and not st.gave_up
                and not st.peer_halted
                and ctx.round >= st.resend_at
            )
            # A drained halted node goes otherwise silent, so it must
            # actively announce the halt to peers that do not know yet —
            # they may still be behind and about to open a new virtual
            # round toward us after we are gone.
            announce = advertise_halted and not st.peer_halted
            if not send_data and not st.owe_ack and not announce:
                continue
            if send_data:
                st.retries += 1
                if st.retries > self.max_retries:
                    st.gave_up = True
                    self.giveups += 1
                    if not st.owe_ack:
                        continue
                    send_data = False
                else:
                    st.resend_at = ctx.round + st.backoff
                    st.backoff = min(st.backoff * 2, self.max_backoff)
            seq_f = Field(self.vr % SEQ_MOD, SEQ_MOD) if send_data else None
            has_data = st.out_has_data if send_data else False
            inner_payload = st.out_payload if has_data else None
            ack_f = (
                Field(st.last_rcvd_seq, SEQ_MOD)
                if st.last_rcvd_seq is not None
                else None
            )
            parts = (seq_f, has_data, inner_payload, advertise_halted, ack_f)
            frame = parts + (Field(frame_checksum(parts), CHECKSUM_MOD),)
            ctx.send(u, frame)
            st.owe_ack = False

    # -- engine hooks ---------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        """Run the inner program's initialization and open the links."""
        self.links = {u: _LinkState() for u in ctx.neighbors}
        ictx = self._inner_context(ctx)
        self.inner.on_start(ictx)
        self._load_outbox(ictx)
        if ictx.halted:
            self.inner_halted = True
        if not self.links:
            ctx.halt(output=ictx.output)
            return
        self._send_frames(ctx)

    def on_round(self, ctx: Context, inbox: Inbox) -> None:
        """One physical round: receive, maybe advance, transmit, linger."""
        any_needs_us = False
        for msg in inbox:
            _, needs_us = self._receive(msg)
            any_needs_us |= needs_us

        if not self.inner_halted and all(
            (st.got or st.peer_halted or st.gave_up)
            and (st.acked or st.gave_up or st.peer_halted)
            for st in self.links.values()
        ):
            self._advance(ctx)

        self._send_frames(ctx)

        if self.inner_halted and self._drained():
            if any_needs_us:
                self.linger_left = self.linger
            else:
                self.linger_left -= 1
            if self.linger_left <= 0:
                ctx.halt(output=self._ictx.output)


@dataclass
class ResilientRunResult:
    """Outcome of a fault-injected run of wrapped programs."""

    result: RunResult
    fault_stats: FaultStats
    virtual_rounds: int
    giveups: int
    discarded_frames: int

    @property
    def rounds(self) -> int:
        """Physical communication rounds charged by the engine."""
        return self.result.rounds

    def overhead_vs(self, baseline_rounds: int) -> float:
        """Physical-round multiplier relative to a faultless baseline."""
        if baseline_rounds <= 0:
            return float("inf") if self.result.rounds else 1.0
        return self.result.rounds / baseline_rounds


def run_resilient(
    network: Network,
    programs: Dict[int, NodeProgram],
    fault_model: Optional[ChannelFaultModel] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    seed: Optional[int] = None,
    fault_seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
    timeout: int = 2,
    max_backoff: int = 8,
    max_retries: int = 25,
    linger: Optional[int] = None,
) -> ResilientRunResult:
    """Wrap every program in :class:`ResilientProgram` and run under faults."""
    wrapped = {
        v: ResilientProgram(
            programs[v],
            timeout=timeout,
            max_backoff=max_backoff,
            max_retries=max_retries,
            linger=linger,
        )
        for v in network.nodes()
    }
    engine = FaultyEngine(
        network,
        wrapped,
        fault_model=fault_model,
        crash_schedule=crash_schedule,
        fault_seed=fault_seed,
        seed=seed,
        max_rounds=max_rounds,
    )
    result = engine.run()
    return ResilientRunResult(
        result=result,
        fault_stats=engine.fault_stats,
        virtual_rounds=max(w.vr for w in wrapped.values()),
        giveups=sum(w.giveups for w in wrapped.values()),
        discarded_frames=sum(w.discarded_frames for w in wrapped.values()),
    )


def resilient_bfs(
    network: Network,
    root: int,
    fault_model: Optional[ChannelFaultModel] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    seed: Optional[int] = None,
    fault_seed: Optional[int] = None,
    **resilience_kwargs,
) -> Tuple[BFSResult, ResilientRunResult]:
    """BFS-with-echo from ``root`` under faults, via reliable links.

    Returns the usual :class:`~repro.congest.algorithms.bfs.BFSResult`
    (with *physical* rounds charged) plus the resilient-run diagnostics.
    """
    programs = {v: BFSEchoProgram(v, root) for v in network.nodes()}
    run = run_resilient(
        network,
        programs,
        fault_model=fault_model,
        crash_schedule=crash_schedule,
        seed=seed,
        fault_seed=fault_seed,
        **resilience_kwargs,
    )
    return bfs_result_from_run(root, run.result), run


def resilient_convergecast(
    network: Network,
    tree: BFSResult,
    values: Dict[int, int],
    combine: Callable[[int, int], int],
    domain: int,
    fault_model: Optional[ChannelFaultModel] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    seed: Optional[int] = None,
    fault_seed: Optional[int] = None,
    **resilience_kwargs,
) -> Tuple[int, ResilientRunResult]:
    """Convergecast one bounded value per node to the root, under faults."""
    vectors: Dict[int, Sequence[int]] = {
        v: [values[v]] for v in network.nodes()
    }
    programs = build_upcast_programs(network, tree, vectors, combine, domain)
    run = run_resilient(
        network,
        programs,
        fault_model=fault_model,
        crash_schedule=crash_schedule,
        seed=seed,
        fault_seed=fault_seed,
        **resilience_kwargs,
    )
    combined = run.result.outputs[tree.root]
    return combined[0], run


def resilient_leader(
    network: Network,
    fault_model: Optional[ChannelFaultModel] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    seed: Optional[int] = None,
    fault_seed: Optional[int] = None,
    horizon: Optional[int] = None,
    **resilience_kwargs,
) -> Tuple[int, ResilientRunResult]:
    """Max-id leader election under faults (self-terminating variant).

    Uses :class:`~repro.congest.algorithms.leader.
    BoundedMaxIdFloodProgram` with a round horizon (default ``n - 1``,
    an upper bound on any eccentricity) because quiescence detection is
    unsound on a lossy network.
    """
    if horizon is None:
        horizon = max(1, network.n - 1)
    programs = {
        v: BoundedMaxIdFloodProgram(v, horizon) for v in network.nodes()
    }
    run = run_resilient(
        network,
        programs,
        fault_model=fault_model,
        crash_schedule=crash_schedule,
        seed=seed,
        fault_seed=fault_seed,
        **resilience_kwargs,
    )
    leader = run.result.common_output()
    return leader, run

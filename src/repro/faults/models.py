"""Pluggable channel fault models for the CONGEST engine.

Each model decides, per in-flight message, whether the message is
delivered unchanged, dropped, corrupted (payload altered *within the
declared field domains*, so the bandwidth charge never changes), or
delayed by a bounded number of rounds (which also reorders it past later
sends on the same edge).

Models are deterministic once seeded: construct with an explicit
``seed``, or let :class:`repro.faults.FaultyEngine` bind one derived from
its own fault seed.  The same seed always yields the identical fault
schedule, so lossy runs are exactly reproducible.

The verdict vocabulary (:data:`DELIVER` / :data:`DROP` / :data:`CORRUPT`
/ :data:`DELAY`) is shared with :mod:`repro.congest.tracing` so fault
events appear as first-class :class:`~repro.congest.tracing.TraceEvent`s.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..congest.encoding import Field
from ..congest.messages import Message
from ..congest.tracing import CORRUPT, DELAY, DELIVER, DROP

__all__ = [
    "DELIVER",
    "DROP",
    "CORRUPT",
    "DELAY",
    "ChannelFaultModel",
    "NoFaults",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "BitCorruption",
    "BoundedDelay",
    "CompositeFaults",
]


class ChannelFaultModel:
    """Base channel model: a perfect, lossless, in-order channel.

    Subclasses override :meth:`apply` (and, for models that hold messages
    back, :meth:`release` / :meth:`pending`).  The engine calls
    :meth:`bind` once before the run with a :class:`numpy.random.
    SeedSequence`; a model constructed with an explicit ``seed`` keeps it,
    so standalone use is deterministic too.
    """

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self.rng: Optional[np.random.Generator] = None

    def bind(self, seed_seq: np.random.SeedSequence) -> None:
        """Seed the model's RNG (own ``seed`` wins over the engine's).

        Binding also clears any per-run mutable state via :meth:`_reset`,
        so a model instance reused across runs (or re-bound with the same
        seed) honours the module contract: same seed ⇒ identical fault
        schedule.  Before this reset existed, a reused
        :class:`GilbertElliottLoss` carried its per-edge burst states —
        and a reused :class:`BoundedDelay` its *undelivered held
        messages* — from the previous run into the next one.
        """
        self.rng = np.random.default_rng(self._resolve_seed(seed_seq))
        self._reset()

    def _resolve_seed(
        self, seed_seq: np.random.SeedSequence
    ) -> np.random.SeedSequence:
        """The model's own ``seed`` wins over the engine-provided one."""
        if self.seed is not None:
            return np.random.SeedSequence(self.seed)
        return seed_seq

    def _reset(self) -> None:
        """Clear per-run mutable state (burst chains, held messages).

        Called by :meth:`bind`; the base channel holds none.  Subclasses
        with cross-message state MUST override this, or reusing a model
        instance leaks one run's state into the next.
        """

    def _require_rng(self) -> np.random.Generator:
        if self.rng is None:
            self.bind(np.random.SeedSequence(self.seed))
        return self.rng

    def on_round(self, round_no: int) -> None:
        """Hook called once at the top of every round."""

    def apply(
        self, msg: Message, round_no: int
    ) -> Tuple[str, Optional[Message]]:
        """Judge one in-flight message.

        Returns:
            ``(verdict, message)`` where verdict is one of
            :data:`DELIVER` / :data:`DROP` / :data:`CORRUPT` /
            :data:`DELAY` and message is the (possibly replaced) message
            to deliver, or ``None`` for drops and delays.
        """
        return DELIVER, msg

    def release(self, round_no: int) -> List[Message]:
        """Messages previously delayed that come due this round."""
        return []

    def pending(self) -> bool:
        """Whether the model still holds undelivered delayed messages."""
        return False

    def describe(self) -> str:
        """One-line human-readable summary for tables and CLI output."""
        return type(self).__name__


class NoFaults(ChannelFaultModel):
    """The identity channel; runs are byte-for-byte the plain engine."""

    def describe(self) -> str:
        return "no faults"


class BernoulliLoss(ChannelFaultModel):
    """Drop each message independently with probability ``p``."""

    def __init__(self, p: float, seed: Optional[int] = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
        super().__init__(seed)
        self.p = p

    def apply(self, msg, round_no):
        """Drop the message with probability ``p``; deliver otherwise."""
        if self.p > 0.0 and self._require_rng().random() < self.p:
            return DROP, None
        return DELIVER, msg

    def describe(self) -> str:
        return f"bernoulli loss p={self.p:g}"


class GilbertElliottLoss(ChannelFaultModel):
    """Bursty loss: per directed edge, a two-state Gilbert–Elliott chain.

    Each directed edge is independently in a *good* or *bad* state; the
    chain steps once per message (one message per edge per round in
    CONGEST, so this is once per round per active edge) and the message
    is dropped with the state's loss rate.  Long bad-state sojourns model
    link outages rather than independent noise.
    """

    def __init__(
        self,
        p_enter_burst: float = 0.05,
        p_exit_burst: float = 0.3,
        loss_good: float = 0.0,
        loss_bad: float = 0.9,
        seed: Optional[int] = None,
    ):
        for name, value in (
            ("p_enter_burst", p_enter_burst),
            ("p_exit_burst", p_exit_burst),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        super().__init__(seed)
        self.p_enter_burst = p_enter_burst
        self.p_exit_burst = p_exit_burst
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._bad: Dict[Tuple[int, int], bool] = {}

    def _reset(self):
        """Every edge chain restarts in the good state on re-bind."""
        self._bad.clear()

    def apply(self, msg, round_no):
        """Step the edge's chain, then drop at the state's loss rate."""
        rng = self._require_rng()
        edge = (msg.src, msg.dst)
        bad = self._bad.get(edge, False)
        flip = self.p_exit_burst if bad else self.p_enter_burst
        if rng.random() < flip:
            bad = not bad
        self._bad[edge] = bad
        loss = self.loss_bad if bad else self.loss_good
        if loss > 0.0 and rng.random() < loss:
            return DROP, None
        return DELIVER, msg

    def describe(self) -> str:
        return (
            f"gilbert-elliott burst loss "
            f"(enter={self.p_enter_burst:g}, exit={self.p_exit_burst:g}, "
            f"bad={self.loss_bad:g})"
        )


def _corrupt_payload(payload, rng: np.random.Generator):
    """Re-randomize a payload within its declared structure.

    Every :class:`Field` is replaced by a uniformly random *different*
    value from the same domain (same bit charge); bools are flipped;
    structure, ``None`` markers, and bare values are left alone, so the
    encoded size — and therefore the bandwidth charge — is unchanged.
    """
    if isinstance(payload, Field):
        if payload.domain <= 1:
            return payload
        new = int(rng.integers(payload.domain - 1))
        if new >= payload.value:
            new += 1
        return Field(new, payload.domain)
    if isinstance(payload, bool):
        return not payload
    if isinstance(payload, tuple):
        return tuple(_corrupt_payload(item, rng) for item in payload)
    if isinstance(payload, list):
        return [_corrupt_payload(item, rng) for item in payload]
    return payload


class BitCorruption(ChannelFaultModel):
    """Corrupt each message independently with probability ``p``.

    Corruption re-randomizes the payload's ``Field`` values within their
    declared domains and flips bools, keeping the charged bit size — and
    thus the CONGEST bandwidth budget — exactly as sent.  Receivers see a
    well-formed but wrong message, which is what checksummed resilient
    protocols (:mod:`repro.faults.resilience`) must detect themselves.
    """

    def __init__(self, p: float, seed: Optional[int] = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError(
                f"corruption probability must be in [0, 1], got {p}"
            )
        super().__init__(seed)
        self.p = p

    def apply(self, msg, round_no):
        """With probability ``p``, rewrite the payload within its domains."""
        rng = self._require_rng()
        if self.p <= 0.0 or rng.random() >= self.p:
            return DELIVER, msg
        corrupted = Message(
            src=msg.src,
            dst=msg.dst,
            payload=_corrupt_payload(msg.payload, rng),
            bits=msg.bits,
            round_sent=msg.round_sent,
        )
        return CORRUPT, corrupted

    def describe(self) -> str:
        return f"bit corruption p={self.p:g}"


class BoundedDelay(ChannelFaultModel):
    """Delay each message with probability ``p`` by 1..``max_delay`` rounds.

    A delayed message is withheld and re-injected in a later round, which
    both delays and *reorders* it relative to newer traffic on the same
    edge — the failure mode sequence-numbered protocols exist for.
    """

    def __init__(
        self, p: float, max_delay: int = 3, seed: Optional[int] = None
    ):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"delay probability must be in [0, 1], got {p}")
        if max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {max_delay}")
        super().__init__(seed)
        self.p = p
        self.max_delay = max_delay
        self._held: Dict[int, List[Message]] = {}

    def _reset(self):
        """Drop held messages on re-bind: a new run must never receive
        traffic delayed out of a *previous* run."""
        self._held.clear()

    def apply(self, msg, round_no):
        """Hold the message for a random bounded number of extra rounds."""
        rng = self._require_rng()
        if self.p <= 0.0 or rng.random() >= self.p:
            return DELIVER, msg
        due = round_no + 1 + int(rng.integers(self.max_delay))
        self._held.setdefault(due, []).append(msg)
        return DELAY, None

    def release(self, round_no):
        """Deliver messages whose delay expires this round."""
        return self._held.pop(round_no, [])

    def pending(self):
        """True while any delayed message is still held."""
        return bool(self._held)

    def describe(self) -> str:
        return f"bounded delay p={self.p:g}, <= {self.max_delay} rounds"


class CompositeFaults(ChannelFaultModel):
    """Chain several fault models; the first non-deliver verdict wins.

    A :data:`CORRUPT` verdict replaces the message and continues down the
    chain (a corrupted message can still be dropped or delayed);
    :data:`DROP` and :data:`DELAY` stop the chain.  Released (previously
    delayed) messages are delivered as-is.
    """

    def __init__(
        self,
        models: List[ChannelFaultModel],
        seed: Optional[int] = None,
    ):
        if not models:
            raise ValueError("CompositeFaults needs at least one model")
        super().__init__(seed)
        self.models = list(models)

    def bind(self, seed_seq):
        """Give every chained model an independent child seed.

        Children are spawned from a *fresh copy* of the resolved seed
        sequence (same entropy and spawn key, spawn counter at zero), so
        re-binding with the same seed hands every chained model the
        identical child seed it got the first time —
        ``SeedSequence.spawn`` otherwise advances a counter and a second
        ``bind`` would silently re-seed the whole chain differently.
        Each child's own ``bind`` clears its per-run state, so the reset
        guarantee composes through the chain.
        """
        resolved = self._resolve_seed(seed_seq)
        self.rng = np.random.default_rng(resolved)
        self._reset()
        children = np.random.SeedSequence(
            entropy=resolved.entropy, spawn_key=resolved.spawn_key
        ).spawn(len(self.models))
        for model, child in zip(self.models, children, strict=True):
            model.bind(child)

    def on_round(self, round_no):
        """Forward the round tick to every chained model."""
        for model in self.models:
            model.on_round(round_no)

    def apply(self, msg, round_no):
        """Run the message through the chain until a terminal verdict."""
        self._require_rng()
        verdict = DELIVER
        for model in self.models:
            step, replacement = model.apply(msg, round_no)
            if step == DELIVER:
                continue
            if step == CORRUPT:
                verdict = CORRUPT
                msg = replacement
                continue
            return step, None
        return verdict, msg

    def release(self, round_no):
        """Collect every chained model's due messages."""
        out: List[Message] = []
        for model in self.models:
            out.extend(model.release(round_no))
        return out

    def pending(self):
        """True while any chained model holds messages."""
        return any(model.pending() for model in self.models)

    def describe(self) -> str:
        return " + ".join(model.describe() for model in self.models)

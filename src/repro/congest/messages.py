"""Message and inbox types for the CONGEST engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .encoding import payload_bits, unwrap


@dataclass(frozen=True)
class Message:
    """A single CONGEST message.

    Attributes:
        src: sender node id.
        dst: receiver node id.
        payload: the carried value (possibly containing ``Field`` wrappers).
        bits: charged size in bits, computed from the payload at creation.
        round_sent: the round in which the message was sent.
    """

    src: int
    dst: int
    payload: Any
    bits: int
    round_sent: int

    @staticmethod
    def make(src: int, dst: int, payload: Any, round_sent: int) -> "Message":
        return Message(src, dst, payload, payload_bits(payload), round_sent)

    @property
    def value(self) -> Any:
        """The payload with ``Field`` wrappers stripped."""
        return unwrap(self.payload)


class Inbox:
    """Messages delivered to one node at the start of a round.

    The per-sender index is built lazily (most programs only iterate), and
    keeps *every* message per sender in arrival order: two messages from
    the same ``src`` can legitimately arrive in one round when a delayed
    message (``FaultyEngine`` delay faults) lands next to a fresh one.
    """

    def __init__(self, messages: Optional[List[Message]] = None):
        self._messages: List[Message] = list(messages or [])
        self._by_src: Optional[Dict[int, List[Message]]] = None

    @classmethod
    def _wrap(cls, messages: List[Message]) -> "Inbox":
        """Adopt ``messages`` without copying (engine hot path).

        The caller retains ownership of the list and may reuse it after
        the round ends; an Inbox is only valid within its round.
        """
        inbox = cls.__new__(cls)
        inbox._messages = messages
        inbox._by_src = None
        return inbox

    def _index(self) -> Dict[int, List[Message]]:
        if self._by_src is None:
            by_src: Dict[int, List[Message]] = {}
            for m in self._messages:
                by_src.setdefault(m.src, []).append(m)
            self._by_src = by_src
        return self._by_src

    def __iter__(self) -> Iterator[Message]:
        return iter(self._messages)

    def __len__(self) -> int:
        return len(self._messages)

    def __bool__(self) -> bool:
        return bool(self._messages)

    def from_node(self, src: int) -> Optional[Message]:
        """The *first* message received from ``src`` this round, if any."""
        msgs = self._index().get(src)
        return msgs[0] if msgs else None

    def all_from_node(self, src: int) -> List[Message]:
        """Every message received from ``src`` this round, in arrival order."""
        return list(self._index().get(src, ()))

    def senders(self) -> List[int]:
        return [m.src for m in self._messages]

    def values(self) -> List[Any]:
        return [m.value for m in self._messages]


@dataclass
class TrafficStats:
    """Aggregate traffic counters maintained by the engine."""

    messages: int = 0
    bits: int = 0
    per_round_messages: List[int] = field(default_factory=list)
    per_round_bits: List[int] = field(default_factory=list)

    def record_round(self, messages: int, bits: int) -> None:
        self.messages += messages
        self.bits += bits
        self.per_round_messages.append(messages)
        self.per_round_bits.append(bits)

    @property
    def max_messages_in_round(self) -> int:
        return max(self.per_round_messages, default=0)

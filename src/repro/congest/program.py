"""Node program API for the CONGEST engine.

A distributed algorithm is a :class:`NodeProgram` subclass; the engine
instantiates one program object per node (or the caller supplies
pre-configured instances, e.g. carrying each node's private input) and
drives them through synchronous rounds:

* ``on_start(ctx)`` runs once, before any communication.  Sends issued here
  are delivered in round 1.
* ``on_round(ctx, inbox)`` runs every round on every non-halted node whose
  program is :attr:`~NodeProgram.always_active` (the default).  Programs
  whose ``on_round`` is a pure no-op on silent rounds — no state change, no
  sends, no RNG draws when the inbox is empty and the previous round sent
  nothing — may set ``always_active = False``; the engine then skips them
  on rounds where they provably cannot make progress (active-set
  scheduling), with bit-identical results.  Sends are delivered next round.
* ``ctx.halt(output)`` marks the node finished; the engine stops when all
  nodes have halted.
* ``ctx.request_wakeup(round_no)`` guarantees execution at the given round
  even without deliveries — the escape hatch for event-driven programs
  with timeouts or round-counting phases.

The context enforces the CONGEST rules at send time: one message per edge
direction per round, neighbors only, and the network's bandwidth cap.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from .encoding import payload_bits
from .errors import DuplicateSend, MessageTooLargeError, NotANeighbor
from .messages import Inbox, Message


class Context:
    """Per-node view of the network handed to programs each round.

    Exposes exactly what a node is allowed to know initially: its own id,
    the ids of the peers it may message (physical neighbors under
    CONGEST/LOCAL, all other nodes under CONGEST-CLIQUE), and the network
    size ``n`` (knowledge of n, or a polynomial upper bound, is standard
    in CONGEST algorithms).  ``bandwidth`` is the model's per-link
    per-round bit cap, or ``None`` when unbounded (LOCAL).
    """

    def __init__(
        self,
        node: int,
        neighbors: Tuple[int, ...],
        n: int,
        bandwidth: Optional[int],
        rng: np.random.Generator,
        model: str = "",
    ):
        self.node = node
        self.neighbors = neighbors
        self.n = n
        self.bandwidth = bandwidth
        self.model = model
        self.rng = rng
        self.round: int = 0
        self.output: Any = None
        self._halted = False
        self._outbox: Dict[int, Any] = {}
        self._wake_at: Optional[int] = None

    # ------------------------------------------------------------------
    # actions available to programs
    # ------------------------------------------------------------------

    def send(self, dst: int, payload: Any) -> None:
        """Queue a message for delivery to ``dst`` next round."""
        if dst not in self.neighbors:
            raise NotANeighbor(self.node, dst)
        if dst in self._outbox:
            raise DuplicateSend(self.node, dst, self.round)
        bits = payload_bits(payload)
        if self.bandwidth is not None and bits > self.bandwidth:
            raise MessageTooLargeError(
                self.node, dst, bits, self.bandwidth, model=self.model
            )
        self._outbox[dst] = payload

    def broadcast(self, payload: Any) -> None:
        """Send the same payload to every neighbor."""
        for u in self.neighbors:
            self.send(u, payload)

    def halt(self, output: Any = None) -> None:
        """Stop participating.  Queued sends this round are still delivered."""
        if output is not None:
            self.output = output
        self._halted = True

    def request_wakeup(self, round_no: Optional[int] = None) -> None:
        """Ask the engine to execute this node at ``round_no`` regardless
        of deliveries.

        ``None`` (the default) means the next round.  Requests for earlier
        rounds than one already pending win (the engine honors the minimum).
        In the textbook loop every node runs every round, so there this is
        a no-op; in the engine's per-node loop, which skips idle nodes, it
        is how an event-driven (``always_active = False``) program
        implements timeouts and round-counted phases.
        """
        target = self.round + 1 if round_no is None else round_no
        if target <= self.round:
            raise ValueError(
                f"wakeup round {target} is not after current round {self.round}"
            )
        if self._wake_at is None or target < self._wake_at:
            self._wake_at = target

    # ------------------------------------------------------------------
    # engine-side plumbing
    # ------------------------------------------------------------------

    @property
    def halted(self) -> bool:
        return self._halted

    def _drain_outbox(self, round_no: int) -> list:
        msgs = [
            Message.make(self.node, dst, payload, round_no)
            for dst, payload in self._outbox.items()
        ]
        self._outbox = {}
        return msgs

    def _take_wakeup(self) -> Optional[int]:
        """Pop the pending wakeup request, if any (engine-side)."""
        wake = self._wake_at
        self._wake_at = None
        return wake


class NodeProgram:
    """Base class for CONGEST node programs.

    Subclasses override :meth:`on_round` (and optionally
    :meth:`on_start`).  Instances may carry per-node private input set at
    construction time.
    """

    #: Scheduling contract with the engine.  ``True`` (the conservative
    #: default) means the node must execute every round, exactly like the
    #: classical dense loop.  A program may declare ``False`` when running
    #: it on a *silent* round — empty inbox, nothing sent the round before,
    #: no pending :meth:`Context.request_wakeup` — is a pure no-op: no
    #: state change, no sends, no halt, no RNG draws.  The engine then
    #: skips such rounds entirely (active-set scheduling) with
    #: bit-identical results.
    always_active: bool = True

    def on_start(self, ctx: Context) -> None:
        """Local initialization before round 1.  May send and halt."""

    def on_round(self, ctx: Context, inbox: Inbox) -> None:
        """One synchronous round.  Must eventually call ``ctx.halt``."""
        raise NotImplementedError


class IdleProgram(NodeProgram):
    """A program that halts immediately; useful filler in tests."""

    always_active = False

    def on_start(self, ctx: Context) -> None:
        ctx.halt()

    def on_round(self, ctx: Context, inbox: Inbox) -> None:  # pragma: no cover
        ctx.halt()


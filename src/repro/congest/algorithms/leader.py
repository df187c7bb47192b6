"""Leader election by max-id flooding, O(D) rounds.

The paper notes "leader election can be done in O(D) in the CONGEST model,
so if no leader is provided, we can for example take the node with the
largest identifier."  This module implements exactly that: every node
floods the largest identifier it has seen, forwarding only improvements.
The largest id reaches a node at distance d in round d, and for n > 1 the
flood quiesces after ecc(argmax) + 1 ≤ D + 1 rounds: the last round
delivers the redundant echo of the final improvement (a single node
takes 0 rounds).  Termination detection in a deployed system adds O(D);
callers charge it via the returned round count when they need a
self-terminating protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..encoding import Field
from ..engine import run_program
from ..messages import Inbox
from ..network import Network
from ..program import Context, NodeProgram


@dataclass
class LeaderResult:
    leader: int
    rounds: int


class MaxIdFloodProgram(NodeProgram):
    """Flood the largest identifier seen; quiesces in ecc(argmax) + 1 rounds.

    The extra round (for n > 1) delivers the echo of the last improvement,
    which changes nothing.
    """

    # Forwards only improvements, which can only arrive as messages; a
    # silent round is a no-op, so the engine may skip it.
    always_active = False

    def __init__(self, node: int):
        self.node = node
        self.best = node

    def on_start(self, ctx: Context) -> None:
        ctx.broadcast(Field(self.best, ctx.n))
        ctx.output = self.best

    def on_round(self, ctx: Context, inbox: Inbox) -> None:
        incoming = max(inbox.values(), default=self.best)
        if incoming > self.best:
            self.best = incoming
            ctx.broadcast(Field(self.best, ctx.n))
        ctx.output = self.best


class BoundedMaxIdFloodProgram(MaxIdFloodProgram):
    """Max-id flooding that halts itself after a fixed round horizon.

    The plain :class:`MaxIdFloodProgram` relies on the engine's
    quiescence detection, which is unsound on a lossy network (a dropped
    message makes the network transiently silent mid-flood).  This
    variant instead runs for ``horizon`` rounds — any upper bound on the
    maximum eccentricity, e.g. ``n - 1`` — and then halts with the best
    identifier seen, making it usable under the fault-resilient wrapper
    in :mod:`repro.faults.resilience`.
    """

    # Counts rounds to its horizon even when the network is silent, so it
    # must execute every round.
    always_active = True

    def __init__(self, node: int, horizon: int):
        super().__init__(node)
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon

    def on_round(self, ctx: Context, inbox: Inbox) -> None:
        super().on_round(ctx, inbox)
        if ctx.round >= self.horizon:
            ctx.halt(output=self.best)


def elect_leader(network: Network, seed: Optional[int] = None) -> LeaderResult:
    """Run max-id flooding; every node learns the leader's id."""
    programs = {v: MaxIdFloodProgram(v) for v in network.nodes()}
    result = run_program(
        network, programs, seed=seed, stop_on_quiescence=True
    )
    leaders = set(result.outputs.values())
    if len(leaders) != 1:
        raise AssertionError(f"leader election did not converge: {leaders}")
    return LeaderResult(leader=leaders.pop(), rounds=result.rounds)

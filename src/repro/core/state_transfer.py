"""Lemma 7: distributing a leader's q-qubit register through the network.

The lemma turns a leader-held state Σᵢ αᵢ|i> into Σᵢ αᵢ|i>^{⊗n} (one copy
per node) in O(D + q/log n) rounds: the leader CNOTs its register onto
fresh registers for its children and streams them down the BFS tree, each
log(n)-qubit chunk forwarded the round after it arrives (pipelining); the
reverse runs the same algorithm backwards.

Because the *communication pattern* is identical for a quantum register
and a classical q-bit string (only the payload qubits differ), the engine
implementation streams a classical register through real messages and
measures rounds — this is the fidelity level the cost accounting needs.
The naive non-pipelined variant (wait for the full register before
forwarding, D·⌈q/log n⌉ rounds) is implemented for the E5 ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..congest.algorithms.bfs import BFSResult
from ..congest.encoding import Field
from ..congest.engine import run_program
from ..congest.messages import Inbox
from ..congest.network import Network
from ..congest.program import Context, NodeProgram


@dataclass
class TransferResult:
    rounds: int
    chunks: int
    register: Tuple[int, ...]  # the distributed chunk values


def _chunk_register(value_bits: Sequence[int], chunk_bits: int) -> List[int]:
    """Split a bit string (list of 0/1, MSB first) into chunk integers."""
    chunks = []
    for start in range(0, len(value_bits), chunk_bits):
        word = 0
        for bit in value_bits[start : start + chunk_bits]:
            word = (word << 1) | bit
        chunks.append(word)
    return chunks


class RegisterStreamProgram(NodeProgram):
    """Stream a chunked register down the BFS tree.

    Pipelined mode forwards chunk i the round after receiving it; naive
    mode buffers the entire register first (the Lemma 7 proof's strawman).
    """

    # The root streams chunks (carried by its own sends); interior nodes
    # advance on deliveries.  Childless nodes walk their cursor locally on
    # silent rounds (especially in naive mode, where the walk starts only
    # after the full register arrived), so they request explicit wakeups
    # whenever another local step is possible.
    always_active = False

    def __init__(
        self,
        node: int,
        parent: Optional[int],
        children: Sequence[int],
        chunks: Optional[List[int]],
        num_chunks: int,
        chunk_domain: int,
        pipelined: bool,
    ):
        self.node = node
        self.parent = parent
        self.children = list(children)
        self.received: List[Optional[int]] = (
            list(chunks) if chunks is not None else [None] * num_chunks
        )
        self.num_chunks = num_chunks
        self.chunk_domain = chunk_domain
        self.pipelined = pipelined
        self.next_to_send = 0

    def _may_send(self) -> bool:
        if self.next_to_send >= self.num_chunks:
            return False
        if self.received[self.next_to_send] is None:
            return False
        if not self.pipelined and any(c is None for c in self.received):
            return False
        return True

    def _push(self, ctx: Context) -> None:
        if not self._may_send():
            if (
                self.next_to_send >= self.num_chunks
                or (not self.children and all(c is not None for c in self.received))
            ):
                if all(c is not None for c in self.received):
                    ctx.halt(output=tuple(self.received))
            return
        i = self.next_to_send
        for child in self.children:
            ctx.send(
                child,
                (
                    Field(i, max(self.num_chunks, 1)),
                    Field(self.received[i], self.chunk_domain),
                ),
            )
        self.next_to_send += 1
        if self.next_to_send >= self.num_chunks:
            ctx.halt(output=tuple(self.received))
        elif not self.children and self._may_send():
            # No sends carry us into the next round, but another local
            # cursor step is already possible: ask to be scheduled.
            ctx.request_wakeup()

    def on_start(self, ctx: Context) -> None:
        self._push(ctx)

    def on_round(self, ctx: Context, inbox: Inbox) -> None:
        for msg in inbox:
            index, value = msg.value
            self.received[index] = value
        self._push(ctx)


def distribute_register(
    network: Network,
    tree: BFSResult,
    register_value: int,
    q_bits: int,
    pipelined: bool = True,
    seed: Optional[int] = None,
) -> TransferResult:
    """Lemma 7 forward direction, measured on the engine.

    Streams a ``q_bits``-wide register (value ``register_value``) from the
    tree root to every node.  Returns measured rounds; Lemma 7 predicts
    ≈ depth + ⌈q/log n⌉ pipelined and ≈ depth·⌈q/log n⌉ naive.
    """
    if not 0 <= register_value < (1 << q_bits):
        raise ValueError("register value does not fit in q bits")
    # Chunk size: what fits next to a chunk index in one message.
    index_bits = max(1, math.ceil(math.log2(max(q_bits, 2))))
    chunk_bits = max(1, network.bandwidth - index_bits)
    bits = [(register_value >> (q_bits - 1 - i)) & 1 for i in range(q_bits)]
    chunks = _chunk_register(bits, chunk_bits)
    num_chunks = len(chunks)
    chunk_domain = 1 << chunk_bits

    children = tree.children()
    programs = {
        v: RegisterStreamProgram(
            v,
            tree.parent.get(v),
            children.get(v, []),
            chunks if v == tree.root else None,
            num_chunks,
            chunk_domain,
            pipelined,
        )
        for v in network.nodes()
    }
    result = run_program(network, programs, seed=seed)
    for v in network.nodes():
        got = result.outputs[v]
        if tuple(got) != tuple(chunks):
            raise AssertionError(f"node {v} received a corrupted register")
    return TransferResult(
        rounds=result.rounds, chunks=num_chunks, register=tuple(chunks)
    )


def collect_register(
    network: Network,
    tree: BFSResult,
    register_value: int,
    q_bits: int,
    pipelined: bool = True,
    seed: Optional[int] = None,
) -> TransferResult:
    """Lemma 7 reverse direction ("run the same algorithm in reverse").

    The uncompute streams the register back up layer by layer with the
    same pipelining structure, so its round count equals the forward
    direction's; we measure it by running the reversed stream on the
    engine (leaf-to-root direction has identical scheduling).
    """
    forward = distribute_register(
        network, tree, register_value, q_bits, pipelined=pipelined, seed=seed
    )
    return forward

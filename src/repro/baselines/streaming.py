"""Classical CONGEST baselines for the distributed-data problems.

The paper's Lemma 11 remark: "there exists a trivial O(k/log n + D)
classical CONGEST algorithm ... where all nodes send all their values to a
leader through the BFS tree.  This can be seen as coming from a trivial
classical parallel-query algorithm: query all values in one batch of size
p = k."  That protocol is the optimal classical comparator for meeting
scheduling, element distinctness, and (exact) Deutsch–Jozsa, matching the
Ω(k/log n + D) lower bounds — so measuring it against the quantum
protocols exhibits the separations.

Two modes: ``engine`` actually streams everything up a BFS tree with the
pipelined convergecast (rounds measured), ``formula`` charges
D + k·⌈q/log n⌉.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..congest.algorithms.aggregate import pipelined_upcast
from ..congest.algorithms.bfs import bfs_with_echo
from ..congest.algorithms.leader import elect_leader
from ..congest.network import Network
from ..core.cost import CostModel
from ..core.framework import DistributedInput
from ..quantum.deutsch_jozsa import check_promise, is_constant


@dataclass
class StreamingResult:
    """Leader-side answer of the stream-everything protocol."""

    aggregated: List[int]
    rounds: int
    leader: int


def stream_to_leader(
    network: Network,
    dist_input: DistributedInput,
    mode: str = "formula",
    seed: Optional[int] = None,
) -> StreamingResult:
    """Aggregate the full k-vector ⊕_v x^{(v)} at an elected leader."""
    election = elect_leader(network, seed=seed)
    rounds = election.rounds
    tree = bfs_with_echo(network, election.leader, seed=seed)
    rounds += tree.rounds
    semigroup = dist_input.semigroup

    if mode == "engine":
        words = CostModel.for_network(network).words(semigroup.bits)
        identity = semigroup.identity
        if identity is None:
            raise ValueError("engine streaming needs a monoid identity")
        vectors = {}
        for v in network.nodes():
            row: List[int] = []
            for value in dist_input.vectors[v]:
                row.extend([identity] * (words - 1))
                row.append(value)
            vectors[v] = row
        combined, up_rounds = pipelined_upcast(
            network,
            tree,
            vectors,
            combine=semigroup.combine,
            domain=max(semigroup.domain_size or (1 << semigroup.bits), 2),
            seed=seed,
        )
        rounds += up_rounds
        aggregated = [
            combined[i * words + (words - 1)] for i in range(dist_input.k)
        ]
    else:
        cm = CostModel.for_network(network)
        rounds += cm.diameter + dist_input.k * cm.words(semigroup.bits)
        aggregated = dist_input.aggregated()

    return StreamingResult(
        aggregated=aggregated, rounds=rounds, leader=election.leader
    )


def classical_meeting(
    network: Network,
    calendars: Dict[int, List[int]],
    mode: str = "formula",
    seed: Optional[int] = None,
) -> Tuple[int, int, int]:
    """Deterministic classical meeting scheduling: (slot, availability, rounds)."""
    from ..core.semigroup import sum_semigroup

    dist_input = DistributedInput(dict(calendars), sum_semigroup(network.n))
    result = stream_to_leader(network, dist_input, mode=mode, seed=seed)
    best = max(range(len(result.aggregated)), key=lambda i: result.aggregated[i])
    return best, result.aggregated[best], result.rounds


def classical_element_distinctness(
    network: Network,
    vectors: Dict[int, List[int]],
    max_value: int,
    mode: str = "formula",
    seed: Optional[int] = None,
) -> Tuple[Optional[Tuple[int, int]], int]:
    """Deterministic classical ED on x = Σ_v x^{(v)}: (pair or None, rounds)."""
    from ..core.semigroup import sum_semigroup

    dist_input = DistributedInput(
        dict(vectors), sum_semigroup(max_value * network.n)
    )
    result = stream_to_leader(network, dist_input, mode=mode, seed=seed)
    seen: Dict[int, int] = {}
    for i, v in enumerate(result.aggregated):
        if v in seen:
            return (seen[v], i), result.rounds
        seen[v] = i
    return None, result.rounds


def classical_deutsch_jozsa(
    network: Network,
    inputs: Dict[int, List[int]],
    mode: str = "formula",
    seed: Optional[int] = None,
) -> Tuple[bool, int]:
    """Exact classical DJ: stream everything, decide with zero error.

    This is the Ω(k/log n + D)-matching protocol of Theorem 18's remark —
    paying the full k, exponentially more than Theorem 17's quantum cost.
    Returns (constant?, rounds).
    """
    from ..core.semigroup import xor_semigroup

    dist_input = DistributedInput(dict(inputs), xor_semigroup(1))
    result = stream_to_leader(network, dist_input, mode=mode, seed=seed)
    bits = result.aggregated
    check_promise(bits)
    return is_constant(bits), result.rounds


def classical_streaming_bound(k: int, q_bits: int, diameter: int, n: int) -> float:
    """D + k·⌈q/log n⌉ — the trivial protocol's cost."""
    word = max(1, math.ceil(math.log2(max(n, 2))))
    return diameter + k * max(1, math.ceil(q_bits / word))

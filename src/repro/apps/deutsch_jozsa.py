"""Theorem 17: distributed Deutsch–Jozsa in Quantum CONGEST.

Problem 16: each node holds x^{(v)} ∈ {0,1}^k with the promise that
x = ⊕_v x^{(v)} (elementwise XOR) is constant or balanced; decide which,
with probability 1.  One superposed query (plus its uncompute) through
Theorem 8 over (A, ⊕) = ({0,1}, XOR) with p = 1 gives

    O(D · ⌈log k / log n⌉) rounds, zero error,

an exponential separation from the exact classical Ω(k/log n + D)
(Theorem 18), witnessed by the streaming baseline in
:mod:`repro.baselines.streaming` and the gadget in
:mod:`repro.lowerbounds.reductions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..congest.network import Network
from ..core.cost import CostModel
from ..core.framework import (
    DistributedInput,
    FrameworkConfig,
    FrameworkRun,
    run_framework,
)
from ..core.semigroup import xor_semigroup
from ..queries import deutsch_jozsa as parallel_dj
from ..quantum.deutsch_jozsa import check_promise


@dataclass
class DJResult:
    constant: bool
    rounds: int
    batches: int
    run: FrameworkRun

    @property
    def balanced(self) -> bool:
        return not self.constant


def aggregated_input(inputs: Dict[int, List[int]]) -> List[int]:
    """x = ⊕_v x^{(v)}, the promise string, through the framework's fold."""
    return DistributedInput(dict(inputs), xor_semigroup(1)).aggregated()


def solve_distributed_dj(
    network: Network,
    inputs: Dict[int, List[int]],
    mode: str = "formula",
    seed: Optional[int] = None,
) -> DJResult:
    """Decide constant-vs-balanced with zero error (Theorem 17).

    Raises:
        PromiseViolation: if ⊕_v x^{(v)} is neither constant nor balanced.
    """
    for v in network.nodes():
        if v not in inputs:
            raise ValueError(f"node {v} has no input")
    k = len(next(iter(inputs.values())))
    if k % 2:
        raise ValueError("k must be even (Problem 16)")
    check_promise(aggregated_input(inputs))

    dist_input = DistributedInput(dict(inputs), xor_semigroup(1))

    def algorithm(oracle, rng):
        return parallel_dj.decide(oracle)

    run = run_framework(network, algorithm, config=FrameworkConfig(
        parallelism=1, dist_input=dist_input, mode=mode, seed=seed,
    ))
    decision = run.result
    return DJResult(
        constant=decision.constant,
        rounds=run.total_rounds,
        batches=run.batches,
        run=run,
    )


def quantum_round_bound(k: int, diameter: int, n: int) -> float:
    """Theorem 17: D·⌈log k/log n⌉ (hidden constant 1)."""
    cm = CostModel(
        n=n,
        diameter=max(diameter, 1),
        word_bits=max(1, math.ceil(math.log2(max(n, 2)))),
    )
    return max(diameter, 1) * cm.index_words(k)


def classical_exact_lower_bound(k: int, diameter: int, n: int) -> float:
    """Theorem 18: Ω(k/log n + D) for zero-error classical CONGEST."""
    return k / max(1, math.ceil(math.log2(max(n, 2)))) + max(diameter, 1)

"""Lemma 10: meeting scheduling in Quantum CONGEST.

Each of the n nodes holds a private calendar x^{(v)} ∈ {0,1}^k over k time
slots; the goal is argmax_i Σ_v x^{(v)}_i — the slot with most available
participants.  The paper composes Lemma 3 (parallel maximum finding with
p = D, so b = O(⌈√(k/D)⌉)) with Theorem 8 over (A, ⊕) = ([n], +), giving

    O((√(kD) + D) · ⌈log k / log n⌉) rounds,

versus the classical Ω(k/log n + D) lower bound (Lemma 11) matched by the
trivial stream-everything protocol in :mod:`repro.baselines.streaming`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..congest.network import Network
from ..core.cost import CostModel
from ..core.framework import (
    DistributedInput,
    FrameworkConfig,
    FrameworkRun,
    run_framework,
)
from ..core.semigroup import sum_semigroup
from ..queries import minimum as parallel_minimum


@dataclass
class MeetingResult:
    """Outcome of the quantum meeting-scheduling protocol."""

    best_slot: Optional[int]
    availability: Optional[int]
    rounds: int
    batches: int
    run: FrameworkRun

    def correct_against(self, calendars: Dict[int, List[int]]) -> bool:
        """Did we find a slot attaining the true maximum availability?"""
        totals = _totals(calendars)
        return (
            self.best_slot is not None
            and totals[self.best_slot] == max(totals)
        )


def _totals(calendars: Dict[int, List[int]]) -> List[int]:
    """Per-slot availability Σ_v x^{(v)}_i, through the framework's fold."""
    return DistributedInput(
        dict(calendars), sum_semigroup(len(calendars))
    ).aggregated()


def _is_bit_vector(vec) -> bool:
    """Is every entry equal to 0 or 1 (as ``bit in (0, 1)`` decides)?"""
    try:
        bits = np.asarray(vec if isinstance(vec, np.ndarray) else list(vec))
    except ValueError:  # ragged: some entry is itself a sequence
        return False
    return bits.ndim == 1 and bool(((bits == 0) | (bits == 1)).all())


def schedule_meeting(
    network: Network,
    calendars: Dict[int, List[int]],
    parallelism: Optional[int] = None,
    mode: str = "formula",
    seed: Optional[int] = None,
) -> MeetingResult:
    """Run the Lemma 10 protocol; succeeds with probability ≥ 2/3.

    Args:
        network: the CONGEST network; every node must appear in calendars.
        calendars: per-node availability bit vectors of common length k.
        parallelism: batch width p; defaults to the paper's choice p = D.
        mode: ``formula`` (charged rounds) or ``engine`` (measured rounds).
        seed: reproducibility seed.
    """
    for v in network.nodes():
        if v not in calendars:
            raise ValueError(f"node {v} has no calendar")
        if not _is_bit_vector(calendars[v]):
            raise ValueError("calendars must be 0/1 vectors")
    p = parallelism if parallelism is not None else max(network.diameter, 1)
    dist_input = DistributedInput(dict(calendars), sum_semigroup(network.n))

    def algorithm(oracle, rng):
        return parallel_minimum.find_maximum(oracle, rng)

    run = run_framework(network, algorithm, config=FrameworkConfig(
        parallelism=p, dist_input=dist_input, mode=mode, seed=seed,
    ))
    outcome = run.result
    return MeetingResult(
        best_slot=outcome.index,
        availability=outcome.value,
        rounds=run.total_rounds,
        batches=run.batches,
        run=run,
    )


def schedule_weighted_meeting(
    network: Network,
    preferences: Dict[int, List[int]],
    max_weight: int,
    parallelism: Optional[int] = None,
    mode: str = "formula",
    seed: Optional[int] = None,
) -> MeetingResult:
    """The paper's generalization remark after Lemma 10.

    "Note that this can be generalized to other domains A and
    non-zero-one inputs, at the cost of an extra q = log(|A|) factor."

    Each node reports a preference weight in [0, max_weight] per slot;
    the protocol finds the slot of maximum total weight over
    (A, ⊕) = ([max_weight·n], +), paying the wider ⌈q/log n⌉ word factor
    through the standard Theorem 8 charging.
    """
    for v in network.nodes():
        if v not in preferences:
            raise ValueError(f"node {v} has no preference vector")
        if any(not 0 <= w <= max_weight for w in preferences[v]):
            raise ValueError(
                f"preferences must lie in [0, {max_weight}]"
            )
    p = parallelism if parallelism is not None else max(network.diameter, 1)
    dist_input = DistributedInput(
        dict(preferences), sum_semigroup(max_weight * network.n)
    )

    def algorithm(oracle, rng):
        return parallel_minimum.find_maximum(oracle, rng)

    run = run_framework(network, algorithm, config=FrameworkConfig(
        parallelism=p, dist_input=dist_input, mode=mode, seed=seed,
    ))
    outcome = run.result
    return MeetingResult(
        best_slot=outcome.index,
        availability=outcome.value,
        rounds=run.total_rounds,
        batches=run.batches,
        run=run,
    )


def quantum_round_bound(k: int, diameter: int, n: int) -> float:
    """The Lemma 10 bound (√(kD) + D)·⌈log k/log n⌉, hidden constant = 1."""
    word_bits = max(1, math.ceil(math.log2(max(n, 2))))
    cm = CostModel(n=n, diameter=max(diameter, 1), word_bits=word_bits)
    return (math.sqrt(k * cm.diameter) + cm.diameter) * cm.index_words(k)


def classical_round_lower_bound(k: int, diameter: int, n: int) -> float:
    """Lemma 11: Ω(k/log n + D)."""
    return k / max(1, math.ceil(math.log2(max(n, 2)))) + diameter

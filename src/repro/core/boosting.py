"""Success-probability boosting — the paper's "Notation and conventions".

"In our algorithms, there will always be some central leader that can
combine the results of multiple independent runs to boost this to a
success probability of 1 − n^{−c} at the cost of an extra log(n)-factor."

This module is that combiner, made explicit: run a 2/3-success protocol
O(log(1/δ)) times with independent seeds, sum the charged rounds, and
merge the outcomes by one of the leader-side rules the applications need:

* :func:`boost_minimum` / :func:`boost_maximum` — keep the best witness
  (sound for one-sided searches like diameter/radius/cycle length);
* :func:`boost_first_found` — keep the first non-None witness (sound for
  existence searches like element distinctness);
* :func:`boost_majority` — majority vote (for decision outputs);
* :func:`boost_median` — median of numeric estimates (mean estimation,
  phase estimation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, TypeVar

T = TypeVar("T")


def repetitions_for(delta: float, base_failure: float = 1 / 3) -> int:
    """Independent 2/3-runs needed so the *best/first/majority* rule fails
    with probability ≤ δ (Chernoff-free union-style bound: failure needs
    every run to fail, probability base_failure^r)."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not 0 < base_failure < 1:
        raise ValueError("base failure probability must be in (0, 1)")
    return max(1, math.ceil(math.log(delta) / math.log(base_failure)))


@dataclass
class BoostedOutcome:
    """Merged result of repeated runs."""

    value: object
    rounds: int
    repetitions: int
    individual: List[object]


def _run_all(
    protocol: Callable[[int], Tuple[object, int]],
    repetitions: int,
    seed: int,
) -> Tuple[List[object], int]:
    outcomes: List[object] = []
    total_rounds = 0
    for i in range(repetitions):
        value, rounds = protocol(seed + i)
        outcomes.append(value)
        total_rounds += rounds
    return outcomes, total_rounds


def boost_minimum(
    protocol: Callable[[int], Tuple[Optional[float], int]],
    delta: float,
    seed: int = 0,
) -> BoostedOutcome:
    """Keep the smallest non-None outcome across O(log 1/δ) runs."""
    reps = repetitions_for(delta)
    outcomes, rounds = _run_all(protocol, reps, seed)
    valid = [o for o in outcomes if o is not None]
    return BoostedOutcome(
        value=min(valid) if valid else None,
        rounds=rounds,
        repetitions=reps,
        individual=outcomes,
    )


def boost_maximum(
    protocol: Callable[[int], Tuple[Optional[float], int]],
    delta: float,
    seed: int = 0,
) -> BoostedOutcome:
    """Keep the largest non-None outcome across O(log 1/δ) runs."""
    reps = repetitions_for(delta)
    outcomes, rounds = _run_all(protocol, reps, seed)
    valid = [o for o in outcomes if o is not None]
    return BoostedOutcome(
        value=max(valid) if valid else None,
        rounds=rounds,
        repetitions=reps,
        individual=outcomes,
    )


def boost_first_found(
    protocol: Callable[[int], Tuple[Optional[T], int]],
    delta: float,
    seed: int = 0,
) -> BoostedOutcome:
    """Stop at the first non-None witness (adaptive: unused runs unpaid)."""
    reps = repetitions_for(delta)
    outcomes: List[object] = []
    rounds = 0
    for i in range(reps):
        value, cost = protocol(seed + i)
        outcomes.append(value)
        rounds += cost
        if value is not None:
            return BoostedOutcome(
                value=value, rounds=rounds, repetitions=i + 1,
                individual=outcomes,
            )
    return BoostedOutcome(
        value=None, rounds=rounds, repetitions=reps, individual=outcomes
    )


def boost_majority(
    protocol: Callable[[int], Tuple[T, int]],
    delta: float,
    seed: int = 0,
) -> BoostedOutcome:
    """Majority vote over O(log 1/δ) runs (Chernoff-sized repetition)."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    reps = max(1, math.ceil(18 * math.log(1.0 / delta)) | 1)
    outcomes, rounds = _run_all(protocol, reps, seed)
    counts: dict = {}
    for o in outcomes:
        counts[o] = counts.get(o, 0) + 1
    winner = max(counts, key=counts.get)
    return BoostedOutcome(
        value=winner, rounds=rounds, repetitions=reps, individual=outcomes
    )


def boost_median(
    protocol: Callable[[int], Tuple[float, int]],
    delta: float,
    seed: int = 0,
) -> BoostedOutcome:
    """Median of numeric estimates over O(log 1/δ) runs."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    reps = max(1, math.ceil(18 * math.log(1.0 / delta)) | 1)
    outcomes, rounds = _run_all(protocol, reps, seed)
    ordered = sorted(float(o) for o in outcomes)
    return BoostedOutcome(
        value=ordered[len(ordered) // 2], rounds=rounds,
        repetitions=reps, individual=outcomes,
    )

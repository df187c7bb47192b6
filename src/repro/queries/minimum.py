"""Lemma 3: parallel-query minimum/maximum finding (Dürr–Høyer [DH96]).

The threshold-descent algorithm: keep a current best value y and run the
parallel Grover search of Lemma 2 for an index with x_i < y; every success
lowers the threshold, and the standard Dürr–Høyer analysis bounds the total
expected parallel queries by O(⌈√(k/p)⌉).  When the minimum is attained by
at least ℓ elements the final (dominant) searches have ℓ marked items, so
the budget drops to O(⌈√(k/(ℓp))⌉) — the second part of Lemma 3, which is
what the graph applications (Lemma 23's heavy-cycle search) exploit.

Level-S fidelity notes: every Grover iteration is a metered batch of p
queries, success probabilities follow the exact sin²((2j+1)θ) law for the
current marked fraction, and the values of all queried indices are used
classically (taking a batch's minimum is free post-processing, exactly as
a real implementation would keep measured registers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grover import _sample_marked_subset, _sample_subset, marked_subset_fraction
from .oracle import BatchOracle

#: Budget multiplier: Dürr–Høyer's expected total is a small constant times
#: √(k/(ℓp)); tripling for Markov gives failure probability ≤ 1/3.
BUDGET_FACTOR = 10.0


@dataclass
class MinimumOutcome:
    index: Optional[int]
    value: object
    batches_used: int
    threshold_updates: int


def expected_batches(k: int, p: int, multiplicity: int = 1) -> float:
    """The Lemma 3 bound O(⌈√(k/(ℓp))⌉), without the hidden constant."""
    return max(1.0, math.sqrt(k / (max(multiplicity, 1) * p)))


def find_minimum(
    oracle: BatchOracle,
    rng: np.random.Generator,
    multiplicity: int = 1,
    key: Callable = lambda v: v,
) -> MinimumOutcome:
    """Find argmin over the oracle's values with probability ≥ 2/3.

    Args:
        oracle: metered input access.
        rng: randomness source.
        multiplicity: a known lower bound ℓ on how many indices attain the
            minimum; the budget shrinks by √ℓ (Lemma 3, second part).
        key: comparison key applied to oracle values (e.g. ``lambda v: -v``
            turns this into maximum finding; infinities mark invalid).
    """
    k = oracle.k
    p = oracle.ledger.parallelism
    start = oracle.ledger.batches

    if p >= k:
        values = oracle.query_batch(range(k), label="min-full")
        best = min(range(k), key=lambda i: key(values[i]))
        return MinimumOutcome(best, values[best], oracle.ledger.batches - start, 0)

    # Initial threshold: one batch over a random subset.
    subset = _sample_subset(rng, k, p)
    values = oracle.query_batch(subset, label="min-init")
    best_pos = min(range(len(subset)), key=lambda i: key(values[i]))
    best_index, best_value = subset[best_pos], values[best_pos]
    updates = 0

    keys = _Keys([key(v) for v in oracle.peek_all()])
    budget = math.ceil(BUDGET_FACTOR * expected_batches(k, p, multiplicity)) + 5
    m = 1.0
    m_cap = 2.0 * math.sqrt(k / p) + 1.0
    while oracle.ledger.batches - start < budget:
        marked = keys.below(key(best_value))
        if not len(marked):
            # The threshold is already the minimum; remaining budget would
            # be spent confirming.  A real run cannot know this, so we
            # keep paying search costs until a confirmation cutoff — the
            # same 3×-expectation Markov cutoff as Lemma 2 — then stop.
            confirm = math.ceil(
                3 * math.sqrt(k / (max(multiplicity, 1) * p))
            ) + 2
            remaining = min(confirm, budget - (oracle.ledger.batches - start))
            for _ in range(max(0, remaining)):
                oracle.query_batch(
                    _sample_subset(rng, k, p), label="min-confirm"
                )
            break

        f = marked_subset_fraction(k, len(marked), p)
        theta = math.asin(math.sqrt(f))
        j = int(rng.integers(0, max(1, math.ceil(m))))
        j = min(j, budget - (oracle.ledger.batches - start))
        improved = False
        for _ in range(j):
            batch = _sample_subset(rng, k, p)
            batch_values = oracle.query_batch(batch, label="min-iterate")
            # Free classical use of measured registers: a batch may reveal
            # a better threshold directly.
            pos = min(range(len(batch)), key=lambda i: key(batch_values[i]))
            if key(batch_values[pos]) < key(best_value):
                best_index, best_value = batch[pos], batch_values[pos]
                improved = True
        if improved:
            updates += 1
            m = 1.0
            continue
        if oracle.ledger.batches - start >= budget:
            break
        if rng.random() < math.sin((2 * j + 1) * theta) ** 2:
            subset = _sample_marked_subset(rng, k, p, marked)
            values = oracle.query_batch(subset, label="min-verify")
            pos = min(range(len(subset)), key=lambda i: key(values[i]))
            if key(values[pos]) < key(best_value):
                best_index, best_value = subset[pos], values[pos]
                updates += 1
            m = 1.0
        else:
            oracle.query_batch(_sample_subset(rng, k, p), label="min-verify")
            m = min(6 / 5 * m, m_cap)

    return MinimumOutcome(
        best_index, best_value, oracle.ledger.batches - start, updates
    )


def find_maximum(
    oracle: BatchOracle,
    rng: np.random.Generator,
    multiplicity: int = 1,
) -> MinimumOutcome:
    """Lemma 3's 'equivalently, the maximum': minimum under a negated key."""
    outcome = find_minimum(
        oracle, rng, multiplicity=multiplicity, key=_NegatedKey()
    )
    return outcome


class _NegatedKey:
    """Order-reversing key that tolerates mixed int/float values."""

    def __call__(self, v):
        return -float(v)


#: Ints and floats below this magnitude convert to float64 exactly, so
#: numpy compares any mix of them exactly.
_EXACT = 2**53


class _Keys:
    """One call's keys, applied once, with an exact "which are below" scan.

    :meth:`below` is one array comparison when every finite key is an int
    or a float of magnitude under 2**53, as is the threshold.  Otherwise
    (ints beyond that mixed with floats, keys that are not numbers) it
    scans the keys one by one, as the comparison ``key < threshold``
    itself would.  Either way it returns the ascending indices of the keys
    below the threshold.
    """

    def __init__(self, keys: list):
        self.keys = keys
        self.array = _key_array(keys)

    def below(self, threshold) -> Sequence[int]:
        if self.array is not None and _exact(threshold):
            return np.flatnonzero(self.array < threshold)
        return [i for i, v in enumerate(self.keys) if v < threshold]


def _key_array(keys: list) -> Optional[np.ndarray]:
    """``keys`` as an array that compares exactly, or None."""
    try:
        array = np.asarray(keys)
    except (TypeError, ValueError):  # ragged: keys of unequal shapes
        return None
    if array.ndim != 1 or array.dtype.kind not in "biuf":
        return None
    finite = array[np.isfinite(array)] if array.dtype.kind == "f" else array
    if finite.size and not (-_EXACT < finite.min() and finite.max() < _EXACT):
        return None
    return array


def _exact(threshold) -> bool:
    """Does ``threshold`` compare exactly against a :class:`_Keys` array?"""
    if isinstance(threshold, (float, np.floating)):
        return not math.isfinite(threshold) or abs(threshold) < _EXACT
    return (
        isinstance(threshold, (int, np.integer))
        and -_EXACT < threshold < _EXACT
    )

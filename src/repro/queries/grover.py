"""Lemma 2: parallel-query Grover search.

The paper's improvement over the split-into-p-parts approach of
[Zal99; GR04] is to run one Grover search over *p-subsets* of [k]: a
subset is marked iff it contains a marked index, so the marked fraction is
f = 1 − C(k−t, p)/C(k, p) ≥ min(1, tp/k)/e and a single parallel query
(one application of O^{⊗p}) fully evaluates a subset.  BBHT exponential
search then finds a marked subset in O(√(1/f)) = O(⌈√(k/(tp))⌉) batches
in expectation, and Markov's cutoff at 3× the t=1 expectation makes the
worst case O(⌈√(k/p)⌉) with failure probability ≤ 1/3.

Emulation fidelity (Level S, see DESIGN.md §3): every Grover iteration is
metered as one batch of p queries through the oracle; the measurement
outcome is sampled from the *exact* amplitude law sin²((2j+1)·asin(√f)) —
the same law validated against the statevector simulator in
``tests/quantum`` — and any reported index is re-verified with a metered
query batch before being returned.

The legacy split-input strategy is also provided (:func:`find_one_split`)
for the E1 ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .oracle import BatchOracle, MaskedOracle

#: Cutoff multiplier implementing the paper's "stopping any of the
#: algorithms after 3 times their expected number" Markov argument (the
#: extra headroom covers the BBHT constant).
CUTOFF_FACTOR = 9.0


@dataclass
class SearchOutcome:
    """Result of a parallel Grover search."""

    index: Optional[int]
    value: object = None
    batches_used: int = 0

    @property
    def found(self) -> bool:
        return self.index is not None


def marked_subset_fraction(k: int, t: int, p: int) -> float:
    """f = 1 − C(k−t, p)/C(k, p): probability a random p-subset is marked."""
    if t <= 0:
        return 0.0
    if p >= k - t + 1:
        return 1.0
    log_unmarked = 0.0
    for i in range(p):
        log_unmarked += math.log((k - t - i) / (k - i))
    return -math.expm1(log_unmarked)


def expected_batches_one(k: int, t: int, p: int) -> float:
    """The paper's O(⌈√(k/(tp))⌉) expectation (up to the hidden constant)."""
    f = marked_subset_fraction(k, max(t, 1), p)
    return max(1.0, math.sqrt(1.0 / f)) if f > 0 else float("inf")


def expected_batches_all(k: int, t: int, p: int) -> float:
    """The paper's O(√(kt/p) + t) bound for finding all marked indices."""
    return sum(
        max(1.0, math.sqrt(k / (p * tau))) for tau in range(1, t + 1)
    ) + t


def _sample_subset(rng: np.random.Generator, k: int, p: int) -> List[int]:
    return list(rng.choice(k, size=min(p, k), replace=False))


def _sample_marked_subset(
    rng: np.random.Generator, k: int, p: int, marked: Sequence[int]
) -> List[int]:
    """A p-subset guaranteed to contain a marked index.

    Approximates the conditional distribution of a uniformly random marked
    subset: one uniformly random marked index plus p−1 others.
    """
    anchor = int(rng.choice(marked))
    others = np.delete(np.arange(k), anchor)
    rest = list(rng.choice(others, size=min(p, k) - 1, replace=False))
    subset = rest + [anchor]
    rng.shuffle(subset)
    return subset


def _marked_indices(oracle: BatchOracle, predicate: Callable) -> List[int]:
    """Physics peek: which indices are marked (outcome simulation only)."""
    return [i for i, v in enumerate(oracle.peek_all()) if predicate(v)]


def find_one(
    oracle: BatchOracle,
    predicate: Callable,
    rng: np.random.Generator,
    growth: float = 6 / 5,
) -> SearchOutcome:
    """Find one index with ``predicate(x_i)`` true, or report none exists.

    A (O(⌈√(k/(tp))⌉), p)-parallel-query algorithm with success
    probability ≥ 2/3 (Lemma 2, first part).
    """
    k = oracle.k
    p = oracle.ledger.parallelism
    start = oracle.ledger.batches

    if p >= k:
        values = oracle.query_batch(range(k), label="grover-full")
        for i, v in enumerate(values):
            if predicate(v):
                return SearchOutcome(i, v, oracle.ledger.batches - start)
        return SearchOutcome(None, None, oracle.ledger.batches - start)

    marked = _marked_indices(oracle, predicate)
    f = marked_subset_fraction(k, len(marked), p)
    theta = math.asin(math.sqrt(f)) if f > 0 else 0.0

    cutoff = math.ceil(CUTOFF_FACTOR * math.sqrt(k / p)) + 3
    m = 1.0
    m_cap = 2.0 * math.sqrt(k / p) + 1.0
    while oracle.ledger.batches - start < cutoff:
        j = int(rng.integers(0, max(1, math.ceil(m))))
        j = min(j, cutoff - (oracle.ledger.batches - start))
        for _ in range(j):
            oracle.query_batch(_sample_subset(rng, k, p), label="grover-iterate")
        success = marked and rng.random() < math.sin((2 * j + 1) * theta) ** 2
        if oracle.ledger.batches - start >= cutoff:
            break
        if success:
            subset = _sample_marked_subset(rng, k, p, marked)
        else:
            subset = _sample_subset(rng, k, p)
        values = oracle.query_batch(subset, label="grover-verify")
        hits = [
            (i, v) for i, v in zip(subset, values, strict=True) if predicate(v)
        ]
        if hits:
            i, v = hits[int(rng.integers(0, len(hits)))]
            return SearchOutcome(i, v, oracle.ledger.batches - start)
        m = min(growth * m, m_cap)
    return SearchOutcome(None, None, oracle.ledger.batches - start)


def find_all(
    oracle: BatchOracle,
    predicate: Callable,
    rng: np.random.Generator,
    unmarked_value,
    confirmations: int = 2,
) -> Tuple[List[SearchOutcome], int]:
    """Find all marked indices (Lemma 2, second part).

    Runs :func:`find_one` repeatedly, masking found indices with
    ``unmarked_value`` (which must make ``predicate`` false), until
    ``confirmations`` consecutive searches report nothing.  Expected
    batches O(√(kt/p) + t).

    Returns:
        (list of found outcomes, total batches used).
    """
    if predicate(unmarked_value):
        raise ValueError("unmarked_value must not satisfy the predicate")
    start = oracle.ledger.batches
    found: List[SearchOutcome] = []
    found_set: Set[int] = set()
    misses = 0
    while misses < confirmations and len(found_set) < oracle.k:
        view = MaskedOracle(oracle, found_set, unmarked_value)
        outcome = find_one(view, predicate, rng)
        if outcome.found:
            misses = 0
            if outcome.index not in found_set:
                found_set.add(outcome.index)
                found.append(outcome)
        else:
            misses += 1
    return found, oracle.ledger.batches - start


def find_one_split(
    oracle: BatchOracle,
    predicate: Callable,
    rng: np.random.Generator,
) -> SearchOutcome:
    """The [Zal99; GR04] baseline: split [k] into p parts, Grover each.

    Ablation comparator for E1.  The split strategy commits to a fixed
    schedule up front: every part runs ⌈log(3p)⌉ repetitions of a
    full-length Grover search (so that each part fails with probability
    ≤ 1/(3p) and a union bound covers all p parts simultaneously) — the
    extra log(p) factor the paper's subset strategy avoids.  Because the
    parts run in lockstep and must all be driven to high confidence, no
    early exit is possible; every scheduled iteration is a metered batch.
    """
    k = oracle.k
    p = oracle.ledger.parallelism
    start = oracle.ledger.batches
    if p >= k:
        return find_one(oracle, predicate, rng)

    marked = set(_marked_indices(oracle, predicate))
    parts = np.array_split(np.arange(k), p)
    part_size = max(len(part) for part in parts)
    repetitions = max(1, math.ceil(math.log(3 * p)))
    # Without knowing t a part commits to the t = 1 iteration count; the
    # repetitions cover the failure probability.
    per_run = max(1, int(math.floor(math.pi / 4 * math.sqrt(part_size))))

    # The whole schedule is paid regardless of outcomes.
    for _ in range(repetitions * per_run):
        batch = [int(rng.choice(part)) for part in parts]
        oracle.query_batch(batch, label="grover-split")

    # Outcome: the part holding marked items succeeds per repetition with
    # the exact amplitude law; any repetition succeeding suffices.
    hit: Optional[int] = None
    for part in parts:
        candidates = [i for i in part if i in marked]
        if not candidates:
            continue
        theta = math.asin(math.sqrt(len(candidates) / len(part)))
        p_run = math.sin((2 * per_run + 1) * theta) ** 2
        if rng.random() < 1.0 - (1.0 - p_run) ** repetitions:
            hit = int(rng.choice(candidates))
            break

    # One final verification batch reads every part's measured index.
    verify = [int(rng.choice(part_ids)) for part_ids in parts]
    if hit is not None:
        verify[0] = hit
    values = oracle.query_batch(verify, label="grover-split-verify")
    if hit is not None and predicate(values[0]):
        return SearchOutcome(hit, values[0], oracle.ledger.batches - start)
    return SearchOutcome(None, None, oracle.ledger.batches - start)

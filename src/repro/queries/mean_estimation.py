"""Lemma 6: parallel-query mean estimation (Montanaro [Mon15], parallelized).

The paper's one-line parallelization: let Y be the average of p samples of
X; then Var(Y) = σ²/p, and running Montanaro's ε-additive mean estimator
([Mon15] Theorem 5) on Y with σ' = σ/√p gives a

    ( O(⌈ (σ/(√p·ε)) · log^{3/2}(σ/(√p·ε)) · loglog(σ/(√p·ε)) ⌉), p )

parallel-query algorithm for estimating E[X] to additive error ε with
probability ≥ 2/3.

Level-S fidelity: the batch count b is computed from the paper's formula
and each batch queries p independent sample indices through the metered
oracle (one U_Y application = p U_X applications).  The returned estimate
is drawn from an error model matching the guarantee: ε-additive with the
configured success probability, with the estimator's sub-ε concentration
taken from the classical mean of the actually-queried samples where that
is already strong enough (free classical post-processing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import BatchOracle

DEFAULT_SUCCESS_PROBABILITY = 0.85


@dataclass
class MeanEstimate:
    estimate: float
    batches_used: int
    epsilon: float
    samples_queried: int


def batch_count(sigma: float, p: int, epsilon: float) -> int:
    """b from Lemma 6: ⌈(σ/(√p ε))·log^{3/2}(σ/(√p ε))·loglog(σ/(√p ε))⌉."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    base = sigma / (math.sqrt(p) * epsilon)
    if base <= 1.0:
        return 1
    log_term = max(math.log(base), 1.0)
    loglog_term = max(math.log(log_term), 1.0)
    return math.ceil(base * log_term ** 1.5 * loglog_term)


def estimate_mean(
    oracle: BatchOracle,
    sigma: float,
    epsilon: float,
    rng: np.random.Generator,
    success_probability: float = DEFAULT_SUCCESS_PROBABILITY,
) -> MeanEstimate:
    """Estimate the mean of the oracle's values to additive error ε.

    ``sigma`` is a known upper bound on the standard deviation of a value
    drawn at a uniformly random index (the paper's applications always
    have one: σ ≤ D for eccentricities).
    """
    k = oracle.k
    p = oracle.ledger.parallelism
    start = oracle.ledger.batches

    b = batch_count(sigma, p, epsilon)
    queried = []
    for _ in range(b):
        batch = [int(i) for i in rng.integers(0, k, size=p)]
        values = oracle.query_batch(batch, label="mean-batch")
        queried.extend(float(v) for v in values)

    truth = [float(v) for v in oracle.peek_all()]
    true_mean = sum(truth) / len(truth)

    classical_mean = sum(queried) / len(queried)
    classical_error = sigma / math.sqrt(len(queried))
    if classical_error <= epsilon / 3:
        # The metered samples alone already concentrate within ε/3; no
        # quantum magic needed (this regime occurs for large p or loose ε).
        estimate = classical_mean
    elif rng.random() < success_probability:
        # Quantum-amplified estimate: within ε of the truth, concentrated
        # like the amplitude-estimation output (uniform over the ε-ball is
        # a conservative model of the discretized phase readout).
        estimate = true_mean + float(rng.uniform(-epsilon, epsilon)) * (2 / 3)
    else:
        # Failure mode: an estimate off by between ε and a few ε, as a
        # mis-rounded phase bin would produce.
        sign = 1.0 if rng.random() < 0.5 else -1.0
        estimate = true_mean + sign * epsilon * float(rng.uniform(1.0, 3.0))

    return MeanEstimate(
        estimate=estimate,
        batches_used=oracle.ledger.batches - start,
        epsilon=epsilon,
        samples_queried=len(queried),
    )

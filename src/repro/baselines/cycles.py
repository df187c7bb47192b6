"""Classical CONGEST baseline for bounded-length cycle detection and girth.

The classical analogue of Lemma 23 replaces the parallel quantum minimum
finding in the heavy phase with classical sampling: to hit one of the
≥ n^β vertices adjacent to a heavy cycle one needs Θ(n^{1−β}) samples in
expectation, evaluated in groups of p at α(p) = p + k rounds each, so the
heavy phase costs Θ((n^{1−β}/p)·(D + p + k)) rounds.  With the light phase
unchanged and the same balancing freedom, the classical total is

    O(D + n^{1 − 1/Θ(k)})     vs. quantum O(D + (Dn)^{1/2 − 1/Θ(k)}),

and for girth the classical lower bound is Ω(√n) [FHW12] — the E12/E13
separations.  ``detect_cycle_classical`` mirrors the quantum code path so
the two measure the same workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..analysis.graphtruth import cycle_value, girth as true_girth
from ..apps.cycles import light_cycle_scan
from ..congest.network import Network


@dataclass
class ClassicalCycleResult:
    length: Optional[int]
    rounds: int
    light_rounds: int
    heavy_rounds: int
    beta: float

    @property
    def found(self) -> bool:
        return self.length is not None


def classical_balanced_beta(n: int, k: int) -> float:
    """Balance light O(n^{⌈k/2⌉β}) against classical heavy O(n^{1−β})."""
    beta = 1.0 / (1.0 + math.ceil(k / 2))
    return min(max(beta, 1.0 / math.log2(max(n, 4))), 1.0)


def classical_cycle_bound(n: int, k: int) -> float:
    """k + n^{1 − 1/(⌈k/2⌉+1)} — the classical balanced cost."""
    return k + n ** (1.0 - 1.0 / (math.ceil(k / 2) + 1))


def detect_cycle_classical(
    network: Network,
    k: int,
    seed: Optional[int] = None,
    beta: Optional[float] = None,
    parallelism: Optional[int] = None,
) -> ClassicalCycleResult:
    """Classical light/heavy cycle detection, w.p. ≥ 2/3.

    Heavy phase: sample vertices uniformly, evaluate their cycle values in
    groups of p (each group α(p) = p + k rounds plus a D-round drain),
    stop after 3·n^{1−β} samples (Markov cutoff).
    """
    if k < 3:
        raise ValueError("cycle length bound must be >= 3")
    rng = np.random.default_rng(seed)
    k_eff = min(k, 2 * max(network.diameter, 1) + 1)
    if beta is None:
        beta = classical_balanced_beta(network.n, k_eff)
    p = parallelism if parallelism is not None else max(network.diameter, 1)

    light_len, light_rounds = light_cycle_scan(network, k_eff, beta)

    sentinel = k_eff + 1
    budget_samples = math.ceil(3 * network.n ** (1 - beta)) + p
    cache: dict = {}
    best = sentinel
    heavy_rounds = 2 * max(network.diameter, 1)  # leader election + BFS tree
    drawn = 0
    while drawn < budget_samples:
        group = [int(s) for s in rng.integers(0, network.n, size=p)]
        drawn += p
        heavy_rounds += p + k_eff + max(network.diameter, 1)
        for s in group:
            value = cycle_value(network.graph, s, k_eff, cache)
            best = min(best, value)
        if best <= k_eff and drawn >= p:
            # A found cycle is verified and search may stop early —
            # matching the quantum code path's one-sided behaviour.
            break
    heavy_len = best if best <= k_eff else None

    candidates = [l for l in (light_len, heavy_len) if l is not None]
    return ClassicalCycleResult(
        length=min(candidates) if candidates else None,
        rounds=light_rounds + heavy_rounds,
        light_rounds=light_rounds,
        heavy_rounds=heavy_rounds,
        beta=beta,
    )


def compute_girth_classical(
    network: Network,
    seed: Optional[int] = None,
    mu: float = 1.0,
    max_k: Optional[int] = None,
) -> Tuple[Optional[int], int]:
    """Classical geometric girth search (same outer loop as Corollary 26).

    Returns (girth or None, rounds).  The triangle phase is charged at the
    classical Õ(n^{1/3}) bound [CFGGLO20-style] instead of the quantum
    n^{1/5}.
    """
    log_n = max(1, math.ceil(math.log2(max(network.n, 2))))
    rounds = math.ceil(network.n ** (1 / 3)) * log_n
    g = true_girth(network.graph)
    if g == 3:
        return 3, rounds
    limit = max_k if max_k is not None else network.n
    k = 4.0
    while True:
        k_int = min(int(math.floor(k)), limit)
        result = detect_cycle_classical(network, k_int, seed=seed)
        rounds += result.rounds
        if result.length is not None:
            return result.length, rounds
        if k_int >= limit:
            return None, rounds
        k *= 1 + mu

"""Lemmas 20–22: diameter, radius, and average eccentricity.

The graph-theoretic flagship of the framework.  The query string is the
vector of node eccentricities (k = n, x_j = ε(j)); values are not known in
advance but computable on the fly: Lemma 20 ([PRT12; HW12]) computes the
eccentricities of any p nodes in α(p) = O(p + D) classical rounds via
pipelined multi-source BFS.  Corollary 9 with parallel min/max finding
(Lemma 3, p = D, b = O(⌈√(n/D)⌉)) then gives

    diameter / radius:        O(√(nD)) rounds        (Lemma 21)
    ε-additive avg ecc:       Õ(D^{3/2}/ε) rounds    (Lemma 22, σ ≤ D)

recovering [LM18] for the diameter.  In ``engine`` mode the α(p) charge is
*measured* by actually running the multi-source BFS of
:mod:`repro.congest.algorithms.multibfs`; in ``formula`` mode it is
charged at p + 2D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..congest.algorithms.bfs import bfs_with_echo
from ..congest.algorithms.multibfs import eccentricities_of_sources
from ..congest.network import Network
from ..core.framework import (
    FrameworkConfig,
    FrameworkRun,
    ValueComputer,
    run_framework,
)
from ..core.semigroup import max_semigroup, min_semigroup
from ..queries import mean_estimation as parallel_mean
from ..queries import minimum as parallel_minimum


class EccentricityComputer(ValueComputer):
    """Corollary 9 value computer: x_j = ε(j), via Lemma 20.

    ``formula`` mode reads ground-truth eccentricities and charges
    α(p) = p + 2D; ``engine`` mode runs the real pipelined multi-source
    BFS + tree aggregation and uses the measured rounds.
    """

    def __init__(self, network: Network, mode: str, seed: Optional[int] = None):
        self.network = network
        self.mode = mode
        self.seed = seed
        self._tree = None
        self.measured_alpha: List[int] = []

    def compute(self, indices: Sequence[int]) -> Tuple[Dict[int, Dict[int, int]], int]:
        indices = list(indices)
        if self.mode == "engine":
            if self._tree is None:
                self._tree = bfs_with_echo(self.network, 0, seed=self.seed)
            eccs, rounds = eccentricities_of_sources(
                self.network, indices, self._tree, seed=self.seed
            )
            self.measured_alpha.append(rounds)
            return {j: {j: eccs[j]} for j in indices}, rounds
        truth = self.network.eccentricities
        return {j: {j: truth[j]} for j in indices}, self.alpha(len(indices))

    def alpha(self, p: int) -> int:
        if self.mode == "engine" and self.measured_alpha:
            return self.measured_alpha[-1]
        return p + 2 * max(self.network.diameter, 1)

    def fingerprint(self) -> str:
        """Content token for the coalescing scheduler's result memo.

        Eccentricities are a pure function of the topology — mode and
        seed only change round *charges*, never values — so the token
        hashes the topology alone and memo entries stay shareable
        across formula/engine runs of the same graph.
        """
        return f"eccentricity/{self.network.topology_fingerprint()}"


@dataclass
class EccentricityResult:
    value: Optional[int]
    witness: Optional[int]
    rounds: int
    batches: int
    run: FrameworkRun


def _ecc_config(
    network: Network,
    parallelism: Optional[int],
    mode: str,
    seed: Optional[int],
    config: Optional[FrameworkConfig],
) -> FrameworkConfig:
    """Fold flat parameters and an optional base config into one config.

    A caller-supplied ``config`` wins on parallelism/mode/seed (and any
    designated leader it carries); the lemma always owns the computer, k, and
    semigroup, which are overlaid by the caller afterwards.
    """
    if config is not None:
        return config.replace(
            dist_input=None,
            computer=EccentricityComputer(
                network, mode=config.mode, seed=config.seed
            ),
            k=network.n,
        )
    p = parallelism if parallelism is not None else max(network.diameter, 1)
    return FrameworkConfig(
        parallelism=p,
        computer=EccentricityComputer(network, mode=mode, seed=seed),
        k=network.n,
        mode=mode,
        seed=seed,
    )


def _extreme_eccentricity(
    network: Network,
    maximum: bool,
    parallelism: Optional[int],
    mode: str,
    seed: Optional[int],
    config: Optional[FrameworkConfig] = None,
) -> EccentricityResult:
    bound = 2 * network.n  # eccentricities are < n
    semigroup = max_semigroup(bound) if maximum else min_semigroup(bound)
    cfg = _ecc_config(network, parallelism, mode, seed, config).replace(
        semigroup=semigroup
    )

    def algorithm(oracle, rng):
        if maximum:
            return parallel_minimum.find_maximum(oracle, rng)
        return parallel_minimum.find_minimum(oracle, rng)

    run = run_framework(network, algorithm, config=cfg)
    outcome = run.result
    return EccentricityResult(
        value=outcome.value,
        witness=outcome.index,
        rounds=run.total_rounds,
        batches=run.batches,
        run=run,
    )


def compute_diameter(
    network: Network,
    parallelism: Optional[int] = None,
    mode: str = "formula",
    seed: Optional[int] = None,
    config: Optional[FrameworkConfig] = None,
) -> EccentricityResult:
    """Lemma 21 (maximum eccentricity); succeeds with probability ≥ 2/3.

    Pass ``config=FrameworkConfig(...)`` to control parallelism, mode,
    seed, and designated leader with one object (the lemma overlays its own
    computer, k, and semigroup); the flat parameters remain for
    convenience and are ignored when ``config`` is given.
    """
    return _extreme_eccentricity(network, True, parallelism, mode, seed, config)


def compute_radius(
    network: Network,
    parallelism: Optional[int] = None,
    mode: str = "formula",
    seed: Optional[int] = None,
    config: Optional[FrameworkConfig] = None,
) -> EccentricityResult:
    """Lemma 21 extension to the radius (minimum eccentricity)."""
    return _extreme_eccentricity(network, False, parallelism, mode, seed, config)


@dataclass
class AverageEccentricityResult:
    estimate: float
    epsilon: float
    rounds: int
    batches: int
    run: FrameworkRun

    def error_against(self, network: Network) -> float:
        return abs(self.estimate - network.average_eccentricity)


def estimate_average_eccentricity(
    network: Network,
    epsilon: float,
    parallelism: Optional[int] = None,
    mode: str = "formula",
    seed: Optional[int] = None,
    config: Optional[FrameworkConfig] = None,
) -> AverageEccentricityResult:
    """Lemma 22: ε-additive average eccentricity in Õ(D^{3/2}/ε) rounds.

    ε is interpreted on the natural eccentricity scale (rounds), i.e. an
    additive error of ε hops, matching the lemma.  ``config`` takes the
    same role as in :func:`compute_diameter`.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = max(network.diameter, 1)
    cfg = _ecc_config(network, parallelism, mode, seed, config).replace(
        semigroup=max_semigroup(2 * network.n)
    )

    def algorithm(oracle, rng):
        return parallel_mean.estimate_mean(
            oracle, sigma=float(d), epsilon=epsilon, rng=rng
        )

    run = run_framework(network, algorithm, config=cfg)
    est = run.result
    return AverageEccentricityResult(
        estimate=est.estimate,
        epsilon=epsilon,
        rounds=run.total_rounds,
        batches=run.batches,
        run=run,
    )


def quantum_diameter_bound(n: int, diameter: int) -> float:
    """Lemma 21: √(nD) (hidden constant 1)."""
    return math.sqrt(n * max(diameter, 1))


def quantum_avg_ecc_bound(diameter: int, epsilon: float) -> float:
    """Lemma 22: D^{3/2}/ε · log(√D/ε)·loglog(√D/ε), constants 1."""
    d = max(diameter, 1)
    base = math.sqrt(d) / epsilon
    log_term = max(math.log(max(base, math.e)), 1.0)
    loglog_term = max(math.log(max(log_term, math.e)), 1.0)
    return d ** 1.5 / epsilon * log_term * loglog_term + d

"""Section 6: non-oracle techniques in Quantum CONGEST.

Lemmas 27–30 implement amplitude amplification, phase estimation, and
amplitude estimation for *black-box distributed subroutines* that are not
standard oracles: a subroutine U_{|ψ>} preparing a success-flagged state
shared across the network in R rounds.

The CONGEST constructions add only reflections (the "all registers zero?"
AND needs O(D)) and Lemma 7 register sharing, giving:

* Lemma 27/Corollary 28 — amplification: O((R + D)·(1/√p)·log(1/δ)).
* Lemma 29 — phase estimation: O((R/ε)·log(1/δ) + D).
* Corollary 30 — amplitude estimation: O((R + D)·(√p_max/ε)·log(1/δ)).

We model a distributed subroutine by its round cost R and success
probability p; the iterate dynamics follow the exact sin((2j+1)θ) law
(validated against :mod:`repro.quantum.amplitude` in tests), and outcomes
are sampled accordingly while rounds are charged per the lemmas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..congest.network import Network
from ..quantum.amplitude import theoretical_amplified_probability


@dataclass
class DistributedSubroutine:
    """A black-box CONGEST subroutine U_{|ψ>} (Lemma 27's setting).

    Attributes:
        rounds: R, the cost of one application (and of its inverse).
        success_probability: p, the squared amplitude of the good part.
    """

    rounds: int
    success_probability: float

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if not 0 <= self.success_probability <= 1:
            raise ValueError("success probability must lie in [0, 1]")


@dataclass
class AmplifiedOutcome:
    succeeded: bool
    rounds: int
    iterations: int
    repetitions: int


def iterate_rounds(network: Network, subroutine: DistributedSubroutine) -> int:
    """Lemma 27: one amplification iterate costs O(R + D) rounds.

    2 applications of U (forward + inverse), the good-part Z (free,
    local), and the distributed all-zero reflection (AND to the leader and
    back: 2D).
    """
    return 2 * subroutine.rounds + 2 * max(network.diameter, 1)


def amplify(
    network: Network,
    subroutine: DistributedSubroutine,
    delta: float,
    rng: np.random.Generator,
) -> AmplifiedOutcome:
    """Corollary 28: obtain the good state w.p. ≥ 1 − δ.

    Repeats optimally-tuned amplification O(log 1/δ) times, checking the
    flag (O(D) rounds) after each attempt; outcome probabilities follow
    the exact amplification law.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    p = subroutine.success_probability
    d = max(network.diameter, 1)
    if p == 0:
        reps = math.ceil(math.log(1.0 / delta))
        return AmplifiedOutcome(False, reps * (subroutine.rounds + 3 * d), 0, reps)

    theta = math.asin(math.sqrt(p))
    iterations = max(0, int(math.floor(math.pi / (4 * theta))))
    p_amp = theoretical_amplified_probability(p, iterations)
    log_miss = max(-math.log(max(1 - p_amp, 1e-12)), 1e-12)
    repetitions = max(1, math.ceil(math.log(1.0 / delta) / log_miss))
    repetitions = min(repetitions, math.ceil(3 * math.log(1.0 / delta)) + 1)

    per_attempt = subroutine.rounds + iterations * iterate_rounds(network, subroutine) + 2 * d
    rounds = 0
    for attempt in range(1, repetitions + 1):
        rounds += per_attempt
        if rng.random() < p_amp:
            return AmplifiedOutcome(True, rounds, iterations, attempt)
    return AmplifiedOutcome(False, rounds, iterations, repetitions)


def amplification_round_bound(
    network: Network, subroutine: DistributedSubroutine, delta: float
) -> float:
    """Corollary 28's bound (R + D)·(1/√p)·log(1/δ), constants 1."""
    p = max(subroutine.success_probability, 1e-12)
    return (
        (subroutine.rounds + max(network.diameter, 1))
        / math.sqrt(p)
        * math.log(1.0 / delta)
    )


@dataclass
class PhaseOutcome:
    theta_estimate: float
    rounds: int
    repetitions: int


def estimate_phase_distributed(
    network: Network,
    unitary_rounds: int,
    true_theta: float,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> PhaseOutcome:
    """Lemma 29: the leader learns θ to ±ε w.p. ≥ 1 − δ.

    The network applies U^k for superposed k = 1..O(1/ε) (Lemma 7 shares
    the k register: D + log(1/ε) extra), so one run costs O(R/ε + D); the
    leader medians O(log 1/δ) runs.  Outcomes follow the standard QPE
    readout distribution (discretized phase bin ± rounding, validated
    against :mod:`repro.quantum.phase_estimation`).
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    t_bins = 1 << max(1, math.ceil(math.log2(1.0 / epsilon)) + 1)
    repetitions = max(1, math.ceil(9 * math.log(1.0 / delta)) | 1)
    samples = []
    for _ in range(repetitions):
        # QPE readout: nearest bin w.p. ≥ 8/π² split across the two
        # adjacent bins; model as nearest bin w.p. 0.81 else uniform
        # among the two next-nearest (a conservative discretization of
        # the sinc² tail).
        exact_bin = true_theta * t_bins
        lo = math.floor(exact_bin)
        roll = rng.random()
        if roll < 0.81:
            bin_choice = round(exact_bin)
        elif roll < 0.905:
            bin_choice = lo - 1
        else:
            bin_choice = lo + 2
        samples.append((bin_choice % t_bins) / t_bins)
    samples.sort()
    median = samples[len(samples) // 2]
    unitary_applications = t_bins  # Σ 2^j over the t ancillas ≈ 2^t
    rounds = (
        repetitions * unitary_applications * unitary_rounds
        + 2 * max(network.diameter, 1)
        + 2 * max(1, math.ceil(math.log2(t_bins)))
    )
    return PhaseOutcome(theta_estimate=median, rounds=rounds, repetitions=repetitions)


def phase_estimation_round_bound(
    network: Network, unitary_rounds: int, epsilon: float, delta: float
) -> float:
    """Lemma 29: (R/ε)·log(1/δ) + D, constants 1."""
    return unitary_rounds / epsilon * math.log(1.0 / delta) + max(
        network.diameter, 1
    )


@dataclass
class AmplitudeEstimateOutcome:
    p_estimate: float
    rounds: int


def estimate_amplitude_distributed(
    network: Network,
    subroutine: DistributedSubroutine,
    p_max: float,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> AmplitudeEstimateOutcome:
    """Corollary 30: estimate p to ±ε w.p. ≥ 1 − δ.

    Phase estimation on the amplification iterate; the θ-to-p conversion
    means only √p_max/ε iterations are needed [BHMT02].
    """
    if not 0 < p_max <= 1:
        raise ValueError("p_max must be in (0, 1]")
    p = subroutine.success_probability
    if p > p_max:
        raise ValueError("subroutine success probability exceeds p_max")
    theta = math.asin(math.sqrt(p)) / math.pi  # eigenphase of the iterate, in [0, 1/2)
    # Angular precision needed for |p̂ − p| ≤ ε near p ≤ p_max.
    eps_theta = epsilon / (2 * math.pi * math.sqrt(max(p_max, epsilon)))
    phase = estimate_phase_distributed(
        network,
        unitary_rounds=iterate_rounds(network, subroutine),
        true_theta=theta,
        epsilon=eps_theta,
        delta=delta,
        rng=rng,
    )
    p_hat = math.sin(math.pi * phase.theta_estimate) ** 2
    return AmplitudeEstimateOutcome(p_estimate=p_hat, rounds=phase.rounds)


def amplitude_estimation_round_bound(
    network: Network,
    subroutine: DistributedSubroutine,
    p_max: float,
    epsilon: float,
    delta: float,
) -> float:
    """Corollary 30: (R + D)·(√p_max/ε)·log(1/δ), constants 1."""
    return (
        (subroutine.rounds + max(network.diameter, 1))
        * math.sqrt(p_max)
        / epsilon
        * math.log(1.0 / delta)
    )

"""The "Mind the Õ" axis: round duels re-priced in wall-clock time.

Kerger, Paler et al. (PAPERS.md) observe that the distributed-quantum
literature's round-complexity wins can evaporate in practice: a quantum
CONGEST round pays entanglement distribution, transduction, and error
correction that the Õ hides, so an O(√(nD))-round algorithm on a slow
quantum link can lose outright to the Θ(n)-round classical baseline on
commodity fiber.  This module makes that critique quantitative for the
repository's duels (E20 diameter, E21 APSP, cycle detection):

* :func:`price_duel` re-denominates one
  :class:`~repro.apps.diameter.DiameterDuel` from rounds into
  microseconds under a pair of :class:`~repro.core.cost.LinkCostModel`\\ s
  (one classical, one quantum);
* :func:`break_even_premium` computes f*(n) — the largest per-round
  quantum premium at which the quantum side still wins at size n; the
  quantum advantage is *practical* only where the real premium sits
  below this curve, and since f*(n) grows like the round-ratio
  (≈ √(n/D) for diameter), every premium is eventually beaten;
* :func:`crossover_report` fits both curves and reports the two regimes
  the acceptance criterion asks for: the rounds-advantage crossover
  (quantum wins rounds from n₀) and the latency-dominated wall-clock
  crossover (quantum wins *time* only from the typically much larger
  n₁, or nowhere in the swept range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..analysis.fitting import PowerLawFit, fit_power_law
from ..apps.diameter import DiameterDuel, crossover_n
from ..core.cost import LinkCostModel

__all__ = [
    "WallClockDuel",
    "price_duel",
    "price_duels",
    "break_even_premium",
    "wall_clock_crossover_n",
    "CrossoverReport",
    "crossover_report",
]


def _word_bits(n: int) -> int:
    """The CONGEST word size at n nodes: ⌈log2 n⌉ bits."""
    return max(1, math.ceil(math.log2(max(n, 2))))


@dataclass(frozen=True)
class WallClockDuel:
    """One duel re-priced in microseconds under explicit link models.

    Attributes:
        n: network size.
        diameter: true diameter.
        quantum_rounds / classical_rounds: the round-denominated duel.
        quantum_us / classical_us: the same duel priced on the quantum
            and classical links respectively.
        premium: the per-round price ratio quantum/classical at this n's
            word size — the f of "Mind the Õ".
        break_even_premium: f*(n) = classical_rounds / quantum_rounds;
            the quantum side wins wall-clock iff premium < f*(n).
    """

    n: int
    diameter: int
    quantum_rounds: float
    classical_rounds: int
    quantum_us: float
    classical_us: float
    premium: float
    break_even_premium: float

    @property
    def quantum_wins_wall_clock(self) -> bool:
        return self.quantum_us < self.classical_us


def break_even_premium(duel: DiameterDuel) -> float:
    """f*(n): the largest per-round quantum premium that still wins.

    With both sides priced per round, quantum wall clock beats classical
    exactly when ``premium × quantum_rounds < classical_rounds``, i.e.
    when the premium is below the round ratio.
    """
    return duel.classical_rounds / max(duel.quantum_rounds, 1e-12)


def price_duel(
    duel: DiameterDuel,
    classical_link: LinkCostModel,
    quantum_link: LinkCostModel,
) -> WallClockDuel:
    """Re-denominate one round duel into microseconds on real links."""
    bits = _word_bits(duel.n)
    classical_round = classical_link.round_time_us(bits)
    quantum_round = quantum_link.round_time_us(bits)
    return WallClockDuel(
        n=duel.n,
        diameter=duel.diameter,
        quantum_rounds=duel.quantum_rounds,
        classical_rounds=duel.classical_rounds,
        quantum_us=duel.quantum_rounds * quantum_round,
        classical_us=duel.classical_rounds * classical_round,
        premium=quantum_round / classical_round,
        break_even_premium=break_even_premium(duel),
    )


def price_duels(
    duels: Sequence[DiameterDuel],
    classical_link: LinkCostModel,
    quantum_link: LinkCostModel,
) -> List[WallClockDuel]:
    """Price every duel of a sweep on the same link pair."""
    return [price_duel(d, classical_link, quantum_link) for d in duels]


def wall_clock_crossover_n(priced: Sequence[WallClockDuel]) -> Optional[int]:
    """Smallest swept n from which the quantum side wins *wall clock*
    at every subsequent point (None if it never does)."""
    winner = None
    for duel in priced:
        if duel.quantum_wins_wall_clock:
            if winner is None:
                winner = duel.n
        else:
            winner = None
    return winner


@dataclass(frozen=True)
class CrossoverReport:
    """The two-regime summary of one priced sweep.

    Attributes:
        rounds_crossover_n: where quantum starts winning rounds.
        wall_clock_crossover_n: where it starts winning microseconds
            under the given links (None: latency-dominated everywhere in
            the swept range).
        premium: the per-round quantum premium at the largest swept n.
        break_even_fit: power-law fit of f*(n); its exponent is the rate
            at which growing instances forgive the quantum premium
            (≈ 1/2 for the diameter duel's √(nD) vs Θ(n)).
        predicted_crossover_n: n where the fitted f*(n) first exceeds the
            premium — the extrapolated practical crossover when the swept
            range never reaches it (None if the fit cannot say).
    """

    rounds_crossover_n: Optional[int]
    wall_clock_crossover_n: Optional[int]
    premium: float
    break_even_fit: Optional[PowerLawFit]
    predicted_crossover_n: Optional[int]
    max_swept_n: int = 0

    #: A predicted wall-clock crossover within this factor of the swept
    #: range still counts as "in reach"; beyond it the premium has pushed
    #: the practical win out of the regime the sweep speaks for.
    REACH_FACTOR = 10

    @property
    def latency_dominated(self) -> bool:
        """True when the quantum round win never pays off in time.

        Wall-clock crossover neither measured in the swept range nor
        predicted within :data:`REACH_FACTOR` of it — the mature-link
        case (crossover just past the sweep) is *not* latency-dominated,
        the near-term case (crossover at ~10^8 nodes) is.
        """
        if self.rounds_crossover_n is None:
            return False
        if self.wall_clock_crossover_n is not None:
            return False
        return (
            self.predicted_crossover_n is None
            or self.predicted_crossover_n
            > self.REACH_FACTOR * self.max_swept_n
        )


def crossover_report(
    duels: Sequence[DiameterDuel],
    classical_link: LinkCostModel,
    quantum_link: LinkCostModel,
) -> CrossoverReport:
    """Fit the two crossover regimes of one sweep under one link pair."""
    priced = price_duels(duels, classical_link, quantum_link)
    premium = priced[-1].premium if priced else float("nan")
    fit: Optional[PowerLawFit] = None
    predicted: Optional[int] = None
    if len(priced) >= 2:
        fit = fit_power_law(
            [d.n for d in priced], [d.break_even_premium for d in priced]
        )
        # Invert f*(n) = c·n^e at the premium: n* = (premium/c)^(1/e).
        if fit.exponent > 1e-9 and fit.coefficient > 0:
            predicted = math.ceil(
                (premium / fit.coefficient) ** (1.0 / fit.exponent)
            )
    return CrossoverReport(
        rounds_crossover_n=crossover_n(duels),
        wall_clock_crossover_n=wall_clock_crossover_n(priced),
        premium=premium,
        break_even_fit=fit,
        predicted_crossover_n=predicted,
        max_swept_n=max((d.n for d in priced), default=0),
    )

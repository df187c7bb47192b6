"""Diameter workload family: quantum Lemma 21 vs the classical control.

PR 8's first workload family.  :mod:`repro.apps.eccentricity` already
exposes :func:`~repro.apps.eccentricity.compute_diameter` (Lemma 21 /
[LM18]: O(√(nD)) rounds); this module packages it as a *head-to-head
duel* against the classical pipelined-all-BFS baseline of
:mod:`repro.baselines.diameter` on the same network, under an explicit
communication model, so experiments (E20) and benchmarks can sweep the
pair and fit both log–log exponents from one call.

The duel runs under plain CONGEST (the lemma's setting); passing a
non-default :class:`~repro.congest.models.CommModel` network is rejected
early rather than silently producing rounds that mean something else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..baselines.diameter import (
    classical_all_eccentricities,
    classical_diameter_bound,
)
from ..congest import topologies
from ..congest.errors import CongestError
from ..congest.network import Network
from ..core.framework import FrameworkConfig
from .eccentricity import compute_diameter, quantum_diameter_bound


@dataclass(frozen=True)
class DiameterDuel:
    """One network's quantum-vs-classical diameter comparison.

    Attributes:
        n: network size.
        diameter: the true diameter (ground truth).
        quantum_rounds: mean framework rounds across trials (Lemma 21).
        classical_rounds: rounds of the classical all-sources-BFS control.
        quantum_bound: √(nD), the Lemma 21 target.
        classical_bound: 2n + 3D, the [PRT12; HW12] pipelined-BFS cost.
        accuracy: fraction of trials whose diameter output was exact.
    """

    n: int
    diameter: int
    quantum_rounds: float
    classical_rounds: int
    quantum_bound: float
    classical_bound: float
    accuracy: float

    @property
    def quantum_wins(self) -> bool:
        """Whether the quantum side used strictly fewer rounds."""
        return self.quantum_rounds < self.classical_rounds


def _require_congest(network: Network) -> None:
    """Reject non-default communication models (Lemma 21 is CONGEST)."""
    if network.model.event_token:
        raise CongestError(
            f"the diameter duel is a CONGEST workload; network runs "
            f"{network.model.name!r} — build it without comm_model="
        )


def diameter_duel(
    network: Network,
    trials: int = 3,
    seed: int = 0,
    mode: str = "formula",
    config: Optional[FrameworkConfig] = None,
) -> DiameterDuel:
    """Run quantum diameter (Lemma 21) and the classical control once each.

    ``trials`` re-runs the quantum side with shifted seeds (it is a
    bounded-error algorithm) and averages the rounds; the classical side
    is deterministic.  ``config`` overlays framework knobs exactly as in
    :func:`repro.apps.eccentricity.compute_diameter`.
    """
    if trials < 1:
        raise CongestError(f"trials must be >= 1, got {trials}")
    _require_congest(network)
    base = config if config is not None else FrameworkConfig(
        parallelism=max(network.diameter, 1), mode=mode, seed=seed
    )
    q_total, exact = 0.0, 0
    for trial in range(trials):
        res = compute_diameter(network, config=base.replace(seed=seed + trial))
        q_total += res.rounds
        exact += res.value == network.diameter
    classical = classical_all_eccentricities(network, mode=mode, seed=seed)
    n, d = network.n, max(network.diameter, 1)
    return DiameterDuel(
        n=n,
        diameter=network.diameter,
        quantum_rounds=q_total / trials,
        classical_rounds=classical.rounds,
        quantum_bound=quantum_diameter_bound(n, d),
        classical_bound=classical_diameter_bound(n, d),
        accuracy=exact / trials,
    )


def sweep_diameter(
    ns: Sequence[int],
    diameter: int = 6,
    trials: int = 3,
    seed: int = 0,
    mode: str = "formula",
) -> List[DiameterDuel]:
    """Duel over a family of diameter-controlled graphs at fixed D.

    Holding D fixed while n grows is exactly the regime where the √(nD)
    quantum bound separates from the classical Θ(n): the fitted log–log
    slope of ``quantum_rounds`` should approach 1/2 while the classical
    control's approaches 1.
    """
    duels = []
    for n in ns:
        net = topologies.diameter_controlled(n, diameter, seed=seed)
        duels.append(diameter_duel(net, trials=trials, seed=seed, mode=mode))
    return duels


def crossover_n(duels: Sequence[DiameterDuel]) -> Optional[int]:
    """Smallest swept n from which the quantum side wins every duel."""
    winner = None
    for duel in duels:
        if duel.quantum_wins:
            if winner is None:
                winner = duel.n
        else:
            winner = None
    return winner

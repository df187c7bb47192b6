"""E13 — Corollary 26: girth computation, quantum vs classical.

Claims under test: correct girth with probability ≥ 2/3 and one-sided
error; quantum round bounds below the classical Ω(√n) regime for small
girth; μ trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.graphtruth import girth as true_girth
from ..analysis.report import ExperimentTable
from ..apps.girth import compute_girth, quantum_girth_bound, verify_girth
from ..baselines.cycles import compute_girth_classical
from ..congest import topologies


@dataclass
class E13Result:
    table: ExperimentTable
    soundness_violations: int


def run(quick: bool = True, seed: int = 0) -> E13Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    trials = 4 if quick else 8
    table = ExperimentTable(
        "E13",
        "Girth (Corollary 26): quantum vs classical, per girth family",
        ["graph", "n", "true girth", "hit-rate", "sound", "quantum rounds",
         "classical rounds"],
    )
    violations = 0
    cases = [
        ("petersen", topologies.petersen()),
        ("girth4", topologies.known_girth(4, copies=4, tail=4)),
        ("girth6", topologies.known_girth(6, copies=3, tail=4)),
        ("girth7", topologies.known_girth(7, copies=3, tail=4)),
        ("planted-c5", topologies.planted_cycle(120, 5, seed=seed)),
        ("incidence-g8", topologies.bipartite_incidence(3)),
    ]
    for name, net in cases:
        truth = true_girth(net.graph)
        hits, sound, q_total = 0, 0, 0.0
        for trial in range(trials):
            res = compute_girth(net, seed=seed + trial)
            q_total += res.rounds
            hits += res.girth == truth
            ok = verify_girth(net, res)
            sound += ok
            if not ok:
                violations += 1
        c_girth, c_rounds = compute_girth_classical(net, seed=seed)
        table.add_row(
            name, net.n, truth, hits / trials, sound == trials,
            q_total / trials, c_rounds,
        )

    table.add_note(
        "soundness = reported girth never undershoots the truth "
        "(one-sided error, Corollary 26)"
    )
    table.add_note(
        "bounds at n=10^6, g=4: quantum "
        f"{quantum_girth_bound(10**6, 4):.0f} vs classical Ω(√n) = 1000"
    )

    # μ trade-off on one family.
    net = topologies.known_girth(9, copies=2, tail=3)
    for mu in [1.0, 0.5, 0.25]:
        res = compute_girth(net, mu=mu, seed=seed)
        table.add_note(
            f"mu={mu}: girth {res.girth} in {res.rounds} rounds, "
            f"ks tried {res.ks_tried}"
        )
    return E13Result(table=table, soundness_violations=violations)

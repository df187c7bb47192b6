"""E22 — scenario matrix: fidelity, wall-clock crossovers, adversaries.

The paper's round counts assume perfect unit-cost links; E22 sweeps the
three axes of :mod:`repro.scenarios` and tests that the reproduction can
say *where* the asymptotic quantum win survives contact with practice:

* **fidelity axis** — link fidelity F against the Lemma 7
  re-amplification bill: the total round cost must grow monotonically as
  F drops (boosting repetitions kick in);
* **practicality axis ("Mind the Õ")** — the E20 diameter duel re-priced
  in wall-clock microseconds on explicit link models.  Claims under
  test: there is a *rounds-advantage regime* (quantum wins rounds from
  some n₀) whose practicality depends on the per-round premium — under
  the mature-quantum link the wall-clock crossover exists (measured in
  range or predicted by the fitted break-even curve f*(n)), while under
  the near-term link the same sweep is *latency-dominated* (quantum
  wins rounds yet never wall clock in the swept range);
* **adversary axis** — link flaps, node churn, and Byzantine senders as
  scenario cells fanned across :func:`repro.scenarios.run_matrix`; every
  honest cell (no Byzantine nodes) must still compute correct BFS
  distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.report import ExperimentTable
from ..apps.diameter import sweep_diameter
from ..congest import topologies
from ..core.cost import CLASSICAL_METRO, QUANTUM_MATURE, QUANTUM_NEAR_TERM
from ..parallel import TaskFailure
from ..scenarios import (
    CrossoverReport,
    Scenario,
    ScenarioOutcome,
    byzantine_nodes,
    churn_schedule,
    crossover_report,
    fidelity_sweep,
    link_flap_model,
    price_duels,
    run_matrix,
)


@dataclass
class E22Result:
    """The three-axis scenario sweep plus its crossover verdicts."""

    table: ExperimentTable
    fidelity_monotone: bool        # round bill non-decreasing as F drops
    fidelity_max_overhead: float   # bill inflation at the worst swept F
    rounds_crossover_n: Optional[int]
    mature: CrossoverReport        # wall-clock verdict, mature link
    near_term: CrossoverReport     # wall-clock verdict, near-term link
    break_even_exponent: float     # fitted slope of f*(n)
    matrix: List[ScenarioOutcome]
    honest_cells_correct: bool     # non-Byzantine cells all exact

    @property
    def mature_crossover_known(self) -> bool:
        """The mature-link wall-clock crossover is measured or predicted."""
        return (
            self.mature.wall_clock_crossover_n is not None
            or self.mature.predicted_crossover_n is not None
        )


def _fidelity_axis(table: ExperimentTable, seed: int) -> tuple:
    net = topologies.grid(3, 4)
    fidelities = [1.0, 0.999, 0.99, 0.95]
    cells = fidelity_sweep(net, fidelities, q_bits=32, seed=seed)
    for c in cells:
        table.add_row(
            "fidelity", f"F={c.fidelity:g}", c.total_rounds,
            f"S={c.security} reps={c.repetitions}",
            f"overhead x{c.overhead:.1f}",
        )
    bills = [c.total_rounds for c in cells]
    # Consecutive pairs: the shifted copy is one shorter.
    monotone = all(a <= b for a, b in zip(bills, bills[1:], strict=False))
    return monotone, cells[-1].overhead


def _matrix_axis(
    table: ExperimentTable, seed: int, jobs: int
) -> tuple:
    n = 16
    scenarios = [
        Scenario("clean"),
        Scenario(
            "flaps", fidelity=0.99,
            fault_model=link_flap_model(0.05, mean_outage_rounds=3.0),
        ),
        Scenario(
            "churn",
            crash_schedule=churn_schedule(n, 0.2, horizon=8, seed=seed),
        ),
        Scenario(
            "byzantine",
            byzantine=byzantine_nodes(n, 0.15, seed=seed),
        ),
    ]
    results = run_matrix(
        scenarios, topology="grid", n=n, seed=seed, jobs=jobs
    )
    outcomes = [r for r in results if not isinstance(r, TaskFailure)]
    for out in outcomes:
        table.add_row(
            "adversary", out.scenario, out.rounds,
            f"faults={out.dropped + out.corrupted + out.delayed}"
            f" crashes={out.crashes}",
            f"correct={out.correct} overhead x{out.overhead:.1f}",
        )
    byz = {s.name for s in scenarios if s.byzantine}
    honest_ok = (
        len(outcomes) == len(scenarios)
        and all(out.correct for out in outcomes if out.scenario not in byz)
    )
    return outcomes, honest_ok


def run(quick: bool = True, seed: int = 0) -> E22Result:
    """Run the three-axis sweep; quick mode keeps it well under a minute."""
    table = ExperimentTable(
        "E22",
        "Scenario matrix: fidelity bill, wall-clock crossovers, adversaries",
        ["axis", "point", "rounds", "detail", "verdict"],
    )

    monotone, max_overhead = _fidelity_axis(table, seed)

    ns = [256, 512, 1024, 2048] if quick else [512, 1024, 2048, 4096]
    duels = sweep_diameter(ns, diameter=4, trials=1, seed=seed)
    mature = crossover_report(duels, CLASSICAL_METRO, QUANTUM_MATURE)
    near_term = crossover_report(duels, CLASSICAL_METRO, QUANTUM_NEAR_TERM)
    for duel, priced in zip(
        duels, price_duels(duels, CLASSICAL_METRO, QUANTUM_MATURE), strict=True
    ):
        table.add_row(
            "wall-clock", f"n={duel.n}", duel.quantum_rounds,
            f"q={priced.quantum_us / 1e3:.0f}ms "
            f"c={priced.classical_us / 1e3:.0f}ms",
            f"f*={priced.break_even_premium:.2f} vs f={priced.premium:.2f}",
        )
    table.add_note(
        f"rounds crossover n={mature.rounds_crossover_n}; mature link "
        f"(premium {mature.premium:.2f}): wall-clock crossover "
        f"n={mature.wall_clock_crossover_n} "
        f"(predicted {mature.predicted_crossover_n}); near-term link "
        f"(premium {near_term.premium:.0f}): latency-dominated="
        f"{near_term.latency_dominated}"
    )
    exponent = (
        mature.break_even_fit.exponent if mature.break_even_fit else 0.0
    )

    outcomes, honest_ok = _matrix_axis(table, seed, jobs=1 if quick else 2)

    return E22Result(
        table=table,
        fidelity_monotone=monotone,
        fidelity_max_overhead=max_overhead,
        rounds_crossover_n=mature.rounds_crossover_n,
        mature=mature,
        near_term=near_term,
        break_even_exponent=exponent,
        matrix=outcomes,
        honest_cells_correct=honest_ok,
    )

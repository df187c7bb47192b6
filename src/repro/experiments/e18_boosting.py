"""E18 — the paper's boosting remark, measured.

"there will always be some central leader that can combine the results of
multiple independent runs to boost this to a success probability of
1 − n^{−c} at the cost of an extra log(n)-factor."

Claims under test: repeated 2/3-success protocols combined at a leader
reach failure rate ≤ (1/3)^r (measured against the predicted curve), and
the round cost grows linearly in the repetition count — i.e. the log(n)
factor buys the n^{−c} confidence, no more and no less.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.report import ExperimentTable
from ..apps.eccentricity import compute_diameter
from ..congest import topologies
from ..core.boosting import boost_maximum, repetitions_for


@dataclass
class E18Result:
    table: ExperimentTable
    failure_rates_decrease: bool
    rounds_linear_in_reps: bool


def run(quick: bool = True, seed: int = 0) -> E18Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    net = topologies.grid(4, 4)
    truth = net.diameter
    trials = 40 if quick else 120

    table = ExperimentTable(
        "E18",
        "Boosting (leader combines runs): failure rate vs repetitions",
        ["repetitions", "delta target", "measured failures", "predicted bound",
         "avg rounds"],
    )

    def protocol(run_seed: int):
        res = compute_diameter(net, seed=run_seed)
        return res.value, res.rounds

    failure_rates: List[float] = []
    avg_rounds: List[float] = []
    deltas = [1 / 3, 1 / 9, 1 / 27]
    for delta in deltas:
        reps = repetitions_for(delta)
        failures = 0
        rounds_total = 0.0
        for trial in range(trials):
            out = boost_maximum(protocol, delta=delta, seed=seed + trial * 100)
            failures += out.value != truth
            rounds_total += out.rounds
        rate = failures / trials
        failure_rates.append(rate)
        avg_rounds.append(rounds_total / trials)
        table.add_row(reps, delta, rate, delta, rounds_total / trials)

    decreasing = all(
        failure_rates[i] >= failure_rates[i + 1] - 0.05
        for i in range(len(failure_rates) - 1)
    ) and failure_rates[-1] <= deltas[-1] + 0.05
    # Rounds must scale ~linearly with repetitions (1, 2, 3 here).
    linear = avg_rounds[1] <= 2.4 * avg_rounds[0] and (
        avg_rounds[2] <= 3.6 * avg_rounds[0]
    )
    table.add_note(
        "the min/max combiner is sound for one-sided searches, so the "
        "failure rate is at most (per-run failure)^repetitions"
    )
    return E18Result(
        table=table,
        failure_rates_decrease=decreasing,
        rounds_linear_in_reps=linear,
    )

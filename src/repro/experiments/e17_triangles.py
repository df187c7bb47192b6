"""E17 — triangle finding: the Corollary 26 subroutine, measured.

Claims under test: the folklore classical O(Δ) neighborhood-exchange
protocol is exact and its *measured* engine rounds track the maximum
degree; the cited quantum bound Õ(n^{1/5}) [CFGLO22] sits below both the
classical Õ(n^{1/3}) detection bound and the earlier quantum Õ(n^{1/4})
[IGM19]; the one-sided quantum emulation never reports a ghost triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import ExperimentTable
from ..apps.triangles import (
    classical_triangle_bound,
    detect_triangle_local,
    detect_triangle_quantum,
    find_triangle_truth,
    quantum_triangle_bound,
    quantum_triangle_bound_igm,
)
from ..congest import topologies


@dataclass
class E17Result:
    table: ExperimentTable
    local_exact: bool
    no_false_positives: bool


def run(quick: bool = True, seed: int = 0) -> E17Result:
    """Run the experiment sweep; quick mode keeps it under a minute."""
    trials = 5 if quick else 10
    table = ExperimentTable(
        "E17",
        "Triangle finding: measured local-exchange vs cited quantum bounds",
        ["graph", "n", "max deg", "has triangle", "local rounds",
         "local found", "quantum hit-rate"],
    )
    local_exact = True
    no_false_pos = True
    cases = [
        ("complete-8", topologies.complete(8)),
        ("petersen (triangle-free)", topologies.petersen()),
        ("grid 5x5 (triangle-free)", topologies.grid(5, 5)),
        ("random-regular d=4", topologies.random_regular(40, 4, seed=seed)),
        ("lollipop", topologies.lollipop(6, 10)),
    ]
    for name, net in cases:
        truth = find_triangle_truth(net.graph)
        local = detect_triangle_local(net, seed=seed)
        local_exact &= local.found == (truth is not None)
        hits = 0
        for trial in range(trials):
            q = detect_triangle_quantum(net, seed=seed + trial)
            if truth is None:
                no_false_pos &= not q.found
            else:
                hits += q.found
        max_deg = max(net.degree(v) for v in net.nodes())
        table.add_row(
            name, net.n, max_deg, truth is not None, local.rounds,
            local.found, (hits / trials) if truth is not None else 1.0,
        )
        # The local protocol runs in ≈ Δ + O(1) rounds.
        assert local.rounds <= max_deg + 3

    table.add_note(
        "bounds at n=10^6: quantum n^{1/5} "
        f"{quantum_triangle_bound(10**6):.0f} < quantum n^{{1/4}} [IGM19] "
        f"{quantum_triangle_bound_igm(10**6):.0f} < classical n^{{1/3}} "
        f"{classical_triangle_bound(10**6):.0f} rounds"
    )
    table.add_note("local-exchange rounds ≈ max degree + O(1), exact answer")
    return E17Result(
        table=table, local_exact=local_exact, no_false_positives=no_false_pos
    )

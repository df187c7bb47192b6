"""Paper-to-code index: where each result of the paper lives.

A reproduction repository should be navigable by the paper's own
numbering.  ``where_is("Lemma 10")`` returns the implementing objects and
the experiments that measure the result; the registry is itself tested
(every referenced object must import and resolve).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class ResultEntry:
    """One paper result mapped into the repository."""

    result: str
    statement: str
    implementations: Tuple[str, ...]
    notes: str = ""

    @property
    def experiments(self) -> Tuple[str, ...]:
        """The experiments whose claims measure this result, E1 first.

        Derived from :data:`repro.experiments.runner.CLAIMS`, imported here
        rather than at module level: ``import repro`` loads this module, and
        must not load every experiment module with it.
        """
        from .experiments.runner import CLAIMS

        return tuple(
            name for name, claim in CLAIMS.items() if self.result in claim.results
        )


REGISTRY: Dict[str, ResultEntry] = {
    entry.result: entry
    for entry in [
        ResultEntry(
            "Definition 1",
            "(b, p)-parallel-query quantum algorithms",
            ("repro.queries.ledger.QueryLedger", "repro.queries.oracle.BatchOracle"),
        ),
        ResultEntry(
            "Lemma 2",
            "parallel Grover search: find-one in O(⌈√(k/(tp))⌉) batches, "
            "find-all in O(√(kt/p)+t)",
            ("repro.queries.grover.find_one", "repro.queries.grover.find_all",
             "repro.queries.grover.find_one_split"),
        ),
        ResultEntry(
            "Lemma 3",
            "parallel minimum/maximum finding, O(⌈√(k/(ℓp))⌉) with "
            "multiplicity ℓ",
            ("repro.queries.minimum.find_minimum",
             "repro.queries.minimum.find_maximum"),
        ),
        ResultEntry(
            "Lemma 5",
            "parallel element distinctness via the rebalanced Johnson walk, "
            "O(⌈(k/p)^{2/3}⌉) batches",
            ("repro.queries.element_distinctness.find_collision",
             "repro.queries.element_distinctness.walk_parameters",
             "repro.queries.johnson.check_walk_parameters"),
        ),
        ResultEntry(
            "Lemma 6",
            "parallel mean estimation, Õ(σ/(√p·ε)) batches",
            ("repro.queries.mean_estimation.estimate_mean",
             "repro.queries.mean_estimation.batch_count"),
        ),
        ResultEntry(
            "Lemma 7",
            "distributing a leader's q-qubit register in O(D + q/log n)",
            ("repro.core.state_transfer.distribute_register",
             "repro.core.state_transfer.collect_register",
             "repro.quantum.distributed.share_register",
             "repro.quantum.distributed.unshare_register"),
        ),
        ResultEntry(
            "Theorem 8",
            "framework: evaluating F(⊕_v x^{(v)}) in "
            "O(D + b((D+p)⌈q/log n⌉ + p⌈log k/log n⌉))",
            ("repro.core.framework.run_framework",
             "repro.core.framework.CongestBatchOracle",
             "repro.core.cost.CostModel.batch_rounds"),
        ),
        ResultEntry(
            "Corollary 9",
            "framework with on-the-fly value computation (+α(p) per batch)",
            ("repro.core.framework.ValueComputer",
             "repro.apps.eccentricity.EccentricityComputer"),
        ),
        ResultEntry(
            "Lemma 10",
            "meeting scheduling in Õ((√(kD)+D)⌈log k/log n⌉)",
            ("repro.apps.meeting.schedule_meeting",),
        ),
        ResultEntry(
            "Lemma 11",
            "meeting scheduling lower bounds: classical Ω(k/log n + D), "
            "quantum Ω(∛(kD²)+√k)",
            ("repro.lowerbounds.reductions.build_meeting_gadget",
             "repro.lowerbounds.disjointness.classical_congest_lower_bound",
             "repro.lowerbounds.disjointness.quantum_line_lower_bound"),
        ),
        ResultEntry(
            "Lemma 12",
            "element distinctness in distributed vector, "
            "Õ((k^{2/3}D^{1/3}+D)(⌈log N/log n⌉+⌈log k/log n⌉))",
            ("repro.apps.element_distinctness.distinctness_distributed_vector",),
        ),
        ResultEntry(
            "Lemma 13",
            "ED-vector lower bounds via disjointness",
            ("repro.lowerbounds.reductions.build_ed_vector_gadget",),
        ),
        ResultEntry(
            "Corollary 14",
            "element distinctness between nodes, Õ(n^{2/3}D^{1/3}+D)",
            ("repro.apps.element_distinctness.distinctness_between_nodes",),
        ),
        ResultEntry(
            "Lemma 15",
            "ED-between-nodes lower bound on the two-star gadget",
            ("repro.lowerbounds.reductions.build_ed_nodes_gadget",
             "repro.congest.topologies.two_stars"),
        ),
        ResultEntry(
            "Problem 16",
            "distributed Deutsch–Jozsa promise problem",
            ("repro.apps.deutsch_jozsa.aggregated_input",
             "repro.quantum.deutsch_jozsa.check_promise"),
        ),
        ResultEntry(
            "Theorem 17",
            "distributed DJ solved exactly in O(D⌈log k/log n⌉)",
            ("repro.apps.deutsch_jozsa.solve_distributed_dj",
             "repro.quantum.distributed.distributed_deutsch_jozsa_exact"),
        ),
        ResultEntry(
            "Theorem 18",
            "exact classical DJ needs Ω(k/log n + D)",
            ("repro.lowerbounds.reductions.build_dj_gadget",
             "repro.lowerbounds.rank_certificate.certify_dj_lower_bound",
             "repro.baselines.streaming.classical_deutsch_jozsa"),
            notes="fooling certificate is log₂k, the full Ω(k) is cited",
        ),
        ResultEntry(
            "Lemma 20",
            "eccentricities of |S| nodes in O(|S|+D) classical rounds",
            ("repro.congest.algorithms.multibfs.eccentricities_of_sources",
             "repro.congest.algorithms.multibfs.multi_source_bfs"),
        ),
        ResultEntry(
            "Lemma 21",
            "diameter and radius in O(√(nD)) [recovers LM18]",
            ("repro.apps.eccentricity.compute_diameter",
             "repro.apps.eccentricity.compute_radius"),
        ),
        ResultEntry(
            "Lemma 22",
            "ε-additive average eccentricity in Õ(D^{3/2}/ε)",
            ("repro.apps.eccentricity.estimate_average_eccentricity",),
        ),
        ResultEntry(
            "Lemma 23",
            "cycles of length ≤ k in O(D + (Dn)^{1/2−1/(4⌈k/2⌉+2)})",
            ("repro.apps.cycles.detect_cycle",
             "repro.apps.cycles.light_cycle_scan",
             "repro.apps.cycles.heavy_cycle_search"),
        ),
        ResultEntry(
            "Lemma 24",
            "d-separated O(d log n)-diameter clustering [EFFKO21], "
            "substituted by MPX ball carving (DESIGN.md §2)",
            ("repro.congest.algorithms.clustering.build_clustering",
             "repro.congest.algorithms.clustering.verify_clustering"),
        ),
        ResultEntry(
            "Lemma 25",
            "diameter-independent cycle detection via clustering",
            ("repro.apps.cycles.detect_cycle_clustered",),
        ),
        ResultEntry(
            "Corollary 26",
            "girth in Õ((1/μ)(g + (gn)^{1/2−1/Θ(g)}))",
            ("repro.apps.girth.compute_girth",
             "repro.apps.triangles.detect_triangle_quantum"),
        ),
        ResultEntry(
            "Lemma 27",
            "amplitude amplification iterate in O(R + D) rounds",
            ("repro.apps.amplitude_apps.iterate_rounds",
             "repro.quantum.amplitude.amplification_iterate"),
        ),
        ResultEntry(
            "Corollary 28",
            "amplitude amplification, O((R+D)·(1/√p)·log(1/δ))",
            ("repro.apps.amplitude_apps.amplify",
             "repro.quantum.amplitude.amplify"),
        ),
        ResultEntry(
            "Lemma 29",
            "distributed phase estimation, O((R/ε)log(1/δ) + D)",
            ("repro.apps.amplitude_apps.estimate_phase_distributed",
             "repro.quantum.phase_estimation.estimate_phase_boosted"),
        ),
        ResultEntry(
            "Corollary 30",
            "distributed amplitude estimation, O((R+D)·(√p_max/ε)·log(1/δ))",
            ("repro.apps.amplitude_apps.estimate_amplitude_distributed",
             "repro.quantum.amplitude.estimate_amplitude"),
        ),
        ResultEntry(
            "Remark (even cycles)",
            "exact C_k detection, k=4,6,8,10, in O(n^{1/2−1/(2k+2)})",
            ("repro.apps.even_cycles.detect_even_cycle",),
        ),
        ResultEntry(
            "Remark (boosting)",
            "leader combines runs to reach success 1 − n^{−c}",
            ("repro.core.boosting.boost_maximum",
             "repro.core.boosting.boost_median"),
        ),
    ]
}


def where_is(result: str) -> ResultEntry:
    """Look up a paper result ("Lemma 10", "Theorem 8", ...)."""
    key = result.strip()
    if key not in REGISTRY:
        raise KeyError(
            f"unknown result {result!r}; known: {sorted(REGISTRY)}"
        )
    return REGISTRY[key]


def verify_registry() -> List[str]:
    """Import every referenced object; return the list of failures."""
    failures = []
    for entry in REGISTRY.values():
        for dotted in entry.implementations:
            try:
                _resolve_maybe_method(dotted)
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(f"{entry.result}: {dotted} ({exc})")
    return failures


def _resolve_maybe_method(dotted: str):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_path = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_path)
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(f"cannot resolve {dotted}")

"""E21 — CONGEST-CLIQUE APSP: Õ(n^{1/4}) quantum vs Õ(n^{1/3}) classical.

The PR 8 communication-model layer's flagship experiment.  Sweeps
:func:`repro.apps.apsp.sweep_apsp` over n, fits both charged round
columns on a log–log scale (expect slopes ≈ 1/4 and ≈ 1/3 plus a small
log-factor drift), and — at the sizes where the engine harness runs —
checks that the row-broadcast clique algorithm's APSP output matches
ground truth, i.e. the all-pairs logical links really deliver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis.fitting import fit_power_law
from ..analysis.report import ExperimentTable
from ..apps.apsp import sweep_apsp


@dataclass
class E21Result:
    """Sweep table, the two fitted slopes, and engine validation status."""

    table: ExperimentTable
    quantum_exponent: float    # charged rounds ~ n^x; [IL19] ≈ 1/4
    classical_exponent: float  # charged rounds ~ n^x; [CKK+15] ≈ 1/3
    all_validated: bool        # every engine-harness run exact


def run(quick: bool = True, seed: int = 0) -> E21Result:
    """Run the APSP sweep; quick mode keeps it well under a minute."""
    ns = [16, 32, 64, 256, 1024] if quick else [16, 32, 64, 256, 1024, 4096]

    duels = sweep_apsp(ns, seed=seed)

    table = ExperimentTable(
        "E21",
        "CONGEST-CLIQUE APSP: quantum n^(1/4) vs classical n^(1/3) rounds",
        ["n", "quantum rounds", "classical rounds",
         "engine rounds", "validated"],
    )
    for duel in duels:
        table.add_row(
            duel.n, duel.quantum_rounds, duel.classical_rounds,
            duel.engine_rounds if duel.engine_rounds is not None else "-",
            duel.correct if duel.correct is not None else "-",
        )

    # Õ hides the log factor; divide it out before fitting so the slope
    # is the polynomial exponent (at these n the raw fit drifts ≈ +0.2).
    logs = [math.ceil(math.log2(max(n, 2))) for n in ns]
    q_fit = fit_power_law(
        ns, [d.quantum_rounds / lg for d, lg in zip(duels, logs, strict=True)]
    )
    c_fit = fit_power_law(
        ns, [d.classical_rounds / lg for d, lg in zip(duels, logs, strict=True)]
    )
    validated = [d for d in duels if d.correct is not None]
    all_ok = bool(validated) and all(d.correct for d in validated)
    table.add_note(
        f"quantum rounds ~ n^{q_fit.exponent:.2f}·log n ([IL19]: 0.25, "
        f"R²={q_fit.r_squared:.3f}); classical ~ n^{c_fit.exponent:.2f}"
        f"·log n ([CKK+15]: 0.33); engine harness validated at "
        f"{len(validated)} sizes"
    )
    return E21Result(
        table=table,
        quantum_exponent=q_fit.exponent,
        classical_exponent=c_fit.exponent,
        all_validated=all_ok,
    )

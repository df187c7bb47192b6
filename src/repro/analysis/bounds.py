"""One-stop summary of every bound in the paper, evaluated numerically.

The paper's introduction is effectively a table of round complexities;
:func:`bounds_summary` regenerates it for concrete (n, k, D, ε, g)
parameters so users can see, before running anything, where the quantum
advantage is predicted to appear.  All formulas drop hidden constants and
polylog factors except where the paper spells them out.
"""

from __future__ import annotations

import math
from typing import Optional

from ..apps.cycles import quantum_cycle_bound
from ..apps.deutsch_jozsa import quantum_round_bound as dj_quantum_bound
from ..apps.eccentricity import quantum_avg_ecc_bound, quantum_diameter_bound
from ..apps.element_distinctness import quantum_round_bound_vector
from ..apps.even_cycles import quantum_even_cycle_bound
from ..apps.girth import quantum_girth_bound
from ..apps.meeting import quantum_round_bound as meeting_quantum_bound
from ..apps.triangles import classical_triangle_bound, quantum_triangle_bound
from ..baselines.cycles import classical_cycle_bound
from ..baselines.diameter import classical_diameter_bound
from ..baselines.streaming import classical_streaming_bound
from .report import ExperimentTable


def bounds_summary(
    n: int = 4096,
    k: int = 65536,
    diameter: int = 16,
    epsilon: float = 0.5,
    girth: int = 6,
    max_value: Optional[int] = None,
) -> ExperimentTable:
    """The paper's contributions table at concrete parameters.

    Returns a table of (problem, quantum rounds, classical rounds,
    speedup factor) for every application in Sections 4–5.
    """
    if max_value is None:
        max_value = n * n
    log_n = max(1, math.ceil(math.log2(max(n, 2))))
    table = ExperimentTable(
        "BOUNDS",
        f"Paper bounds at n={n}, k={k}, D={diameter}, ε={epsilon}, g={girth}",
        ["problem", "quantum rounds", "classical rounds", "speedup"],
    )

    rows = [
        (
            "meeting scheduling (Lem 10/11)",
            meeting_quantum_bound(k, diameter, n),
            classical_streaming_bound(k, log_n, diameter, n),
        ),
        (
            "element distinctness (Lem 12/13)",
            quantum_round_bound_vector(k, diameter, n, max_value),
            classical_streaming_bound(
                k, math.ceil(math.log2(max_value * n)), diameter, n
            ),
        ),
        (
            "Deutsch–Jozsa, exact (Thm 17/18)",
            dj_quantum_bound(k, diameter, n),
            classical_streaming_bound(k, 1, diameter, n),
        ),
        (
            "diameter / radius (Lem 21)",
            quantum_diameter_bound(n, diameter),
            classical_diameter_bound(n, diameter),
        ),
        (
            "avg eccentricity ±ε (Lem 22)",
            quantum_avg_ecc_bound(diameter, epsilon),
            classical_diameter_bound(n, diameter),
        ),
        (
            f"cycle ≤ {girth} detection (Lem 25)",
            quantum_cycle_bound(n, girth),
            classical_cycle_bound(n, girth),
        ),
        (
            f"girth = {girth} (Cor 26)",
            quantum_girth_bound(n, girth),
            math.sqrt(n),
        ),
        (
            "exact C4 detection (remark)",
            quantum_even_cycle_bound(n, 4),
            math.sqrt(n),
        ),
        (
            "triangle finding (subroutine)",
            quantum_triangle_bound(n),
            classical_triangle_bound(n),
        ),
    ]
    for name, quantum, classical in rows:
        table.add_row(name, quantum, classical, classical / quantum)
    table.add_note(
        "classical entries are the matching upper bounds / lower-bound "
        "floors the paper compares against; constants and polylogs dropped "
        "unless stated in the paper"
    )
    return table

"""E23 — amplitude sketches: Theorem 1 space–accuracy tradeoff.

The sketching view of the paper's framework (DESIGN.md §6k): a sketch is
a bank of ``m`` single-qubit phase accumulators, inserts are ``Rz``
rotations at ``k`` hashed buckets, and a query reads interference
overlap against the item's reference phases.  Theorem 1's tradeoff is
that ``m ≍ log(1/α)`` qubits buy error ``α``: with hashing, a
non-member's overlap deviates from its empty-sketch baseline only
through bucket collisions, whose mass shrinks as ``m`` grows at fixed
load.  E23 measures exactly that:

* **accuracy axis** — fixed insert load ``N``, a ladder of widths ``m``;
  α(m) = mean |overlap − baseline| over non-member probes must be
  non-increasing along the ladder and strictly smaller at the top than
  at the bottom;
* **fidelity-level axis** — at overlapping widths (``m ≤ 10``) the exact
  statevector backend and the stochastic phase-vector emulation must
  agree: raw overlaps within 1e-9 and *decision-level outputs*
  (membership verdicts, Q-Count estimates) bit-identical — the
  emulation's correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.report import ExperimentTable
from ..apps.sketches import (
    AmplitudeSketch,
    QCount,
    SketchSpec,
    theorem1_min_qubits,
)


@dataclass
class E23Result:
    """The width ladder plus the exact-vs-emulated agreement verdict."""

    table: ExperimentTable
    alphas: Dict[int, float]        # m -> measured non-member error α(m)
    alpha_non_increasing: bool      # α never rises along the ladder
    alpha_shrinks: bool             # α strictly smaller at top than bottom
    backend_agreement: bool         # decisions bit-identical on overlap m
    max_backend_delta: float        # worst raw-overlap gap, exact vs emul

    @property
    def tradeoff_holds(self) -> bool:
        return self.alpha_non_increasing and self.alpha_shrinks


def _keys(prefix: str, count: int) -> List[str]:
    return [f"{prefix}-{i}" for i in range(count)]


def _alpha_at(
    m: int, inserts: int, probes: int, seed: int, trials: int = 1
) -> float:
    """Mean non-member overlap deviation from baseline at width ``m``.

    Averaged over ``trials`` independent hash families (consecutive
    seeds): a single family's collision pattern is lumpy enough to make
    adjacent ladder rungs swap places; the family-averaged error is the
    quantity Theorem 1 speaks about.
    """
    total = 0.0
    for trial in range(trials):
        sk = AmplitudeSketch(
            SketchSpec(
                family="qcount", m=m, k=3, seed=seed + trial,
                backend="emulated",
            )
        )
        for x in _keys("member", inserts):
            sk.insert(x)
        for y in _keys("probe", probes):
            total += abs(sk.query(y) - sk.baseline_overlap(y))
    return total / (probes * trials)


def _backend_agreement(
    table: ExperimentTable, inserts: int, probes: int, seed: int
) -> tuple:
    """Exact vs emulated on overlapping widths: the bit-identity oracle."""
    agree = True
    worst = 0.0
    for m in (8, 10):
        pair = [
            QCount(m=m, k=3, seed=seed, backend=backend)
            for backend in ("exact", "emulated")
        ]
        members = _keys("member", inserts)
        for sk in pair:
            for x in members:
                sk.insert(x)
        ex, em = pair
        delta = 0.0
        decisions_ok = True
        for y in members + _keys("probe", probes):
            delta = max(delta, abs(ex.query(y) - em.query(y)))
            if ex.contains(y) != em.contains(y):
                decisions_ok = False
            if ex.estimate(y) != em.estimate(y):
                decisions_ok = False
        agree = agree and decisions_ok and delta <= 1e-9
        worst = max(worst, delta)
        table.add_row(
            "fidelity", f"m={m}", 0,
            f"max |Δoverlap|={delta:.2e}",
            f"decisions identical={decisions_ok}",
        )
    return agree, worst


def run(quick: bool = True, seed: int = 0) -> E23Result:
    """Run the width ladder and the backend-agreement check."""
    table = ExperimentTable(
        "E23",
        "Amplitude sketches: space-accuracy tradeoff and fidelity levels",
        ["axis", "point", "rounds", "detail", "verdict"],
    )

    ladder = [8, 16, 32, 64] if quick else [8, 16, 32, 64, 128, 256]
    inserts = 8
    probes = 64 if quick else 128
    trials = 3 if quick else 5

    alphas: Dict[int, float] = {}
    for m in ladder:
        alpha = _alpha_at(m, inserts, probes, seed, trials=trials)
        alphas[m] = alpha
        predicted = theorem1_min_qubits(max(alpha, 1e-12))
        table.add_row(
            "accuracy", f"m={m}", 0,
            f"alpha={alpha:.4f} (N={inserts}, Q={probes}, "
            f"families={trials})",
            f"Theorem 1 min qubits for this alpha: {predicted}",
        )

    levels = [alphas[m] for m in ladder]
    # Consecutive pairs: the shifted copy is one shorter.
    non_increasing = all(a >= b for a, b in zip(levels, levels[1:], strict=False))
    shrinks = levels[-1] < levels[0]
    table.add_note(
        f"alpha ladder {['%.4f' % a for a in levels]}: "
        f"non-increasing={non_increasing}, top<bottom={shrinks}"
    )

    agree, worst = _backend_agreement(
        table, inserts=3, probes=probes, seed=seed
    )
    table.add_note(
        f"exact vs emulated on m in (8, 10): max raw-overlap gap "
        f"{worst:.2e}, decision-level bit-identity={agree}"
    )

    return E23Result(
        table=table,
        alphas=alphas,
        alpha_non_increasing=non_increasing,
        alpha_shrinks=shrinks,
        backend_agreement=agree,
        max_backend_delta=worst,
    )

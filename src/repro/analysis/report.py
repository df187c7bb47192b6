"""Plain-text experiment tables (paper bound vs. measured).

The benchmark harness prints one table per experiment in a fixed format so
EXPERIMENTS.md entries can be regenerated verbatim.

:func:`cost_breakdown_table` renders the unified records of an
instrumented run (:mod:`repro.obs`) in the same table format: per-phase
round charges with span attribution, plus the aggregate engine / query /
fault counters — the "what did this run cost, where" artifact that
``python -m repro trace`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass
class ExperimentTable:
    """A titled table with typed columns and optional footnotes."""

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        header = [str(c) for c in self.columns]
        body = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths, strict=True)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths, strict=True)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def show(self) -> None:
        print(self.render())
        print()


def cost_breakdown_table(experiment_id: str, metrics) -> ExperimentTable:
    """Per-phase cost breakdown of an instrumented run.

    Args:
        experiment_id: label for the table header (e.g. ``"E7"``).
        metrics: a filled :class:`repro.obs.MetricsSink`.

    One row per charged ledger phase (in first-charge order) with the
    span it was first charged under and its share of all charged rounds;
    aggregate engine traffic, query batches, busiest edge, and fault
    counts are appended as notes.
    """
    table = ExperimentTable(
        experiment_id,
        "per-phase cost breakdown (observability spine)",
        ["phase", "span", "rounds", "share"],
    )
    total = metrics.total_charged
    for phase, rounds in metrics.charges_by_phase.items():
        table.add_row(
            phase,
            metrics.phase_span.get(phase, "") or "-",
            rounds,
            rounds / total if total else 0.0,
        )
    table.add_row("(total charged)", "-", total, 1.0 if total else 0.0)
    table.add_note(
        f"query batches: {metrics.query_batches} "
        f"({metrics.total_queries} queries)"
    )
    edge, edge_bits = metrics.busiest_edge()
    if edge is None:
        table.add_note("busiest edge: none (no engine deliveries recorded)")
    else:
        table.add_note(
            f"busiest edge: {edge[0]}->{edge[1]} carried {edge_bits} bits"
        )
    table.add_note(
        f"engine: {metrics.engine_rounds} measured rounds, "
        f"{metrics.messages} messages, {metrics.bits} bits delivered"
    )
    if metrics.fault_counts:
        per_kind = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(metrics.fault_counts.items())
        )
        table.add_note(f"fault events: {metrics.total_faults} ({per_kind})")
    else:
        table.add_note("fault events: 0")
    return table


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)

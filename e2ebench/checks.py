"""Output checks.  Each raises :class:`CheckFailed`, which fails the run.

A wrong answer is never counted as an error: the run reports
``"correct": false`` and exits non-zero.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence

#: Largest overlap difference allowed between the served sketch and a
#: fresh sketch fed the same inserts (the emulated backend's float noise
#: is ~1e-15; reassociation across insert orders stays far below this).
SKETCH_TOL = 1e-9


class CheckFailed(AssertionError):
    """A program output disagreed with the benchmark's own computation."""


def expected_sums(vectors: dict, k: int) -> List[int]:
    """The plain per-index sum of the node vectors: what every oracle
    query must answer (the serving profiles use the sum semigroup)."""
    return [sum(vec[j] for vec in vectors.values()) for j in range(k)]


def check_oracle_results(
    ops: Sequence[Any], values: Sequence[Optional[List[Any]]], expected: Sequence[int]
) -> None:
    """Every served value equals the per-index sum; nothing is missing."""
    for i, (op, got) in enumerate(zip(ops, values)):
        if got is None:
            raise CheckFailed(f"operation {i} never resolved")
        want = [expected[j] for j in op.indices]
        if list(got) != want:
            raise CheckFailed(f"operation {i} {op.indices}: served {got}, expected {want}")


def check_round_conservation(report: Any) -> None:
    """Per-caller attributed rounds sum exactly to the physical charge."""
    if report.attributed_rounds != report.physical_query_rounds:
        raise CheckFailed(
            f"attributed rounds {report.attributed_rounds} != physical "
            f"{report.physical_query_rounds}"
        )


def check_resolved_once(resolutions: Sequence[int]) -> None:
    for i, count in enumerate(resolutions):
        if count != 1:
            raise CheckFailed(f"operation {i} resolved {count} times")


def check_sketch_acks(ops: Sequence[Any], values: Sequence[Optional[List[Any]]]) -> None:
    """Every insert acknowledges each of its items; every query answers
    one overlap in [0, 1] per item."""
    for i, (op, got) in enumerate(zip(ops, values)):
        if got is None:
            raise CheckFailed(f"operation {i} never resolved")
        if op.is_write:
            if list(got) != [True] * len(op.items):
                raise CheckFailed(f"insert {i} acknowledged {got}")
        elif len(got) != len(op.items) or not all(0.0 <= v <= 1.0 for v in got):
            raise CheckFailed(f"query {i} answered {got}")


def check_sketch_state(
    served: Any,
    make_fresh: Callable[[], Any],
    acked_inserts: Iterable[Any],
    probes: Sequence[Any],
) -> None:
    """The lane's sketch after drain answers like a fresh sketch fed every
    acknowledged insert serially (QCount is insert-order invariant)."""
    fresh = make_fresh()
    for op in acked_inserts:
        for item in op.items:
            fresh.insert(item)
    for y in probes:
        a, b = served.query(y), fresh.query(y)
        if abs(a - b) > SKETCH_TOL:
            raise CheckFailed(f"probe {y!r}: served overlap {a}, fresh {b}")
        if served.contains(y) != fresh.contains(y):
            raise CheckFailed(f"probe {y!r}: contains() disagrees")


def check_verdicts(verdicts: Sequence[Any]) -> None:
    failed = [v.experiment for v in verdicts if not v.passed]
    if failed:
        raise CheckFailed(f"verdicts failed: {failed}")

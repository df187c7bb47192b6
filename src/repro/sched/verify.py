"""Bit-identical-to-serial pinning for the coalescing scheduler.

Same discipline as :mod:`repro.parallel.verify`: the optimized path is
only trusted because an executable invariant compares it against the
plain path.  For the scheduler the invariant has four clauses, checked
by :func:`verify_coalescing` on an explicit workload:

1. **Outputs** — every submission's values under coalescing equal,
   element for element, the values the same call sequence produces on a
   private serial oracle (one ``run_framework`` per caller).
2. **Query ledgers** — each caller's :class:`~repro.queries.ledger.
   QueryLedger` signature (the ``(size, label)`` batch trace) is
   identical to its serial ledger's.  Coalescing changes *physical*
   batching, never the metered (b, p) accounting of Definition 1.
3. **Round conservation** — the per-caller attributed rounds sum
   exactly to the physically charged query rounds (largest-remainder
   attribution conserves by construction; this re-checks it end to end).
4. **Serial degeneracy** — on a second scheduler drained after every
   submission, so each submission runs as its own batch, each caller's
   attributed round total equals its serial query-round total exactly,
   not just approximately.

The memo is disabled during verification: a memo hit answers in zero
rounds by design, which is a deliberate departure from serial round
accounting (values stay bit-identical either way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..congest.network import Network
from ..core.framework import FrameworkConfig, run_framework
from ..core.operation import Operation
from .scheduler import CoalescingScheduler, Ticket

__all__ = ["CoalescingVerdict", "Submission", "verify_coalescing"]

#: One workload item: (caller name, query indices, batch label).
Submission = Tuple[str, Sequence[int], str]


@dataclass(frozen=True)
class CoalescingVerdict:
    """Outcome of one coalesced-vs-serial equivalence check."""

    identical: bool
    detail: str
    callers: int
    submissions: int
    serial_query_rounds: int
    coalesced_query_rounds: int
    physical_batches: int

    @property
    def round_saving(self) -> float:
        """Fraction of serial query rounds the scheduler avoided."""
        if self.serial_query_rounds == 0:
            return 0.0
        return 1.0 - self.coalesced_query_rounds / self.serial_query_rounds


def _serial_baseline(
    network: Network,
    config: FrameworkConfig,
    workload: Sequence[Submission],
) -> Tuple[Dict[str, Any], Dict[int, List[Any]]]:
    """Run each caller's submission sequence on its own private oracle."""
    by_caller: Dict[str, List[Tuple[int, Sequence[int], str]]] = {}
    for slot, (caller, indices, label) in enumerate(workload):
        by_caller.setdefault(caller, []).append((slot, indices, label))

    runs: Dict[str, Any] = {}
    values: Dict[int, List[Any]] = {}
    for caller, items in by_caller.items():
        def algorithm(oracle, _rng, items=items):
            return [
                (slot, oracle.query_batch(list(indices), label=label))
                for slot, indices, label in items
            ]

        run = run_framework(network, algorithm, config=config)
        runs[caller] = run
        for slot, vals in run.result:
            values[slot] = vals
    return runs, values


def _query_rounds(run) -> int:
    """A serial run's non-setup round total (what coalescing can amortize)."""
    return sum(
        rounds
        for phase, rounds in run.rounds.by_phase().items()
        if not phase.startswith("setup")
    )


def verify_coalescing(
    network: Network,
    config: FrameworkConfig,
    workload: Sequence[Submission],
) -> CoalescingVerdict:
    """Check the four-clause equivalence invariant on one workload.

    Args:
        network: the shared CONGEST network.
        config: the shared-oracle :class:`FrameworkConfig` (the same
            object each serial baseline run uses).
        workload: submissions in arrival order — ``(caller, indices,
            label)`` triples; interleaving callers is the interesting
            case.

    Returns:
        a :class:`CoalescingVerdict`; ``identical`` is True only if every
        clause holds.  Its round and batch figures are the coalesced
        scheduler's, which submits the whole workload, then drains.
    """
    serial_runs, serial_values = _serial_baseline(network, config, workload)

    sched = CoalescingScheduler(network, config, memo=False)
    tickets: List[Ticket] = [
        sched.submit(Operation.query(caller, indices, label=label))
        for caller, indices, label in workload
    ]
    sched.drain()

    problems: List[str] = []
    for slot, ticket in enumerate(tickets):
        got = sched.result(ticket)
        want = serial_values[slot]
        if got != want:
            problems.append(
                f"submission {slot} ({ticket.caller}): values {got!r} != "
                f"serial {want!r}"
            )

    for caller, run in serial_runs.items():
        acct = sched.account(caller)
        if acct.queries.signature() != run.query_ledger.signature():
            problems.append(
                f"caller {caller}: ledger signature "
                f"{acct.queries.signature()} != serial "
                f"{run.query_ledger.signature()}"
            )

    report = sched.report()
    if report.attributed_rounds != report.physical_query_rounds:
        problems.append(
            f"attribution leak: {report.attributed_rounds} attributed != "
            f"{report.physical_query_rounds} physical"
        )

    serial = CoalescingScheduler(network, config, memo=False)
    for caller, indices, label in workload:
        serial.submit(Operation.query(caller, indices, label=label))
        serial.drain()
    for caller, run in serial_runs.items():
        serial_q = _query_rounds(run)
        attributed = serial.account(caller).attributed_rounds
        if attributed != serial_q:
            problems.append(
                f"caller {caller}: serial-degenerate attributed rounds "
                f"{attributed} != serial {serial_q}"
            )

    serial_total = sum(_query_rounds(r) for r in serial_runs.values())
    return CoalescingVerdict(
        identical=not problems,
        detail="; ".join(problems) if problems else (
            f"{report.submissions} submissions from {report.callers} "
            f"callers coalesced into {report.physical_batches} batches, "
            f"{report.physical_query_rounds}/{serial_total} rounds"
        ),
        callers=report.callers,
        submissions=report.submissions,
        serial_query_rounds=serial_total,
        coalesced_query_rounds=report.physical_query_rounds,
        physical_batches=report.physical_batches,
    )

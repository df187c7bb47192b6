"""Query-batch coalescing across callers (``repro.sched``).

Theorem 8 prices a ``(b, p)`` run per *batch* — ``O(b·(p/n + 1)·D)``
rounds — regardless of whose queries fill a batch.  This package exploits
that: many callers share one :class:`~repro.core.framework.FrameworkConfig`
oracle, the :class:`CoalescingScheduler` packs their under-filled
submissions into maximal width-``p`` physical batches (fill-or-flush
against a round-budget deadline), runs **one** distribute/convergecast per
physical batch, splits the values back per caller, and attributes the
physically charged rounds to callers proportionally (largest-remainder,
conserving exactly).  A content-addressed :class:`ResultMemo` answers
repeated submissions in zero rounds.

Layers:

* :mod:`repro.sched.scheduler` — the scheduler, per-caller accounts, and
  the :class:`CallerOracle` adapter that lets any
  :class:`~repro.queries.oracle.BatchOracle` algorithm run over a shared
  scheduler unchanged.
* :mod:`repro.sched.memo` — the (oracle fingerprint × sorted index
  tuple) result memo, with the PR 10 write-path invalidation protocol
  (:meth:`ResultMemo.invalidate_fingerprint`).
* :mod:`repro.sched.sketch` — the :class:`SketchScheduler`: FIFO
  insert/query streams against a shared amplitude sketch
  (:mod:`repro.apps.sketches`), duck-typing the daemon-facing scheduler
  surface so :mod:`repro.serve` drives sketch lanes and oracle lanes
  through one worker loop.
* :mod:`repro.sched.verify` — the bit-identical-to-serial equivalence
  invariant (outputs, per-caller query-ledger signatures, exact round
  conservation), same discipline as :mod:`repro.parallel.verify`.

Every physical batch and memo hit is emitted as a ``coalesce`` event on
the observability spine (:mod:`repro.obs`).  Amortized rounds per query
fall as more callers share an oracle; ``tests/sched/test_scheduler.py``
checks this against caller count (DESIGN.md §6f).
"""

from ..core.operation import Operation, OperationStream
from .memo import ResultMemo, oracle_fingerprint
from .scheduler import (
    CallerAccount,
    CallerOracle,
    CoalescingScheduler,
    SchedulerReport,
    Ticket,
)
from .sketch import SketchCallerAccount, SketchReport, SketchScheduler
from .verify import CoalescingVerdict, Submission, verify_coalescing

__all__ = [
    "CallerAccount",
    "CallerOracle",
    "CoalescingScheduler",
    "CoalescingVerdict",
    "Operation",
    "OperationStream",
    "ResultMemo",
    "SchedulerReport",
    "SketchCallerAccount",
    "SketchReport",
    "SketchScheduler",
    "Submission",
    "Ticket",
    "oracle_fingerprint",
    "verify_coalescing",
]

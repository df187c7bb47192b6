"""Sketch lanes for the serving stack: FIFO operation scheduling + memo.

The :class:`~repro.sched.scheduler.CoalescingScheduler` packs *read*
queries against an immutable oracle; amplitude sketches
(:mod:`repro.apps.sketches`) add *writes* to the stream, which changes
the scheduling problem in two ways:

* **Order matters.**  A query submitted after an insert must observe it,
  so operations execute strictly FIFO — no reordering reads around
  writes (coalescing read-only batches freely was only sound because
  every read commuted with every other).
* **The memo needs invalidation.**  A sketch's *identity* fingerprint
  (family, m, k, θ, seed) is deliberately stable across inserts — it
  names the lane, not the content — so the content-addressed
  :class:`~repro.sched.memo.ResultMemo` can no longer rely on mutated
  content producing fresh addresses.  Every insert therefore calls
  :meth:`~repro.sched.memo.ResultMemo.invalidate_fingerprint` *before*
  the write is acknowledged: the invariant (pinned in
  ``tests/sched/test_sketch_sched.py``) is that no query can ever be
  served a pre-insert overlap.  Queries are memoized under
  ``(fingerprint × item-token tuple)`` — :func:`~repro.apps.sketches.
  item_token` gives the integer addresses, read from the sketch's item
  plans and computed once per submission — and the fast path at submit
  time only fires when *zero writes are pending* (a queued insert will
  execute before the query, so the memo's present answer would be the
  query's stale past).  Submit computes those tokens for inserts too,
  which is how it refuses an operation holding an item the sketch
  cannot encode before queueing it.  One bounded memo may be shared
  with oracle lanes: it indexes entries by fingerprint, so an insert's
  invalidation touches only this sketch's entries.

Like ``CoalescingScheduler``, the scheduler is a
:class:`~repro.sched.scheduler.LaneScheduler`: the two share one ticket
book (``done``/``result``/``take``/``flush``/``drain``/
``pending_queries``/``rounds``), so :class:`~repro.serve.daemon.
QueryService` drives sketch lanes and oracle lanes through one worker
loop.  Sketch operations are
*local* phase rotations — O(k) gates, no distribute/convergecast — so
the round ledger stays at zero; wall-clock throughput (ops/sec, the
``sketch_mixed`` workload of ``e2ebench/``) is the relevant cost axis,
not CONGEST rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from ..apps.sketches import AmplitudeSketch
from ..core.operation import Operation
from ..obs.recorder import Recorder
from .scheduler import LaneScheduler, Ticket, _Work

__all__ = ["SketchCallerAccount", "SketchReport", "SketchScheduler"]


@dataclass
class SketchCallerAccount:
    """Per-caller operation accounting for one sketch lane."""

    name: str
    submissions: int = 0
    insert_items: int = 0
    query_items: int = 0
    memo_hits: int = 0


@dataclass
class SketchReport:
    """Aggregate accounting snapshot of one sketch scheduler."""

    callers: int
    submissions: int
    total_ops: int
    insert_items: int
    query_items: int
    physical_batches: int
    memo_hits: int
    memo_misses: int
    memo_invalidations: int
    attributed_rounds: int  # always 0: sketch ops are round-free


class _SketchSubmission(_Work):
    """One in-flight operation and its completion state.

    ``tokens`` holds its items' tokens, computed at submit: a query's
    memo address, which its lookups and its store reuse.
    """

    __slots__ = ("op", "tokens")

    def __init__(self, ticket: Ticket, op: Operation, tokens: List[int]):
        self.ticket = ticket
        self.values: List[Any] = []
        self.remaining = ticket.size
        self.error: Optional[Exception] = None
        self.op = op
        self.tokens = tokens


class SketchScheduler(LaneScheduler):
    """Serves one shared :class:`~repro.apps.sketches.AmplitudeSketch`.

    Args:
        sketch: the lane's sketch (authoritative state — callers share it).
        parallelism: max payload items packed into one physical batch;
            the daemon's fill threshold, mirroring the oracle lanes'
            batch width p.
        memo: ``True`` (default) builds a private ResultMemo for query
            overlaps; pass a ResultMemo to share one, ``False`` to
            disable.  Inserts invalidate the sketch's fingerprint.
        recorder: observability bus; memo hits and invalidations emit
            ``sketch`` events (the sketch itself emits the physical
            insert/query events).
    """

    def __init__(
        self,
        sketch: AmplitudeSketch,
        *,
        parallelism: int = 64,
        memo: Any = True,
        recorder: Optional[Recorder] = None,
    ):
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        super().__init__(parallelism, memo, recorder)
        self.sketch = sketch
        self._fingerprint = sketch.fingerprint
        self._pending_inserts = 0
        self._accounts: Dict[str, SketchCallerAccount] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    def account(self, caller: str) -> SketchCallerAccount:
        acct = self._accounts.get(caller)
        if acct is None:
            acct = SketchCallerAccount(name=caller)
            self._accounts[caller] = acct
        return acct

    def submit(self, operation: Operation) -> Ticket:
        """Enqueue one sketch operation (insert or item query), FIFO."""
        if not isinstance(operation, Operation):
            raise TypeError(
                "SketchScheduler.submit takes a repro.core.Operation "
                "(Operation.insert / Operation.sketch_query)"
            )
        if operation.indices:
            raise ValueError(
                "sketch lanes take item payloads; oracle index reads go "
                "to CoalescingScheduler"
            )
        # Raises TypeError for an item the sketch cannot encode, before
        # anything is booked: queued, it would fail every later batch.
        token = self.sketch.item_token
        tokens = [token(x) for x in operation.items]
        acct = self.account(operation.caller)
        acct.submissions += 1
        sub = _SketchSubmission(
            self._new_ticket(operation.caller, operation.size), operation,
            tokens,
        )
        if (
            not operation.is_write
            and self._pending_inserts == 0
            and self._memo is not None
        ):
            # Fast path is only sound with zero pending writes: a queued
            # insert executes before this query, so serving the memo's
            # *present* answer would hand the query its stale past.
            cached = self._try_memo(sub)
            if cached is not None:
                sub.values = cached
                sub.remaining = 0
                acct.memo_hits += 1
                return self._book(sub, queued=False)
        if operation.is_write:
            self._pending_inserts += 1
        return self._book(sub, queued=True)

    def report(self) -> SketchReport:
        return SketchReport(
            callers=len(self._accounts),
            submissions=sum(a.submissions for a in self._accounts.values()),
            total_ops=sum(
                a.insert_items + a.query_items
                for a in self._accounts.values()
            ),
            insert_items=sum(
                a.insert_items for a in self._accounts.values()
            ),
            query_items=sum(a.query_items for a in self._accounts.values()),
            physical_batches=self.physical_batches,
            memo_hits=self.memo_hits,
            memo_misses=self.memo_misses,
            memo_invalidations=(
                self._memo.invalidations if self._memo is not None else 0
            ),
            attributed_rounds=0,
        )

    # -- internals -------------------------------------------------------

    def _try_memo(self, sub: _SketchSubmission) -> Optional[List[Any]]:
        """Memo lookup for a query; counts the hit/miss and emits."""
        assert self._memo is not None
        tokens = sub.tokens
        cached = self._memo.lookup(self._fingerprint, tokens)
        if cached is None:
            self.memo_misses += 1
            return None
        self.memo_hits += 1
        if self._recorder.active:
            self._recorder.sketch(
                self.sketch.name, "query", len(tokens), memo="hit"
            )
        return cached

    def _apply(self, sub: _SketchSubmission) -> None:
        """Execute one operation against the sketch, memo-aware."""
        op = sub.op
        acct = self.account(op.caller)
        if op.is_write:
            for x in op.items:
                self.sketch.insert(x)
            acct.insert_items += len(op.items)
            self._pending_inserts -= 1
            if self._memo is not None:
                dropped = self._memo.invalidate_fingerprint(self._fingerprint)
                if dropped and self._recorder.active:
                    self._recorder.sketch(
                        self.sketch.name, "insert", dropped,
                        memo="invalidate",
                    )
            sub.values = [True] * len(op.items)
        else:
            # Execution-time memo check: every insert ahead of this
            # query has now been applied (FIFO), so the memo's answer —
            # stored by some query executed after the last write — is
            # the current truth.
            cached = (
                self._try_memo(sub)
                if self._memo is not None and self._pending_inserts == 0
                else None
            )
            if cached is not None:
                sub.values = cached
                acct.memo_hits += 1
            else:
                sub.values = [self.sketch.query(y) for y in op.items]
                if self._memo is not None:
                    self._memo.store(self._fingerprint, sub.tokens, sub.values)
            acct.query_items += len(op.items)
        sub.remaining = 0

    def execute_batch_steps(self) -> Iterator[Any]:
        """Apply one FIFO batch of up to ``parallelism`` payload items.

        Whole operations only (a half-applied insert has no meaning),
        always at least one.  Declared a generator for interface parity
        with the oracle scheduler's stepwise batches; sketch operations
        are local and round-free, so it returns the batch size without
        ever yielding (exactly like an oracle lane in formula mode).  An
        operation that raises fails with its exception, which then
        leaves the batch; the operations after it stay queued.
        """
        if not self._queue:
            return 0
        taken: List[_SketchSubmission] = []
        size = 0
        for sub in self._queue:
            if taken and size + sub.op.size > self._parallelism:
                break
            taken.append(sub)
            size += sub.op.size
        for sub in taken:
            try:
                self._apply(sub)
            except Exception as exc:
                self._fail([sub], exc)
                raise
            self._queue.popleft()
            self._pending_queries -= sub.ticket.size
        self.physical_batches += 1
        return size
        yield  # pragma: no cover — generator marker, interface parity

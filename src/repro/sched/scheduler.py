"""The query-batch coalescing scheduler (Theorem 8, amortized).

Theorem 8's cost model is batch-shaped: a ``(b, p)`` run pays
``O(b·(p/n + 1)·D)`` rounds *per batch*, regardless of whose queries
fill a batch.  Before this module, every caller of
:func:`~repro.core.framework.run_framework` paid its own
distribute/convergecast rounds even when many concurrent runs shared
one :class:`~repro.core.framework.PreparedNetwork` and submitted
under-filled batches.  The scheduler coalesces:

* **Callers submit query sets** (:meth:`CoalescingScheduler.submit`)
  against one shared oracle; each submission is metered on that
  *caller's* :class:`~repro.queries.ledger.QueryLedger` exactly as a
  serial run would meter it.
* **The owner runs batches.**  Pending queries pack FIFO into maximal
  physical batches of up to ``p`` indices.  ``submit`` only queues a
  submission (or answers it from the memo); a batch runs when the
  scheduler's owner asks — :meth:`~LaneScheduler.flush`,
  :meth:`~LaneScheduler.drain`, :meth:`CoalescingScheduler.
  execute_batch_steps` — or when :meth:`~LaneScheduler.result` or
  :meth:`~LaneScheduler.take` reads a ticket still pending.  Theorem 8
  charges a batch the same rounds whoever fills it, so when a batch
  runs is the owner's policy: the :mod:`repro.serve` daemon fills or
  flushes on its own clock, and :class:`CallerOracle` runs one as soon
  as its caller reads.
* **One distribute/convergecast per physical batch** on the shared
  :class:`~repro.core.framework.CongestBatchOracle`; results are split
  back per caller in submission order.
* **Exact per-caller accounting**: the rounds each physical batch
  charges are attributed to its callers proportionally to their query
  counts, with largest-remainder rounding so the attributed shares sum
  *exactly* to the physically charged rounds — conservation is an
  invariant, not an approximation (see DESIGN.md §6f for the proof
  sketch, and :mod:`repro.sched.verify` for the bit-identical-to-serial
  pinning, same discipline as ``verify_parallel``).
* **Content-addressed memo** (:mod:`repro.sched.memo`): a submission
  whose (oracle fingerprint × sorted index tuple) was answered before is
  served in zero rounds; hits and misses flow through the observability
  spine as ``coalesce`` events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..congest.network import Network
from ..core.cost import RoundLedger
from ..core.framework import (
    CongestBatchOracle,
    FrameworkConfig,
    PreparedNetwork,
    build_oracle,
    drive,
    setup_network,
)
from ..core.operation import Operation
from ..obs.recorder import Recorder, current_recorder
from ..queries.ledger import QueryLedger
from .memo import ResultMemo, oracle_fingerprint

__all__ = [
    "CallerAccount",
    "CallerOracle",
    "CoalescingScheduler",
    "LaneScheduler",
    "SchedulerReport",
    "Ticket",
]


@dataclass(frozen=True)
class Ticket:
    """Handle for one submission.

    Read its values with ``scheduler.result(ticket)`` (repeatable) or
    ``scheduler.take(ticket)`` (once: the scheduler then forgets it).
    """

    id: int
    caller: str
    size: int


@dataclass
class CallerAccount:
    """Per-caller accounting, kept exactly as a serial run would keep it.

    ``queries`` meters the caller's own submissions (one record per
    submission, the caller's batch sizes and labels — identical to the
    ledger a serial ``run_framework`` would produce for the same call
    sequence).  ``rounds`` accumulates the caller's attributed share of
    every physical batch it participated in.
    """

    name: str
    queries: QueryLedger
    rounds: RoundLedger
    submissions: int = 0
    memo_hits: int = 0

    @property
    def attributed_rounds(self) -> int:
        return self.rounds.total


@dataclass
class SchedulerReport:
    """Aggregate accounting snapshot of one scheduler."""

    callers: int
    submissions: int
    total_queries: int
    physical_batches: int
    physical_query_rounds: int
    setup_rounds: int
    memo_hits: int
    memo_misses: int
    memo_evictions: int
    attributed_rounds: int  # sum over callers; == physical_query_rounds

    @property
    def amortized_rounds_per_query(self) -> float:
        if self.total_queries == 0:
            return 0.0
        return self.physical_query_rounds / self.total_queries


class LaneScheduler:
    """The ticket book the oracle and sketch lane schedulers share.

    A subclass keeps ``submit``, which files each submission (a
    :class:`_Work`) with :meth:`_book` (queued, or already answered from
    the memo), and ``execute_batch_steps``, a generator that runs one
    FIFO batch of the queue and returns its size; it keeps ``account``
    and ``report`` too.  Everything else lives here, once: ticket
    numbering, the ticket reads, the queue's running ``pending_queries``
    count, and what a batch that raises leaves behind (:meth:`_fail`):
    the work it had in flight finishes with its exception, which reading
    those tickets raises, while the batch's caller sees it raise too.  A
    batch runs only when the owner asks — :meth:`flush`, :meth:`drain`,
    ``execute_batch_steps`` — or when :meth:`result`/:meth:`take` reads a
    ticket still pending; ``submit`` never runs one.

    Args:
        parallelism: the batch width p.
        memo: ``True`` builds a private
            :class:`~repro.sched.memo.ResultMemo`; pass a ResultMemo to
            share one across schedulers, or ``False``/``None`` to disable.
        recorder: observability bus (defaults to the ambient recorder).
    """

    def __init__(
        self, parallelism: int, memo: Any, recorder: Optional[Recorder]
    ):
        self._parallelism = parallelism
        self._recorder = (
            recorder if recorder is not None else current_recorder()
        )
        self._rounds = RoundLedger(recorder=self._recorder)
        # ``is`` tests: an empty ResultMemo is falsy.
        if memo is False or memo is None:
            self._memo: Optional[ResultMemo] = None
        else:
            self._memo = (
                memo if isinstance(memo, ResultMemo)
                else ResultMemo(recorder=self._recorder)
            )
        #: Queued submissions in FIFO order.  A batch packs from the head,
        #: so the submissions it finishes are a prefix and leave by
        #: ``popleft``: draining N queued submissions costs O(N) in all.
        self._queue: Deque[Any] = deque()
        #: Summed ticket sizes of the queued work not yet executed, kept
        #: as it changes: the daemon reads it once per request it feeds.
        self._pending_queries = 0
        self._by_ticket: Dict[int, Any] = {}
        self._next_ticket = 0
        self.physical_batches = 0

    @property
    def parallelism(self) -> int:
        return self._parallelism

    @property
    def rounds(self) -> RoundLedger:
        """The lane's physical round ledger."""
        return self._rounds

    @property
    def memo(self) -> Optional[ResultMemo]:
        return self._memo

    @property
    def pending_queries(self) -> int:
        """Queued payload not yet executed (the daemon's fill metric)."""
        return self._pending_queries

    def _new_ticket(self, caller: str, size: int) -> Ticket:
        ticket = Ticket(id=self._next_ticket, caller=caller, size=size)
        self._next_ticket += 1
        return ticket

    def _book(self, sub: Any, queued: bool) -> Ticket:
        """File ``sub`` under its ticket, queueing it unless answered."""
        self._by_ticket[sub.ticket.id] = sub
        if queued:
            self._queue.append(sub)
            self._pending_queries += sub.ticket.size
        return sub.ticket

    def _fail(self, subs: List["_Work"], exc: Exception) -> None:
        """Finish ``subs``, in flight when their batch raised ``exc``.

        Each is done, with ``exc`` as what reading its ticket raises, and
        leaves the pending count and the queue (the work a batch holds
        is a prefix of it).
        """
        for sub in subs:
            self._pending_queries -= sub.remaining
            sub.remaining = 0
            sub.error = exc
        queue = self._queue
        while queue and queue[0].done:
            queue.popleft()

    def done(self, ticket: Ticket) -> bool:
        """True when the submission's values are ready (no execution),
        or its batch raised.

        Raises ``KeyError`` for an unknown ticket or a released one (see
        :meth:`take`).
        """
        sub = self._by_ticket.get(ticket.id)
        if sub is None:
            raise KeyError(f"unknown ticket {ticket.id}")
        return sub.done

    def result(self, ticket: Ticket) -> List[Any]:
        """The submission's values, forcing execution if still pending.

        Idempotent until the ticket is released by :meth:`take`; from
        then on it raises ``KeyError``, as for an unknown ticket.  A
        submission whose batch raised raises that exception instead; a
        batch this read runs that raises without holding the submission
        fails only its own work.
        """
        sub = self._finished(ticket)
        if sub.error is not None:
            raise sub.error
        return list(sub.values)

    def take(self, ticket: Ticket) -> List[Any]:
        """:meth:`result`, then release the ticket.

        The scheduler forgets the submission, so an owner that reads
        each result once (the serving daemon, :class:`CallerOracle`)
        leaves no finished work behind however long it runs; a failed
        submission is released before its exception is raised.
        """
        sub = self._finished(ticket)
        del self._by_ticket[ticket.id]
        if sub.error is not None:
            raise sub.error
        return list(sub.values)

    def _finished(self, ticket: Ticket) -> "_Work":
        """The ticket's submission, once done, running batches until then."""
        sub = self._by_ticket.get(ticket.id)
        if sub is None:
            raise KeyError(f"unknown ticket {ticket.id}")
        # FIFO packing puts this submission's work ahead of anything
        # submitted later, so a bounded number of flushes completes it:
        # a batch that raises still finishes the work it held.
        while not sub.done:
            try:
                self.flush()
            except Exception:
                # Each ticket that batch held carries the exception, so
                # this read raises it only if ``sub`` was among them.
                pass
        return sub

    def flush(self) -> int:
        """Execute one physical batch now; returns its size (0 if idle).

        Drives ``execute_batch_steps`` to completion, so the blocking and
        stepped paths run the same code.
        """
        return drive(self.execute_batch_steps())

    def drain(self) -> None:
        """Execute until nothing is pending."""
        while self._queue:
            self.flush()

    def pack_would_be_empty(self) -> bool:
        """True when a flush right now would execute nothing."""
        return not self._queue


class _Work:
    """One submission as the ticket book sees it; each lane's subclass
    sets these slots.

    ``ticket`` and ``values``; ``remaining``, its payload not yet
    executed (0 once it is done); and ``error``, the exception its batch
    raised if that batch failed, else None.
    """

    __slots__ = ("ticket", "values", "remaining", "error")

    @property
    def done(self) -> bool:
        return self.remaining == 0


class _Submission(_Work):
    """One in-flight query set and its per-index completion state."""

    __slots__ = ("indices", "label", "cursor")

    def __init__(self, ticket: Ticket, indices: List[int], label: str):
        self.ticket = ticket
        self.values: List[Any] = [None] * len(indices)
        self.remaining = len(indices)
        self.error: Optional[Exception] = None
        self.indices = indices
        self.label = label
        self.cursor = 0  # next index position not yet packed into a batch


def _proportional_shares(total: int, counts: Dict[str, int]) -> Dict[str, int]:
    """Split ``total`` proportionally to ``counts``, summing exactly.

    Largest-remainder (Hamilton) apportionment: every caller gets the
    floor of its proportional share, and the leftover units go to the
    largest fractional remainders, ties broken by caller name so the
    split is deterministic.  ``sum(shares) == total`` always.
    """
    weight = sum(counts.values())
    if weight == 0:
        raise ValueError("cannot attribute rounds to an empty batch")
    shares = {c: (total * n) // weight for c, n in counts.items()}
    leftover = total - sum(shares.values())
    if leftover:
        by_remainder = sorted(
            counts, key=lambda c: (-((total * counts[c]) % weight), c)
        )
        for c in by_remainder[:leftover]:
            shares[c] += 1
    return shares


class CoalescingScheduler(LaneScheduler):
    """Coalesces many callers' query sets onto one shared oracle.

    Args:
        network: the CONGEST network all callers share.
        config: a :class:`~repro.core.framework.FrameworkConfig`
            describing the shared oracle — parallelism p (the physical
            batch width), input (``dist_input`` or ``computer``/``k``),
            mode, seed, designated leader.  The same object a serial
            ``run_framework`` call would take.
        memo: ``True`` (default) builds a private
            :class:`~repro.sched.memo.ResultMemo`; pass a ResultMemo to
            share one across schedulers, or ``False`` to disable.
            Memoization is automatically disabled when the oracle
            content cannot be fingerprinted.
        recorder: observability bus (defaults to the ambient recorder);
            physical batches and memo hits emit ``coalesce`` events.
    """

    def __init__(
        self,
        network: Network,
        config: FrameworkConfig,
        *,
        memo: Any = True,
        recorder: Optional[Recorder] = None,
    ):
        self._fingerprint: Optional[str] = (
            None if memo is False or memo is None
            else oracle_fingerprint(network, config)
        )
        # Unfingerprintable content disables the memo: stay safe.
        super().__init__(
            config.parallelism,
            memo if self._fingerprint is not None else None,
            recorder,
        )
        self.network = network
        self.config = config
        with self._recorder.span("setup"):
            self._prepared: PreparedNetwork = setup_network(
                network, config, self._rounds
            )
        self._setup_rounds = self._rounds.total
        self._oracle: CongestBatchOracle = build_oracle(
            network, config, self._prepared.tree, self._rounds,
            self._recorder,
        )
        self._accounts: Dict[str, CallerAccount] = {}

    # -- caller-facing API ----------------------------------------------

    @property
    def k(self) -> int:
        return self._oracle.k

    @property
    def oracle(self) -> CongestBatchOracle:
        """The shared physical oracle (advanced use; prefer submit/result)."""
        return self._oracle

    def account(self, caller: str) -> CallerAccount:
        """The (lazily created) accounting record for one caller."""
        acct = self._accounts.get(caller)
        if acct is None:
            acct = CallerAccount(
                name=caller,
                queries=QueryLedger(self.config.parallelism),
                rounds=RoundLedger(recorder=self._recorder),
            )
            self._accounts[caller] = acct
        return acct

    def submit(self, operation: Operation) -> Ticket:
        """Enqueue one ``Operation.query(caller, indices, label)``.

        Meters the submission on the caller's ledger exactly as a serial
        ``oracle.query_batch(indices, label)`` would, then either serves
        it from the memo (zero rounds) or queues it for coalescing.
        """
        if not isinstance(operation, Operation):
            raise TypeError(
                "CoalescingScheduler.submit takes a repro.core.Operation "
                "(Operation.query(caller, indices, label))"
            )
        if operation.is_write or operation.items:
            raise ValueError(
                "CoalescingScheduler serves oracle reads only; sketch "
                "traffic (inserts, item queries) goes to "
                "repro.sched.SketchScheduler"
            )
        caller = operation.caller
        label = operation.label
        indices = list(operation.indices)
        k = self._oracle.k
        for j in indices:
            if not 0 <= j < k:
                raise IndexError(f"query index {j} out of range [0, {k})")
        acct = self.account(caller)
        # Raises ParallelismViolation when len(indices) > p, empty-batch
        # ValueError when empty — the same validation a serial run hits.
        acct.queries.record(len(indices), label=label)
        acct.submissions += 1

        sub = _Submission(self._new_ticket(caller, len(indices)), indices, label)
        if self._memo is not None:
            cached = self._memo.lookup(self._fingerprint, indices)
            if cached is not None:
                sub.values = cached
                sub.remaining = 0
                acct.memo_hits += 1
                if self._recorder.active:
                    self._recorder.coalesce(
                        size=len(indices), submissions=1, callers=1,
                        rounds=0, memo="hit",
                    )
                return self._book(sub, queued=False)
        return self._book(sub, queued=True)

    # -- accounting ------------------------------------------------------

    def report(self) -> SchedulerReport:
        return SchedulerReport(
            callers=len(self._accounts),
            submissions=sum(a.submissions for a in self._accounts.values()),
            total_queries=sum(
                a.queries.total_queries for a in self._accounts.values()
            ),
            physical_batches=self.physical_batches,
            physical_query_rounds=self._rounds.total - self._setup_rounds,
            setup_rounds=self._setup_rounds,
            memo_hits=self._memo.hits if self._memo is not None else 0,
            memo_misses=self._memo.misses if self._memo is not None else 0,
            memo_evictions=(
                self._memo.evictions if self._memo is not None else 0
            ),
            attributed_rounds=sum(
                a.attributed_rounds for a in self._accounts.values()
            ),
        )

    # -- execution -------------------------------------------------------

    def _attribute(self, phase: str, delta: int, counts: Dict[str, int]) -> None:
        """Charge a batch's ``delta`` rounds to its callers, in proportion
        to their query ``counts``."""
        for caller, share in _proportional_shares(delta, counts).items():
            self._accounts[caller].rounds.charge(phase, share)

    def execute_batch_steps(self) -> Iterator[int]:
        """One physical batch, yielding the engine's round number per round.

        Packs one maximal FIFO batch and surrenders control after every
        engine round of the distribute/convergecast/uncompute passes.
        :meth:`flush`, :meth:`drain` and :meth:`result` drive this same
        generator to completion, so the stepped and blocking paths are
        bit-identical by construction; the :mod:`repro.serve` daemon's
        lanes step it to interleave many in-flight batches on one event
        loop.  In formula mode there are no engine rounds, so the
        generator returns without yielding.  Returns the batch size via
        ``StopIteration.value`` (0 if the queue was empty).  A batch that
        raises fails every submission it packed with its exception, and
        attributes the rounds it charged, before the exception leaves.
        """
        p = self.config.parallelism
        batch_indices: List[int] = []
        slots: List[Tuple[_Submission, int]] = []  # (submission, position)
        for sub in self._queue:
            while sub.cursor < len(sub.indices) and len(batch_indices) < p:
                batch_indices.append(sub.indices[sub.cursor])
                slots.append((sub, sub.cursor))
                sub.cursor += 1
            if len(batch_indices) >= p:
                break
        if not batch_indices:
            return 0

        members = []  # submissions with >= 1 query in this batch, in order
        for sub, _pos in slots:
            if sub not in members:
                members.append(sub)
        # A single-submission batch keeps that submission's own label so
        # serial-degenerate runs (drained after every submission, or
        # p = 1 single-caller) charge under the exact phase keys a serial
        # run would.
        label = members[0].label if len(members) == 1 else "coalesced"

        # Per-caller query counts, and the phase key their shares charge.
        counts: Dict[str, int] = {}
        for sub, _pos in slots:
            caller = sub.ticket.caller
            counts[caller] = counts.get(caller, 0) + 1
        phase = f"batch:{label or 'query'}" if len(members) == 1 else "coalesced"

        before = self._rounds.total
        try:
            values = yield from self._oracle.query_batch_steps(
                batch_indices, label=label
            )
        except Exception as exc:
            # Every packed submission fails with the batch; the rounds it
            # charged before raising are still its callers'.
            delta = self._rounds.total - before
            if delta:
                self._attribute(phase, delta, counts)
            self._fail(members, exc)
            raise
        delta = self._rounds.total - before

        for (sub, pos), value in zip(slots, values, strict=True):
            sub.values[pos] = value
            sub.remaining -= 1
        self._attribute(phase, delta, counts)

        completed = [s for s in members if s.done]
        for sub in completed:
            if self._memo is not None:
                self._memo.store(self._fingerprint, sub.indices, sub.values)
        queue = self._queue
        while queue and queue[0].done:
            queue.popleft()
        self._pending_queries -= len(batch_indices)
        self.physical_batches += 1
        if self._recorder.active:
            self._recorder.coalesce(
                size=len(batch_indices), submissions=len(members),
                callers=len(counts), rounds=delta, memo="miss",
            )
        return len(batch_indices)


class CallerOracle:
    """One caller's :class:`~repro.queries.oracle.BatchOracle` view of a
    shared :class:`CoalescingScheduler`.

    Any Section 2 parallel-query algorithm runs unchanged against this
    adapter: ``query_batch`` submits on the caller's behalf and takes
    the ticket immediately, so adaptive algorithms (whose next batch
    depends on the previous answers) stay correct — taking forces
    execution, and coalescing happens with whatever *other* callers have
    pending at that moment.  The ``ledger`` is the caller's own
    :class:`~repro.queries.ledger.QueryLedger`, metered exactly as a
    private ``run_framework`` oracle would meter it.

    ``peek_all`` passes through to the shared oracle's physics backdoor
    (outcome simulation only — the same contract as every other
    :class:`~repro.queries.oracle.BatchOracle`).
    """

    def __init__(self, scheduler: CoalescingScheduler, caller: str):
        self.scheduler = scheduler
        self.caller = caller

    @property
    def ledger(self) -> QueryLedger:
        return self.scheduler.account(self.caller).queries

    @property
    def k(self) -> int:
        return self.scheduler.k

    def query_batch(self, indices: Sequence[int], label: str = "") -> List[Any]:
        ticket = self.scheduler.submit(
            Operation.query(self.caller, indices, label=label)
        )
        return self.scheduler.take(ticket)

    def peek_all(self) -> Sequence[Any]:
        return self.scheduler.oracle.peek_all()

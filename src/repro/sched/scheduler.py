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
* **Fill-or-flush**: pending queries are packed FIFO into maximal
  physical batches of up to ``p`` indices.  A batch executes as soon as
  ``p`` queries are pending (*fill*), or when the round-budget deadline
  expires (*flush*): every pending submission carries the standalone
  round cost it would have paid executing immediately, and once the
  summed deferred rounds exceed ``deadline_rounds`` the oldest work is
  forced out — no caller's queries can be starved past the deadline by
  other callers' traffic.  ``deadline_rounds=0`` degenerates to serial
  per-submission execution (the equivalence baseline);
  ``deadline_rounds=None`` waits for fill or an explicit
  :meth:`flush`/:meth:`drain`.
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

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..congest.network import Network
from ..core.cost import CostModel, RoundLedger
from ..core.framework import (
    CongestBatchOracle,
    FrameworkConfig,
    PreparedNetwork,
    build_oracle,
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
    "SchedulerReport",
    "Ticket",
]


@dataclass(frozen=True)
class Ticket:
    """Handle for one submission; redeem with ``scheduler.result(ticket)``."""

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


class _Submission:
    """One in-flight query set and its per-index completion state."""

    __slots__ = (
        "ticket", "caller", "indices", "label", "values", "remaining",
        "estimate", "cursor",
    )

    def __init__(self, ticket: Ticket, caller: str, indices: List[int],
                 label: str, estimate: int):
        self.ticket = ticket
        self.caller = caller
        self.indices = indices
        self.label = label
        self.values: List[Any] = [None] * len(indices)
        self.remaining = len(indices)
        self.estimate = estimate  # standalone rounds if executed alone
        self.cursor = 0  # next index position not yet packed into a batch

    @property
    def done(self) -> bool:
        return self.remaining == 0


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


class CoalescingScheduler:
    """Coalesces many callers' query sets onto one shared oracle.

    Args:
        network: the CONGEST network all callers share.
        config: a :class:`~repro.core.framework.FrameworkConfig`
            describing the shared oracle — parallelism p (the physical
            batch width), input (``dist_input`` or ``computer``/``k``),
            mode, seed, setup policy.  The same object a serial
            ``run_framework`` call would take.
        deadline_rounds: the fill-or-flush round budget.  ``None``
            (default) never force-flushes; ``0`` executes every
            submission immediately (serial behaviour); ``R > 0`` forces
            a flush as soon as the summed standalone round cost of
            pending submissions exceeds R.
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
        deadline_rounds: Optional[int] = None,
        memo: Any = True,
        recorder: Optional[Recorder] = None,
        auto_flush: bool = True,
    ):
        if deadline_rounds is not None and deadline_rounds < 0:
            raise ValueError(
                f"deadline_rounds must be >= 0 or None, got {deadline_rounds}"
            )
        self.network = network
        self.config = config
        self.deadline_rounds = deadline_rounds
        #: With auto_flush off, ``submit`` only enqueues — execution is
        #: the owner's job via :meth:`flush` / :meth:`execute_batch_steps`.
        #: The serving daemon runs this way so a submission can never
        #: block the event loop on a synchronous batch.
        self.auto_flush = auto_flush
        self._recorder = (
            recorder if recorder is not None else current_recorder()
        )
        self._rounds = RoundLedger(recorder=self._recorder)
        with self._recorder.span("setup"):
            self._prepared: PreparedNetwork = setup_network(
                network, config, self._rounds
            )
        self._setup_rounds = self._rounds.total
        self._oracle: CongestBatchOracle = build_oracle(
            network, config, self._prepared.tree, self._rounds,
            self._recorder,
        )
        self._cost_model = CostModel.for_network(network)
        sg = config.dist_input.semigroup if config.dist_input else config.semigroup
        self._q_bits = sg.bits if sg is not None else self._cost_model.word_bits

        if memo is False or memo is None:
            self._memo: Optional[ResultMemo] = None
            self._fingerprint: Optional[str] = None
        else:
            self._fingerprint = oracle_fingerprint(network, config)
            if self._fingerprint is None:
                self._memo = None  # unfingerprintable content: stay safe
            else:
                self._memo = (
                    memo if isinstance(memo, ResultMemo)
                    else ResultMemo(recorder=self._recorder)
                )

        self._queue: List[_Submission] = []
        self._deferred_rounds = 0
        self._accounts: Dict[str, CallerAccount] = {}
        self._by_ticket: Dict[int, _Submission] = {}
        self._next_ticket = 0
        self.physical_batches = 0

    # -- caller-facing API ----------------------------------------------

    @property
    def parallelism(self) -> int:
        return self.config.parallelism

    @property
    def k(self) -> int:
        return self._oracle.k

    @property
    def leader(self) -> int:
        return self._prepared.leader

    @property
    def memo(self) -> Optional[ResultMemo]:
        return self._memo

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

        ticket = Ticket(id=self._next_ticket, caller=caller, size=len(indices))
        self._next_ticket += 1

        if self._memo is not None:
            cached = self._memo.lookup(self._fingerprint, indices)
            if cached is not None:
                sub = _Submission(ticket, caller, indices, label, estimate=0)
                sub.values = cached
                sub.remaining = 0
                self._by_ticket[ticket.id] = sub
                acct.memo_hits += 1
                if self._recorder.active:
                    self._recorder.coalesce(
                        size=len(indices), submissions=1, callers=1,
                        rounds=0, memo="hit",
                    )
                return ticket

        estimate = self._cost_model.batch_rounds(
            len(indices), self._q_bits, k
        )
        sub = _Submission(ticket, caller, indices, label, estimate=estimate)
        self._queue.append(sub)
        self._by_ticket[ticket.id] = sub
        self._deferred_rounds += estimate
        if self.auto_flush:
            self._maybe_flush()
        return ticket

    def done(self, ticket: Ticket) -> bool:
        """True when the submission's values are ready (no execution)."""
        sub = self._by_ticket.get(ticket.id)
        if sub is None:
            raise KeyError(f"unknown ticket {ticket.id}")
        return sub.done

    def result(self, ticket: Ticket) -> List[Any]:
        """The submission's values, forcing execution if still pending."""
        sub = self._by_ticket.get(ticket.id)
        if sub is None:
            raise KeyError(f"unknown ticket {ticket.id}")
        # FIFO packing puts this submission's indices ahead of anything
        # submitted later, so a bounded number of flushes completes it.
        while not sub.done:
            self._execute_batch()
        return list(sub.values)

    def flush(self) -> int:
        """Execute one physical batch now; returns its size (0 if idle)."""
        if not self._queue:
            return 0
        return self._execute_batch()

    def drain(self) -> None:
        """Execute until no query is pending."""
        while self._queue:
            self._execute_batch()

    # -- accounting ------------------------------------------------------

    @property
    def pending_queries(self) -> int:
        return sum(s.remaining for s in self._queue)

    @property
    def rounds(self) -> RoundLedger:
        """The shared physical ledger (setup + every coalesced batch)."""
        return self._rounds

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

    # -- internals -------------------------------------------------------

    def _maybe_flush(self) -> None:
        p = self.config.parallelism
        while self.pending_queries >= p:
            self._execute_batch()
        if self.deadline_rounds is None:
            return
        while self._queue and self._deferred_rounds > self.deadline_rounds:
            self._execute_batch()

    def _execute_batch(self) -> int:
        """Pack one maximal physical batch FIFO and run it to completion."""
        gen = self.execute_batch_steps()
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value

    def execute_batch_steps(self) -> Iterator[Tuple[str, int]]:
        """Stepwise :meth:`flush`: yields ``(phase, round)`` per engine round.

        The generator packs one maximal FIFO batch exactly like
        :meth:`_execute_batch` (which drives this generator, so the two
        paths are bit-identical by construction) but surrenders control
        after every engine round of the distribute/convergecast/uncompute
        passes.  This is the suspension point the :mod:`repro.serve`
        daemon's lanes use to interleave many in-flight batches on one
        event loop.  In formula mode there are no engine rounds, so the
        generator returns without yielding.  Returns the batch size via
        ``StopIteration.value`` (0 if the queue was empty).
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
        # serial-degenerate runs (deadline 0, or p = 1 single-caller)
        # charge under the exact phase keys a serial run would.
        label = members[0].label if len(members) == 1 else "coalesced"

        before = self._rounds.total
        values = yield from self._oracle.query_batch_steps(
            batch_indices, label=label
        )
        delta = self._rounds.total - before

        for (sub, pos), value in zip(slots, values):
            sub.values[pos] = value
            sub.remaining -= 1

        counts: Dict[str, int] = {}
        for sub, _pos in slots:
            counts[sub.caller] = counts.get(sub.caller, 0) + 1
        for caller, share in _proportional_shares(delta, counts).items():
            self._accounts[caller].rounds.charge(
                f"batch:{label or 'query'}" if len(members) == 1
                else "coalesced", share,
            )

        completed = [s for s in members if s.done]
        for sub in completed:
            if self._memo is not None:
                self._memo.store(self._fingerprint, sub.indices, sub.values)
        self._queue = [s for s in self._queue if not s.done]
        self._deferred_rounds = sum(s.estimate for s in self._queue)
        self.physical_batches += 1
        if self._recorder.active:
            self._recorder.coalesce(
                size=len(batch_indices), submissions=len(members),
                callers=len(counts), rounds=delta, memo="miss",
            )
        return len(batch_indices)

    def pack_would_be_empty(self) -> bool:
        """True when a flush right now would execute nothing."""
        return not self._queue


class CallerOracle:
    """One caller's :class:`~repro.queries.oracle.BatchOracle` view of a
    shared :class:`CoalescingScheduler`.

    Any Section 2 parallel-query algorithm runs unchanged against this
    adapter: ``query_batch`` submits on the caller's behalf and redeems
    the ticket immediately, so adaptive algorithms (whose next batch
    depends on the previous answers) stay correct — redeeming forces
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
        return self.scheduler.result(ticket)

    def peek_all(self) -> Sequence[Any]:
        return self.scheduler.oracle.peek_all()

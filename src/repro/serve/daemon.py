"""The always-on query-serving daemon (``python -m repro serve``).

:class:`QueryService` is a long-lived asyncio service that accepts
:class:`~repro.core.operation.Operation` streams from many concurrent
clients and serves them over the :class:`~repro.sched.CoalescingScheduler`
(oracle read profiles) or the :class:`~repro.sched.sketch.SketchScheduler`
(pinned amplitude-sketch profiles, :meth:`QueryService.add_sketch_profile`
— same admission, fairness, worker loop, and drain machinery, plus
write-path memo invalidation):

* **Admission** — every request passes its tenant's
  :class:`~repro.serve.tenants.TenantQuota`: a bounded pending queue
  (full queue ⇒ :class:`~repro.serve.tenants.AdmissionError`, the
  backpressure signal) and an optional lifetime query quota.
* **Weighted fairness** — queued requests drain into the scheduler in
  :class:`~repro.serve.tenants.StridePicker` order, so backlogged
  tenants share batch capacity in proportion to their weights.
* **Fill-or-flush** — a lane executes as soon as a full width-``p``
  batch is pending, or after ``flush_after_ms`` of arrival silence with
  a partial batch (the serving analogue of the scheduler's
  ``deadline_rounds``).
* **Stepwise execution** — batches run through
  :meth:`~repro.sched.CoalescingScheduler.execute_batch_steps`, the
  generator that suspends after every engine round; the worker yields to
  the event loop every ``yield_every`` rounds, so many lanes (and every
  client coroutine) interleave on one loop while a batch is in flight.
  Bit-identity of this path to the blocking scheduler is pinned by
  ``tests/congest/test_engine_step.py`` and
  ``tests/property/test_prop_sched.py``.
* **Results as futures** — :meth:`QueryService.submit` returns an
  ``asyncio.Future`` resolving to :class:`ServeResult`; memo hits
  resolve without touching the network.
* **Graceful drain** — :meth:`drain` stops admission, flushes every
  lane, resolves every future, and emits a ``serve.drain`` event; a
  ``python -m repro serve`` session drains once its offered load
  completes (Ctrl-C interrupts it without a drain).  The impatient path
  (:meth:`abort`) cancels instead, failing outstanding futures with
  :class:`ServiceClosed` and counting them ``abandoned``.

Every life-cycle edge lands on the observability spine as ``serve.*``
events (schema: :mod:`repro.obs.jsonl`), so one JSONL trace tells the
whole story of a serving session.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..apps.sketches import AmplitudeSketch
from ..congest.network import Network
from ..core.framework import FrameworkConfig
from ..core.operation import Operation
from ..obs.recorder import Recorder, current_recorder
from ..sched.scheduler import Ticket
from .pool import Lane, PreparedPool
from .tenants import AdmissionError, StridePicker, TenantQuota, TenantState

__all__ = ["QueryService", "ServeResult", "ServiceClosed", "DEFAULT_PROFILE"]

DEFAULT_PROFILE = "default"


class ServiceClosed(Exception):
    """The daemon is draining or closed; no new work is admitted."""


@dataclass
class ServeResult:
    """What a resolved request future carries."""

    values: List[Any]
    tenant: str
    profile: str
    wait_ms: float


class _Request:
    __slots__ = ("op", "profile", "future", "submitted_at")

    def __init__(self, op, profile, future, submitted_at):
        self.op = op  # the canonical Operation (tenant == op.caller)
        self.profile = profile
        self.future = future
        self.submitted_at = submitted_at

    @property
    def tenant(self):
        return self.op.caller


@dataclass
class _LaneState:
    """Per-lane dispatch state: its picker and its arrival signal."""

    picker: StridePicker
    event: asyncio.Event = field(default_factory=asyncio.Event)


class QueryService:
    """The multi-tenant serving daemon.  See the module docstring.

    Args:
        tenants: quotas to pre-register; unknown tenants are admitted
            with ``default_quota`` when set, rejected otherwise.
        default_quota: template quota for auto-registered tenants (its
            ``name`` field is ignored).
        max_lanes: warm-pool bound (:class:`~repro.serve.pool.
            PreparedPool`).
        flush_after_ms: arrival silence after which a partial batch
            flushes anyway.
        yield_every: engine rounds stepped between event-loop yields;
            lower = fairer interleaving, higher = less loop overhead.
        recorder: observability bus (defaults to the ambient recorder).
        memo: forwarded to each lane's scheduler — ``True`` (default)
            for a private result memo, ``False`` to disable, or a shared
            :class:`~repro.sched.ResultMemo`.
    """

    def __init__(
        self,
        tenants: Sequence[TenantQuota] = (),
        default_quota: Optional[TenantQuota] = None,
        max_lanes: int = 8,
        flush_after_ms: float = 5.0,
        yield_every: int = 8,
        recorder: Optional[Recorder] = None,
        memo: Any = True,
    ):
        if flush_after_ms < 0:
            raise ValueError("flush_after_ms must be >= 0")
        if yield_every < 1:
            raise ValueError("yield_every must be >= 1")
        self._recorder = (
            recorder if recorder is not None else current_recorder()
        )
        self._quotas: Dict[str, TenantQuota] = {
            q.name: q for q in tenants
        }
        self._default_quota = default_quota
        self.pool = PreparedPool(
            max_lanes=max_lanes, recorder=self._recorder, memo=memo
        )
        self.flush_after_ms = flush_after_ms
        self.yield_every = yield_every
        self._lane_state: Dict[str, _LaneState] = {}
        self._workers: Dict[str, asyncio.Task] = {}
        self._draining = False
        self._drained: Optional[asyncio.Future] = None
        self._drain_reason = "close"
        self.completed = 0
        self._flushed_during_drain = 0
        self.abandoned = 0

    # -- profiles --------------------------------------------------------

    def add_profile(
        self,
        network: Network,
        config: FrameworkConfig,
        name: str = DEFAULT_PROFILE,
    ) -> Lane:
        """Register (or re-warm) a serving profile."""
        if self._draining:
            raise ServiceClosed("cannot add profiles while draining")
        lane = self.pool.acquire(name, network, config)
        if name not in self._lane_state:
            # Each lane gets its own picker so per-tenant queues bound
            # *per lane*; quotas themselves are shared definitions.
            self._lane_state[name] = _LaneState(picker=StridePicker())
        return lane

    def add_sketch_profile(
        self,
        name: str,
        sketch: AmplitudeSketch,
        parallelism: int = 64,
    ) -> Lane:
        """Register a pinned sketch lane serving insert/query streams.

        The lane's :class:`~repro.sched.sketch.SketchScheduler` holds
        ``sketch`` as authoritative shared state: inserts invalidate the
        lane memo before they are acknowledged, and the lane is never
        LRU-evicted.  Traffic arrives through the same :meth:`submit` as
        oracle reads, as ``Operation.insert`` / ``Operation.sketch_query``
        with ``profile=name``.
        """
        if self._draining:
            raise ServiceClosed("cannot add profiles while draining")
        lane = self.pool.add_sketch(name, sketch, parallelism=parallelism)
        if name not in self._lane_state:
            self._lane_state[name] = _LaneState(picker=StridePicker())
        return lane

    def _tenant(self, state: _LaneState, name: str) -> TenantState:
        if name in state.picker:
            return state.picker.get(name)
        quota = self._quotas.get(name)
        if quota is None:
            if self._default_quota is None:
                raise KeyError(
                    f"unknown tenant {name!r} and no default quota set"
                )
            quota = TenantQuota(
                name=name,
                weight=self._default_quota.weight,
                max_pending=self._default_quota.max_pending,
                max_queries=self._default_quota.max_queries,
            )
            self._quotas[name] = quota
        tenant = TenantState(quota=quota)
        state.picker.add(tenant)
        return tenant

    # -- client API ------------------------------------------------------

    def submit(
        self,
        operation: Operation,
        *,
        profile: str = DEFAULT_PROFILE,
    ) -> "asyncio.Future[ServeResult]":
        """Admit one operation; returns the future carrying its values.

        Called as ``submit(Operation.query(tenant, indices),
        profile=...)`` — or ``Operation.insert`` / ``Operation.
        sketch_query`` against a sketch profile.  The tenant is the
        operation's ``caller``.

        Must be called on the service's event loop.  Raises
        :class:`ServiceClosed` after drain starts,
        :class:`~repro.serve.tenants.AdmissionError` on backpressure or
        quota exhaustion, and ``KeyError`` for an unknown profile or an
        unknown tenant without a default quota.
        """
        if not isinstance(operation, Operation):
            raise TypeError(
                "QueryService.submit takes a repro.core.Operation "
                "(Operation.query(tenant, indices, label))"
            )
        if self._draining:
            raise ServiceClosed("service is draining; submission refused")
        if profile not in self._lane_state:
            raise KeyError(f"unknown profile {profile!r}")
        tenant = operation.caller
        state = self._lane_state[profile]
        tstate = self._tenant(state, tenant)
        try:
            tstate.admit(operation.size)
        except AdmissionError:
            if self._recorder.active:
                self._recorder.serve_request(
                    tenant, operation.size, "rejected"
                )
            raise
        tstate.accepted += 1
        tstate.queries_admitted += operation.size
        loop = asyncio.get_running_loop()
        request = _Request(
            operation, profile, loop.create_future(), time.monotonic(),
        )
        tstate.queue.append(request)
        if self._recorder.active:
            self._recorder.serve_request(tenant, operation.size, "accepted")
        self._ensure_worker(profile)
        state.event.set()
        return request.future

    # -- lane workers ----------------------------------------------------

    def _ensure_worker(self, profile: str) -> None:
        task = self._workers.get(profile)
        if task is None or task.done():
            self._workers[profile] = asyncio.get_running_loop().create_task(
                self._worker(profile), name=f"repro-serve-{profile}"
            )

    def _feed(self, lane: Lane, state: _LaneState) -> None:
        """Move queued requests into the scheduler, stride-fairly.

        Stops once a full batch is pending, so under backlog the tenant
        queues — not the scheduler — hold the excess and backpressure
        stays meaningful.
        """
        sched = lane.scheduler
        p = sched.parallelism
        while sched.pending_queries < p:
            tenant = state.picker.pick()
            if tenant is None:
                return
            request = tenant.queue.popleft()
            try:
                ticket = sched.submit(request.op)
            except Exception as exc:  # bad indices, width violation, ...
                if not request.future.done():
                    request.future.set_exception(exc)
                continue
            if sched.done(ticket):  # memo hit: zero rounds, resolve now
                self._complete(lane, state, ticket, request)
            else:
                lane.in_flight[ticket.id] = (ticket, request)

    def _complete(
        self, lane: Lane, state: _LaneState, ticket: Ticket, request: _Request
    ) -> None:
        values = lane.scheduler.result(ticket)
        wait_ms = (time.monotonic() - request.submitted_at) * 1000.0
        tenant = state.picker.get(request.tenant)
        tenant.completed += 1
        self.completed += 1
        if self._draining:
            self._flushed_during_drain += 1
        if not request.future.done():
            request.future.set_result(
                ServeResult(
                    values=values, tenant=request.tenant,
                    profile=lane.name, wait_ms=wait_ms,
                )
            )
        if self._recorder.active:
            self._recorder.serve_request(
                request.tenant, request.op.size, "completed",
                wait_ms=wait_ms,
            )

    async def _run_batch(self, lane: Lane, state: _LaneState) -> int:
        """Step one physical batch to completion, yielding between rounds."""
        sched = lane.scheduler
        before = sched.rounds.total
        gen = sched.execute_batch_steps()
        rounds = 0
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                size = stop.value
                break
            rounds += 1
            if rounds % self.yield_every == 0:
                await asyncio.sleep(0)
        # Formula-mode batches never suspend above; still yield once per
        # batch so a flood of requests cannot starve client coroutines.
        await asyncio.sleep(0)
        delta = sched.rounds.total - before
        completed_ids = [
            tid for tid, (ticket, _req) in lane.in_flight.items()
            if sched.done(ticket)
        ]
        tenants = set()
        for tid in completed_ids:
            ticket, request = lane.in_flight.pop(tid)
            tenants.add(request.tenant)
            self._complete(lane, state, ticket, request)
        if size and self._recorder.active:
            self._recorder.serve_batch(
                lane.name, size, len(tenants), delta
            )
        if size:
            lane.batches += 1
        return size

    async def _worker(self, profile: str) -> None:
        lane = self.pool.acquire(profile)
        state = self._lane_state[profile]
        sched = lane.scheduler
        flush_now = False
        while True:
            self._feed(lane, state)
            pending = sched.pending_queries
            if pending >= sched.parallelism or (
                pending > 0 and (flush_now or self._draining)
            ):
                flush_now = False
                await self._run_batch(lane, state)
                continue
            if self._draining:
                if pending > 0 or state.picker.backlog > 0:
                    flush_now = True
                    continue
                return  # lane fully drained
            timeout = (
                self.flush_after_ms / 1000.0 if pending > 0 else None
            )
            state.event.clear()
            try:
                await asyncio.wait_for(state.event.wait(), timeout)
            except asyncio.TimeoutError:
                flush_now = True  # fill-or-flush: run the partial batch

    # -- shutdown --------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, reason: str = "close") -> None:
        """Stop admission, flush every lane, resolve every future."""
        if self._draining:
            if self._drained is not None:
                await asyncio.shield(self._drained)
            return
        self._draining = True
        self._drain_reason = reason
        self._drained = asyncio.get_running_loop().create_future()
        for state in self._lane_state.values():
            state.event.set()
        workers = [t for t in self._workers.values() if not t.done()]
        if workers:
            await asyncio.gather(*workers)
        if self._recorder.active:
            self._recorder.serve_drain(
                reason, self._flushed_during_drain, 0
            )
        if not self._drained.done():
            self._drained.set_result(None)

    async def abort(self, reason: str = "abort") -> None:
        """Cancel without flushing; outstanding futures fail."""
        self._draining = True
        self._drain_reason = reason
        for task in self._workers.values():
            task.cancel()
        await asyncio.gather(
            *self._workers.values(), return_exceptions=True
        )
        abandoned = 0
        for name, state in self._lane_state.items():
            lane = self.pool.acquire(name)
            for _tid, (_ticket, request) in lane.in_flight.items():
                if not request.future.done():
                    request.future.set_exception(
                        ServiceClosed(f"service aborted ({reason})")
                    )
                    abandoned += 1
            lane.in_flight.clear()
            for tenant in state.picker.states():
                while tenant.queue:
                    request = tenant.queue.popleft()
                    if not request.future.done():
                        request.future.set_exception(
                            ServiceClosed(f"service aborted ({reason})")
                        )
                    tenant.abandoned += 1
                    abandoned += 1
        self.abandoned += abandoned
        if self._recorder.active:
            self._recorder.serve_drain(
                reason, self._flushed_during_drain, abandoned
            )

    # -- introspection ---------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of serving state and pool stats."""
        tenants: Dict[str, Dict[str, int]] = {}
        for state in self._lane_state.values():
            for t in state.picker.states():
                agg = tenants.setdefault(
                    t.quota.name,
                    {"accepted": 0, "rejected": 0, "completed": 0,
                     "abandoned": 0, "pending": 0},
                )
                agg["accepted"] += t.accepted
                agg["rejected"] += t.rejected
                agg["completed"] += t.completed
                agg["abandoned"] += t.abandoned
                agg["pending"] += len(t.queue)
        return {
            "completed": self.completed,
            "abandoned": self.abandoned,
            "draining": self._draining,
            "tenants": tenants,
            "lanes": {
                lane.name: {
                    "batches": lane.batches,
                    "pending_queries": lane.scheduler.pending_queries,
                    "in_flight": len(lane.in_flight),
                    "report": lane.scheduler.report().__dict__,
                }
                for lane in self.pool.lanes()
            },
            "pool": self.pool.stats(),
        }

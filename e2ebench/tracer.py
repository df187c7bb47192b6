"""Spans for the traced run, recorded by wrappers around public entry points.

:func:`install` replaces the entry points of each layer with wrappers that
record one span per call — name, start, end, parent span and request id —
in flat in-memory arrays, written out by :meth:`Tracer.write` when the run
ends.  Nothing inside the program changes; the untraced run never imports
this module's wrappers.

Attribution rules:

* A span's self time is its duration minus the time its child spans
  cover.  Calls on one thread nest strictly, so that is the sum of the
  direct children's durations.
* A generator entry point is charged only for the time inside each
  ``next()``: every resumption is its own span.
* :meth:`QueryService.submit` assigns one request id per operation;
  scheduler submissions of that operation carry the same id, and a batch
  span links to the ids whose tickets it completed.
* The event loop's iterations are spans too (``loop.run_once``), with the
  selector's wait as a child (``loop.select``).  An iteration's self time
  is loop busy time outside every deeper span and outside the driver —
  the daemon's own time.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter_ns

#: Layers whose spans wait rather than compute: the selector, and the wait
#: for worker processes (whose own layers are not traced).
WAITING = ("idle", "workers")

#: Span name -> layer.  Self times are summed per layer.
LAYERS = {
    "driver": "driver",
    "loop.run_once": "daemon",
    "QueryService.submit": "daemon",
    "loop.select": "idle",
    "parallel.wait": "workers",
    "CoalescingScheduler.submit": "sched",
    "CoalescingScheduler.execute_batch_steps": "sched",
    "SketchScheduler.submit": "sketch_sched",
    "SketchScheduler.execute_batch_steps": "sketch_sched",
    "ResultMemo.lookup": "memo",
    "ResultMemo.store": "memo",
    "ResultMemo.invalidate_fingerprint": "memo",
    "AmplitudeSketch.insert": "sketch",
    "AmplitudeSketch.query": "sketch",
    "CongestBatchOracle.query_batch_steps": "framework",
    "EngineStepper.step": "engine",
    "FaultyEngine.step": "faults",
    "PreparedCache.prepare": "setup",
}


def layer_of(name: str) -> str:
    if name.startswith("Statevector."):
        return "quantum"
    if name.startswith("experiment."):
        return "experiment"
    return LAYERS[name]


class Tracer:
    """In-memory span store plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_rid = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.links = array("i")  # flattened (batch span, request id) pairs
        self._stack: List[int] = []
        self._covered: List[int] = []  # child time of each open span
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        # request bookkeeping
        self._rid_of_op: Dict[int, int] = {}
        self._submitted_at: List[int] = []
        self._pending: Dict[int, Dict[int, tuple]] = defaultdict(dict)
        self.queue_wait_ns: List[int] = []
        self.coalesce_wait_ns: List[int] = []
        self.record_waits = True
        # CPU spent inside waiting spans (the selector call, the pipe poll)
        self.wait_cpu_ns: Dict[str, int] = defaultdict(int)
        # completed generator entry points and the sizes they returned
        self.batches: Dict[str, int] = defaultdict(int)
        self.batch_items: Dict[str, int] = defaultdict(int)
        # engine counters (exact, from RunResult / Engine)
        self.engine: Dict[str, int] = defaultdict(int)
        # GC pauses
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._gc_start = 0

    # -- spans -----------------------------------------------------------

    def open(self, name: str, rid: int = -1) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_rid.append(rid)
        self.span_end.append(0)
        self._stack.append(idx)
        self._covered.append(0)
        self.span_start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        end = _now()
        self.span_end[idx] = end
        self._stack.pop()
        covered = self._covered.pop()
        duration = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.self_ns[name] += duration - covered
        self.total_ns[name] += duration
        self.calls[name] += 1
        if self._covered:
            self._covered[-1] += duration

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    # -- requests --------------------------------------------------------

    def new_request(self, op: Any) -> int:
        rid = len(self._submitted_at)
        self._rid_of_op[id(op)] = rid
        self._submitted_at.append(_now())
        return rid

    def enqueued(self, sched: Any, op: Any, ticket: Any, done: bool) -> int:
        """A scheduler accepted ``op``: record its queue wait and ticket."""
        rid = self._rid_of_op.get(id(op), -1)
        now = _now()
        if rid >= 0 and self.record_waits:
            self.queue_wait_ns.append(now - self._submitted_at[rid])
        if not done:
            self._pending[id(sched)][ticket.id] = (ticket, rid, now)
        return rid

    def batch_done(self, sched: Any, idx: int) -> None:
        """Link batch span ``idx`` to every request it completed."""
        pending = self._pending[id(sched)]
        now = _now()
        for tid in [t for t, (ticket, _, _) in pending.items() if sched.done(ticket)]:
            _ticket, rid, since = pending.pop(tid)
            self.links.append(idx)
            self.links.append(rid)
            if self.record_waits:
                self.coalesce_wait_ns.append(now - since)

    # -- GC --------------------------------------------------------------

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = _now()
        else:
            self.gc_pause_ns += _now() - self._gc_start
            self.gc_collections += 1

    # -- output ----------------------------------------------------------

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Every cumulative counter, by family (a timed region keeps deltas)."""
        return {
            "self_ns": self.self_ns,
            "total_ns": self.total_ns,
            "calls": self.calls,
            "batches": self.batches,
            "batch_items": self.batch_items,
            "engine": self.engine,
            "wait_cpu_ns": self.wait_cpu_ns,
            "gc": {"pause_ns": self.gc_pause_ns, "collections": self.gc_collections},
        }

    def write(self, path: str) -> None:
        """Write every span and link as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "parent", "request", "start_ns", "end_ns"],
                    "spans": [
                        self.span_name.tolist(),
                        self.span_parent.tolist(),
                        self.span_rid.tolist(),
                        self.span_start.tolist(),
                        self.span_end.tolist(),
                    ],
                    "links": self.links.tolist(),
                },
                fh,
            )


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.idx)


# -- wrappers ------------------------------------------------------------


def _wrap_call(tracer: Tracer, owner: type, attr: str) -> None:
    fn = getattr(owner, attr)
    name = f"{owner.__name__}.{attr}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    setattr(owner, attr, traced)


def _stepped(tracer: Tracer, name: str, gen, on_return: Optional[Callable] = None):
    """Re-yield ``gen``, one span per resumption."""
    sent = None
    while True:
        idx = tracer.open(name)
        try:
            item = gen.send(sent)
        except StopIteration as stop:
            if on_return is not None:
                on_return(idx)
            tracer.close(idx)
            tracer.batches[name] += 1
            if isinstance(stop.value, int):
                tracer.batch_items[name] += stop.value
            return stop.value
        except BaseException:
            tracer.close(idx)
            raise
        tracer.close(idx)
        sent = yield item


def _wrap_gen(tracer: Tracer, owner: type, attr: str, link: bool = False) -> None:
    fn = getattr(owner, attr)
    name = f"{owner.__name__}.{attr}"

    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        on_return = functools.partial(tracer.batch_done, self) if link else None
        return _stepped(tracer, name, fn(self, *args, **kwargs), on_return)

    setattr(owner, attr, traced)


def _waiting(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Span a call that mostly waits, and keep the CPU it does use apart,
    so that CPU still counts as busy time."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        cpu = time.process_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.wait_cpu_ns[name] += time.process_time_ns() - cpu
            tracer.close(idx)

    return traced


def _wrap_sched_submit(tracer: Tracer, owner: type) -> None:
    fn = owner.submit
    name = f"{owner.__name__}.submit"

    @functools.wraps(fn)
    def traced(self, operation, *args, **kwargs):
        idx = tracer.open(name)
        try:
            ticket = fn(self, operation, *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.span_rid[idx] = tracer.enqueued(
            self, operation, ticket, self.done(ticket)
        )
        return ticket

    owner.submit = traced


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (process-wide)."""
    from repro.apps.sketches import AmplitudeSketch
    from repro.congest.engine import EngineStepper
    from repro.core.framework import CongestBatchOracle, PreparedCache
    from repro.experiments import runner
    from repro.faults import FaultyEngine
    from repro.parallel import executor
    from repro.quantum.statevector import Statevector
    from repro.sched import CoalescingScheduler, ResultMemo, SketchScheduler
    from repro.serve import QueryService

    submit = QueryService.submit

    @functools.wraps(submit)
    def traced_submit(self, operation, *args, **kwargs):
        idx = tracer.open("QueryService.submit", tracer.new_request(operation))
        try:
            return submit(self, operation, *args, **kwargs)
        finally:
            tracer.close(idx)

    QueryService.submit = traced_submit

    for sched in (CoalescingScheduler, SketchScheduler):
        _wrap_sched_submit(tracer, sched)
        _wrap_gen(tracer, sched, "execute_batch_steps", link=True)
    _wrap_gen(tracer, CongestBatchOracle, "query_batch_steps")
    for attr in ("lookup", "store", "invalidate_fingerprint"):
        _wrap_call(tracer, ResultMemo, attr)
    for attr in ("insert", "query"):
        _wrap_call(tracer, AmplitudeSketch, attr)
    for attr in [a for a in vars(Statevector) if a.startswith("apply")]:
        _wrap_call(tracer, Statevector, attr)
    _wrap_call(tracer, PreparedCache, "prepare")

    step = EngineStepper.step
    counts = tracer.engine

    @functools.wraps(step)
    def traced_step(self):
        faulty = isinstance(self.engine, FaultyEngine)
        idx = tracer.open("FaultyEngine.step" if faulty else "EngineStepper.step")
        was_done = self.done
        try:
            more = step(self)
        finally:
            tracer.close(idx)
        prefix = "faults." if faulty else "engine."
        if more:
            counts[prefix + "rounds"] += 1
        elif not was_done:
            counts[prefix + "runs"] += 1
            counts[prefix + "messages"] += self.result.stats.messages
            counts[prefix + "vectorized_rounds"] += self.engine.vectorized_rounds
        return more

    EngineStepper.step = traced_step

    # run_parallel looks the wait up per call
    executor._conn_wait = _waiting(tracer, "parallel.wait", executor._conn_wait)

    verify = runner.verify_experiment  # verify_sweep looks it up per call

    @functools.wraps(verify)
    def traced_verify(request, *args, **kwargs):
        idx = tracer.open(f"experiment.{request.single_target()}")
        try:
            return verify(request, *args, **kwargs)
        finally:
            tracer.close(idx)

    runner.verify_experiment = traced_verify
    gc.callbacks.append(tracer._on_gc)


def trace_loop(tracer: Tracer, loop) -> None:
    """Span every iteration of ``loop`` and the selector wait inside it."""
    run_once = loop._run_once

    def traced_run_once():
        idx = tracer.open("loop.run_once")
        try:
            run_once()
        finally:
            tracer.close(idx)

    loop._run_once = traced_run_once
    loop._selector.select = _waiting(tracer, "loop.select", loop._selector.select)

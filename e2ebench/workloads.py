"""The four workloads: set-up, timed phases and output checks.

A workload object is built in a fresh interpreter.  :meth:`setup` does
everything a user pays before the first operation (imports happen before
it; profile and lane build, warm-up and sketch construction happen in
it), :meth:`run` executes the timed phases and checks every output, and
the returned :class:`Measured` carries raw samples for the parent process
to summarise.  With a :class:`~tracer.Tracer` the same phases run with
every layer's entry points wrapped.  With a :class:`~hostclock.HostClock`
the CPU-bound phases (throughput bursts, the closed loop, the sweep) are
also timed at the reference host speed, which is what the end-to-end
figures report; the arrival-bound latency phase of the open loops runs
without it and is reported as measured.

All load comes from one thread.  The daemon has no network protocol, so
clients are coroutines on the daemon's own event loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import gc
import itertools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import checks
import inputs
from repro.core.framework import prepared_cache_stats
from repro.serve import QueryService, TenantQuota
from repro.serve.session import build_profile, build_sketch_profile
from hostclock import HostClock
from tracer import WAITING, Tracer, layer_of, trace_loop

#: Tenant queue depth: deep enough that no request is ever rejected.
DEEP_QUEUE = 1 << 20
#: Fresh-daemon repetitions of the throughput phase per second of
#: ``--seconds``; the run reports the median burst.
BURSTS_PER_SECOND = 2


def _now() -> float:
    return time.monotonic()


@dataclass
class Measured:
    """Raw results of one run's timed phases."""

    attempted: int = 0
    failed: int = 0  # rejected + failed operations, or failed verdicts
    completed: int = 0
    rounds: int = 0  # CONGEST rounds charged by the lanes' batches
    latencies_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    throughput: float = 0.0
    raw_throughput: float = 0.0  # the same figure in unscaled wall time
    work_s: List[float] = field(default_factory=list)  # the timed work's busy times
    verify_s: float = 0.0
    inputs: Dict[str, Any] = field(default_factory=dict)

    def figures(self) -> Dict[str, Any]:
        """What the parent process reports from this run."""
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "samples": len(self.latencies_ms),
            "throughput_ops_s": self.throughput,
            "throughput_raw_ops_s": self.raw_throughput,
            "latency_p50_ms": percentile(self.latencies_ms, 50),
            "latency_p99_ms": percentile(self.latencies_ms, 99),
            "driver.lag_p99_ms": percentile(self.lag_ms, 99),
            "rounds_per_op": _ratio(self.rounds, self.completed),
            "verify_s": self.verify_s,
            "error_rate": self.failed / self.attempted,
            "work_s": sum(self.work_s),
            "inputs": self.inputs,
        }


class _Region:
    """Wall time, CPU time and tracer-counter deltas over the timed phases,
    so set-up and output checks never count."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.wall_ns = self.cpu_ns = 0
        self.delta: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def __enter__(self):
        if self.tracer is not None:
            self._before = {
                family: dict(values) for family, values in self.tracer.counters().items()
            }
        self._cpu = time.process_time_ns()
        self._wall = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.wall_ns += time.perf_counter_ns() - self._wall
        self.cpu_ns += time.process_time_ns() - self._cpu
        if self.tracer is not None:
            for family, values in self.tracer.counters().items():
                before = self._before[family]
                for key, value in values.items():
                    self.delta[family][key] += value - before.get(key, 0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Workload:
    name = ""

    def __init__(
        self,
        seed: int,
        seconds: float,
        tracer: Optional[Tracer],
        clock: Optional[HostClock] = None,
        part: int = 0,
        parts: int = 1,
    ):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.clock = clock
        self.part = part  # this interpreter's share of a run made of several
        self.parts = parts
        self.region = _Region(tracer)
        self.out = Measured()

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Measured:
        raise NotImplementedError

    def _loop_run(self, coro, clocked: bool = False):
        """Run ``coro`` on a fresh event loop, inside the timed region (and
        under the host clock when ``clocked``)."""
        loop = asyncio.new_event_loop()
        if self.tracer is not None:
            trace_loop(self.tracer, loop)
        try:
            with self.region, self._clocked(clocked):
                return loop.run_until_complete(coro)
        finally:
            loop.close()

    def _clocked(self, clocked: bool = True):
        if clocked and self.clock is not None:
            return self.clock
        return contextlib.nullcontext()

    def _busy(self, a: float, b: float) -> float:
        """Wall time of ``[a, b]``, less the host clock's own samples."""
        return self.clock.busy(a, b) if self.clock is not None else b - a

    def _scaled(self, a: float, b: float) -> float:
        """Busy time of ``[a, b]`` at the reference host speed; as measured
        when no host clock runs (the traced run)."""
        return self.clock.scaled(a, b) if self.clock is not None else b - a

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the traced run (see README.md).

        Counts and self times cover the timed phases only; set-up
        (``setup.*``) is the exception.
        """
        t, r = self.tracer, self.region
        d = r.delta
        by_layer: Dict[str, int] = defaultdict(int)
        for name, ns in d["self_ns"].items():
            by_layer[layer_of(name)] += ns
        # CPU inside waiting spans is the waiter's busy time: the selector
        # call belongs to the daemon's loop, the pipe poll to the sweep.
        for name, owner in (("loop.select", "daemon"), ("parallel.wait", "experiment")):
            cpu = d["wait_cpu_ns"][name]
            by_layer[layer_of(name)] -= cpu
            by_layer[owner] += cpu
        busy = sum(ns for layer, ns in by_layer.items() if layer not in WAITING)
        idle = r.wall_ns - r.cpu_ns
        calls, total, eng = d["calls"], d["total_ns"], d["engine"]
        framework_batches = d["batches"]["CongestBatchOracle.query_batch_steps"]
        m = {
            "daemon.queue_wait_p50_ms": percentile(t.queue_wait_ns, 50) / 1e6,
            "daemon.queue_wait_p99_ms": percentile(t.queue_wait_ns, 99) / 1e6,
            "daemon.self_us_per_op": _ratio(by_layer["daemon"] / 1e3, self.out.completed),
            "sched.coalesce_wait_p50_ms": percentile(t.coalesce_wait_ns, 50) / 1e6,
            "memo.lookups": calls["ResultMemo.lookup"],
            "memo.self_us_per_call": _ratio(
                by_layer["memo"] / 1e3,
                sum(n for name, n in calls.items() if name.startswith("ResultMemo.")),
            ),
            "sketch.us_per_insert": _ratio(
                total["AmplitudeSketch.insert"] / 1e3, calls["AmplitudeSketch.insert"]
            ),
            "sketch.us_per_query": _ratio(
                total["AmplitudeSketch.query"] / 1e3, calls["AmplitudeSketch.query"]
            ),
            "framework.batches": framework_batches,
            "framework.self_ms_per_batch": _ratio(by_layer["framework"] / 1e6, framework_batches),
            "engine.runs": eng["engine.runs"],
            "engine.rounds": eng["engine.rounds"],
            "engine.us_per_round": _ratio(by_layer["engine"] / 1e3, eng["engine.rounds"]),
            "engine.messages_per_round": _ratio(eng["engine.messages"], eng["engine.rounds"]),
            "engine.vectorized_share": _ratio(
                eng["engine.vectorized_rounds"], eng["engine.rounds"]
            ),
            "faults.engine_ms": by_layer["faults"] / 1e6,
            "faults.rounds": eng["faults.rounds"],
            "workers.wait_ms": by_layer["workers"] / 1e6,
            "quantum.kernel_ms": by_layer["quantum"] / 1e6,
            "setup.prepare_ms": t.total_ns["PreparedCache.prepare"] / 1e6,
            "setup.prepared_cache_misses": prepared_cache_stats()["misses"],
            "loop.busy_frac": _ratio(r.cpu_ns, r.wall_ns),
            "gc.pause_ms": d["gc"]["pause_ns"] / 1e6,
            "gc.collections": d["gc"]["collections"],
            "trace.residual_frac": (r.wall_ns - busy - idle) / r.wall_ns,
        }
        for name, ns in total.items():
            if name.startswith("experiment."):
                m[f"{name}_s"] = ns / 1e9
        m.update(self._lane_metrics(by_layer))
        return m

    def _lane_metrics(self, by_layer: Dict[str, int]) -> Dict[str, float]:
        """Metrics read from the lanes' own reports (none by default)."""
        return {}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- serving workloads ---------------------------------------------------


class _Outcomes:
    """Per-operation results, each stamped by a done-callback."""

    def __init__(self, n: int, span):
        self.values: List[Optional[list]] = [None] * n
        self.resolved = [0] * n
        self.done = [0.0] * n
        self.failed = 0
        self._span = span
        self._outstanding = 0
        self._closed = False
        self._finished = asyncio.get_running_loop().create_future()

    def watch(self, i: int, fut) -> None:
        self._outstanding += 1
        fut.add_done_callback(functools.partial(self._on_done, i))

    def refused(self, i: int) -> None:
        self.resolved[i] += 1
        self.failed += 1

    def _on_done(self, i: int, fut) -> None:
        with self._span("driver"):
            self.done[i] = _now()
            self.resolved[i] += 1
            if fut.exception() is None:
                self.values[i] = fut.result().values
            else:
                self.failed += 1
            self._outstanding -= 1
            if self._closed and not self._outstanding:
                self._finished.set_result(None)

    async def wait(self) -> None:
        """Wait for every watched operation (call once all are submitted)."""
        self._closed = True
        if self._outstanding:
            await self._finished

    @property
    def completed(self) -> int:
        return sum(v is not None for v in self.values)


class _Serve(Workload):
    """Shared driver code of the three serving workloads.

    Each timed phase runs on a fresh daemon.  Once a phase is checked, the
    daemon is reduced to a summary of its lane's reports and dropped, so
    finished phases do not grow the heap that later phases collect.
    """

    profile = "default"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lanes: List[Dict[str, Any]] = []

    def _service(self) -> QueryService:
        """A fresh daemon with one warm lane; defaults kept except queue depth."""
        service = QueryService(
            tenants=[TenantQuota(t, max_pending=DEEP_QUEUE) for t in inputs.TENANTS]
        )
        self._add_lane(service)
        return service

    def _add_lane(self, service: QueryService) -> None:
        service.add_profile(*self.profile_args)

    @functools.cached_property
    def expected(self) -> List[int]:
        """Every index's answer, computed by the benchmark itself."""
        di = self.profile_args[1].dist_input
        return checks.expected_sums(di.vectors, di.k)

    def _check(self, service: QueryService, ops: Sequence[Any], outcomes: _Outcomes) -> None:
        """Oracle lanes: every value is the per-index sum, every request
        resolved once, and the attributed rounds sum to the physical ones."""
        checks.check_resolved_once(outcomes.resolved)
        checks.check_oracle_results(ops, outcomes.values, self.expected)
        checks.check_round_conservation(service.pool.acquire(self.profile).scheduler.report())

    def _phase(
        self, service: QueryService, ops: Sequence[Any], coro, clocked: bool = False
    ) -> _Outcomes:
        """Run one timed phase, check its outputs, keep its lane summary."""
        gc.collect()  # every phase starts from the same collector state
        outcomes = self._loop_run(coro, clocked)
        self._check(service, ops, outcomes)
        sched = service.pool.acquire(self.profile).scheduler
        memo = sched.memo
        self.lanes.append({
            "rejected": sum(t["rejected"] for t in service.report()["tenants"].values()),
            "report": sched.report(),
            "by_phase": sched.rounds.by_phase(),
            "parallelism": sched.parallelism,
            "memo": (memo.hits, memo.misses, memo.invalidations),
        })
        self.out.attempted += len(ops)
        self.out.failed += outcomes.failed
        self.out.completed += service.completed
        self.out.rounds += self.lanes[-1]["report"].attributed_rounds
        return outcomes

    async def _open_loop(self, service, ops, times, due: List[float]) -> _Outcomes:
        """Submit each operation at ``start + at_s``, whatever the daemon's
        state.  Rejections are counted and never retried."""
        outcomes = _Outcomes(len(ops), self._span)
        start = _now() + 0.005
        for i, (at_s, op) in enumerate(zip(times, ops)):
            delay = start + at_s - _now()
            if delay > 0:
                await asyncio.sleep(delay)
            with self._span("driver"):
                due.append(start + at_s)
                self.out.lag_ms.append((_now() - due[i]) * 1e3)
                try:
                    outcomes.watch(i, service.submit(op, profile=self.profile))
                except Exception:  # AdmissionError, or an operation refused outright
                    outcomes.refused(i)
        await outcomes.wait()
        await service.drain()
        return outcomes

    async def _burst(self, service, ops, spans: List[tuple]) -> _Outcomes:
        """Offer every operation at once; record the span to the last result."""
        outcomes = _Outcomes(len(ops), self._span)
        start = _now()
        with self._span("driver"):
            for i, op in enumerate(ops):
                try:
                    outcomes.watch(i, service.submit(op, profile=self.profile))
                except Exception:
                    outcomes.refused(i)
        await outcomes.wait()
        spans.append((start, max(outcomes.done)))
        await service.drain()
        return outcomes

    def _memo_metrics(self) -> Dict[str, float]:
        hits = sum(lane["memo"][0] for lane in self.lanes)
        misses = sum(lane["memo"][1] for lane in self.lanes)
        return {
            "daemon.rejected": sum(lane["rejected"] for lane in self.lanes),
            "memo.hit_ratio": _ratio(hits, hits + misses),
            "memo.invalidated_entries": sum(lane["memo"][2] for lane in self.lanes),
        }

    def _lane_metrics(self, by_layer: Dict[str, int]) -> Dict[str, float]:
        d = self.region.delta
        batches = sum(lane["report"].physical_batches for lane in self.lanes)
        phases: Dict[str, int] = defaultdict(int)
        for lane in self.lanes:
            for phase, rounds in lane["by_phase"].items():
                phases[phase] += rounds
        return {
            "sched.batches": batches,
            "sched.batch_fill": _ratio(
                d["batch_items"]["CoalescingScheduler.execute_batch_steps"],
                batches * self.lanes[0]["parallelism"],
            ),
            "sched.self_us_per_batch": _ratio(by_layer["sched"] / 1e3, batches),
            "framework.rounds_distribute": _ratio(phases["index-distribute"], batches),
            "framework.rounds_convergecast": _ratio(phases["value-upcast"], batches),
            "framework.rounds_uncompute": _ratio(
                phases["index-uncompute"] + phases["value-uncompute"], batches
            ),
            **self._memo_metrics(),
        }


class _OpenLoop(_Serve):
    """Latency phase (Poisson arrivals at a rate below capacity), then the
    throughput phase (the same operations offered all at once), each on a
    fresh daemon; the throughput phase is repeated and its median burst
    reported."""

    def setup(self):
        timed = self._generate()
        self.times = [t for t, _ in timed]
        self.ops = [op for _, op in timed]
        self.out.inputs = inputs.input_stats(self.ops, self.times)
        self.first = self._service()

    def run(self) -> Measured:
        out = self.out
        service, self.first = self.first, None
        due: List[float] = []
        latency_phase = self._open_loop(service, self.ops, self.times, due)
        outcomes = self._phase(service, self.ops, latency_phase)
        out.latencies_ms = [
            (d - u) * 1e3 for d, u, v in zip(outcomes.done, due, outcomes.values) if v is not None
        ]
        if self.tracer is not None:
            self.tracer.record_waits = False  # waits are a latency-phase figure
        scaled, raw = [], []
        for _ in range(max(1, round(BURSTS_PER_SECOND * self.seconds))):
            service = self._service()
            spans: List[tuple] = []
            burst = self._burst(service, self.ops, spans)
            completed = self._phase(service, self.ops, burst, clocked=True).completed
            (start, end), = spans
            out.work_s.append(self._busy(start, end))
            scaled.append(completed / self._scaled(start, end))
            raw.append(completed / (end - start))
        out.throughput = statistics.median(scaled)
        out.raw_throughput = statistics.median(raw)
        return out


class ServeFormula(_OpenLoop):
    name = "serve_formula"

    def setup(self):
        self.profile_args = build_profile(k=inputs.FORMULA_K)
        super().setup()

    def _generate(self):
        return inputs.formula_ops(self.seed, self.seconds)


class SketchMixed(_OpenLoop):
    name = "sketch_mixed"
    profile = "sketch"

    def _generate(self):
        return inputs.sketch_ops(self.seed, self.seconds)

    def _add_lane(self, service):
        service.add_sketch_profile(self.profile, build_sketch_profile())

    def _check(self, service, ops, outcomes):
        checks.check_resolved_once(outcomes.resolved)
        checks.check_sketch_acks(ops, outcomes.values)
        acked = [op for op, v in zip(ops, outcomes.values) if op.is_write and v is not None]
        checks.check_sketch_state(
            service.pool.acquire(self.profile).scheduler.sketch,
            build_sketch_profile, acked, inputs.sketch_probes(),
        )

    def _lane_metrics(self, by_layer):
        d = self.region.delta
        batches = sum(lane["report"].physical_batches for lane in self.lanes)
        return {
            "sketch.batch_fill": _ratio(
                d["batch_items"]["SketchScheduler.execute_batch_steps"],
                batches * self.lanes[0]["parallelism"],
            ),
            "sketch.sched_self_us_per_batch": _ratio(by_layer["sketch_sched"] / 1e3, batches),
            "sketch.recompute_share": _ratio(
                d["calls"]["AmplitudeSketch.query"],
                sum(lane["report"].query_items for lane in self.lanes),
            ),
            **self._memo_metrics(),
        }


class ServeEngine(_Serve):
    """Closed loop: each client sends its next request when the last one
    resolves.  The work (operations per client) is fixed by the seed."""

    name = "serve_engine"

    def setup(self):
        self.clients = inputs.engine_ops(self.seed, self.seconds)
        self.ops = [op for ops in self.clients for op in ops]
        flat = [c[i] for i in range(len(self.clients[0])) for c in self.clients]
        self.out.inputs = inputs.input_stats(flat)
        self.profile_args = build_profile(
            rows=8, cols=8, k=inputs.ENGINE_K, parallelism=8, mode="engine"
        )
        self.first = self._service()

    async def _closed_loop(self, service, sent: List[float]) -> _Outcomes:
        outcomes = _Outcomes(len(self.ops), self._span)
        offsets = list(itertools.accumulate([0] + [len(c) for c in self.clients]))

        async def client(first: int, ops: List[Any]) -> None:
            for i, op in enumerate(ops, start=first):
                with self._span("driver"):
                    sent[i] = _now()
                    fut = service.submit(op, profile=self.profile)
                    outcomes.watch(i, fut)
                await asyncio.wait([fut])

        start = _now()
        await asyncio.gather(*(client(o, c) for o, c in zip(offsets, self.clients)))
        await outcomes.wait()
        self.span = (start, max(outcomes.done))
        await service.drain()
        return outcomes

    def run(self) -> Measured:
        out = self.out
        service, self.first = self.first, None
        sent = [0.0] * len(self.ops)
        loop = self._closed_loop(service, sent)
        outcomes = self._phase(service, self.ops, loop, clocked=True)
        out.latencies_ms = [
            self._scaled(s, d) * 1e3
            for s, d, v in zip(sent, outcomes.done, outcomes.values) if v is not None
        ]
        start, end = self.span
        out.work_s.append(self._busy(start, end))
        out.throughput = outcomes.completed / self._scaled(start, end)
        out.raw_throughput = outcomes.completed / (end - start)
        return out


# -- verification sweep --------------------------------------------------


class VerifyQuick(Workload):
    """``verify_all(RunRequest(quick=True, seed=<sweep seed>, jobs=1))``
    over E1..E23, in this process.

    A run is ``parts`` sweeps, each in its own interpreter, with sweep seeds
    ``seed * parts + part``: how long E22's scenario matrix runs depends on
    the seed (3 to 6 s of a 20 s sweep), and two sweeps halve that swing.
    A sweep is one request: its time is the interpreter's single latency
    sample, and an operation is one experiment's verification.  Its size is
    fixed by the program, not by ``--seconds``.
    """

    name = "verify_quick"

    def setup(self):
        from repro.experiments.runner import RunRequest, verify_all

        sweep_seed = self.seed * self.parts + self.part
        self.request = RunRequest(quick=True, seed=sweep_seed, jobs=1)
        self.verify_all = verify_all
        self.out.inputs = {"digest": f"verify_all(quick=True, seed={sweep_seed})"}

    def run(self) -> Measured:
        out = self.out
        gc.collect()
        with self.region, self._clocked():
            start = _now()
            verdicts = self.verify_all(self.request)
            end = _now()
        out.attempted = out.completed = len(verdicts)
        out.failed = sum(not v.passed for v in verdicts)
        out.work_s.append(self._busy(start, end))
        out.verify_s = self._scaled(start, end)
        out.latencies_ms.append(out.verify_s * 1e3)
        out.throughput = len(verdicts) / out.verify_s
        out.raw_throughput = len(verdicts) / (end - start)
        checks.check_verdicts(verdicts)
        return out


WORKLOADS = {
    w.name: w for w in (ServeFormula, ServeEngine, SketchMixed, VerifyQuick)
}

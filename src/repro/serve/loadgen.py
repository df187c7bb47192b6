"""Open-loop synthetic load for the serving daemon.

*Open-loop* is the operative word: arrival times are drawn from a Poisson
process **before** the run and each simulated client submits at its
scheduled time whether or not earlier requests have completed.  A
closed-loop generator (submit → await → submit) self-throttles to the
service's speed and hides queueing collapse; open-loop load is what
exposes the latency percentiles the daemon's report is about (the
"coordinated omission" trap in benchmarking folklore, and the reason
Kerger et al. report sustained throughput *and* tail latency).

Determinism: every random draw derives from
:func:`repro.parallel.derive_seed` coordinates — ``(seed, "arrival", i)``
shapes never depend on how fast the service ran, so a load spec is an
exactly reproducible workload, not a fuzzer.

Scale: ``LoadSpec.clients`` is the number of simulated client requests
(10^3–10^5); tenants multiplex many clients, as real serving traffic
does.  Each arrival's tenant is drawn uniformly; fair-share weights are
the daemon's (:attr:`~repro.serve.tenants.TenantQuota.weight`), not the
load's.

Both entry points feed one submission loop over
:class:`OperationArrival`s: :func:`run_operation_load` offers a
:class:`SketchLoadSpec`'s inserts and sketch queries as drawn, and
:func:`run_load` first turns each of a :class:`LoadSpec`'s arrivals into
an ``Operation.query``.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.operation import Operation
from ..parallel import derive_seed
from .daemon import DEFAULT_PROFILE, QueryService
from .tenants import AdmissionError

__all__ = ["Arrival", "LoadSpec", "LoadReport", "OperationArrival",
           "SketchLoadSpec", "generate_arrivals",
           "generate_operation_arrivals", "run_load", "run_operation_load"]


@dataclass(frozen=True)
class Arrival:
    """One scheduled client request."""

    at_s: float  # offset from load start (virtual seconds)
    tenant: str
    indices: Tuple[int, ...]
    label: str


@dataclass(frozen=True)
class LoadSpec:
    """One open-loop workload, fully determined by its fields.

    Attributes:
        clients: simulated client requests to offer.
        tenants: distinct tenant names to spread them over
            (``tenant0..tenantN-1``), each arrival's tenant drawn
            uniformly.
        rate_hz: aggregate Poisson arrival rate (virtual time).
        queries_min/queries_max: per-request query-set size range.
        seed: root seed for :func:`~repro.parallel.derive_seed`.
        time_scale: virtual-to-wall clock factor; ``0`` collapses the
            arrival schedule (submit as fast as the loop allows, in
            arrival order) — the right setting for throughput benches.
        label: charge label the requests carry.
    """

    clients: int = 1000
    tenants: int = 4
    rate_hz: float = 2000.0
    queries_min: int = 1
    queries_max: int = 4
    seed: int = 0
    time_scale: float = 0.0
    label: str = "load"

    def __post_init__(self):
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if not 1 <= self.queries_min <= self.queries_max:
            raise ValueError("need 1 <= queries_min <= queries_max")


def generate_arrivals(spec: LoadSpec, k: int) -> List[Arrival]:
    """The spec's deterministic arrival schedule over index domain [0, k).

    Inter-arrival gaps are Exp(rate); tenant assignment, set size, and
    indices each draw from their own derived stream so changing one knob
    (say ``queries_max``) does not reshuffle unrelated draws.
    """
    gap_rng = random.Random(derive_seed(spec.seed, "serve-load", "gaps"))
    tenant_rng = random.Random(
        derive_seed(spec.seed, "serve-load", "tenants")
    )
    at = 0.0
    arrivals: List[Arrival] = []
    for i in range(spec.clients):
        at += gap_rng.expovariate(spec.rate_hz)
        tenant = f"tenant{tenant_rng.randrange(spec.tenants)}"
        body_rng = random.Random(
            derive_seed(spec.seed, "serve-load", "client", i)
        )
        size = body_rng.randint(spec.queries_min, spec.queries_max)
        indices = tuple(
            body_rng.randrange(k) for _ in range(size)
        )
        arrivals.append(
            Arrival(at_s=at, tenant=tenant, indices=indices,
                    label=spec.label)
        )
    return arrivals


@dataclass(frozen=True)
class OperationArrival:
    """One scheduled client operation (the write-capable arrival)."""

    at_s: float  # offset from load start (virtual seconds)
    op: Operation


@dataclass(frozen=True)
class SketchLoadSpec:
    """One open-loop mixed insert/query workload against a sketch lane.

    Attributes:
        clients: simulated client operations to offer.
        tenants: distinct tenant names to spread them over.
        rate_hz: aggregate Poisson arrival rate (virtual time).
        insert_fraction: probability an arrival is an ``insert`` (the
            rest are ``sketch_query``); the read/write mix knob.
        items_min/items_max: per-operation payload size range.
        universe: item-key space size (items are ``key-0..key-U-1``;
            smaller universes mean hotter keys, more memo traffic, and
            more insert/query interference).
        seed: root seed for :func:`~repro.parallel.derive_seed`.
        time_scale: virtual-to-wall clock factor; ``0`` collapses the
            schedule (throughput-bench setting).
        label: charge label the operations carry.
    """

    clients: int = 1000
    tenants: int = 4
    rate_hz: float = 2000.0
    insert_fraction: float = 0.5
    items_min: int = 1
    items_max: int = 4
    universe: int = 512
    seed: int = 0
    time_scale: float = 0.0
    label: str = "sketch-load"

    def __post_init__(self):
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if not 0.0 <= self.insert_fraction <= 1.0:
            raise ValueError("insert_fraction must be in [0, 1]")
        if not 1 <= self.items_min <= self.items_max:
            raise ValueError("need 1 <= items_min <= items_max")
        if self.universe < 1:
            raise ValueError("universe must be >= 1")


def generate_operation_arrivals(spec: SketchLoadSpec) -> List[OperationArrival]:
    """The spec's deterministic mixed insert/query arrival schedule.

    Same derive_seed coordinate discipline as :func:`generate_arrivals`
    (gaps, tenants, and each client body draw from their own streams),
    plus a ``kind`` stream deciding insert vs query so changing the mix
    fraction does not reshuffle payloads.
    """
    gap_rng = random.Random(derive_seed(spec.seed, "serve-load", "gaps"))
    tenant_rng = random.Random(
        derive_seed(spec.seed, "serve-load", "tenants")
    )
    kind_rng = random.Random(derive_seed(spec.seed, "serve-load", "kinds"))
    at = 0.0
    arrivals: List[OperationArrival] = []
    for i in range(spec.clients):
        at += gap_rng.expovariate(spec.rate_hz)
        tenant = f"tenant{tenant_rng.randrange(spec.tenants)}"
        is_insert = kind_rng.random() < spec.insert_fraction
        body_rng = random.Random(
            derive_seed(spec.seed, "serve-load", "client", i)
        )
        size = body_rng.randint(spec.items_min, spec.items_max)
        items = tuple(
            f"key-{body_rng.randrange(spec.universe)}" for _ in range(size)
        )
        build = Operation.insert if is_insert else Operation.sketch_query
        arrivals.append(
            OperationArrival(at_s=at, op=build(tenant, items,
                                               label=spec.label))
        )
    return arrivals


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class LoadReport:
    """What one open-loop run produced (JSON-ready via ``to_json``)."""

    offered: int
    accepted: int
    rejected: int
    completed: int
    failed: int
    duration_s: float
    latencies_ms: List[float] = field(default_factory=list, repr=False)

    @property
    def qps(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def p50_ms(self) -> float:
        lat = sorted(self.latencies_ms)
        return _percentile(lat, 50.0) if lat else 0.0

    @property
    def p99_ms(self) -> float:
        lat = sorted(self.latencies_ms)
        return _percentile(lat, 99.0) if lat else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "duration_s": self.duration_s,
            "qps": self.qps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
        }


async def _offer(
    service: QueryService,
    arrivals: List[OperationArrival],
    time_scale: float,
    profile: str,
    drain: bool,
) -> LoadReport:
    """Submit each arrival at its scheduled time, then measure.

    Rejections (backpressure/quota) are counted, not retried — open-loop
    means the offered load does not bend to the service.  With ``drain``
    the service is drained after the last arrival so every accepted
    request resolves and the report is complete.
    """
    futures: List[asyncio.Future] = []
    rejected = 0
    loop = asyncio.get_running_loop()  # the daemon's clock
    start = loop.time()
    for arrival in arrivals:
        if time_scale > 0:
            target = start + arrival.at_s * time_scale
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
        else:
            # Collapsed schedule: still let the loop breathe so lane
            # workers interleave with the submission flood.
            await asyncio.sleep(0)
        try:
            futures.append(service.submit(arrival.op, profile=profile))
        except AdmissionError:
            rejected += 1
    if drain:
        await service.drain(reason="close")
    results = await asyncio.gather(*futures, return_exceptions=True)
    duration = loop.time() - start
    latencies = [
        r.wait_ms for r in results if not isinstance(r, BaseException)
    ]
    return LoadReport(
        offered=len(arrivals),
        accepted=len(futures),
        rejected=rejected,
        completed=len(latencies),
        failed=len(results) - len(latencies),
        duration_s=duration,
        latencies_ms=latencies,
    )


async def run_load(
    service: QueryService,
    spec: LoadSpec,
    k: Optional[int] = None,
    profile: str = DEFAULT_PROFILE,
    drain: bool = True,
) -> LoadReport:
    """Offer the spec's arrivals to a running service and measure.

    Each arrival is submitted as an ``Operation.query``.  Rejections
    (backpressure/quota) are counted, not retried.  With ``drain``
    (default) the service is drained after the last arrival so every
    accepted request resolves and the report is complete.
    """
    if k is None:
        k = service.pool.acquire(profile).scheduler.k
    arrivals = [
        OperationArrival(
            at_s=a.at_s,
            op=Operation.query(a.tenant, a.indices, label=a.label),
        )
        for a in generate_arrivals(spec, k)
    ]
    return await _offer(service, arrivals, spec.time_scale, profile, drain)


async def run_operation_load(
    service: QueryService,
    spec: SketchLoadSpec,
    profile: str,
    drain: bool = True,
) -> LoadReport:
    """Offer a mixed insert/query stream to a sketch profile and measure.

    The write-capable twin of :func:`run_load`: same open-loop
    discipline and the same submission loop, but the arrivals are
    inserts and sketch queries, which interleave through the daemon
    exactly as offered.
    """
    arrivals = generate_operation_arrivals(spec)
    return await _offer(service, arrivals, spec.time_scale, profile, drain)

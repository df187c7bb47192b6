"""``repro.serve`` — the always-on multi-tenant query-serving daemon.

The ROADMAP north star is the paper's framework as a *service*: many
callers, sustained traffic, measured throughput and tail latency — not
one blocking run at a time.  This package is that serving layer, built
on two substrates the rest of the repository provides:

* the **steppable engine** (:class:`repro.congest.engine.EngineStepper`,
  which :func:`repro.congest.algorithms.aggregate.transfer_steps` turns
  into a generator of rounds; one frame per layer passes each round up
  through :meth:`repro.core.framework.CongestBatchOracle.
  query_batch_steps` and
  :meth:`repro.sched.CoalescingScheduler.execute_batch_steps`), which
  lets one asyncio loop interleave many in-flight batches round by
  round, bit-identically to the monolithic loop;
* the **coalescing scheduler** (PR 5), which packs under-filled
  multi-tenant submissions into maximal width-``p`` physical batches;
  it only queues what the daemon feeds it, and the daemon decides when
  each batch runs (fill-or-flush on its own clock).

Quick tour::

    from repro.core import Operation
    from repro.serve import LoadSpec, QueryService, TenantQuota, run_load

    service = QueryService(default_quota=TenantQuota("any", max_pending=32))
    service.add_profile(network, config)          # warm pool + scheduler

    async def main():
        fut = service.submit(Operation.query("alice", [0, 3, 5]))
        print((await fut).values)                 # fut: asyncio.Future
        report = await run_load(service, LoadSpec(clients=1000))
        print(report.qps, report.p99_ms)

Sketch lanes (PR 10) ride the same machinery:
:meth:`~repro.serve.daemon.QueryService.add_sketch_profile` pins an
amplitude-sketch lane, ``Operation.insert`` / ``Operation.sketch_query``
stream writes and reads through the same admission/fairness/drain path,
and :func:`~repro.serve.loadgen.run_operation_load` drives deterministic
mixed insert/query open-loop load.

Layers: :mod:`~repro.serve.tenants` (quotas, stride fairness,
backpressure), :mod:`~repro.serve.pool` (warm LRU of prepared lanes),
:mod:`~repro.serve.daemon` (the asyncio service itself), and
:mod:`~repro.serve.loadgen` (deterministic open-loop Poisson load).
``python -m repro serve`` wires them into a runnable daemon.
"""

from .daemon import DEFAULT_PROFILE, QueryService, ServeResult, ServiceClosed
from .loadgen import (
    Arrival,
    LoadReport,
    LoadSpec,
    OperationArrival,
    SketchLoadSpec,
    generate_arrivals,
    generate_operation_arrivals,
    run_load,
    run_operation_load,
)
from .pool import Lane, PreparedPool
from .session import (
    build_profile,
    build_sketch_profile,
    run_serve_session,
    run_sketch_session,
)
from .tenants import AdmissionError, StridePicker, TenantQuota, TenantState

__all__ = [
    "AdmissionError",
    "Arrival",
    "DEFAULT_PROFILE",
    "Lane",
    "LoadReport",
    "LoadSpec",
    "OperationArrival",
    "PreparedPool",
    "QueryService",
    "ServeResult",
    "ServiceClosed",
    "SketchLoadSpec",
    "StridePicker",
    "TenantQuota",
    "TenantState",
    "build_profile",
    "build_sketch_profile",
    "generate_arrivals",
    "generate_operation_arrivals",
    "run_load",
    "run_operation_load",
    "run_serve_session",
    "run_sketch_session",
]

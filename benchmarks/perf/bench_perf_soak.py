"""Wall-clock gate: a request costs the daemon no more late in a run.

Theorem 8 charges every batch the same rounds however many batches came
before it, and the serving daemon's host time per batch must not grow
with history either.  One fresh :class:`~repro.serve.QueryService` with
a single formula lane (``build_profile(k=2**15)``) is offered
:data:`REQUESTS` seeded requests at once; a done-callback stamps each
completion.  The gate fails when the last :data:`WINDOW` completions
take more than :data:`GROWTH_BOUND` times as long as the first
:data:`WINDOW`.  Every served value is checked against the per-index
sum first.

The bound leaves room for drift on a shared host.  On a 2-vCPU host the
ratio was 5.5-12.8 (seven runs) while each batch re-summed the round
ledger and every finished submission stayed in the scheduler, and it is
0.6-1.5 without either.

It is a wall-clock bound, so it stays out of tier-1; see README.md here.
"""

import asyncio
import time

from repro.core.operation import Operation
from repro.serve import (
    LoadSpec,
    QueryService,
    TenantQuota,
    build_profile,
    generate_arrivals,
)

#: Requests offered at once to one fresh lane.
REQUESTS = 20_000
#: Completions per timed window, at the start and at the end of the run.
WINDOW = 2_000
#: Largest tolerated ratio of the last window's time to the first's.
GROWTH_BOUND = 3.0
#: Index domain of the lane's input.
K = 2 ** 15


def _serve_burst():
    """Serve the burst and check every value; returns the completion stamps."""
    net, cfg = build_profile(k=K)
    spec = LoadSpec(clients=REQUESTS, queries_max=4, seed=1)
    ops = [
        Operation.query(a.tenant, a.indices, label=a.label)
        for a in generate_arrivals(spec, k=K)
    ]
    stamps = []

    async def run():
        service = QueryService(
            default_quota=TenantQuota("default", max_pending=REQUESTS)
        )
        service.add_profile(net, cfg)
        futures = [service.submit(op) for op in ops]
        for fut in futures:
            fut.add_done_callback(lambda _: stamps.append(time.perf_counter()))
        await service.drain()
        return await asyncio.gather(*futures)

    results = asyncio.run(run())
    truth = cfg.dist_input.aggregated()
    for op, res in zip(ops, results, strict=True):
        assert res.values == [truth[j] for j in op.indices], op
    return stamps


def test_late_requests_cost_no_more_than_early_ones():
    stamps = _serve_burst()
    assert len(stamps) == REQUESTS
    first = stamps[WINDOW - 1] - stamps[0]
    last = stamps[-1] - stamps[-WINDOW]
    ratio = last / first
    print(
        f"first {WINDOW} completions {first * 1e3:.0f} ms, "
        f"last {WINDOW} {last * 1e3:.0f} ms: ratio {ratio:.2f}"
    )
    assert ratio <= GROWTH_BOUND, (
        f"the last {WINDOW} of {REQUESTS} completions took {ratio:.2f}x "
        f"as long as the first {WINDOW} ({last * 1e3:.0f} ms against "
        f"{first * 1e3:.0f} ms; bound {GROWTH_BOUND}x)"
    )

"""QueryService: admission, execution, drain, abort, life-cycle events."""

import asyncio

import pytest

from repro.obs import MemorySink, Recorder
from repro.obs.events import SERVE_BATCH, SERVE_DRAIN, SERVE_REQUEST
from repro.core.operation import Operation
from repro.sched import CoalescingScheduler
from repro.serve import (
    AdmissionError,
    LoadSpec,
    QueryService,
    ServiceClosed,
    TenantQuota,
    build_profile,
    generate_arrivals,
    run_load,
)

NET, CFG = build_profile(rows=2, cols=2, k=8, parallelism=4)
TRUTH = CFG.dist_input.aggregated()


def make_service(sink=None, **kwargs):
    kwargs.setdefault(
        "default_quota", TenantQuota("default", max_pending=64)
    )
    kwargs.setdefault("flush_after_ms", 1.0)
    if sink is not None:
        kwargs["recorder"] = Recorder([sink])
    service = QueryService(**kwargs)
    service.add_profile(NET, CFG)
    return service


class TestServing:
    def test_results_match_the_oracle_truth(self):
        async def run():
            service = make_service()
            requests = [
                ("alice", [0, 3]),
                ("bob", [1]),
                ("alice", [5, 2, 7]),
                ("carol", [4, 4]),
            ]
            futures = [
                service.submit(Operation.query(tenant, idx))
                for tenant, idx in requests
            ]
            await service.drain()
            return requests, await asyncio.gather(*futures)

        requests, results = asyncio.run(run())
        for (tenant, idx), res in zip(requests, results):
            assert res.values == [TRUTH[j] for j in idx]
            assert res.tenant == tenant
            assert res.profile == "default"
            assert res.wait_ms >= 0.0

    def test_full_width_batch_runs_without_waiting_for_the_timer(self):
        async def run():
            # Timer far in the future: only a full batch can trigger.
            service = make_service(flush_after_ms=60_000.0)
            futures = [
                service.submit(Operation.query("t", [j]))
                for j in range(4)  # p == 4
            ]
            done, _ = await asyncio.wait(futures, timeout=1.0)
            await service.abort()
            return len(done)

        assert asyncio.run(run()) == 4

    def test_memo_hit_resolves_without_a_new_batch(self):
        async def run():
            service = make_service()
            first = await service.submit(Operation.query("alice", [1, 2]))
            lane = service.pool.acquire("default")
            batches_before = lane.batches
            second = await service.submit(Operation.query("bob", [1, 2]))
            await service.drain()
            return first, second, batches_before, lane

        first, second, batches_before, lane = asyncio.run(run())
        assert second.values == first.values
        assert lane.batches == batches_before
        assert lane.scheduler.report().memo_hits == 1

    def test_auto_registered_tenants_inherit_the_default_quota(self):
        async def run():
            service = make_service(
                default_quota=TenantQuota(
                    "default", weight=3.0, max_pending=7
                )
            )
            await service.submit(Operation.query("newcomer", [0]))
            await service.drain()
            return service

        service = asyncio.run(run())
        state = service._lane_state["default"].picker.get("newcomer")
        assert state.quota.weight == 3.0
        assert state.quota.max_pending == 7

    def test_unknown_tenant_without_default_quota_raises(self):
        async def run():
            service = make_service(default_quota=None, tenants=())
            with pytest.raises(KeyError, match="unknown tenant"):
                service.submit(Operation.query("stranger", [0]))
            await service.drain()

        asyncio.run(run())

    def test_unknown_profile_raises(self):
        async def run():
            service = make_service()
            with pytest.raises(KeyError, match="unknown profile"):
                service.submit(Operation.query("t", [0]), profile="nope")
            await service.drain()

        asyncio.run(run())


class TestBackpressure:
    def test_queue_full_rejects_and_drain_still_resolves_the_rest(self):
        sink = MemorySink()

        async def run():
            service = make_service(
                sink, default_quota=TenantQuota("default", max_pending=2)
            )
            futures = [
                service.submit(Operation.query("t", [0])),
                service.submit(Operation.query("t", [1])),
            ]
            with pytest.raises(AdmissionError) as exc:
                # queue already holds 2
                service.submit(Operation.query("t", [2]))
            await service.drain()
            await asyncio.gather(*futures)
            return exc.value

        err = asyncio.run(run())
        assert err.reason == "queue-full"
        statuses = [e.status for e in sink.events_of_kind(SERVE_REQUEST)]
        assert statuses.count("rejected") == 1
        assert statuses.count("accepted") == 2
        assert statuses.count("completed") == 2

    def test_lifetime_quota_rejects_by_query_count(self):
        async def run():
            service = make_service(
                default_quota=TenantQuota(
                    "default", max_pending=64, max_queries=4
                )
            )
            service.submit(Operation.query("t", [0, 1, 2]))
            with pytest.raises(AdmissionError) as exc:
                service.submit(Operation.query("t", [3, 4]))  # 3 + 2 > 4
            await service.drain()
            return exc.value

        assert asyncio.run(run()).reason == "quota"


class TestShutdown:
    def test_drain_resolves_everything_and_emits_the_event(self):
        sink = MemorySink()

        async def run():
            service = make_service(sink)
            futures = [
                service.submit(Operation.query("t", [j % 8]))
                for j in range(10)
            ]
            await service.drain(reason="test")
            results = await asyncio.gather(*futures)
            return service, results

        service, results = asyncio.run(run())
        assert len(results) == 10
        assert service.completed == 10
        drains = sink.events_of_kind(SERVE_DRAIN)
        assert len(drains) == 1
        assert drains[0].reason == "test"
        assert drains[0].abandoned == 0
        # Batches executed during the session are on the spine too.
        assert sink.events_of_kind(SERVE_BATCH)

    def test_drain_is_idempotent(self):
        async def run():
            service = make_service()
            service.submit(Operation.query("t", [0]))
            await service.drain()
            await service.drain()  # second call returns without effect
            return service.completed

        assert asyncio.run(run()) == 1

    def test_submit_after_drain_raises_service_closed(self):
        async def run():
            service = make_service()
            await service.drain()
            with pytest.raises(ServiceClosed):
                service.submit(Operation.query("t", [0]))
            with pytest.raises(ServiceClosed):
                service.add_profile(NET, CFG)

        asyncio.run(run())

    def test_abort_fails_outstanding_futures_as_abandoned(self):
        sink = MemorySink()

        async def run():
            service = make_service(
                sink, flush_after_ms=60_000.0
            )  # nothing flushes by itself
            futures = [
                service.submit(Operation.query("t", [j]))
                for j in range(3)
            ]
            await service.abort(reason="test-abort")
            results = await asyncio.gather(*futures, return_exceptions=True)
            return service, results

        service, results = asyncio.run(run())
        assert all(isinstance(r, ServiceClosed) for r in results)
        assert service.abandoned == 3
        drains = sink.events_of_kind(SERVE_DRAIN)
        assert len(drains) == 1
        assert drains[0].reason == "test-abort"
        assert drains[0].abandoned == 3


class TestFairness:
    def test_backlogged_tenants_share_by_weight(self):
        async def run():
            service = QueryService(
                tenants=[
                    TenantQuota("heavy", weight=2.0, max_pending=1024),
                    TenantQuota("light", weight=1.0, max_pending=1024),
                ],
                flush_after_ms=60_000.0,
            )
            service.add_profile(NET, CFG)
            # Build both backlogs before the worker gets a slot.
            futures = []
            for j in range(30):
                futures.append(
                    service.submit(Operation.query("heavy", [j % 8]))
                )
                futures.append(
                    service.submit(Operation.query("light", [j % 8]))
                )
            lane = service.pool.acquire("default")
            # One fill's worth of dispatch: p == 4 single-query requests.
            service._feed(lane, service._lane_state["default"])
            by_caller = {
                name: acct.submissions
                for name, acct in lane.scheduler._accounts.items()
            }
            await service.abort()
            await asyncio.gather(*futures, return_exceptions=True)
            return by_caller

        by_caller = asyncio.run(run())
        # Weight 2:1 over one width-4 fill with name tie-breaks: stride
        # order is heavy, light, heavy, heavy — exactly reproducible.
        assert by_caller == {"heavy": 3, "light": 1}


class TestReport:
    def test_report_is_json_ready_and_consistent(self):
        import json

        async def run():
            service = make_service()
            futures = [
                service.submit(Operation.query("t", [j % 8]))
                for j in range(6)
            ]
            await service.drain()
            await asyncio.gather(*futures)
            return service.report()

        report = asyncio.run(run())
        json.dumps(report)  # must not raise
        assert report["completed"] == 6
        assert report["tenants"]["t"]["accepted"] == 6
        assert report["tenants"]["t"]["completed"] == 6
        assert report["tenants"]["t"]["pending"] == 0
        assert report["lanes"]["default"]["in_flight"] == 0
        assert report["pool"]["lanes"] == 1


class TestOpenLoopRounds:
    """Stepping batches on an event loop must not cost rounds.

    The same seeded open-loop arrivals go through the daemon and through
    the synchronous scheduler at equal width, both with the memo off so
    packing is compared with packing.  Stride-order dispatch may pack
    tenants in a different order than arrival-order FIFO, which in
    engine mode can shift a boundary batch by a round or two; hence
    the 2% tolerance.
    """

    ROUNDS_TOLERANCE = 1.02

    @pytest.mark.parametrize("mode,clients,k", [
        ("formula", 200, 64),
        ("engine", 100, 32),
    ])
    def test_rounds_per_query_match_the_synchronous_scheduler(
        self, mode, clients, k
    ):
        net, cfg = build_profile(k=k, parallelism=8, mode=mode)
        spec = LoadSpec(
            clients=clients, tenants=4, rate_hz=2000.0, seed=7,
            queries_max=4,
        )
        service = QueryService(
            default_quota=TenantQuota("default", max_pending=1 << 16),
            flush_after_ms=250.0,
            memo=False,
        )
        service.add_profile(net, cfg)
        load = asyncio.run(run_load(service, spec))
        assert load.completed == load.accepted == clients
        served = service.pool.acquire("default").scheduler.report()

        sync = CoalescingScheduler(net, cfg, memo=False)
        tickets = [
            sync.submit(Operation.query(a.tenant, a.indices, label=a.label))
            for a in generate_arrivals(spec, k)
        ]
        sync.drain()
        for ticket in tickets:
            sync.result(ticket)
        assert served.amortized_rounds_per_query <= (
            sync.report().amortized_rounds_per_query * self.ROUNDS_TOLERANCE
        )

"""QueryService: admission, execution, drain, abort, life-cycle events."""

import asyncio
import time

import pytest

from repro.congest import topologies
from repro.obs import MemorySink, MetricsSink, Recorder
from repro.obs.events import SERVE_BATCH, SERVE_DRAIN, SERVE_REQUEST
from repro.core.framework import DistributedInput, FrameworkConfig
from repro.core.operation import Operation
from repro.core.semigroup import Semigroup, combine_max, sum_semigroup
from repro.queries.ledger import ParallelismViolation
from repro.sched import CoalescingScheduler
from repro.serve import (
    AdmissionError,
    LoadSpec,
    QueryService,
    ServiceClosed,
    TenantQuota,
    build_profile,
    build_sketch_profile,
    generate_arrivals,
    run_load,
)

from .loops import LOOP_FACTORIES, run_on

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
        for (tenant, idx), res in zip(requests, results, strict=True):
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


def _oracle_lane(service):
    # p = 64: the ten one-query arrivals below never fill a batch.
    net, cfg = build_profile(rows=2, cols=2, k=64, parallelism=64)
    service.add_profile(net, cfg, name="wide")
    return "wide", lambda j: Operation.query("t", [j])


def _sketch_lane(service):
    service.add_sketch_profile("sketch", build_sketch_profile())  # p = 64
    return "sketch", lambda j: Operation.insert("t", [f"x{j}"])


@pytest.mark.parametrize(
    "loop_factory", list(LOOP_FACTORIES.values()), ids=list(LOOP_FACTORIES)
)
@pytest.mark.parametrize(
    "lane", [_oracle_lane, _sketch_lane], ids=["oracle", "sketch"]
)
class TestFlushDeadline:
    """A partial batch runs flush_after_ms after its oldest request's
    admission, however steadily requests keep arriving.

    The assertions read only the order in which the loop fires its
    timers (a test sleep against the lane's deadline), never a
    duration, so host speed cannot fail them.
    """

    FLUSH_MS = 50.0

    def _service(self, lane):
        service = make_service(flush_after_ms=self.FLUSH_MS)
        return (service, *lane(service))

    def test_a_steady_stream_does_not_hold_the_oldest_request(
        self, lane, loop_factory
    ):
        service, profile, op = self._service(lane)

        async def run():
            futures = [service.submit(op(0), profile=profile)]
            first_done = []
            for j in range(1, 10):  # an arrival every flush_after_ms / 5
                await asyncio.sleep(self.FLUSH_MS / 5 / 1000.0)
                futures.append(service.submit(op(j), profile=profile))
                first_done.append(futures[0].done())
            await service.drain()
            return first_done, await asyncio.gather(*futures)

        first_done, results = run_on(loop_factory, run())
        assert not first_done[0]  # when the second request is submitted
        assert first_done[-1]  # when the tenth is
        assert len(results) == 10
        # Every wait is read off one clock: mixing the loop's with
        # time.monotonic() would be 10^4 s off on the ahead loop.
        assert all(0.0 <= r.wait_ms < 1e6 for r in results)

    def test_the_wait_counts_from_admission(self, lane, loop_factory):
        service, profile, op = self._service(lane)

        async def run():
            future = service.submit(op(0), profile=profile)
            # Hold the loop past the deadline before the lane's worker
            # has first seen the request.
            time.sleep(1.5 * self.FLUSH_MS / 1000.0)
            await asyncio.sleep(self.FLUSH_MS / 2 / 1000.0)
            done = future.done()
            await service.drain()
            return done

        assert run_on(loop_factory, run())


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

    def test_abort_counts_requests_in_flight_per_tenant(self):
        async def run():
            service = make_service(flush_after_ms=60_000.0)
            futures = [
                service.submit(Operation.query("t", [j])) for j in range(3)
            ]
            for _ in range(3):  # the worker feeds all three to the lane
                await asyncio.sleep(0)
            assert len(service.pool.acquire("default").in_flight) == 3
            await service.abort()
            await asyncio.gather(*futures, return_exceptions=True)
            return service.report()

        report = asyncio.run(run())
        assert report["abandoned"] == 3
        assert report["tenants"]["t"]["abandoned"] == 3


class TestEviction:
    """A profile outlives its lane: an evicted lane is rebuilt on demand."""

    NET_B, CFG_B = build_profile(rows=2, cols=3, k=8, parallelism=4)
    TRUTH_B = CFG_B.dist_input.aggregated()

    def _service(self):
        service = make_service(max_lanes=1)
        service.add_profile(self.NET_B, self.CFG_B, name="b")
        assert "default" not in service.pool  # evicted by "b"
        return service

    def _check(self, served):
        truth = {"default": TRUTH, "b": self.TRUTH_B}
        assert TRUTH[:8] != self.TRUTH_B[:8]
        for profile, idx, res in served:
            assert res.profile == profile
            assert res.values == [truth[profile][j] for j in idx]

    def test_alternating_requests_resolve_with_their_own_sums(self):
        async def run():
            service = self._service()
            served = []
            for j in range(6):  # one at a time: each finds its lane evicted
                for profile in ("default", "b"):
                    fut = service.submit(
                        Operation.query("t", [j, 7 - j]), profile=profile
                    )
                    res = await asyncio.wait_for(fut, 5.0)
                    served.append((profile, [j, 7 - j], res))
            evictions = service.pool.evictions
            await asyncio.wait_for(service.drain(), 5.0)
            # One eviction registering "b", one per request; draining
            # rebuilds no evicted lane that has nothing to serve.
            assert service.pool.evictions == evictions == 13
            assert [lane.name for lane in service.pool.lanes()] == ["b"]
            return served

        served = asyncio.run(run())
        self._check(served)
        assert len(served) == 12

    def test_concurrent_requests_to_an_evicted_profile_resolve(self):
        async def run():
            service = self._service()
            futures = [  # both lanes busy at once: the pool overflows
                (profile, [j], service.submit(
                    Operation.query("t", [j]), profile=profile
                ))
                for j in range(8) for profile in ("default", "b")
            ]
            await asyncio.wait_for(service.drain(), 5.0)
            return [(p, idx, f.result()) for p, idx, f in futures]

        served = asyncio.run(run())
        self._check(served)
        assert len(served) == 16

    def test_pool_returns_to_its_bound_once_lanes_go_idle(self):
        async def run():
            service = self._service()
            sizes = []
            futures = [  # both lanes busy at once: the pool overflows
                (profile, [j], service.submit(
                    Operation.query("t", [j]), profile=profile
                ))
                for j in range(8) for profile in ("default", "b")
            ]
            for _, _, fut in futures:
                fut.add_done_callback(
                    lambda _f: sizes.append(len(service.pool))
                )
            await asyncio.wait_for(
                asyncio.gather(*(f for _, _, f in futures)), 5.0
            )
            served = [(p, idx, f.result()) for p, idx, f in futures]
            assert max(sizes) == 2
            for j in range(12):  # one at a time: each acquire evicts
                profile = ("default", "b")[j % 2]
                fut = service.submit(
                    Operation.query("t", [j % 8]), profile=profile
                )
                served.append(
                    (profile, [j % 8], await asyncio.wait_for(fut, 5.0))
                )
                assert len(service.pool) == 1
            await asyncio.wait_for(service.drain(), 5.0)
            assert len(service.pool) == 1
            return served

        served = asyncio.run(run())
        self._check(served)
        assert len(served) == 28

    def test_abort_returns_with_an_evicted_lane(self):
        async def run():
            service = self._service()
            fut = service.submit(Operation.query("t", [0]))  # to "default"
            await asyncio.wait_for(service.abort(), 5.0)
            return service, fut

        service, fut = asyncio.run(run())
        assert isinstance(fut.exception(), ServiceClosed)
        assert service.abandoned == 1


class _CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestServingKeepsNoHistory:
    """A request's host cost must not grow with the requests served.

    Counts only, no timing: while a lane serves, nothing re-reads the
    round ledgers' charge lists (whose length grows by one entry per
    batch), and once every request has resolved neither scheduler
    still holds a submission.
    """

    def test_ledgers_unread_and_submissions_released(self):
        k = 2 ** 15
        net, cfg = build_profile(k=k)
        truth = cfg.dist_input.aggregated()
        tenants = ["t0", "t1", "t2", "t3"]
        service = QueryService(
            default_quota=TenantQuota("default", max_pending=1 << 16)
        )
        oracle = service.add_profile(net, cfg).scheduler
        sketch = service.add_sketch_profile(
            "sketch", build_sketch_profile()
        ).scheduler
        watched = [oracle.rounds] + [oracle.account(t).rounds for t in tenants]
        for ledger in watched:
            ledger.charges = _CountingList(ledger.charges)
        reads = [
            Operation.query(tenants[i % 4], [2 * i, 2 * i + 1])
            for i in range(2000)
        ]
        sketch_ops = [
            (Operation.insert if i % 2 else Operation.sketch_query)(
                tenants[i % 4], [f"x{i % 37}"]
            )
            for i in range(500)
        ]

        async def run():
            futures, sketch_futures = [], []
            for i, op in enumerate(reads):
                futures.append(service.submit(op))
                if i % 4 == 0:
                    sketch_futures.append(service.submit(
                        sketch_ops[i // 4], profile="sketch"
                    ))
            await service.drain()
            return (
                await asyncio.gather(*futures),
                await asyncio.gather(*sketch_futures),
            )

        results, sketch_results = asyncio.run(run())
        assert [ledger.charges.iterations for ledger in watched] == [0] * 5
        assert oracle._by_ticket == {}
        assert sketch._by_ticket == {}
        assert [r.values for r in results] == [
            [truth[j] for j in op.indices] for op in reads
        ]
        assert len(sketch_results) == 500
        assert oracle.physical_batches == 500
        report = oracle.report()
        assert report.attributed_rounds == report.physical_query_rounds


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

    def test_requests_the_lane_refuses_are_counted_failed(self):
        # Admission checks only the tenant's queue and quota; the lane's
        # scheduler refuses the last three when fed.
        metrics = MetricsSink()

        async def run():
            service = make_service(metrics)
            futures = [
                service.submit(op) for op in (
                    Operation.query("t", [1, 2]),
                    Operation.query("t", [99]),
                    Operation.query("t", [0, 1, 2, 3, 4]),
                    Operation.insert("t", ["x"]),
                )
            ]
            await service.drain()
            results = await asyncio.gather(*futures, return_exceptions=True)
            return service.report(), results

        report, results = asyncio.run(run())
        assert results[0].values == [TRUTH[1], TRUTH[2]]
        assert [type(r) for r in results[1:]] == [
            IndexError, ParallelismViolation, ValueError,
        ]
        tenant = report["tenants"]["t"]
        assert tenant["accepted"] == 4
        assert (tenant["completed"], tenant["failed"]) == (1, 3)
        assert tenant["abandoned"] == tenant["pending"] == 0
        assert (report["completed"], report["failed"]) == (1, 3)
        assert metrics.serve_requests == {
            "accepted": 4, "completed": 1, "failed": 3,
        }


def _engine_profile(semigroup):
    """An engine-mode grid(2, 2) profile, k = 8, p = 4, whose nodes hold
    0 at index 0 and 1 at index 1 (so index 1 sums to 4)."""
    net = topologies.grid(2, 2)
    vectors = {v: [0, 1] + [0] * 6 for v in net.nodes()}
    return net, FrameworkConfig(
        parallelism=4, dist_input=DistributedInput(vectors, semigroup),
        mode="engine", seed=0, leader=0,
    )


class TestRaisingBatch:
    """A batch that raises fails its requests and leaves its lane serving."""

    @staticmethod
    def serve(profile, follow_up):
        metrics = MetricsSink()

        async def run():
            service = make_service(metrics)
            service.add_profile(*profile, name="lane")
            bad = service.submit(Operation.query("t", [1]), profile="lane")
            failure = await asyncio.wait_for(
                asyncio.gather(bad, return_exceptions=True), timeout=5.0
            )
            later = None
            if follow_up:
                later = await asyncio.wait_for(
                    service.submit(Operation.query("t", [0]), profile="lane"),
                    timeout=5.0,
                )
            await asyncio.wait_for(service.drain(), timeout=5.0)
            return failure[0], later, service.report()

        return (*asyncio.run(run()), metrics)

    def test_value_outside_the_domain(self):
        failure, later, report, metrics = self.serve(
            _engine_profile(sum_semigroup(2)), follow_up=True
        )
        assert isinstance(failure, ValueError)
        assert "outside domain" in str(failure)
        assert later.values == [0]  # the lane's worker kept serving
        tenant = report["tenants"]["t"]
        assert tenant["accepted"] == 2
        assert (tenant["completed"], tenant["failed"]) == (1, 1)
        assert tenant["abandoned"] == tenant["pending"] == 0
        assert (report["completed"], report["failed"]) == (1, 1)
        lane = report["lanes"]["lane"]
        assert lane["pending_queries"] == lane["in_flight"] == 0
        assert lane["report"]["attributed_rounds"] == (
            lane["report"]["physical_query_rounds"]
        )
        assert metrics.serve_requests == {
            "accepted": 2, "completed": 1, "failed": 1,
        }

    def test_semigroup_without_identity(self):
        semigroup = Semigroup(name="max-no-id", combine=combine_max, bits=3)
        failure, _later, report, metrics = self.serve(
            _engine_profile(semigroup), follow_up=False
        )
        assert isinstance(failure, ValueError)
        assert "monoid identity" in str(failure)
        assert (report["completed"], report["failed"]) == (0, 1)
        assert report["tenants"]["t"]["failed"] == 1
        assert metrics.serve_requests == {"accepted": 1, "failed": 1}


class TestRecorders:
    def test_default_lane_records_nothing(self):
        # With no recorder anywhere, a lane's fork is the null recorder,
        # so neither its scheduler nor its oracle builds events.
        service = QueryService()
        scheduler = service.add_profile(NET, CFG).scheduler
        assert not scheduler._recorder.active
        assert not scheduler.oracle.recorder.active

    def test_recording_lane_feeds_the_service_sinks(self):
        sink = MemorySink()
        scheduler = make_service(sink).pool.acquire("default").scheduler
        assert scheduler._recorder.active
        assert scheduler.oracle.recorder.sinks == [sink]


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

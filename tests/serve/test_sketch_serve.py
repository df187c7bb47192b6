"""Sketch lanes through the daemon: pinning, streams, invalidation."""

import asyncio

import pytest

from repro.apps.sketches import AmplitudeSketch, SketchSpec
from repro.core.operation import Operation
from repro.serve import (
    PreparedPool,
    QueryService,
    SketchLoadSpec,
    TenantQuota,
    build_profile,
    build_sketch_profile,
    generate_operation_arrivals,
    run_operation_load,
    run_sketch_session,
)

NET, CFG = build_profile(rows=2, cols=2, k=8, parallelism=4)


def make_sketch(name="lane0", m=64):
    return AmplitudeSketch(
        SketchSpec(family="qcount", m=m, backend="emulated"), name=name
    )


def make_service(**kwargs):
    kwargs.setdefault(
        "default_quota", TenantQuota("default", max_pending=64)
    )
    kwargs.setdefault("flush_after_ms", 1.0)
    return QueryService(**kwargs)


class TestPoolPinning:
    def test_sketch_lane_is_pinned(self):
        pool = PreparedPool(max_lanes=4)
        lane = pool.add_sketch("sk", make_sketch())
        assert lane.pinned

    def test_pinned_lane_survives_lru_pressure(self):
        pool = PreparedPool(max_lanes=2)
        pool.add_sketch("sk", make_sketch())
        for i in range(4):  # oracle churn far past max_lanes
            pool.acquire(f"oracle{i}", NET, CFG)
        assert "sk" in pool
        assert pool.evictions > 0

    def test_warm_re_add_returns_same_lane(self):
        pool = PreparedPool(max_lanes=4)
        sketch = make_sketch()
        lane = pool.add_sketch("sk", sketch)
        assert pool.add_sketch("sk", sketch) is lane

    def test_re_add_with_different_sketch_rejected(self):
        pool = PreparedPool(max_lanes=4)
        pool.add_sketch("sk", make_sketch())
        with pytest.raises(ValueError, match="different sketch"):
            pool.add_sketch("sk", make_sketch())


class TestDaemonSketchProfile:
    def test_insert_query_stream_through_daemon(self):
        async def drive():
            service = make_service()
            service.add_sketch_profile("sk", make_sketch())
            ack = await service.submit(
                Operation.insert("alice", ["key-1"]), profile="sk"
            )
            hit = await service.submit(
                Operation.sketch_query("bob", ["key-1"]), profile="sk"
            )
            miss = await service.submit(
                Operation.sketch_query("bob", ["key-2"]), profile="sk"
            )
            await service.drain()
            return ack, hit, miss

        ack, hit, miss = asyncio.run(drive())
        assert ack.values == [True]
        assert hit.values == [pytest.approx(1.0)]
        assert miss.values[0] < 1.0

    def test_insert_invalidates_served_memo(self):
        """No daemon client is ever served a pre-insert overlap."""

        async def drive():
            service = make_service()
            sketch = make_sketch()
            service.add_sketch_profile("sk", sketch)
            stale = await service.submit(
                Operation.sketch_query("a", ["x"]), profile="sk"
            )
            await service.submit(
                Operation.insert("b", ["x"]), profile="sk"
            )
            fresh = await service.submit(
                Operation.sketch_query("a", ["x"]), profile="sk"
            )
            await service.drain()
            report = service.pool.acquire("sk").scheduler.report()
            return stale, fresh, report

        stale, fresh, report = asyncio.run(drive())
        assert stale.values != fresh.values
        assert fresh.values == [pytest.approx(1.0)]
        assert report.memo_invalidations >= 1

    def test_item_the_sketch_cannot_encode_fails_its_request(self):
        async def drive():
            service = make_service()
            sketch = make_sketch()
            service.add_sketch_profile("sk", sketch)
            bad = service.submit(
                Operation.insert("t", ["a", [1, 2]]), profile="sk"
            )
            failure = await asyncio.wait_for(
                asyncio.gather(bad, return_exceptions=True), timeout=5.0
            )
            ack = await asyncio.wait_for(
                service.submit(Operation.insert("t", ["b"]), profile="sk"),
                timeout=5.0,
            )
            await asyncio.wait_for(service.drain(), timeout=5.0)
            return failure[0], ack, sketch, service.report()

        failure, ack, sketch, report = asyncio.run(drive())
        assert isinstance(failure, TypeError)
        assert ack.values == [True]
        assert sketch.inserts == 1  # only "b": "a" never reached the sketch
        assert (report["completed"], report["failed"]) == (1, 1)
        assert report["tenants"]["t"]["failed"] == 1


class TestOperationLoad:
    def test_arrivals_are_deterministic_and_mixed(self):
        spec = SketchLoadSpec(clients=50, insert_fraction=0.4, seed=3)
        a = generate_operation_arrivals(spec)
        b = generate_operation_arrivals(spec)
        assert [x.op for x in a] == [x.op for x in b]
        kinds = {arr.op.kind for arr in a}
        assert kinds == {"query", "insert"}

    def test_mix_knob_only_flips_kinds(self):
        lo = generate_operation_arrivals(
            SketchLoadSpec(clients=50, insert_fraction=0.0)
        )
        hi = generate_operation_arrivals(
            SketchLoadSpec(clients=50, insert_fraction=1.0)
        )
        assert all(not a.op.is_write for a in lo)
        assert all(a.op.is_write for a in hi)
        # Payloads come from their own stream: changing the mix must
        # not reshuffle what the clients ask about.
        assert [a.op.items for a in lo] == [a.op.items for a in hi]

    def test_run_operation_load_completes_all(self):
        async def drive():
            service = make_service(
                default_quota=TenantQuota("default", max_pending=1 << 16)
            )
            service.add_sketch_profile("sk", make_sketch())
            spec = SketchLoadSpec(clients=120, insert_fraction=0.5)
            return await run_operation_load(service, spec, profile="sk")

        report = asyncio.run(drive())
        assert report.offered == 120
        assert report.completed == 120
        assert report.failed == 0


class TestSketchSession:
    def test_session_report_shape_and_invariants(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        out = run_sketch_session(
            clients=150, tenants=3, insert_fraction=0.5, jsonl=trace
        )
        assert out["load"]["completed"] == 150
        assert out["load"]["failed"] == 0
        assert out["lane"]["memo_invalidations"] > 0
        assert out["metrics"]["memo_invalidations"] > 0
        assert out["metrics"]["sketch_ops"]["insert"] > 0
        assert out["metrics"]["sketch_ops"]["query"] > 0
        assert out["sketch"]["backend"] == "emulated"
        assert out["trace"]["records"]["sketch"] > 0

    def test_build_sketch_profile_names_and_backend(self):
        sketch = build_sketch_profile(family="qcount", m=8)
        assert sketch.name == "qcount-m8"
        assert sketch.backend == "exact"

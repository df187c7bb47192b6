"""Open-loop load generator: determinism, report math, end-to-end runs."""

import asyncio

import pytest

from repro.serve import (
    LoadReport,
    LoadSpec,
    QueryService,
    TenantQuota,
    build_profile,
    generate_arrivals,
    run_load,
)

from .loops import LOOP_FACTORIES, run_on


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clients": 0},
            {"tenants": 0},
            {"rate_hz": 0.0},
            {"queries_min": 0},
            {"queries_min": 3, "queries_max": 2},
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LoadSpec(**kwargs)


class TestArrivals:
    def test_same_spec_same_schedule(self):
        spec = LoadSpec(clients=50, tenants=3, seed=9)
        assert generate_arrivals(spec, 16) == generate_arrivals(spec, 16)

    def test_different_seed_different_schedule(self):
        a = generate_arrivals(LoadSpec(clients=50, seed=1), 16)
        b = generate_arrivals(LoadSpec(clients=50, seed=2), 16)
        assert a != b

    def test_arrivals_respect_the_spec_envelope(self):
        spec = LoadSpec(
            clients=80, tenants=3, queries_min=2, queries_max=5, seed=4
        )
        arrivals = generate_arrivals(spec, 16)
        assert len(arrivals) == 80
        last = 0.0
        for arrival in arrivals:
            assert arrival.at_s >= last  # Poisson times are monotone
            last = arrival.at_s
            assert arrival.tenant in {"tenant0", "tenant1", "tenant2"}
            assert 2 <= len(arrival.indices) <= 5
            assert all(0 <= j < 16 for j in arrival.indices)
            assert arrival.label == spec.label

    def test_size_knob_does_not_reshuffle_tenants(self):
        # Each knob draws from its own derived stream.
        small = generate_arrivals(LoadSpec(clients=40, queries_max=2), 16)
        large = generate_arrivals(LoadSpec(clients=40, queries_max=4), 16)
        assert [a.tenant for a in small] == [a.tenant for a in large]


class TestReportMath:
    def test_nearest_rank_percentiles(self):
        report = LoadReport(
            offered=100, accepted=100, rejected=0, completed=100,
            failed=0, duration_s=2.0,
            latencies_ms=[float(v) for v in range(100, 0, -1)],
        )
        assert report.p50_ms == 50.0
        assert report.p99_ms == 99.0
        assert report.qps == 50.0

    def test_empty_report_is_all_zeros(self):
        report = LoadReport(
            offered=0, accepted=0, rejected=0, completed=0, failed=0,
            duration_s=0.0,
        )
        assert report.qps == 0.0
        assert report.p50_ms == 0.0
        assert report.p99_ms == 0.0


class TestRunLoad:
    def test_open_loop_run_completes_every_accepted_request(self):
        net, cfg = build_profile(rows=2, cols=2, k=8, parallelism=4)
        service = QueryService(
            default_quota=TenantQuota("default", max_pending=1 << 12),
            flush_after_ms=1.0,
        )
        service.add_profile(net, cfg)
        spec = LoadSpec(clients=40, tenants=3, seed=5, queries_max=3)
        report = asyncio.run(run_load(service, spec))
        assert report.offered == 40
        assert report.accepted == 40
        assert report.completed == 40
        assert report.failed == 0
        assert report.rejected == 0
        assert len(report.latencies_ms) == 40
        assert report.p99_ms >= report.p50_ms >= 0.0

    @pytest.mark.parametrize(
        "loop_factory", list(LOOP_FACTORIES.values()),
        ids=list(LOOP_FACTORIES),
    )
    def test_paced_arrivals_keep_to_the_loop_clock(self, loop_factory):
        net, cfg = build_profile(rows=2, cols=2, k=8, parallelism=4)
        service = QueryService(
            default_quota=TenantQuota("default", max_pending=1 << 12),
            flush_after_ms=1.0,
        )
        service.add_profile(net, cfg)
        spec = LoadSpec(clients=40, seed=5, rate_hz=2000.0, time_scale=1.0)
        span = generate_arrivals(spec, 8)[-1].at_s * spec.time_scale

        async def run():  # the guard reads the same clock as the pacing
            return await asyncio.wait_for(run_load(service, spec), 10.0)

        report = run_on(loop_factory, run())
        assert report.completed == 40
        # The last arrival waited for its time; on the ahead loop, a
        # second clock would be 10^4 s off one way or the other.
        assert span - 1e-6 <= report.duration_s < 1e3
        assert all(0.0 <= ms < 1e6 for ms in report.latencies_ms)

    def test_backpressure_shows_up_as_rejections_not_failures(self):
        # Engine mode: an in-flight batch yields to the loop every
        # YIELD_EVERY rounds, so the submission flood outpaces the lane
        # and the bounded tenant queue must reject.
        net, cfg = build_profile(
            rows=2, cols=2, k=8, parallelism=4, mode="engine"
        )
        service = QueryService(
            default_quota=TenantQuota("default", max_pending=2),
            flush_after_ms=1.0,
        )
        service.add_profile(net, cfg)
        spec = LoadSpec(clients=60, tenants=1, seed=5)
        report = asyncio.run(run_load(service, spec))
        assert report.rejected > 0
        assert report.offered == 60
        assert report.accepted + report.rejected == 60
        assert report.completed == report.accepted  # drain flushed the rest
        assert report.failed == 0

"""PreparedPool: warm reuse, LRU eviction, busy-lane pinning."""

import pytest

from repro.serve.pool import PreparedPool
from repro.serve.session import build_profile
from repro.core.operation import Operation


def _profile(seed=4):
    return build_profile(rows=2, cols=2, k=8, parallelism=4, seed=seed)


class TestAcquire:
    def test_cold_acquire_without_profile_raises(self):
        pool = PreparedPool()
        with pytest.raises(KeyError, match="not warm"):
            pool.acquire("missing")

    def test_warm_reacquire_returns_the_same_lane(self):
        pool = PreparedPool()
        net, cfg = _profile()
        lane = pool.acquire("a", net, cfg)
        assert pool.acquire("a") is lane
        assert lane.scheduler is pool.acquire("a").scheduler
        assert len(pool) == 1

    def test_warm_profile_wins_over_passed_arguments(self):
        pool = PreparedPool()
        net, cfg = _profile()
        lane = pool.acquire("a", net, cfg)
        other_net, other_cfg = _profile(seed=9)
        assert pool.acquire("a", other_net, other_cfg) is lane


class TestEviction:
    def test_over_capacity_evicts_least_recently_acquired_idle(self):
        pool = PreparedPool(max_lanes=2)
        net, cfg = _profile()
        pool.acquire("a", net, cfg)
        pool.acquire("b", net, cfg)
        pool.acquire("a")  # refresh a's recency: b is now LRU
        pool.acquire("c", net, cfg)
        assert "b" not in pool
        assert "a" in pool and "c" in pool
        assert pool.evictions == 1

    def test_busy_lanes_are_never_evicted(self):
        pool = PreparedPool(max_lanes=2)
        net, cfg = _profile()
        busy = pool.acquire("busy", net, cfg)
        # submit only queues: the lane stays busy until a batch runs
        busy.scheduler.submit(Operation.query("tenant", [0, 1]))
        assert not busy.idle
        pool.acquire("idle", net, cfg)
        pool.acquire("new", net, cfg)
        assert "busy" in pool
        assert "idle" not in pool

    def test_all_busy_pool_exceeds_bound_rather_than_dropping_work(self):
        pool = PreparedPool(max_lanes=1)
        net, cfg = _profile()
        pool.acquire("a", net, cfg).scheduler.submit(Operation.query("t", [0]))
        pool.acquire("b", net, cfg).scheduler.submit(Operation.query("t", [1]))
        assert len(pool) == 2
        assert pool.evictions == 0

    def test_warm_acquire_evicts_back_to_the_bound(self):
        pool = PreparedPool(max_lanes=1)
        net, cfg = _profile()
        lanes = {}
        for name in ("a", "b", "c"):
            lanes[name] = pool.acquire(name, net, cfg)
            lanes[name].scheduler.submit(Operation.query("t", [0]))
        assert len(pool) == 3  # all busy: over the bound
        for lane in lanes.values():
            lane.scheduler.drain()
        # "a" is the least recently acquired idle lane, but it is the
        # one being acquired: the other two go instead.
        assert pool.acquire("a") is lanes["a"]
        assert [lane.name for lane in pool.lanes()] == ["a"]
        assert pool.evictions == 2

    def test_evicted_lane_is_rebuilt_from_its_profile(self):
        pool = PreparedPool(max_lanes=1)
        net, cfg = _profile()
        first = pool.acquire("a", net, cfg)
        pool.acquire("b", net, cfg)
        assert "a" not in pool
        rebuilt = pool.acquire("a")  # no arguments: the remembered profile
        assert rebuilt is not first
        assert rebuilt.scheduler.network is net
        assert rebuilt.scheduler.config is cfg
        assert pool.evictions == 2

    def test_cold_arguments_replace_the_remembered_profile(self):
        pool = PreparedPool(max_lanes=1)
        net, cfg = _profile()
        other_net, other_cfg = _profile(seed=9)
        pool.acquire("a", net, cfg)
        pool.acquire("b", net, cfg)
        lane = pool.acquire("a", other_net, other_cfg)
        assert lane.scheduler.config is other_cfg
        pool.acquire("b")
        assert pool.acquire("a").scheduler.config is other_cfg

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="max_lanes"):
            PreparedPool(max_lanes=0)


class TestStats:
    def test_stats_expose_pool_and_prepared_cache(self):
        pool = PreparedPool(max_lanes=3)
        net, cfg = _profile()
        pool.acquire("a", net, cfg)
        stats = pool.stats()
        assert stats["lanes"] == 1
        assert stats["max_lanes"] == 3
        assert stats["lane_evictions"] == 0
        assert set(stats["prepared_cache"]) == {
            "entries", "max_entries", "hits", "misses", "evictions",
        }

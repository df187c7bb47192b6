"""PreparedNetwork: cached setup is charge- and result-transparent."""

import random

import pytest

from repro.congest import topologies
from repro.core.framework import (
    DistributedInput,
    FrameworkConfig,
    PreparedCache,
    PreparedNetwork,
    configure_prepared_cache,
    invalidate_prepared,
    prepare_network,
    prepared_cache_stats,
    run_framework,
)
from repro.core.semigroup import sum_semigroup


@pytest.fixture
def case():
    net = topologies.random_regular(20, 4, seed=2)
    rnd = random.Random(1)
    vectors = {v: [rnd.randint(0, 3) for _ in range(6)] for v in net.nodes()}
    di = DistributedInput(vectors=vectors, semigroup=sum_semigroup(100))
    invalidate_prepared()
    yield net, di
    invalidate_prepared()


def algorithm(oracle, _rng):
    return tuple(oracle.query_batch([0, 3, 5]))


class TestPrepareNetwork:
    def test_repeated_calls_return_cached_object(self, case):
        net, _ = case
        first = prepare_network(net, seed=7)
        second = prepare_network(net, seed=7)
        assert first is second

    def test_seed_and_leader_key_the_cache(self, case):
        net, _ = case
        by_seed = {s: prepare_network(net, seed=s) for s in (1, 2)}
        assert by_seed[1] is not by_seed[2]
        designated = prepare_network(net, seed=1, leader=5)
        assert designated is not by_seed[1]
        assert designated.leader == 5
        assert designated.election_rounds is None
        assert by_seed[1].election_rounds is not None

    def test_invalidate_single_network(self, case):
        net, _ = case
        before = prepare_network(net, seed=7)
        invalidate_prepared(net)
        after = prepare_network(net, seed=7)
        assert before is not after
        # Deterministic setup: the recomputed tree matches the dropped one.
        assert before.leader == after.leader
        assert before.tree.parent == after.tree.parent

    def test_invalidate_all(self, case):
        net, _ = case
        other = topologies.grid(3, 3)
        a = prepare_network(net, seed=1)
        b = prepare_network(other, seed=1)
        invalidate_prepared()
        assert prepare_network(net, seed=1) is not a
        assert prepare_network(other, seed=1) is not b

    def test_equal_topologies_share_an_entry(self, case):
        """Fingerprint keying: two Network objects, one cached setup.

        This is what lets the serving daemon's warm pool survive tenants
        that each construct their own Network for the same topology.
        """
        net, _ = case
        twin = topologies.random_regular(20, 4, seed=2)
        assert twin is not net
        assert prepare_network(net, seed=7) is prepare_network(twin, seed=7)


class TestPreparedCacheLRU:
    def _nets(self, count):
        return [topologies.cycle(3 + i) for i in range(count)]

    def test_eviction_at_capacity(self):
        cache = PreparedCache(max_entries=2)
        n1, n2, n3 = self._nets(3)
        p1 = cache.prepare(n1, seed=0)
        cache.prepare(n2, seed=0)
        cache.prepare(n3, seed=0)  # evicts n1 (least recently used)
        assert cache.stats() == {
            "entries": 2, "max_entries": 2,
            "hits": 0, "misses": 3, "evictions": 1,
        }
        # n1 must be recomputed (deterministically identical, new object);
        # that insert evicts n2 in turn.
        again = cache.prepare(n1, seed=0)
        assert again is not p1
        assert again.tree.parent == p1.tree.parent
        assert cache.evictions == 2

    def test_lookup_hit_refreshes_recency(self):
        cache = PreparedCache(max_entries=2)
        n1, n2, n3 = self._nets(3)
        p1 = cache.prepare(n1, seed=0)
        cache.prepare(n2, seed=0)
        assert cache.prepare(n1, seed=0) is p1  # refresh: n2 is now LRU
        cache.prepare(n3, seed=0)  # evicts n2, not n1
        assert cache.prepare(n1, seed=0) is p1
        assert cache.hits == 2

    def test_invalidate_single_hits_eviction_path(self):
        """invalidate(network) drops exactly that topology's entries."""
        cache = PreparedCache(max_entries=8)
        n1, n2 = self._nets(2)
        a = cache.prepare(n1, seed=0)
        b = cache.prepare(n1, seed=1)
        c = cache.prepare(n2, seed=0)
        cache.invalidate(n1)
        assert len(cache) == 1
        assert cache.prepare(n2, seed=0) is c  # untouched entry survives
        assert cache.prepare(n1, seed=0) is not a
        assert cache.prepare(n1, seed=1) is not b

    def test_unbounded_when_none(self):
        cache = PreparedCache(max_entries=None)
        for net in self._nets(5):
            cache.prepare(net, seed=0)
        assert len(cache) == 5 and cache.evictions == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="positive"):
            PreparedCache(max_entries=0)
        with pytest.raises(ValueError, match="positive"):
            configure_prepared_cache(-1)

    def test_configure_shrinks_global_cache_live(self, case):
        net, _ = case
        try:
            for i in range(4):
                prepare_network(topologies.cycle(4 + i), seed=0)
            stats = prepared_cache_stats()
            assert stats["entries"] == 4
            configure_prepared_cache(2)
            stats = prepared_cache_stats()
            assert stats["entries"] == 2
            assert stats["evictions"] >= 2
            assert stats["max_entries"] == 2
        finally:
            from repro.core.framework import DEFAULT_PREPARED_CACHE_ENTRIES

            configure_prepared_cache(DEFAULT_PREPARED_CACHE_ENTRIES)


class TestRunFrameworkCaching:
    @pytest.mark.parametrize("mode", ["formula", "engine"])
    def test_cached_setup_is_transparent(self, case, mode):
        net, di = case
        cfg = FrameworkConfig(parallelism=3, dist_input=di, mode=mode,
                              seed=9)
        invalidate_prepared(net)
        runs = [
            run_framework(net, algorithm, config=cfg),  # recomputes setup
            run_framework(net, algorithm, config=cfg),  # hits the cache
            run_framework(net, algorithm, config=cfg),  # hits it again
        ]
        assert prepared_cache_stats()["hits"] >= 2
        baseline = runs[0]
        for run in runs[1:]:
            assert run.result == baseline.result
            assert run.leader == baseline.leader
            assert run.tree_depth == baseline.tree_depth
            # Charge-for-charge identical ledgers, not just equal totals.
            assert run.rounds.charges == baseline.rounds.charges

    def test_explicit_prepared_object(self, case):
        net, di = case
        prepared = prepare_network(net, seed=9)
        assert isinstance(prepared, PreparedNetwork)
        cfg = FrameworkConfig(parallelism=3, dist_input=di, mode="engine",
                              seed=9)
        via_prepared = run_framework(
            net, algorithm, config=cfg.replace(prepared=prepared),
        )
        invalidate_prepared(net)
        fresh = run_framework(net, algorithm, config=cfg)
        assert via_prepared.rounds.charges == fresh.rounds.charges
        assert via_prepared.result == fresh.result

    def test_reuse_setup_field_is_gone(self):
        # Every run without ``prepared`` goes through the cache; to
        # recompute setup, invalidate it.
        with pytest.raises(TypeError, match="reuse_setup"):
            FrameworkConfig(parallelism=1, reuse_setup=False)

    def test_designated_leader_skips_election_charge(self, case):
        net, di = case
        run = run_framework(net, algorithm, config=FrameworkConfig(
            parallelism=3, dist_input=di, mode="engine", seed=9, leader=4,
        ))
        phases = run.rounds.by_phase()
        assert "setup:leader-election" not in phases
        assert "setup:bfs-tree" in phases
        assert run.leader == 4

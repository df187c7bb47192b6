"""CSR adjacency arrays and their two-level cache (PR 7)."""

import numpy as np
import pytest

from repro.congest import topologies
from repro.congest.csr import (
    CSRCache,
    build_csr,
    csr_cache_stats,
    csr_for,
    invalidate_csr,
)


class TestBuildCSR:
    def test_structure_matches_network_neighbors(self):
        net = topologies.grid(3, 4)
        csr = build_csr(net)
        assert csr.n == net.n
        assert csr.num_directed_edges == 2 * net.m
        for v in net.nodes():
            lo, hi = int(csr.indptr[v]), int(csr.indptr[v + 1])
            assert tuple(csr.indices[lo:hi]) == net.neighbors(v)
            assert csr.degree(v) == len(net.neighbors(v))
            assert all(int(s) == v for s in csr.src[lo:hi])

    def test_rev_is_the_reverse_edge_involution(self):
        net = topologies.random_regular(16, 3, seed=2)
        csr = build_csr(net)
        e = np.arange(csr.num_directed_edges)
        # An involution...
        assert np.array_equal(csr.rev[csr.rev], e)
        # ...that maps u->v onto v->u.
        assert np.array_equal(csr.src[csr.rev], csr.indices)
        assert np.array_equal(csr.indices[csr.rev], csr.src)

    def test_edge_id_round_trips(self):
        net = topologies.cycle(6)
        csr = build_csr(net)
        for u in net.nodes():
            for v in net.neighbors(u):
                e = csr.edge_id(u, v)
                assert (int(csr.src[e]), int(csr.indices[e])) == (u, v)
        with pytest.raises(KeyError):
            csr.edge_id(0, 3)  # not an edge of a 6-cycle

    def test_fingerprint_recorded(self):
        net = topologies.star(5)
        csr = build_csr(net)
        assert csr.fingerprint == net.topology_fingerprint()


class TestCSRCache:
    def test_same_object_hits_weak_path(self):
        cache = CSRCache()
        net = topologies.grid(3, 3)
        a = cache.get(net)
        b = cache.get(net)
        assert a is b
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_identical_topology_shares_one_build(self):
        cache = CSRCache()
        a = cache.get(topologies.cycle(9))
        b = cache.get(topologies.cycle(9))  # distinct Network object
        assert a is b
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

    def test_eviction_is_lru_and_counted(self):
        cache = CSRCache(max_entries=2)
        n1, n2, n3 = (
            topologies.cycle(5), topologies.cycle(6), topologies.cycle(7)
        )
        cache.get(n1)
        cache.get(n2)
        cache.get(n3)  # evicts n1's fingerprint (oldest)
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2
        # n1's fingerprint was evicted: a fresh cycle(5) object is a miss,
        # while n3's entry is still live for a fresh cycle(7) object.
        misses = cache.stats()["misses"]
        cache.get(topologies.cycle(5))
        assert cache.stats()["misses"] == misses + 1
        cache.get(topologies.cycle(7))
        assert cache.stats()["misses"] == misses + 2 - 1

    def test_invalidate_single_network(self):
        cache = CSRCache()
        net = topologies.grid(2, 4)
        cache.get(net)
        cache.invalidate(net)
        assert len(cache) == 0
        misses = cache.stats()["misses"]
        cache.get(net)
        assert cache.stats()["misses"] == misses + 1

    def test_invalidate_all(self):
        cache = CSRCache()
        cache.get(topologies.cycle(4))
        cache.get(topologies.cycle(5))
        cache.invalidate()
        assert len(cache) == 0

    def test_same_shape_different_topology_not_conflated(self):
        from repro.congest.network import Network

        cache = CSRCache()
        ring = topologies.cycle(6)
        # Same (n, m, bandwidth) as a 6-cycle, different edge set: the
        # fingerprint keying must give each topology its own arrays.
        tadpole = Network.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]
        )
        assert (ring.n, ring.m, ring.bandwidth) == (
            tadpole.n, tadpole.m, tadpole.bandwidth
        )
        a = cache.get(ring)
        b = cache.get(tadpole)
        assert a is not b
        assert cache.stats()["misses"] == 2
        assert tuple(b.indices[b.indptr[2]:b.indptr[3]]) == (0, 1, 3)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            CSRCache(max_entries=0)


class TestModelKeying:
    """PR 8: the communication model is part of both cache keys."""

    def test_same_topology_different_model_not_conflated(self):
        from repro.congest.network import Network

        cache = CSRCache()
        import networkx as nx

        g = nx.path_graph(6)
        congest = Network(g)
        local = Network(g, comm_model="local")
        a = cache.get(congest)
        b = cache.get(local)
        # Same edges, but the fingerprints (and so the entries) differ:
        # a LOCAL network must never satisfy a CONGEST lookup, whose
        # arrays could outlive a later bandwidth-dependent consumer.
        assert cache.stats()["misses"] == 2
        assert np.array_equal(a.indices, b.indices)
        assert a.fingerprint != b.fingerprint

    def test_weak_path_rechecks_model(self):
        cache = CSRCache()
        clique = topologies.clique(7)
        a = cache.get(clique)
        assert cache.get(clique) is a
        assert cache.stats()["hits"] == 1

    def test_model_entries_participate_in_lru_eviction(self):
        import networkx as nx

        from repro.congest.network import Network

        cache = CSRCache(max_entries=2)
        g = nx.cycle_graph(8)
        variants = [
            Network(g),
            Network(g, comm_model="local"),
            Network(g, comm_model="congest-clique"),
        ]
        for net in variants:
            cache.get(net)
        assert cache.stats()["evictions"] == 1
        # The default-model entry (oldest) was evicted; re-reading it
        # through a *fresh* equivalent object is a miss, while the
        # clique entry is still warm.
        misses = cache.stats()["misses"]
        cache.get(Network(nx.cycle_graph(8)))
        assert cache.stats()["misses"] == misses + 1
        cache.get(Network(nx.cycle_graph(8), comm_model="congest-clique"))
        assert cache.stats()["misses"] == misses + 1

    def test_complete_network_analytic_build_shares_cache_entry(self):
        import networkx as nx

        from repro.congest.network import Network

        cache = CSRCache()
        fast = topologies.complete(12)
        via_fast = cache.get(fast)
        # The nx-built K_12 fingerprints identically, so the analytic
        # arrays satisfy its lookup without a second build.
        via_ref = cache.get(Network(nx.complete_graph(12)))
        assert via_ref is via_fast
        assert cache.stats()["misses"] == 1


class TestModuleLevelCache:
    def test_csr_for_and_invalidate(self):
        invalidate_csr()
        net = topologies.grid(3, 3)
        a = csr_for(net)
        assert csr_for(net) is a
        invalidate_csr(net)
        stats = csr_cache_stats()
        assert stats["entries"] == 0


class TestPreparedNetworkIntegration:
    def test_prepare_leaves_csr_cached(self):
        from repro.core.framework import invalidate_prepared, prepare_network

        invalidate_prepared()
        net = topologies.grid(3, 4)
        prepare_network(net, seed=0)
        # Setup's own election and BFS ran on the bulk loop, which left
        # the topology's CSR in the engine's cache.
        before = csr_cache_stats()
        csr = csr_for(net)
        after = csr_cache_stats()
        assert csr.fingerprint == net.topology_fingerprint()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        invalidate_prepared()

    def test_invalidate_prepared_cascades_to_csr(self):
        from repro.core.framework import invalidate_prepared, prepare_network

        invalidate_prepared()
        net = topologies.cycle(8)
        prepare_network(net, seed=0)
        assert csr_cache_stats()["entries"] >= 1
        invalidate_prepared(net)
        assert csr_cache_stats()["entries"] == 0

    def test_stale_tripwire_still_fires_with_csr_cache(self):
        from repro.core.framework import (
            StalePreparedNetworkError,
            invalidate_prepared,
            prepare_network,
        )

        invalidate_prepared()
        net = topologies.cycle(8)
        prepare_network(net, seed=0)
        # Degree-preserving in-place rewiring: same (n, m, bandwidth), so
        # only the fingerprint tripwire can catch it.
        net.graph.remove_edge(0, 1)
        net.graph.add_edge(0, 4)
        with pytest.raises(StalePreparedNetworkError):
            prepare_network(net, seed=0)
        invalidate_prepared()

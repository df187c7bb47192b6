"""CSR adjacency arrays, built once per network (``Network.csr``)."""

import networkx as nx
import numpy as np
import pytest

from repro.congest import topologies
from repro.congest import csr as csr_module
from repro.congest.csr import build_csr
from repro.congest.network import Network
from repro.core import Operation
from repro.core.framework import (
    DistributedInput,
    FrameworkConfig,
    prepare_network,
    run_framework,
)
from repro.core.semigroup import sum_semigroup
from repro.sched import CoalescingScheduler


def _assert_same_arrays(a, b):
    for name in ("indptr", "indices", "src", "rev"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


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


class TestNetworkCSR:
    """Each network builds its CSR once; equal topologies build equal ones."""

    def test_equal_twin_has_equal_fingerprint_and_csr(self):
        net, twin = topologies.cycle(9), topologies.cycle(9)
        assert twin is not net
        assert net.topology_fingerprint() == twin.topology_fingerprint()
        assert net.csr is not twin.csr  # one build per object
        _assert_same_arrays(net.csr, twin.csr)
        assert net.csr.fingerprint == twin.csr.fingerprint

    def test_same_shape_different_topology_not_conflated(self):
        ring = topologies.cycle(6)
        # Same (n, m, bandwidth) as a 6-cycle, different edge set: each
        # topology has its own fingerprint and its own arrays.
        tadpole = Network.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]
        )
        assert (ring.n, ring.m, ring.bandwidth) == (
            tadpole.n, tadpole.m, tadpole.bandwidth
        )
        assert ring.topology_fingerprint() != tadpole.topology_fingerprint()
        b = tadpole.csr
        assert tuple(b.indices[b.indptr[2]:b.indptr[3]]) == (0, 1, 3)
        assert not np.array_equal(ring.csr.indices, b.indices)

    def test_complete_network_analytic_build_matches_nx_build(self):
        fast = topologies.complete(12)
        # The nx-built K_12 fingerprints identically, and its generic
        # build gives the analytic build's arrays.
        ref = Network(nx.complete_graph(12))
        assert fast.topology_fingerprint() == ref.topology_fingerprint()
        _assert_same_arrays(fast.csr, ref.csr)
        assert fast.csr.fingerprint == ref.csr.fingerprint


class TestModelKeying:
    """The communication model is part of the fingerprint the CSR carries."""

    def test_same_topology_different_model_not_conflated(self):
        g = nx.path_graph(6)
        congest = Network(g)
        clique = Network(g, comm_model="congest-clique")
        # Same edges, but the fingerprints differ: a CONGEST-CLIQUE
        # network must never share setup or memo entries with a CONGEST
        # one, and its CSR says which model it was built for.
        assert congest.topology_fingerprint() != clique.topology_fingerprint()
        assert clique.csr.fingerprint == clique.topology_fingerprint()
        assert congest.csr.fingerprint == congest.topology_fingerprint()
        _assert_same_arrays(congest.csr, clique.csr)


class TestOncePerObject:
    def test_every_layer_reads_one_fingerprint_and_one_csr(
        self, monkeypatch, cold_setup
    ):
        net = topologies.grid(3, 4)
        hashes, builds = [], []
        sorted_edges = Network._sorted_edges
        build = csr_module.build_csr

        def counting_sorted_edges(self):
            hashes.append(self)
            return sorted_edges(self)

        def counting_build(network):
            builds.append(network)
            return build(network)

        monkeypatch.setattr(Network, "_sorted_edges", counting_sorted_edges)
        monkeypatch.setattr(csr_module, "build_csr", counting_build)

        vectors = {v: [(v + j) % 4 for j in range(6)] for v in net.nodes()}
        config = FrameworkConfig(
            parallelism=2,
            dist_input=DistributedInput(vectors, sum_semigroup(64)),
            mode="engine",
            seed=3,
        )
        prepare_network(net, seed=3)
        run_framework(
            net, lambda oracle, _rng: oracle.query_batch([0, 5]), config=config
        )
        sched = CoalescingScheduler(net, config)
        ticket = sched.submit(Operation.query("c", [1, 2]))
        sched.flush()
        assert sched.take(ticket) == [
            sum(vectors[v][j] for v in net.nodes()) for j in (1, 2)
        ]
        assert net.eccentricities[0] == net.diameter == 5
        assert hashes == [net]
        assert builds == [net]
        assert net.csr is net.csr


class TestPreparedNetworkIntegration:
    def test_prepare_leaves_csr_cached(self, cold_setup):
        net = topologies.grid(3, 4)
        assert "csr" not in vars(net)
        prepare_network(net, seed=0)
        # Setup's own election and BFS ran on the bulk loop, which left
        # the network's CSR on the object.
        csr = vars(net)["csr"]
        assert net.csr is csr
        assert csr.fingerprint == net.topology_fingerprint()

"""CompleteNetwork must be observationally identical to the nx-built K_n."""

import networkx as nx
import numpy as np
import pytest

from repro.congest import topologies
from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.csr import build_csr
from repro.congest.engine import Engine
from repro.congest.network import CompleteNetwork, Network

from .reference_loop import PerNodeBFS, reference_run


def _reference(n, **kwargs):
    return Network(nx.complete_graph(n), **kwargs)


class TestEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_fingerprint_identical(self, n):
        assert (
            CompleteNetwork(n).topology_fingerprint()
            == _reference(n).topology_fingerprint()
        )

    @pytest.mark.parametrize("n", [2, 5, 17])
    def test_adjacency_identical(self, n):
        fast, ref = CompleteNetwork(n), _reference(n)
        assert fast.n == ref.n and fast.m == ref.m
        for v in range(n):
            assert fast.neighbors(v) == ref.neighbors(v)
            assert fast.degree(v) == ref.degree(v)
        assert fast.eccentricities == ref.eccentricities
        assert fast.distances_from(0) == ref.distances_from(0)
        assert fast.diameter == ref.diameter

    def test_has_edge_and_bounds(self):
        net = CompleteNetwork(4)
        assert net.has_edge(0, 3) and not net.has_edge(2, 2)
        with pytest.raises(KeyError):
            net.neighbors(4)

    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    def test_csr_identical(self, n):
        a, b = build_csr(CompleteNetwork(n)), build_csr(_reference(n))
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.rev, b.rev)
        assert a.fingerprint == b.fingerprint

    def test_single_node_complete_graph(self):
        net = CompleteNetwork(1)
        assert net.m == 0
        assert net.neighbors(0) == ()
        assert net.eccentricities == {0: 0}

    def test_model_plumbs_through(self):
        net = CompleteNetwork(6, comm_model="congest-clique")
        assert net.model.name == "congest-clique"
        assert net.peers(0) == (1, 2, 3, 4, 5)
        assert (
            net.topology_fingerprint()
            == _reference(6, comm_model="congest-clique").topology_fingerprint()
        )

    def test_topologies_complete_returns_fast_path(self):
        net = topologies.complete(5)
        assert isinstance(net, CompleteNetwork)
        assert net.is_complete

    # On each loop: the textbook one, which steps every node every round,
    # the engine's per-node active-set loop, and its bulk loop.
    @pytest.mark.parametrize("program,run", [
        pytest.param(BFSEchoProgram, reference_run, id="dense"),
        pytest.param(PerNodeBFS, Engine.run, id="active"),
        pytest.param(BFSEchoProgram, Engine.run, id="vectorized"),
    ])
    def test_engine_runs_bit_identical(self, program, run):
        n = 9
        fast, ref = CompleteNetwork(n), _reference(n)
        runs = []
        for net in (fast, ref):
            programs = {v: program(v, 0) for v in net.nodes()}
            runs.append(run(Engine(net, programs, seed=3)))
        a, b = runs
        assert a.rounds == b.rounds
        assert a.outputs == b.outputs
        assert a.stats == b.stats

    def test_graph_property_is_lazy_but_correct(self):
        net = CompleteNetwork(7)
        # Touch adjacency first; nx graph must still agree when forced.
        assert net.neighbors(3) == (0, 1, 2, 4, 5, 6)
        assert sorted(net.graph.neighbors(3)) == [0, 1, 2, 4, 5, 6]
        assert net.graph.number_of_edges() == net.m

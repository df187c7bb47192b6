"""Unit tests for the Network topology wrapper."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.congest import topologies
from repro.congest.errors import CongestError
from repro.congest.models import CongestModel
from repro.congest.network import Network


class TestConstruction:
    def test_rejects_empty_graph(self):
        with pytest.raises(CongestError):
            Network(nx.Graph())

    def test_rejects_disconnected(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(CongestError):
            Network(g)

    def test_rejects_non_compact_labels(self):
        g = nx.Graph([(1, 2)])
        with pytest.raises(CongestError):
            Network(g)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(CongestError):
            Network(nx.path_graph(3), comm_model=CongestModel(bandwidth=0))

    def test_single_node(self):
        net = Network(nx.Graph([(0, 0)]).subgraph([0])) if False else None
        g = nx.Graph()
        g.add_node(0)
        net = Network(g)
        assert net.n == 1
        assert net.diameter == 0

    def test_from_edges_compacts_labels(self):
        net = Network.from_edges([(10, 20), (20, 30)])
        assert net.n == 3
        assert net.has_edge(0, 1)
        assert net.has_edge(1, 2)

    def test_default_bandwidth_scales_with_log_n(self):
        small = topologies.path(4)
        large = topologies.path(400)
        assert large.bandwidth > small.bandwidth


class TestMetrics:
    def test_path_diameter(self):
        assert topologies.path(10).diameter == 9

    def test_path_radius(self):
        assert topologies.path(9).radius == 4

    def test_grid_diameter(self):
        assert topologies.grid(4, 5).diameter == 7

    def test_star_eccentricities(self):
        net = topologies.star(6)
        eccs = net.eccentricities
        assert eccs[0] == 1
        assert all(eccs[v] == 2 for v in range(1, 6))

    def test_average_eccentricity(self):
        net = topologies.star(5)
        assert net.average_eccentricity == pytest.approx((1 + 2 * 4) / 5)

    def test_distances_from_match_networkx(self):
        net = topologies.grid(3, 4)
        assert net.distances_from(0) == dict(
            nx.single_source_shortest_path_length(net.graph, 0)
        )

    @pytest.mark.parametrize("source", [-1, 12])
    def test_distances_from_out_of_range_source_raises(self, source):
        # The same error as CompleteNetwork's closed form, not networkx's.
        for net in (topologies.grid(3, 4), topologies.complete(12)):
            with pytest.raises(CongestError, match="out of range"):
                net.distances_from(source)

    def test_neighbors_sorted(self):
        net = topologies.petersen()
        for v in net.nodes():
            assert list(net.neighbors(v)) == sorted(net.neighbors(v))

    def test_degree(self):
        net = topologies.star(7)
        assert net.degree(0) == 6
        assert net.degree(3) == 1


class TestDependencies:
    def test_election_and_ground_truth_leave_scipy_unloaded(self):
        # scipy is a test-only dependency: loading its sparse graph
        # routines would add tens of MiB to every process that elects a
        # leader or reads a diameter.
        code = (
            "import sys; "
            "from repro.congest import topologies; "
            "from repro.congest.algorithms.leader import elect_leader; "
            "net = topologies.diameter_controlled(300, 6, seed=0); "
            "elect_leader(net, seed=0); net.eccentricities; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestWords:
    def test_one_word_for_small_payload(self):
        net = topologies.path(16)
        assert net.words(3) == 1

    def test_words_round_up(self):
        net = topologies.path(16)
        assert net.words(net.bandwidth + 1) == 2

    def test_words_minimum_one(self):
        net = topologies.path(16)
        assert net.words(0) == 1

    def test_log_n_bits(self):
        assert topologies.path(16).log_n_bits == 4
        assert topologies.path(17).log_n_bits == 5

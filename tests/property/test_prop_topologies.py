"""Property tests: every topology generator yields a valid CONGEST network."""

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.congest import topologies
from repro.congest.network import _ECC_GATHER_BYTES, Network

FAST = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _check_valid(net):
    assert set(net.graph.nodes()) == set(range(net.n))
    assert nx.is_connected(net.graph)
    assert net.bandwidth >= 1
    for v in net.nodes():
        assert all(net.has_edge(v, u) for u in net.neighbors(v))


class TestGeneratorsValid:
    @FAST
    @given(st.integers(min_value=1, max_value=40))
    def test_path(self, n):
        _check_valid(topologies.path(n))

    @FAST
    @given(st.integers(min_value=3, max_value=40))
    def test_cycle(self, n):
        net = topologies.cycle(n)
        _check_valid(net)
        assert net.m == n

    @FAST
    @given(st.integers(min_value=2, max_value=40))
    def test_star(self, n):
        net = topologies.star(n)
        _check_valid(net)
        assert net.diameter <= 2

    @FAST
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    def test_grid(self, rows, cols):
        net = topologies.grid(rows, cols)
        _check_valid(net)
        assert net.n == rows * cols
        assert net.diameter == rows + cols - 2

    @FAST
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=8))
    def test_two_stars(self, a, b):
        net = topologies.two_stars(a, b)
        _check_valid(net)
        assert net.n == a + b + 2

    @FAST
    @given(st.integers(min_value=1, max_value=30))
    def test_path_with_endpoints(self, d):
        net = topologies.path_with_endpoints(d)
        _check_valid(net)
        assert net.distances_from(0)[d] == d

    @FAST
    @given(st.integers(min_value=2, max_value=25), st.data())
    def test_diameter_controlled(self, d, data):
        n = data.draw(st.integers(min_value=d + 1, max_value=3 * d + 20))
        net = topologies.diameter_controlled(n, d, seed=data.draw(
            st.integers(min_value=0, max_value=100)))
        _check_valid(net)
        assert net.n == n
        assert d - 1 <= net.diameter <= d + 4

    @FAST
    @given(st.integers(min_value=3, max_value=10), st.data())
    def test_planted_cycle(self, g, data):
        n = data.draw(st.integers(min_value=g, max_value=g + 30))
        net = topologies.planted_cycle(n, g, seed=data.draw(
            st.integers(min_value=0, max_value=100)))
        _check_valid(net)
        from repro.analysis.graphtruth import girth

        assert girth(net.graph) == g

    @FAST
    @given(st.integers(min_value=3, max_value=8),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=5))
    def test_known_girth(self, g, copies, tail):
        net = topologies.known_girth(g, copies=copies, tail=tail)
        _check_valid(net)
        from repro.analysis.graphtruth import girth

        assert girth(net.graph) == g
        assert net.n == g * copies + tail


def _ground_truth_graph(kind, n, seed):
    """A graph of one family with about n nodes (exactly n for paths,
    trees and, from n = 7 up, diameter-controlled graphs)."""
    if kind == "path":
        return topologies.path(n)
    if kind == "cycle":
        return topologies.cycle(max(n, 3))
    if kind == "tree":
        rng = np.random.default_rng(seed)
        g = nx.Graph()
        g.add_node(0)
        g.add_edges_from((int(rng.integers(0, v)), v) for v in range(1, n))
        return Network(g)
    if kind == "grid":
        return topologies.grid(1 + n % 9, 1 + n // 9)
    return topologies.diameter_controlled(max(n, 7), 6, seed=seed)


class TestGroundTruth:
    @FAST
    @given(
        kind=st.sampled_from(
            ["path", "cycle", "tree", "grid", "diameter_controlled"]
        ),
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=100),
    )
    @example(kind="diameter_controlled", n=2_100, seed=0)
    def test_eccentricities_match_networkx(self, kind, n, seed):
        net = _ground_truth_graph(kind, n, seed)
        expected = nx.eccentricity(net.graph) if net.n > 1 else {0: 0}
        assert net.eccentricities == expected

    def test_example_spans_more_than_one_source_chunk(self):
        # The explicit example above must exercise the chunk boundary:
        # a chunk holds 64 sources per word, sized from the edge count.
        net = topologies.diameter_controlled(2_100, 6, seed=0)
        chunk = 64 * (_ECC_GATHER_BYTES // (8 * 2 * net.m))
        assert chunk < net.n < 2 * chunk


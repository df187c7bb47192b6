"""Property-based tests for the CONGEST protocols on random topologies."""

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.algorithms.aggregate import pipelined_upcast
from repro.congest.algorithms.bfs import bfs_with_echo
from repro.congest.algorithms.leader import elect_leader
from repro.congest.algorithms.multibfs import multi_source_bfs
from repro.congest.network import Network

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def connected_graphs(draw, max_nodes=16):
    """A random connected graph: a random tree plus random extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        w = draw(st.integers(min_value=0, max_value=n - 1))
        if u != w:
            edges.add((min(u, w), max(u, w)))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return Network(g)


class TestBFSProperties:
    @SLOW
    @given(connected_graphs(), st.data())
    def test_bfs_distances_always_exact(self, net, data):
        root = data.draw(st.integers(min_value=0, max_value=net.n - 1))
        result = bfs_with_echo(net, root)
        assert result.dist == net.distances_from(root)
        assert result.eccentricity == net.eccentricities[root]

    @SLOW
    @given(connected_graphs())
    def test_bfs_rounds_linear_in_ecc(self, net):
        result = bfs_with_echo(net, 0)
        assert result.rounds <= 3 * max(net.eccentricities[0], 1) + 4

    @SLOW
    @given(connected_graphs())
    def test_parent_edges_exist(self, net):
        result = bfs_with_echo(net, 0)
        for v, p in result.parent.items():
            if p is not None:
                assert net.has_edge(v, p)


class TestLeaderProperties:
    @SLOW
    @given(connected_graphs())
    def test_leader_is_always_max_id(self, net):
        assert elect_leader(net, seed=0).leader == net.n - 1

    @SLOW
    @given(connected_graphs())
    def test_rounds_are_winner_eccentricity_plus_one(self, net):
        # The max id reaches a node at distance d in round d; the last
        # round delivers the redundant echo of the final improvement.
        winner_ecc = nx.eccentricity(net.graph, v=net.n - 1)
        assert elect_leader(net, seed=0).rounds == winner_ecc + 1


class TestMultiBFSProperties:
    @SLOW
    @given(connected_graphs(), st.data())
    def test_multi_bfs_exact_for_random_sources(self, net, data):
        count = data.draw(st.integers(min_value=1, max_value=min(4, net.n)))
        sources = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=net.n - 1),
                min_size=count, max_size=count, unique=True,
            )
        )
        result = multi_source_bfs(net, sources, seed=1)
        for s in result.sources:
            assert result.dist[s] == net.distances_from(s)

    @SLOW
    @given(connected_graphs(), st.data())
    def test_multi_bfs_round_bound(self, net, data):
        count = data.draw(st.integers(min_value=1, max_value=min(5, net.n)))
        sources = list(range(count))
        result = multi_source_bfs(net, sources, seed=2)
        assert result.rounds <= count + net.diameter + 3


class TestUpcastProperties:
    @SLOW
    @given(connected_graphs(), st.data())
    def test_upcast_equals_central_sum(self, net, data):
        t = data.draw(st.integers(min_value=1, max_value=4))
        values = {
            v: [
                data.draw(st.integers(min_value=0, max_value=50))
                for _ in range(t)
            ]
            for v in net.nodes()
        }
        tree = bfs_with_echo(net, 0)
        # Domain sized to the true maximum so the payload always fits the
        # (small-n) bandwidth: 50·n ≤ 800 → ≤ 10 bits per value.
        combined, _ = pipelined_upcast(
            net, tree, values, combine=lambda a, b: a + b, domain=50 * net.n + 1
        )
        for i in range(t):
            assert combined[i] == sum(values[v][i] for v in net.nodes())

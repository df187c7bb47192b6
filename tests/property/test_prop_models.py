"""Property: the default communication model is a bit-identical no-op.

PR 8 threads a :class:`~repro.congest.models.CommModel` through the
network, engine, CSR cache, and observability spine.  The contract that
makes the refactor safe is that the *default* ``CongestModel()`` changes
nothing: over random topologies, seeds, and round loops, a network built
with an explicit default model must reproduce the plain pre-PR-8 network
exactly — rounds, outputs, traffic statistics, fingerprints, and
observability event streams, with no ``model`` tag anywhere.

A second suite pins the CONGEST-CLIQUE admission/routing invariants over
random physical graphs: over-budget messages are rejected for every
pair, and delivered bits scale with the physical hop count.
"""

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.engine import Engine
from repro.congest.models import CongestModel
from repro.congest.network import Network
from repro.obs import MemorySink, Recorder, install

from ..congest.reference_loop import PerNodeBFS, reference_run

_SETTINGS = dict(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _make_network_pair(draw):
    """The same random topology, built plain and with an explicit default."""
    kind = draw(st.sampled_from(["grid", "cycle", "star", "tree", "complete"]))
    if kind == "grid":
        r, c = draw(st.integers(2, 5)), draw(st.integers(2, 5))
        g = nx.grid_2d_graph(r, c)
        mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
        g = nx.relabel_nodes(g, mapping)
    elif kind == "cycle":
        g = nx.cycle_graph(draw(st.integers(3, 20)))
    elif kind == "star":
        g = nx.star_graph(draw(st.integers(2, 15)))
    elif kind == "tree":
        g = nx.balanced_tree(2, draw(st.integers(1, 3)))
    else:
        g = nx.complete_graph(draw(st.integers(2, 12)))
    return Network(g), Network(g, comm_model=CongestModel())


#: A BFS flood on each loop: the engine's bulk loop, its per-node loop,
#: and the textbook loop.
LOOPS = {
    "bulk": (BFSEchoProgram, Engine.run),
    "per-node": (PerNodeBFS, Engine.run),
    "textbook": (BFSEchoProgram, reference_run),
}


def _run(net, seed, loop):
    program, run = LOOPS[loop]
    sink = MemorySink()
    # Built inside the block: an engine takes the ambient recorder.
    with install(Recorder([sink])):
        engine = Engine(net, {v: program(v, 0) for v in net.nodes()}, seed=seed)
        result = run(engine)
    return result, sink, engine


class TestDefaultModelBitIdentity:
    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_engine_identical_across_schedules(self, data):
        plain, explicit = _make_network_pair(data.draw)
        seed = data.draw(st.integers(0, 100))
        loop = data.draw(st.sampled_from(sorted(LOOPS)))
        a, sink_a, _ = _run(plain, seed, loop)
        b, sink_b, _ = _run(explicit, seed, loop)
        assert a.rounds == b.rounds
        assert a.outputs == b.outputs
        assert a.stats == b.stats
        assert sink_a.events and sink_a.events == sink_b.events
        # The default model never tags events.
        assert all(
            getattr(e, "model", "") == ""
            for e in sink_a.events + sink_b.events
        )

    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_fingerprints_and_metadata_identical(self, data):
        plain, explicit = _make_network_pair(data.draw)
        assert (
            plain.topology_fingerprint() == explicit.topology_fingerprint()
        )
        assert plain.bandwidth == explicit.bandwidth
        for v in plain.nodes():
            assert plain.peers(v) is plain.neighbors(v)
            assert explicit.peers(v) == plain.peers(v)

    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_vectorized_stays_on_fast_path(self, data):
        _, explicit = _make_network_pair(data.draw)
        seed = data.draw(st.integers(0, 100))
        _, _, engine = _run(explicit, seed, "bulk")
        assert engine.vectorized_fallback is None


def _random_connected(draw):
    n = draw(st.integers(3, 14))
    g = nx.cycle_graph(n)
    extra = draw(st.integers(0, 3))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            g.add_edge(u, v)
    return g


class TestCliqueAdmissionProperties:
    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_every_distinct_pair_admitted_within_budget(self, data):
        net = Network(_random_connected(data.draw), comm_model="congest-clique")
        src = data.draw(st.integers(0, net.n - 1))
        dst = data.draw(
            st.integers(0, net.n - 1).filter(lambda v: v != src)
        )
        net.admit(src, dst, net.bandwidth)  # never raises
        assert dst in net.peers(src)

    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_over_budget_rejected_for_every_pair(self, data):
        import pytest

        from repro.congest.errors import MessageTooLargeError

        net = Network(_random_connected(data.draw), comm_model="congest-clique")
        src = data.draw(st.integers(0, net.n - 1))
        dst = data.draw(
            st.integers(0, net.n - 1).filter(lambda v: v != src)
        )
        with pytest.raises(MessageTooLargeError):
            net.admit(src, dst, net.bandwidth + 1)

    @settings(**_SETTINGS)
    @given(data=st.data())
    def test_router_charges_hops_times_bits(self, data):
        net = Network(_random_connected(data.draw), comm_model="congest-clique")
        router = net.model.router(net)
        src = data.draw(st.integers(0, net.n - 1))
        dst = data.draw(
            st.integers(0, net.n - 1).filter(lambda v: v != src)
        )
        hops = router.hops(src, dst)
        assert hops >= 1
        assert router.hops(dst, src) == hops
        truth = net.distances_from(src)[dst]
        assert hops == truth

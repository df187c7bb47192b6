"""Unit tests for the PR 8 communication-model layer."""

import networkx as nx
import pytest

from repro.congest import topologies
from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.encoding import Field
from repro.congest.engine import Engine, run_program
from repro.congest.errors import (
    BandwidthExceeded,
    CongestError,
    MessageTooLargeError,
    NotANeighbor,
)
from repro.congest.messages import Inbox
from repro.congest.models import (
    DEFAULT_MODEL,
    CliqueRouter,
    CongestCliqueModel,
    CongestModel,
    LocalModel,
    default_bandwidth,
    resolve_model,
)
from repro.congest.network import Network
from repro.congest.program import NodeProgram


class TestResolveModel:
    def test_none_is_default_congest(self):
        assert resolve_model(None) == CongestModel()
        assert resolve_model(None) is DEFAULT_MODEL

    def test_names_resolve(self):
        assert resolve_model("congest") == CongestModel()
        assert resolve_model("congest-clique") == CongestCliqueModel()
        assert resolve_model("local") == LocalModel()

    def test_instances_pass_through(self):
        model = CongestModel(bandwidth=7)
        assert resolve_model(model) is model

    def test_unknown_name_rejected(self):
        with pytest.raises(CongestError, match="unknown communication model"):
            resolve_model("token-ring")

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(CongestError, match="bandwidth"):
            CongestModel(bandwidth=0)
        with pytest.raises(CongestError, match="bandwidth"):
            CongestCliqueModel(bandwidth=-3)


class TestPeersAndBandwidth:
    def test_congest_peers_are_physical_neighbors(self):
        net = topologies.cycle(6)
        for v in net.nodes():
            # The identical tuple object: the default model must not
            # perturb anything the engine caches or fingerprints.
            assert net.peers(v) is net.neighbors(v)

    def test_clique_peers_are_everyone_else(self):
        net = Network(nx.path_graph(5), comm_model="congest-clique")
        assert net.peers(2) == (0, 1, 3, 4)
        assert net.peers(0) == (1, 2, 3, 4)

    def test_local_peers_are_physical_with_no_cap(self):
        net = Network(nx.path_graph(4), comm_model="local")
        assert net.peers(1) == net.neighbors(1)
        assert net.bandwidth is None
        assert net.words(10 ** 9) == 1

    def test_default_bandwidth_formula(self):
        net = topologies.path(100)
        assert net.bandwidth == default_bandwidth(100)
        clique = Network(nx.path_graph(100), comm_model="congest-clique")
        assert clique.bandwidth == default_bandwidth(100)

    def test_explicit_bandwidth_override(self):
        net = Network(
            nx.path_graph(10), comm_model=CongestCliqueModel(bandwidth=5)
        )
        assert net.bandwidth == 5


class TestAdmission:
    def test_congest_rejects_non_neighbor(self):
        net = topologies.path(5)
        with pytest.raises(NotANeighbor):
            net.admit(0, 4, 3)

    def test_clique_admits_any_distinct_pair(self):
        net = Network(nx.path_graph(5), comm_model="congest-clique")
        net.admit(0, 4, net.bandwidth)  # does not raise

    def test_clique_rejects_over_budget_pair(self):
        net = Network(nx.path_graph(5), comm_model="congest-clique")
        with pytest.raises(MessageTooLargeError) as exc:
            net.admit(0, 4, net.bandwidth + 1)
        assert exc.value.model == "congest-clique"
        # Subclassing keeps every pre-PR-8 except-clause working.
        assert isinstance(exc.value, BandwidthExceeded)

    def test_clique_rejects_self_and_out_of_range(self):
        net = Network(nx.path_graph(5), comm_model="congest-clique")
        with pytest.raises(NotANeighbor):
            net.admit(2, 2, 1)
        with pytest.raises(NotANeighbor):
            net.admit(0, 5, 1)

    def test_local_admits_unbounded_messages(self):
        net = Network(nx.path_graph(3), comm_model="local")
        net.admit(0, 1, 10 ** 9)  # does not raise


class _SendOnce(NodeProgram):
    """Round 1: ``src`` sends one Field to ``dst``; everyone else idles."""

    def __init__(self, node, src, dst, payload):
        self.node, self.src, self.dst, self.payload = node, src, dst, payload

    def on_start(self, ctx):
        if self.node == self.src:
            ctx.send(self.dst, self.payload)

    def on_round(self, ctx, inbox: Inbox):
        ctx.halt()


def _send_once(net, src, dst, payload):
    programs = {
        v: _SendOnce(v, src, dst, payload) for v in range(net.n)
    }
    return run_program(net, programs, seed=0, max_rounds=4)


class TestCliqueRouting:
    def test_hops_cached_and_symmetric(self):
        net = Network(nx.path_graph(5), comm_model="congest-clique")
        router = net.model.router(net)
        assert isinstance(router, CliqueRouter)
        assert router.hops(0, 4) == 4
        assert router.hops(4, 0) == 4
        assert router.hops(1, 2) == 1

    def test_distant_pair_charged_for_physical_route(self):
        """src→dst over h physical hops costs h× the payload bits."""
        path = Network(nx.path_graph(5), comm_model="congest-clique")
        direct = Network(nx.path_graph(5))
        payload = Field(3, domain=5)
        clique_run = _send_once(path, 0, 4, payload)
        congest_run = _send_once(direct, 0, 1, payload)
        base_bits = congest_run.stats.bits
        assert base_bits > 0
        # 0→4 on a path is 4 hops: 1× delivered + 3× relayed.
        assert clique_run.stats.bits == 4 * base_bits

    def test_adjacent_pair_charged_once(self):
        path = Network(nx.path_graph(5), comm_model="congest-clique")
        payload = Field(3, domain=5)
        run = _send_once(path, 1, 2, payload)
        assert run.stats.bits == payload.bits

    def test_complete_physical_graph_charges_nothing_extra(self):
        clique = topologies.clique(8)
        direct = topologies.complete(8)
        payload = Field(5, domain=8)
        assert (
            _send_once(clique, 0, 7, payload).stats.bits
            == _send_once(direct, 0, 7, payload).stats.bits
        )


class TestModelFingerprints:
    def test_default_model_leaves_fingerprint_unchanged(self):
        g = nx.path_graph(6)
        explicit = Network(g, comm_model=CongestModel())
        implicit = Network(g)
        assert (
            explicit.topology_fingerprint() == implicit.topology_fingerprint()
        )
        assert "model=" not in implicit.topology_fingerprint()

    def test_non_default_models_fingerprint_distinctly(self):
        g = nx.path_graph(6)
        prints = {
            Network(g, comm_model=name).topology_fingerprint()
            for name in ("congest-clique", "local")
        }
        prints.add(Network(g).topology_fingerprint())
        assert len(prints) == 3

    def test_engine_runs_under_every_model(self):
        for name in ("congest", "congest-clique", "local"):
            net = Network(nx.cycle_graph(6), comm_model=name)
            programs = {v: BFSEchoProgram(v, 0) for v in net.nodes()}
            run = Engine(net, programs, seed=0).run()
            assert run.outputs[5] is not None

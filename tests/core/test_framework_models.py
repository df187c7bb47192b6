"""A framework run takes its network's model, and tags its charges with it."""

import networkx as nx

from repro.congest.network import Network
from repro.core.framework import (
    DistributedInput,
    FrameworkConfig,
    run_framework,
)
from repro.core.semigroup import sum_semigroup
from repro.obs import MemorySink, Recorder, install


def _grid(comm_model=None):
    g = nx.grid_2d_graph(4, 5)
    mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
    return Network(nx.relabel_nodes(g, mapping), comm_model=comm_model)


def _input(net):
    vectors = {v: [v % 3, (v + 1) % 3] for v in net.nodes()}
    return DistributedInput(vectors, sum_semigroup(net.n))


def _algorithm(oracle, rng):
    return oracle.query_batch([0, 1])


class TestModelDeclarationCheck:
    def test_undeclared_config_accepts_any_network(self):
        net = _grid(comm_model="local")
        cfg = FrameworkConfig(parallelism=2, dist_input=_input(net), seed=1)
        run = run_framework(net, _algorithm, config=cfg)
        assert run.result is not None


class TestLedgerModelTag:
    def test_default_model_charges_untagged(self):
        net = _grid()
        cfg = FrameworkConfig(parallelism=2, dist_input=_input(net), seed=1)
        sink = MemorySink()
        with install(Recorder([sink])):
            run_framework(net, _algorithm, config=cfg)
        charges = sink.events_of_kind("charge")
        assert charges
        assert all(e.model == "" for e in charges)

    def test_non_default_model_tags_charges(self):
        net = _grid(comm_model="local")
        cfg = FrameworkConfig(parallelism=2, dist_input=_input(net), seed=1)
        sink = MemorySink()
        with install(Recorder([sink])):
            run_framework(net, _algorithm, config=cfg)
        charges = sink.events_of_kind("charge")
        assert charges
        assert all(e.model == "local" for e in charges)

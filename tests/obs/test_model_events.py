"""PR 8: the optional ``model`` tag on round/charge events and sinks."""

import json

from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.engine import Engine
from repro.congest.network import Network
from repro.obs import (
    JSONLSink,
    MemorySink,
    MetricsSink,
    Recorder,
    install,
)
from repro.obs.events import ChargeEvent, RoundEvent
from repro.obs.jsonl import to_json, validate_jsonl


def _flood(comm_model, sinks):
    import networkx as nx

    net = Network(nx.cycle_graph(6), comm_model=comm_model)
    programs = {v: BFSEchoProgram(v, 0) for v in net.nodes()}
    with install(Recorder(sinks)):
        Engine(net, programs, seed=0).run()


class TestEventSerialization:
    def test_default_model_omitted_from_json(self):
        event = RoundEvent(round_no=1, messages=2, bits=10)
        assert "model" not in to_json(event)
        charge = ChargeEvent(phase="setup", rounds=3)
        assert "model" not in to_json(charge)

    def test_non_default_model_serialized(self):
        event = RoundEvent(
            round_no=1, messages=2, bits=10, model="congest-clique"
        )
        assert to_json(event)["model"] == "congest-clique"
        charge = ChargeEvent(phase="setup", rounds=3, model="local")
        assert to_json(charge)["model"] == "local"

    def test_jsonl_stream_validates_with_model_field(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _flood("congest-clique", [JSONLSink(path)])
        counts = validate_jsonl(path)
        assert counts["round"] > 0
        with open(path) as fh:
            rounds = [
                record for record in map(json.loads, fh)
                if record["type"] == "round"
            ]
        assert all(r["model"] == "congest-clique" for r in rounds)

    def test_default_stream_has_no_model_keys(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _flood(None, [JSONLSink(path)])
        validate_jsonl(path)
        with open(path) as fh:
            assert all("model" not in json.loads(line) for line in fh)


class TestMetricsSinkModelCounters:
    def test_rounds_counted_per_model(self):
        sink = MemorySink()
        metrics = MetricsSink()
        _flood("congest-clique", [sink, metrics])
        rounds = len(sink.events_of_kind("round"))
        assert metrics.rounds_by_model == {"congest-clique": rounds}
        assert metrics.summary()["rounds_by_model"] == {
            "congest-clique": rounds
        }

    def test_default_model_leaves_counters_empty(self):
        # The default model is untagged, so per-model counters stay
        # empty and a default run's sink state is byte-stable vs PR 7.
        metrics = MetricsSink()
        _flood(None, [metrics])
        assert metrics.rounds_by_model == {}
        assert metrics.charged_by_model == {}

    def test_from_state_tolerates_pre_pr8_states(self):
        metrics = MetricsSink()
        _flood(None, [metrics])
        state = metrics.to_state()
        state.pop("rounds_by_model")
        state.pop("charged_by_model")
        restored = MetricsSink.from_state(state)
        assert restored.rounds_by_model == {}
        assert restored.charged_by_model == {}

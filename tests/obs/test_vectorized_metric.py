"""The ``vectorized_rounds`` metric: counting, old snapshots, summary (PR 7)."""

from repro.congest import topologies
from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.engine import Engine
from repro.obs import MetricsSink, Recorder, install
from repro.obs.events import RoundEvent

from ..congest.reference_loop import PerNodeBFS


def _run_metrics(program) -> MetricsSink:
    """Metrics of a BFS flood: ``BFSEchoProgram`` runs on the bulk loop,
    its subclass ``PerNodeBFS`` per node."""
    net = topologies.grid(3, 4)
    sink = MetricsSink()
    with install(Recorder([sink])):
        Engine(
            net, {v: program(v, 0) for v in net.nodes()}, seed=0
        ).run()
    return sink


class TestVectorizedRoundsCounter:
    def test_counts_only_vectorized_mode_rounds(self):
        sink = MetricsSink()
        sink.handle(RoundEvent(round_no=1, messages=2, bits=8))
        sink.handle(RoundEvent(round_no=2, messages=2, bits=8,
                               mode="vectorized"))
        sink.handle(RoundEvent(round_no=3, messages=1, bits=4,
                               mode="vectorized"))
        assert sink.engine_rounds == 3
        assert sink.vectorized_rounds == 2

    def test_engine_runs_report_their_mode(self):
        vec = _run_metrics(BFSEchoProgram)
        per_node = _run_metrics(PerNodeBFS)
        assert vec.engine_rounds == per_node.engine_rounds
        assert vec.vectorized_rounds == vec.engine_rounds
        assert per_node.vectorized_rounds == 0
        # The advisory mode tag must not perturb the traffic counters.
        assert (vec.messages, vec.bits) == (per_node.messages, per_node.bits)

    def test_from_state_tolerates_pre_vectorization_payloads(self):
        state = _run_metrics(PerNodeBFS).to_state()
        del state["vectorized_rounds"]  # a payload written before PR 7
        assert MetricsSink.from_state(state).vectorized_rounds == 0

    def test_in_summary(self):
        sink = _run_metrics(BFSEchoProgram)
        assert sink.summary()["vectorized_rounds"] == sink.vectorized_rounds
        assert sink.summary()["vectorized_rounds"] > 0

"""Measuring communication across the lower-bound cut.

Lemmas 11/13 argue: any CONGEST protocol on the path gadget induces a
two-party protocol whose communication is what crosses a single edge.
With the tracing engine we can *measure* that crossing traffic directly:
the classical streaming baseline must push Ω(k) bits over every path
edge, while the quantum framework's engine-mode traffic across the cut
scales with the number of batches, not with k.
"""

import numpy as np

from repro.congest import topologies
from repro.congest.algorithms.bfs import BFSEchoProgram
from repro.congest.tracing import run_traced
from repro.core.framework import DistributedInput
from repro.core.semigroup import sum_semigroup


def _streaming_cut_bits(distance, k, seed):
    """Run the engine-mode streaming protocol under tracing; return the
    bits crossing the middle edge."""
    from repro.congest.algorithms.aggregate import UpcastProgram
    from repro.congest.algorithms.bfs import bfs_with_echo

    net = topologies.path_with_endpoints(distance)
    rng = np.random.default_rng(seed)
    vectors = {v: [0] * k for v in net.nodes()}
    vectors[0] = [int(b) for b in rng.integers(0, 2, size=k)]
    vectors[distance] = [int(b) for b in rng.integers(0, 2, size=k)]
    tree = bfs_with_echo(net, distance)  # leader at the far end
    children = tree.children()
    programs = {
        v: UpcastProgram(
            v, tree.parent.get(v), children.get(v, []), vectors[v],
            combine=lambda a, b: a + b, domain=net.n + 1, length=k,
        )
        for v in net.nodes()
    }
    _, trace = run_traced(net, programs, seed=seed)
    mid = distance // 2
    return sum(
        e.bits for e in trace.events
        if {e.src, e.dst} == {mid, mid + 1}
    )


class TestClassicalCutTraffic:
    def test_streaming_pays_k_bits_across_the_cut(self):
        """The trivial protocol's cut traffic grows linearly in k."""
        small = _streaming_cut_bits(distance=6, k=32, seed=1)
        large = _streaming_cut_bits(distance=6, k=128, seed=1)
        assert large >= 3.5 * small  # linear in k
        assert small >= 32  # at least one bit per input index

    def test_cut_traffic_at_least_input_entropy(self):
        """Every index's value must cross: ≥ k bits over the middle edge."""
        k = 64
        bits = _streaming_cut_bits(distance=4, k=k, seed=2)
        assert bits >= k


class TestQuantumCutTraffic:
    def test_framework_cut_messages_scale_with_batches_not_k(self):
        """Engine-mode framework traffic over one edge is Θ(b·p·words),
        independent of k beyond the log factor."""
        distance = 4
        net = topologies.path_with_endpoints(distance)

        def cut_messages(k):
            rng = np.random.default_rng(3)
            vectors = {v: [0] * k for v in net.nodes()}
            vectors[0] = [int(b) for b in rng.integers(0, 2, size=k)]
            di = DistributedInput(vectors, sum_semigroup(net.n))
            # One batch of 4 queries through the real engine, traced via
            # the round ledger's engine-mode charges (messages per batch
            # are independent of k, so compare round charges).
            from repro.core.framework import FrameworkConfig, run_framework

            def algorithm(oracle, _rng):
                oracle.query_batch([0, 1, 2, 3], label="probe")
                return None

            run = run_framework(net, algorithm, config=FrameworkConfig(
                parallelism=4, dist_input=di, mode="engine", seed=3,
                leader=0,
            ))
            phases = run.rounds.by_phase()
            return sum(v for key, v in phases.items()
                       if not key.startswith("setup"))

        small, large = cut_messages(32), cut_messages(1024)
        # k grew 32×; engine traffic may only grow by the word factor.
        assert large <= 2 * small

    def test_bfs_cut_traffic_constant(self):
        """Control: BFS tree construction crosses the cut O(1) times."""
        net = topologies.path_with_endpoints(8)
        programs = {v: BFSEchoProgram(v, 0) for v in net.nodes()}
        _, trace = run_traced(net, programs, seed=4)
        crossings = [
            e for e in trace.events if {e.src, e.dst} == {4, 5}
        ]
        assert len(crossings) <= 4

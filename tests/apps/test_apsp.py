"""Tests for the PR 8 CONGEST-CLIQUE APSP workload family."""

import pytest

from repro.apps.apsp import (
    AdjacencyBroadcastProgram,
    apsp_duel,
    broadcast_apsp,
    classical_apsp_bound,
    quantum_apsp_bound,
    sweep_apsp,
    verify_distances,
)
from repro.congest import topologies
from repro.congest.engine import Engine
from repro.congest.errors import CongestError

from ..congest.reference_loop import reference_run


class TestChargedBounds:
    def test_quantum_beats_classical_everywhere(self):
        for n in (4, 64, 1024, 10 ** 6):
            assert quantum_apsp_bound(n) < classical_apsp_bound(n)

    def test_polynomial_scaling(self):
        # Over a 2^12 size step the log factors cancel exactly, leaving
        # the pure n^(1/4) / n^(1/3) ratios.
        lo, hi = 2 ** 8, 2 ** 20
        q_ratio = quantum_apsp_bound(hi) / quantum_apsp_bound(lo)
        c_ratio = classical_apsp_bound(hi) / classical_apsp_bound(lo)
        assert q_ratio == pytest.approx((hi / lo) ** 0.25 * (20 / 8))
        assert c_ratio == pytest.approx((hi / lo) ** (1 / 3) * (20 / 8))


class TestBroadcastHarness:
    @pytest.mark.parametrize("maker", [
        lambda: topologies.petersen(),
        lambda: topologies.path(7),
        lambda: topologies.grid(3, 4),
        lambda: topologies.star(9),
    ])
    def test_distances_exact_on_standard_graphs(self, maker):
        graph = maker()
        result = broadcast_apsp(graph, seed=0)
        assert verify_distances(graph, result)

    def test_rounds_scale_with_max_degree_not_n(self):
        # A long path has max degree 2 regardless of n: the clique
        # broadcast finishes in O(1) rounds even as n grows.
        short = broadcast_apsp(topologies.path(8), seed=0)
        long = broadcast_apsp(topologies.path(24), seed=0)
        assert long.rounds == short.rounds

    def test_every_node_agrees_on_symmetric_distances(self):
        graph = topologies.grid(3, 3)
        result = broadcast_apsp(graph, seed=1)
        for v in range(graph.n):
            for u in range(graph.n):
                assert result.distances[v][u] == result.distances[u][v]

    def test_rejects_trivial_network(self):
        with pytest.raises(CongestError, match="n >= 2"):
            broadcast_apsp(topologies.path(1))

    def test_schedules_agree(self):
        # The engine's per-node loop against the textbook loop.
        graph = topologies.petersen()
        comm = topologies.clique(graph.n)
        active, dense = (
            run(Engine(
                comm,
                {
                    v: AdjacencyBroadcastProgram(graph.neighbors(v))
                    for v in range(graph.n)
                },
                seed=0, max_rounds=16,
            ))
            for run in (Engine.run, reference_run)
        )
        assert active.outputs == dense.outputs
        assert active.rounds == dense.rounds
        assert active.stats == dense.stats
        # broadcast_apsp runs the same programs on the engine's default.
        default = broadcast_apsp(graph, seed=0)
        assert default.distances == tuple(
            active.output_of(v) for v in range(graph.n)
        )
        assert (default.rounds, default.bits) == (active.rounds, active.stats.bits)


class TestDuel:
    def test_small_duel_validates_engine(self):
        duel = apsp_duel(20, seed=0)
        assert duel.correct is True
        assert duel.engine_rounds is not None
        assert duel.quantum_wins

    def test_large_duel_skips_validation(self):
        duel = apsp_duel(4096, seed=0)
        assert duel.correct is None
        assert duel.engine_rounds is None

    def test_sweep_shapes(self):
        duels = sweep_apsp([16, 32], seed=0)
        assert [d.n for d in duels] == [16, 32]
        assert all(d.quantum_wins for d in duels)

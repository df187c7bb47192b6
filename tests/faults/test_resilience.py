"""Tests for the reliable-link resilience layer under injected faults."""

import networkx as nx
import pytest

from repro.congest import topologies
from repro.congest.algorithms.bfs import bfs_with_echo
from repro.congest.encoding import Field
from repro.congest.errors import CongestError
from repro.congest.models import CongestModel
from repro.congest.network import Network
from repro.faults import (
    BernoulliLoss,
    BitCorruption,
    BoundedDelay,
    CompositeFaults,
    CrashSchedule,
    CrashSpec,
    GilbertElliottLoss,
    resilient_bfs,
    resilient_convergecast,
    resilient_leader,
)
from repro.faults.resilience import frame_checksum


class TestResilientBFS:
    def test_correct_under_bernoulli_loss(self, small_network):
        truth = small_network.distances_from(0)
        res, run = resilient_bfs(
            small_network,
            0,
            fault_model=BernoulliLoss(0.05),
            seed=0,
            fault_seed=7,
        )
        assert res.dist == truth
        assert run.fault_stats.dropped > 0

    def test_virtual_rounds_match_faultless_rounds(self, grid45):
        baseline = bfs_with_echo(grid45, 0, seed=0)
        res, run = resilient_bfs(
            grid45, 0, fault_model=BernoulliLoss(0.05), seed=0, fault_seed=7
        )
        assert run.virtual_rounds == baseline.rounds
        assert res.dist == grid45.distances_from(0)

    def test_overhead_is_never_free(self, grid45):
        baseline = bfs_with_echo(grid45, 0, seed=0)
        _, run = resilient_bfs(
            grid45, 0, fault_model=BernoulliLoss(0.1), seed=0, fault_seed=1
        )
        assert run.overhead_vs(baseline.rounds) > 1.0

    def test_corruption_detected_by_checksum(self, grid45):
        res, run = resilient_bfs(
            grid45, 0, fault_model=BitCorruption(0.1), seed=0, fault_seed=7
        )
        assert run.fault_stats.corrupted > 0
        assert run.discarded_frames > 0
        assert res.dist == grid45.distances_from(0)

    def test_survives_reordering_delay(self, grid45):
        res, run = resilient_bfs(
            grid45,
            0,
            fault_model=BoundedDelay(0.2, max_delay=3),
            seed=0,
            fault_seed=7,
        )
        assert run.fault_stats.delayed > 0
        assert res.dist == grid45.distances_from(0)

    def test_survives_bursts_and_composites(self, petersen):
        for model in (
            GilbertElliottLoss(seed=3),
            CompositeFaults(
                [BernoulliLoss(0.03), BitCorruption(0.05), BoundedDelay(0.1)]
            ),
        ):
            res, _ = resilient_bfs(
                petersen, 0, fault_model=model, seed=0, fault_seed=5
            )
            assert res.dist == petersen.distances_from(0)

    def test_survives_crash_recovery(self, grid45):
        sched = CrashSchedule([CrashSpec(5, 4, 12), CrashSpec(10, 20, 30)])
        res, _ = resilient_bfs(
            grid45,
            0,
            fault_model=BernoulliLoss(0.02),
            crash_schedule=sched,
            seed=0,
            fault_seed=3,
        )
        assert res.dist == grid45.distances_from(0)

    def test_deterministic_given_seeds(self, path8):
        runs = [
            resilient_bfs(
                path8, 0, fault_model=BernoulliLoss(0.1), seed=0, fault_seed=2
            )
            for _ in range(2)
        ]
        assert runs[0][0].dist == runs[1][0].dist
        assert runs[0][1].rounds == runs[1][1].rounds
        assert (
            runs[0][1].fault_stats.dropped == runs[1][1].fault_stats.dropped
        )


class TestResilientConvergecast:
    def test_correct_under_loss(self, small_network):
        tree = bfs_with_echo(small_network, 0, seed=0)
        # Domain 16 keeps the payload inside even the smallest default
        # bandwidth here (star(7): 28 bits) after the 20-bit header.
        values = {v: (7 * v + 3) % 16 for v in small_network.nodes()}
        agg, run = resilient_convergecast(
            small_network,
            tree,
            values,
            max,
            16,
            fault_model=BernoulliLoss(0.05),
            seed=0,
            fault_seed=11,
        )
        assert agg == max(values.values())
        assert run.giveups == 0

    def test_halt_flag_cannot_outrun_final_data(self):
        # Regression: a node whose inner program halted used to advertise
        # the halt while its last data frame was still unacked; the
        # receiver skipped that virtual round and acked the retransmission
        # without delivering it, losing the root's aggregate forever.
        net = topologies.grid(4, 4)
        tree = bfs_with_echo(net, 0, seed=0)
        values = {v: (7 * v + 3) % 256 for v in net.nodes()}
        agg, run = resilient_convergecast(
            net,
            tree,
            values,
            max,
            256,
            fault_model=BernoulliLoss(0.01),
            seed=0,
            fault_seed=501,
            max_rounds=2000,
        )
        assert agg == max(values.values())

    def test_drained_halted_node_announces_before_leaving(self):
        # Regression: leaf-side nodes that drained and halted used to go
        # silent without ever advertising the halt, so slower neighbors
        # opened a new virtual round toward a departed peer and stalled
        # at the round limit.
        net = Network(nx.path_graph(3), comm_model=CongestModel(bandwidth=48))
        tree = bfs_with_echo(net, 0, seed=0)
        values = {v: v % 16 for v in net.nodes()}
        for fault_seed in (1, 11, 15, 17, 28):
            agg, _ = resilient_convergecast(
                net,
                tree,
                values,
                max,
                256,
                fault_model=BernoulliLoss(0.05),
                seed=0,
                fault_seed=fault_seed,
                max_rounds=2000,
            )
            assert agg == max(values.values())


class TestResilientLeader:
    def test_elects_max_id_under_loss(self, small_network):
        leader, run = resilient_leader(
            small_network,
            fault_model=BernoulliLoss(0.1),
            seed=0,
            fault_seed=13,
        )
        assert leader == small_network.n - 1
        assert run.rounds > 0


class TestFraming:
    def test_checksum_detects_field_changes(self):
        parts = (Field(3, 16), True, (Field(5, 256),), False, Field(2, 16))
        tampered = (Field(3, 16), True, (Field(6, 256),), False, Field(2, 16))
        assert frame_checksum(parts) != frame_checksum(tampered)

    def test_checksum_detects_flag_flips(self):
        parts = (Field(3, 16), True, None, False, None)
        flipped = (Field(3, 16), True, None, True, None)
        assert frame_checksum(parts) != frame_checksum(flipped)

    def test_header_needs_bandwidth_headroom(self):
        # path(3) default bandwidth is 24 bits; the 20-bit resilience
        # header leaves 4 — too little for a 9-bit upcast payload.
        net = topologies.path(3)
        tree = bfs_with_echo(net, 0, seed=0)
        values = {v: v for v in net.nodes()}
        with pytest.raises(CongestError):
            resilient_convergecast(
                net, tree, values, max, 256, seed=0, fault_seed=0
            )

    def test_wrapper_parameter_validation(self):
        from repro.congest.program import IdleProgram
        from repro.faults import ResilientProgram

        with pytest.raises(ValueError):
            ResilientProgram(IdleProgram(), timeout=0)
        with pytest.raises(ValueError):
            ResilientProgram(IdleProgram(), timeout=4, max_backoff=2)
        with pytest.raises(ValueError):
            ResilientProgram(IdleProgram(), max_retries=0)

"""The four-clause coalescing equivalence invariant, pinned at p ∈ {1,4,64}.

The PR-5 acceptance bar: coalesced execution is bit-identical to serial —
same outputs, same per-caller query-ledger totals — at every parallelism,
and the per-caller attributed rounds conserve the physical charge exactly.
"""

import pytest

from repro.congest import topologies
from repro.core.framework import DistributedInput, FrameworkConfig
from repro.core.operation import Operation
from repro.core.semigroup import sum_semigroup
from repro.sched import CallerOracle, CoalescingScheduler, verify_coalescing


K = 64


def make_case(p):
    net = topologies.grid(4, 4)
    vectors = {
        v: [(v * 5 + j * 3) % 7 for j in range(K)] for v in net.nodes()
    }
    di = DistributedInput(vectors, sum_semigroup(7 * net.n))
    return net, FrameworkConfig(parallelism=p, dist_input=di, seed=3, leader=0)


def interleaved_workload(p):
    """Three callers' under-filled submissions, interleaved FIFO."""
    width = max(1, min(3, p))
    out = []
    for r in range(3):
        for c, caller in enumerate(["alice", "bob", "carol"]):
            base = (r * 11 + c * 17) % K
            out.append(
                (caller, [(base + i) % K for i in range(width)], f"r{r}")
            )
    return out


@pytest.mark.parametrize("p", [1, 4, 64])
def test_coalesced_bit_identical_to_serial(p):
    net, cfg = make_case(p)
    verdict = verify_coalescing(net, cfg, interleaved_workload(p))
    assert verdict.identical, verdict.detail
    assert verdict.callers == 3 and verdict.submissions == 9


@pytest.mark.parametrize("p", [1, 4, 64])
def test_serial_degeneracy_at_deadline_zero(p):
    """An owner that flushes at once, draining after every submission,
    reproduces serial round totals exactly, under each submission's own
    label."""
    net, cfg = make_case(p)
    workload = interleaved_workload(p)
    verdict = verify_coalescing(net, cfg, workload)
    assert verdict.identical, verdict.detail
    sched = CoalescingScheduler(net, cfg, memo=False)
    for caller, indices, label in workload:
        sched.submit(Operation.query(caller, indices, label=label))
        sched.drain()
    assert sched.physical_batches == len(workload)
    assert sched.report().physical_query_rounds == verdict.serial_query_rounds
    phases = sched.rounds.by_phase()
    assert {f"batch:r{r}" for r in range(3)} <= set(phases)


def test_coalescing_saves_rounds_when_batches_underfilled():
    net, cfg = make_case(64)
    verdict = verify_coalescing(net, cfg, interleaved_workload(64))
    # 9 width-3 submissions coalesce into far fewer width-64 charges.
    assert verdict.physical_batches < verdict.submissions
    assert verdict.round_saving > 0.5


def test_no_saving_possible_at_p1():
    net, cfg = make_case(1)
    verdict = verify_coalescing(net, cfg, interleaved_workload(1))
    # Width-1 batches cannot be packed: physical == serial exactly.
    assert verdict.coalesced_query_rounds == verdict.serial_query_rounds


def test_engine_mode_equivalence():
    net, cfg = make_case(4)
    verdict = verify_coalescing(
        net, cfg.replace(mode="engine"), interleaved_workload(4)
    )
    assert verdict.identical, verdict.detail


def test_adaptive_single_caller_unaffected():
    """One caller, serial-shaped traffic: scheduler adds zero distortion."""
    net, cfg = make_case(4)
    workload = [("solo", [j, (j + 1) % K], f"s{j}") for j in range(5)]
    verdict = verify_coalescing(net, cfg, workload)
    assert verdict.identical, verdict.detail
    oracle = CallerOracle(CoalescingScheduler(net, cfg, memo=False), "solo")
    for _caller, indices, label in workload:  # each read before the next
        oracle.query_batch(indices, label=label)
    assert oracle.scheduler.report().physical_query_rounds == (
        verdict.serial_query_rounds
    )

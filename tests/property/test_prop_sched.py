"""Property-based tests for the coalescing scheduler's invariants.

Hypothesis drives the cases the hand-written suite can't enumerate:
adversarial arrival orders, the two flush extremes (drain once at the
end, or after every submission), charge conservation, and bit-identity
to serial execution when ``submit`` and explicit ``flush`` calls
interleave arbitrarily (the daemon's discipline: ``submit`` only
queues).  Formula mode keeps each drawn case cheap; the engine-mode
equivalence is pinned separately in the deterministic suite.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import topologies
from repro.core.framework import (
    DistributedInput,
    FrameworkConfig,
    run_framework,
)
from repro.core.semigroup import sum_semigroup
from repro.sched import CoalescingScheduler
from repro.sched.verify import verify_coalescing
from repro.core.operation import Operation

FAST = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

NET = topologies.grid(2, 3)
K = 12
P = 4

_rnd = random.Random(5)
VECTORS = {v: [_rnd.randint(0, 5) for _ in range(K)] for v in NET.nodes()}
CONFIG = FrameworkConfig(
    parallelism=P,
    dist_input=DistributedInput(
        vectors=VECTORS, semigroup=sum_semigroup(6 * NET.n)
    ),
    mode="formula",
    seed=3,
    leader=0,
)

callers = st.sampled_from(["alice", "bob", "carol"])
indices = st.lists(
    st.integers(min_value=0, max_value=K - 1), min_size=1, max_size=P
)
labels = st.sampled_from(["", "probe", "grover"])
workloads = st.lists(
    st.tuples(callers, indices, labels), min_size=1, max_size=12
)


def _serial_values(workload):
    """Each submission's values on a private per-caller serial oracle."""
    by_caller = {}
    for slot, (caller, idx, label) in enumerate(workload):
        by_caller.setdefault(caller, []).append((slot, idx, label))
    out = {}
    for caller, items in by_caller.items():
        def algorithm(oracle, _rng, items=items):
            return [
                (slot, oracle.query_batch(list(idx), label=label))
                for slot, idx, label in items
            ]

        run = run_framework(NET, algorithm, config=CONFIG)
        for slot, vals in run.result:
            out[slot] = vals
    return out


class TestArrivalOrders:
    @FAST
    @given(workloads, st.data())
    def test_any_arrival_permutation_is_serial_identical(self, wl, data):
        shuffled = data.draw(st.permutations(wl))
        verdict = verify_coalescing(NET, CONFIG, shuffled)
        assert verdict.identical, verdict.detail


class TestDeadlineExtremes:
    @FAST
    @given(workloads)
    def test_unbounded_and_zero_deadlines_both_hold(self, wl):
        # verify_coalescing checks both extremes: the workload drained
        # once at the end, and drained after every submission (whose
        # per-caller attributed rounds must equal the serial totals).
        verdict = verify_coalescing(NET, CONFIG, wl)
        assert verdict.identical, verdict.detail
        # Packed execution can never cost more rounds than serial.
        assert verdict.coalesced_query_rounds <= verdict.serial_query_rounds


class TestChargeConservation:
    @FAST
    @given(workloads)
    def test_attribution_sums_to_physical_rounds(self, wl):
        sched = CoalescingScheduler(NET, CONFIG, memo=False)
        for caller, idx, label in wl:
            sched.submit(Operation.query(caller, idx, label=label))
        sched.drain()
        report = sched.report()
        assert report.attributed_rounds == report.physical_query_rounds
        assert report.total_queries == sum(len(idx) for _, idx, _ in wl)
        assert report.submissions == len(wl)


class TestInterleavedSubmitFlush:
    @FAST
    @given(
        workloads,
        st.lists(st.booleans(), min_size=12, max_size=12),
        st.booleans(),
    )
    def test_interleaving_flushes_is_bit_identical(self, wl, flushes, memo):
        """Arbitrary submit/flush interleavings return serial values.

        ``memo`` toggles the result cache: hits answer from the memo in
        zero rounds but must still be bit-identical.
        """
        sched = CoalescingScheduler(NET, CONFIG, memo=memo)
        tickets = []
        for i, (caller, idx, label) in enumerate(wl):
            tickets.append(
                sched.submit(Operation.query(caller, idx, label=label))
            )
            if flushes[i % len(flushes)]:
                sched.flush()
        sched.drain()
        assert sched.pack_would_be_empty()
        want = _serial_values(wl)
        for slot, ticket in enumerate(tickets):
            assert sched.done(ticket)
            assert sched.result(ticket) == want[slot]

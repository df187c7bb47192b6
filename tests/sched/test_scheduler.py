"""CoalescingScheduler: packing, deadlines, fairness, exact accounting."""

import random

import pytest

from repro.congest import topologies
from repro.core.framework import DistributedInput, FrameworkConfig, run_framework
from repro.core.semigroup import sum_semigroup
from repro.queries.ledger import ParallelismViolation
from repro.sched import CallerOracle, CoalescingScheduler, verify_coalescing
from repro.sched.scheduler import _proportional_shares
from repro.core.operation import Operation


K = 32


@pytest.fixture
def network():
    return topologies.grid(4, 4)


@pytest.fixture
def config(network):
    vectors = {
        v: [(v * 7 + j) % 5 for j in range(K)] for v in network.nodes()
    }
    di = DistributedInput(vectors, sum_semigroup(5 * network.n))
    return FrameworkConfig(parallelism=8, dist_input=di, seed=2, leader=0)


class TestProportionalShares:
    def test_conserves_exactly(self):
        shares = _proportional_shares(100, {"a": 3, "b": 3, "c": 1})
        assert sum(shares.values()) == 100

    def test_proportional_when_divisible(self):
        assert _proportional_shares(30, {"a": 2, "b": 1}) == {"a": 20, "b": 10}

    def test_largest_remainder_gets_leftover(self):
        # 10 over weights 1:1:1 -> floors 3,3,3; remainder goes by name.
        shares = _proportional_shares(10, {"a": 1, "b": 1, "c": 1})
        assert sum(shares.values()) == 10
        assert sorted(shares.values()) == [3, 3, 4]

    def test_deterministic_tie_break(self):
        first = _proportional_shares(7, {"x": 1, "y": 1})
        for _ in range(5):
            assert _proportional_shares(7, {"x": 1, "y": 1}) == first

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            _proportional_shares(5, {})


class TestPacking:
    def test_fill_triggers_execution(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        for i in range(3):
            sched.submit(Operation.query("a", [i * 2, i * 2 + 1]))
            assert sched.physical_batches == 0
        sched.submit(Operation.query("a", [6, 7]))  # 8 pending == p: fill
        assert sched.physical_batches == 1
        assert sched.pending_queries == 0

    def test_drain_packs_maximal_batches(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        tickets = [
            sched.submit(Operation.query(f"c{i}", [i, i + 1, i + 2]))
            for i in range(4)
        ]
        # 12 queries at p=8: the fill flush fires once during submission.
        sched.drain()
        assert sched.physical_batches == 2
        for i, t in enumerate(tickets):
            assert len(sched.result(t)) == 3

    def test_values_match_direct_oracle(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        truth = list(sched.oracle.peek_all())
        t = sched.submit(Operation.query("a", [0, 5, 9], label="probe"))
        assert sched.result(t) == [truth[0], truth[5], truth[9]]

    def test_result_is_idempotent(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        t = sched.submit(Operation.query("a", [1, 2]))
        assert sched.result(t) == sched.result(t)

    def test_unknown_ticket_rejected(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        t = sched.submit(Operation.query("a", [0]))
        bad = type(t)(id=999, caller="a", size=1)
        with pytest.raises(KeyError):
            sched.result(bad)

    def test_submission_wider_than_p_rejected(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        with pytest.raises(ParallelismViolation):
            sched.submit(
                Operation.query("a", list(range(config.parallelism + 1)))
            )

    def test_empty_submission_rejected(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        with pytest.raises(ValueError):
            sched.submit(Operation.query("a", []))

    def test_out_of_range_index_rejected(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        with pytest.raises(IndexError):
            sched.submit(Operation.query("a", [K]))

    def test_negative_deadline_rejected(self, network, config):
        with pytest.raises(ValueError):
            CoalescingScheduler(network, config, deadline_rounds=-1)


class TestDeadline:
    def test_zero_deadline_is_serial(self, network, config):
        sched = CoalescingScheduler(
            network, config, deadline_rounds=0, memo=False
        )
        for i in range(3):
            sched.submit(Operation.query("a", [i], label=f"s{i}"))
            assert sched.physical_batches == i + 1
        # Serial-degenerate batches keep the submission's own label.
        phases = sched.rounds.by_phase()
        for i in range(3):
            assert f"batch:s{i}" in phases

    def test_deadline_bounds_starvation(self, network, config):
        """No submission defers more than deadline_rounds of standalone cost."""
        from repro.core.cost import CostModel

        one_sub = CostModel.for_network(network).batch_rounds(
            2, config.dist_input.semigroup.bits, K
        )
        sched = CoalescingScheduler(
            network, config, deadline_rounds=one_sub, memo=False
        )
        # deferred cost == deadline: waits
        sched.submit(Operation.query("a", [0, 1]))
        assert sched.physical_batches == 0
        # now exceeds the deadline: flushes
        sched.submit(Operation.query("b", [2, 3]))
        assert sched.physical_batches == 1
        assert sched.pending_queries == 0

    def test_none_deadline_waits_for_fill_or_drain(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        sched.submit(Operation.query("a", [0, 1]))
        assert sched.physical_batches == 0
        sched.drain()
        assert sched.physical_batches == 1


class TestAccounting:
    def test_attribution_conserves_rounds(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        for i, caller in enumerate(["a", "b", "a", "c", "b"]):
            sched.submit(
                Operation.query(caller, [(3 * i) % K, (3 * i + 1) % K])
            )
        sched.drain()
        report = sched.report()
        assert report.attributed_rounds == report.physical_query_rounds
        assert report.attributed_rounds == sum(
            sched.account(c).attributed_rounds for c in ("a", "b", "c")
        )

    def test_equal_work_gets_equal_shares(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        sched.submit(Operation.query("a", [0, 1, 2, 3]))
        # fills p=8 exactly: one batch
        sched.submit(Operation.query("b", [4, 5, 6, 7]))
        assert sched.physical_batches == 1
        a = sched.account("a").attributed_rounds
        b = sched.account("b").attributed_rounds
        assert abs(a - b) <= 1  # only largest-remainder rounding apart

    def test_per_caller_ledger_matches_submissions(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        sched.submit(Operation.query("a", [0, 1], label="x"))
        sched.submit(Operation.query("a", [2, 3, 4], label="y"))
        sched.drain()
        assert sched.account("a").queries.signature() == (
            (2, "x"), (3, "y"),
        )

    def test_flush_on_idle_is_noop(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        assert sched.flush() == 0
        assert sched.physical_batches == 0


class TestCallerOracle:
    def test_adapter_runs_query_batches(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        oracle = CallerOracle(sched, "solo")
        truth = list(oracle.peek_all())
        assert oracle.k == K
        assert oracle.query_batch([3, 4], label="go") == [truth[3], truth[4]]
        assert oracle.ledger.signature() == ((2, "go"),)

    def test_two_adapters_share_physical_batches(self, network, config):
        sched = CoalescingScheduler(
            network, config, deadline_rounds=None, memo=False
        )
        a, b = CallerOracle(sched, "a"), CallerOracle(sched, "b")
        # a's redemption forces execution; b's pending queries ride along.
        tb = sched.submit(Operation.query("b", [4, 5, 6, 7]))
        va = a.query_batch([0, 1, 2, 3])
        assert sched.physical_batches == 1
        assert len(va) == 4 and len(sched.result(tb)) == 4


def _bursts(callers, k, bursts=2, subs=2, size=2):
    """Per-burst ``(caller, indices, label)`` lists: every caller submits
    ``subs`` under-filled ``size``-index sets per burst."""
    out = []
    for r in range(bursts):
        out.append([
            (
                f"caller{c}",
                [((c * 131 + r * 17 + s * 7) % k + j * 3) % k
                 for j in range(size)],
                f"burst{r}",
            )
            for c in range(callers)
            for s in range(subs)
        ])
    return out


def _serial_rounds(network, config, bursts):
    """Query rounds when every caller runs on its own private oracle."""
    by_caller = {}
    for arrivals in bursts:
        for caller, indices, label in arrivals:
            by_caller.setdefault(caller, []).append((indices, label))
    total = 0
    for items in by_caller.values():
        def algorithm(oracle, _rng, items=items):
            for indices, label in items:
                oracle.query_batch(indices, label=label)

        run = run_framework(network, algorithm, config=config)
        total += sum(
            rounds for phase, rounds in run.rounds.by_phase().items()
            if not phase.startswith("setup")
        )
    return total


class TestAmortization:
    """More concurrent callers fill each batch, so rounds per query fall.

    Callers submit a burst each, then redeem it (the barrier a
    synchronous caller hits), twice, against one grid(4,4) oracle with
    k=64 at p=16.
    """

    def test_rounds_per_query_fall_as_callers_grow(self, network):
        k = 64
        rnd = random.Random(11)
        vectors = {
            v: [rnd.randint(0, 7) for _ in range(k)] for v in network.nodes()
        }
        di = DistributedInput(vectors, sum_semigroup(8 * network.n))
        config = FrameworkConfig(
            parallelism=16, dist_input=di, seed=4, leader=0
        )
        amortized = []
        for callers in (1, 2, 4):
            bursts = _bursts(callers, k)
            flat = [sub for arrivals in bursts for sub in arrivals]
            verdict = verify_coalescing(network, config, flat)
            assert verdict.identical, verdict.detail

            sched = CoalescingScheduler(network, config, memo=False)
            for arrivals in bursts:
                tickets = [
                    sched.submit(Operation.query(c, idx, label=label))
                    for c, idx, label in arrivals
                ]
                for ticket in tickets:
                    sched.result(ticket)
            report = sched.report()
            assert report.physical_query_rounds < _serial_rounds(
                network, config, bursts
            )
            amortized.append(report.amortized_rounds_per_query)
        assert all(b < a for a, b in zip(amortized, amortized[1:])), amortized

"""CoalescingScheduler: packing, fairness, exact accounting."""

import contextlib
import random
import signal

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
    def test_drain_packs_maximal_batches(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        tickets = [
            sched.submit(Operation.query(f"c{i}", [i, i + 1, i + 2]))
            for i in range(4)
        ]
        # 12 queries at p=8: submit only queues; drain runs both batches.
        assert sched.physical_batches == 0
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

    def test_take_releases_the_ticket(self, network, config):
        sched = CoalescingScheduler(network, config)
        truth = list(sched.oracle.peek_all())
        t = sched.submit(Operation.query("a", [1, 2]))
        assert sched.result(t) == sched.take(t) == [truth[1], truth[2]]
        hit = sched.submit(Operation.query("b", [2, 1]))  # memo: done at once
        assert sched.take(hit) == [truth[2], truth[1]]
        assert sched._by_ticket == {}
        for read in (sched.done, sched.result, sched.take):
            with pytest.raises(KeyError, match="unknown ticket"):
                read(t)

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

    @pytest.mark.parametrize("keyword", ["auto_flush", "deadline_rounds"])
    def test_deleted_keyword_is_rejected(self, network, config, keyword):
        # A batch runs only when the scheduler's owner asks for one.
        with pytest.raises(TypeError, match=keyword):
            CoalescingScheduler(network, config, **{keyword: None})
        with pytest.raises(TypeError, match=keyword):
            verify_coalescing(network, config, [], **{keyword: None})


class TestDeadline:
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
        sched.submit(Operation.query("b", [4, 5, 6, 7]))
        sched.drain()  # fills p=8 exactly: one batch
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


class TestSteppedBatch:
    """Stepping ``execute_batch_steps`` is ``flush`` with a suspension
    after each engine round: the serving daemon's lanes step it."""

    @staticmethod
    def submit_all(sched):
        return [
            sched.submit(Operation.query(
                f"c{i % 3}", [(5 * i + j) % K for j in range(3)]
            ))
            for i in range(6)
        ]

    def test_engine_batch_yields_each_transfer_round(self, network, config):
        config = config.replace(mode="engine")
        stepped = CoalescingScheduler(network, config, memo=False)
        flushed = CoalescingScheduler(network, config, memo=False)
        tickets = self.submit_all(stepped)
        twins = self.submit_all(flushed)
        sizes = []
        while not stepped.pack_would_be_empty():
            before = len(stepped.rounds.charges)
            gen = stepped.execute_batch_steps()
            yielded = []
            while True:
                try:
                    yielded.append(next(gen))
                except StopIteration as stop:
                    sizes.append(stop.value)
                    break
            assert sizes[-1] == flushed.flush()
            charged = dict(stepped.rounds.charges[before:])
            transfers = [
                charged[phase] for phase in
                ("index-distribute", "value-upcast", "value-uncompute")
            ]
            assert min(transfers) > 0
            # Each yield is the round just run by its transfer's engine.
            assert yielded == [
                r for rounds in transfers for r in range(1, rounds + 1)
            ]
        assert sizes == [8, 8, 2]
        assert stepped.physical_batches == flushed.physical_batches == 3
        assert stepped.rounds.by_phase() == flushed.rounds.by_phase()
        assert [stepped.take(t) for t in tickets] == [
            flushed.take(t) for t in twins
        ]

    def test_formula_batch_yields_nothing(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        self.submit_all(sched)
        gen = sched.execute_batch_steps()
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == 8


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail, rather than hang, a block that would spin forever."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _overflowing_lane():
    """An engine-mode grid(2, 2) lane, k = 8, p = 4, over sum[0, 2]:
    every node holds 1 at index 1, so a batch reading it sums 4, outside
    the domain, and raises from its upcast; index 0 sums 0."""
    net = topologies.grid(2, 2)
    vectors = {v: [0, 1] + [0] * 6 for v in net.nodes()}
    config = FrameworkConfig(
        parallelism=4, dist_input=DistributedInput(vectors, sum_semigroup(2)),
        mode="engine", seed=0, leader=0,
    )
    return CoalescingScheduler(net, config, memo=False)


class TestRaisingBatch:
    """A batch that raises fails the work it packed, and only that."""

    def test_its_submission_fails_with_the_exception(self):
        sched = _overflowing_lane()
        ok = sched.submit(Operation.query("a", [0]))
        assert sched.flush() == 1
        rounds_ok = sched.report().physical_query_rounds
        bad = sched.submit(Operation.query("b", [1]))
        with pytest.raises(ValueError, match="outside domain") as raised:
            sched.flush()
        with _time_limit(5):
            assert sched.done(bad)
            for read in (sched.result, sched.result, sched.take):
                with pytest.raises(ValueError) as again:
                    read(bad)
                assert again.value is raised.value
        with pytest.raises(KeyError, match="unknown ticket"):
            sched.done(bad)  # take released it
        assert sched.pending_queries == 0
        assert sched.pack_would_be_empty()
        report = sched.report()
        # The rounds the batch charged before raising are b's.
        assert report.physical_query_rounds > rounds_ok
        assert report.attributed_rounds == report.physical_query_rounds
        assert sched.account("b").attributed_rounds == (
            report.physical_query_rounds - rounds_ok
        )
        assert sched.physical_batches == 1
        # The lane keeps serving.
        assert sched.take(ok) == [0]
        later = sched.submit(Operation.query("c", [0]))
        with _time_limit(5):
            assert sched.take(later) == [0]
        assert sched.physical_batches == 2

    def test_every_packed_submission_fails_and_the_rest_stay_queued(self):
        sched = _overflowing_lane()
        first = sched.submit(Operation.query("a", [0, 0, 0]))
        # Packed one index of three: all three leave the queue with it.
        split = sched.submit(Operation.query("b", [1, 0, 0]))
        queued = sched.submit(Operation.query("c", [0, 0]))
        assert sched.pending_queries == 8
        with pytest.raises(ValueError, match="outside domain"):
            sched.flush()
        assert sched.done(first) and sched.done(split)
        assert not sched.done(queued)
        assert sched.pending_queries == 2
        with _time_limit(5):
            for ticket in (first, split):
                with pytest.raises(ValueError, match="outside domain"):
                    sched.result(ticket)
            assert sched.result(queued) == [0, 0]
        assert sched.pending_queries == 0
        report = sched.report()
        assert report.attributed_rounds == report.physical_query_rounds

    def test_a_read_is_not_failed_by_a_batch_without_its_ticket(self):
        sched = _overflowing_lane()
        bad = sched.submit(Operation.query("a", [1, 0, 0, 0]))
        later = sched.submit(Operation.query("b", [0]))
        with _time_limit(5):
            # Runs a's failing batch, then b's.
            assert sched.take(later) == [0]
            with pytest.raises(ValueError, match="outside domain"):
                sched.take(bad)
        assert sched.physical_batches == 1
        assert sched.pack_would_be_empty()


class TestCallerOracle:
    def test_adapter_runs_query_batches(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        oracle = CallerOracle(sched, "solo")
        truth = list(oracle.peek_all())
        assert oracle.k == K
        assert oracle.query_batch([3, 4], label="go") == [truth[3], truth[4]]
        assert oracle.ledger.signature() == ((2, "go"),)

    def test_two_adapters_share_physical_batches(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        a, b = CallerOracle(sched, "a"), CallerOracle(sched, "b")
        # a's redemption forces execution; b's pending queries ride along.
        tb = sched.submit(Operation.query("b", [4, 5, 6, 7]))
        va = a.query_batch([0, 1, 2, 3])
        assert sched.physical_batches == 1
        assert len(va) == 4 and len(sched.result(tb)) == 4

    def test_adapter_keeps_no_finished_submission(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        oracle = CallerOracle(sched, "solo")
        truth = list(oracle.peek_all())
        for j in range(10):  # each under-filled: taking forces its batch
            assert oracle.query_batch([j, j + 1]) == truth[j:j + 2]
        assert sched.physical_batches == 10
        assert sched._by_ticket == {}


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
        # Consecutive pairs: the shifted copy is one shorter.
        assert all(
            b < a for a, b in zip(amortized, amortized[1:], strict=False)
        ), amortized

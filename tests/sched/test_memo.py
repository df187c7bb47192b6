"""ResultMemo: content addressing, hits, and invalidation-by-fingerprint."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import topologies
from repro.core.framework import DistributedInput, FrameworkConfig
from repro.core.semigroup import sum_semigroup
from repro.sched import CoalescingScheduler, ResultMemo, oracle_fingerprint
from repro.core.operation import Operation


K = 16


def make_config(network, bump=0):
    # bump shifts node 0's whole vector, so every aggregate sum moves.
    vectors = {
        v: [(v + j) % 3 + (bump if v == 0 else 0) for j in range(K)]
        for v in network.nodes()
    }
    di = DistributedInput(vectors, sum_semigroup(4 * network.n))
    return FrameworkConfig(parallelism=4, dist_input=di, seed=1, leader=0)


@pytest.fixture
def network():
    return topologies.grid(3, 3)


class TestFingerprint:
    def test_stable_for_same_content(self, network):
        cfg = make_config(network)
        assert oracle_fingerprint(network, cfg) == oracle_fingerprint(
            network, make_config(network)
        )

    def test_changes_with_input_vectors(self, network):
        assert oracle_fingerprint(network, make_config(network)) != (
            oracle_fingerprint(network, make_config(network, bump=1))
        )

    def test_changes_with_topology(self, network):
        cfg = make_config(network)
        other = topologies.path(9)  # same n, different edges
        other_cfg = make_config(other)
        assert oracle_fingerprint(network, cfg) != oracle_fingerprint(
            other, other_cfg
        )

    def test_unfingerprintable_computer_returns_none(self, network):
        from repro.core.framework import ValueComputer

        class Opaque(ValueComputer):
            def compute(self, indices):
                return {j: {0: 1} for j in indices}, 1

            def alpha(self, p):
                return 1

        cfg = FrameworkConfig(
            parallelism=2, computer=Opaque(), k=K,
            semigroup=sum_semigroup(network.n),
        )
        assert oracle_fingerprint(network, cfg) is None
        sched = CoalescingScheduler(network, cfg)  # memo requested...
        assert sched.memo is None  # ...but safely disabled


class TestMemoServing:
    def test_identical_resubmission_hits(self, network):
        cfg = make_config(network)
        sched = CoalescingScheduler(network, cfg)
        first = sched.result(sched.submit(Operation.query("a", [0, 3, 5])))
        rounds_after_first = sched.report().physical_query_rounds
        again = sched.result(sched.submit(Operation.query("b", [0, 3, 5])))
        assert again == first
        assert sched.report().physical_query_rounds == rounds_after_first
        assert sched.memo.hits == 1

    def test_permuted_indices_share_entry(self, network):
        cfg = make_config(network)
        sched = CoalescingScheduler(network, cfg)
        fwd = sched.result(sched.submit(Operation.query("a", [1, 2, 4])))
        rev = sched.result(sched.submit(Operation.query("a", [4, 2, 1])))
        assert rev == list(reversed(fwd))
        assert sched.memo.hits == 1

    def test_memo_shared_across_schedulers(self, network):
        cfg = make_config(network)
        memo = ResultMemo()
        warm = CoalescingScheduler(network, cfg, memo=memo)
        warm.result(warm.submit(Operation.query("a", [0, 1])))
        replay = CoalescingScheduler(network, cfg, memo=memo)
        replay.result(replay.submit(Operation.query("b", [0, 1])))
        assert replay.report().physical_query_rounds == 0
        assert memo.hits == 1

    def test_changed_oracle_never_served_stale(self, network):
        """The invalidation story: a new fingerprint is a new address."""
        memo = ResultMemo()
        cfg_a = make_config(network)
        cfg_b = make_config(network, bump=1)  # same indices, new content
        a = CoalescingScheduler(network, cfg_a, memo=memo)
        va = a.result(a.submit(Operation.query("x", [0, 1, 2])))
        b = CoalescingScheduler(network, cfg_b, memo=memo)
        vb = b.result(b.submit(Operation.query("x", [0, 1, 2])))
        assert memo.hits == 0  # cfg_b's lookup missed despite same indices
        assert b.report().physical_query_rounds > 0
        assert va != vb  # and the fresh answer reflects the new content

    def test_hit_counters_feed_accounts(self, network):
        cfg = make_config(network)
        sched = CoalescingScheduler(network, cfg)
        sched.result(sched.submit(Operation.query("a", [0, 1])))
        sched.result(sched.submit(Operation.query("a", [0, 1])))
        assert sched.account("a").memo_hits == 1
        report = sched.report()
        assert (report.memo_hits, report.memo_misses) == (1, 1)


class TestResultMemoStore:
    def test_lookup_counts_both_ways(self):
        memo = ResultMemo()
        assert memo.lookup("fp", [1, 2]) is None
        memo.store("fp", [1, 2], ["a", "b"])
        assert memo.lookup("fp", [2, 1]) == ["b", "a"]
        assert (memo.hits, memo.misses) == (1, 1)
        assert memo.hit_rate == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ResultMemo().store("fp", [1, 2], ["only-one"])

    def test_max_entries_evicts_lru(self):
        memo = ResultMemo(max_entries=1)
        memo.store("fp", [1], ["a"])
        memo.store("fp", [2], ["b"])  # evicts [1], keeps the new entry
        assert len(memo) == 1
        assert memo.evictions == 1
        assert memo.lookup("fp", [2]) == ["b"]
        assert memo.lookup("fp", [1]) is None

    def test_lookup_refreshes_lru_order(self):
        memo = ResultMemo(max_entries=2)
        memo.store("fp", [1], ["a"])
        memo.store("fp", [2], ["b"])
        assert memo.lookup("fp", [1]) == ["a"]  # [2] is now LRU
        memo.store("fp", [3], ["c"])  # evicts [2]
        assert memo.lookup("fp", [1]) == ["a"]
        assert memo.lookup("fp", [3]) == ["c"]
        assert memo.lookup("fp", [2]) is None
        assert memo.evictions == 1

    def test_restore_refreshes_lru_order(self):
        memo = ResultMemo(max_entries=2)
        memo.store("fp", [1], ["a"])
        memo.store("fp", [2], ["b"])
        memo.store("fp", [1], ["a"])  # re-store refreshes, no growth
        assert len(memo) == 2 and memo.evictions == 0
        memo.store("fp", [3], ["c"])  # evicts [2]
        assert memo.lookup("fp", [2]) is None
        assert memo.lookup("fp", [1]) == ["a"]

    def test_eviction_emits_coalesce_event(self):
        from repro.obs import MemorySink, Recorder

        sink = MemorySink()
        memo = ResultMemo(max_entries=1, recorder=Recorder([sink]))
        memo.store("fp", [1, 2], ["a", "b"])
        memo.store("fp", [3], ["c"])
        events = sink.events_of_kind("coalesce")
        assert len(events) == 1
        assert events[0].memo == "evict"
        assert events[0].size == 2  # the evicted entry held two indices
        assert events[0].rounds == 0

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            ResultMemo(max_entries=0)

    def test_clear_empties_store(self):
        memo = ResultMemo()
        memo.store("fp", [1], ["a"])
        memo.clear()
        assert len(memo) == 0


class TestInvalidateFingerprint:
    def test_drops_only_the_named_fingerprint(self):
        memo = ResultMemo()
        memo.store("fpA", [1], ["a"])
        memo.store("fpA", [2], ["b"])
        memo.store("fpB", [1], ["c"])
        assert memo.invalidate_fingerprint("fpA") == 2
        assert memo.invalidations == 2
        assert memo.lookup("fpA", [1]) is None
        assert memo.lookup("fpB", [1]) == ["c"]

    def test_noop_on_absent_fingerprint(self):
        memo = ResultMemo()
        memo.store("fpA", [1], ["a"])
        assert memo.invalidate_fingerprint("ghost") == 0
        assert memo.invalidations == 0
        assert len(memo) == 1

    def test_distinct_from_lru_evictions(self):
        memo = ResultMemo(max_entries=1)
        memo.store("fp", [1], ["a"])
        memo.store("fp", [2], ["b"])  # LRU eviction
        memo.invalidate_fingerprint("fp")  # write-path invalidation
        assert memo.evictions == 1
        assert memo.invalidations == 1

    def test_emits_invalidate_coalesce_event(self):
        from repro.obs import MemorySink, Recorder

        sink = MemorySink()
        memo = ResultMemo(recorder=Recorder([sink]))
        memo.store("fp", [1], ["a"])
        memo.store("fp", [2], ["b"])
        memo.invalidate_fingerprint("fp")
        events = [
            e for e in sink.events_of_kind("coalesce")
            if e.memo == "invalidate"
        ]
        assert len(events) == 1
        assert events[0].size == 2  # entries dropped, not indices


class _WatchedEntries(OrderedDict):
    """An entry store that records every key its iteration yields."""

    def __iter__(self):
        for key in super().__iter__():
            self.iterated.append(key)
            yield key


class TestInvalidationCost:
    """Counts only, no timing: one bounded memo shared by every lane
    (README, "Running the daemon") must not make each sketch insert pay
    for the oracle lanes' entries."""

    def test_foreign_entries_are_never_iterated(self):
        memo = ResultMemo(max_entries=50_000)
        for i in range(2_000):
            memo.store("oracle-lane", [i], [i])
        for i in range(5):
            memo.store("sketch-lane", [i], [i])
        watched = _WatchedEntries(memo._entries)
        watched.iterated = []
        memo._entries = watched
        assert memo.invalidate_fingerprint("sketch-lane") == 5
        assert [k for k in watched.iterated if k[0] != "sketch-lane"] == []
        assert len(memo) == 2_000
        assert memo.lookup("oracle-lane", [7]) == [7]


ops = st.lists(
    st.tuples(
        st.sampled_from(["store", "lookup", "invalidate"]),
        st.sampled_from(["fpA", "fpB", "fpC"]),
        st.integers(0, 4),
    ),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(ops=ops, bound=st.sampled_from([None, 1, 2, 5]))
def test_invalidation_matches_a_scan_under_eviction(ops, bound):
    """The fingerprint index follows every store, LRU eviction and
    invalidation: each answer and count equals a scan of a plain LRU."""
    memo = ResultMemo(max_entries=bound)
    model = OrderedDict()
    for op, fp, i in ops:
        key = (fp, (i,))
        if op == "store":
            memo.store(fp, [i], [i])
            model[key] = i
            model.move_to_end(key)
            if bound is not None and len(model) > bound:
                model.popitem(last=False)
        elif op == "lookup":
            expected = [model[key]] if key in model else None
            if key in model:
                model.move_to_end(key)
            assert memo.lookup(fp, [i]) == expected
        else:
            stale = [k for k in model if k[0] == fp]
            for k in stale:
                del model[k]
            assert memo.invalidate_fingerprint(fp) == len(stale)
        assert len(memo) == len(model)

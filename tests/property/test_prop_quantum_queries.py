"""Property-based tests: quantum laws and query-algorithm invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.quantum import grover as exact_grover
from repro.quantum.deutsch_jozsa import classify
from repro.queries.grover import find_one, marked_subset_fraction
from repro.queries.ledger import QueryLedger
from repro.queries.minimum import find_minimum
from repro.queries.oracle import StringOracle

FAST = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestGroverLawProperty:
    @FAST
    @given(
        st.integers(min_value=2, max_value=6),
        st.data(),
        st.integers(min_value=0, max_value=5),
    )
    def test_statevector_matches_closed_form(self, num_qubits, data, iterations):
        n_items = 1 << num_qubits
        t = data.draw(st.integers(min_value=1, max_value=n_items - 1))
        marked = set(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_items - 1),
                    min_size=t, max_size=t, unique=True,
                )
            )
        )
        exact = exact_grover.success_probability(num_qubits, marked, iterations)
        theory = exact_grover.theoretical_success_probability(
            n_items, len(marked), iterations
        )
        assert abs(exact - theory) < 1e-9


class TestSubsetFractionProperty:
    @FAST
    @given(
        st.integers(min_value=2, max_value=10**4),
        st.data(),
    )
    def test_fraction_in_unit_interval_and_monotone(self, k, data):
        t = data.draw(st.integers(min_value=0, max_value=k))
        p = data.draw(st.integers(min_value=1, max_value=k))
        f = marked_subset_fraction(k, t, p)
        assert 0.0 <= f <= 1.0
        if t > 0:
            f_more = marked_subset_fraction(k, min(t + 1, k), p)
            assert f_more >= f - 1e-12


class TestDeutschJozsaProperty:
    @FAST
    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_balanced_strings_always_balanced(self, q, data):
        k = 1 << q
        ones = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=k - 1),
                min_size=k // 2, max_size=k // 2, unique=True,
            )
        )
        bits = [1 if i in set(ones) else 0 for i in range(k)]
        assert classify(bits) == "balanced"

    @FAST
    @given(st.integers(min_value=1, max_value=6), st.booleans())
    def test_constant_strings_always_constant(self, q, ones):
        bits = [int(ones)] * (1 << q)
        assert classify(bits) == "constant"


class TestQueryAlgorithmInvariants:
    @FAST
    @given(
        st.integers(min_value=8, max_value=256),
        st.integers(min_value=1, max_value=32),
        st.data(),
    )
    def test_find_one_never_lies(self, k, p, data):
        """If find_one reports an index, that index is truly marked."""
        t = data.draw(st.integers(min_value=0, max_value=3))
        marked = set(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=k - 1),
                    min_size=min(t, k), max_size=min(t, k), unique=True,
                )
            )
        )
        values = [1 if i in marked else 0 for i in range(k)]
        oracle = StringOracle(values, QueryLedger(p))
        seed = data.draw(st.integers(min_value=0, max_value=100))
        out = find_one(oracle, lambda v: v == 1, np.random.default_rng(seed))
        if out.found:
            assert out.index in marked
        if not marked:
            assert not out.found

    @FAST
    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=4, max_size=200),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=50),
    )
    def test_minimum_outcome_is_real_value(self, values, p, seed):
        """The reported (index, value) pair is always consistent."""
        oracle = StringOracle(values, QueryLedger(p))
        out = find_minimum(oracle, np.random.default_rng(seed))
        assert values[out.index] == out.value

    @FAST
    @given(
        st.integers(min_value=8, max_value=128),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=20),
    )
    def test_ledger_batches_never_exceed_parallelism(self, k, p, seed):
        values = list(range(k))
        oracle = StringOracle(values, QueryLedger(p))
        find_minimum(oracle, np.random.default_rng(seed))
        assert all(r.size <= p for r in oracle.ledger.records)

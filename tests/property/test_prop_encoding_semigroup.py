"""Property-based tests: payload encoding and semigroup laws."""

from hypothesis import given
from hypothesis import strategies as st

from repro.congest.encoding import Field, bits_for_domain, payload_bits, unwrap
from repro.core.semigroup import (
    max_semigroup,
    min_semigroup,
    sum_semigroup,
    xor_semigroup,
)


class TestEncodingProperties:
    @given(st.integers(min_value=1, max_value=10**9))
    def test_bits_for_domain_covers_domain(self, domain):
        bits = bits_for_domain(domain)
        assert (1 << bits) >= domain
        # One bit fewer would not cover (except the degenerate domain 1).
        if domain > 2:
            assert (1 << (bits - 1)) < domain

    @given(st.integers(min_value=1, max_value=10**6), st.data())
    def test_field_bits_independent_of_value(self, domain, data):
        v1 = data.draw(st.integers(min_value=0, max_value=domain - 1))
        v2 = data.draw(st.integers(min_value=0, max_value=domain - 1))
        assert Field(v1, domain).bits == Field(v2, domain).bits

    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=8))
    def test_tuple_bits_additive(self, values):
        fields = tuple(Field(v, 256) for v in values)
        assert payload_bits(fields) == 8 * len(values)

    @given(st.lists(st.integers(min_value=0, max_value=99), max_size=6))
    def test_unwrap_roundtrip(self, values):
        wrapped = tuple(Field(v, 100) for v in values)
        assert unwrap(wrapped) == tuple(values)


SEMIGROUPS = {
    "sum": sum_semigroup(10**6),
    "xor": xor_semigroup(16),
    "max": max_semigroup(10**4),
    "min": min_semigroup(10**4),
}

elements = st.integers(min_value=0, max_value=10**4)


class TestSemigroupLaws:
    @given(st.sampled_from(sorted(SEMIGROUPS)), elements, elements)
    def test_commutativity(self, name, a, b):
        sg = SEMIGROUPS[name]
        assert sg.combine(a, b) == sg.combine(b, a)

    @given(st.sampled_from(sorted(SEMIGROUPS)), elements, elements, elements)
    def test_associativity(self, name, a, b, c):
        sg = SEMIGROUPS[name]
        assert sg.combine(sg.combine(a, b), c) == sg.combine(a, sg.combine(b, c))

    @given(st.sampled_from(sorted(SEMIGROUPS)), elements)
    def test_identity(self, name, a):
        sg = SEMIGROUPS[name]
        assert sg.combine(sg.identity, a) == a

    @given(
        st.sampled_from(sorted(SEMIGROUPS)),
        st.lists(elements, min_size=1, max_size=20),
    )
    def test_fold_order_independent(self, name, values):
        sg = SEMIGROUPS[name]
        assert sg.fold(values) == sg.fold(list(reversed(values)))

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30))
    def test_sum_fold_is_sum(self, values):
        assert sum_semigroup(10**5).fold(values) == sum(values)

"""Unit tests for message payload bit accounting."""

import pytest

from repro.congest.encoding import Field, bits_for_domain, payload_bits, unwrap


class TestBitsForDomain:
    def test_domain_one(self):
        assert bits_for_domain(1) == 1

    def test_domain_two(self):
        assert bits_for_domain(2) == 1

    def test_domain_three_rounds_up(self):
        assert bits_for_domain(3) == 2

    def test_power_of_two(self):
        assert bits_for_domain(1024) == 10

    def test_power_of_two_plus_one(self):
        assert bits_for_domain(1025) == 11

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            bits_for_domain(0)


class TestField:
    def test_bits_match_domain(self):
        assert Field(5, domain=100).bits == 7

    def test_value_out_of_domain(self):
        with pytest.raises(ValueError):
            Field(100, domain=100)

    def test_negative_value(self):
        with pytest.raises(ValueError):
            Field(-1, domain=10)

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            Field(0, domain=0)

    def test_zero_in_domain_one(self):
        assert Field(0, domain=1).bits == 1


class TestPayloadBits:
    def test_none_is_one_bit(self):
        assert payload_bits(None) == 1

    def test_bool_is_one_bit(self):
        assert payload_bits(True) == 1
        assert payload_bits(False) == 1

    def test_bare_int_charges_magnitude_plus_sign(self):
        assert payload_bits(0) == 2
        assert payload_bits(7) == 4
        assert payload_bits(-7) == 4

    def test_float_is_64_bits(self):
        assert payload_bits(3.14) == 64

    def test_string_is_8_bits_per_char(self):
        assert payload_bits("ab") == 16

    def test_tuple_sums_elements(self):
        payload = (Field(1, 16), Field(3, 8))
        assert payload_bits(payload) == 4 + 3

    def test_nested_structure(self):
        payload = (Field(1, 4), (True, Field(0, 2)))
        assert payload_bits(payload) == 2 + 1 + 1

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            payload_bits(object())

    def test_field_charges_domain_not_value(self):
        assert payload_bits(Field(0, domain=1 << 20)) == 20


class TestUnwrap:
    def test_field_unwraps_to_value(self):
        assert unwrap(Field(9, 16)) == 9

    def test_tuple_unwraps_recursively(self):
        assert unwrap((Field(1, 4), Field(2, 4))) == (1, 2)

    def test_list_unwraps(self):
        assert unwrap([Field(1, 4), 5]) == [1, 5]

    def test_plain_passthrough(self):
        assert unwrap(42) == 42
        assert unwrap("x") == "x"


class TestPayloadBitsMemo:
    """The payload_bits cache must never conflate distinct payloads."""

    def test_repeated_field_payloads_are_stable(self):
        for _ in range(3):
            assert payload_bits(Field(3, 8)) == 3
            assert payload_bits((Field(1, 16), Field(3, 8))) == 7

    def test_cross_type_equality_is_not_conflated(self):
        # 1 == True == 1.0 in Python, but their wire sizes differ; the
        # memo must keep them apart (it only caches Field-based payloads).
        assert payload_bits(True) == 1
        assert payload_bits(1) == 2
        assert payload_bits(1.0) == 64
        assert payload_bits((True, Field(0, 4))) == 1 + 2
        assert payload_bits((1, Field(0, 4))) == 2 + 2
        assert payload_bits((1.0, Field(0, 4))) == 64 + 2

    def test_str_and_none_elements_cacheable(self):
        payload = (Field(2, 4), "ab", None)
        expected = 2 + 16 + 1
        assert payload_bits(payload) == expected
        assert payload_bits((Field(2, 4), "ab", None)) == expected

    def test_equal_fields_share_entries(self):
        # Same (value, domain) via distinct objects: still one answer.
        assert payload_bits(Field(5, 32)) == payload_bits(Field(5, 32)) == 5

"""Unit tests for payload bit-size accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import DEFAULT_BANDWIDTH_BITS
from repro.kmachine.reliable import Envelope
from repro.kmachine.sizing import DEFAULT_POLICY, HEADER_BITS, SizingPolicy, payload_bits
from repro.points.ids import Keyed


class TestScalarSizing:
    def test_none_costs_one_bit(self):
        assert DEFAULT_POLICY.measure(None) == 1

    def test_bool_costs_one_bit(self):
        assert DEFAULT_POLICY.measure(True) == 1
        assert DEFAULT_POLICY.measure(np.bool_(False)) == 1

    def test_int_costs_one_word(self):
        assert DEFAULT_POLICY.measure(42) == 64
        assert DEFAULT_POLICY.measure(np.int64(7)) == 64

    def test_float_costs_one_word(self):
        assert DEFAULT_POLICY.measure(3.14) == 64
        assert DEFAULT_POLICY.measure(np.float64(0.0)) == 64

    def test_complex_costs_two_words(self):
        assert DEFAULT_POLICY.measure(1 + 2j) == 128

    def test_str_costs_eight_bits_per_char(self):
        assert DEFAULT_POLICY.measure("count") == 40

    def test_bytes_costs_eight_bits_per_byte(self):
        assert DEFAULT_POLICY.measure(b"abc") == 24


class TestContainerSizing:
    def test_tuple_sums_elements(self):
        assert DEFAULT_POLICY.measure((1.0, 2)) == 128

    def test_nested_structure(self):
        payload = ("op", (1.0, 5), None)
        assert DEFAULT_POLICY.measure(payload) == 16 + 128 + 1

    def test_dict_counts_keys_and_values(self):
        assert DEFAULT_POLICY.measure({"a": 1}) == 8 + 64

    def test_ndarray_costs_size_words(self):
        arr = np.zeros(10)
        assert DEFAULT_POLICY.measure(arr) == 640

    def test_bool_ndarray_costs_one_bit_each(self):
        assert DEFAULT_POLICY.measure(np.zeros(10, dtype=bool)) == 10

    def test_empty_containers_are_free(self):
        assert DEFAULT_POLICY.measure(()) == 0
        assert DEFAULT_POLICY.measure([]) == 0


class TestPolicyConfiguration:
    def test_custom_word_bits(self):
        policy = SizingPolicy(word_bits=32)
        assert policy.measure(1.5) == 32
        assert policy.measure((1, 2, 3)) == 96

    def test_payload_bits_uses_default_policy(self):
        assert payload_bits(7) == 64

    def test_payload_bits_accepts_policy(self):
        assert payload_bits(7, SizingPolicy(word_bits=16)) == 16

    def test_scalar_bits(self):
        assert SizingPolicy(word_bits=48).scalar_bits() == 48

    def test_unknown_object_falls_back_to_one_word(self):
        class Opaque:
            __slots__ = ()

        assert DEFAULT_POLICY.measure(Opaque()) == 64

    def test_object_with_dict_charges_fields(self):
        class Pair:
            def __init__(self):
                self.a = 1.0
                self.b = 2.0

        # keys 'a','b' = 8 bits each + two words
        assert DEFAULT_POLICY.measure(Pair()) == 16 + 128

    def test_keyed_slots_object_charges_fields(self):
        from repro.points.ids import Keyed

        assert DEFAULT_POLICY.measure(Keyed(1.0, 2)) == 128


class _Count(int):
    pass


class _Ratio(float):
    pass


class _Opcode(str):
    pass


class _Pair(tuple):
    pass


#: Bits of every payload shape the protocols send, pinned so the
#: exact-type fast path in ``_measure`` can never drift from the
#: isinstance rules (bools and NumPy scalars are not plain int/float).
PINNED_BITS = [
    ("None", None, 1),
    ("bool", True, 1),
    ("np.bool_", np.bool_(False), 1),
    ("int", 7, 64),
    ("float", 0.5, 64),
    ("np.float64", np.float64(1.5), 64),
    ("np.int64", np.int64(3), 64),
    ("int subclass", _Count(3), 64),
    ("float subclass", _Ratio(0.5), 64),
    ("bools in tuple", (True, False, 1.0), 66),
    ("nested tuples", (1, (2.0, (3, None))), 193),
    ("list of pairs", [(0.5, 7), (0.25, 9)], 256),
    ("tagged tuple with list", ("op", [1, 2.0], np.float64(3.0)), 208),
    ("mixed list", [_Count(1), True, 2, np.int64(4)], 193),
    ("empty nested", ((), []), 0),
    ("slotted pair", Keyed(1.0, 2), 128),
    ("slotted dataclass", Envelope(3, 12345, (1.0, 2)), 256),
    ("float ndarray", np.zeros(5), 320),
    ("bool ndarray", np.zeros(7, dtype=bool), 7),
    ("ndarray in tuple", (np.arange(3), 1.5), 256),
    ("list of Keyed", [Keyed(0.1, 1), Keyed(0.2, 2)], 256),
    ("count query", ("count", (0.5, 3), (0.7, 9)), 296),
    ("count reply", ("count", 5), 104),
    ("init reply", ("init", 5, (0.1, 1), (0.9, 2)), 352),
    # Algorithm 2's certificate report (|S_i|, v1, v2, v3): 256 payload
    # bits, 272 with the header, one message inside B = 512.
    ("certificate report", (16, 0.25, 0.5, 0.75), 256),
    ("empty certificate report", (0, float("inf"), float("inf"), float("inf")), 256),
    ("str subclass in tuple", (_Opcode("pick"), 1.0), 96),
    ("tuple subclass in tuple", ("pick", _Pair((0.5, 3))), 160),
    ("non-word items in inner tuples", ((True, None), ("ab", 2)), 82),
]


@pytest.mark.parametrize(
    "payload,bits", [case[1:] for case in PINNED_BITS], ids=[case[0] for case in PINNED_BITS]
)
def test_pinned_payload_bits(payload, bits):
    assert DEFAULT_POLICY.measure(payload) == bits


def test_certificate_report_fits_one_message():
    report = (16, 0.25, 0.5, 0.75)
    assert DEFAULT_POLICY.measure(report) + HEADER_BITS == 272 <= DEFAULT_BANDWIDTH_BITS

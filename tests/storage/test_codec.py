"""Unit and property tests for the binary codecs."""

from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import assume, given, strategies as st

from repro.storage.codec import (
    decode_varint,
    decode_varint_list,
    decode_varint_run,
    encode_length_prefixed,
    encode_varint,
    encode_varint_list,
    varint_size,
)
from tests.coding.recordkit import delta_gaps


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 255, 300, 2**20, 2**40])
    def test_round_trip(self, value: int) -> None:
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_negative_rejected(self) -> None:
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_rejected(self) -> None:
        with pytest.raises(ValueError):
            decode_varint(b"\x80")

    def test_small_values_are_one_byte(self) -> None:
        assert len(encode_varint(0)) == 1
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    @given(st.integers(min_value=0, max_value=2**62))
    def test_round_trip_property(self, value: int) -> None:
        decoded, _ = decode_varint(encode_varint(value))
        assert decoded == value

    @given(st.lists(st.integers(min_value=0, max_value=2**32), max_size=50))
    def test_list_round_trip_property(self, values: list[int]) -> None:
        data = encode_varint_list(values)
        decoded, _ = decode_varint_list(data, len(values))
        assert decoded == values

    @given(st.lists(st.one_of(st.integers(0, 127), st.integers(0, 2**40)), max_size=50))
    def test_batch_writer_is_the_scalar_writer_concatenated(self, values: list[int]) -> None:
        # One-byte runs take the ``bytes(values)`` path, anything else the loop.
        assert encode_varint_list(values) == b"".join(map(encode_varint, values))
        assert all(varint_size(value) == len(encode_varint(value)) for value in values)

    @pytest.mark.parametrize("values", [[3, -1], [-1], [300, -2]])
    def test_batch_writer_rejects_negatives(self, values: list[int]) -> None:
        with pytest.raises(ValueError):
            encode_varint_list(values)


class TestVarintRun:
    def test_single_byte_run_is_the_bytes_slice_itself(self) -> None:
        data = b"\x05" + bytes([0, 1, 127, 64])
        run = decode_varint_run(data, 1)
        assert isinstance(run, bytes) and list(run) == [0, 1, 127, 64]
        assert run[1::2] == bytes([1, 64])  # columns are strided slices

    def test_a_bytearray_run_is_a_bytearray_slice_or_a_list(self) -> None:
        # A live delta's list is a bytearray: its one-byte runs come back as
        # a bytearray, not bytes, and only a wide run is a list.
        run = decode_varint_run(bytearray(b"\x05" + bytes([0, 1, 127, 64])), 1)
        assert type(run) is bytearray and list(run) == [0, 1, 127, 64]
        wide = decode_varint_run(bytearray(encode_varint_list([3, 300, 1])))
        assert type(wide) is list and wide == [3, 300, 1]

    def test_empty_tail(self) -> None:
        assert len(decode_varint_run(b"\x00", 1)) == 0
        assert len(decode_varint_run(b"")) == 0

    def test_mixed_widths(self) -> None:
        values = [0, 127, 128, 5, 16_383, 16_384, 1, 2**40, 3]
        assert decode_varint_run(encode_varint_list(values)) == values

    def test_truncated_tail_rejected(self) -> None:
        with pytest.raises(ValueError):
            decode_varint_run(encode_varint_list([1, 300])[:-1])

    def test_overlong_varint_rejected(self) -> None:
        with pytest.raises(ValueError):
            decode_varint_run(b"\x80" * 10 + b"\x01")

    @given(
        st.lists(st.integers(min_value=0, max_value=2**62), max_size=60),
        st.integers(min_value=0, max_value=5),
    )
    def test_agrees_with_the_scalar_decoder(self, values: list[int], skip: int) -> None:
        data = encode_varint_list(values)
        offset = 0
        for _ in range(min(skip, len(values))):
            _, offset = decode_varint(data, offset)
        expected, _ = decode_varint_list(data, len(values) - min(skip, len(values)), offset)
        assert list(decode_varint_run(data, offset)) == expected


def padded(value: int, width: int) -> bytes:
    """*value*'s varint stretched to *width* bytes by zero continuation
    groups: a ``width``-byte varint of a value that needs fewer."""
    canonical = encode_varint(value)
    if width <= len(canonical):
        return canonical
    return bytes(byte | 0x80 for byte in canonical) + b"\x80" * (width - len(canonical) - 1) + b"\x00"


#: ``(value, width)``: a value up to 2**63 - 1 and a varint width of 1-10
#: bytes, its canonical width when that is wider.
wide_varints = st.tuples(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=1, max_value=10))


class TestWideRun:
    """The slow path of :func:`decode_varint_run`, over runs that mix one-
    to ten-byte varints."""

    @given(st.lists(wide_varints, min_size=1, max_size=40))
    def test_a_mixed_run_decodes_to_its_values(self, cases: list[tuple[int, int]]) -> None:
        values = [value for value, _ in cases]
        assert list(decode_varint_run(encode_varint_list(values))) == values
        assert list(decode_varint_run(b"".join(padded(value, width) for value, width in cases))) == values

    @given(st.lists(wide_varints, min_size=1, max_size=20), st.data())
    def test_a_run_cut_inside_a_varint_is_truncated(self, cases: list[tuple[int, int]], data) -> None:
        run = b"".join(padded(value, width) for value, width in cases)
        inside = [cut for cut in range(1, len(run)) if run[cut - 1] & 0x80]
        assume(inside)  # every varint one byte long leaves no cut inside one
        with pytest.raises(ValueError, match="truncated varint"):
            decode_varint_run(run[: data.draw(st.sampled_from(inside))])

    @given(st.lists(wide_varints, max_size=20), st.integers(min_value=0, max_value=2**63 - 1), st.data())
    def test_an_eleven_byte_varint_is_too_long(self, cases: list[tuple[int, int]], long: int, data) -> None:
        pieces = [padded(value, width) for value, width in cases]
        pieces.insert(data.draw(st.integers(min_value=0, max_value=len(pieces))), padded(long, 11))
        with pytest.raises(ValueError, match="varint too long"):
            decode_varint_run(b"".join(pieces))


def encode_delta_list(values: list[int]) -> bytes:
    """Count, first value, gaps: a posting body of one-value rows, as the codings write it."""
    return encode_varint(len(values)) + encode_varint_list(delta_gaps(values))


def decode_delta_list(data: bytes) -> list[int]:
    """Read an :func:`encode_delta_list` value the way the filter coding does."""
    count, offset = decode_varint(data)
    values = list(accumulate(decode_varint_run(data, offset)))
    assert len(values) == count
    return values


class TestDeltaList:
    def test_round_trip(self) -> None:
        values = [1, 1, 4, 9, 9, 120]
        decoded = decode_delta_list(encode_delta_list(values))
        assert decoded == values

    def test_empty(self) -> None:
        decoded = decode_delta_list(encode_delta_list([]))
        assert decoded == []

    def test_decreasing_rejected(self) -> None:
        with pytest.raises(ValueError):
            encode_delta_list([5, 3])

    @given(st.lists(st.integers(min_value=0, max_value=2**30), max_size=100).map(sorted))
    def test_round_trip_property(self, values: list[int]) -> None:
        decoded = decode_delta_list(encode_delta_list(values))
        assert decoded == values

    def test_compression_beats_fixed_width(self) -> None:
        values = list(range(0, 4000, 3))
        assert len(encode_delta_list(values)) < 4 * len(values)


class TestOtherCodecs:
    @given(st.binary(max_size=200))
    def test_length_prefixed_property(self, payload: bytes) -> None:
        length, offset = decode_varint(encode_length_prefixed(payload), 0)
        assert length == len(payload) and encode_length_prefixed(payload)[offset:] == payload

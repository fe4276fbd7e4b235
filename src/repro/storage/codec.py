"""Binary encoding helpers shared by the storage and coding layers.

Posting lists are stored as delta-compressed varint sequences, the standard
inverted-index technique; index keys and page records use the same varint
primitives.  Keeping the codecs in one module makes the byte-level format of
the index auditable and easy to test exhaustively.
"""

from __future__ import annotations

import struct
from itertools import chain
from operator import sub
from typing import Iterable, List, Sequence, Tuple

_UINT32 = struct.Struct("<I")


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128-style varint."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def varint_size(value: int) -> int:
    """Bytes :func:`encode_varint` spends on *value*, without encoding it."""
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint from *data* starting at *offset*.

    Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    index = offset
    while True:
        if index >= len(data):
            raise ValueError("truncated varint")
        byte = data[index]
        index += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, index
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def decode_varint_run(data: bytes, offset: int = 0) -> Sequence[int]:
    """Decode every varint from *offset* to the end of *data* in one pass.

    Posting bodies are almost entirely one-byte varints (tid gaps, pre/post
    numbers and levels below 128), and a one-byte varint is its own value:
    when no byte of the tail has the continuation bit set the ``bytes`` slice
    itself is returned -- indexing, iterating and strided slicing it yield
    the integers with no per-value work.  Otherwise the values are decoded
    into a list.  A trailing unterminated varint raises ``ValueError``.
    """
    tail = data[offset:]
    if tail.isascii():
        return tail
    values: List[int] = []
    result = shift = 0
    for byte in tail:
        if byte & 0x80:
            result |= (byte & 0x7F) << shift
            shift += 7
            if shift > 63:
                raise ValueError("varint too long")
        else:
            values.append(result | (byte << shift))
            result = shift = 0
    if shift:
        raise ValueError("truncated varint")
    return values


def encode_varint_list(values: Sequence[int]) -> bytes:
    """Encode a sequence of non-negative integers as concatenated varints.

    The writer half of :func:`decode_varint_run`: a value below 128 is its
    own one-byte varint, so when every value is (true of nearly all posting
    bodies) the whole run is one ``bytes(values)``.
    """
    try:
        run = bytes(values)
        if run.isascii():
            return run
    except ValueError:  # a value outside 0..255: multi-byte, or negative and refused below
        pass
    out = bytearray()
    for value in values:
        if 0 <= value < 0x80:
            out.append(value)
        else:
            out += encode_varint(value)
    return bytes(out)


# Nothing in the package calls this: it is the scalar reference that the
# tests hold decode_varint_run to.
def decode_varint_list(data: bytes, count: int, offset: int = 0) -> Tuple[List[int], int]:
    """Decode *count* varints from *data*; returns ``(values, next_offset)``."""
    values: List[int] = []
    for _ in range(count):
        value, offset = decode_varint(data, offset)
        values.append(value)
    return values, offset


def delta_gaps(sorted_values: Sequence[int]) -> List[int]:
    """The gaps of a non-decreasing sequence, the first measured from zero."""
    gaps = list(map(sub, sorted_values, chain((0,), sorted_values)))
    if min(gaps, default=0) < 0:
        raise ValueError("delta encoding requires a non-decreasing sequence")
    return gaps


def encode_uint32_list(values: Iterable[int]) -> bytes:
    """Encode integers as fixed-width little-endian uint32 (page pointers)."""
    return b"".join(_UINT32.pack(value) for value in values)


def decode_uint32_list(data: bytes) -> List[int]:
    """Decode a byte string of packed uint32 values."""
    if len(data) % 4:
        raise ValueError("uint32 list payload must be a multiple of 4 bytes")
    return [_UINT32.unpack_from(data, offset)[0] for offset in range(0, len(data), 4)]


def encode_length_prefixed(payload: bytes) -> bytes:
    """Prefix *payload* with its varint-encoded length."""
    return encode_varint(len(payload)) + payload

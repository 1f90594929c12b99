"""On-disk encodings shared by the SSTable, WAL, and manifest.

Every persisted unit is a *frame*::

    <u32 crc32(payload)> <u32 len(payload)> <payload>

so torn and corrupted writes are detected at the first read: a frame
whose length runs past the file or whose CRC mismatches is rejected
(``FrameError``), and sequential readers (the WAL) treat it as
end-of-log.  This is the checksummed-block discipline of the
FB+-tree / RocksDB file formats.

Values are typed, not pickled: the durable engine stores ints, bytes,
UTF-8 strings, and tombstones, each encoded as one tag byte plus a
body (:func:`encode_value`).  Anything else raises ``TypeError`` at
write time — a storage format must not silently depend on pickle.

An SSTable block is one frame over a *columnar* payload::

    <u32 n> <u32 key_len x n> <u32 val_len x n> <key 0>...<key n-1>
    <encoded value 0>...<encoded value n-1>

The two length columns lead, so :func:`decode_block` cuts every key
and encoded value with C-level slicing and validates the value column
(tags, int and tombstone widths) from its first bytes alone.
Compaction moves ``(key, encoded value)`` slices from old blocks into
new ones without ever building the Python values; only reads pay for
:func:`decode_values`.
"""

from __future__ import annotations

import struct
import zlib
from itertools import accumulate
from typing import Any, Sequence

#: Marker value for deletions (RocksDB tombstones).  Defined here, at
#: the bottom of the lsm import graph, and re-exported by
#: :mod:`repro.lsm.sstable` for the public API.
TOMBSTONE = object()

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_FRAME_HEADER = struct.Struct("<II")

#: Value-codec tags.
_VAL_TOMBSTONE = 0
_VAL_INT = 1
_VAL_BYTES = 2
_VAL_STR = 3
#: The encoded form of :data:`TOMBSTONE` — what an encoded-entry merge
#: compares against to drop deletions without decoding values.
ENCODED_TOMBSTONE = bytes([_VAL_TOMBSTONE])
_INT_TAG = bytes([_VAL_INT])
_BYTES_TAG = bytes([_VAL_BYTES])
_VALID_TAGS = bytes([_VAL_TOMBSTONE, _VAL_INT, _VAL_BYTES, _VAL_STR])

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class FrameError(ValueError):
    """A frame failed its length or CRC check (torn/corrupt write)."""


# -- value codec -------------------------------------------------------------


def encode_value(value: Any) -> bytes:
    """Encode a storable value (int / bytes / str / TOMBSTONE)."""
    if value is TOMBSTONE:
        return ENCODED_TOMBSTONE
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("durable LSM values must be int, bytes, or str")
    if isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise TypeError("int values must fit in a signed 64-bit word")
        return bytes([_VAL_INT]) + struct.pack("<q", value)
    if isinstance(value, bytes):
        return _BYTES_TAG + value
    if isinstance(value, str):
        return bytes([_VAL_STR]) + value.encode("utf-8")
    raise TypeError(
        f"durable LSM values must be int, bytes, or str (got {type(value).__name__})"
    )


def decode_value(data: bytes) -> Any:
    if not data:
        raise FrameError("empty value encoding")
    tag = data[0]
    if tag == _VAL_TOMBSTONE:
        return TOMBSTONE
    if tag == _VAL_INT:
        if len(data) != 9:
            raise FrameError("bad int value length")
        return struct.unpack("<q", data[1:])[0]
    if tag == _VAL_BYTES:
        return data[1:]
    if tag == _VAL_STR:
        return data[1:].decode("utf-8")
    raise FrameError(f"unknown value tag {tag}")


# -- frames ------------------------------------------------------------------


def frame(payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(zlib.crc32(payload), len(payload)) + payload


def read_frame(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Decode one frame at ``offset``; returns (payload, next_offset).

    Raises :class:`FrameError` on truncation or checksum mismatch.
    """
    if offset + _FRAME_HEADER.size > len(data):
        raise FrameError("truncated frame header")
    crc, length = _FRAME_HEADER.unpack_from(data, offset)
    start = offset + _FRAME_HEADER.size
    payload = data[start : start + length]
    if len(payload) != length:
        raise FrameError("truncated frame payload")
    if zlib.crc32(payload) != crc:
        raise FrameError("frame CRC mismatch")
    return payload, start + length


# -- entry blocks ------------------------------------------------------------


def encode_values(values: Sequence[Any]) -> list[bytes]:
    """:func:`encode_value` over a column (bytes values take a fast path)."""
    return [
        _BYTES_TAG + v if type(v) is bytes else encode_value(v) for v in values
    ]


def decode_values(encoded: Sequence[bytes]) -> list[Any]:
    """:func:`decode_value` over a column (bytes values take a fast path)."""
    return [v[1:] if v[0] == _VAL_BYTES else decode_value(v) for v in encoded]


def encode_block(keys: Sequence[bytes], values: Sequence[bytes]) -> bytes:
    """One SSTable block from a key column and an *encoded* value column.

    Columnar payload, one CRC frame::

        <u32 n> <u32 key_len x n> <u32 val_len x n> <keys> <values>

    ``values`` are :func:`encode_value` outputs — either fresh from
    :func:`encode_values` (a flush) or sliced unchanged out of older
    blocks by :func:`decode_block` (a compaction).
    """
    n = len(keys)
    header = struct.pack(f"<{2 * n + 1}I", n, *map(len, keys), *map(len, values))
    return frame(header + b"".join(keys) + b"".join(values))


def decode_block(data) -> tuple[list[bytes], list[bytes]]:
    """Inverse of :func:`encode_block`: ``(keys, encoded values)``.

    Everything is checked before a slice is returned: the frame CRC and
    length, that the length columns account for the payload exactly
    (no truncation, no trailing bytes), and per value column that every
    value is non-empty with a known tag, every int has an 8-byte body
    and every tombstone is the bare tag.  Values are *not* decoded — compaction
    copies them as they are; :func:`decode_values` types them for reads.

    Accepts any bytes-like input (including a ``memoryview`` slice of
    an mmap'd table file); the returned slices are always materialized
    ``bytes`` objects so they never alias the caller's buffer.
    """
    payload, _ = read_frame(data)
    if not isinstance(payload, bytes):
        payload = bytes(payload)
    size = len(payload)
    if size < 4:
        raise FrameError("truncated block header")
    (n,) = _U32.unpack_from(payload, 0)
    start = 4 + 8 * n
    if start > size:
        raise FrameError("truncated block header")
    lengths = struct.unpack_from(f"<{2 * n}I", payload, 4)
    offsets = list(accumulate(lengths, initial=start))
    if offsets[-1] > size:
        raise FrameError("truncated block payload")
    if offsets[-1] != size:
        raise FrameError("trailing bytes in block payload")
    val_lengths = lengths[n:]
    if 0 in val_lengths:
        raise FrameError("empty value encoding")
    cells = [payload[a:b] for a, b in zip(offsets, offsets[1:])]
    tags = bytes([payload[o] for o in offsets[n:-1]])
    if tags.translate(None, _VALID_TAGS):
        raise FrameError("unknown value tag")
    if ENCODED_TOMBSTONE in tags or _INT_TAG in tags:
        for tag, length in zip(tags, val_lengths):
            if tag == _VAL_INT and length != 9:
                raise FrameError("bad int value length")
            if tag == _VAL_TOMBSTONE and length != 1:
                raise FrameError("bad tombstone length")
    return cells[:n], cells[n:]


# -- length-prefixed byte strings (for footers / manifests) ------------------


def pack_bytes(b: bytes) -> bytes:
    return _U32.pack(len(b)) + b


def unpack_bytes(data: bytes, offset: int) -> tuple[bytes, int]:
    (n,) = _U32.unpack_from(data, offset)
    offset += 4
    out = data[offset : offset + n]
    if len(out) != n:
        raise FrameError("truncated byte string")
    return out, offset + n


def pack_u64(v: int) -> bytes:
    return _U64.pack(v)


def unpack_u64(data: bytes, offset: int) -> tuple[int, int]:
    return _U64.unpack_from(data, offset)[0], offset + 8

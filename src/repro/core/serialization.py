"""Compact binary codec for vizketch summaries.

Hillview requires every summary to be serializable for network transmission
(paper §5.5 step 1) and its evaluation reports the bytes received by the
root node (Figure 5, bottom).  This codec provides a deterministic, compact
wire format so the reproduction can account bytes faithfully:

* unsigned/signed varints (LEB128 with zigzag for signed values);
* IEEE-754 float64;
* length-prefixed UTF-8 strings;
* homogeneous numpy arrays (dtype tag + raw little-endian bytes).

The format is intentionally simple — it is a measurement instrument, not an
interchange standard.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable

import numpy as np

from repro.errors import SerializationError

_FLOAT64 = struct.Struct("<d")

# dtype tags for array encoding; stable across platforms.
_DTYPE_TAGS: dict[str, int] = {
    "float64": 0,
    "int64": 1,
    "int32": 2,
    "uint8": 3,
    "bool": 4,
    "float32": 5,
    "uint16": 6,
    "uint32": 7,
}
_TAG_DTYPES = {tag: np.dtype(name) for name, tag in _DTYPE_TAGS.items()}


class Encoder:
    """Append-only binary encoder."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []
        self._size = 0

    def _append(self, chunk: bytes) -> None:
        self._parts.append(chunk)
        self._size += len(chunk)

    @property
    def size(self) -> int:
        """Number of bytes written so far."""
        return self._size

    def to_bytes(self) -> bytes:
        return b"".join(self._parts)

    def write_uvarint(self, value: int) -> None:
        if value < 0:
            raise SerializationError(f"uvarint cannot encode negative {value}")
        out = bytearray()
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
        self._append(bytes(out))

    def write_int(self, value: int) -> None:
        """Signed integer via zigzag + uvarint."""
        self.write_uvarint(value * 2 if value >= 0 else -value * 2 - 1)

    def write_bool(self, value: bool) -> None:
        self._append(b"\x01" if value else b"\x00")

    def write_float(self, value: float) -> None:
        self._append(_FLOAT64.pack(float(value)))

    def write_str(self, value: str | None) -> None:
        """A string, or None encoded as a distinguished length marker."""
        if value is None:
            self.write_uvarint(0)
            return
        raw = value.encode("utf-8")
        self.write_uvarint(len(raw) + 1)
        self._append(raw)

    def write_bytes(self, value: bytes) -> None:
        self.write_uvarint(len(value))
        self._append(value)

    def write_array(self, array: np.ndarray) -> None:
        """A homogeneous numpy array (any shape; shape is preserved)."""
        arr = np.ascontiguousarray(array)
        name = arr.dtype.name
        if name not in _DTYPE_TAGS:
            raise SerializationError(f"unsupported array dtype {name!r}")
        self.write_uvarint(_DTYPE_TAGS[name])
        self.write_uvarint(arr.ndim)
        for dim in arr.shape:
            self.write_uvarint(dim)
        self._append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())

    def write_str_list(self, values: Iterable[str | None]) -> None:
        items = list(values)
        self.write_uvarint(len(items))
        for item in items:
            self.write_str(item)


class Decoder:
    """Sequential binary decoder matching :class:`Encoder`.

    ``data`` may be ``bytes`` or any buffer (``memoryview``, ``mmap``).
    With ``zero_copy=True``, :meth:`read_array` returns read-only views
    into the underlying buffer instead of heap copies; the views keep the
    buffer (and any backing mmap) alive through their ``.base`` chain.
    """

    def __init__(self, data, zero_copy: bool = False) -> None:
        self._data = data if isinstance(data, bytes) else memoryview(data)
        self._pos = 0
        self._zero_copy = zero_copy

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, count: int):
        if self._pos + count > len(self._data):
            raise SerializationError("unexpected end of encoded data")
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def read_uvarint(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self._take(1)[0]
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise SerializationError("uvarint too long")

    def read_int(self) -> int:
        raw = self.read_uvarint()
        return (raw >> 1) ^ -(raw & 1)

    def read_bool(self) -> bool:
        return self._take(1)[0] == 1

    def read_float(self) -> float:
        return _FLOAT64.unpack(self._take(8))[0]

    def read_str(self) -> str | None:
        length = self.read_uvarint()
        if length == 0:
            return None
        return bytes(self._take(length - 1)).decode("utf-8")

    def read_bytes(self) -> bytes:
        return bytes(self._take(self.read_uvarint()))

    def read_array(self, dtype: np.dtype | None = None) -> np.ndarray:
        """An array written by :meth:`Encoder.write_array`; ``dtype``
        converts it (always to a fresh array)."""
        tag = self.read_uvarint()
        if tag not in _TAG_DTYPES:
            raise SerializationError(f"unknown array dtype tag {tag}")
        stored = _TAG_DTYPES[tag]
        ndim = self.read_uvarint()
        if ndim > self.remaining:
            raise SerializationError(f"array of {ndim} dimensions is truncated")
        shape = tuple(self.read_uvarint() for _ in range(ndim))
        # math.prod is exact: a hostile shape must not wrap around to a
        # plausible size, as it would in int64 arithmetic.
        size = math.prod(shape) * stored.itemsize
        if size > self.remaining:
            raise SerializationError(
                f"array of shape {shape} needs {size} bytes; "
                f"{self.remaining} remain"
            )
        try:
            view = np.frombuffer(
                self._take(size), dtype=stored.newbyteorder("<")
            ).reshape(shape)
        except ValueError as exc:  # an empty array of impossible shape
            raise SerializationError(f"bad array shape {shape}: {exc}") from exc
        if dtype is not None:
            return view.astype(dtype)
        # Zero-copy arrays stay views into the source buffer (read-only;
        # columns never mutate storage), pinning an mmap's pages instead
        # of duplicating them on the heap.
        return view if self._zero_copy else view.copy()

    def read_str_list(self) -> list[str | None]:
        return [self.read_str() for _ in range(self.read_uvarint())]


_VAL_NONE = 0
_VAL_INT = 1
_VAL_FLOAT = 2
_VAL_STR = 3
_VAL_DATE = 4


def write_tagged_value(enc: Encoder, value: object | None) -> None:
    """Encode a cell value with a type tag (None/int/float/str/datetime).

    Used by summaries that carry raw row contents (next-items, find-text,
    heavy hitters), whose cell types vary by column.
    """
    import datetime as _dt

    if value is None:
        enc.write_uvarint(_VAL_NONE)
    elif isinstance(value, bool):
        enc.write_uvarint(_VAL_INT)
        enc.write_int(int(value))
    elif isinstance(value, (int, np.integer)):
        enc.write_uvarint(_VAL_INT)
        enc.write_int(int(value))
    elif isinstance(value, (float, np.floating)):
        enc.write_uvarint(_VAL_FLOAT)
        enc.write_float(float(value))
    elif isinstance(value, str):
        enc.write_uvarint(_VAL_STR)
        enc.write_str(value)
    elif isinstance(value, _dt.datetime):
        from repro.table.column import datetime_to_millis

        enc.write_uvarint(_VAL_DATE)
        enc.write_int(datetime_to_millis(value))
    else:
        raise SerializationError(f"cannot encode value of type {type(value).__name__}")


def read_tagged_value(dec: Decoder) -> object | None:
    """Inverse of :func:`write_tagged_value`."""
    tag = dec.read_uvarint()
    if tag == _VAL_NONE:
        return None
    if tag == _VAL_INT:
        return dec.read_int()
    if tag == _VAL_FLOAT:
        return dec.read_float()
    if tag == _VAL_STR:
        return dec.read_str()
    if tag == _VAL_DATE:
        from repro.table.column import millis_to_datetime

        return millis_to_datetime(dec.read_int())
    raise SerializationError(f"unknown value tag {tag}")


def encoded_size(write) -> int:
    """Size in bytes of the encoding produced by ``write(encoder)``."""
    enc = Encoder()
    write(enc)
    return enc.size

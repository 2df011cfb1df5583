"""Uvarint-framed message framing for the root <-> worker wire.

One frame is a uvarint length prefix (the :mod:`repro.core.serialization`
idiom) followed by that many payload bytes; root and worker processes
(:mod:`repro.engine.remote`) exchange them over TCP.  The reader is a
blocking file-object reader; the caller chooses the exception type raised
on a malformed or truncated frame so each layer reports errors in its own
vocabulary.
"""

from __future__ import annotations

from typing import BinaryIO

from repro.core.serialization import Encoder
from repro.errors import HillviewError

#: Frames larger than this are a protocol violation (a reply payload is
#: resolution-bounded, §4.2; requests are tiny).
MAX_FRAME_BYTES = 32 * 1024 * 1024


class FrameError(HillviewError):
    """A malformed, oversized, or truncated wire frame."""

    code = "framing"


def encode_frame(payload: bytes) -> bytes:
    """One wire frame: uvarint length prefix + payload bytes."""
    enc = Encoder()
    enc.write_bytes(payload)
    return enc.to_bytes()


def read_frame_blocking(
    stream: BinaryIO, error: type[Exception] = FrameError
) -> bytes | None:
    """Read one frame; None on clean EOF at a frame boundary."""
    length = 0
    shift = 0
    while True:
        chunk = stream.read(1)
        if not chunk:
            if shift == 0:
                return None
            raise error("connection closed inside a frame header")
        byte = chunk[0]
        length |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
        if shift > 70:
            raise error("frame header uvarint too long")
    if length > MAX_FRAME_BYTES:
        raise error(f"frame of {length} bytes exceeds the maximum")
    payload = stream.read(length)
    if len(payload) != length:
        raise error("connection closed inside a frame body")
    return payload


def write_frame(stream: BinaryIO, payload: bytes) -> None:
    """Write one frame and flush (blocking endpoints)."""
    stream.write(encode_frame(payload))
    stream.flush()

"""RFC 6455 WebSocket framing — handshake, frames, fragmentation.

Like :mod:`repro.gateway.http`, this is stdlib-only by design.  The
subset implemented is exactly what the gateway protocol uses:

* the opening handshake (``Sec-WebSocket-Accept`` from the client key);
* text (``0x1``), binary (``0x2``), close (``0x8``), ping (``0x9``) and
  pong (``0xA``) frames, with 16- and 64-bit extended lengths;
* client-to-server masking (required by the RFC; the server never masks);
* fragmentation on receive (continuation frames are reassembled; control
  frames may interleave) — the server always sends unfragmented frames.

No extensions (``permessage-deflate`` etc.) are negotiated; the sketch
payloads on this wire are JSON envelopes the size of a rendering, not
bulk data.

Two readers share the decode logic: an asyncio one for the server and a
blocking one for :class:`repro.gateway.client.GatewayWebSocket` (tests,
the CLI and scripted walkthroughs).
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import os
import struct
from dataclasses import dataclass

from repro.errors import HillviewError

#: Fixed GUID from RFC 6455 §1.3: the accept key is
#: ``base64(sha1(client_key + GUID))``.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: A single message (after reassembly) may not exceed this; matches the
#: worker wire's frame ceiling (:mod:`repro.core.framing`), so the
#: gateway never truncates a payload the fleet produced.
MAX_MESSAGE_BYTES = 32 * 1024 * 1024

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_CONTROL_OPS = (OP_CLOSE, OP_PING, OP_PONG)


class WebSocketError(HillviewError):
    """A protocol violation on the WebSocket wire."""

    code = "protocol"


class ConnectionClosed(HillviewError):
    """The peer closed the WebSocket (close frame or EOF)."""

    code = "connection"


def accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's key."""
    digest = hashlib.sha1((client_key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def handshake_response_headers(client_key: str) -> list[tuple[str, str]]:
    """Headers for the ``101 Switching Protocols`` upgrade response."""
    return [
        ("Upgrade", "websocket"),
        ("Connection", "Upgrade"),
        ("Sec-WebSocket-Accept", accept_key(client_key)),
    ]


def client_handshake_key() -> str:
    """A fresh random ``Sec-WebSocket-Key`` (16 bytes, base64)."""
    return base64.b64encode(os.urandom(16)).decode("ascii")


@dataclass(frozen=True)
class Message:
    """One reassembled WebSocket message."""

    opcode: int
    data: bytes

    @property
    def text(self) -> str:
        return self.data.decode("utf-8")


def encode_frame(opcode: int, payload: bytes, mask: bool = False) -> bytes:
    """One unfragmented frame (FIN set).  ``mask=True`` for client→server."""
    if opcode in _CONTROL_OPS and len(payload) > 125:
        raise WebSocketError("control frame payload exceeds 125 bytes")
    head = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack("!H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack("!Q", length)
    if not mask:
        return bytes(head) + payload
    key = os.urandom(4)
    head += key
    return bytes(head) + _unmask(payload, key)


def close_frame(status: int = 1000, reason: str = "", mask: bool = False) -> bytes:
    payload = struct.pack("!H", status) + reason.encode("utf-8")[:123]
    return encode_frame(OP_CLOSE, payload, mask=mask)


def _decode_head(b0: int, b1: int) -> tuple[bool, int, bool, int]:
    """(fin, opcode, masked, base_length) from the first two bytes.

    A control frame's payload is at most 125 bytes (RFC 6455 §5.5), so
    a longer one is refused here, before any of its payload is read."""
    fin = bool(b0 & 0x80)
    if b0 & 0x70:
        raise WebSocketError("reserved frame bits set (no extensions negotiated)")
    opcode = b0 & 0x0F
    masked = bool(b1 & 0x80)
    length = b1 & 0x7F
    if opcode in _CONTROL_OPS and length > 125:
        raise WebSocketError("control frame payload exceeds 125 bytes")
    return fin, opcode, masked, length


def _unmask(payload: bytes, key: bytes) -> bytes:
    """``payload`` XOR the 4-byte ``key`` repeated (RFC 6455 §5.3); it is
    its own inverse, so it also masks.  One big-integer XOR, not a
    Python loop over the bytes."""
    length = len(payload)
    stream = (key * (length // 4 + 1))[:length]
    masked = int.from_bytes(payload, "little") ^ int.from_bytes(stream, "little")
    return masked.to_bytes(length, "little")


async def _read_frame(
    reader: asyncio.StreamReader,
) -> tuple[bool, int, bytes, bool]:
    """One raw frame: (fin, opcode, payload, masked).  Raises on EOF."""
    try:
        head = await reader.readexactly(2)
    except asyncio.IncompleteReadError:
        raise ConnectionClosed("peer closed the WebSocket connection")
    fin, opcode, masked, length = _decode_head(head[0], head[1])
    try:
        if length == 126:
            length = struct.unpack("!H", await reader.readexactly(2))[0]
        elif length == 127:
            length = struct.unpack("!Q", await reader.readexactly(8))[0]
        if length > MAX_MESSAGE_BYTES:
            raise WebSocketError(f"frame of {length} bytes exceeds the message cap")
        key = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise ConnectionClosed("peer closed mid-frame")
    if masked:
        payload = _unmask(payload, key)
    return fin, opcode, payload, masked


async def read_message(
    reader: asyncio.StreamReader, require_masked: bool = True
) -> Message:
    """The next *data or control* message, reassembling fragments.

    Control frames that interleave a fragmented message are returned as
    their own :class:`Message` in arrival order (the caller answers pings
    and notices closes); data fragments accumulate until FIN.  With
    ``require_masked`` (the server side), an unmasked data frame is a
    protocol error per RFC 6455 §5.1.
    """
    buffer = bytearray()
    message_opcode: int | None = None
    while True:
        fin, opcode, payload, masked = await _read_frame(reader)
        if require_masked and not masked:
            raise WebSocketError("client frames must be masked (RFC 6455 §5.1)")
        if opcode in _CONTROL_OPS:
            if not fin:
                raise WebSocketError("fragmented control frame")
            return Message(opcode, bytes(payload))
        if opcode == OP_CONT:
            if message_opcode is None:
                raise WebSocketError("continuation frame with no message in progress")
        elif opcode in (OP_TEXT, OP_BINARY):
            if message_opcode is not None:
                raise WebSocketError("new data frame inside a fragmented message")
            message_opcode = opcode
        else:
            raise WebSocketError(f"unknown opcode 0x{opcode:X}")
        buffer += payload
        if len(buffer) > MAX_MESSAGE_BYTES:
            raise WebSocketError("reassembled message exceeds the message cap")
        if fin:
            return Message(message_opcode, bytes(buffer))


# ---------------------------------------------------------------------------
# Blocking reader (GatewayWebSocket)
# ---------------------------------------------------------------------------
def _recv_exactly(sock, length: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < length:
        chunk = sock.recv(length - len(chunks))
        if not chunk:
            raise ConnectionClosed("peer closed the WebSocket connection")
        chunks += chunk
    return bytes(chunks)


def read_message_blocking(sock) -> Message:
    """Blocking twin of :func:`read_message` over a plain socket."""
    buffer = bytearray()
    message_opcode: int | None = None
    while True:
        head = _recv_exactly(sock, 2)
        fin, opcode, masked, length = _decode_head(head[0], head[1])
        if length == 126:
            length = struct.unpack("!H", _recv_exactly(sock, 2))[0]
        elif length == 127:
            length = struct.unpack("!Q", _recv_exactly(sock, 8))[0]
        if length > MAX_MESSAGE_BYTES:
            raise WebSocketError(f"frame of {length} bytes exceeds the message cap")
        key = _recv_exactly(sock, 4) if masked else b""
        payload = _recv_exactly(sock, length) if length else b""
        if masked:
            payload = _unmask(payload, key)
        if opcode in _CONTROL_OPS:
            if not fin:
                raise WebSocketError("fragmented control frame")
            return Message(opcode, bytes(payload))
        if opcode == OP_CONT:
            if message_opcode is None:
                raise WebSocketError("continuation frame with no message in progress")
        elif opcode in (OP_TEXT, OP_BINARY):
            if message_opcode is not None:
                raise WebSocketError("new data frame inside a fragmented message")
            message_opcode = opcode
        else:
            raise WebSocketError(f"unknown opcode 0x{opcode:X}")
        buffer += payload
        if len(buffer) > MAX_MESSAGE_BYTES:
            raise WebSocketError("reassembled message exceeds the message cap")
        if fin:
            return Message(message_opcode, bytes(buffer))

"""The JSON wire protocol between the browser UI and the web server (§6).

Hillview's browser talks to the web server over a streaming RPC (WebSockets
carrying JSON messages): queries travel down, progressive partial results
travel up.  This module is that protocol, minus the socket: request/reply
envelopes and frame envelopes with binary attachments.

The codecs of the values that cross a wire are not written here, or
anywhere: sketches, summaries, data sources, table maps, lineage ops,
predicates and buckets each declare a field table beside their class,
and :mod:`repro.core.wire` derives every codec from it (sort orders keep
theirs beside :class:`~repro.table.sort.RecordOrder`).  All of them are
re-exported below, so this module stays the one import for everything
that crosses a wire.

The transport-free design is deliberate: :class:`~repro.engine.web.WebServer`
streams replies as an iterator of envelopes, which tests (and a real socket
layer) can consume one message at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import repro.sketches  # noqa: F401 — defining the sketch classes registers them

# The codecs below are re-exported: callers import every wire name from here.
from repro.core.buckets import BUCKET_TYPES
from repro.core.serialization import Decoder, Encoder
from repro.core.wire import (
    cell_from_json,
    cell_to_json,
    dumps,
    loads,
    sketch_from_json,
    sketch_to_json,
    summary_attachment,
    summary_from_bytes,
    summary_from_json,
    summary_json,
    summary_tag,
    summary_to_bytes,
    summary_to_json,
)
from repro.engine.dataset import TABLE_MAPS
from repro.engine.redo_log import LINEAGE
from repro.errors import ProtocolError
from repro.storage.loader import SOURCES
from repro.table.compute import PREDICATES
from repro.table.sort import order_from_json, order_to_json

buckets_to_json, buckets_from_json = BUCKET_TYPES.to_json, BUCKET_TYPES.from_json
predicate_to_json, predicate_from_json = PREDICATES.to_json, PREDICATES.from_json
table_map_to_json, table_map_from_json = TABLE_MAPS.to_json, TABLE_MAPS.from_json
source_to_json, source_from_json = SOURCES.to_json, SOURCES.from_json
lineage_to_json, lineage_from_json = LINEAGE.to_json, LINEAGE.from_json


class UnknownHandleError(ProtocolError):
    """A request referenced a remote object handle nobody knows.

    Distinguished from other protocol errors because a shared service
    loop treats it as a *client* mistake: the error envelope carries the
    ``unknown_handle`` code and the session stays alive (§5.2).
    """

    code = "unknown_handle"


#: A requestId is a signed 64-bit integer on both client wires, so the
#: echo of it in every reply is one too (docs/PROTOCOL.md §2.1).
REQUEST_ID_MIN, REQUEST_ID_MAX = -(1 << 63), (1 << 63) - 1


def check_request_id(request_id: int) -> int:
    """``request_id`` if it lies in the int64 range, else ProtocolError."""
    if not REQUEST_ID_MIN <= request_id <= REQUEST_ID_MAX:
        raise ProtocolError(
            f"requestId {request_id} is outside the signed 64-bit range"
        )
    return request_id


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------
@dataclass
class RpcRequest:
    """One client command: run ``method`` against remote object ``target``.

    ``trace``, when present, is the request's :class:`TraceContext` as
    JSON (``{"traceId", "spanId", "parentId"}``): the same optional
    field on both wires is how one trace covers a whole fan-out.  It is
    only serialized when set, so untraced requests stay byte-identical
    to the pre-tracing wire format.

    ``attachment`` is an optional binary blob riding the same frame
    (see :func:`encode_envelope`); it never appears in the JSON header.
    """

    request_id: int
    target: str
    method: str
    args: dict = field(default_factory=dict)
    trace: dict | None = None
    attachment: bytes | None = None

    def __post_init__(self) -> None:
        # Both wires build their requests here, so both refuse an id out
        # of range: TCP with a protocol error, the gateway a bad_request.
        check_request_id(self.request_id)

    def to_json(self) -> str:
        data: dict = {
            "requestId": self.request_id,
            "target": self.target,
            "method": self.method,
            "args": self.args,
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return json.dumps(data)

    @classmethod
    def from_json(cls, text: str) -> "RpcRequest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ProtocolError("a request must be a JSON object")
        for key in ("requestId", "target", "method"):
            if key not in data:
                raise ProtocolError(f"request missing {key!r}")
        try:
            return cls(
                request_id=int(data["requestId"]),
                target=str(data["target"]),
                method=str(data["method"]),
                args=dict(data.get("args") or {}),
                trace=data.get("trace"),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"malformed request: {exc}") from exc

    def to_frame(self) -> bytes:
        """This request as one wire frame (JSON, or binary if attached)."""
        return encode_envelope(self.to_json(), self.attachment)

    @classmethod
    def from_frame(cls, frame: bytes) -> "RpcRequest":
        """Inverse of :meth:`to_frame` for either envelope flavor."""
        text, attachment = split_envelope(frame)
        request = cls.from_json(text)
        request.attachment = attachment
        return request


class _NoPayload:
    """Sentinel distinguishing "no payload key" from an explicit null.

    A ``complete`` envelope whose payload is legitimately ``None`` (a sketch
    that streamed nothing) must not decode identically to an ``ack`` that
    never had a payload; encoding via this sentinel keeps the two apart on
    the wire.  Falsy, singleton, and survives copy/pickle as itself.
    """

    _instance: "_NoPayload | None" = None

    def __new__(cls) -> "_NoPayload":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<no payload>"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (_NoPayload, ())


NO_PAYLOAD = _NoPayload()


@dataclass
class RpcReply:
    """One server message: a partial/final payload, an ack, or an error.

    ``kind`` is ``partial`` (progressive update), ``complete`` (the final
    payload; exactly one per successful request), ``ack`` (map operations:
    carries the new remote handle), ``cancelled`` or ``error``.

    ``code`` is a short machine-readable tag qualifying error and
    cancellation envelopes (``protocol``, ``unknown_handle``, ``internal``,
    ``superseded``, ...) so clients dispatch without parsing messages.

    ``payload`` defaults to :data:`NO_PAYLOAD` (the envelope carries no
    payload key at all); pass ``None`` explicitly to send a null payload.

    ``cache``, when present on a terminal sketch reply, is the query's
    cache telemetry: ``{"hit": bool, "workerHits": int}`` — whether the
    result came whole from the root's computation cache, and how many
    workers served their partial from their own memo tier.  It rides the
    envelope, never the payload, so byte-identity of *results* across
    roots is unaffected by which root happened to be warm.

    ``profile``, present only on the terminal reply of a sketch request
    that asked for it (``args: {"profile": true}``), is the query's
    per-stage breakdown: queue wait, fan-out, per-worker stream timings,
    root merge, and the straggler.  Like ``cache``, it rides the
    envelope and is only serialized when set.

    ``attachment`` is an optional binary blob riding the same frame
    (see :func:`encode_envelope`); it never appears in the JSON header.

    ``summary``, set on a sketch reply, is the summary whose JSON form
    the payload is: :meth:`to_json` renders it straight to text, and
    ``payload`` becomes its ``summary_to_json`` dict on first read.
    """

    request_id: int
    kind: str
    progress: float = 1.0
    payload: object | None = NO_PAYLOAD
    error: str | None = None
    code: str | None = None
    cache: dict | None = None
    profile: dict | None = None
    attachment: bytes | None = None
    summary: object | None = field(default=None, repr=False, compare=False)

    @classmethod
    def carrying(cls, request_id: int, kind: str, summary, **fields) -> "RpcReply":
        """A sketch reply whose payload is ``summary`` (null for None).

        The summary is rendered when the reply is sent; checking its type
        here keeps an unencodable one an error reply of the request.
        """
        if summary is None:
            return cls(request_id, kind, payload=None, **fields)
        summary_tag(summary)
        return cls(request_id, kind, summary=summary, **fields)

    def _get_payload(self) -> object | None:
        if self._payload is NO_PAYLOAD and self.summary is not None:
            self._payload = summary_to_json(self.summary)
        return self._payload

    def _set_payload(self, value: object | None) -> None:
        self._payload = value

    def envelope(self) -> dict:
        """The wire fields, in wire order."""
        return self._fields(self.payload)

    def _fields(self, payload: object | None) -> dict:
        data: dict = {
            "requestId": self.request_id,
            "kind": self.kind,
            "progress": round(self.progress, 6),
        }
        if payload is not NO_PAYLOAD:
            data["payload"] = payload
        if self.error is not None:
            data["error"] = self.error
        if self.code is not None:
            data["code"] = self.code
        if self.cache is not None:
            data["cache"] = self.cache
        if self.profile is not None:
            data["profile"] = self.profile
        return data

    def to_json(self, sort_keys: bool = False, **extra) -> str:
        """``json.dumps({**envelope(), **extra}, sort_keys=sort_keys)``,
        byte for byte; every framing of either wire serializes this.  A
        summary payload is rendered from the summary itself, its grids
        straight from their arrays (:func:`~repro.core.wire.summary_json`).
        """
        if self.summary is None:
            payload = self.payload
        else:
            payload = summary_json(self.summary, sort_keys)
        return dumps({**self._fields(payload), **extra}, sort_keys)

    @classmethod
    def from_json(cls, text: bytes | str) -> "RpcReply":
        data = loads(text)
        return cls(
            request_id=int(data["requestId"]),
            kind=str(data["kind"]),
            progress=float(data.get("progress", 1.0)),
            payload=data["payload"] if "payload" in data else NO_PAYLOAD,
            error=data.get("error"),
            code=data.get("code"),
            cache=data.get("cache"),
            profile=data.get("profile"),
        )

    def to_frame(self) -> bytes:
        """This reply as one wire frame (JSON, or binary if attached)."""
        return encode_envelope(self.to_json(), self.attachment)

    @classmethod
    def from_frame(cls, frame: bytes) -> "RpcReply":
        """Inverse of :meth:`to_frame` for either envelope flavor."""
        text, attachment = split_envelope(frame)
        reply = cls.from_json(text)
        reply.attachment = attachment
        return reply


# ``payload`` is a property over ``summary``, installed after the
# dataclass is built so the generated __init__ keeps the field's default.
RpcReply.payload = property(RpcReply._get_payload, RpcReply._set_payload)

#: Reply kinds that terminate one request's reply stream; shared by
#: every endpoint of both wires.
TERMINAL_REPLY_KINDS = frozenset({"ack", "complete", "cancelled", "error"})

#: Every machine-readable ``code`` an error or cancellation envelope can
#: carry on the TCP wires (client<->root and root<->worker), with the
#: condition it names.  This registry is the single source of truth the
#: protocol documentation is checked against (``tests/test_docs.py``
#: fails if ``docs/PROTOCOL.md`` documents a code that is not here, or
#: omits one that is).
WIRE_ERROR_CODES: dict[str, str] = {
    "protocol": "the request was malformed or used an unknown method",
    "unknown_handle": (
        "the request referenced a remote object handle nobody knows; "
        "the session stays alive"
    ),
    "engine": "a generic engine failure (the HillviewError default)",
    "internal": "an unexpected exception was shielded by the service loop",
    "cancelled": "the computation was cancelled by the client",
    "superseded": (
        "the sketch was preempted by a newer one from the same session "
        "(newest-query-wins)"
    ),
    "session_closed": (
        "a queued query was finalized because its session closed or expired"
    ),
    "overloaded": "admission control rejected the request (backlog full)",
    "draining": (
        "this root is in maintenance drain and refuses new sessions; "
        "reconnect through the director to another root"
    ),
    "worker_draining": (
        "the worker is draining (SIGTERM) and refuses state-creating RPCs"
    ),
    "stale_placement": (
        "the request carried an outdated placement version; re-read "
        "placements and retry (retryable)"
    ),
    "placement_conflict": (
        "a root tried to re-slice shards of an already-placed fleet"
    ),
    "worker_unavailable": (
        "a worker process died or its connection broke mid-request"
    ),
    "connection": "the connection was lost or delivered an unreadable frame",
    "framing": "a malformed, oversized, or truncated wire frame",
    "session_store": "the shared session store failed",
}


# ---------------------------------------------------------------------------
# Frame envelopes: JSON headers with optional binary attachments
# ---------------------------------------------------------------------------
# A frame is either pure JSON (first byte ``{``, the historical wire) or a
# binary envelope (first byte 0x00, which no JSON text can start with):
#
#     0x00 | uvarint header-length | header JSON (UTF-8) | attachment
#
# The attachment is simply the rest of the frame — bulk payloads (hvc
# table bytes, Encoder-framed summaries) travel as raw bytes instead of
# base64-inside-JSON, while control metadata stays readable JSON.  The
# framing layer (``core/framing.py``) is payload-agnostic and unchanged.

_BINARY_ENVELOPE = 0


def encode_envelope(header_json: str, attachment: bytes | None = None) -> bytes:
    """One wire frame from a JSON header and an optional attachment."""
    raw = header_json.encode("utf-8")
    if attachment is None:
        return raw
    enc = Encoder()
    enc.write_bytes(raw)
    return bytes([_BINARY_ENVELOPE]) + enc.to_bytes() + bytes(attachment)


def split_envelope(frame: bytes) -> tuple[str, bytes | None]:
    """Inverse of :func:`encode_envelope`: ``(header_json, attachment)``."""
    if not frame or frame[0] != _BINARY_ENVELOPE:
        return frame.decode("utf-8"), None
    dec = Decoder(frame)
    dec.read_uvarint()  # the 0x00 discriminator
    header = dec.read_bytes().decode("utf-8")
    return header, bytes(frame[len(frame) - dec.remaining :])


def call_once(
    rfile,
    wfile,
    request_id: int,
    method: str,
    args: dict | None = None,
    *,
    where: str = "peer",
    attachment: bytes | None = None,
) -> "RpcReply":
    """One framed request over an already-open connection, blocking for
    its terminal reply (non-terminal frames are drained and discarded).

    The shared primitive behind every *one-shot* exchange on either wire
    — health probes, drain commands, worker-to-worker shard pushes,
    fleet status sweeps — so framing and terminal-kind handling live in
    exactly one place.  ``attachment`` rides the request frame as a
    binary envelope (see :func:`encode_envelope`).  Raises
    ``ConnectionError`` if the peer closes mid-call; error *replies* are
    returned, not raised (callers decide).
    """
    from repro.core.framing import FrameError, read_frame_blocking, write_frame

    request = RpcRequest(request_id, "", method, args or {})
    request.attachment = attachment
    write_frame(wfile, request.to_frame())
    while True:
        frame = read_frame_blocking(rfile, error=FrameError)
        if frame is None:
            raise ConnectionError(f"{where} closed during {method!r}")
        reply = RpcReply.from_frame(frame)
        if reply.kind in TERMINAL_REPLY_KINDS:
            return reply

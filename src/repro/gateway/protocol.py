"""The gateway's versioned protocol surface: versions, features, negotiation.

The browser-facing wire must outlive any single deployment: a mixed-version
root fleet rolls upgrades while millions of sessions stay connected, so
every WebSocket connection opens with an explicit handshake —

* the server announces ``protocolVersion`` (what it speaks today),
  ``minSupported`` (the oldest client it still accepts) and its feature
  flags;
* the client answers with *its* version and the features it wants;
* the server pins the connection to ``min(server, client)`` and downgrades
  every feature the negotiated version does not carry.

A client older than ``minSupported`` is rejected with the
``unsupported_protocol`` error code before any session state exists; a
client *newer* than the server simply runs at the server's version (its
extra features are reported off).  Versions are small integers, bumped
when the message schema changes; features gate behavior *within* a
version, so a fleet can also roll a feature out (or back) without a
version bump.  The normative spec lives in ``docs/GATEWAY_API.md``, whose
feature table is checked against :data:`FEATURES` by ``tests/test_docs.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HillviewError

#: What this build speaks.  Version 1 was the plain streamed-envelope
#: wire; version 2 added resumable streams (sequence-numbered replies
#: with replay on reconnect) and application-level heartbeats.
PROTOCOL_VERSION = 2

#: The oldest client protocol version this server still serves.
MIN_SUPPORTED = 1

#: Feature flag -> the protocol version that introduced it.  A feature is
#: available on a connection iff its introducing version is <= the
#: negotiated version *and* the client did not switch it off.
FEATURES: dict[str, int] = {
    #: Envelopes may carry a ``trace`` context (and HTTP requests a
    #: ``traceparent`` header) that the fleet propagates end to end.
    "trace_context": 1,
    #: Replies carry per-request ``seq`` numbers and a dropped connection
    #: can resume its streams by presenting the last seq it saw.
    "ws_resume": 2,
    #: The server emits application-level heartbeat messages.
    "ws_heartbeat": 2,
}

#: Gateway-surface error codes (beyond the reply-envelope codes — see
#: ``WIRE_ERROR_CODES`` in :mod:`repro.engine.rpc`).
GATEWAY_ERROR_CODES: dict[str, str] = {
    "unsupported_protocol": (
        "the client's protocolVersion is below the server's minSupported; "
        "the connection is closed after the error message"
    ),
    "bad_handshake": (
        "the first WebSocket message was not a well-formed hello"
    ),
    "stream_expired": (
        "a resumed stream is no longer in the replay ledger and its "
        "request can no longer be restarted; re-issue the query"
    ),
    "not_found": "the HTTP path or published dataset id does not exist",
    "bad_request": "the HTTP request was malformed (body, query, or path)",
}


class NegotiationError(HillviewError):
    """The client's protocol version is too old for this server."""

    code = "unsupported_protocol"


def protocol_features(version: int = PROTOCOL_VERSION) -> dict[str, bool]:
    """Feature flags as of ``version`` (sorted keys: stable JSON)."""
    return {
        name: introduced <= version
        for name, introduced in sorted(FEATURES.items())
    }


def protocol_payload() -> dict:
    """The server's protocol announcement (HTTP ``/api/v1/protocol`` and
    the first WebSocket message)."""
    return {
        "protocolVersion": PROTOCOL_VERSION,
        "minSupported": MIN_SUPPORTED,
        "features": protocol_features(),
    }


@dataclass(frozen=True)
class Negotiated:
    """One connection's pinned protocol: a version and its feature set."""

    version: int
    features: dict[str, bool]

    def enabled(self, name: str) -> bool:
        return bool(self.features.get(name))

    def to_json(self) -> dict:
        return {
            "protocolVersion": self.version,
            "features": {k: self.features[k] for k in sorted(self.features)},
        }


def negotiate(
    client_version: int, client_features: dict | None = None
) -> Negotiated:
    """Pin one connection's version and features from the client's hello.

    ``client_features``, when present, lets the client switch individual
    features *off* (``{"ws_heartbeat": false}``); it can never switch on
    a feature the negotiated version does not carry.  Raises
    :class:`NegotiationError` when the client is older than
    :data:`MIN_SUPPORTED`.
    """
    try:
        version = int(client_version)
    except (TypeError, ValueError):
        raise NegotiationError(
            f"protocolVersion must be an integer, got {client_version!r}"
        )
    if version < MIN_SUPPORTED:
        raise NegotiationError(
            f"client protocol version {version} is below this server's "
            f"minimum supported version {MIN_SUPPORTED}"
        )
    version = min(PROTOCOL_VERSION, version)
    features: dict[str, bool] = {}
    for name, introduced in sorted(FEATURES.items()):
        enabled = introduced <= version
        if isinstance(client_features, dict) and name in client_features:
            enabled = enabled and bool(client_features[name])
        features[name] = enabled
    return Negotiated(version, features)

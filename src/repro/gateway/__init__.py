"""Browser-grade HTTP/WebSocket gateway over the service tier.

The package is the root's one front door: browsers, spreadsheet
connectors, the terminal client, curl, and health-probing directors all
come in here.  See ``docs/GATEWAY_API.md`` for the versioned protocol
surface and ``docs/PROTOCOL.md`` for the envelopes it carries.

* :mod:`repro.gateway.protocol` — versions, feature flags, negotiation;
* :mod:`repro.gateway.http` / :mod:`repro.gateway.websocket` — stdlib
  HTTP/1.1 and RFC 6455 primitives;
* :mod:`repro.gateway.server` — :class:`GatewayServer`, the asyncio
  front door (routing, resumable WS streams, backpressure);
* :mod:`repro.gateway.connector` — OData-style REST dataset reads;
* :mod:`repro.gateway.client` — blocking clients for tests and scripts,
  and :class:`RemoteDataSet`, a dataset handle over the WebSocket.
"""

from repro.gateway.client import GatewayClient, GatewayWebSocket, RemoteDataSet
from repro.gateway.connector import DatasetConnector
from repro.gateway.protocol import (
    FEATURES,
    GATEWAY_ERROR_CODES,
    MIN_SUPPORTED,
    PROTOCOL_VERSION,
    NegotiationError,
    negotiate,
    protocol_payload,
)
from repro.gateway.server import GatewayServer

__all__ = [
    "FEATURES",
    "GATEWAY_ERROR_CODES",
    "MIN_SUPPORTED",
    "PROTOCOL_VERSION",
    "DatasetConnector",
    "GatewayClient",
    "GatewayServer",
    "GatewayWebSocket",
    "NegotiationError",
    "RemoteDataSet",
    "negotiate",
    "protocol_payload",
]

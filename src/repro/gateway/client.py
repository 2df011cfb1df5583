"""Blocking gateway clients for tests, scripts, and the documented
walkthrough in ``docs/GATEWAY_API.md``.

:class:`GatewayClient` speaks the HTTP surface over stdlib
``http.client``; :class:`GatewayWebSocket` speaks the WebSocket wire over
a plain socket with the shared RFC 6455 helpers
(:mod:`repro.gateway.websocket`) — the blocking twin of the server's
asyncio side, mirroring how :class:`~repro.service.transport.ServiceClient`
twins the TCP server.
"""

from __future__ import annotations

import http.client
import json
import socket
from collections import deque
from typing import Iterator

from repro.core.wire import loads
from repro.errors import HillviewError
from repro.gateway import websocket as ws
from repro.gateway.protocol import PROTOCOL_VERSION

DEFAULT_TIMEOUT = 60.0


class GatewayError(HillviewError):
    """An HTTP-level gateway failure; ``code`` mirrors the error body."""

    code = "connection"

    def __init__(self, message: str, code: str = "connection", status: int = 0):
        super().__init__(message)
        self.code = code
        self.status = status


class GatewayClient:
    """Blocking HTTP client for the gateway's ``/api/v1`` surface."""

    def __init__(self, host: str, port: int, timeout: float = DEFAULT_TIMEOUT):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    # -- plumbing -------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict | None = None,
        raise_on_error: bool = True,
    ) -> tuple[int, object]:
        """One round trip; returns (status, decoded JSON body or text)."""
        payload = None
        send_headers = dict(headers or {})
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        self._conn.request(method, path, body=payload, headers=send_headers)
        response = self._conn.getresponse()
        raw = response.read()
        content_type = response.headers.get("Content-Type", "")
        if "application/json" in content_type:
            decoded: object = loads(raw) if raw else {}
        else:
            decoded = raw.decode("utf-8", errors="replace")
        if raise_on_error and response.status >= 400:
            code = (
                decoded.get("code", "connection")
                if isinstance(decoded, dict)
                else "connection"
            )
            message = (
                decoded.get("error", raw.decode("utf-8", errors="replace"))
                if isinstance(decoded, dict)
                else str(decoded)
            )
            raise GatewayError(
                f"HTTP {response.status}: {message}",
                code=str(code),
                status=response.status,
            )
        return response.status, decoded

    def get(self, path: str, headers: dict | None = None) -> object:
        return self.request("GET", path, headers=headers)[1]

    def post(self, path: str, body: dict | None = None) -> object:
        return self.request("POST", path, body=body)[1]

    def delete(self, path: str) -> object:
        return self.request("DELETE", path)[1]

    # -- the documented endpoints ---------------------------------------
    def protocol(self) -> dict:
        return self.get("/api/v1/protocol")

    def health(self) -> dict:
        return self.get("/api/v1/health")

    def create_session(self, session: str | None = None) -> dict:
        return self.post(
            "/api/v1/sessions", {"session": session} if session else {}
        )

    def close_session(self, session: str) -> bool:
        return bool(self.delete(f"/api/v1/sessions/{session}")["closed"])

    def publish(self, name: str, source: dict | None = None) -> dict:
        return self.post(
            "/api/v1/datasets", {"name": name, "source": source or {}}
        )

    def unpublish(self, name: str) -> bool:
        return bool(self.delete(f"/api/v1/datasets/{name}")["unpublished"])

    def datasets(self) -> list[str]:
        return self.get("/api/v1/datasets")["datasets"]

    def metadata(self, name: str, headers: dict | None = None) -> dict:
        return self.get(f"/api/v1/datasets/{name}/$metadata", headers=headers)

    def rows(
        self,
        name: str,
        top: int = 100,
        skip: int = 0,
        orderby: str | None = None,
        headers: dict | None = None,
    ) -> dict:
        path = f"/api/v1/datasets/{name}/rows?$top={top}&$skip={skip}"
        if orderby:
            path += f"&$orderby={orderby.replace(' ', '%20')}"
        return self.get(path, headers=headers)

    def sample(self, name: str, count: int = 100, seed: int = 0) -> dict:
        return self.get(
            f"/api/v1/datasets/{name}/sample?count={count}&seed={seed}"
        )

    def stats(self) -> dict:
        return self.get("/api/v1/stats")

    def metrics(self, fmt: str | None = None) -> object:
        path = "/api/v1/metrics"
        if fmt:
            path += f"?format={fmt}"
        return self.get(path)

    def traces(self, trace_id: str | None = None) -> dict:
        path = "/api/v1/traces"
        if trace_id:
            path += f"?traceId={trace_id}"
        return self.get(path)

    def drain(self) -> dict:
        return self.post("/api/v1/drain")

    def undrain(self) -> dict:
        return self.post("/api/v1/undrain")

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _RecvBuffer:
    """A socket wrapper draining bytes that arrived with the 101 response.

    The server sends its hello frame immediately after the upgrade, so it
    often lands in the same TCP segment; the upgrade parser hands the
    surplus here instead of dropping it.
    """

    def __init__(self, sock: socket.socket, initial: bytes = b""):
        self._sock = sock
        self._buffer = bytearray(initial)

    def recv(self, n: int) -> bytes:
        if self._buffer:
            chunk = bytes(self._buffer[:n])
            del self._buffer[:n]
            return chunk
        return self._sock.recv(n)


class GatewayWebSocket:
    """Blocking WebSocket client with the versioned gateway handshake.

    ``connect()`` performs the HTTP upgrade, reads the server hello,
    sends the client hello (version, optional session/features/resume
    map), and returns the welcome — after which :meth:`submit` /
    :meth:`stream` drive queries exactly like the TCP
    :class:`~repro.service.transport.ServiceClient`, minus the reader
    thread: replies are demultiplexed by requestId on demand.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = DEFAULT_TIMEOUT,
        headers: dict | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = _RecvBuffer(self._sock, self._upgrade(headers or {}))
        #: Messages already read but not yet claimed, per requestId; the
        #: ``None`` key collects everything without a requestId
        #: (hello/welcome/heartbeats/pongs/errors).
        self._inbox: dict[int | None, deque[dict]] = {}
        self.server_hello: dict | None = None
        self.welcome: dict | None = None
        self.session: str | None = None
        self.last_seq: dict[int, int] = {}

    def _upgrade(self, headers: dict) -> bytes:
        key = ws.client_handshake_key()
        lines = [
            "GET /api/v1/ws HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Upgrade: websocket",
            "Connection: Upgrade",
            f"Sec-WebSocket-Key: {key}",
            "Sec-WebSocket-Version: 13",
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        self._sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ws.ConnectionClosed("server closed during the upgrade")
            response += chunk
        head_bytes, leftover = response.split(b"\r\n\r\n", 1)
        head = head_bytes.decode("latin-1")
        status_line = head.split("\r\n")[0]
        if " 101 " not in f"{status_line} ":
            raise GatewayError(f"upgrade refused: {status_line}")
        accept = None
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "sec-websocket-accept":
                accept = value.strip()
        if accept != ws.accept_key(key):
            raise ws.WebSocketError("bad Sec-WebSocket-Accept from server")
        return leftover

    # -- framing --------------------------------------------------------
    def _send_json(self, message: dict) -> None:
        self._sock.sendall(
            ws.encode_frame(
                ws.OP_TEXT, json.dumps(message).encode("utf-8"), mask=True
            )
        )

    def _next_message(self) -> dict:
        """The next data message, answering protocol pings transparently."""
        while True:
            message = ws.read_message_blocking(self._reader)
            if message.opcode == ws.OP_PING:
                self._sock.sendall(
                    ws.encode_frame(ws.OP_PONG, message.data, mask=True)
                )
                continue
            if message.opcode == ws.OP_PONG:
                continue
            if message.opcode == ws.OP_CLOSE:
                raise ws.ConnectionClosed("server closed the WebSocket")
            return loads(message.data)

    def _claim(self, request_id: int | None) -> dict | None:
        queue = self._inbox.get(request_id)
        if queue:
            return queue.popleft()
        return None

    def recv(self, request_id: int | None = None) -> dict:
        """The next message for ``request_id`` (``None`` = unaddressed)."""
        claimed = self._claim(request_id)
        if claimed is not None:
            return claimed
        while True:
            message = self._next_message()
            rid = message.get("requestId")
            seq = message.get("seq")
            if isinstance(rid, int) and isinstance(seq, int):
                self.last_seq[rid] = max(self.last_seq.get(rid, 0), seq)
            if rid == request_id:
                return message
            self._inbox.setdefault(rid, deque()).append(message)

    # -- handshake ------------------------------------------------------
    def connect(
        self,
        session: str | None = None,
        protocol_version: int = PROTOCOL_VERSION,
        features: dict | None = None,
        resume: dict | None = None,
    ) -> dict:
        """Run the hello exchange; returns the welcome message.

        Raises :class:`GatewayError` (with the server's error code) when
        the server refuses the handshake — version below ``minSupported``,
        draining root, malformed hello.
        """
        self.server_hello = self.recv(None)
        hello: dict = {"type": "hello", "protocolVersion": protocol_version}
        if session is not None:
            hello["session"] = session
        if features is not None:
            hello["features"] = features
        if resume is not None:
            hello["resume"] = resume
        self._send_json(hello)
        answer = self.recv(None)
        if answer.get("type") == "error":
            raise GatewayError(
                str(answer.get("error")),
                code=str(answer.get("code", "bad_handshake")),
            )
        self.welcome = answer
        self.session = answer.get("session")
        return answer

    # -- queries --------------------------------------------------------
    def submit(
        self,
        request_id: int,
        method: str,
        target: str = "",
        args: dict | None = None,
        trace: dict | None = None,
    ) -> int:
        message: dict = {
            "type": "request",
            "requestId": request_id,
            "method": method,
            "target": target,
            "args": args or {},
        }
        if trace is not None:
            message["trace"] = trace
        self._send_json(message)
        return request_id

    def cancel(self, request_id: int) -> None:
        self._send_json({"type": "cancel", "requestId": request_id})

    def ping(self) -> dict:
        self._send_json({"type": "ping"})
        return self.recv(None)

    def stream(self, request_id: int) -> Iterator[dict]:
        """Replies for one request until (and including) its terminal."""
        from repro.engine.rpc import TERMINAL_REPLY_KINDS

        while True:
            message = self.recv(request_id)
            yield message
            if message.get("kind") in TERMINAL_REPLY_KINDS:
                return

    def result(self, request_id: int) -> dict:
        """Drain one request's stream; returns the terminal message."""
        last: dict | None = None
        for message in self.stream(request_id):
            last = message
        assert last is not None
        return last

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.sendall(ws.close_frame(mask=True))
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "GatewayWebSocket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

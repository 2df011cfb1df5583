"""Blocking gateway clients for the CLI, the director, tests, scripts,
and the documented walkthrough in ``docs/GATEWAY_API.md``.

:class:`GatewayClient` speaks the HTTP surface over stdlib
``http.client``; :class:`GatewayWebSocket` speaks the WebSocket wire over
a plain socket with the shared RFC 6455 helpers
(:mod:`repro.gateway.websocket`) — the blocking twin of the server's
asyncio side.  :class:`RemoteDataSet` is a dataset handle on that
socket: the :class:`~repro.engine.dataset.IDataSet` a spreadsheet runs
over, wherever the data lives (§5.2).
"""

from __future__ import annotations

import http.client
import itertools
import json
import socket
from collections import deque
from functools import cached_property
from typing import Iterator

from repro.core.sketch import Sketch
from repro.core.wire import loads, sketch_to_json, summary_from_json
from repro.engine.dataset import TABLE_MAPS, IDataSet, TableMap
from repro.engine.progress import CancellationToken, PartialResult
from repro.engine.rpc import TERMINAL_REPLY_KINDS
from repro.errors import HillviewError
from repro.gateway import websocket as ws
from repro.gateway.protocol import PROTOCOL_VERSION
from repro.obs.trace import current_context
from repro.table.schema import ColumnDescription, Schema

DEFAULT_TIMEOUT = 60.0


class GatewayError(HillviewError):
    """An HTTP-level gateway failure; ``code`` mirrors the error body."""

    code = "connection"

    def __init__(self, message: str, code: str = "connection", status: int = 0):
        super().__init__(message)
        self.code = code
        self.status = status

    @classmethod
    def from_reply(cls, reply: dict) -> "GatewayError":
        """The failure an ``error`` reply envelope carries."""
        code = str(reply.get("code") or "error")
        return cls(f"[{code}] {reply.get('error')}", code=code)


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

    ``connect()`` reads the server hello, sends the client hello
    (version, optional session/features/resume map), and returns the
    welcome — after which :meth:`submit` / :meth:`stream` drive queries
    and :meth:`call` runs one to its terminal.  There is no reader
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
        #: ``n`` of the latest heartbeat read past while waiting for a
        #: request's replies (such beats are not queued).
        self.last_heartbeat: int | None = None
        self._ids = itertools.count(1)

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
        """The next message for ``request_id`` (``None`` = unaddressed); a
        heartbeat read on the way is kept as :attr:`last_heartbeat`."""
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
            if rid is None and message.get("type") == "heartbeat":
                self.last_heartbeat = message.get("n")
                continue
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
        """Round-trip a ``ping``; returns the pong.  Everything the server
        sent before the pong has been read by then; unaddressed messages
        met on the way (heartbeats, say) stay queued for ``recv(None)``."""
        self._send_json({"type": "ping"})
        passed: list[dict] = []
        while (message := self.recv(None)).get("type") != "pong":
            passed.append(message)
        self._inbox.setdefault(None, deque()).extendleft(reversed(passed))
        return message

    def request(
        self,
        method: str,
        target: str = "",
        args: dict | None = None,
        trace: dict | None = None,
    ) -> int:
        """:meth:`submit` under the next id of this client's own sequence
        (callers that pick their own ids should not mix the two)."""
        return self.submit(next(self._ids), method, target, args, trace)

    def call(
        self,
        method: str,
        target: str = "",
        args: dict | None = None,
        trace: dict | None = None,
    ) -> dict:
        """Run one :meth:`request` and return its terminal reply; an
        ``error`` terminal raises :class:`GatewayError` with its code."""
        reply = self.result(self.request(method, target, args, trace))
        if reply.get("kind") == "error":
            raise GatewayError.from_reply(reply)
        return reply

    def stream(self, request_id: int) -> Iterator[dict]:
        """Replies for one request until (and including) its terminal."""
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


class RemoteDataSet(IDataSet):
    """A dataset handle on a root, reached over a connected
    :class:`GatewayWebSocket`: the same dataset interface as an
    in-process one, so a :class:`~repro.spreadsheet.Spreadsheet` (and the
    terminal REPL on top of it) runs unchanged over the wire (§5.2).

    A map travels as its own ``TABLE_MAPS`` description through the
    ``filter``/``project``/``derive`` verbs and comes back as a new
    handle; a :class:`~repro.engine.dataset.DeriveMap`, which holds a
    Python callable, has no description and is refused.  A sketch
    travels as its JSON spec, and each reply's payload is rebuilt into
    the summary an in-process run would have yielded.  Requests are
    sequential on the socket: one sketch's stream is drained before
    the next starts.
    """

    def __init__(self, socket: GatewayWebSocket, handle: str):
        self.socket = socket
        self.handle = handle

    @classmethod
    def load(cls, socket: GatewayWebSocket, source: dict | None = None) -> "RemoteDataSet":
        """Load ``source`` (a wire source spec; ``{}`` is the server's
        default dataset) on the socket's session."""
        reply = socket.call("load", args={"source": source or {}})
        return cls(socket, reply["payload"]["handle"])

    def map(self, table_map: TableMap) -> "RemoteDataSet":
        spec = TABLE_MAPS.to_json(table_map)
        kind = spec.pop("type")
        method = "derive" if kind == "expression" else kind
        reply = self.socket.call(method, self.handle, spec)
        return RemoteDataSet(self.socket, reply["payload"]["handle"])

    def sketch_stream(
        self, sketch: Sketch, token: CancellationToken | None = None
    ) -> Iterator[PartialResult]:
        """One partial per reply.  A cancelled ``token`` (checked after
        each reply) sends ``cancel``; the stream ends at the server's
        ``cancelled`` terminal."""
        ctx = current_context()
        request_id = self.socket.request(
            "sketch",
            self.handle,
            {"sketch": sketch_to_json(sketch)},
            None if ctx is None else ctx.child().to_json(),
        )
        cancel_sent = False
        for reply in self.socket.stream(request_id):
            # Anything else on the stream is the cancel's ``cancel_ack``.
            if reply.get("type") == "reply":
                kind = reply["kind"]
                if kind == "error":
                    raise GatewayError.from_reply(reply)
                if kind == "cancelled":
                    return
                cache = reply.get("cache") or {}
                yield PartialResult(
                    reply["progress"],
                    summary_from_json(reply["payload"]),
                    cache_hit=bool(cache.get("hit")),
                    worker_cache_hits=int(cache.get("workerHits", 0)),
                )
            live = reply.get("kind") not in TERMINAL_REPLY_KINDS
            if live and token is not None and token.cancelled and not cancel_sent:
                self.socket.cancel(request_id)
                cancel_sent = True

    def release(self) -> None:
        """``evict`` this handle: the root releases its dataset, and the
        last hold frees the shards on every worker."""
        self.socket.call("evict", self.handle)

    @cached_property
    def schema(self) -> Schema:
        columns = self.socket.call("schema", self.handle)["payload"]["columns"]
        return Schema(ColumnDescription.from_json(c) for c in columns)

    @cached_property
    def total_rows(self) -> int:
        return self.socket.call("rowCount", self.handle)["payload"]["rows"]

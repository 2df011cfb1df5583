"""The root's front door: HTTP + WebSocket over the service tier.

:class:`GatewayServer` wraps one :class:`~repro.service.transport.ServiceServer`
and exposes its sessions, scheduler and cluster through two surfaces:

* **HTTP** (``/api/v1/...``) — session create/resume, the operational
  plane (health, stats, metrics, traces, drain), each route one call on
  the :class:`~repro.service.transport.ServiceServer`, and the
  OData-style dataset connector (:mod:`repro.gateway.connector`);
* **WebSocket** (``/api/v1/ws``) — the streamed query wire:
  ``RpcRequest``/``RpcReply`` envelopes wrapped in typed JSON messages,
  with an explicit protocol-version handshake
  (:mod:`repro.gateway.protocol`), application heartbeats, and resumable
  reply streams.

**Resumable streams** exploit the fact that partials are *cumulative*
(§5.1): the per-session ledger keeps only each stream's latest partial
and its terminal reply, every reply carries a per-stream ``seq``, and a
reconnecting client presents the last seq it saw — the server replays
anything newer, reattaches live streams, and *restarts* (from the stored
request) streams its grace timer already cancelled.  The client-side
rule is one line: ignore replies whose seq is not greater than the last
seen.

**Admission, backpressure and teardown**: sessions are admitted by
:meth:`~repro.service.transport.ServiceServer.admit`, and every
connection writes through an :class:`Outbox` — replies are encoded to
WebSocket frames once, on the scheduler thread that produced them, and
when a client stops draining, the blocked sink stalls (then cancels)
the producing query, so slow consumers never balloon the root's memory.

The gateway runs on its own event loop (and thread, via
:meth:`GatewayServer.start_background`).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import json
import threading
import time

from repro.engine.rpc import (
    ProtocolError,
    RpcReply,
    RpcRequest,
    check_request_id,
)
from repro.gateway import http as gw_http
from repro.gateway import websocket as ws
from repro.gateway.connector import ConnectorError, DatasetConnector
from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    Negotiated,
    NegotiationError,
    negotiate,
    protocol_payload,
)
from repro.errors import EngineError
from repro.obs.logs import log_event
from repro.obs.metrics import REGISTRY, Counter
from repro.obs.trace import TraceContext, from_traceparent, to_traceparent
from repro.service.scheduler import QueryTask
from repro.service.sessions import Session
from repro.service.transport import DrainingError, ServiceServer

#: HTTP status for each connector/gateway error code.
_STATUS_BY_CODE = {
    "not_found": 404,
    "bad_request": 400,
    "unknown_handle": 404,
    "overloaded": 429,
    "draining": 503,
    "unsupported_protocol": 400,
    "protocol": 400,
}

#: Per-session ledger bound: older streams are evicted (done ones first).
MAX_STREAMS_PER_SESSION = 64

#: Frames one connection may have queued before its producers block.
OUTBOX_FRAMES = 64

#: How long a producer waits on a full outbox before it gives the client
#: up for stalled; the scheduler then cancels the query.
SINK_TIMEOUT_SECONDS = 30.0


def _status_for(code: str | None) -> int:
    return _STATUS_BY_CODE.get(code or "", 500)


def _text(message: dict) -> bytes:
    """A typed JSON message as one WebSocket text frame."""
    return ws.encode_frame(
        ws.OP_TEXT, json.dumps(message, sort_keys=True).encode("utf-8")
    )


def _error(code: str, error: str, **extra) -> bytes:
    return _text({"type": "error", "code": code, "error": error, **extra})


class Outbox:
    """One connection's write side.  Create it on the connection's loop.

    Frames are bytes, encoded by whoever produced them.  ``send`` is for
    any thread and *blocks* while the queue is full — that block is the
    backpressure path from a slow client, through the scheduler worker
    producing its partials, into sketch execution.  ``put`` is its
    awaitable twin for the connection's own reader.  ``close`` writes out
    what is already queued, then closes the socket.
    """

    def __init__(self, writer: asyncio.StreamWriter, sent: Counter):
        self.loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        self.closed = threading.Event()
        self._queue: "asyncio.Queue[bytes | None]" = asyncio.Queue(OUTBOX_FRAMES)
        self._pump = asyncio.create_task(self._run(writer, sent))

    async def put(self, frame: bytes) -> None:
        await self._queue.put(frame)

    def send(self, frame: bytes) -> None:
        if self.closed.is_set():
            raise ConnectionError("client connection closed")
        if threading.get_ident() == self._loop_thread:
            # The scheduler sinks an ``overloaded`` rejection from inside
            # ``submit``, on this loop; waiting here for the pump, which
            # runs on this loop too, would stall every connection.
            try:
                self._queue.put_nowait(frame)
            except asyncio.QueueFull:
                raise ConnectionError("client stopped draining replies")
            return
        future = asyncio.run_coroutine_threadsafe(self._queue.put(frame), self.loop)
        try:
            future.result(timeout=SINK_TIMEOUT_SECONDS)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise ConnectionError("client stopped draining replies")

    async def _run(self, writer: asyncio.StreamWriter, sent: Counter) -> None:
        try:
            while (frame := await self._queue.get()) is not None:
                sent.inc(len(frame))
                writer.write(frame)
                await writer.drain()  # OS-level backpressure
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def close(self) -> None:
        self.closed.set()
        try:
            self._queue.put_nowait(None)
        except asyncio.QueueFull:
            # The client stopped draining long ago; nothing to flush to.
            self._pump.cancel()
        try:
            await self._pump
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass


def reply_frame(reply: RpcReply, seq: int | None = None) -> bytes:
    """An :class:`RpcReply` as the bytes the WebSocket wire carries: the
    envelope fields (requestId, kind, progress, payload, error, code,
    cache, profile) from :meth:`~repro.engine.rpc.RpcReply.to_json`,
    keys sorted, plus the message ``type`` and the stream's ``seq``.
    """
    extra = {"type": "reply"} if seq is None else {"type": "reply", "seq": seq}
    text = reply.to_json(sort_keys=True, **extra)
    return ws.encode_frame(ws.OP_TEXT, text.encode("utf-8"))


class _Stream:
    """One resumable reply stream: seq counter + bounded replay state."""

    def __init__(self, request: RpcRequest):
        self.request = request
        self._seqs = itertools.count(1)
        #: ``(seq, frame)``: a resume re-sends the stored bytes.
        self.last_partial: tuple[int, bytes] | None = None
        self.terminal: tuple[int, bytes] | None = None
        self.done = False
        #: Cancelled by the grace timer (connection never resumed in
        #: time) — a resume restarts the stored request instead of
        #: replaying the synthetic cancellation.
        self.expired = False
        self.task: QueryTask | None = None
        self.started = time.monotonic()

    def record(self, reply: RpcReply) -> bytes:
        """Encode the reply under the next seq and fold it into replay
        state.  Called only by the stream's own scheduler thread."""
        seq = next(self._seqs)
        frame = reply_frame(reply, seq)
        if reply.kind == "partial":
            # Partials are cumulative: the latest one subsumes every
            # earlier one, so the ledger holds exactly one.
            self.last_partial = (seq, frame)
        else:
            # The terminal subsumes every cumulative partial too.
            self.last_partial = None
            self.terminal = (seq, frame)
            self.done = True
        return frame

    def replay_after(self, last_seq: int) -> list[bytes]:
        return [
            kept[1]
            for kept in (self.last_partial, self.terminal)
            if kept is not None and kept[0] > last_seq
        ]


class GatewayServer:
    """HTTP + WebSocket front door over one :class:`ServiceServer`: an
    asyncio listener that serves on a background thread."""

    def __init__(
        self,
        service: ServiceServer | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval_seconds: float = 15.0,
        resume_grace_seconds: float = 60.0,
        handshake_timeout_seconds: float = 10.0,
    ):
        self.service = service if service is not None else ServiceServer()
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self.heartbeat_interval_seconds = heartbeat_interval_seconds
        self.resume_grace_seconds = resume_grace_seconds
        self.handshake_timeout_seconds = handshake_timeout_seconds
        self.connector = DatasetConnector(self.service.sessions)
        self.http_requests = 0
        self.ws_connections = 0
        self.ws_resumed_streams = 0
        self.ws_restarted_streams = 0
        #: session id -> its resumable streams, keyed by request id.
        self._streams: dict[str, dict[int, _Stream]] = {}
        #: session id -> the currently attached WS connection's outbox
        #: (one at a time: a resume steals the session from a zombie).
        self._attached: dict[str, Outbox] = {}
        self._grace: dict[str, asyncio.TimerHandle] = {}
        self._ledger_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    async def _serve(self, started: threading.Event) -> None:
        """Bind, serve until :meth:`close`, then stop accepting."""
        self.loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.address = server.sockets[0].getsockname()[:2]
        self.service.start_background()
        # Session teardown (close, idle expiry) must also drop the
        # gateway's ledger for that session.
        self.service.sessions.close_listeners.append(self._forget_session)
        log_event("gateway.start", host=self.address[0], port=self.address[1])
        self._stop = asyncio.Event()
        started.set()
        try:
            await self._stop.wait()
        finally:
            self.service.sessions.close_listeners.remove(self._forget_session)
            for handle in self._grace.values():
                handle.cancel()
            server.close()
            await server.wait_closed()

    def start_background(self, timeout: float = 10.0) -> tuple[str, int]:
        """Serve from a daemon thread; returns the bound (host, port)
        once listening."""
        started = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve(started)),
            name="gateway-server",
            daemon=True,
        )
        self._thread.start()
        if not started.wait(timeout):
            raise EngineError("gateway-server failed to start")
        assert self.address is not None
        return self.address

    def close(self) -> None:
        """Stop serving and join the background thread.  The
        :class:`ServiceServer` underneath keeps running."""
        if self.loop is not None and self._stop is not None:
            try:
                self.loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    # -- HTTP ------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await gw_http.read_request(reader)
                except gw_http.HttpError as exc:
                    writer.write(
                        gw_http.error_response(
                            exc.status, exc.code, str(exc), keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                self.http_requests += 1
                if request.is_websocket_upgrade():
                    await self._handle_ws(request, reader, writer)
                    return
                started = time.perf_counter()
                response = await self._route(request)
                REGISTRY.histogram(
                    "gateway.http_seconds",
                    "HTTP request latency at the gateway",
                ).observe(time.perf_counter() - started)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: gw_http.HttpRequest) -> bytes:
        """Dispatch one HTTP request to a response (never raises)."""
        keep = request.keep_alive
        try:
            return await self._dispatch_http(request)
        except gw_http.HttpError as exc:
            return gw_http.error_response(
                exc.status, exc.code, str(exc), keep_alive=keep
            )
        except (ConnectorError, NegotiationError, ProtocolError, DrainingError) as exc:
            code = getattr(exc, "code", "bad_request") or "bad_request"
            return gw_http.error_response(
                _status_for(code), code, str(exc), keep_alive=keep
            )

    async def _dispatch_http(self, request: gw_http.HttpRequest) -> bytes:
        method, path = request.method, request.path
        keep = request.keep_alive
        trace = from_traceparent(request.headers.get("traceparent"))
        extra = (
            [("traceparent", to_traceparent(trace))] if trace is not None else None
        )
        parts = [p for p in path.split("/") if p]
        if len(parts) < 2 or parts[0] != "api" or parts[1] != "v1":
            raise ConnectorError(f"unknown path {path!r}", code="not_found")
        tail = parts[2:]

        if tail == ["protocol"] and method == "GET":
            return gw_http.json_response(200, protocol_payload(), keep_alive=keep)
        if tail == ["health"] and method == "GET":
            return gw_http.json_response(
                200, self.health_payload(), keep_alive=keep
            )
        if tail == ["sessions"] and method == "POST":
            return self._http_create_session(request)
        if len(tail) == 2 and tail[0] == "sessions" and method == "DELETE":
            closed = self.service.sessions.close(tail[1])
            return gw_http.json_response(200, {"closed": closed}, keep_alive=keep)

        admin = await self._admin_route(tail, method, request)
        if admin is not None:
            return admin

        if tail == ["datasets"] and method == "GET":
            return gw_http.json_response(
                200, {"datasets": self.connector.datasets()}, keep_alive=keep
            )
        if tail == ["datasets"] and method == "POST":
            body = request.json_body()
            name = body.get("name")
            if not isinstance(name, str) or not name:
                raise ConnectorError("publish needs a dataset 'name'")
            published = await self._in_executor(
                self.connector.publish, name, body.get("source")
            )
            return gw_http.json_response(201, published, keep_alive=keep)
        if len(tail) == 2 and tail[0] == "datasets" and method == "DELETE":
            removed = self.connector.unpublish(tail[1])
            return gw_http.json_response(
                200, {"unpublished": removed}, keep_alive=keep
            )
        if len(tail) == 3 and tail[0] == "datasets" and method == "GET":
            name, view = tail[1], tail[2]
            query = request.query
            if view == "$metadata":
                payload = await self._in_executor(
                    self.connector.metadata, name, trace
                )
            elif view == "rows":
                payload = await self._in_executor(
                    lambda: self.connector.rows(
                        name,
                        top=self._int_param(query, "$top", 100),
                        skip=self._int_param(query, "$skip", 0),
                        orderby=query.get("$orderby"),
                        trace=trace,
                    )
                )
            elif view == "sample":
                payload = await self._in_executor(
                    lambda: self.connector.sample(
                        name,
                        count=self._int_param(query, "count", 100),
                        seed=self._int_param(query, "seed", 0),
                        orderby=query.get("$orderby"),
                        trace=trace,
                    )
                )
            else:
                raise ConnectorError(
                    f"unknown dataset view {view!r}", code="not_found"
                )
            return gw_http.json_response(
                200, payload, keep_alive=keep, extra_headers=extra
            )
        raise ConnectorError(
            f"no route for {method} {path}", code="not_found"
        )

    async def _admin_route(
        self, tail: list[str], method: str, request: gw_http.HttpRequest
    ) -> bytes | None:
        """The operational plane: one call on the root per route.
        Returns ``None`` for non-admin paths.  The routes that dial
        worker daemons run off the event loop: a slow worker must not
        stall every connection of the gateway."""
        route = (method, tail[0]) if len(tail) == 1 else None
        query = request.query
        if route == ("GET", "stats"):
            payload = self.service.stats()
        elif route == ("GET", "metrics"):
            payload = await self._in_executor(
                self.service.metrics_snapshot, query.get("format") or None
            )
            if payload.get("format") == "prometheus":
                return gw_http.response_bytes(
                    200,
                    str(payload.get("text", "")).encode("utf-8"),
                    content_type="text/plain; version=0.0.4",
                    keep_alive=request.keep_alive,
                )
        elif route == ("GET", "traces"):
            payload = await self._in_executor(
                self.service.trace_dump, query.get("traceId") or None
            )
        elif route == ("POST", "drain"):
            payload = await self._in_executor(self.service.drain)
        elif route == ("POST", "undrain"):
            self.service.draining = False
            payload = {"draining": False}
        else:
            return None
        return gw_http.json_response(200, payload, keep_alive=request.keep_alive)

    def _http_create_session(self, request: gw_http.HttpRequest) -> bytes:
        body = request.json_body()
        requested = body.get("session")
        before = self.service.sessions.get(str(requested)) if requested else None
        session = self.service.admit(requested)  # DrainingError is a 503
        # "resumed": the id named an existing session — resident on this
        # root, or rebuilt (with handles) from the shared session store.
        resumed = before is not None or (
            bool(requested) and len(session.web.handles) > 0
        )
        return gw_http.json_response(
            201,
            {"session": session.session_id, "resumed": resumed},
            keep_alive=request.keep_alive,
        )

    @staticmethod
    def _int_param(query: dict, key: str, default: int) -> int:
        raw = query.get(key)
        if raw is None or raw == "":
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConnectorError(f"{key} must be an integer, got {raw!r}")

    async def _in_executor(self, fn, *args):
        loop = asyncio.get_running_loop()
        if args:
            return await loop.run_in_executor(None, lambda: fn(*args))
        return await loop.run_in_executor(None, fn)

    def health_payload(self) -> dict:
        """The director-facing liveness document."""
        return {
            "status": "draining" if self.service.draining else "ok",
            "gateway": True,
            "protocolVersion": PROTOCOL_VERSION,
            "draining": self.service.draining,
            "sessions": len(self.service.sessions.sessions),
            "workers": len(self.service.cluster.workers),
            "wsConnections": self.ws_connections,
            "httpRequests": self.http_requests,
        }

    # -- WebSocket --------------------------------------------------------
    async def _handle_ws(
        self,
        request: gw_http.HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if request.path != "/api/v1/ws":
            writer.write(
                gw_http.error_response(
                    404, "not_found", f"no WebSocket at {request.path!r}",
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        key = request.headers.get("sec-websocket-key")
        if not key:
            writer.write(
                gw_http.error_response(
                    400, "bad_handshake", "missing Sec-WebSocket-Key",
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        writer.write(
            gw_http.response_bytes(
                101, extra_headers=ws.handshake_response_headers(key)
            )
        )
        await writer.drain()
        self.ws_connections += 1
        REGISTRY.counter(
            "gateway.ws_connections", "WebSocket connections accepted"
        ).inc()
        outbox = Outbox(
            writer,
            REGISTRY.counter(
                "gateway.ws_bytes_sent", "reply bytes on the WebSocket wire"
            ),
        )
        conn_trace = from_traceparent(request.headers.get("traceparent"))
        heartbeat_task: asyncio.Task | None = None
        direct_tasks: list[QueryTask] = []
        session: Session | None = None
        started = time.perf_counter()
        try:
            admitted = await self._ws_handshake(outbox, reader)
            REGISTRY.histogram(
                "gateway.ws_handshake_seconds",
                "WebSocket handshake latency (accept to welcome)",
            ).observe(time.perf_counter() - started)
            if admitted is None:
                return
            session, negotiated = admitted
            if negotiated.enabled("ws_heartbeat"):
                heartbeat_task = asyncio.create_task(self._heartbeat_loop(outbox))
            await self._ws_message_loop(
                outbox, session, negotiated, reader, conn_trace, direct_tasks
            )
        except ws.WebSocketError as exc:
            # A protocol violation: close with 1002 and the reason
            # (RFC 6455 §7.4.1), not a bare hang-up the browser sees as
            # 1006.  A client that stopped draining gets no close frame.
            try:
                outbox.send(ws.close_frame(1002, str(exc)))
            except ConnectionError:
                pass
        except (
            ws.ConnectionClosed,
            ConnectionError,
            OSError,
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            # Direct (non-resumable) streams die with the connection;
            # resumable streams get a grace window instead.
            for task in direct_tasks:
                task.token.cancel()
            if session is not None:
                self._detach(outbox, session.session_id)
            await outbox.close()

    async def _heartbeat_loop(self, outbox: Outbox) -> None:
        n = 0
        while not outbox.closed.is_set():
            await asyncio.sleep(self.heartbeat_interval_seconds)
            n += 1
            try:
                outbox.send(_text({"type": "heartbeat", "n": n}))
            except ConnectionError:
                pass  # a full outbox is already applying backpressure

    async def _ws_handshake(
        self, outbox: Outbox, reader: asyncio.StreamReader
    ) -> tuple[Session, Negotiated] | None:
        """Server hello -> client hello -> negotiate -> welcome (+ replay).

        Returns the bound session and the negotiated protocol, or
        ``None`` when the handshake was refused (the refusal message has
        already been sent).
        """
        await outbox.put(_text({**protocol_payload(), "type": "hello"}))
        try:
            message = await asyncio.wait_for(
                ws.read_message(reader), timeout=self.handshake_timeout_seconds
            )
        except asyncio.TimeoutError:
            await outbox.put(
                _error("bad_handshake", "timed out waiting for the client hello")
            )
            return None
        if message.opcode == ws.OP_CLOSE:
            return None
        try:
            client_hello = json.loads(message.data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await outbox.put(
                _error("bad_handshake", f"client hello is not valid JSON: {exc}")
            )
            return None
        if (
            not isinstance(client_hello, dict)
            or client_hello.get("type") != "hello"
        ):
            await outbox.put(
                _error(
                    "bad_handshake", "the first message must be a {'type': 'hello'}"
                )
            )
            return None
        try:
            negotiated = negotiate(
                client_hello.get("protocolVersion", PROTOCOL_VERSION),
                client_hello.get("features"),
            )
            session = self.service.admit(client_hello.get("session"))
        except NegotiationError as exc:
            await outbox.put(
                _error(
                    exc.code,
                    str(exc),
                    minSupported=protocol_payload()["minSupported"],
                )
            )
            return None
        except DrainingError as exc:
            await outbox.put(_error(exc.code, str(exc)))
            return None
        welcome = {
            "type": "welcome",
            "session": session.session_id,
            **negotiated.to_json(),
        }
        replay: list[bytes] = []
        if negotiated.enabled("ws_resume"):
            resumed, replay = self._attach(
                outbox, session, client_hello.get("resume")
            )
            welcome.update(resumed)
        await outbox.put(_text(welcome))
        for frame in replay:
            await outbox.put(frame)
        return session, negotiated

    # -- resumable stream ledger ----------------------------------------
    def _attach(
        self, outbox: Outbox, session: Session, resume: object
    ) -> tuple[dict, list[bytes]]:
        """Bind ``outbox`` as the session's live connection; returns what
        the welcome says about the client's ``resume`` map (requestId ->
        last seq) and the frames to replay after it."""
        session_id = session.session_id
        handle = self._grace.pop(session_id, None)
        if handle is not None:
            handle.cancel()
        with self._ledger_lock:
            self._attached[session_id] = outbox
            streams = dict(self._streams.get(session_id, {}))
        resumed: list[int] = []
        restarted: list[int] = []
        expired: list[int] = []
        replay: list[bytes] = []
        if not isinstance(resume, dict):
            resume = {}
        for raw_id, raw_seq in sorted(resume.items(), key=lambda kv: str(kv[0])):
            try:
                request_id = check_request_id(int(raw_id))
                last_seq = int(raw_seq)
            except (TypeError, ValueError, OverflowError, ProtocolError):
                continue
            stream = streams.get(request_id)
            if stream is None:
                expired.append(request_id)
                replay.append(
                    reply_frame(
                        RpcReply(
                            request_id,
                            "error",
                            error="this stream is no longer resumable; "
                            "re-issue the query",
                            code="stream_expired",
                        )
                    )
                )
                continue
            if stream.expired:
                # The grace timer cancelled it: restart from the stored
                # request.  Cumulative partials make this lossless — the
                # restarted stream's first partial supersedes everything.
                self._submit_resumable(session, stream)
                restarted.append(request_id)
                self.ws_restarted_streams += 1
                continue
            resumed.append(request_id)
            self.ws_resumed_streams += 1
            replay.extend(stream.replay_after(last_seq))
        REGISTRY.counter(
            "gateway.ws_streams_resumed", "streams resumed after reconnect"
        ).inc(len(resumed) + len(restarted))
        return {"resumed": resumed, "restarted": restarted, "expired": expired}, replay

    def _detach(self, outbox: Outbox, session_id: str) -> None:
        """The connection is gone: start the resume grace timer."""
        with self._ledger_lock:
            if self._attached.get(session_id) is outbox:
                del self._attached[session_id]
            else:
                return  # a newer connection already took over
            live = any(
                not s.done for s in self._streams.get(session_id, {}).values()
            )
        if live and self.loop is not None:
            self._grace[session_id] = self.loop.call_later(
                self.resume_grace_seconds, self._expire_streams, session_id
            )

    def _expire_streams(self, session_id: str) -> None:
        """Grace over: cancel the session's live streams.  Ledger entries
        stay (marked expired) so a late resume can still restart them."""
        self._grace.pop(session_id, None)
        with self._ledger_lock:
            if session_id in self._attached:
                return  # reconnected while the timer fired
            streams = list(self._streams.get(session_id, {}).values())
        for stream in streams:
            if not stream.done:
                stream.expired = True
                if stream.task is not None:
                    stream.task.token.cancel()

    def _forget_session(self, session_id: str) -> None:
        """Session closed or expired: the ledger goes with it.  Called on
        any thread (the root's sweep expires sessions); the grace timer
        belongs to the loop."""
        with self._ledger_lock:
            self._streams.pop(session_id, None)
            self._attached.pop(session_id, None)
        try:
            self.loop.call_soon_threadsafe(self._cancel_grace, session_id)
        except RuntimeError:
            pass  # loop already gone, and its timers with it

    def _cancel_grace(self, session_id: str) -> None:
        handle = self._grace.pop(session_id, None)
        if handle is not None:
            handle.cancel()

    def _submit_resumable(self, session: Session, stream: _Stream) -> None:
        """(Re)submit a stream's request with the ledger-writing sink."""
        session_id = session.session_id
        stream.done = False
        stream.expired = False
        stream.terminal = None

        def sink(reply: RpcReply) -> None:
            # Encoding happens here, on the scheduler thread and outside
            # the ledger lock; the lock orders "recorded" against a
            # resume's "attached", so a reply reaches the new connection
            # directly or through its replay (the client drops repeats).
            frame = stream.record(reply)
            with self._ledger_lock:
                outbox = self._attached.get(session_id)
            if outbox is not None:
                # May raise ConnectionError (stalled client) — the
                # scheduler then cancels the query.
                outbox.send(frame)

        stream.task = self.service.scheduler.submit(
            session, stream.request, sink
        )

    def _register_stream(self, session: Session, request: RpcRequest) -> _Stream:
        stream = _Stream(request)
        with self._ledger_lock:
            streams = self._streams.setdefault(session.session_id, {})
            # Re-using a request id replaces its ledger slot (the wire
            # trusts client-unique ids; the ledger must not let a
            # duplicate make two streams fight over one slot).
            streams[request.request_id] = stream
            while len(streams) > MAX_STREAMS_PER_SESSION:
                victims = sorted(
                    streams.values(), key=lambda s: (not s.done, s.started)
                )
                del streams[victims[0].request.request_id]
        return stream

    # -- WS message loop --------------------------------------------------
    async def _ws_message_loop(
        self,
        outbox: Outbox,
        session: Session,
        negotiated: Negotiated,
        reader: asyncio.StreamReader,
        conn_trace: TraceContext | None,
        direct_tasks: list[QueryTask],
    ) -> None:
        messages = REGISTRY.counter(
            "gateway.ws_messages", "client messages on the WebSocket wire"
        )
        while True:
            message = await ws.read_message(reader)
            if message.opcode == ws.OP_CLOSE:
                await outbox.put(ws.close_frame())
                return
            if message.opcode == ws.OP_PING:
                await outbox.put(ws.encode_frame(ws.OP_PONG, message.data))
                continue
            if message.opcode == ws.OP_PONG:
                continue
            messages.inc()
            session.touch()
            try:
                data = json.loads(message.data.decode("utf-8"))
                if not isinstance(data, dict):
                    raise ValueError("messages must be JSON objects")
            except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
                await outbox.put(_error("bad_request", f"unreadable message: {exc}"))
                continue
            kind = data.get("type")
            if kind == "ping":
                await outbox.put(_text({"type": "pong"}))
            elif kind == "cancel":
                try:
                    request_id = check_request_id(int(data.get("requestId", -1)))
                except (TypeError, ValueError, OverflowError, ProtocolError) as exc:
                    await outbox.put(
                        _error("bad_request", f"malformed cancel message: {exc}")
                    )
                    continue
                cancelled = session.cancel_request(request_id)
                # Not a "reply": the stream itself still terminates with
                # its own cancelled/complete envelope, and a reply-kind
                # ack here would put two terminals on one requestId.
                await outbox.put(
                    _text(
                        {
                            "type": "cancel_ack",
                            "requestId": request_id,
                            "cancelled": cancelled,
                        }
                    )
                )
            elif kind == "request":
                await self._ws_submit(
                    outbox, session, negotiated, data, conn_trace, direct_tasks
                )
            else:
                await outbox.put(
                    _error("bad_request", f"unknown message type {kind!r}")
                )

    async def _ws_submit(
        self,
        outbox: Outbox,
        session: Session,
        negotiated: Negotiated,
        data: dict,
        conn_trace: TraceContext | None,
        direct_tasks: list[QueryTask],
    ) -> None:
        try:
            request = RpcRequest(
                request_id=int(data["requestId"]),
                target=str(data.get("target", "")),
                method=str(data["method"]),
                args=dict(data.get("args") or {}),
                trace=data.get("trace")
                if negotiated.enabled("trace_context")
                else None,
            )
        except (
            KeyError, TypeError, ValueError, OverflowError, ProtocolError
        ) as exc:
            await outbox.put(
                _error("bad_request", f"malformed request message: {exc}")
            )
            return
        if request.trace is None and conn_trace is not None:
            # The upgrade request's traceparent covers the connection;
            # each query becomes a child span of it.
            request.trace = conn_trace.child().to_json()
        if negotiated.enabled("ws_resume") and request.method == "sketch":
            stream = self._register_stream(session, request)
            self._submit_resumable(session, stream)
            return
        direct_tasks.append(
            self.service.scheduler.submit(
                session, request, lambda reply: outbox.send(reply_frame(reply))
            )
        )
        # Compact the bookkeeping list.
        direct_tasks[:] = [t for t in direct_tasks if not t.done.is_set()]

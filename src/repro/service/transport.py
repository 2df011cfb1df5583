"""The wire: an asyncio TCP server streaming length-prefixed JSON frames.

Hillview's browser talks to the web server over a socket carrying JSON
messages (§6).  This module is that socket for the reproduction: each
frame is a uvarint length prefix (the :mod:`repro.core.serialization`
framing idiom) followed by a UTF-8 JSON envelope —
:class:`~repro.engine.rpc.RpcRequest` downstream,
:class:`~repro.engine.rpc.RpcReply` upstream.

The server couples three pieces: the :class:`SessionManager` (per-client
soft state), the :class:`FairShareScheduler` (bounded concurrency,
round-robin across sessions, newest-query-wins), and per-connection
writer tasks with a bounded outbox — when a client stops draining
progressive partials, the bounded queue blocks the scheduler worker
producing them, so backpressure propagates from the TCP send buffer all
the way into sketch execution.

:class:`ServiceClient` is the blocking counterpart used by tests, the
CLI, and benchmarks: a background reader thread demultiplexes interleaved
reply streams by request id into per-query queues.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import queue as queue_mod
import socket
import threading
from typing import BinaryIO, Callable, Iterator

from repro.core.framing import (
    MAX_FRAME_BYTES,  # noqa: F401 — re-exported; part of the public API
    encode_frame,
)
from repro.core.framing import read_frame as _read_frame
from repro.core.framing import read_frame_blocking as _read_frame_blocking
from repro.engine.cluster import Cluster
from repro.engine.rpc import (
    TERMINAL_REPLY_KINDS,
    ProtocolError,
    RpcReply,
    RpcRequest,
)
from repro.errors import HillviewError
from repro.obs.logs import log_event
from repro.obs.metrics import REGISTRY
from repro.obs.trace import RECORDER, TraceContext, trace_enabled
from repro.service import slow  # noqa: F401 — registers the "slow" sketch type
from repro.service.frontdoor import Outbox, ServerHost
from repro.service.scheduler import FairShareScheduler
from repro.service.session_store import SessionStore
from repro.service.sessions import Session, SessionManager
from repro.storage.loader import DataSource

#: Reply kinds that terminate one request's reply stream (the shared
#: set — both wires terminate streams identically).
TERMINAL_KINDS = TERMINAL_REPLY_KINDS


class ServiceError(HillviewError):
    """A client-side service failure (connection lost, bad frame)."""

    code = "connection"


# Framing lives in repro.core.framing (it is shared with the root<->worker
# wire); these bindings keep this module's historical API, with each side's
# own error vocabulary.
read_frame = functools.partial(_read_frame, error=ProtocolError)


def read_frame_blocking(stream: BinaryIO) -> bytes | None:
    """Blocking twin of :func:`read_frame` for the synchronous client."""
    return _read_frame_blocking(stream, error=ServiceError)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------
class DrainingError(HillviewError):
    """This root refuses new sessions; each wire renders the refusal."""

    code = "draining"


def reply_frame(reply: RpcReply) -> bytes:
    """One reply as the bytes the TCP wire carries."""
    return encode_frame(reply.to_json().encode("utf-8"))


class ServiceServer(ServerHost):
    """The concurrent multi-client service: transport + sessions + scheduler."""

    def __init__(
        self,
        cluster: Cluster | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrent: int = 4,
        max_queue_per_session: int = 32,
        expire_ttl_seconds: float = 3600.0,
        sweep_interval_seconds: float = 1.0,
        default_source: DataSource | None = None,
        session_store: "SessionStore | None" = None,
        session_store_ttl_seconds: float | None = None,
    ):
        super().__init__(self, "service-server", host, port)
        self.cluster = cluster if cluster is not None else Cluster()
        self.scheduler = FairShareScheduler(
            max_concurrent=max_concurrent,
            max_queue_per_session=max_queue_per_session,
        )
        self.sessions = SessionManager(
            self.cluster,
            expire_ttl_seconds=expire_ttl_seconds,
            default_source=default_source,
            store=session_store,
            store_ttl_seconds=session_store_ttl_seconds,
            # However a session ends — explicit close, idle expiry —
            # the scheduler must drop its queue and round-robin slot, or
            # a long-lived root leaks per-session scheduler state.
            on_close=self.scheduler.forget_session,
        )
        self.sweep_interval_seconds = sweep_interval_seconds
        self.connections_accepted = 0
        #: Maintenance drain (tier operations): a draining root refuses
        #: *new* sessions — existing ones keep working and roam to other
        #: roots via the shared store — so it can be removed from the
        #: tier without dropping users.
        self.draining = False
        self.hellos_refused = 0
        #: The listeners of this root that are up (its own TCP wire, any
        #: gateways); the sweep task runs on the first one's loop.
        self._listeners: list[ServerHost] = []
        self._listeners_lock = threading.Lock()
        self._sweeper: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------
    def listener_up(self, listener: ServerHost) -> None:
        """``listener`` is accepting connections (called on its loop)."""
        with self._listeners_lock:
            self._listeners.append(listener)
        self._sweep_on(listener)

    def listener_down(self, listener: ServerHost) -> None:
        """``listener`` is stopping (called on its loop).  Sessions and
        caches are swept for as long as any listener serves, so the
        sweep moves on when the loop it ran on goes away."""
        with self._listeners_lock:
            swept_here = self._listeners[0] is listener
            self._listeners.remove(listener)
            if not swept_here:
                return
            if self._sweeper is not None:
                self._sweeper.cancel()
                self._sweeper = None
            if self._listeners:
                heir = self._listeners[0]
                heir.loop.call_soon_threadsafe(self._sweep_on, heir)

    def _sweep_on(self, listener: ServerHost) -> None:
        """Start the sweep on ``listener``'s loop (the caller is on it),
        if that is where it belongs: one task, on the first listener."""
        with self._listeners_lock:
            first = self._listeners[0] if self._listeners else None
            if first is listener and self._sweeper is None:
                self._sweeper = listener.loop.create_task(self._sweep_loop())

    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.sweep_interval_seconds)
            self.sessions.sweep()
            # Expiry releases scheduler state through the manager's
            # close listeners; nothing extra to do here.
            self.sessions.expire()
            # The cache sweep makes the paper's "unused for 2 hours →
            # purged" real for in-process workers and the root's own
            # tiers; it walks small in-memory tables, so running it at
            # the sweep cadence is cheap (remote daemons self-sweep).
            self.cluster.sweep_caches()

    def close(self) -> None:
        """Stop a background server and the scheduler's worker pool."""
        super().close()
        self.scheduler.shutdown()

    # -- admission (shared by the TCP wire and the gateway) -------------
    def admit(self, requested: object = None) -> Session:
        """The session a connecting client gets: the one it names, or a
        new one.  A draining root admits only sessions already living on
        it; everyone else is routed to a healthy root (and resumes via
        the store)."""
        session_id = str(requested) if requested else None
        if self.draining and not (session_id and self.sessions.get(session_id)):
            self.hellos_refused += 1
            raise DrainingError(
                "this root is draining; reconnect through the director "
                "to another root"
            )
        return self.sessions.get_or_create(session_id)

    # -- per-connection protocol ---------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        outbox = Outbox(
            writer,
            REGISTRY.counter(
                "rpc.client.bytes_sent", "reply bytes on the client→root wire"
            ),
        )

        def sink(reply: RpcReply) -> None:
            # On a scheduler thread: the reply is encoded once, here.
            outbox.send(reply_frame(reply))

        async def answer(request_id: int, kind: str, **fields) -> None:
            await outbox.put(reply_frame(RpcReply(request_id, kind, **fields)))

        session: Session | None = None
        tasks = []
        received = REGISTRY.counter(
            "rpc.client.bytes_received",
            "request bytes on the client→root wire",
        )
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                received.inc(len(frame))
                try:
                    request = RpcRequest.from_json(frame.decode("utf-8"))
                except (ProtocolError, UnicodeDecodeError) as exc:
                    await answer(-1, "error", error=str(exc), code="protocol")
                    continue
                if session is not None:
                    # Any traffic keeps a bound session alive, pings and
                    # admin polls included — the keepalive contract.
                    session.touch()
                if request.method == "ping":
                    # Transport-level liveness: answered before any
                    # session exists, so health checkers (the director's
                    # probe) never mint sessions.
                    await answer(request.request_id, "ack", payload={"pong": True})
                    continue
                admin = await self.admin_reply(request)
                if admin is not None:
                    # Administrative methods are sessionless too (the
                    # director probes and drains roots without minting
                    # sessions).  A metrics or trace dump can be large:
                    # encode it off the loop, like it was computed.
                    await outbox.put(
                        await self.loop.run_in_executor(None, reply_frame, admin)
                    )
                    continue
                hello = request.method == "hello"
                if hello or session is None:  # implicit session on first request
                    try:
                        session = self.admit(
                            request.args.get("session") if hello else None
                        )
                    except DrainingError as exc:
                        await answer(
                            request.request_id, "error", error=str(exc), code=exc.code
                        )
                        continue
                    if hello:
                        await answer(
                            request.request_id,
                            "ack",
                            payload={"session": session.session_id},
                        )
                        continue
                if request.method == "cancel":
                    target_id = int(request.args.get("requestId", -1))
                    cancelled = session.cancel_request(target_id)
                    await answer(
                        request.request_id, "ack", payload={"cancelled": cancelled}
                    )
                else:
                    tasks.append(self.scheduler.submit(session, request, sink))
                    tasks = [t for t in tasks if not t.done.is_set()]
        except (ProtocolError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # The client is gone: stop wasting cluster time on its queries.
            for task in tasks:
                task.token.cancel()
            await outbox.close()

    # -- administrative methods (shared by the TCP wire and the gateway)
    async def admin_reply(self, request: RpcRequest) -> RpcReply | None:
        """Answer a sessionless administrative request, or ``None`` when
        ``request`` is not administrative.

        Both front doors — the TCP transport and the HTTP/WebSocket
        gateway (:mod:`repro.gateway`) — dispatch through this one
        method, so the operational surface (drain, stats, metrics,
        traces) cannot drift between them.  Methods that dial worker
        daemons run off the event loop: a slow worker must not stall
        every connection of the calling transport.
        """
        loop = asyncio.get_running_loop()
        method = request.method
        if method == "drain":
            payload = await loop.run_in_executor(None, self.drain)
            return RpcReply(request.request_id, "ack", payload=payload)
        if method == "undrain":
            self.draining = False
            return RpcReply(
                request.request_id, "ack", payload={"draining": False}
            )
        if method == "stats":
            return RpcReply(
                request.request_id, "complete", payload=self.stats()
            )
        if method == "metricsSnapshot":
            fmt = request.args.get("format")
            payload = await loop.run_in_executor(
                None, lambda: self.metrics_snapshot(fmt)
            )
            return RpcReply(request.request_id, "complete", payload=payload)
        if method == "traceDump":
            trace_id = request.args.get("traceId")
            payload = await loop.run_in_executor(
                None,
                lambda: self.trace_dump(
                    None if trace_id is None else str(trace_id)
                ),
            )
            return RpcReply(request.request_id, "complete", payload=payload)
        return None

    # -- tier operations -------------------------------------------------
    def drain(self) -> dict:
        """Enter maintenance drain: refuse new sessions, persist every
        live session's recipe book to the shared store so reconnecting
        clients resume (fresh) on other roots.  Safe to call repeatedly;
        ``undrain`` (or a restart) reverses it."""
        self.draining = True
        persisted = self.sessions.persist_all()
        log_event(
            "root.drain",
            persisted=persisted,
            sessions=len(self.sessions.sessions),
        )
        return {
            "draining": True,
            "persisted": persisted,
            "sessions": len(self.sessions.sessions),
        }

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        """This root's own counters; never dials a worker."""
        return {
            "type": "serviceStats",
            "draining": self.draining,
            "connectionsAccepted": self.connections_accepted,
            "scheduler": self.scheduler.metrics.to_json(),
            "sessions": self.sessions.to_json(),
            "cluster": {
                "workers": len(self.cluster.workers),
                "bytesToRoot": self.cluster.total_bytes_to_root,
            },
        }

    def metrics_snapshot(self, fmt: str | None = None) -> dict:
        """The unified metrics plane — the ``metricsSnapshot`` RPC
        payload: :meth:`stats` with its cluster entry widened to the
        fleet (the root's computation cache and every worker's live
        snapshot), plus this root's registry.  ``fmt="prometheus"``
        returns ``{"text": ...}`` in Prometheus exposition format
        instead (root-local metrics only; scrape daemons directly for
        worker-level series)."""
        if fmt == "prometheus":
            return {
                "type": "metricsSnapshot",
                "format": "prometheus",
                "text": REGISTRY.render_prometheus(),
            }
        return {
            **self.stats(),
            "type": "metricsSnapshot",
            "cluster": self.cluster.metrics_snapshot(),
            "registry": REGISTRY.snapshot(),
        }

    def trace_dump(self, trace_id: str | None = None) -> dict:
        """The merged span timeline: this root's recorder plus every
        worker daemon's ring buffer — the ``traceDump`` RPC payload.
        In-process workers share the root's recorder, so the cluster
        contributes only remote daemons' spans (no duplicates)."""
        spans = RECORDER.spans(trace_id)
        spans.extend(self.cluster.trace_dump(trace_id))
        return {"type": "traceDump", "spans": spans}


# ---------------------------------------------------------------------------
# Blocking client
# ---------------------------------------------------------------------------
class PendingQuery:
    """One in-flight request's reply stream on the client side."""

    def __init__(self, request: RpcRequest):
        self.request = request
        self._replies: "queue_mod.Queue[RpcReply]" = queue_mod.Queue()

    @property
    def request_id(self) -> int:
        return self.request.request_id

    def _push(self, reply: RpcReply) -> None:
        self._replies.put(reply)

    def replies(self, timeout: float | None = 60.0) -> Iterator[RpcReply]:
        """Yield replies until the terminal one (complete/cancelled/error/ack)."""
        while True:
            try:
                reply = self._replies.get(timeout=timeout)
            except queue_mod.Empty:
                raise ServiceError(
                    f"timed out waiting for a reply to request "
                    f"#{self.request_id} ({self.request.method})"
                )
            yield reply
            if reply.kind in TERMINAL_KINDS:
                return

    def result(
        self, timeout: float | None = 60.0, raise_on_error: bool = True
    ) -> RpcReply:
        """Drain the stream and return the terminal reply."""
        last = None
        for reply in self.replies(timeout=timeout):
            last = reply
        assert last is not None
        if raise_on_error and last.kind == "error":
            error = ServiceError(f"[{last.code}] {last.error}")
            error.code = last.code or "error"
            raise error
        return last


class ServiceClient:
    """A blocking client for tests, benchmarks and the terminal UI.

    One TCP connection, one session; a reader thread demultiplexes
    interleaved reply frames by request id, so several queries can stream
    concurrently over the same connection (newest-query-wins makes this
    the common case: submit, then submit again).
    """

    def __init__(
        self,
        host: str,
        port: int,
        session: str | None = None,
        connect_timeout: float = 10.0,
    ):
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._sock.settimeout(None)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._ids = itertools.count(1)
        self._pending: dict[int, PendingQuery] = {}
        self._lock = threading.Lock()
        self._closed = False
        # repro: ignore[C002] — client-side reply demux; requests are stamped with context in call(), replies carry none
        self._reader = threading.Thread(
            target=self._reader_loop, name="service-client-reader", daemon=True
        )
        self._reader.start()
        hello_args = {"session": session} if session else {}
        try:
            reply = self.call("hello", args=hello_args)
        except BaseException:
            # A refused handshake (e.g. a draining root) must not leak
            # the socket and reader thread of a never-born client.
            self.close()
            raise
        self.session_id: str = reply.payload["session"]

    # -- request plumbing ----------------------------------------------
    def submit(
        self,
        method: str,
        target: str = "",
        args: dict | None = None,
        trace: "TraceContext | None" = None,
    ) -> PendingQuery:
        """Send one request; returns immediately with its reply stream.

        ``trace`` stamps an explicit context on the envelope (``repro
        client trace`` mints one so it can fetch the spans afterwards);
        otherwise a root context is originated here when ``REPRO_TRACE``
        is on.  Untraced requests carry no trace field at all — the
        frame is byte-identical to the pre-tracing wire format.
        """
        request = RpcRequest(next(self._ids), target, method, args or {})
        if trace is None and trace_enabled():
            trace = TraceContext.new_root()
        if trace is not None:
            request.trace = trace.to_json()
        pending = PendingQuery(request)
        with self._lock:
            if self._closed:
                raise ServiceError("client is closed")
            self._pending[request.request_id] = pending
            self._wfile.write(encode_frame(request.to_json().encode("utf-8")))
            self._wfile.flush()
        return pending

    def call(
        self,
        method: str,
        target: str = "",
        args: dict | None = None,
        timeout: float | None = 60.0,
    ) -> RpcReply:
        """Send one request and block for its terminal reply."""
        return self.submit(method, target, args).result(timeout=timeout)

    def _reader_loop(self) -> None:
        try:
            while True:
                frame = read_frame_blocking(self._rfile)
                if frame is None:
                    break
                reply = RpcReply.from_json(frame.decode("utf-8"))
                with self._lock:
                    pending = self._pending.get(reply.request_id)
                    if pending is not None and reply.kind in TERMINAL_KINDS:
                        del self._pending[reply.request_id]
                if pending is not None:
                    pending._push(reply)
        except (ServiceError, OSError, ValueError):
            pass
        finally:
            with self._lock:
                orphans = list(self._pending.values())
                self._pending.clear()
            for pending in orphans:
                pending._push(
                    RpcReply(
                        pending.request_id,
                        "error",
                        error="connection closed",
                        code="connection",
                    )
                )

    # -- convenience verbs ---------------------------------------------
    def load(self, source: dict | None = None) -> str:
        """Load a source spec ({} = the server's default dataset)."""
        reply = self.call("load", args={"source": source or {}})
        return reply.payload["handle"]

    def sketch(self, target: str, spec: dict) -> PendingQuery:
        return self.submit("sketch", target, {"sketch": spec})

    def row_count(self, target: str) -> int:
        return self.call("rowCount", target).payload["rows"]

    def schema(self, target: str) -> list[dict]:
        return self.call("schema", target).payload["columns"]

    def cancel(self, request_id: int) -> bool:
        reply = self.call("cancel", args={"requestId": request_id})
        return bool(reply.payload["cancelled"])

    def stats(self) -> dict:
        return self.call("stats").payload

    def metrics_snapshot(self, fmt: str | None = None) -> dict:
        args = {"format": fmt} if fmt else {}
        return self.call("metricsSnapshot", args=args).payload

    def trace_dump(self, trace_id: str | None = None) -> list[dict]:
        args = {"traceId": trace_id} if trace_id else {}
        payload = self.call("traceDump", args=args).payload
        spans = payload.get("spans") if isinstance(payload, dict) else None
        return spans if isinstance(spans, list) else []

    def ping(self) -> bool:
        return self.call("ping").payload == {"pong": True}

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

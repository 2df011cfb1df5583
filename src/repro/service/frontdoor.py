"""What every client-facing listener of a root shares.

The TCP wire (:mod:`repro.service.transport`) and the HTTP/WebSocket
gateway (:mod:`repro.gateway.server`) are one front door with two
framings.  Each is a :class:`ServerHost` — an asyncio listener that runs
blocking or on a background thread — and every connection of either
writes through an :class:`Outbox`: a bounded queue of wire-ready frames
between the scheduler threads that produce replies and the one task that
writes them to the socket.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import TYPE_CHECKING

from repro.errors import EngineError

if TYPE_CHECKING:
    from repro.obs.metrics import Counter
    from repro.service.transport import ServiceServer

#: Frames one connection may have queued before its producers block.
OUTBOX_FRAMES = 64

#: How long a producer waits on a full outbox before it gives the client
#: up for stalled; the scheduler then cancels the query.
SINK_TIMEOUT_SECONDS = 30.0


class Outbox:
    """One connection's write side.  Create it on the connection's loop.

    Frames are bytes, encoded by whoever produced them.  ``send`` is for
    any thread and *blocks* while the queue is full — that block is the
    backpressure path from a slow client, through the scheduler worker
    producing its partials, into sketch execution.  ``put`` is its
    awaitable twin for the connection's own reader.  ``close`` writes out
    what is already queued, then closes the socket.
    """

    def __init__(self, writer: asyncio.StreamWriter, sent: "Counter"):
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

    async def _run(self, writer: asyncio.StreamWriter, sent: "Counter") -> None:
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


class ServerHost:
    """One asyncio listener: bind, serve (blocking or on a background
    thread), stop.  Subclasses provide ``_handle_connection``.

    ``core`` is the root the listener belongs to; it is told when the
    listener comes up and goes down, and keeps the root's one sweep task
    on a loop that is running.
    """

    def __init__(self, core: "ServiceServer", name: str, host: str, port: int):
        self.core = core
        self.name = name
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns (host, port)."""
        self.loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self.core.listener_up(self)
        return self.address

    async def _shutdown(self) -> None:
        self.core.listener_down(self)
        self._server.close()
        await self._server.wait_closed()

    async def serve_forever(self, started: threading.Event | None = None) -> None:
        """Start (if needed) and serve until cancelled or closed;
        ``started`` is set once the socket is listening."""
        if self._server is None:
            await self.start()
        self._stop = asyncio.Event()
        if started is not None:
            started.set()
        try:
            await self._stop.wait()
        finally:
            await self._shutdown()

    def run(self) -> None:
        """Blocking entry point (``repro serve``)."""
        try:
            asyncio.run(self.serve_forever())
        except KeyboardInterrupt:
            pass

    def start_background(self, timeout: float = 10.0) -> tuple[str, int]:
        """Serve from a daemon thread (tests, benchmarks, ``repro
        gateway``); returns the bound (host, port) once listening."""
        started = threading.Event()
        # repro: ignore[C002] — process-lifetime event-loop host thread; per-request context starts at the RPC layer
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.serve_forever(started)),
            name=self.name,
            daemon=True,
        )
        self._thread.start()
        if not started.wait(timeout):
            raise EngineError(f"{self.name} failed to start")
        assert self.address is not None
        return self.address

    def close(self) -> None:
        """Stop serving; joins the background thread if there is one."""
        if self.loop is not None and self._stop is not None:
            try:
                self.loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

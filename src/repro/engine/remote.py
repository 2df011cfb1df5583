"""Out-of-process workers: the root/worker wire of the paper (§5.2, §5.8).

Hillview's root node fans queries out to worker *processes* on separate
servers.  This module is that deployment for the reproduction:

* :class:`WorkerServer` — the worker daemon (``repro worker``): a plain
  in-process :class:`~repro.engine.cluster.Worker` behind a socket.  It
  owns only what is about connections (links, per-link cancellation
  tokens, the SIGTERM drain, the cache-sweep timer);
  every request is dispatched from the verb table
  (:mod:`repro.engine.verbs`) onto the worker, which owns its shard
  store, its placement and the rules around them;
* :class:`RemoteWorkerProxy` — the root's view of one worker process;
  implements :class:`~repro.engine.cluster.WorkerProtocol` with stubs
  derived from the same table, so the generic
  :class:`~repro.engine.cluster.Cluster` machinery (broadcast, 0.1 s
  aggregation cadence, progressive merge, redo-log replay, grow/shrink)
  runs unchanged over a real network;
* :func:`spawn_worker` — start a ``repro worker --listen`` daemon on
  this machine, tied to its starter by a stdin pipe, and return its
  announced address;
* :class:`ProcessCluster` — a cluster of daemons its root dials: ones it
  spawned, or pre-started ones reached by address.  Growing, shrinking
  and adopting a fleet that *other* roots resize are
  :class:`~repro.engine.cluster.Cluster`'s; this class only says how a
  worker is minted (spawn a daemon, dial it), how a member is reached
  (dial its address) and how one is let go of.  A worker that dies —
  even SIGKILL mid-sketch — is respawned on its old port and its stream
  re-run; lineage replay rebuilds its soft state and cumulative partials
  make the retry invisible to the streaming client (§5.7–5.8).

Control messages on this wire are JSON: sketches travel as the same specs
a browser submits and lineage travels as load/map descriptions — one codec
for every hop.  Bulk payloads (sketch partials, shard transfers) ride the
same frames as binary attachments — each summary's own Encoder format and
raw hvc table bytes — never as base64 inside the JSON.
"""

from __future__ import annotations

import abc
import ctypes
import itertools
import json
import os
import queue
import resource
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Iterator, Sequence

from repro.core.framing import FrameError, read_frame_blocking, write_frame
from repro.engine.cluster import (
    Cluster,
    StolenParcel,
    Worker,
    WorkerEmission,
    WorkerProtocol,
)
from repro.engine.placement import (
    StalePlacementError,
    format_address,
    parse_address,
    parse_announcement,
)
from repro.engine.progress import CancellationToken
from repro.engine.rpc import (
    TERMINAL_REPLY_KINDS,
    ProtocolError,
    RpcReply,
    RpcRequest,
    call_once,
    summary_attachment,
    summary_from_bytes,
)
from repro.engine.verbs import VERBS, WIRE_VERBS, Verb
from repro.errors import (
    EngineError,
    HillviewError,
    SerializationError,
    WorkerDrainingError,
    WorkerUnavailableError,
)
from repro.obs.logs import configure_logging, log_event
from repro.obs.metrics import REGISTRY
from repro.obs.trace import (
    RECORDER,
    TraceContext,
    current_context,
    serve_span,
    set_service_name,
)

#: Roughly how many shard payload bytes one adoptShards batch carries
#: (well under MAX_FRAME_BYTES so the envelope always fits).
_TRANSFER_BATCH_BYTES = 8 * 1024 * 1024

#: How long a spawned daemon may take to announce its address, and a
#: root to connect to a daemon and exchange ``hello``.
STARTUP_TIMEOUT = 30.0

#: How long a root waits on one worker request (between partials, for
#: a sketch stream) before declaring the worker unavailable.
REQUEST_TIMEOUT = 300.0


# ---------------------------------------------------------------------------
# The worker daemon
# ---------------------------------------------------------------------------
class _RootLink:
    """One root's connection to this worker, with its own request-id space.

    A fleet daemon serves several roots at once (the multi-root service
    tier); each root numbers its requests independently, so cancellation
    state and the write lock must be per-connection — a shared token table
    would let root A's request #7 cancel root B's request #7.
    """

    def __init__(self, rfile, wfile):
        self.rfile = rfile
        self.wfile = wfile
        self.write_lock = threading.Lock()
        self.tokens: dict[int, CancellationToken] = {}
        #: Cancels that arrived before their sketch left the request pool's
        #: queue (the token is only registered when execution starts).
        self.cancelled_early: set[int] = set()
        self.tokens_lock = threading.Lock()


def _push_parcels(
    target: str, dataset_id: str, version: int, parcels: "list[StolenParcel]"
) -> int:
    """A daemon's :attr:`Worker.deliver`: dial the member and hand it the
    moved shards as ``adoptShards`` frames of roughly
    :data:`_TRANSFER_BATCH_BYTES` each; returns how many it staged."""
    from repro.storage.columnar import table_to_bytes

    try:
        peer = dial_worker(*parse_address(target), timeout=30.0, request_timeout=120.0)
    except OSError as exc:  # an error reply now, not the root's full timeout
        raise WorkerUnavailableError(f"cannot reach {target}: {exc}") from exc
    try:
        staged = 0
        batch: "list[StolenParcel]" = []
        batch_bytes = 0
        for parcel in parcels:
            shard = parcel.resolve()
            payload = table_to_bytes(shard)
            batch.append(
                StolenParcel(
                    parcel.global_index, payload=payload, shard_id=shard.shard_id
                )
            )
            batch_bytes += len(payload)
            if batch_bytes >= _TRANSFER_BATCH_BYTES:
                staged += peer.adopt_shards(dataset_id, version, batch)
                batch, batch_bytes = [], 0
        if batch:
            staged += peer.adopt_shards(dataset_id, version, batch)
        return staged
    finally:
        peer.close()


class WorkerServer:
    """One worker process: a :class:`Worker` behind a socket.

    ``run_listen`` binds a port and serves roots as they dial in
    (``--listen``), whoever started the daemon: an init system, an
    operator, or a root that spawned it (:func:`spawn_worker`).  Several
    roots may be connected at once, each on its own thread — the
    multi-root service tier shares one fleet this way.

    The connection protocol is request/reply: after the dialing root's
    ``hello`` it sends :class:`~repro.engine.rpc.RpcRequest`
    envelopes — the verbs of :data:`repro.engine.verbs.WIRE_VERBS`,
    dispatched from that table — and the worker streams back replies,
    interleaved by request id.  ``sketch`` streams cumulative summaries
    as binary attachments: a ``partial`` per aggregation-cadence tick,
    the last summary on the terminal ``complete``.

    Everything about *what the worker holds* — the sticky versioned
    placement, the admission guard, rebalance staging — lives in the
    :class:`Worker`; this class keeps only what is about sockets: links,
    per-link tokens, the SIGTERM drain, the sweep timer.
    """

    def __init__(
        self,
        name: str | None = None,
        cores: int = 4,
        cache_entries: int = 64,
        cache_ttl_seconds: float = 2 * 3600.0,
        cache_sweep_interval_seconds: float = 300.0,
    ):
        # "slow" sketches (service load tests) must deserialize here too.
        import repro.service.slow  # noqa: F401

        self.worker = Worker(
            name or f"worker-{os.getpid()}",
            cores=cores,
            cache_entries=cache_entries,
            cache_ttl_seconds=cache_ttl_seconds,
        )
        # Between daemons a moved shard travels as an adoptShards frame.
        self.worker.deliver = _push_parcels
        self._shutdown = threading.Event()
        self._listener: socket.socket | None = None
        self.requests_served = 0
        self.roots_served = 0
        #: Requests admitted to the handler pool whose replies are not
        #: all written yet — the daemon's queue depth, reported by
        #: ``metricsSnapshot`` and waited out by a drain.  The lock also
        #: covers ``requests_served``: one serving thread per attached
        #: root bumps it.
        self._inflight = 0
        self._inflight_lock = threading.Condition()
        #: The daemon-side cache sweep (§5.4: "unused for 2 hours →
        #: purged"): a timer thread drops TTL-expired shards and memo
        #: entries so idle daemons actually release memory instead of
        #: waiting for the next get() to notice staleness.  <= 0 disables.
        self.cache_sweep_interval_seconds = cache_sweep_interval_seconds
        self.cache_entries_purged = 0
        self._sweeper: threading.Thread | None = None
        self._sweeper_lock = threading.Lock()

    # -- the cache sweep -------------------------------------------------
    def _start_sweeper(self) -> None:
        """Start the periodic cache sweep (idempotent; daemon thread)."""
        if self.cache_sweep_interval_seconds <= 0:
            return
        with self._sweeper_lock:
            if self._sweeper is not None and self._sweeper.is_alive():
                return
            # repro: ignore[C002] — daemon-lifetime TTL sweep; no query context exists to carry
            self._sweeper = threading.Thread(
                target=self._sweep_loop,
                name=f"{self.worker.name}-cache-sweep",
                daemon=True,
            )
            self._sweeper.start()

    def _sweep_loop(self) -> None:
        while not self._shutdown.wait(self.cache_sweep_interval_seconds):
            self.sweep_caches()

    # -- graceful shutdown (SIGTERM) -------------------------------------
    def begin_drain(self) -> None:
        """Start a graceful shutdown: stop accepting roots, refuse new
        state-creating requests (an ``ensure`` that would read a source
        among them), let in-flight partial streams finish.

        Idempotent; wired to SIGTERM by ``repro worker`` so a fleet
        shrink or a CI teardown never races a mid-stream kill."""
        self.worker.draining.set()
        self._close_listener()

    def _close_listener(self) -> None:
        listener = self._listener
        if listener is not None:
            try:  # unblocks the accept loop
                listener.close()
            except OSError:
                pass

    @property
    def draining(self) -> bool:
        return self.worker.draining.is_set()

    def wait_drained(self, timeout: float = 30.0) -> bool:
        """Block until every in-flight request has been answered in full
        (or timeout).

        Returns whether the worker is idle; ``repro worker`` calls this
        after SIGTERM before letting the process exit."""
        with self._inflight_lock:
            return self._inflight_lock.wait_for(
                lambda: not self._inflight, timeout
            )

    # -- attachment ----------------------------------------------------
    def run_listen(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_bound=None,
    ) -> None:
        """Bind and serve roots as they dial in (daemon-fleet mode).

        Each root gets its own serving thread, so N service front-ends can
        share this worker concurrently.
        """
        self._start_sweeper()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(16)
        self._listener = listener
        if on_bound is not None:
            on_bound(listener.getsockname()[:2])
        try:
            while not self._shutdown.is_set():
                try:
                    sock, _ = listener.accept()
                except OSError:
                    break  # listener closed by a shutdown RPC
                sock.settimeout(None)
                self.roots_served += 1
                # repro: ignore[C002] — per-connection server thread; trace context rides each RPC envelope and is restored in _handle
                threading.Thread(
                    target=self.serve_socket,
                    args=(sock,),
                    name=f"{self.worker.name}-root-{self.roots_served}",
                    daemon=True,
                ).start()
        finally:
            self._close_listener()
            self._listener = None

    def serve_socket(self, sock: socket.socket) -> None:
        """Serve one root over an already-connected socket until it
        disconnects (the accept loop's per-root thread; tests hand it
        one end of a ``socketpair``)."""
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        try:
            self._serve(rfile, wfile)
        finally:
            for stream in (rfile, wfile, sock):
                try:
                    stream.close()
                except OSError:
                    pass

    # -- what the daemon adds to its worker's answers ---------------------
    def _info(self) -> dict:
        return {
            "name": self.worker.name,
            "pid": os.getpid(),
            "cores": self.worker.cores,
        }

    def sweep_caches(self) -> int:
        """One TTL sweep — the periodic timer's tick, or on demand
        (operators, tests) through the ``sweepCaches`` verb."""
        purged = self.worker.sweep_caches()
        self.cache_entries_purged += purged
        return purged

    def metrics_snapshot(self) -> dict:
        """The daemon's one report: its worker's snapshot (both caches
        whole) plus queue depth, in-flight dataset ops, placement
        version, this process's CPU seconds (user + system) and minor
        page faults, and its metrics registry — one payload for
        ``repro fleet top``, the autoscaler and the root's fleet-wide
        aggregation."""
        with self._inflight_lock:
            inflight = self._inflight
        usage = resource.getrusage(resource.RUSAGE_SELF)
        snapshot = self.worker.metrics_snapshot()
        snapshot.update(
            {
                "pid": os.getpid(),
                "cpuSeconds": round(usage.ru_utime + usage.ru_stime, 6),
                "minorFaults": usage.ru_minflt,
                "inflight": inflight,
                "datasetOps": self.worker.dataset_ops,
                "requestsServed": self.requests_served,
                "rootsServed": self.roots_served,
                "placementVersion": self.worker.version,
                "draining": self.draining,
                "entriesPurged": self.cache_entries_purged,
                "spansBuffered": len(RECORDER),
                "registry": REGISTRY.snapshot(),
            }
        )
        return snapshot

    @staticmethod
    def trace_dump(trace_id: str | None = None) -> list[dict]:
        return RECORDER.spans(trace_id)

    # -- the request loop ----------------------------------------------
    def _serve(self, rfile, wfile) -> None:
        import concurrent.futures

        link = _RootLink(rfile, wfile)
        with concurrent.futures.ThreadPoolExecutor(
            max(4, self.worker.cores)
        ) as pool:
            try:
                while not self._shutdown.is_set():
                    frame = read_frame_blocking(rfile, error=FrameError)
                    if frame is None:
                        break
                    try:
                        request = RpcRequest.from_frame(frame)
                    except (
                        ProtocolError,
                        SerializationError,
                        UnicodeDecodeError,
                    ) as exc:
                        self._reply(
                            link,
                            RpcReply(-1, "error", error=str(exc), code="protocol"),
                        )
                        continue
                    with self._inflight_lock:
                        self.requests_served += 1
                    if request.method == "hello":
                        self._reply(
                            link,
                            RpcReply(request.request_id, "ack", payload=self._info()),
                        )
                    elif request.method == "cancel":
                        # Handled inline so a cancel is never stuck behind
                        # the sketch it is trying to stop.  A cancel may
                        # outrun its sketch through the request pool: the
                        # target id is remembered and honored when the
                        # sketch registers its token (§5.3 must hold even
                        # on a saturated worker).
                        target = int(request.args.get("requestId", -1))
                        with link.tokens_lock:
                            token = link.tokens.get(target)
                            if token is None:
                                link.cancelled_early.add(target)
                                if len(link.cancelled_early) > 1024:
                                    link.cancelled_early.clear()
                        if token is not None:
                            token.cancel()
                        self._reply(
                            link,
                            RpcReply(
                                request.request_id,
                                "ack",
                                payload={"cancelled": True},
                            ),
                        )
                    elif request.method == "shutdown":
                        self._reply(link, RpcReply(request.request_id, "ack"))
                        self._shutdown.set()
                        self._close_listener()
                        break
                    else:
                        pool.submit(self._handle, request, link)
            except (FrameError, ConnectionError, OSError):
                pass  # root went away; fall through to cancel leftovers
            finally:
                with link.tokens_lock:
                    for token in link.tokens.values():
                        token.cancel()

    def _reply(self, link: _RootLink, reply: RpcReply) -> None:
        with link.write_lock:
            write_frame(link.wfile, reply.to_frame())

    def _handle(self, request: RpcRequest, link: _RootLink) -> None:
        # The envelope's trace context (if any) identifies this span: the
        # root allocated the id when it stamped the request, so the
        # merged timeline shows the daemon-side handling nested exactly
        # under the root's submission — regardless of this daemon's own
        # REPRO_TRACE setting (tracing one query traces the whole fleet).
        ctx = TraceContext.from_json(request.trace)
        # The metrics probe reports the in-flight count; it is not work.
        counted = request.method != "metricsSnapshot"
        if counted:
            with self._inflight_lock:
                self._inflight += 1
        try:
            # The terminal reply waits for the span to close, so a trace
            # read once the root holds it already has ``worker.<verb>``.
            terminal = None
            with serve_span(
                ctx, f"worker.{request.method}", worker=self.worker.name
            ):
                for reply in self._dispatch(request, link):
                    if reply.kind in TERMINAL_REPLY_KINDS:
                        terminal = reply
                    else:
                        self._reply(link, reply)
            if terminal is not None:
                self._reply(link, terminal)
        except (ConnectionError, OSError, ValueError):
            # The root is gone mid-stream: stop producing for it.
            with link.tokens_lock:
                token = link.tokens.get(request.request_id)
            if token is not None:
                token.cancel()
        except HillviewError as exc:
            self._safe_error(link, request, str(exc), exc.code)
        except Exception as exc:  # repro: ignore[B001] — shield the worker loop
            self._safe_error(
                link, request, f"internal error: {type(exc).__name__}: {exc}",
                "internal",
            )
        finally:
            if counted:
                with self._inflight_lock:
                    self._inflight -= 1
                    self._inflight_lock.notify_all()

    def _safe_error(
        self, link: _RootLink, request, message: str, code: str
    ) -> None:
        try:
            self._reply(
                link,
                RpcReply(request.request_id, "error", error=message, code=code),
            )
        except (ConnectionError, OSError, ValueError):
            pass

    def _dispatch(
        self, request: RpcRequest, link: _RootLink
    ) -> Iterator[RpcReply]:
        """Serve one request from the verb table."""
        verb = VERBS.get(request.method)
        if verb is None or verb.method is None:
            raise ProtocolError(f"unknown worker method {request.method!r}")
        if verb.refused_draining and self.worker.draining.is_set():
            raise WorkerDrainingError(
                f"worker {self.worker.name} is draining for shutdown and "
                f"refuses {verb.wire!r}"
            )
        if verb.streaming:  # the one verb with a body of its own
            yield from self._run_sketch(request, link)
        else:
            yield verb.serve(self if verb.daemon else self.worker, request)

    def _run_sketch(
        self, request: RpcRequest, link: _RootLink
    ) -> Iterator[RpcReply]:
        dataset, sketch, lineage, run, version = VERBS["sketch"].arguments(request)
        token = CancellationToken()
        with link.tokens_lock:
            link.tokens[request.request_id] = token
            if request.request_id in link.cancelled_early:
                link.cancelled_early.discard(request.request_id)
                token.cancel()
        try:
            final = False
            for emission in self.worker.sketch_partials(
                dataset, sketch, lineage, token, run, version
            ):
                # The summary travels as its own Encoder format in the
                # attachment; the final one on the terminal reply.
                final = emission.final
                attachment, size = summary_attachment(emission.summary)
                reply = RpcReply(
                    request.request_id,
                    "complete" if final else "partial",
                    progress=1.0 if final else 0.0,
                    payload={
                        "shardsDone": emission.shards_done,
                        "bytes": size,
                        "cacheHit": emission.cache_hit,
                    },
                )
                reply.attachment = attachment
                yield reply
            if not final:  # nothing was folded: a bare terminal
                yield RpcReply(request.request_id, "complete")
        finally:
            with link.tokens_lock:
                link.tokens.pop(request.request_id, None)


# ---------------------------------------------------------------------------
# Root side: channel + proxy
# ---------------------------------------------------------------------------
def _emission(name: str, reply: RpcReply) -> WorkerEmission:
    """A ``sketch`` reply's emission, checked: another process wrote it."""
    fields = reply.payload if isinstance(reply.payload, dict) else {}
    shards_done, size = fields.get("shardsDone"), fields.get("bytes")
    if reply.attachment is None or {type(shards_done), type(size)} != {int}:
        raise ProtocolError(
            f"worker {name} sent a malformed sketch {reply.kind} (it needs a "
            f"summary attachment, integer shardsDone and bytes): {reply.payload!r}"
        )
    return WorkerEmission(
        summary_from_bytes(reply.attachment), shards_done, size,
        cache_hit=bool(fields.get("cacheHit")), final=reply.kind != "partial",
    )


def _raise_for_error_reply(name: str, reply: RpcReply) -> None:
    """Map a worker's error envelope to the root-side exception class."""
    if reply.code in ("connection", "worker_unavailable", "worker_draining"):
        raise WorkerUnavailableError(f"worker {name}: {reply.error}")
    if reply.code == "stale_placement":
        raise StalePlacementError(f"worker {name}: {reply.error}")
    raise EngineError(f"worker {name}: [{reply.code}] {reply.error}")


class _WorkerChannel:
    """One framed connection to a worker, demultiplexed by request id."""

    def __init__(self, sock: socket.socket, name: str):
        self.name = name
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        self._ids = itertools.count(1)
        self._pending: dict[int, "queue.Queue[RpcReply]"] = {}
        self._lock = threading.Lock()
        self.dead = threading.Event()
        # repro: ignore[C002] — reply-demux thread; contexts are stamped per request in submit(), replies carry none
        self._reader = threading.Thread(
            target=self._reader_loop, name=f"{name}-reader", daemon=True
        )
        self._reader.start()

    def submit(
        self,
        method: str,
        args: dict,
        attachment: bytes | None = None,
    ) -> tuple[int, "queue.Queue[RpcReply]"]:
        request = RpcRequest(next(self._ids), "", method, args)
        request.attachment = attachment
        # Auto-propagation: any RPC issued while the calling thread is
        # inside a traced span carries a child context on its envelope,
        # so every root→worker hop parents correctly with zero changes
        # at the call sites.  Untraced threads stamp nothing and the
        # wire bytes stay identical to the pre-tracing format.
        ctx = current_context()
        if ctx is not None:
            request.trace = ctx.child().to_json()
        payload = request.to_frame()
        replies: "queue.Queue[RpcReply]" = queue.Queue()
        with self._lock:
            if self.dead.is_set():
                raise WorkerUnavailableError(
                    f"worker {self.name} connection is closed"
                )
            self._pending[request.request_id] = replies
            try:
                write_frame(self._wfile, payload)
            except (ConnectionError, OSError, ValueError) as exc:
                self._pending.pop(request.request_id, None)
                self.dead.set()
                raise WorkerUnavailableError(
                    f"worker {self.name} is unreachable: {exc}"
                ) from exc
        REGISTRY.counter(
            "rpc.worker.bytes_sent", "request bytes on the root→worker wire"
        ).inc(len(payload))
        return request.request_id, replies

    def call(
        self,
        method: str,
        args: dict,
        timeout: float = 60.0,
        attachment: bytes | None = None,
    ) -> RpcReply:
        """One request, blocking for its terminal reply."""
        request_id, replies = self.submit(method, args, attachment=attachment)
        deadline = time.monotonic() + timeout
        try:
            while True:
                try:  # a dying connection answers every pending request
                    reply = replies.get(timeout=max(0.0, deadline - time.monotonic()))
                except queue.Empty:
                    raise WorkerUnavailableError(
                        f"worker {self.name} did not answer {method!r} "
                        f"within {timeout:.0f}s"
                    ) from None
                if reply.kind == "error":
                    _raise_for_error_reply(self.name, reply)
                if reply.kind in TERMINAL_REPLY_KINDS:
                    return reply
        finally:
            self.forget(request_id)

    def forget(self, request_id: int) -> None:
        """Unregister a request nobody waits on any more (it timed out,
        or its stream was abandoned): a reply that still arrives is then
        dropped by the reader instead of queued for the connection's
        lifetime.  A no-op once the terminal reply was delivered."""
        with self._lock:
            self._pending.pop(request_id, None)

    def _reader_loop(self) -> None:
        received = REGISTRY.counter(
            "rpc.worker.bytes_received",
            "reply bytes on the root→worker wire",
        )
        try:
            while True:
                frame = read_frame_blocking(self._rfile, error=FrameError)
                if frame is None:
                    break
                received.inc(len(frame))
                reply = RpcReply.from_frame(frame)
                with self._lock:
                    replies = self._pending.get(reply.request_id)
                    if replies is not None and reply.kind in TERMINAL_REPLY_KINDS:
                        del self._pending[reply.request_id]
                if replies is not None:
                    replies.put(reply)
        except (FrameError, OSError, ValueError, SerializationError):
            pass
        finally:
            self.dead.set()
            with self._lock:
                orphans = list(self._pending.items())
                self._pending.clear()
            for request_id, replies in orphans:
                replies.put(
                    RpcReply(
                        request_id,
                        "error",
                        error=f"connection to worker {self.name} lost",
                        code="connection",
                    )
                )

    def close(self) -> None:
        self.dead.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.join(timeout=5.0)
        # The descriptor closes with the last file object made from the
        # socket.  The reader's file closes only once the reader left it
        # (a close would wait out its read).
        streams = [self._wfile, self._sock]
        if not self._reader.is_alive():
            streams.insert(0, self._rfile)
        with self._lock:  # no submit is mid-write
            for stream in streams:
                try:
                    stream.close()
                except OSError:
                    pass


class RemoteWorkerProxy(WorkerProtocol):
    """The root's handle on one worker process (drop-in for ``Worker``).

    Every verb but the streaming ``sketch`` is a stub derived from
    :data:`~repro.engine.verbs.WIRE_VERBS` (attached below the class).
    """

    def __init__(
        self,
        name: str,
        channel: _WorkerChannel,
        cores: int,
        address: tuple[str, int],
        request_timeout: float = REQUEST_TIMEOUT,
    ):
        self.name = name
        self.channel = channel
        self.cores = cores
        self.address = address
        #: The daemon's process when this root spawned it (ours to
        #: respawn and shut down); None for a daemon someone else runs.
        self.process: "subprocess.Popen | None" = None
        self.request_timeout = request_timeout

    @property
    def member(self) -> str:
        return format_address(self.address)

    @property
    def alive(self) -> bool:
        if self.channel.dead.is_set():
            return False
        if self.process is not None and self.process.poll() is not None:
            return False
        return True

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def sketch_partials(
        self,
        dataset_id: str,
        sketch,
        lineage: list,
        token: CancellationToken | None = None,
        run: str | None = None,
        version: int | None = None,
    ) -> Iterator[WorkerEmission]:
        args, _ = VERBS["sketch"].request(
            (dataset_id, sketch, lineage, run, version), {}
        )
        request_id, replies = self.channel.submit("sketch", args)
        try:
            cancel_sent = False
            deadline = time.monotonic() + self.request_timeout
            while True:
                if token is not None and token.cancelled and not cancel_sent:
                    cancel_sent = True
                    try:
                        self.channel.submit("cancel", {"requestId": request_id})
                    except WorkerUnavailableError:
                        pass  # the dead-channel path below reports it
                try:
                    reply = replies.get(timeout=0.05)
                except queue.Empty:
                    if self.channel.dead.is_set():
                        raise WorkerUnavailableError(
                            f"worker {self.name} died mid-sketch"
                        )
                    if time.monotonic() > deadline:
                        raise WorkerUnavailableError(
                            f"worker {self.name} stalled mid-sketch "
                            f"(> {self.request_timeout:.0f}s)"
                        )
                    continue
                deadline = time.monotonic() + self.request_timeout
                if reply.kind == "error":
                    _raise_for_error_reply(self.name, reply)
                if reply.kind == "partial" or reply.attachment is not None:
                    yield _emission(self.name, reply)
                if reply.kind != "partial":  # the terminal: the stream's end
                    return
        finally:
            # A stream abandoned before its terminal reply (stall
            # timeout, consumer closed the generator) must not leave its
            # queue registered for a late reply to feed.
            self.channel.forget(request_id)

    def close(self) -> None:
        # Only a worker we spawned is ours to shut down.  A pre-started
        # daemon is shared fleet infrastructure: other roots may be
        # serving through it right now, so detaching just closes this
        # root's connection (the daemon outlives any particular root).
        if self.process is not None and not self.channel.dead.is_set():
            try:
                self.channel.call("shutdown", {}, timeout=2.0)
            except (WorkerUnavailableError, EngineError):
                pass
        self.channel.close()
        if self.process is not None:
            try:
                self.process.terminate()
                self.process.wait(timeout=5.0)
            except (OSError, subprocess.TimeoutExpired):
                try:
                    self.process.kill()
                    self.process.wait(timeout=5.0)
                except (OSError, subprocess.TimeoutExpired):
                    pass
            for pipe in (self.process.stdin, self.process.stdout):
                pipe.close()

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<RemoteWorkerProxy {self.name} cores={self.cores} {state}>"


def _stub(verb: Verb):
    """The proxy method for one verb: encode the arguments, one blocking
    call, decode the reply — all from the verb's row."""

    def stub(self: RemoteWorkerProxy, *values, timeout: float | None = None, **named):
        args, attachment = verb.request(values, named)
        reply = self.channel.call(
            verb.wire,
            args,
            # A commit or retire first drains the worker's in-flight ops.
            timeout=timeout
            or max(self.request_timeout, args.get("drainTimeout", 0.0) + 30.0),
            attachment=attachment,
        )
        return verb.result(reply)

    stub.__name__ = verb.stub or verb.method
    stub.__doc__ = f"The ``{verb.wire}`` verb (derived from the verb table)."
    return stub


for _verb in WIRE_VERBS:
    if _verb.method is not None and not _verb.streaming:
        setattr(RemoteWorkerProxy, _verb.stub or _verb.method, _stub(_verb))
abc.update_abstractmethods(RemoteWorkerProxy)


def dial_worker(
    host: str, port: int, timeout: float = 10.0, request_timeout: float = REQUEST_TIMEOUT
) -> RemoteWorkerProxy:
    """Connect to a listening worker daemon and say ``hello``: the one
    way anything — a root attaching, a status sweep, a daemon pushing
    shards to a peer — opens the worker wire.  ``timeout`` bounds the
    connect and the handshake."""
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        with sock.makefile("rb") as rfile, sock.makefile("wb") as wfile:
            ack = call_once(rfile, wfile, 0, "hello", where=f"worker {host}:{port}")
    except BaseException:
        sock.close()
        raise
    sock.settimeout(None)
    payload = ack.payload if isinstance(ack.payload, dict) else {}
    name = str(payload.get("name", f"{host}:{port}"))
    return RemoteWorkerProxy(
        name,
        _WorkerChannel(sock, name),
        int(payload.get("cores", 1)),
        (host, port),
        request_timeout=request_timeout,
    )


# ---------------------------------------------------------------------------
# Spawned daemons and ProcessCluster
# ---------------------------------------------------------------------------
def _spawn_env() -> dict:
    """The child's environment, with this package importable."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return env


def spawn_worker(
    name: str, cores: int, port: int = 0
) -> "tuple[subprocess.Popen, tuple[str, int]]":
    """Start a ``repro worker --listen`` daemon on this machine; returns
    its process and the address it announced.

    The daemon's stdin is a pipe this process holds, so when this
    process exits — or is killed — the daemon drains and exits too
    (``--exit-on-stdin-eof``).  A daemon that dies before announcing
    fails here at once, naming its exit status."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--listen", f"127.0.0.1:{port}",
            "--name", name,
            "--cores", str(cores),
            "--exit-on-stdin-eof",
        ],
        env=_spawn_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    announced, _, _ = select.select([process.stdout], [], [], STARTUP_TIMEOUT)
    line = process.stdout.readline() if announced else ""
    if line:
        return process, parse_announcement(line)
    with process:  # closes its pipes and reaps it
        if not announced:
            process.kill()
    raise EngineError(
        f"worker {name} exited with status {process.returncode} before "
        f"announcing its address (startup timeout {STARTUP_TIMEOUT:.0f}s)"
    )


class ProcessCluster(Cluster):
    """A cluster whose workers are ``repro worker --listen`` daemons,
    each its own OS process (§5.2), and every one dialed by the root.

    Two construction modes:

    * ``ProcessCluster(num_workers=4)`` — spawn the daemons on this
      machine (:func:`spawn_worker`); the zero-config path (``repro
      serve --spawn``).  They exit with the root.
    * ``ProcessCluster(addresses=[(host, port), ...])`` — attach to
      pre-started daemons, one per server; they outlive any root.

    Both fleets grow, shrink and resync through :class:`Cluster`
    (``grow(n)`` spawns ``n`` more daemons).  A worker that dies
    mid-query is revived — a daemon this root spawned is respawned on its
    old port, so its member token stays the same — re-dialed,
    reconfigured, and the sketch stream re-run; redo-log lineage
    rebuilds its soft state (§5.8).
    """

    def __init__(
        self,
        num_workers: int = 4,
        cores_per_worker: "int | Sequence[int]" = 2,
        aggregation_interval: float = 0.1,
        addresses: "list[tuple[str, int]] | None" = None,
        preserve_cadence: bool = False,
    ):
        #: Administrative attaches (the fleet CLI) must not rewrite the
        #: serving tier's worker cadence with this cluster's default.
        self._preserve_cadence = preserve_cadence
        self._revive_lock = threading.Lock()
        #: Proxies dropped from the placement by a resize/resync, with
        #: their detach times.  Their connections stay open so in-flight
        #: streams admitted under the old placement can drain, then are
        #: pruned after a grace period (a long-lived root riding many
        #: resizes must not accumulate dead sockets and reader threads).
        self._detached: "list[tuple[float, RemoteWorkerProxy]]" = []
        # Sorted, so two roots listing a fresh fleet in different orders
        # slice it alike; a placed fleet's own order wins.
        members = (
            None if addresses is None else [format_address(a) for a in sorted(addresses)]
        )
        super().__init__(
            num_workers, cores_per_worker, aggregation_interval, workers=members
        )

    # -- minting, reaching and releasing workers -------------------------
    def _mint(self, name: str, cores: int, port: int = 0) -> RemoteWorkerProxy:
        process, address = spawn_worker(name, cores, port)
        try:
            proxy = self._retry_dial(address)
        except BaseException:
            with process:  # closes its pipes and reaps it
                process.kill()
            raise
        proxy.process = process
        return proxy

    def _reach(self, member: str) -> RemoteWorkerProxy:
        return dial_worker(*parse_address(member), STARTUP_TIMEOUT)

    def _release(self, proxy: "RemoteWorkerProxy") -> None:
        """Drop a proxy from the placement without killing streams that
        are still draining on it; closed after the grace period."""
        self._prune_detached()
        self._detached.append((time.monotonic(), proxy))

    def _prune_detached(self) -> None:
        """Close detached proxies whose drain grace has passed.  Any
        stream admitted under the old placement finishes well inside one
        request timeout, after which the connection is just a leak."""
        grace = max(REQUEST_TIMEOUT, 60.0)
        now = time.monotonic()
        keep: "list[tuple[float, RemoteWorkerProxy]]" = []
        for stamped, proxy in self._detached:
            if now - stamped > grace:
                proxy.close()
            else:
                keep.append((stamped, proxy))
        self._detached = keep

    def _cadence(self) -> float | None:
        return None if self._preserve_cadence else self.aggregation_interval

    # -- fault recovery (§5.8) ------------------------------------------
    def revive_worker(self, index: int) -> bool:
        """Respawn (if this root spawned it) and re-dial a dead worker,
        then reconfigure it."""
        with self._revive_lock:
            proxy = self.workers[index]
            try:
                if proxy.alive and proxy.ping(timeout=5.0):
                    return True  # another thread already revived it
            except (WorkerUnavailableError, EngineError):
                pass
            proxy.close()
            try:
                replacement = (
                    self._mint(proxy.name, proxy.cores, proxy.address[1])
                    if proxy.process is not None
                    else self._retry_dial(proxy.address)
                )
            except (EngineError, OSError):
                return False
            try:
                self._configure(index, replacement)
            except StalePlacementError:
                # The fleet moved on (the worker was retired, or our
                # version is old): close the dial and let the error
                # propagate so the placement-retry machinery resyncs —
                # endlessly re-reviving here would never converge.
                replacement.close()
                raise
            except (WorkerUnavailableError, EngineError):
                # The replacement died during configuration; revive_worker
                # must report failure, never raise (callers retry on True).
                replacement.close()
                return False
            self.workers[index] = replacement
            return True

    def _retry_dial(
        self, address: tuple[str, int], attempts: int = 10, delay: float = 0.3
    ) -> RemoteWorkerProxy:
        for _ in range(attempts - 1):
            try:
                return dial_worker(*address, STARTUP_TIMEOUT)
            except (OSError, EngineError):
                time.sleep(delay)
        return dial_worker(*address, STARTUP_TIMEOUT)

    def kill_worker_process(self, index: int, sig: int = signal.SIGKILL) -> None:
        """SIGKILL one worker process (chaos testing; §5.8 fault model)."""
        proxy = self.workers[index]
        if proxy.process is None:
            raise EngineError(f"worker {proxy.name} was not spawned by us")
        proxy.process.send_signal(sig)

    def worker_pids(self) -> list[int | None]:
        return [worker.pid for worker in self.workers]

    # -- lifecycle -------------------------------------------------------
    def sweep_caches(self) -> int:
        # The service tier's periodic sweep runs through here: piggyback
        # the detached-proxy pruning so a root that rides one resize and
        # then never resizes again still releases the drained sockets.
        self._prune_detached()
        return super().sweep_caches()

    def close(self) -> None:
        super().close()
        for _, proxy in self._detached:
            proxy.close()
        self._detached = []


# ---------------------------------------------------------------------------
# Fleet introspection (``repro fleet status``)
# ---------------------------------------------------------------------------
def _sweep_fleet(
    addresses: "list[tuple[str, int]]", timeout: float, probe
) -> list[dict]:
    """Dial each daemon briefly and merge ``probe(proxy)`` into its
    report.  Unreachable daemons yield an ``{"error": ...}`` entry
    instead of failing the whole sweep — status must work on a half-down
    fleet."""
    reports: list[dict] = []
    for host, port in addresses:
        report: dict = {"address": format_address((host, port))}
        try:
            proxy = dial_worker(host, port, timeout, request_timeout=timeout)
            try:
                report.update(probe(proxy))
            finally:
                proxy.close()
        except (HillviewError, OSError, ValueError) as exc:
            report["error"] = str(exc)
        reports.append(report)
    return reports


def query_fleet(
    addresses: "list[tuple[str, int]]", timeout: float = 10.0
) -> list[dict]:
    """Every daemon's placement report plus resident-dataset inventory
    (``repro fleet status``)."""
    return _sweep_fleet(
        addresses,
        timeout,
        lambda proxy: {**proxy.placement_info(), "datasets": proxy.inventory()},
    )


def query_fleet_metrics(
    addresses: "list[tuple[str, int]]", timeout: float = 10.0
) -> list[dict]:
    """Every daemon's ``metricsSnapshot`` payload (``repro fleet top``)."""
    return _sweep_fleet(addresses, timeout, RemoteWorkerProxy.metrics_snapshot)


# ---------------------------------------------------------------------------
# CLI entry (``repro worker``)
# ---------------------------------------------------------------------------
#: glibc's ``mallopt`` parameters, and the values a daemon sets: its own
#: ceiling for the dynamic mmap threshold on 64-bit, and twice that for
#: trimming (the ratio glibc keeps when it moves the threshold itself).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def keep_heap_resident() -> None:
    """Keep leaf temporaries in the heap instead of fresh mmaps.

    A 62.5k-row shard's temporaries (~500 KB each) sit above glibc's
    initial 128 KiB mmap threshold, and the threshold's drift plus heap
    trimming would keep handing that memory back to the kernel: each
    sketch would fault it back in, ~1,000 pages per worker.  Where there
    is no ``mallopt`` (musl, macOS) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def worker_main(argv: list[str]) -> int:
    """`repro worker`: run one worker daemon."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.cli worker",
        description="Run one Hillview worker process.",
    )
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        required=True,
        help="bind and wait for roots to dial in",
    )
    parser.add_argument(
        "--exit-on-stdin-eof", action="store_true",
        help="drain and exit, as on SIGTERM, when stdin reaches end-of-file "
             "(a root that spawned this worker holds the pipe)",
    )
    parser.add_argument("--name", help="worker name (defaults to worker-<pid>)")
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument(
        "--cache-entries", type=int, default=64,
        help="soft object store capacity (datasets per worker)",
    )
    parser.add_argument(
        "--cache-ttl", type=float, default=2 * 3600.0,
        help="seconds before an unused dataset/memo entry is purged "
             "(the paper's 2-hour soft-state TTL)",
    )
    parser.add_argument(
        "--cache-sweep-interval", type=float, default=300.0,
        help="how often the daemon purges TTL-expired cache entries "
             "(<= 0 disables the periodic sweep)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=30.0,
        help="seconds a SIGTERM'd daemon waits for in-flight partial "
             "streams to finish before exiting",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit one-line JSON event records on stderr",
    )
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        help="enable the structured event stream at this level",
    )
    args = parser.parse_args(argv)

    keep_heap_resident()
    if args.log_json or args.log_level:
        configure_logging(
            json_mode=args.log_json or None, level=args.log_level
        )

    server = WorkerServer(
        name=args.name,
        cores=args.cores,
        cache_entries=args.cache_entries,
        cache_ttl_seconds=args.cache_ttl,
        cache_sweep_interval_seconds=args.cache_sweep_interval,
    )
    set_service_name(server.worker.name)
    log_event(
        "worker.start",
        worker=server.worker.name,
        pid=os.getpid(),
        cores=args.cores,
    )

    def in_background(target, name: str) -> None:
        # repro: ignore[C002] — process-lifetime helpers (drain-to-exit, stdin lifeline); no query context applies
        threading.Thread(target=target, name=name, daemon=True).start()

    # Graceful shutdown: SIGTERM (a fleet shrink, an init system stop, a
    # CI teardown) drains instead of killing — in-flight partial streams
    # finish, new state-creating requests are refused, and the process
    # exits once idle (or after the grace period).  The watchdog thread
    # is what actually ends the process: a drain begun off the main
    # thread (the stdin lifeline) cannot wake the main thread's blocking
    # accept, so without it the daemon would serve forever.
    def _graceful_shutdown(signum, frame):  # noqa: ARG001 — signal API
        log_event(
            "worker.drain", worker=server.worker.name, signal=int(signum)
        )
        server.begin_drain()

        def finish() -> None:
            server.wait_drained(timeout=args.drain_grace)
            os._exit(0)

        in_background(finish, "drain-exit")

    try:
        signal.signal(signal.SIGTERM, _graceful_shutdown)
    except ValueError:
        pass  # not the main thread (embedded in tests)

    if args.exit_on_stdin_eof:
        # The spawning root holds the pipe's other end: it closes when
        # the root exits or is killed, and this worker goes with it.  The
        # raw fd, not sys.stdin: a thread blocked inside a buffered read
        # holds its lock, and interpreter shutdown aborts on that lock.
        def lifeline() -> None:
            while os.read(sys.stdin.fileno(), 4096):
                pass
            _graceful_shutdown(signal.SIGTERM, None)

        in_background(lifeline, "stdin-lifeline")

    def announce(address: tuple[str, int]) -> None:
        # The announcement line is a valid @fleet.txt entry: it must
        # carry a *dialable* host, so a wildcard bind falls back to
        # loopback (multi-host fleets edit the file or announce a real
        # interface address).
        bound = address[0]
        dialable = (
            "127.0.0.1" if bound in ("0.0.0.0", "::", "") else bound
        )
        print(
            json.dumps(
                {
                    "worker": server.worker.name,
                    "host": dialable,
                    "port": address[1],
                }
            ),
            flush=True,
        )

    try:
        server.run_listen(*parse_address(args.listen), on_bound=announce)
    except KeyboardInterrupt:
        # Ctrl-C on a foreground `repro serve --spawn` reaches the whole
        # process group; workers exit quietly, like the root does.
        pass
    if server.draining:
        server.wait_drained(timeout=args.drain_grace)
    return 0

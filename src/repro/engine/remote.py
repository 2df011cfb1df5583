"""Out-of-process workers: the root/worker wire of the paper (§5.2, §5.8).

Hillview's root node fans queries out to worker *processes* on separate
servers.  This module is that deployment for the reproduction:

* :class:`WorkerServer` — the worker daemon (``repro worker``): owns a
  shard store and a leaf thread pool (a plain in-process
  :class:`~repro.engine.cluster.Worker`) and speaks uvarint-framed JSON
  request/reply envelopes over TCP, streaming cumulative sketch partials;
* :class:`RemoteWorkerProxy` — the root's view of one worker process;
  implements :class:`~repro.engine.cluster.WorkerProtocol`, so the generic
  :class:`~repro.engine.cluster.Cluster` machinery (broadcast, 0.1 s
  aggregation cadence, progressive merge, redo-log replay) runs unchanged
  over a real network;
* :class:`ProcessCluster` — a cluster whose workers are spawned
  subprocesses (or pre-started daemons reached by address).  A worker that
  dies — even SIGKILL mid-sketch — is respawned and its stream re-run;
  lineage replay rebuilds its soft state and cumulative partials make the
  retry invisible to the streaming client (§5.7–5.8).

Control messages on this wire are JSON: sketches travel as the same specs
a browser submits and lineage travels as load/map descriptions — one codec
for every hop.  Bulk payloads (sketch partials, shard transfers) ride the
same frames as binary attachments — each summary's own Encoder format and
raw hvc table bytes — never as base64 inside the JSON.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import queue
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
    PlacementError,
    ShardPlacement,
    StalePlacementError,
    agree_placement,
    format_address,
    global_indices,
    parse_address,
    plan_moves,
)
from repro.engine.progress import CancellationToken
from repro.core.serialization import Decoder, Encoder
from repro.engine.rpc import (
    TERMINAL_REPLY_KINDS,
    ProtocolError,
    RpcReply,
    RpcRequest,
    call_once,
    lineage_from_json,
    lineage_to_json,
    sketch_from_json,
    sketch_to_json,
    source_from_json,
    source_to_json,
    summary_from_bytes,
    summary_tag,
    summary_to_bytes,
)
from repro.errors import (
    EngineError,
    HillviewError,
    SerializationError,
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
from repro.storage.loader import DataSource
from repro.table.schema import ColumnDescription, Schema

#: Reply kinds that end one request's reply stream (the shared set —
#: both wires terminate streams identically).
_TERMINAL = TERMINAL_REPLY_KINDS

#: Methods that touch the shard store under a placement; each carries the
#: root's ``placementVersion`` and drains before a rebalance commit.
_DATASET_METHODS = frozenset(
    {"load", "ensure", "rows", "schema", "sketch", "evict"}
)

#: State-creating methods a draining worker (SIGTERM received) refuses;
#: in-flight partial streams still run to completion.
_REFUSED_WHILE_DRAINING = frozenset(
    {
        "configure",
        "load",
        "adoptShards",
        "transferShards",
        "rebalanceCommit",
        # A draining worker finishes what it has; acting as a steal
        # thief or prewarm target is *new* work it must not take on.
        "stolenPartial",
        "importEntries",
    }
)

#: Roughly how many shard payload bytes one adoptShards batch carries
#: (well under MAX_FRAME_BYTES so the envelope always fits).
_TRANSFER_BATCH_BYTES = 8 * 1024 * 1024


def _pack_blobs(blobs: list[bytes]) -> bytes | None:
    """Bulk payloads (one per JSON entry, in entry order) as one binary
    attachment; None when there is nothing to attach."""
    if not blobs:
        return None
    enc = Encoder()
    enc.write_uvarint(len(blobs))
    for blob in blobs:
        enc.write_bytes(blob)
    return enc.to_bytes()


def _unpack_blobs(attachment: bytes | None, entries: list, what: str) -> list[bytes]:
    """Inverse of :func:`_pack_blobs`, checked against the JSON entries
    the payloads belong to."""
    blobs: list[bytes] = []
    if attachment is not None:
        dec = Decoder(attachment)
        blobs = [dec.read_bytes() for _ in range(dec.read_uvarint())]
    if len(blobs) != len(entries):
        raise ProtocolError(
            f"{what} attachment carries {len(blobs)} payloads "
            f"for {len(entries)} entries"
        )
    return blobs


class WorkerDrainingError(HillviewError):
    """The worker received SIGTERM and refuses new state-creating work."""

    code = "worker_draining"


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
        #: Steal ledgers of this root's in-flight sketches, by request id:
        #: a ``claimSlices`` for request N cedes unstarted trailing shards
        #: of exactly that run.  Per-link, like the tokens — request ids
        #: are only unique per root connection.
        self.ledgers: dict[int, object] = {}
        self.tokens_lock = threading.Lock()


class WorkerServer:
    """One worker process: a shard store + leaf pool behind a socket.

    Two attachment modes mirror real deployments:

    * ``run_connect`` — dial the root that spawned us (``--connect``);
    * ``run_listen`` — bind a port and serve roots as they dial in
      (``--listen``), e.g. a fleet of daemons started by an init system.
      Several roots may be connected at once, each on its own thread —
      the multi-root service tier shares one fleet this way.

    The connection protocol is symmetric request/reply: after a ``hello``
    info exchange the root sends :class:`~repro.engine.rpc.RpcRequest`
    envelopes (``configure``, ``placement``, ``load``, ``ensure``,
    ``rows``, ``schema``, ``sketch``, ``cancel``, ``evict``, ``crash``,
    ``ping``, ``stats``, ``shutdown``) and the worker streams back
    replies, interleaved by request id.  ``sketch`` yields one
    ``partial`` per aggregation-cadence tick carrying the cumulative
    summary as a JSON payload.

    The worker's shard-slice assignment is **sticky**: the first
    ``configure`` pins it, every root can read it back via ``placement``,
    and a conflicting ``configure`` is rejected (``placement_conflict``)
    instead of silently re-slicing datasets another root already loaded.
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
        self._placement: tuple[int, int] | None = None
        self._placement_lock = threading.Lock()
        #: Placement versioning (elastic fleets): the version this
        #: worker's slice was pinned at, the fleet membership it was told
        #: about, staged shards adopted for a pending rebalance (keyed by
        #: target version), and the in-flight dataset-op counter a
        #: rebalance commit drains before re-keying the store.
        self._version = 0
        self._members: list[str] | None = None
        self._retired = False
        self._staged: dict[int, dict[str, dict[int, object]]] = {}
        #: When each staged version arrived: an aborted rebalance must
        #: not pin a copy of the moved slices forever, so the periodic
        #: cache sweep drops staging older than this.
        self._staged_at: dict[int, float] = {}
        self.staged_stage_ttl_seconds = 900.0
        self._ops_cv = threading.Condition(self._placement_lock)
        self._dataset_ops = 0
        self._rebalance_pending = False
        self.shards_adopted = 0
        self.shards_transferred = 0
        #: Graceful shutdown (SIGTERM): finish in-flight partials, refuse
        #: new state-creating requests, then exit once drained.
        self._draining = threading.Event()
        self._shutdown = threading.Event()
        self._listener: socket.socket | None = None
        self.requests_served = 0
        self.roots_served = 0
        #: Requests admitted to the handler pool and not yet finished —
        #: the daemon's queue depth, reported by ``metricsSnapshot``.
        self._inflight = 0
        self._inflight_lock = threading.Lock()
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
            self.cache_entries_purged += self.worker.sweep_caches()
            self.cache_entries_purged += self._sweep_stale_staging()

    def _sweep_stale_staging(self) -> int:
        """Drop shards staged for a rebalance that never committed (the
        initiating root died mid-resize); returns shards dropped."""
        now = time.monotonic()
        dropped = 0
        with self._ops_cv:
            for version in list(self._staged):
                stamped = self._staged_at.get(version, now)
                if now - stamped > self.staged_stage_ttl_seconds:
                    for shards in self._staged.pop(version).values():
                        dropped += len(shards)
                    self._staged_at.pop(version, None)
        return dropped

    # -- graceful shutdown (SIGTERM) -------------------------------------
    def begin_drain(self) -> None:
        """Start a graceful shutdown: stop accepting roots, refuse new
        state-creating requests, let in-flight partial streams finish.

        Idempotent; wired to SIGTERM by ``repro worker`` so a fleet
        shrink or a CI teardown never races a mid-stream kill."""
        self._draining.set()
        listener = self._listener
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def wait_drained(self, timeout: float = 30.0) -> bool:
        """Block until every in-flight dataset op finished (or timeout).

        Returns whether the worker is idle; ``repro worker`` calls this
        after SIGTERM before letting the process exit."""
        deadline = time.monotonic() + timeout
        with self._ops_cv:
            while self._dataset_ops:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._ops_cv.wait(timeout=min(remaining, 0.5))
        return True

    # -- placement versioning (elastic fleets) ---------------------------
    @contextlib.contextmanager
    def _dataset_op(self, args: dict):
        """Admission guard for store-touching requests.

        Verifies the root's placement version under the placement lock
        and registers the op so a rebalance commit can drain in-flight
        work before re-keying the store — the invariant that every
        admitted request runs start-to-finish against exactly one slice
        assignment (results stay byte-identical across rebalances).
        """
        version = args.get("placementVersion")
        with self._ops_cv:
            if self._rebalance_pending:
                raise StalePlacementError(
                    f"worker {self.worker.name} is committing a rebalance; "
                    "re-read the placement and retry"
                )
            if self._retired:
                raise StalePlacementError(
                    f"worker {self.worker.name} was retired from the fleet "
                    f"at version {self._version}; it serves no shard slice"
                )
            if version is not None and int(version) != self._version:
                raise StalePlacementError(
                    f"worker {self.worker.name} holds placement version "
                    f"{self._version} but this root sent "
                    f"{int(version)}; the fleet was rebalanced — re-read "
                    "the placement and retry"
                )
            self._dataset_ops += 1
        try:
            yield
        finally:
            with self._ops_cv:
                self._dataset_ops -= 1
                self._ops_cv.notify_all()

    # -- attachment modes ----------------------------------------------
    def run_connect(self, host: str, port: int, timeout: float = 10.0) -> None:
        """Dial the root and serve it until it disconnects (spawn mode)."""
        self._start_sweeper()
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        wfile = sock.makefile("wb")
        write_frame(
            wfile,
            RpcRequest(0, "", "hello", self._info()).to_json().encode("utf-8"),
        )
        rfile = sock.makefile("rb")
        frame = read_frame_blocking(rfile, error=FrameError)
        if frame is None:
            raise EngineError("root closed the connection during handshake")
        RpcReply.from_json(frame.decode("utf-8"))  # the root's ack
        self._serve(rfile, wfile)

    def run_listen(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_bound=None,
        once: bool = False,
    ) -> None:
        """Bind and serve roots as they dial in (daemon-fleet mode).

        Each root gets its own serving thread, so N service front-ends can
        share this worker concurrently; ``once=True`` serves a single
        connection inline and returns (tests).
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
                if once:
                    self._serve_socket(sock)
                    break
                # repro: ignore[C002] — per-connection server thread; trace context rides each RPC envelope and is restored in _handle
                threading.Thread(
                    target=self._serve_socket,
                    args=(sock,),
                    name=f"{self.worker.name}-root-{self.roots_served}",
                    daemon=True,
                ).start()
        finally:
            self._listener = None
            try:
                listener.close()
            except OSError:
                pass

    def _serve_socket(self, sock: socket.socket) -> None:
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        try:
            self._serve(rfile, wfile)
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _info(self) -> dict:
        return {
            "name": self.worker.name,
            "pid": os.getpid(),
            "cores": self.worker.cores,
        }

    def metrics_snapshot(self) -> dict:
        """The daemon's live metrics: queue depth, in-flight dataset
        ops, cache hit rates, placement version, plus this process's
        metrics registry — one payload for ``repro fleet top`` and the
        root's fleet-wide aggregation."""
        with self._ops_cv:
            dataset_ops = self._dataset_ops
        with self._inflight_lock:
            inflight = self._inflight
        snapshot = self.worker.metrics_snapshot()
        snapshot.update(
            {
                "pid": os.getpid(),
                "inflight": inflight,
                "datasetOps": dataset_ops,
                "requestsServed": self.requests_served,
                "rootsServed": self.roots_served,
                "placementVersion": self._version,
                "draining": self.draining,
                "entriesPurged": self.cache_entries_purged,
                "spansBuffered": len(RECORDER),
                "registry": REGISTRY.snapshot(),
            }
        )
        return snapshot

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
                        listener = self._listener
                        if listener is not None:
                            try:  # unblock the accept loop
                                listener.close()
                            except OSError:
                                pass
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
        with self._inflight_lock:
            self._inflight += 1
        try:
            with serve_span(
                ctx, f"worker.{request.method}", worker=self.worker.name
            ):
                for reply in self._dispatch(request, link):
                    self._reply(link, reply)
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
            with self._inflight_lock:
                self._inflight -= 1

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
        method = request.method
        args = request.args
        worker = self.worker
        if method in _REFUSED_WHILE_DRAINING and self._draining.is_set():
            raise WorkerDrainingError(
                f"worker {worker.name} is draining for shutdown and "
                f"refuses {method!r}"
            )
        if method == "configure":
            index = int(args["index"])
            count = int(args["count"])
            version = int(args.get("placementVersion", 0) or 0)
            members = args.get("members")
            with self._placement_lock:
                if self._retired:
                    # A stale root re-dialing a worker the fleet shrank
                    # away must not resurrect it by re-pinning the old
                    # slice; the root resyncs to the farewell membership
                    # instead.  (To genuinely re-add this daemon, use
                    # `repro fleet grow` — or restart it clean.)
                    raise StalePlacementError(
                        f"worker {worker.name} was retired from the fleet "
                        f"at version {self._version}; it cannot be "
                        "re-placed by configure"
                    )
                if self._placement is None:
                    # First configure pins this worker's slice (and the
                    # fleet version the configuring root agreed on);
                    # later roots must agree with it.
                    self._placement = (index, count)
                    self._version = version
                    self._retired = False
                    if members:
                        self._members = [str(m) for m in members]
                elif version != self._version:
                    raise StalePlacementError(
                        f"worker {worker.name} holds placement version "
                        f"{self._version} but this root configured for "
                        f"{version}; re-read the placement and retry"
                    )
                elif self._placement != (index, count):
                    held = self._placement
                    raise PlacementError(
                        f"worker {worker.name} is placed as slice "
                        f"{held[0]}/{held[1]} but this root asked for "
                        f"{index}/{count}; re-slicing a shared fleet would "
                        "corrupt datasets other roots already loaded"
                    )
            interval = args.get("aggregationInterval")
            worker.configure(
                index,
                count,
                # None = "keep your cadence": administrative roots (the
                # fleet CLI) attach without rewriting the tier's tuning.
                float(interval)
                if interval is not None
                else worker.aggregation_interval,
            )
            yield RpcReply(
                request.request_id,
                "ack",
                payload={"index": index, "count": count, "version": version},
            )
        elif method == "placement":
            yield RpcReply(
                request.request_id,
                "complete",
                payload=self._placement_payload(),
            )
        elif method == "load":
            with self._dataset_op(args):
                shards = worker.load_source(
                    str(args["dataset"]), source_from_json(args["source"])
                )
            yield RpcReply(
                request.request_id, "ack", payload={"shards": shards}
            )
        elif method == "ensure":
            with self._dataset_op(args):
                shards = worker.ensure(
                    str(args["dataset"]), lineage_from_json(args["lineage"])
                )
            yield RpcReply(
                request.request_id, "ack", payload={"shards": shards}
            )
        elif method == "rows":
            with self._dataset_op(args):
                rows = worker.shard_rows(
                    str(args["dataset"]), lineage_from_json(args["lineage"])
                )
            yield RpcReply(
                request.request_id, "complete", payload={"rows": rows}
            )
        elif method == "schema":
            with self._dataset_op(args):
                schema = worker.shard_schema(
                    str(args["dataset"]), lineage_from_json(args["lineage"])
                )
            yield RpcReply(
                request.request_id,
                "complete",
                payload={
                    "columns": (
                        None
                        if schema is None
                        else [d.to_json() for d in schema]
                    )
                },
            )
        elif method == "sketch":
            with self._dataset_op(args):
                yield from self._run_sketch(request, link)
        elif method == "evict":
            with self._dataset_op(args):
                worker.evict(str(args["dataset"]))
            yield RpcReply(request.request_id, "ack")
        elif method == "inventory":
            with self._placement_lock:
                payload = {
                    "datasets": self.worker.inventory(),
                    **self._placement_payload(),
                }
            yield RpcReply(request.request_id, "complete", payload=payload)
        elif method == "transferShards":
            yield self._transfer_shards(request)
        elif method == "adoptShards":
            yield self._adopt_shards(request)
        elif method == "claimSlices":
            yield self._claim_slices(request, link)
        elif method == "stolenPartial":
            yield self._stolen_partial(request)
        elif method == "exportHotEntries":
            yield RpcReply(
                request.request_id,
                "complete",
                payload={
                    "entries": worker.export_hot_entries(
                        int(args.get("budgetBytes", 0))
                    )
                },
            )
        elif method == "importEntries":
            warmed = worker.import_entries(list(args.get("entries") or []))
            yield RpcReply(
                request.request_id, "complete", payload={"warmed": warmed}
            )
        elif method == "rebalanceCommit":
            yield self._rebalance_commit(request)
        elif method == "retire":
            yield self._retire(request)
        elif method == "crash":
            worker.crash()
            yield RpcReply(request.request_id, "ack")
        elif method == "ping":
            yield RpcReply(
                request.request_id, "ack", payload={"pong": True}
            )
        elif method == "stats":
            yield RpcReply(
                request.request_id,
                "complete",
                payload={
                    **self._info(),
                    "shardsSummarized": worker.shards_summarized,
                    "crashes": worker.crashes,
                    "requestsServed": self.requests_served,
                },
            )
        elif method == "cacheStats":
            yield RpcReply(
                request.request_id,
                "complete",
                payload={
                    **worker.cache_stats(),
                    "entriesPurged": self.cache_entries_purged,
                },
            )
        elif method == "sweepCaches":
            # An on-demand sweep (operators, tests); the periodic daemon
            # sweep calls the same worker hook.
            purged = worker.sweep_caches()
            self.cache_entries_purged += purged
            yield RpcReply(
                request.request_id, "complete", payload={"purged": purged}
            )
        elif method == "metricsSnapshot":
            yield RpcReply(
                request.request_id,
                "complete",
                payload=self.metrics_snapshot(),
            )
        elif method == "traceDump":
            trace_id = args.get("traceId")
            yield RpcReply(
                request.request_id,
                "complete",
                payload={
                    "spans": RECORDER.spans(
                        None if trace_id is None else str(trace_id)
                    )
                },
            )
        else:
            raise ProtocolError(f"unknown worker method {method!r}")

    def _run_sketch(
        self, request: RpcRequest, link: _RootLink
    ) -> Iterator[RpcReply]:
        args = request.args
        sketch = sketch_from_json(args["sketch"])
        lineage = lineage_from_json(args["lineage"])
        token = CancellationToken()
        with link.tokens_lock:
            link.tokens[request.request_id] = token
            if request.request_id in link.cancelled_early:
                link.cancelled_early.discard(request.request_id)
                token.cancel()
        done = 0
        cache_hit = False

        def on_ledger(ledger: object) -> None:
            # Registered alongside the cancellation token: a claimSlices
            # for this request id (from whichever root runs the fan-out)
            # cedes unstarted trailing shards of exactly this run.
            with link.tokens_lock:
                link.ledgers[request.request_id] = ledger

        try:
            for emission in self.worker.sketch_partials(
                str(args["dataset"]), sketch, lineage, token,
                on_ledger=on_ledger,
            ):
                done = emission.shards_done
                cache_hit = cache_hit or emission.cache_hit
                # The summary travels as its own Encoder
                # format in a binary attachment; the JSON header keeps
                # only the stream metadata plus the payload type tag.
                partial = RpcReply(
                    request.request_id,
                    "partial",
                    progress=0.0,
                    payload={
                        "summaryType": summary_tag(emission.summary),
                        "shardsDone": emission.shards_done,
                        "bytes": emission.bytes,
                        "cacheHit": emission.cache_hit,
                    },
                )
                partial.attachment = summary_to_bytes(emission.summary)
                yield partial
            yield RpcReply(
                request.request_id,
                "complete",
                payload={
                    "shardsDone": done,
                    "cancelled": token.cancelled,
                    "cacheHit": cache_hit,
                },
            )
        finally:
            with link.tokens_lock:
                link.tokens.pop(request.request_id, None)
                link.ledgers.pop(request.request_id, None)

    # -- work stealing (the claim/stolen wire) ---------------------------
    def _claim_slices(self, request: RpcRequest, link: _RootLink) -> RpcReply:
        """Cede unstarted trailing shards of one in-flight sketch.

        The root (steal coordinator) names the sketch by its request id
        on this link; the ledger cancels a contiguous suffix of that
        run's leaf futures under its own lock, and the ceded shards
        travel back serialized — ready to be relayed to the thief.  No
        ledger (the run finished, never started, or was served from the
        memo) reads as "nothing to cede", never an error: an empty claim
        is the normal outcome of racing a finishing victim.
        """
        from repro.storage.columnar import table_to_bytes

        args = request.args
        target = int(args.get("requestId", -1))
        budget = max(0, int(args.get("budget", 0)))
        with link.tokens_lock:
            ledger = link.ledgers.get(target)
        parcels = ledger.cede(budget) if ledger is not None and budget else []
        entries: list[dict] = []
        blobs: list[bytes] = []
        for parcel in parcels:
            shard = parcel.resolve()
            blobs.append(table_to_bytes(shard))
            entries.append(
                {"globalIndex": parcel.global_index, "shardId": shard.shard_id}
            )
        reply = RpcReply(
            request.request_id, "complete", payload={"parcels": entries}
        )
        reply.attachment = _pack_blobs(blobs)
        return reply

    def _stolen_partial(self, request: RpcRequest) -> RpcReply:
        """Summarize shard slices stolen from a straggling peer.

        The root relays the victim's ceded shards here; per-shard
        summaries (never pre-merged — the root folds them in global
        shard order) travel back the same way sketch partials do.
        """
        args = request.args
        sketch = sketch_from_json(args["sketch"])
        items = args.get("parcels") or []
        blobs = _unpack_blobs(request.attachment, items, "stolenPartial")
        parcels = [
            StolenParcel(
                global_index=int(item["globalIndex"]),
                payload=payload,
                shard_id=str(item.get("shardId") or "") or None,
            )
            for item, payload in zip(items, blobs)
        ]
        summaries = self.worker.summarize_stolen(sketch, parcels) or []
        reply = RpcReply(
            request.request_id,
            "complete",
            payload={
                "summaries": [{"globalIndex": index} for index, _ in summaries]
            },
        )
        reply.attachment = _pack_blobs(
            [summary_to_bytes(summary) for _, summary in summaries]
        )
        return reply

    # -- the rebalance protocol (elastic fleets) -------------------------
    def _placement_payload(self) -> dict:
        """The ``placement`` RPC payload; lock-free attribute reads, so
        handlers already holding the placement lock can call it too."""
        placement = self._placement
        return {
            "name": self.worker.name,
            "index": None if placement is None else placement[0],
            "count": None if placement is None else placement[1],
            "version": self._version,
            "members": self._members,
            "retired": self._retired,
            # True while a commit is draining this worker's in-flight
            # ops: tells repairing roots "the initiator is still here —
            # do not finish its rebalance out from under it".
            "rebalancing": self._rebalance_pending,
        }

    def _transfer_shards(self, request: RpcRequest) -> RpcReply:
        """Push this worker's moved shard slices to their new owners.

        The root computed the move plan from inventories; this worker
        serializes each named shard (in-memory hvc payload) and streams
        it to the target daemon's ``adoptShards`` staging area.  Shards
        that went cold since the inventory are reported ``missing`` —
        the new owner's commit will find its slice incomplete, drop it,
        and redo-log replay rebuilds it on first use (§5.7 fallback).
        """
        from repro.storage.columnar import table_to_bytes

        args = request.args
        dataset_id = str(args["dataset"])
        target_version = int(args["targetVersion"])
        with self._placement_lock:
            placement = self._placement
        if placement is None:
            raise PlacementError(
                f"worker {self.worker.name} is unplaced; nothing to transfer"
            )
        index, count = placement
        shards = self.worker.store.get(dataset_id)
        moved = 0
        missing: list[int] = []
        for move in args.get("moves") or []:
            target = str(move["target"])
            wanted = [int(g) for g in move.get("globalIndices") or []]
            batch: list[dict] = []
            blobs: list[bytes] = []
            batch_bytes = 0
            for g in wanted:
                local = (g - index) // count
                if (
                    shards is None
                    or g % count != index
                    or not 0 <= local < len(shards)
                ):
                    missing.append(g)
                    continue
                shard = shards[local]
                payload = table_to_bytes(shard)
                blobs.append(payload)
                batch.append({"globalIndex": g, "shardId": shard.shard_id})
                batch_bytes += len(payload)
                if batch_bytes >= _TRANSFER_BATCH_BYTES:
                    moved += self._push_adopts(
                        target, dataset_id, target_version, batch, blobs
                    )
                    batch, blobs, batch_bytes = [], [], 0
            if batch:
                moved += self._push_adopts(
                    target, dataset_id, target_version, batch, blobs
                )
        self.shards_transferred += moved
        return RpcReply(
            request.request_id,
            "ack",
            payload={"moved": moved, "missing": missing},
        )

    def _push_adopts(
        self,
        target: str,
        dataset_id: str,
        version: int,
        batch: list[dict],
        blobs: list[bytes],
    ) -> int:
        """One worker-to-worker push: dial the target daemon, hand it a
        batch of serialized shards, return how many it staged.

        ``blobs`` (one raw hvc payload per batch entry, in order) travel
        as a binary attachment.
        """
        host, port = parse_address(target)
        sock = socket.create_connection((host, port), timeout=30.0)
        sock.settimeout(120.0)
        try:
            wfile = sock.makefile("wb")
            rfile = sock.makefile("rb")
            where = f"transfer target {target}"

            def call(
                request_id: int,
                method: str,
                args: dict,
                attachment: bytes | None = None,
            ) -> RpcReply:
                reply = call_once(
                    rfile,
                    wfile,
                    request_id,
                    method,
                    args,
                    where=where,
                    attachment=attachment,
                )
                if reply.kind == "error":
                    raise EngineError(
                        f"{where}: [{reply.code}] {reply.error}"
                    )
                return reply

            call(0, "hello", {})
            reply = call(
                1,
                "adoptShards",
                {
                    "dataset": dataset_id,
                    "targetVersion": version,
                    "shards": batch,
                },
                attachment=_pack_blobs(blobs),
            )
            return int(reply.payload.get("staged", 0))
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _adopt_shards(self, request: RpcRequest) -> RpcReply:
        """Stage shards streamed in by a sibling worker for a pending
        rebalance; ``rebalanceCommit`` folds them into the store."""
        from repro.storage.columnar import table_from_bytes

        # Opportunistic reclamation: staging from an aborted rebalance
        # must go even on daemons running with the periodic sweep
        # disabled, and a new transfer is the natural moment.
        self._sweep_stale_staging()
        args = request.args
        dataset_id = str(args["dataset"])
        version = int(args["targetVersion"])
        items = args.get("shards") or []
        blobs = _unpack_blobs(request.attachment, items, "adoptShards")
        staged = 0
        for item, payload in zip(items, blobs):
            table = table_from_bytes(
                payload,
                shard_id=str(item.get("shardId") or f"shard-{item['globalIndex']}"),
            )
            with self._ops_cv:
                self._staged_at.setdefault(version, time.monotonic())
                bucket = self._staged.setdefault(version, {}).setdefault(
                    dataset_id, {}
                )
                bucket[int(item["globalIndex"])] = table
            staged += 1
        self.shards_adopted += staged
        return RpcReply(
            request.request_id, "ack", payload={"staged": staged}
        )

    def _drain_ops_locked(self, what: str, timeout: float) -> None:
        """Wait (holding ``_ops_cv``) for in-flight dataset ops to finish
        — the "in-flight sketches drain on the old placement" half of the
        rebalance contract."""
        deadline = time.monotonic() + timeout
        while self._dataset_ops:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise PlacementError(
                    f"{self._dataset_ops} dataset op(s) still in flight "
                    f"after {timeout:.0f}s; {what} aborted"
                )
            self._ops_cv.wait(timeout=min(remaining, 0.5))

    def _rebalance_commit(self, request: RpcRequest) -> RpcReply:
        """Adopt a new slice assignment: drain in-flight ops, re-key the
        store (kept + staged shards, ascending global order), bump the
        placement version.  Idempotent for the already-committed version
        so an interrupted rebalance can simply be re-run."""
        args = request.args
        version = int(args["version"])
        index = int(args["index"])
        count = int(args["count"])
        members = [str(m) for m in args.get("members") or []] or None
        totals = {
            str(k): int(v) for k, v in (args.get("datasets") or {}).items()
        }
        drain_timeout = float(args.get("drainTimeout", 60.0))
        with self._ops_cv:
            if (
                version == self._version
                and self._placement == (index, count)
                and not self._retired
            ):
                return RpcReply(
                    request.request_id,
                    "ack",
                    payload={"version": version, "idempotent": True},
                )
            if self._placement is not None and version <= self._version:
                # Versions are monotonic; an older commit is a replay of
                # a rebalance this worker already moved past.  Anything
                # *newer* is accepted — including a skip-ahead from a
                # repair pass healing an interrupted rebalance.
                raise PlacementError(
                    f"worker {self.worker.name} is at placement version "
                    f"{self._version}; cannot commit version {version}"
                )
            self._rebalance_pending = True
            try:
                self._drain_ops_locked("rebalance commit", drain_timeout)
                staged = self._staged.pop(version, {})
                self._staged.clear()  # older targets are dead
                self._staged_at.clear()
                kept = self.worker.rebalance_store(
                    index, count, totals, staged  # type: ignore[arg-type]
                )
                interval = args.get("aggregationInterval")
                self.worker.configure(
                    index,
                    count,
                    float(interval)
                    if interval is not None
                    else self.worker.aggregation_interval,
                )
                self._placement = (index, count)
                self._version = version
                self._members = members
                self._retired = False
            finally:
                self._rebalance_pending = False
                self._ops_cv.notify_all()
        return RpcReply(
            request.request_id,
            "ack",
            payload={"version": version, "kept": kept},
        )

    def _retire(self, request: RpcRequest) -> RpcReply:
        """Leave the fleet (shrink): drain in-flight ops, drop all soft
        state, and report the successor membership to stale roots."""
        args = request.args
        version = int(args["version"])
        members = [str(m) for m in args.get("members") or []] or None
        drain_timeout = float(args.get("drainTimeout", 60.0))
        with self._ops_cv:
            if self._retired and version <= self._version:
                return RpcReply(
                    request.request_id,
                    "ack",
                    payload={"version": self._version, "idempotent": True},
                )
            if self._placement is not None and version <= self._version:
                raise PlacementError(
                    f"worker {self.worker.name} is at placement version "
                    f"{self._version}; cannot retire at version {version}"
                )
            self._rebalance_pending = True
            try:
                self._drain_ops_locked("retire", drain_timeout)
                self._staged.clear()
                self._staged_at.clear()
                self.worker.store.clear()
                self.worker.memo.clear()
                self._placement = None
                self._version = version
                self._members = members
                self._retired = True
            finally:
                self._rebalance_pending = False
                self._ops_cv.notify_all()
        return RpcReply(
            request.request_id, "ack", payload={"version": version}
        )


# ---------------------------------------------------------------------------
# Root side: channel + proxy
# ---------------------------------------------------------------------------
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
        _, replies = self.submit(method, args, attachment=attachment)
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerUnavailableError(
                    f"worker {self.name} did not answer {method!r} "
                    f"within {timeout:.0f}s"
                )
            try:
                reply = replies.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue
            if reply.kind == "error":
                _raise_for_error_reply(self.name, reply)
            if reply.kind in _TERMINAL:
                return reply

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
                    if replies is not None and reply.kind in _TERMINAL:
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
        try:
            self._sock.close()
        except OSError:
            pass
        self._reader.join(timeout=5.0)


class _RemoteStealLedger:
    """The root's claim handle onto one in-flight remote sketch.

    ``cede`` is one synchronous ``claimSlices`` RPC; the daemon cancels
    unstarted trailing leaves under its own ledger lock and returns the
    ceded shards serialized.  Every failure reads as "nothing ceded",
    which is always safe: an error reply means the daemon ceded nothing,
    and a dead connection kills the victim's whole sketch stream — its
    revival restart recomputes every shard regardless.
    """

    def __init__(self, proxy: "RemoteWorkerProxy", request_id: int):
        self._proxy = proxy
        self._request_id = request_id

    def cede(self, budget: int) -> "list[StolenParcel]":
        try:
            reply = self._proxy.channel.call(
                "claimSlices",
                {"requestId": self._request_id, "budget": int(budget)},
                timeout=self._proxy.request_timeout,
            )
        except (WorkerUnavailableError, EngineError):
            return []
        payload = reply.payload if isinstance(reply.payload, dict) else {}
        items = payload.get("parcels") or []
        blobs = _unpack_blobs(reply.attachment, items, "claimSlices")
        return [
            StolenParcel(
                global_index=int(item["globalIndex"]),
                payload=data,
                shard_id=str(item.get("shardId") or "") or None,
            )
            for item, data in zip(items, blobs)
        ]


class RemoteWorkerProxy(WorkerProtocol):
    """The root's handle on one worker process (drop-in for ``Worker``)."""

    def __init__(
        self,
        name: str,
        channel: _WorkerChannel,
        cores: int,
        process: "subprocess.Popen | None" = None,
        address: tuple[str, int] | None = None,
        request_timeout: float = 300.0,
    ):
        self.name = name
        self.channel = channel
        self.cores = cores
        self.process = process
        self.address = address
        self.request_timeout = request_timeout
        self.index = 0
        self.count = 1
        self.aggregation_interval = 0.1
        #: The placement version this root believes the fleet is at;
        #: stamped onto every dataset RPC so the worker can reject a
        #: stale root after a rebalance (elastic fleets).
        self.placement_version = 0
        #: Fleet membership (host:port, slice order) told to the worker
        #: on configure so any member can report it back after a resize.
        self.fleet_members: "list[str] | None" = None
        #: Administrative roots (the fleet CLI) set this so attaching —
        #: and rebalancing — never rewrites the serving tier's
        #: aggregation cadence with their own default.
        self.preserve_cadence = False

    def _versioned(self, args: dict) -> dict:
        args["placementVersion"] = self.placement_version
        return args

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

    # -- WorkerProtocol -------------------------------------------------
    def configure(
        self, index: int, count: int, aggregation_interval: float
    ) -> None:
        self.index = index
        self.count = count
        self.aggregation_interval = aggregation_interval
        self.channel.call(
            "configure",
            {
                "index": index,
                "count": count,
                "aggregationInterval": (
                    None if self.preserve_cadence else aggregation_interval
                ),
                "placementVersion": self.placement_version,
                "members": self.fleet_members,
            },
            timeout=self.request_timeout,
        )

    def load_source(self, dataset_id: str, source: DataSource) -> int:
        reply = self.channel.call(
            "load",
            self._versioned(
                {"dataset": dataset_id, "source": source_to_json(source)}
            ),
            timeout=self.request_timeout,
        )
        return int(reply.payload["shards"])

    def ensure(self, dataset_id: str, lineage: list) -> int:
        reply = self.channel.call(
            "ensure",
            self._versioned(
                {"dataset": dataset_id, "lineage": lineage_to_json(lineage)}
            ),
            timeout=self.request_timeout,
        )
        return int(reply.payload["shards"])

    def shard_rows(self, dataset_id: str, lineage: list) -> int:
        reply = self.channel.call(
            "rows",
            self._versioned(
                {"dataset": dataset_id, "lineage": lineage_to_json(lineage)}
            ),
            timeout=self.request_timeout,
        )
        return int(reply.payload["rows"])

    def shard_schema(self, dataset_id: str, lineage: list) -> Schema | None:
        reply = self.channel.call(
            "schema",
            self._versioned(
                {"dataset": dataset_id, "lineage": lineage_to_json(lineage)}
            ),
            timeout=self.request_timeout,
        )
        columns = reply.payload["columns"]
        if columns is None:
            return None
        return Schema(ColumnDescription.from_json(c) for c in columns)

    def sketch_partials(
        self,
        dataset_id: str,
        sketch,
        lineage: list,
        token: CancellationToken | None = None,
        on_ledger=None,
    ) -> Iterator[WorkerEmission]:
        request_id, replies = self.channel.submit(
            "sketch",
            self._versioned(
                {
                    "dataset": dataset_id,
                    "sketch": sketch_to_json(sketch),
                    "lineage": lineage_to_json(lineage),
                }
            ),
        )
        if on_ledger is not None:
            # The handle is valid immediately: a claim that reaches the
            # daemon before the run registers its ledger (or after it
            # finished) simply cedes nothing.
            on_ledger(_RemoteStealLedger(self, request_id))
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
            if reply.kind == "partial":
                payload = reply.payload
                if reply.attachment is None:
                    raise ProtocolError(
                        f"worker {self.name} sent a partial without its "
                        "binary summary attachment"
                    )
                yield WorkerEmission(
                    summary_from_bytes(reply.attachment),
                    int(payload["shardsDone"]),
                    int(payload["bytes"]),
                    cache_hit=bool(payload.get("cacheHit", False)),
                )
            elif reply.kind == "complete":
                return
            elif reply.kind == "error":
                _raise_for_error_reply(self.name, reply)
            else:  # cancelled / ack — treat as stream end
                return

    def evict(self, dataset_id: str) -> None:
        self.channel.call(
            "evict",
            self._versioned({"dataset": dataset_id}),
            timeout=self.request_timeout,
        )

    def summarize_stolen(
        self, sketch, parcels: "list[StolenParcel]"
    ) -> "list[tuple[int, object]]":
        """Relay a victim's ceded shards to this daemon for summarizing.

        The parcels arrived from ``claimSlices`` already serialized, so
        the root forwards the bytes untouched; per-shard summaries come
        back individually, exactly like sketch partials travel.
        """
        if not parcels:
            return []
        from repro.storage.columnar import table_to_bytes

        entries: list[dict] = []
        blobs: list[bytes] = []
        for parcel in parcels:
            payload = parcel.payload
            if payload is None:
                payload = table_to_bytes(parcel.resolve())
            blobs.append(payload)
            entries.append(
                {"globalIndex": parcel.global_index, "shardId": parcel.shard_id}
            )
        reply = self.channel.call(
            "stolenPartial",
            {"sketch": sketch_to_json(sketch), "parcels": entries},
            timeout=self.request_timeout,
            attachment=_pack_blobs(blobs),
        )
        payload_dict = reply.payload if isinstance(reply.payload, dict) else {}
        items = payload_dict.get("summaries") or []
        return [
            (int(item["globalIndex"]), summary_from_bytes(blob))
            for item, blob in zip(
                items, _unpack_blobs(reply.attachment, items, "stolenPartial")
            )
        ]

    def export_hot_entries(self, budget_bytes: int) -> list[dict]:
        reply = self.channel.call(
            "exportHotEntries",
            {"budgetBytes": int(budget_bytes)},
            timeout=self.request_timeout,
        )
        payload = reply.payload if isinstance(reply.payload, dict) else {}
        entries = payload.get("entries")
        return entries if isinstance(entries, list) else []

    def import_entries(self, entries: list[dict]) -> int:
        reply = self.channel.call(
            "importEntries",
            {"entries": entries},
            timeout=self.request_timeout,
        )
        payload = reply.payload if isinstance(reply.payload, dict) else {}
        return int(payload.get("warmed", 0))

    def crash(self) -> None:
        self.channel.call("crash", {}, timeout=self.request_timeout)

    def query_placement(self) -> "ShardPlacement | None":
        """The worker's sticky slice assignment, or None if unplaced."""
        return ShardPlacement.from_json(self.query_placement_info())

    def query_placement_info(self) -> dict:
        """The raw ``placement`` payload: slice, version, membership,
        retired flag — everything a root needs to resync after a
        rebalance it did not initiate."""
        reply = self.channel.call(
            "placement", {}, timeout=self.request_timeout
        )
        return reply.payload if isinstance(reply.payload, dict) else {}

    # -- the rebalance protocol (root side) ------------------------------
    def inventory(self) -> dict[str, dict]:
        reply = self.channel.call(
            "inventory", {}, timeout=self.request_timeout
        )
        payload = reply.payload if isinstance(reply.payload, dict) else {}
        return {
            str(k): dict(v)
            for k, v in (payload.get("datasets") or {}).items()
            if isinstance(v, dict)
        }

    def transfer_shards(
        self, dataset_id: str, moves: list[dict], target_version: int
    ) -> dict:
        """Ask this worker to push moved shard slices to their new
        owners; ``moves`` is ``[{"target": "host:port", "globalIndices":
        [...]}, ...]``.  Returns the worker's ``{moved, missing}``."""
        reply = self.channel.call(
            "transferShards",
            {
                "dataset": dataset_id,
                "moves": moves,
                "targetVersion": target_version,
            },
            timeout=self.request_timeout,
        )
        return reply.payload if isinstance(reply.payload, dict) else {}

    def rebalance_commit(
        self,
        version: int,
        index: int,
        count: int,
        members: "list[str] | None",
        totals: dict[str, int],
        drain_timeout: float = 60.0,
        aggregation_interval: float | None = None,
    ) -> dict:
        reply = self.channel.call(
            "rebalanceCommit",
            {
                "version": version,
                "index": index,
                "count": count,
                "members": members,
                "datasets": totals,
                "drainTimeout": drain_timeout,
                "aggregationInterval": aggregation_interval,
            },
            timeout=max(self.request_timeout, drain_timeout + 30.0),
        )
        self.index = index
        self.count = count
        self.placement_version = version
        return reply.payload if isinstance(reply.payload, dict) else {}

    def retire(
        self,
        version: int,
        members: "list[str] | None",
        drain_timeout: float = 60.0,
    ) -> dict:
        reply = self.channel.call(
            "retire",
            {
                "version": version,
                "members": members,
                "drainTimeout": drain_timeout,
            },
            timeout=max(self.request_timeout, drain_timeout + 30.0),
        )
        return reply.payload if isinstance(reply.payload, dict) else {}

    # -- liveness / lifecycle -------------------------------------------
    def ping(self, timeout: float = 5.0) -> bool:
        try:
            reply = self.channel.call("ping", {}, timeout=timeout)
            return bool(reply.payload.get("pong"))
        except (WorkerUnavailableError, EngineError):
            return False

    def stats(self) -> dict:
        return self.channel.call("stats", {}, timeout=self.request_timeout).payload

    def cache_stats(self) -> dict:
        """The daemon-side cache counters (store + memo + sweep totals)."""
        return self.channel.call(
            "cacheStats", {}, timeout=self.request_timeout
        ).payload

    def sweep_remote_caches(self) -> int:
        """Trigger an on-demand TTL sweep on the worker daemon."""
        reply = self.channel.call(
            "sweepCaches", {}, timeout=self.request_timeout
        )
        return int(reply.payload["purged"])

    def metrics_snapshot(self) -> dict:
        """The daemon's live metrics (queue depth, hit rates, registry)."""
        payload = self.channel.call(
            "metricsSnapshot", {}, timeout=self.request_timeout
        ).payload
        return payload if isinstance(payload, dict) else {"name": self.name}

    def trace_dump(self, trace_id: str | None = None) -> list[dict]:
        """Fetch the daemon's span ring buffer (optionally one trace)."""
        args: dict = {} if trace_id is None else {"traceId": trace_id}
        payload = self.channel.call(
            "traceDump", args, timeout=self.request_timeout
        ).payload
        spans = payload.get("spans") if isinstance(payload, dict) else None
        return spans if isinstance(spans, list) else []

    def kill_process(self, sig: int = signal.SIGKILL) -> None:
        """Hard-kill the worker process (chaos testing)."""
        if self.process is None:
            raise EngineError(f"worker {self.name} was not spawned by us")
        self.process.send_signal(sig)

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

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<RemoteWorkerProxy {self.name} cores={self.cores} {state}>"


# ---------------------------------------------------------------------------
# ProcessCluster
# ---------------------------------------------------------------------------
def _worker_command(
    python: str, connect: tuple[str, int], name: str, cores: int
) -> list[str]:
    host, port = connect
    return [
        python,
        "-m",
        "repro.cli",
        "worker",
        "--connect",
        f"{host}:{port}",
        "--name",
        name,
        "--cores",
        str(cores),
    ]


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


class ProcessCluster(Cluster):
    """A cluster whose workers are separate OS processes (§5.2).

    Two construction modes:

    * ``ProcessCluster(num_workers=4)`` — spawn ``repro worker``
      subprocesses that dial back into the root; the default zero-config
      path (``repro serve --spawn``).
    * ``ProcessCluster(addresses=[(host, port), ...])`` — attach to
      pre-started ``repro worker --listen`` daemons, one per server.

    ``respawn=True`` (default, spawn mode) revives a worker that dies
    mid-query: the subprocess is relaunched, reconfigured, and the sketch
    stream re-run; redo-log lineage rebuilds its soft state (§5.8).
    """

    def __init__(
        self,
        num_workers: int = 4,
        cores_per_worker: "int | Sequence[int]" = 2,
        aggregation_interval: float = 0.1,
        addresses: "list[tuple[str, int]] | None" = None,
        python: str | None = None,
        startup_timeout: float = 30.0,
        request_timeout: float = 300.0,
        respawn: bool = True,
        cache_entries: int = 64,
        cache_ttl_seconds: float = 2 * 3600.0,
        preserve_cadence: bool = False,
    ):
        self._python = python or sys.executable
        self._startup_timeout = startup_timeout
        self._request_timeout = request_timeout
        self._respawn = respawn
        #: Administrative attaches (the fleet CLI) must not rewrite the
        #: serving tier's worker cadence with this cluster's default.
        self._preserve_cadence = preserve_cadence
        self._revive_lock = threading.Lock()
        self._resync_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._addresses = list(addresses) if addresses is not None else None
        #: Proxies dropped from the placement by a resize/resync, with
        #: their detach times.  Their connections stay open so in-flight
        #: streams admitted under the old placement can drain, then are
        #: pruned after a grace period (a long-lived root riding many
        #: resizes must not accumulate dead sockets and reader threads).
        self._detached: "list[tuple[float, RemoteWorkerProxy]]" = []
        workers: list[RemoteWorkerProxy] = []
        try:
            if self._addresses is None:
                self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                self._listener.bind(("127.0.0.1", 0))
                self._listener.listen(max(num_workers, 4))
                self._env = _spawn_env()
                # A sequence gives each spawned worker its own core
                # count — chaos and steal tests build deliberately
                # skewed fleets this way (a 1-core straggler next to a
                # 4-core thief).  Respawn keeps the skew: each proxy
                # remembers its own ``cores``.
                if isinstance(cores_per_worker, int):
                    core_plan = [cores_per_worker] * num_workers
                else:
                    core_plan = [int(c) for c in cores_per_worker]
                    if len(core_plan) != num_workers:
                        raise ValueError(
                            f"cores_per_worker has {len(core_plan)} "
                            f"entries for {num_workers} workers"
                        )
                for i, cores in enumerate(core_plan):
                    workers.append(self._spawn_worker(i, cores))
            else:
                for host, port in self._addresses:
                    workers.append(self._dial_worker(host, port))
                workers = self._agree_placement(workers)
        except BaseException:
            for proxy in workers:
                proxy.close()
            if self._listener is not None:
                self._listener.close()
            raise
        super().__init__(
            aggregation_interval=aggregation_interval,
            cache_entries=cache_entries,
            cache_ttl_seconds=cache_ttl_seconds,
            workers=workers,
        )

    # -- attachment ------------------------------------------------------
    def _spawn_worker(self, index: int, cores: int) -> RemoteWorkerProxy:
        assert self._listener is not None
        host, port = self._listener.getsockname()[:2]
        name = f"worker-{index}"
        process = subprocess.Popen(
            _worker_command(self._python, (host, port), name, cores),
            env=self._env,
            stdout=subprocess.DEVNULL,
        )
        try:
            self._listener.settimeout(self._startup_timeout)
            while True:
                sock, _ = self._listener.accept()
                proxy = self._handshake(sock, process)
                if proxy is not None:
                    return proxy
        except socket.timeout:
            process.kill()
            raise EngineError(
                f"worker {name} did not attach within "
                f"{self._startup_timeout:.0f}s"
            ) from None
        finally:
            self._listener.settimeout(None)

    def _handshake(
        self, sock: socket.socket, process: "subprocess.Popen | None"
    ) -> RemoteWorkerProxy | None:
        """Read the worker's hello, ack it, wrap the socket in a channel."""
        sock.settimeout(self._startup_timeout)
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        try:
            frame = read_frame_blocking(rfile, error=FrameError)
            if frame is None:
                sock.close()
                return None
            hello = RpcRequest.from_json(frame.decode("utf-8"))
            if hello.method != "hello":
                sock.close()
                return None
            write_frame(
                wfile, RpcReply(hello.request_id, "ack").to_json().encode("utf-8")
            )
        except (FrameError, ProtocolError, OSError, ValueError):
            sock.close()
            return None
        sock.settimeout(None)
        name = str(hello.args.get("name", "worker"))
        cores = int(hello.args.get("cores", 1))
        proxy = RemoteWorkerProxy(
            name,
            _WorkerChannel(sock, name),
            cores,
            process=process,
            request_timeout=self._request_timeout,
        )
        proxy.preserve_cadence = self._preserve_cadence
        return proxy

    def _agree_placement(
        self, proxies: "list[RemoteWorkerProxy]"
    ) -> "list[RemoteWorkerProxy]":
        """Order attached workers by the fleet's agreed slice assignment.

        Workers report their sticky placement; a fresh fleet gets the
        canonical (address-sorted) assignment, a placed fleet is adopted
        verbatim.  Every root attaching to the same daemons therefore
        configures the same worker with the same slice index — the
        byte-for-byte agreement the multi-root service tier needs (the
        ``configure`` calls in ``Cluster.__init__`` then match each
        worker's pinned placement instead of fighting it).

        A *partially* placed fleet is a transient state — another root is
        pinning workers one by one at this very moment — so that case is
        re-queried briefly instead of failing the attach.  A fleet that
        *resized* since the attach list was written reports its current
        membership, which is adopted (new members dialed, departed ones
        detached) before agreement — an operator's stale fleet file still
        attaches to the fleet as it is now.
        """
        assert self._addresses is not None
        deadline = time.monotonic() + min(self._startup_timeout, 10.0)
        proxies, version = self._sync_fleet(proxies, deadline)
        self.placement_version = version  # repro: ignore[C001] — attach-time agreement; the cluster is not yet shared with streams or the resync path
        members = [format_address(p.address) for p in proxies if p.address]
        self._addresses = [p.address for p in proxies if p.address]  # repro: ignore[C001] — attach-time agreement; the cluster is not yet shared
        for index, proxy in enumerate(proxies):
            proxy.placement_version = version
            proxy.fleet_members = members
        return proxies

    def _detach_proxy(self, proxy: "RemoteWorkerProxy") -> None:
        """Drop a proxy from the placement without killing streams that
        are still draining on it; closed after the grace period."""
        self._prune_detached()
        self._detached.append((time.monotonic(), proxy))

    def _prune_detached(self) -> None:
        """Close detached proxies whose drain grace has passed.  Any
        stream admitted under the old placement finishes well inside one
        request timeout, after which the connection is just a leak."""
        grace = max(self._request_timeout, 60.0)
        now = time.monotonic()
        keep: "list[tuple[float, RemoteWorkerProxy]]" = []
        for stamped, proxy in self._detached:
            if now - stamped > grace:
                proxy.close()
            else:
                keep.append((stamped, proxy))
        self._detached = keep

    def _sync_fleet(
        self,
        proxies: "list[RemoteWorkerProxy]",
        deadline: float,
        min_version: int | None = None,
    ) -> "tuple[list[RemoteWorkerProxy], int]":
        """Reconcile ``proxies`` with the fleet's reported placement.

        Adopts membership changes (dialing joined members, detaching
        departed ones), retries transient states (mid-rebalance mixed
        versions, partial placement), and — with ``min_version`` — waits
        until the fleet settles at or above that placement version.
        Returns the proxies in slice order plus the agreed version.

        A fleet stuck at *mixed* versions (a rebalance interrupted after
        committing some members) is **repaired**: the committed members'
        report carries the full target assignment (members ordered by
        slice), so after a short grace period — in case the initiating
        root is still mid-commit — the stragglers are driven to the same
        idempotent commit (or retired, if the target membership excludes
        them).  Their shard stores drop to redo-log replay, which is the
        always-correct fallback.
        """
        mixed_since: float | None = None
        #: The newest membership report seen across the whole loop (not
        #: just this iteration): once a departed worker's farewell
        #: report has been acted on, that worker is detached and its
        #: report disappears — forgetting it would let the survivors'
        #: older membership flip the fleet right back.
        best_membership: dict | None = None
        while True:
            infos: list[dict] = []
            for proxy in proxies:
                try:
                    infos.append(proxy.query_placement_info())
                except (WorkerUnavailableError, EngineError):
                    infos.append({})
            # Membership adoption: the highest version that names
            # members wins (a retired worker's farewell report counts —
            # it names its successors).
            for info in infos:
                if not info.get("members"):
                    continue
                if best_membership is None or int(
                    info.get("version") or 0
                ) > int(best_membership.get("version") or 0):
                    best_membership = {
                        "version": int(info.get("version") or 0),
                        "members": [str(m) for m in info["members"]],
                    }
            if best_membership is not None:
                target = list(best_membership["members"])
                current = {
                    format_address(p.address): p
                    for p in proxies
                    if p.address is not None
                }
                if set(target) != set(current):
                    adopted: "list[RemoteWorkerProxy]" = []
                    for member in target:
                        if member in current:
                            adopted.append(current.pop(member))
                        else:
                            adopted.append(
                                self._dial_worker(*parse_address(member))
                            )
                    for leftover in current.values():
                        self._detach_proxy(leftover)
                    proxies = adopted
                    continue  # re-query the adopted membership
            # Interrupted-rebalance detection: any *placed* worker behind
            # the newest membership report is a straggler.  The newest
            # report may come from a committed survivor (mixed placed
            # versions) or from a retired worker's farewell (a shrink
            # that retired the departing workers but lost its survivor
            # commits) — both carry the full target assignment.
            stragglers = best_membership is not None and any(
                info.get("index") is not None
                and int(info.get("version") or 0)
                < int(best_membership["version"])
                for info in infos
            )
            if stragglers:
                # Agreement is meaningless while part of the fleet is on
                # an older assignment; give the original initiator a
                # grace period to finish its commits, then heal the
                # stragglers ourselves and re-query.
                now = time.monotonic()
                if mixed_since is None:
                    mixed_since = now
                elif now - mixed_since > 2.0:
                    self._repair_mixed_fleet(proxies, infos, best_membership)
                if now >= deadline:
                    raise PlacementError(
                        "the fleet has workers behind placement version "
                        f"{best_membership['version']} that could not be "
                        "healed in time; an interrupted rebalance needs "
                        "the affected daemons reachable"
                    )
                time.sleep(0.1)
                continue
            mixed_since = None
            reported = [ShardPlacement.from_json(info) for info in infos]
            addresses = [
                p.address if p.address is not None else ("?", 0)
                for p in proxies
            ]
            try:
                assignment = agree_placement(addresses, reported)
            except PlacementError as exc:
                if exc.retryable and time.monotonic() < deadline:
                    time.sleep(0.1)
                    continue
                raise
            placed = [p for p in reported if p is not None]
            version = placed[0].version if placed else 0
            if min_version is not None and version < min_version:
                if time.monotonic() < deadline:
                    time.sleep(0.1)
                    continue
                raise StalePlacementError(
                    f"fleet stayed at placement version {version}; "
                    f"expected at least {min_version}"
                )
            ordered: "list[RemoteWorkerProxy | None]" = [None] * len(proxies)
            for position, index in enumerate(assignment):
                ordered[index] = proxies[position]
            return [p for p in ordered if p is not None], version

    def _repair_mixed_fleet(
        self,
        proxies: "list[RemoteWorkerProxy]",
        infos: list[dict],
        target: dict,
    ) -> None:
        """Finish an interrupted rebalance: drive every straggler to the
        ``target`` assignment (the newest membership report seen — a
        committed survivor's, or a retired worker's farewell; members
        are ordered by slice index).  Best-effort and idempotent —
        racing the original initiator, or another repairing root, is
        harmless."""
        version = int(target.get("version") or 0)
        members = [str(m) for m in target["members"]]
        index_of = {member: i for i, member in enumerate(members)}
        for proxy, info in zip(proxies, infos):
            if not info or proxy.address is None:
                continue
            if info.get("rebalancing"):
                # The original initiator is draining/committing this
                # worker right now; finishing its rebalance with empty
                # totals would discard the shards it transferred.  Let
                # it finish — the next sync pass re-evaluates.
                continue
            if int(info.get("version") or 0) >= version and not (
                info.get("index") is None and not info.get("retired")
            ):
                continue  # already there (placed or properly retired)
            member = format_address(proxy.address)
            try:
                if member in index_of:
                    # No shard totals survive the interruption: the
                    # commit evicts the straggler's store and redo-log
                    # replay rebuilds it on first use (§5.7).  During an
                    # *attach* this cluster has no cadence yet (base
                    # __init__ has not run); None keeps the worker's own.
                    proxy.rebalance_commit(
                        version,
                        index_of[member],
                        len(members),
                        members,
                        {},
                        # None keeps the worker's own cadence: during an
                        # attach this cluster has none yet, and a repair
                        # pass is never the right writer of tier tuning.
                        aggregation_interval=None,
                    )
                else:
                    proxy.retire(version, members)
            except (PlacementError, WorkerUnavailableError, EngineError):
                continue  # the next sync pass re-evaluates

    # -- elastic fleet operations (§6 deployment, made elastic) ----------
    def resync_placement(self, observed_version: int | None = None) -> bool:
        """Adopt a placement the fleet moved to without this root.

        Called after a worker rejects one of our requests as stale: the
        fleet re-read, new members dialed, departed proxies detached
        (left open so in-flight old-placement streams can drain), and
        every remaining request retried under the new version.

        ``observed_version`` is the caller's version at the time its
        request failed.  Two queries rejected by the same rebalance both
        resync: the first adopts the new placement; the second must see
        that the root already moved past what it observed and simply
        retry — waiting for a *further* version would stall it against
        a fleet that is already settled.
        """
        if self._addresses is None:
            return False  # spawn-mode fleets cannot be resized externally
        with self._resync_lock:
            if (
                observed_version is not None
                and self.placement_version > observed_version
            ):
                return True  # another thread already adopted a newer one
            before = self.placement_version
            deadline = time.monotonic() + min(self._startup_timeout, 15.0)
            try:
                ordered, version = self._sync_fleet(
                    list(self.workers), deadline, min_version=before + 1
                )
            except (PlacementError, EngineError, OSError):
                return False
            members = [
                format_address(p.address) for p in ordered if p.address
            ]
            for index, proxy in enumerate(ordered):
                proxy.index = index
                proxy.count = len(ordered)
                proxy.placement_version = version
                proxy.fleet_members = members
            self._addresses = [p.address for p in ordered if p.address]
            self.workers = list(ordered)
            self.placement_version = version
            return True

    def grow(self, addresses) -> int:  # type: ignore[override]
        """Add pre-started ``repro worker --listen`` daemons to the fleet,
        streaming only the moved shard slices to them (the rest replay
        from the redo log on first use).  ``addresses`` is a list of
        ``host:port`` strings or ``(host, port)`` tuples."""
        if self._addresses is None:
            raise PlacementError(
                "elastic resize needs an attached daemon fleet "
                "(--worker-address/--join); spawned workers have no "
                "dialable address for their peers to stream shards to"
            )
        parsed = [
            parse_address(a) if isinstance(a, str) else (str(a[0]), int(a[1]))
            for a in addresses
        ]
        if not parsed:
            raise ValueError("grow needs at least one new worker address")
        if len(set(parsed)) != len(parsed):
            raise PlacementError(
                "grow was given the same worker address twice; one daemon "
                "cannot serve two slices"
            )
        known = set(self._addresses)
        for address in parsed:
            if address in known:
                raise PlacementError(
                    f"worker {format_address(address)} is already in the fleet"
                )
        added: "list[RemoteWorkerProxy]" = []
        try:
            for host, port in parsed:
                added.append(self._dial_worker(host, port))
            old = list(self.workers)
            self._rebalance(old, list(range(len(old))), old + added)
        except BaseException:
            for proxy in added:
                if proxy not in self.workers:  # a failed grow leaks nothing
                    proxy.close()
            raise
        # Prewarm after the commit: the joiners' memo keys embed the new
        # slice, so recipes recompute over exactly what they now hold.
        self._prewarm_joiners(old, added)
        return len(self.workers)

    def _find_worker(self, selector) -> int:
        if isinstance(selector, tuple):
            selector = format_address((str(selector[0]), int(selector[1])))
        if isinstance(selector, str) and ":" in selector:
            wanted = parse_address(selector)
            for index, worker in enumerate(self.workers):
                if getattr(worker, "address", None) == wanted:
                    return index
            raise PlacementError(f"no worker at address {selector!r}")
        return super()._find_worker(selector)

    def _rebalance(
        self,
        old: "list[WorkerProtocol]",
        new_indices: "list[int | None]",
        new_workers: "list[WorkerProtocol]",
    ) -> None:
        """The wire rebalance: plan from worker inventories, stream only
        the moved shard slices daemon-to-daemon (``transferShards`` →
        ``adoptShards``), then commit the new versioned placement on
        every member (``rebalanceCommit``) and retire the removed ones.

        Stale roots discover the change through ``stale_placement``
        rejections and resync; transfers are best-effort — a failed or
        cold slice is simply dropped at commit and redo-log replay
        rebuilds it on first use (§5.7)."""
        if self._addresses is None:
            raise PlacementError(
                "elastic resize needs an attached daemon fleet"
            )
        self._begin_rebalance()
        try:
            proxies: "list[RemoteWorkerProxy]" = []
            for worker in new_workers:
                assert isinstance(worker, RemoteWorkerProxy)
                assert worker.address is not None
                proxies.append(worker)
            new_count = len(proxies)
            target_version = self.placement_version + 1
            members = [format_address(p.address) for p in proxies]
            inventories = self._collect_inventories(old)
            totals = self._transferable_datasets(inventories)
            for dataset_id in sorted(totals):
                resident = [
                    global_indices(
                        w.index,
                        w.count,
                        self._inventory_shards(inventories[i], dataset_id),
                    )
                    for i, w in enumerate(old)
                ]
                moves = plan_moves(resident, new_indices, new_count)
                by_source: dict[int, list[dict]] = {}
                for (position, owner), globals_moved in sorted(moves.items()):
                    by_source.setdefault(position, []).append(
                        {
                            "target": members[owner],
                            "globalIndices": globals_moved,
                        }
                    )
                for position, move_list in by_source.items():
                    source = old[position]
                    assert isinstance(source, RemoteWorkerProxy)
                    try:
                        source.transfer_shards(
                            dataset_id, move_list, target_version
                        )
                    except (WorkerUnavailableError, EngineError):
                        # Commit's completeness check drops the partial
                        # slice; redo-log replay rebuilds it on demand.
                        continue
            # Commit every member even if one fails: a straggler left at
            # the old version is healed by any root's _sync_fleet (the
            # committed members' report carries the full assignment), so
            # the mixed-version window must be as small as possible.
            commit_errors: list[tuple[str, Exception]] = []
            commit_cadence = (
                None if self._preserve_cadence else self.aggregation_interval
            )
            for index, proxy in enumerate(proxies):
                proxy.fleet_members = members
                try:
                    proxy.rebalance_commit(
                        target_version,
                        index,
                        new_count,
                        members,
                        totals,
                        aggregation_interval=commit_cadence,
                    )
                except (PlacementError, WorkerUnavailableError, EngineError) as exc:
                    commit_errors.append((proxy.name, exc))
            if len(commit_errors) == len(proxies):
                # Nothing committed: the fleet is still uniformly at the
                # old placement.  Retiring the departing workers now
                # would strand it (retired members at the new version,
                # survivors at the old, nobody placed at the target) —
                # leave everything as it was and let the operator re-run.
                detail = "; ".join(
                    f"{name}: {exc}" for name, exc in commit_errors
                )
                raise PlacementError(
                    f"no member accepted the rebalance commit to version "
                    f"{target_version} ({detail}); the fleet is unchanged "
                    "at the old placement — re-run the grow/shrink"
                )
            for position, new_index in enumerate(new_indices):
                if new_index is not None:
                    continue
                removed = old[position]
                assert isinstance(removed, RemoteWorkerProxy)
                try:
                    removed.retire(target_version, members)
                except (WorkerUnavailableError, EngineError):
                    pass  # a dead worker is as removed as it gets
                removed.close()
            if commit_errors:
                detail = "; ".join(
                    f"{name}: {exc}" for name, exc in commit_errors
                )
                raise PlacementError(
                    f"rebalance to version {target_version} committed on "
                    f"{len(proxies) - len(commit_errors)}/{len(proxies)} "
                    f"workers ({detail}); the stragglers are healed by the "
                    "next attach or resync (commits are idempotent), or "
                    "re-run the same grow/shrink"
                )
            self.workers = list(proxies)  # repro: ignore[C001] — the rebalance stream barrier (_begin_rebalance) excludes streams and resyncs
            self._addresses = [p.address for p in proxies]  # repro: ignore[C001] — under the rebalance stream barrier
            self.placement_version = target_version  # repro: ignore[C001] — under the rebalance stream barrier
            self.rebalances += 1
        finally:
            self._end_rebalance()

    def _dial_worker(self, host: str, port: int) -> RemoteWorkerProxy:
        sock = socket.create_connection(
            (host, port), timeout=self._startup_timeout
        )
        sock.settimeout(None)
        wfile = sock.makefile("wb")
        rfile = sock.makefile("rb")
        write_frame(wfile, RpcRequest(0, "", "hello", {}).to_json().encode("utf-8"))
        frame = read_frame_blocking(rfile, error=FrameError)
        if frame is None:
            raise EngineError(f"worker at {host}:{port} closed during handshake")
        ack = RpcReply.from_json(frame.decode("utf-8"))
        payload = ack.payload if isinstance(ack.payload, dict) else {}
        name = str(payload.get("name", f"{host}:{port}"))
        cores = int(payload.get("cores", 1))
        proxy = RemoteWorkerProxy(
            name,
            _WorkerChannel(sock, name),
            cores,
            address=(host, port),
            request_timeout=self._request_timeout,
        )
        proxy.preserve_cadence = self._preserve_cadence
        return proxy

    # -- fault recovery (§5.8) ------------------------------------------
    def revive_worker(self, index: int) -> bool:
        """Respawn (or re-dial) a dead worker and reconfigure it."""
        if not self._respawn:
            return False
        with self._revive_lock:
            proxy = self.workers[index]
            if not isinstance(proxy, RemoteWorkerProxy):
                return False
            if proxy.alive and proxy.ping():
                return True  # another thread already revived it
            proxy.close()
            try:
                if proxy.address is not None:
                    replacement = self._retry_dial(proxy.address)
                else:
                    replacement = self._spawn_worker(index, proxy.cores)
            except (EngineError, OSError):
                return False
            if replacement is None:
                return False
            replacement.placement_version = proxy.placement_version
            replacement.fleet_members = proxy.fleet_members
            replacement.preserve_cadence = getattr(
                proxy, "preserve_cadence", False
            )
            try:
                replacement.configure(
                    index, len(self.workers), self.aggregation_interval
                )
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
    ) -> RemoteWorkerProxy | None:
        for _ in range(attempts):
            try:
                return self._dial_worker(*address)
            except (OSError, EngineError):
                time.sleep(delay)
        return None

    def kill_worker_process(self, index: int, sig: int = signal.SIGKILL) -> None:
        """SIGKILL one worker process (chaos testing; §5.8 fault model)."""
        proxy = self.workers[index]
        if not isinstance(proxy, RemoteWorkerProxy):
            raise EngineError("kill_worker_process needs a remote worker")
        proxy.kill_process(sig)

    def worker_pids(self) -> list[int | None]:
        return [
            w.pid if isinstance(w, RemoteWorkerProxy) else None
            for w in self.workers
        ]

    # -- lifecycle -------------------------------------------------------
    def sweep_caches(self) -> int:
        # The service tier's periodic sweep runs through here: piggyback
        # the detached-proxy pruning so a root that rides one resize and
        # then never resizes again still releases the drained sockets.
        self._prune_detached()
        return super().sweep_caches()

    def close(self) -> None:
        for worker in self.workers:
            worker.close()
        for _, proxy in self._detached:
            proxy.close()
        self._detached = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None


# ---------------------------------------------------------------------------
# Fleet introspection (``repro fleet status``)
# ---------------------------------------------------------------------------
def query_fleet(
    addresses: "list[tuple[str, int]]", timeout: float = 10.0
) -> list[dict]:
    """Dial each worker daemon briefly and return its placement payload
    (plus resident-dataset inventory).  Unreachable daemons yield an
    ``{"error": ...}`` entry instead of failing the whole sweep — status
    must work on a half-down fleet."""
    reports: list[dict] = []
    for host, port in addresses:
        report: dict = {"address": format_address((host, port))}
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.settimeout(timeout)
            try:
                wfile = sock.makefile("wb")
                rfile = sock.makefile("rb")
                hello = call_once(
                    rfile, wfile, 0, "hello", where=f"worker {host}:{port}"
                )
                if isinstance(hello.payload, dict):
                    report["name"] = hello.payload.get("name")
                    report["pid"] = hello.payload.get("pid")
                info = call_once(
                    rfile, wfile, 1, "inventory",
                    where=f"worker {host}:{port}",
                )
                if info.kind == "error":
                    report["error"] = f"[{info.code}] {info.error}"
                elif isinstance(info.payload, dict):
                    report.update(info.payload)
            finally:
                sock.close()
        except (FrameError, EngineError, OSError, ValueError) as exc:
            report["error"] = str(exc)
        reports.append(report)
    return reports


def query_fleet_metrics(
    addresses: "list[tuple[str, int]]", timeout: float = 10.0
) -> list[dict]:
    """Dial each worker daemon for its ``metricsSnapshot`` payload
    (``repro fleet top``); unreachable daemons degrade to an
    ``{"error": ...}`` entry, like :func:`query_fleet`."""
    reports: list[dict] = []
    for host, port in addresses:
        report: dict = {"address": format_address((host, port))}
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.settimeout(timeout)
            try:
                wfile = sock.makefile("wb")
                rfile = sock.makefile("rb")
                call_once(
                    rfile, wfile, 0, "hello", where=f"worker {host}:{port}"
                )
                info = call_once(
                    rfile, wfile, 1, "metricsSnapshot",
                    where=f"worker {host}:{port}",
                )
                if info.kind == "error":
                    report["error"] = f"[{info.code}] {info.error}"
                elif isinstance(info.payload, dict):
                    report.update(info.payload)
            finally:
                sock.close()
        except (FrameError, EngineError, OSError, ValueError) as exc:
            report["error"] = str(exc)
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# CLI entry (``repro worker``)
# ---------------------------------------------------------------------------
def worker_main(argv: list[str]) -> int:
    """`repro worker`: run one worker daemon."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.cli worker",
        description="Run one Hillview worker process.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="dial a root that spawned this worker",
    )
    mode.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="bind and wait for a root to dial in (daemon fleet)",
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
        mode="connect" if args.connect else "listen",
    )

    # Graceful shutdown: SIGTERM (a fleet shrink, an init system stop, a
    # CI teardown) drains instead of killing — in-flight partial streams
    # finish, new state-creating requests are refused, and the process
    # exits once idle (or after the grace period).  The watchdog thread
    # is what actually ends the process: in --connect mode the main
    # thread sits in a blocking read that PEP 475 resumes after the
    # handler, so without it a SIGTERM'd connect-mode worker would serve
    # forever.
    def _graceful_shutdown(signum, frame):  # noqa: ARG001 — signal API
        log_event(
            "worker.drain", worker=server.worker.name, signal=int(signum)
        )
        server.begin_drain()

        def finish() -> None:
            server.wait_drained(timeout=args.drain_grace)
            os._exit(0)

        # repro: ignore[C002] — SIGTERM drain-to-exit helper; process is dying, no query context applies
        threading.Thread(target=finish, name="drain-exit", daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _graceful_shutdown)
    except ValueError:
        pass  # not the main thread (embedded in tests)

    try:
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            server.run_connect(host or "127.0.0.1", int(port))
        else:
            host, _, port = args.listen.rpartition(":")

            def announce(address: tuple[str, int]) -> None:
                # The announcement line is a valid @fleet.txt entry: it
                # must carry a *dialable* host, so a wildcard bind falls
                # back to loopback (multi-host fleets edit the file or
                # announce a real interface address).
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

            server.run_listen(host or "127.0.0.1", int(port), on_bound=announce)
    except KeyboardInterrupt:
        # Ctrl-C on a foreground `repro serve --spawn` reaches the whole
        # process group; workers exit quietly, like the root does.
        pass
    if server.draining:
        server.wait_drained(timeout=args.drain_grace)
    return 0

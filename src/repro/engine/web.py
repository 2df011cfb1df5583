"""The web server: root of the execution tree, session state, RPC (§5.2).

Hillview's web server sits between the browser and the workers: it holds
*remote object handles* for the datasets a session derived (the initial
load, filters, projections), launches execution trees for vizketch
queries, streams progressively merged partials back to the client, and
honors cancellation.  All of its state is soft (§5.7): each handle holds
its dataset or the redo-log chain that rebuilds it — a load from a
:class:`~repro.storage.loader.DataSource` followed by map operations ("the
recursion ends when data is read from disk").

:class:`WebServer` is transport-free: :meth:`execute` accepts a JSON
request (or an :class:`~repro.engine.rpc.RpcRequest`) and yields JSON-able
reply envelopes one at a time, exactly the message sequence a WebSocket
would carry.  The concurrent service layer (:mod:`repro.service`) runs one
``WebServer`` per client session as its session-scoped execution facade:
handle namespaces are per-session while the cluster underneath is shared.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator

from repro.engine.cluster import Cluster, ClusterDataSet
from repro.engine.dataset import TABLE_MAPS, TableMap
from repro.engine.progress import CancellationToken
from repro.engine.redo_log import LoadOp
from repro.engine.rpc import (
    ProtocolError,
    RpcReply,
    RpcRequest,
    UnknownHandleError,
    lineage_from_json,
    lineage_to_json,
    sketch_from_json,
)
from repro.errors import HillviewError
from repro.obs.logs import log_event
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TraceContext, serve_span, trace_enabled
from repro.storage.loader import DataSource


class WebServer:
    """Session-scoped query root over one (possibly shared) cluster (§5.2, §6).

    ``session_id`` names the session this facade serves; each facade mints
    handles in its own namespace, so sessions on a shared cluster can
    never collide.  ``source_resolver`` turns a JSON source spec into a
    :class:`DataSource` and enables the wire-level ``load`` method.
    """

    def __init__(
        self,
        cluster: Cluster | None = None,
        session_id: str = "local",
        source_resolver: "Callable[[dict], DataSource] | None" = None,
    ):
        self.cluster = cluster if cluster is not None else Cluster()
        self.session_id = session_id
        self.source_resolver = source_resolver
        #: handle -> its materialized dataset, or the redo-log chain
        #: (``[LoadOp, MapOp, ...]``) that rebuilds it (§5.7).
        self._handles: dict[str, ClusterDataSet | list] = {}
        self._tokens: dict[int, CancellationToken] = {}
        self._counter = 0
        self._lock = threading.Lock()
        #: Invoked after every handle mint (load or derive); the session
        #: layer hooks this to persist the session's handles into a
        #: shared store, so another root can resume the session (§5.2).
        self.on_lineage_change: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    # Remote object handles (soft state)
    # ------------------------------------------------------------------
    def _mint(self, build: Callable[[], ClusterDataSet]) -> str:
        with self._lock:
            self._counter += 1
            handle = f"obj-{self._counter}"
        dataset = build()
        with self._lock:
            self._handles[handle] = dataset
            self.cluster.hold(dataset.dataset_id)
        if self.on_lineage_change is not None:
            self.on_lineage_change()
        return handle

    def load(self, source: DataSource) -> str:
        """Load a data source; returns the session's root handle.

        Dataset ids are content-addressed, so a spec another session
        already loaded names the same cluster dataset, and the workers
        answer its ``ensure`` from their stores.
        """
        return self._mint(lambda: self.cluster.load(source))

    def _derive(self, parent: str, table_map: TableMap) -> str:
        return self._mint(lambda: self.dataset(parent).map(table_map))

    def _unhold(self, handle: str) -> str | None:
        """Swap ``handle``'s dataset for its redo-log chain; returns the
        dataset id whose hold the caller must release, or None when the
        handle was already evicted.  Under the lock, so two evicts of one
        handle release once."""
        with self._lock:
            entry = self._handles.get(handle)
            if entry is None:
                raise UnknownHandleError(f"unknown remote object {handle!r}")
            if not isinstance(entry, ClusterDataSet):
                return None
            self._handles[handle] = self.cluster.lineage(entry.dataset_id)
            return entry.dataset_id

    def evict(self, handle: str) -> None:
        """Drop a handle's materialized dataset (soft state); it rebuilds
        from the redo log on next use (§5.7).  The last handle holding a
        dataset frees its shards on every worker."""
        dataset_id = self._unhold(handle)
        if dataset_id is not None:
            self.cluster.release(dataset_id)

    def close(self) -> None:
        """Release every dataset this facade holds (session teardown);
        the handles keep their chains."""
        for handle in self.handles:
            dataset_id = self._unhold(handle)
            if dataset_id is not None:
                self._release_quietly(dataset_id)

    @property
    def handles(self) -> list[str]:
        """Every handle this session has minted (resident or evicted)."""
        with self._lock:
            return list(self._handles)

    def dataset(self, handle: str) -> ClusterDataSet:
        """The dataset behind ``handle``; an evicted or restored handle is
        rebuilt by repeating the calls that first minted it (§5.7)."""
        entry = self._handles.get(handle)
        if entry is None:
            raise UnknownHandleError(f"unknown remote object {handle!r}")
        if isinstance(entry, ClusterDataSet):
            return entry
        dataset = self.cluster.load(entry[0].source)
        for op in entry[1:]:
            dataset = dataset.map(op.table_map)
        with self._lock:
            current = self._handles.get(handle)
            if isinstance(current, ClusterDataSet):
                return current  # a concurrent use rebuilt it first
            self._handles[handle] = dataset
            self.cluster.hold(dataset.dataset_id)
        return dataset

    # ------------------------------------------------------------------
    # Lineage export/restore: session migration between roots (§5.2)
    # ------------------------------------------------------------------
    def export_lineage(self) -> list[dict]:
        """The session's handles as ``{"handle", "lineage"}`` records in
        mint order, each chain in the worker wire's lineage encoding.

        A handle whose chain cannot cross a process boundary (an
        in-memory :class:`~repro.storage.loader.TableSource`, a map
        carrying a Python callable) is skipped — exactly the §5.7
        constraint that durable lineage must bottom out at a reloadable
        source.
        """
        # Snapshot under the mint lock: concurrent queries of the same
        # session may be minting handles while persistence runs.
        with self._lock:
            entries = list(self._handles.items())
        records: list[dict] = []
        for handle, entry in entries:
            if isinstance(entry, ClusterDataSet):
                entry = self.cluster.lineage(entry.dataset_id)
            try:
                records.append({"handle": handle, "lineage": lineage_to_json(entry)})
            except ProtocolError:
                continue
        return records

    def restore_lineage(self, records: list, counter: int = 0) -> int:
        """Store the chains of :meth:`export_lineage` records; each handle
        is materialized on first use (§5.7).

        Each record decodes on its own, and one that does not is skipped.
        The handle counter's high-water mark comes from ``counter`` and
        from every record's handle name, decoded or not, so a newly
        minted handle never collides with one minted before.  Returns the
        number of handles restored.
        """
        restored = 0
        numbers = [counter]
        for record in records:
            handle = record.get("handle") if isinstance(record, dict) else None
            if not isinstance(handle, str):
                continue
            if handle.startswith("obj-") and handle[4:].isdigit():
                numbers.append(int(handle[4:]))
            try:
                chain = lineage_from_json(record["lineage"])
            except (HillviewError, KeyError, TypeError, ValueError, AttributeError):
                continue
            if not chain or not isinstance(chain[0], LoadOp):
                continue
            with self._lock:
                self._handles[handle] = chain
            restored += 1
        with self._lock:
            self._counter = max(self._counter, *numbers)
        return restored

    # ------------------------------------------------------------------
    # Cancellation (§5.3)
    # ------------------------------------------------------------------
    def cancel(self, request_id: int) -> bool:
        """Cancel an in-flight request; returns whether one was active."""
        token = self._tokens.get(request_id)
        if token is None:
            return False
        token.cancel()
        return True

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def execute(
        self,
        request: RpcRequest | str,
        token: CancellationToken | None = None,
    ) -> Iterator[RpcReply]:
        """Run one request, yielding the reply message sequence.

        Successful sketch queries yield zero or more ``partial`` replies
        followed by one ``complete`` (or ``cancelled``); map operations
        yield a single ``ack`` carrying the new handle; failures yield a
        single structured ``error`` envelope (code + message) — the
        protocol never raises to the caller, so one bad client cannot
        kill a shared service loop.

        ``token``, when supplied by a scheduler, is the cancellation
        token sketch execution observes (newest-query-wins, §5.3);
        otherwise a fresh token is minted per request.
        """
        try:
            if isinstance(request, str):
                request = RpcRequest.from_json(request)
            yield from self._dispatch(request, token)
        except HillviewError as exc:
            yield RpcReply(
                request_id=getattr(request, "request_id", -1),
                kind="error",
                error=str(exc),
                code=exc.code,
            )
        except Exception as exc:  # repro: ignore[B001] — shield the service loop
            yield RpcReply(
                request_id=getattr(request, "request_id", -1),
                kind="error",
                error=f"internal error: {type(exc).__name__}: {exc}",
                code="internal",
            )

    def _dispatch(
        self, request: RpcRequest, token: CancellationToken | None = None
    ) -> Iterator[RpcReply]:
        method = request.method
        if method == "sketch":
            yield from self._run_sketch(request, token)
        elif method == "load":
            if self.source_resolver is None:
                raise ProtocolError(
                    "this server has no source resolver; load locally instead"
                )
            spec = request.args.get("source")
            source = self.source_resolver(spec if isinstance(spec, dict) else {})
            handle = self.load(source)
            yield RpcReply(request.request_id, "ack", payload={"handle": handle})
        elif method == "filter" or method == "project" or method == "derive":
            # The arguments are the map's description, less its type (a
            # derived column is an expression map).
            kind = "expression" if method == "derive" else method
            spec = {**request.args, "type": kind}
            handle = self._derive(request.target, TABLE_MAPS.from_json(spec))
            yield RpcReply(request.request_id, "ack", payload={"handle": handle})
        elif method == "schema":
            schema = self.dataset(request.target).schema
            yield RpcReply(
                request.request_id,
                "complete",
                payload={
                    "columns": [
                        {"name": d.name, "kind": d.kind.value} for d in schema
                    ]
                },
            )
        elif method == "rowCount":
            rows = self.dataset(request.target).total_rows
            yield RpcReply(request.request_id, "complete", payload={"rows": rows})
        elif method == "evict":
            dataset_id = self._unhold(request.target)
            yield RpcReply(request.request_id, "ack", payload={"evicted": True})
            # The client has its terminal; the worker round trips run on
            # whoever drains this generator (the scheduler's query thread).
            if dataset_id is not None:
                self._release_quietly(dataset_id)
        elif method == "ping":
            yield RpcReply(request.request_id, "ack", payload={"pong": True})
        else:
            raise ProtocolError(f"unknown method {method!r}")

    def _release_quietly(self, dataset_id: str) -> None:
        """Release a hold where no reply can carry a failure (after an
        ``evict`` ack, at session teardown): it is logged and counted."""
        try:
            self.cluster.release(dataset_id)
        except (HillviewError, OSError) as exc:
            REGISTRY.counter(
                "web.release_errors",
                "dataset releases that failed with no reply to carry it",
            ).inc()
            log_event(
                "web.release_failed",
                level="warning",
                session=self.session_id,
                dataset=dataset_id,
                error=f"{type(exc).__name__}: {exc}",
            )

    @staticmethod
    def _finalize(sketch, summary: object | None) -> None:
        """Root-side completion work for side-effecting sketches.

        A clean ``hvc`` save gets its snapshot manifest written once every
        partition has landed (mirrors :meth:`Spreadsheet.save`).
        """
        from repro.sketches.save import SaveTableSketch
        from repro.storage.columnar import write_manifest

        if (
            isinstance(sketch, SaveTableSketch)
            and sketch.format == "hvc"
            and summary is not None
            and not summary.errors
            and summary.files
        ):
            write_manifest(sketch.directory, summary.files)

    def _run_sketch(
        self, request: RpcRequest, token: CancellationToken | None = None
    ) -> Iterator[RpcReply]:
        spec = request.args.get("sketch")
        if not isinstance(spec, dict):
            raise ProtocolError("sketch requests need a 'sketch' spec object")
        sketch = sketch_from_json(spec)
        dataset = self.dataset(request.target)
        if token is None:
            token = CancellationToken()
        self._tokens[request.request_id] = token
        last_summary: object | None = None
        # Cache telemetry for the terminal envelope (§5.4): a root-tier
        # hit, and/or how many workers served memoized partials.  It
        # rides the envelope so payload bytes stay identical across
        # warm and cold roots.
        cache_info = {"hit": False, "workerHits": 0}
        # The root span of this query on this daemon.  The envelope's
        # context wins (the client or scheduler minted it); a bare facade
        # with REPRO_TRACE=1 originates its own, so direct WebServer use
        # (benchmarks, tests) traces too.
        ctx = TraceContext.from_json(request.trace)
        if ctx is None and trace_enabled():
            ctx = TraceContext.new_root()
        want_profile = bool(request.args.get("profile"))
        engine_profile: dict | None = None
        first_partial_seconds: float | None = None
        started = time.perf_counter()
        try:
            with serve_span(
                ctx,
                "query.sketch",
                session=self.session_id,
                target=request.target,
                sketch=str(spec.get("type")),
            ):
                # The stream is drained to exhaustion, never abandoned
                # early: breaking at the final partial would kill the
                # generator before its completion work (the root-tier
                # cache write in ClusterDataSet.sketch_stream) could run.
                for partial in dataset.sketch_stream(sketch, token):
                    if first_partial_seconds is None:
                        first_partial_seconds = time.perf_counter() - started
                    last_summary = partial.value
                    cache_info["hit"] = cache_info["hit"] or partial.cache_hit
                    cache_info["workerHits"] = max(
                        cache_info["workerHits"], partial.worker_cache_hits
                    )
                    if getattr(partial, "profile", None) is not None:
                        engine_profile = partial.profile
                    if partial.progress >= 1.0:
                        continue  # the final summary becomes the complete reply
                    yield RpcReply.carrying(
                        request.request_id,
                        "partial",
                        last_summary,
                        progress=partial.progress,
                    )
            REGISTRY.histogram(
                "web.first_partial_seconds",
                "latency to the first rendering-capable partial",
            ).observe(
                first_partial_seconds
                if first_partial_seconds is not None
                else time.perf_counter() - started
            )
            profile = (
                self._assemble_profile(
                    request, engine_profile, cache_info, first_partial_seconds, started
                )
                if want_profile
                else None
            )
            if token.cancelled:
                yield RpcReply.carrying(
                    request.request_id,
                    "cancelled",
                    last_summary,
                    progress=1.0,
                    cache=cache_info,
                    profile=profile,
                )
            else:
                self._finalize(sketch, last_summary)
                yield RpcReply.carrying(
                    request.request_id,
                    "complete",
                    last_summary,
                    progress=1.0,
                    cache=cache_info,
                    profile=profile,
                )
        finally:
            self._tokens.pop(request.request_id, None)

    @staticmethod
    def _assemble_profile(
        request: RpcRequest,
        engine_profile: dict | None,
        cache_info: dict,
        first_partial_seconds: float | None,
        started: float,
    ) -> dict:
        """The terminal reply's per-stage breakdown (``profile: true``).

        The engine contributes the fan-out view (per-worker streams,
        merge time, straggler) via the final partial; the facade adds
        the stages only it can see: queue wait (stamped on the request
        by the scheduler), first-partial latency, and total wall-clock.
        """
        profile = dict(engine_profile or {})
        profile["queueWaitSeconds"] = round(
            getattr(request, "queue_wait_seconds", 0.0), 6
        )
        profile["firstPartialSeconds"] = round(
            first_partial_seconds
            if first_partial_seconds is not None
            else time.perf_counter() - started,
            6,
        )
        profile["totalSeconds"] = round(time.perf_counter() - started, 6)
        profile["cacheHit"] = bool(cache_info.get("hit"))
        return profile

"""Per-client session state over one shared cluster (§5.2, §5.7).

Each connected client gets a :class:`Session`: a session-scoped
:class:`~repro.engine.web.WebServer` facade (its own remote-handle
namespace), per-session metrics, and the set of in-flight scheduler tasks
(so an explicit ``cancel`` RPC can find its target even before the web
layer registered a token).

All session state is *soft*, exactly like the rest of the system: a
handle holds its dataset or the redo-log chain that rebuilds it (§5.7),
and the :class:`SessionManager` drops sessions idle past the expiry TTL.
Dataset ids are content-addressed, so a thousand users browsing the
flights dataset hold a thousand handle namespaces over one set of cluster
shards.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.engine.cluster import Cluster
from repro.engine.rpc import ProtocolError, RpcReply
from repro.engine.web import WebServer
from repro.obs.logs import log_event
from repro.service.session_store import SessionRecord, SessionStore
from repro.storage.loader import SOURCES, DataSource, source_for_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.scheduler import QueryTask


def source_from_json(
    spec: dict, default: DataSource | None = None
) -> DataSource:
    """Resolve a wire-level source spec into a :class:`DataSource`.

    ``{}`` or ``{"kind": "default"}`` selects the server's configured
    default dataset; ``{"kind": "path", ...}`` opens a file by
    extension.  Every other kind (``flights``, ``csv``, ``jsonl``,
    ``syslog``, ``sql``, ``hvc``) goes through the codec the root uses to
    describe sources to worker processes — what a client loads is
    exactly what a worker can replay (§5.7).
    """
    kind = spec.get("kind", "default")
    if kind == "default":
        if default is None:
            raise ProtocolError("this server has no default dataset")
        return default
    if kind == "path":
        return source_for_path(str(spec["path"]), sql_table=spec.get("sqlTable"))
    return SOURCES.from_json(spec)


@dataclass
class SessionMetrics:
    """Counters for one session (feeds the ``stats`` RPC)."""

    queries: int = 0
    sketches: int = 0
    replies_sent: int = 0
    partials_sent: int = 0
    completed: int = 0
    cancelled: int = 0
    preempted: int = 0
    errors: int = 0
    #: Sketches answered whole from the root's computation cache (§5.4).
    cache_hits: int = 0
    #: Worker partials served from worker-side memo caches, summed over
    #: this session's sketches (the multi-tier story's worker tier).
    worker_cache_hits: int = 0

    def to_json(self) -> dict:
        return {key: getattr(self, attr) for attr, key in _METRIC_KEYS}

    @classmethod
    def from_json(cls, data: object) -> "SessionMetrics":
        """Rebuild counters from a persisted record; tolerant — garbage
        or missing fields restore as zeros (telemetry must never fail a
        session resume)."""
        metrics = cls()
        if not isinstance(data, dict):
            return metrics
        for attr, key in _METRIC_KEYS:
            try:
                setattr(metrics, attr, int(data.get(key, 0) or 0))
            except (TypeError, ValueError):
                pass
        return metrics

    def merge(self, other: "SessionMetrics") -> None:
        """Fold another session's counters into this one (the server's
        lifetime totals on session close/expiry)."""
        for attr, _ in _METRIC_KEYS:
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))


#: (attribute, wire key) pairs — one list drives to_json/from_json/merge.
_METRIC_KEYS = [
    ("queries", "queries"),
    ("sketches", "sketches"),
    ("replies_sent", "repliesSent"),
    ("partials_sent", "partialsSent"),
    ("completed", "completed"),
    ("cancelled", "cancelled"),
    ("preempted", "preempted"),
    ("errors", "errors"),
    ("cache_hits", "cacheHits"),
    ("worker_cache_hits", "workerCacheHits"),
]


class Session:
    """One client's soft state: handle namespace, metrics, in-flight tasks."""

    def __init__(
        self,
        session_id: str,
        cluster: Cluster,
        source_resolver: Callable[[dict], DataSource],
        clock: Callable[[], float] = time.monotonic,
    ):
        self.session_id = session_id
        self.web = WebServer(
            cluster, session_id=session_id, source_resolver=source_resolver
        )
        self.metrics = SessionMetrics()
        self._clock = clock
        self.created_at = clock()
        self.created_wall = time.time()
        self.last_active = clock()
        self._tasks: dict[int, "QueryTask"] = {}
        self._lock = threading.Lock()
        #: What this root last wrote to the shared store: the record's
        #: wall-clock stamp and the local activity mark it described.
        #: A stored record *newer* than ``_persisted_wall`` was written
        #: by another root — it is not ours to delete on expiry.
        self._persisted_wall = 0.0
        self._persisted_activity = self.last_active

    # -- liveness ------------------------------------------------------
    def touch(self) -> None:
        self.last_active = self._clock()

    def idle_seconds(self) -> float:
        return self._clock() - self.last_active

    @property
    def active(self) -> bool:
        """Whether any query is queued or running for this session."""
        with self._lock:
            return bool(self._tasks)

    # -- scheduler bookkeeping -----------------------------------------
    def register_task(self, task: "QueryTask") -> None:
        with self._lock:
            self._tasks[task.request.request_id] = task
        self.metrics.queries += 1
        if task.request.method == "sketch":
            self.metrics.sketches += 1

    def finish_task(self, task: "QueryTask") -> None:
        with self._lock:
            current = self._tasks.get(task.request.request_id)
            if current is task:
                del self._tasks[task.request.request_id]

    def cancel_request(self, request_id: int) -> bool:
        """Cancel one request, whether queued, running, or web-registered."""
        with self._lock:
            task = self._tasks.get(request_id)
        if task is not None:
            task.token.cancel()
            return True
        return self.web.cancel(request_id)

    def cancel_all(self) -> int:
        with self._lock:
            tasks = list(self._tasks.values())
        for task in tasks:
            task.token.cancel()
        return len(tasks)

    # -- metrics -------------------------------------------------------
    def record_reply(self, reply: RpcReply) -> None:
        self.metrics.replies_sent += 1
        if reply.kind == "partial":
            self.metrics.partials_sent += 1
        elif reply.kind in ("complete", "ack"):
            self.metrics.completed += 1
        elif reply.kind == "cancelled":
            self.metrics.cancelled += 1
        elif reply.kind == "error":
            self.metrics.errors += 1
        if isinstance(reply.cache, dict):
            if reply.cache.get("hit"):
                self.metrics.cache_hits += 1
            self.metrics.worker_cache_hits += int(
                reply.cache.get("workerHits", 0) or 0
            )

    # -- soft state ----------------------------------------------------
    def snapshot_record(self) -> SessionRecord:
        """This session's durable description for a shared store (§5.2)."""
        return SessionRecord(
            session_id=self.session_id,
            created_at=self.created_wall,
            last_active=time.time(),
            counter=self.web._counter,
            handles=self.web.export_lineage(),
            metrics=self.metrics.to_json(),
        )

    def to_json(self) -> dict:
        return {
            "session": self.session_id,
            "handles": len(self.web.handles),
            "idleSeconds": round(self.idle_seconds(), 3),
            "metrics": self.metrics.to_json(),
        }

    def __repr__(self) -> str:
        return (
            f"<Session {self.session_id} handles={len(self.web.handles)} "
            f"idle={self.idle_seconds():.1f}s>"
        )


class SessionManager:
    """Creates, resolves, expires, and closes sessions over one cluster.

    ``store``, when given, is the shared session store of a multi-root
    tier: every handle mint persists the session's redo-log chains, and a
    session id unknown locally but present in the store is *resumed* —
    its chains restored, its handles rebuilt lazily by §5.7 replay — so
    a client can reconnect to any root of the tier.

    Every callable in ``close_listeners`` (seeded with ``on_close``) is
    invoked with the session id whenever a session is closed or expired,
    however that happens; the service layer lists the scheduler's
    ``forget_session`` and the gateway its stream ledger's, so
    TTL-expired sessions release that state exactly like explicitly
    closed ones.
    """

    def __init__(
        self,
        cluster: Cluster | None = None,
        expire_ttl_seconds: float = 3600.0,
        default_source: DataSource | None = None,
        clock: Callable[[], float] = time.monotonic,
        store: SessionStore | None = None,
        store_ttl_seconds: float | None = None,
        on_close: Callable[[str], None] | None = None,
    ):
        self.cluster = cluster if cluster is not None else Cluster()
        #: Idle time after which the session object itself is dropped (the
        #: client can no longer resume by id).  Without this, a long-lived
        #: server accumulates one Session per connection forever.
        self.expire_ttl_seconds = expire_ttl_seconds
        self.default_source = default_source
        self.store = store
        #: Tier-wide compaction: records whose wall-clock ``last_active``
        #: is older than this are purged from the shared store by the
        #: sweep loop, so an abandoned tier database stops growing
        #: forever.  ``None`` disables compaction (single-root default).
        self.store_ttl_seconds = store_ttl_seconds
        self.close_listeners = [on_close] if on_close is not None else []
        self._clock = clock
        self._sessions: dict[str, Session] = {}
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self.sessions_created = 0
        self.sessions_resumed = 0
        self.sessions_expired = 0
        self.store_errors = 0
        self.store_records_purged = 0
        #: Server-lifetime totals: every closed or expired session's
        #: counters fold in here, so ``stats``/``metricsSnapshot`` keep
        #: reporting work done by sessions that no longer exist.
        self.lifetime = SessionMetrics()
        #: Sentinel "never": the first sweep after startup always purges.
        self._last_store_purge = -float("inf")
        #: How often (wall-clock) an *active* session's store record is
        #: refreshed by the sweep loop, so sibling roots can tell a live
        #: session from an abandoned one at expiry time.
        self.store_refresh_seconds = min(300.0, self.expire_ttl_seconds / 4)

    def _resolve_source(self, spec: dict) -> DataSource:
        return source_from_json(spec, default=self.default_source)

    # -- lifecycle -----------------------------------------------------
    def _create_locked(self, session_id: str | None) -> Session:
        """Mint and register a session; the manager lock must be held."""
        if session_id is None:
            session_id = f"sess-{next(self._counter)}"
        if session_id in self._sessions:
            raise ProtocolError(f"session {session_id!r} already exists")
        session = Session(
            session_id, self.cluster, self._resolve_source, clock=self._clock
        )
        session.web.on_lineage_change = lambda: self._persist(session)
        self._sessions[session_id] = session
        self.sessions_created += 1
        log_event("session.create", session=session_id)
        return session

    def _persist(self, session: Session) -> None:
        """Write one session's handles to the shared store.

        A store outage must degrade to single-root behavior (the session
        keeps working where it is), never fail the query that minted the
        handle."""
        if self.store is None:
            return
        record = session.snapshot_record()
        try:
            self.store.put(record)
        except Exception:  # repro: ignore[B001] — see docstring
            self.store_errors += 1
            return
        session._persisted_wall = record.last_active
        session._persisted_activity = session.last_active

    def create(self, session_id: str | None = None) -> Session:
        with self._lock:
            session = self._create_locked(session_id)
        self._persist(session)
        return session

    def persist_all(self) -> int:
        """Write every live session's handles to the shared store
        *now* (maintenance drain: reconnecting clients must resume on
        sibling roots with fresh state).  Returns how many records were
        written; without a store there is nothing to do."""
        if self.store is None:
            return 0
        persisted = 0
        for session in self.sessions:
            errors_before = self.store_errors
            self._persist(session)
            if self.store_errors == errors_before:
                persisted += 1
        return persisted

    def get(self, session_id: str) -> Session | None:
        with self._lock:
            return self._sessions.get(session_id)

    def get_or_create(self, session_id: str | None = None) -> Session:
        """Resume a session by id — locally, or from the shared store —
        or mint a new one.  Atomic under the manager lock: two
        connections racing to resume the same id both get the same
        session instead of one of them being told it "already exists".

        The store read happens *outside* the lock (SQLite can block on a
        busy tier database; the manager lock gates every connection on
        this root), with the local table re-checked afterwards — a racer
        that created the session in the meantime wins and is reused."""
        if session_id is None:
            with self._lock:
                session = self._create_locked(None)
            self._persist(session)
            return session
        with self._lock:
            existing = self._sessions.get(session_id)
            if existing is not None:
                existing.touch()
                return existing
        record: SessionRecord | None = None
        if self.store is not None:
            try:
                record = self.store.get(session_id)
            except Exception:  # repro: ignore[B001] — store outage
                self.store_errors += 1
        with self._lock:
            existing = self._sessions.get(session_id)
            if existing is not None:  # a racer resumed it while we read
                existing.touch()
                return existing
            session = self._create_locked(session_id)
            if record is not None:
                # Another root minted these handles; restore their
                # chains only — datasets rebuild lazily (§5.7).
                restored = session.web.restore_lineage(
                    record.handles, record.counter
                )
                session.created_wall = record.created_at
                # Counters roam with the session: a client that
                # reconnects through another root keeps its history.
                session.metrics = SessionMetrics.from_json(record.metrics)
                self.sessions_resumed += 1
                log_event(
                    "session.resume",
                    session=session_id,
                    handles=restored,
                )
        if record is not None:
            # Each handle record that did not decode was skipped.
            self.store_errors += len(record.handles) - restored
        self._persist(session)
        return session

    def close(self, session_id: str) -> bool:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            return False
        self._teardown(session)
        return True

    def _teardown(self, session: Session, expired: bool = False) -> None:
        """Release everything a dropped session holds, everywhere: local
        tasks and handles, the scheduler's per-session state (via
        ``close_listeners``), and the shared store's record.

        On *expiry* the store delete is conditional: a record newer than
        what this root last wrote means another root of the tier has
        been serving the session since — this root only expires its own
        stale copy and must leave the tier-wide resume state alone.  An
        explicit close is an instruction, not a timeout, and deletes
        unconditionally."""
        session.cancel_all()
        # The last session holding a dataset frees its worker shards.
        session.web.close()
        # However a session ends, its counters fold into the server's
        # lifetime totals — the work it did stays visible to stats and
        # metricsSnapshot after the session object is gone.
        self.lifetime.merge(session.metrics)
        log_event(
            "session.close",
            session=session.session_id,
            expired=expired,
            queries=session.metrics.queries,
        )
        for listener in list(self.close_listeners):
            listener(session.session_id)
        if self.store is None:
            return
        try:
            if expired:
                record = self.store.get(session.session_id)
                if (
                    record is not None
                    and record.last_active > session._persisted_wall + 1e-6
                ):
                    return  # another root owns the session now
            self.store.delete(session.session_id)
        except Exception:  # repro: ignore[B001] — store outage
            self.store_errors += 1

    # -- store sweep ---------------------------------------------------
    def sweep(self) -> None:
        """Refresh the store record of every session active since its last
        write, then compact the store: sibling roots read the stamp to
        decide whether an expiring session is abandoned or merely being
        served elsewhere."""
        if self.store is not None:
            with self._lock:
                live = [
                    s
                    for s in self._sessions.values()
                    if s.last_active > s._persisted_activity
                    and time.time() - s._persisted_wall
                    > self.store_refresh_seconds
                ]
            for session in live:
                self._persist(session)
        self.purge_store()

    def purge_store(self) -> int:
        """Compact the shared session store: drop records idle past the
        store TTL (tier-wide, so one root's sweep cleans up sessions
        abandoned on any root).  Throttled to the store refresh cadence;
        a store outage degrades silently, like every other store path."""
        if self.store is None or self.store_ttl_seconds is None:
            return 0
        now = self._clock()
        if now - self._last_store_purge < self.store_refresh_seconds:
            return 0
        self._last_store_purge = now
        # The effective TTL is clamped twice over: (a) an active
        # session's record is only re-stamped every store_refresh_seconds,
        # so anything below twice that cadence would purge *live*
        # sessions between refreshes; (b) an idle-but-unexpired session
        # (still resumable on its root) is never re-stamped at all, so
        # the store record must outlive in-memory expiry — purging below
        # expire_ttl_seconds would silently break cross-root resume.
        ttl = max(
            self.store_ttl_seconds,
            self.expire_ttl_seconds,
            2 * self.store_refresh_seconds,
        )
        try:
            purged = self.store.purge_expired(ttl)
        except Exception:  # repro: ignore[B001] — store outage
            self.store_errors += 1
            return 0
        self.store_records_purged += purged
        return purged

    def expire(self) -> list[str]:
        """Drop sessions idle past the expiry TTL entirely; their
        scheduler state is released through ``close_listeners``.  An expired
        session cannot be resumed — reconnecting clients start fresh."""
        with self._lock:
            candidates = [
                s.session_id
                for s in self._sessions.values()
                if s.idle_seconds() > self.expire_ttl_seconds and not s.active
            ]
        expired = []
        for session_id in candidates:
            with self._lock:
                session = self._sessions.get(session_id)
                if (
                    session is None
                    or session.active
                    or session.idle_seconds() <= self.expire_ttl_seconds
                ):
                    # Became active (or was touched/closed) between the
                    # snapshot and now: tearing it down would cancel a
                    # legitimately admitted query.
                    continue
                del self._sessions[session_id]
            self._teardown(session, expired=True)
            self.sessions_expired += 1
            expired.append(session_id)
        return expired

    # -- introspection -------------------------------------------------
    @property
    def sessions(self) -> list[Session]:
        with self._lock:
            return list(self._sessions.values())

    def to_json(self) -> dict:
        return {
            "sessionsCreated": self.sessions_created,
            "sessionsResumed": self.sessions_resumed,
            "sessionsExpired": self.sessions_expired,
            "storeErrors": self.store_errors,
            "storeRecordsPurged": self.store_records_purged,
            "lifetime": self.lifetime.to_json(),
            "sessions": [s.to_json() for s in self.sessions],
        }

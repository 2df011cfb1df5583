"""The root: sessions, the scheduler and the operational plane.

Hillview's browser talks to the root's web server over one socket
carrying JSON messages (§6).  Here that socket is the gateway
(:mod:`repro.gateway`, HTTP + WebSocket); this module is what it
serves.  :class:`ServiceServer` couples the :class:`SessionManager`
(per-client soft state), the :class:`FairShareScheduler` (bounded
concurrency, round-robin across sessions, newest-query-wins) and the
cluster, and answers the sessionless administrative requests (drain,
stats, metrics, traces).  It opens no socket of its own.
"""

from __future__ import annotations

import threading

from repro.engine.cluster import Cluster
from repro.errors import HillviewError
from repro.obs.logs import log_event
from repro.obs.metrics import REGISTRY
from repro.obs.trace import RECORDER
from repro.service import slow  # noqa: F401 — registers the "slow" sketch type
from repro.service.scheduler import FairShareScheduler
from repro.service.session_store import SessionStore
from repro.service.sessions import Session, SessionManager
from repro.storage.loader import DataSource


class DrainingError(HillviewError):
    """This root refuses new sessions; the gateway renders the refusal."""

    code = "draining"


class ServiceServer:
    """The root's core: sessions + scheduler + cluster, behind the gateway."""

    def __init__(
        self,
        cluster: Cluster | None = None,
        max_concurrent: int = 4,
        max_queue_per_session: int = 32,
        expire_ttl_seconds: float = 3600.0,
        sweep_interval_seconds: float = 1.0,
        default_source: DataSource | None = None,
        session_store: "SessionStore | None" = None,
        session_store_ttl_seconds: float | None = None,
    ):
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
        #: Maintenance drain (tier operations): a draining root refuses
        #: *new* sessions — existing ones keep working and roam to other
        #: roots via the shared store — so it can be removed from the
        #: tier without dropping users.
        self.draining = False
        self.hellos_refused = 0
        self._closed = threading.Event()
        self._sweeper: threading.Thread | None = None
        self._sweeper_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------
    def start_background(self) -> None:
        """Start the root's one sweep thread (idempotent; every gateway
        over this root calls it when it starts)."""
        with self._sweeper_lock:
            if self._sweeper is not None or self._closed.is_set():
                return
            # repro: ignore[C002] — root-lifetime session/cache sweep; no query context exists to carry
            self._sweeper = threading.Thread(
                target=self._sweep_loop, name="service-sweep", daemon=True
            )
            self._sweeper.start()

    def _sweep_loop(self) -> None:
        while not self._closed.wait(self.sweep_interval_seconds):
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
        """Stop the sweep and the scheduler's worker pool."""
        self._closed.set()
        with self._sweeper_lock:
            sweeper, self._sweeper = self._sweeper, None
        if sweeper is not None:
            sweeper.join(timeout=10.0)
        self.scheduler.shutdown()

    # -- admission -------------------------------------------------------
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
            "scheduler": self.scheduler.metrics.to_json(),
            "sessions": self.sessions.to_json(),
            "cluster": {
                "workers": len(self.cluster.workers),
                "bytesToRoot": self.cluster.total_bytes_to_root,
            },
        }

    def metrics_snapshot(self, fmt: str | None = None) -> dict:
        """The unified metrics plane — the ``GET /api/v1/metrics``
        body: :meth:`stats` with its cluster entry widened to the
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
        worker daemon's ring buffer — the ``GET /api/v1/traces`` body.
        In-process workers share the root's recorder, so the cluster
        contributes only remote daemons' spans (no duplicates)."""
        spans = RECORDER.spans(trace_id)
        spans.extend(self.cluster.trace_dump(trace_id))
        return {"type": "traceDump", "spans": spans}

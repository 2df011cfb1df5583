"""Shared session stores: resume a session id on *any* root (§5.2, §5.7).

Hillview's web server is stateless — everything a session holds is soft
and rebuildable from lineage.  That makes a multi-root service tier
almost free: the only thing a second root needs to resume someone else's
session is which handles the session minted and the redo-log chain of
each — a load from a source spec followed by declarative table maps.
This module stores exactly that:

* :class:`SessionRecord` — one session's durable description: id,
  timestamps, handle counter high-water mark, and the ``{handle,
  lineage}`` records the :class:`~repro.engine.web.WebServer` facade
  exports, each chain encoded with the worker wire's lineage codec;
* :class:`InMemorySessionStore` — the single-root default (and the
  fixture for tests): a dict behind a lock;
* :class:`SqliteSessionStore` — a file-backed store several roots point
  at (``repro serve --session-store sessions.db``); SQLite's own locking
  makes concurrent roots safe.

No dataset bytes are ever stored.  Resuming replays nothing eagerly:
the restored facade holds chains only, and the first request on each
handle rebuilds it through the normal §5.7 path — exactly how an
evicted handle comes back on its original root.  A record that does not
decode (another format, an unknown source kind) is skipped: the store
holds soft state.
"""

from __future__ import annotations

import json
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.errors import HillviewError


class SessionStoreError(HillviewError):
    """A session store failure (corrupt record, unusable backing file)."""

    code = "session_store"


@dataclass
class SessionRecord:
    """One session's durable soft-state description."""

    session_id: str
    created_at: float
    last_active: float
    counter: int = 0
    #: Handle records in mint order, each
    #: ``{"handle": h, "lineage": <lineage json>}`` — the handle's
    #: redo-log chain in the worker wire's lineage encoding.
    handles: list = field(default_factory=list)
    #: The session's metric counters at persist time, so a session that
    #: roams to another root carries its query/cache-hit history along.
    metrics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "session": self.session_id,
            "createdAt": self.created_at,
            "lastActive": self.last_active,
            "counter": self.counter,
            "handles": self.handles,
            "metrics": self.metrics,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SessionRecord":
        try:
            metrics = data.get("metrics")
            return cls(
                session_id=str(data["session"]),
                created_at=float(data["createdAt"]),
                last_active=float(data["lastActive"]),
                counter=int(data.get("counter", 0)),
                handles=list(data.get("handles", [])),
                metrics=dict(metrics) if isinstance(metrics, dict) else {},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SessionStoreError(f"corrupt session record: {exc}") from exc


class SessionStore(ABC):
    """Where session records live; shared by every root of one tier."""

    @abstractmethod
    def put(self, record: SessionRecord) -> None:
        """Insert or replace one session's record."""

    @abstractmethod
    def get(self, session_id: str) -> SessionRecord | None:
        """The record for ``session_id``, or None."""

    @abstractmethod
    def delete(self, session_id: str) -> bool:
        """Drop one session's record; returns whether it existed."""

    @abstractmethod
    def list_ids(self) -> list[str]:
        """Every stored session id (monitoring, tests)."""

    def purge_expired(self, ttl_seconds: float) -> int:
        """Drop records idle (wall clock) past ``ttl_seconds``.

        Tier-wide compaction: any root's sweep may call this, cleaning up
        sessions abandoned on *every* root — without it a long-lived tier
        database grows one record per session id forever.  Returns how
        many records were dropped.
        """
        return 0

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release backing resources, if any."""


class InMemorySessionStore(SessionStore):
    """The single-root default: records shared only within this process."""

    def __init__(self) -> None:
        self._records: dict[str, SessionRecord] = {}
        self._lock = threading.Lock()

    def put(self, record: SessionRecord) -> None:
        with self._lock:
            self._records[record.session_id] = record

    def get(self, session_id: str) -> SessionRecord | None:
        with self._lock:
            return self._records.get(session_id)

    def delete(self, session_id: str) -> bool:
        with self._lock:
            return self._records.pop(session_id, None) is not None

    def list_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._records)

    def purge_expired(self, ttl_seconds: float) -> int:
        cutoff = time.time() - ttl_seconds
        with self._lock:
            stale = [
                session_id
                for session_id, record in self._records.items()
                if record.last_active < cutoff
            ]
            for session_id in stale:
                del self._records[session_id]
            return len(stale)


class SqliteSessionStore(SessionStore):
    """A file-backed store that N roots of one tier share.

    One row per session; the record travels as JSON so the schema never
    chases the record shape.  Writes are last-writer-wins per session,
    which matches the tier's affinity model: a session is *served* by one
    root at a time (the director pins it), the store is how it migrates.
    """

    def __init__(self, path: str):
        import sqlite3

        self.path = path
        self._lock = threading.Lock()
        try:
            self._conn = sqlite3.connect(
                path, check_same_thread=False, timeout=10.0
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS sessions ("
                "  session_id TEXT PRIMARY KEY,"
                "  record TEXT NOT NULL,"
                "  updated_at REAL NOT NULL"
                ")"
            )
            # Compaction (purge_expired) filters on updated_at from every
            # root's sweep loop; without this index each purge would scan
            # the whole tier database under SQLite's write lock.
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS sessions_updated_at "
                "ON sessions(updated_at)"
            )
            self._conn.commit()
        except sqlite3.Error as exc:
            raise SessionStoreError(
                f"cannot open session store {path!r}: {exc}"
            ) from exc

    def put(self, record: SessionRecord) -> None:
        payload = json.dumps(record.to_json())
        with self._lock:
            self._conn.execute(
                "INSERT INTO sessions (session_id, record, updated_at) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT(session_id) DO UPDATE SET "
                "  record = excluded.record, updated_at = excluded.updated_at",
                (record.session_id, payload, time.time()),
            )
            self._conn.commit()

    def get(self, session_id: str) -> SessionRecord | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT record FROM sessions WHERE session_id = ?",
                (session_id,),
            ).fetchone()
        if row is None:
            return None
        try:
            return SessionRecord.from_json(json.loads(row[0]))
        except (ValueError, SessionStoreError):
            # A corrupt row must not brick reconnects: drop it and let the
            # client start fresh (all session state is soft anyway).
            self.delete(session_id)
            return None

    def delete(self, session_id: str) -> bool:
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM sessions WHERE session_id = ?", (session_id,)
            )
            self._conn.commit()
            return cursor.rowcount > 0

    def list_ids(self) -> list[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT session_id FROM sessions ORDER BY session_id"
            ).fetchall()
        return [row[0] for row in rows]

    def purge_expired(self, ttl_seconds: float) -> int:
        # ``updated_at`` is stamped by put() on every handle mint and
        # activity refresh, so it tracks the record's last_active closely;
        # the sessions_updated_at index keeps this DELETE off a full scan.
        cutoff = time.time() - ttl_seconds
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM sessions WHERE updated_at < ?", (cutoff,)
            )
            self._conn.commit()
            return cursor.rowcount

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def open_session_store(spec: str | None) -> SessionStore:
    """Resolve the ``--session-store`` CLI argument.

    ``None`` or ``"memory"`` selects the in-process store; anything else
    is a SQLite file path shared by every root pointed at it.
    """
    if spec is None or spec == "memory":
        return InMemorySessionStore()
    return SqliteSessionStore(spec)

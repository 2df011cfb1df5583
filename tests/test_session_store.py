"""Shared session stores: resume a session id on any root of the tier."""

from __future__ import annotations

import json
import time

import pytest

from repro.data.flights import FlightsSource
from repro.engine.cluster import Cluster
from repro.engine.redo_log import LoadOp
from repro.engine.rpc import RpcRequest, lineage_to_json
from repro.service import (
    InMemorySessionStore,
    SessionManager,
    SessionRecord,
    SqliteSessionStore,
)
from repro.storage.loader import TableSource
from repro.table.table import Table
from tests.conftest import count_verb_calls

#: Serializable-by-description, so its recipe can cross roots (§5.7).
SOURCE = FlightsSource(2_000, partitions=8, seed=7)

HIST = {
    "type": "histogram",
    "column": "Distance",
    "buckets": {"type": "double", "min": 0, "max": 3000, "count": 9},
}

FAR = {
    "predicate": {
        "type": "column",
        "column": "Distance",
        "op": ">",
        "value": 500.0,
    }
}


def execute(session, request_id, target, method, args=None):
    replies = list(
        session.web.execute(RpcRequest(request_id, target, method, args or {}))
    )
    terminal = replies[-1]
    assert terminal.kind in ("ack", "complete"), terminal.error
    return terminal


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        yield InMemorySessionStore()
    else:
        backed = SqliteSessionStore(str(tmp_path / "sessions.db"))
        yield backed
        backed.close()


def manager_over_fresh_cluster(store) -> SessionManager:
    """One root of the tier: its own cluster, the shared store."""
    return SessionManager(
        Cluster(num_workers=2, cores_per_worker=2), store=store
    )


class TestStores:
    def test_record_round_trip(self, store):
        record = SessionRecord(
            session_id="alpha",
            created_at=123.0,
            last_active=456.0,
            counter=7,
            handles=[
                {"handle": "obj-1", "lineage": lineage_to_json([LoadOp("ds-1", SOURCE)])}
            ],
        )
        store.put(record)
        back = store.get("alpha")
        assert back is not None
        assert back.to_json() == record.to_json()
        assert store.list_ids() == ["alpha"]
        assert store.delete("alpha") is True
        assert store.get("alpha") is None
        assert store.delete("alpha") is False

    def test_put_replaces(self, store):
        store.put(SessionRecord("s", 1.0, 1.0, counter=1))
        store.put(SessionRecord("s", 1.0, 2.0, counter=9))
        assert store.get("s").counter == 9
        assert store.list_ids() == ["s"]


class TestSqliteStore:
    def test_two_handles_share_one_file(self, tmp_path):
        """Two roots pointing at the same path see each other's writes."""
        path = str(tmp_path / "tier.db")
        root_a, root_b = SqliteSessionStore(path), SqliteSessionStore(path)
        try:
            root_a.put(SessionRecord("roam", 1.0, 1.0))
            assert root_b.get("roam") is not None
            assert root_b.delete("roam") is True
            assert root_a.get("roam") is None
        finally:
            root_a.close()
            root_b.close()

    def test_corrupt_record_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "corrupt.db")
        store = SqliteSessionStore(path)
        try:
            store._conn.execute(
                "INSERT INTO sessions VALUES (?, ?, ?)", ("bad", "{not json", 0.0)
            )
            store._conn.commit()
            assert store.get("bad") is None  # dropped, client starts fresh
            assert store.list_ids() == []
        finally:
            store.close()


class TestResumeOnAnotherRoot:
    def test_session_resumes_with_handles_rebuilt_by_lineage(self, store):
        """The tier's core promise: a session created on root A — load,
        filter, derive — resumes by id on root B (its own cluster, the
        shared store) and answers byte-identically, every handle rebuilt
        by §5.7 replay."""
        root_a = manager_over_fresh_cluster(store)
        session_a = root_a.get_or_create("laptop")
        root_handle = session_a.web.load(SOURCE)
        derived = execute(session_a, 1, root_handle, "filter", FAR).payload["handle"]
        reference = execute(
            session_a, 2, derived, "sketch", {"sketch": HIST}
        ).payload

        root_b = manager_over_fresh_cluster(store)
        session_b = root_b.get_or_create("laptop")
        assert session_b is not session_a
        assert root_b.sessions_resumed == 1
        # Both handles resolve on the new root, through lazy rebuild.
        assert set(session_b.web.handles) >= {root_handle, derived}
        resumed = execute(
            session_b, 3, derived, "sketch", {"sketch": HIST}
        ).payload
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_resumed_session_mints_non_colliding_handles(self, store):
        root_a = manager_over_fresh_cluster(store)
        session_a = root_a.get_or_create("minty")
        handle = session_a.web.load(SOURCE)

        root_b = manager_over_fresh_cluster(store)
        session_b = root_b.get_or_create("minty")
        fresh = session_b.web.load(FlightsSource(1_000, partitions=4, seed=9))
        assert fresh != handle

    def test_unknown_id_is_minted_not_resumed(self, store):
        root = manager_over_fresh_cluster(store)
        session = root.get_or_create("brand-new")
        assert session.web.handles == []
        assert root.sessions_resumed == 0

    def test_close_and_expiry_delete_the_record(self, store):
        class FakeClock:
            t = 1000.0

            def now(self):
                return self.t

        clock = FakeClock()
        root = SessionManager(
            Cluster(num_workers=1, cores_per_worker=1),
            expire_ttl_seconds=20.0,
            clock=clock.now,
            store=store,
        )
        session = root.get_or_create("doomed")
        session.web.load(SOURCE)
        assert store.get("doomed") is not None
        clock.t += 21.0
        assert root.expire() == ["doomed"]
        assert store.get("doomed") is None, "expired session must not resume"

        root.get_or_create("leaver").web.load(SOURCE)
        assert store.get("leaver") is not None
        assert root.close("leaver") is True
        assert store.get("leaver") is None

    def test_expiry_on_one_root_spares_a_session_live_elsewhere(self, store):
        """Root A expiring its stale local copy must not delete the store
        record another root has refreshed since — only the root that
        wrote the record last may expire it tier-wide."""

        class FakeClock:
            t = 1000.0

            def now(self):
                return self.t

        clock_a, clock_b = FakeClock(), FakeClock()
        root_a = SessionManager(
            Cluster(num_workers=1, cores_per_worker=1),
            expire_ttl_seconds=20.0,
            clock=clock_a.now,
            store=store,
        )
        root_b = SessionManager(
            Cluster(num_workers=1, cores_per_worker=1),
            expire_ttl_seconds=20.0,
            clock=clock_b.now,
            store=store,
        )
        root_a.get_or_create("roamer").web.load(SOURCE)
        # The client moves to root B, which refreshes the record (mint).
        root_b.get_or_create("roamer").web.load(
            FlightsSource(1_000, partitions=4, seed=3)
        )
        clock_a.t += 21.0
        assert root_a.expire() == ["roamer"]
        assert store.get("roamer") is not None, (
            "root A deleted a record root B had refreshed"
        )
        # Root B wrote last, so its expiry retires the session tier-wide.
        clock_b.t += 21.0
        assert root_b.expire() == ["roamer"]
        assert store.get("roamer") is None

    def test_unserializable_handles_are_skipped_not_fatal(self, store):
        """An in-memory TableSource cannot cross roots; its handle (and
        descendants) are simply absent from the stored recipe book."""
        root_a = manager_over_fresh_cluster(store)
        session_a = root_a.get_or_create("mixed")
        local_only = session_a.web.load(
            TableSource([Table.from_pydict({"x": [1.0, 2.0]})])
        )
        portable = session_a.web.load(SOURCE)

        root_b = manager_over_fresh_cluster(store)
        session_b = root_b.get_or_create("mixed")
        assert portable in session_b.web.handles
        assert local_only not in session_b.web.handles

    def test_one_recipe_book_across_roots(self, store):
        """A record holds each handle's redo-log chain: root B rebuilds
        every handle root A minted by repeating the calls that minted it
        — one ``ensure`` per chain op on each worker — and answers with
        root A's bytes.  A handle over in-memory tables is left out."""
        root_a = manager_over_fresh_cluster(store)
        session_a = root_a.get_or_create("book")
        local_only = session_a.web.load(
            TableSource([Table.from_pydict({"x": [1.0, 2.0]})])
        )
        loaded = session_a.web.load(SOURCE)
        filtered = execute(session_a, 1, loaded, "filter", FAR).payload["handle"]
        derived = execute(
            session_a,
            2,
            filtered,
            "derive",
            {"name": "Half", "expression": "Distance / 2"},
        ).payload["handle"]
        minted = [loaded, filtered, derived]

        def answers(session, handle):
            rows = execute(session, 3, handle, "rowCount").payload
            hist = execute(session, 4, handle, "sketch", {"sketch": HIST}).payload
            return rows, json.dumps(hist, sort_keys=True)

        reference = {h: answers(session_a, h) for h in minted}
        record = store.get("book")
        assert [r["handle"] for r in record.handles] == minted
        assert all(set(r) == {"handle", "lineage"} for r in record.handles)

        root_b = manager_over_fresh_cluster(store)
        calls = [count_verb_calls(w) for w in root_b.cluster.workers]
        session_b = root_b.get_or_create("book")
        assert local_only not in session_b.web.handles
        assert set(minted) <= set(session_b.web.handles)
        first = execute(session_b, 5, derived, "rowCount").payload
        assert [c["ensure"] for c in calls] == [3, 3]  # load, filter, derive
        assert first == reference[derived][0]
        for handle in minted:
            assert answers(session_b, handle) == reference[handle]


class TestUndecodableRecords:
    def test_bad_handle_record_is_skipped_and_counters_survive(self):
        """One handle record that does not decode must not fail the
        resume: the other handles restore, the handle counter keeps its
        high-water mark, and the next persist keeps the counters."""
        store = InMemorySessionStore()
        good = lineage_to_json([LoadOp("ds-1", SOURCE)])
        bad = json.loads(json.dumps(good))
        bad[0]["source"] = {"kind": "nosuchkind"}
        store.put(
            SessionRecord(
                "mixed",
                1.0,
                time.time(),
                counter=2,
                handles=[
                    {"handle": "obj-1", "lineage": good},
                    {"handle": "obj-2", "lineage": bad},
                ],
                metrics={"queries": 5},
            )
        )
        root = manager_over_fresh_cluster(store)
        session = root.get_or_create("mixed")
        assert root.sessions_resumed == 1
        assert root.store_errors == 1
        assert execute(session, 1, "obj-1", "rowCount").payload == {"rows": 2_000}
        [reply] = list(session.web.execute(RpcRequest(2, "obj-2", "rowCount")))
        assert reply.code == "unknown_handle"
        assert session.web.load(SOURCE) == "obj-3"
        persisted = store.get("mixed")
        assert [r["handle"] for r in persisted.handles] == ["obj-1", "obj-3"]
        assert persisted.metrics["queries"] == 5
        assert root.get_or_create("mixed") is session

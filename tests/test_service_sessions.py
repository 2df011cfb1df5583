"""Session manager tests: soft state, eviction and rebuild, expiry,
shared datasets."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine.cluster import Cluster
from repro.engine.rpc import ProtocolError, RpcRequest
from repro.service import SessionManager, source_from_json
from repro.storage.loader import TableSource
from repro.table.table import Table
from tests.conftest import count_verb_calls


class FakeClock:
    def __init__(self) -> None:
        self.t = 1000.0

    def now(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture(scope="module")
def source() -> TableSource:
    rng = np.random.default_rng(5)
    table = Table.from_pydict({"x": rng.uniform(0, 10, 4_000).tolist()})
    return TableSource([table], shards_per_table=8)


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def manager(clock) -> SessionManager:
    return SessionManager(
        Cluster(num_workers=2, cores_per_worker=2),
        expire_ttl_seconds=240.0,
        clock=clock.now,
    )


def row_count(session, handle: str) -> int:
    [reply] = list(session.web.execute(RpcRequest(1, handle, "rowCount")))
    assert reply.kind == "complete", reply.error
    return reply.payload["rows"]


class TestLifecycle:
    def test_sessions_get_distinct_namespaces(self, manager, source):
        a = manager.get_or_create(None)
        b = manager.get_or_create(None)
        assert a.session_id != b.session_id
        ha = a.web.load(source)
        # b cannot see a's handle: namespaces are per-session.
        [reply] = list(b.web.execute(RpcRequest(1, ha, "rowCount")))
        assert reply.kind == "error"
        assert reply.code == "unknown_handle"

    def test_reattach_by_id_resumes_soft_state(self, manager, source):
        session = manager.get_or_create("laptop")
        handle = session.web.load(source)
        again = manager.get_or_create("laptop")
        assert again is session
        assert row_count(again, handle) == 4_000

    def test_duplicate_create_rejected(self, manager):
        manager.create("dup")
        with pytest.raises(ProtocolError, match="already exists"):
            manager.create("dup")

    def test_close_cancels_and_drops(self, manager, source):
        session = manager.get_or_create("gone")
        session.web.load(source)
        assert manager.close("gone") is True
        assert manager.get("gone") is None
        assert manager.close("gone") is False


def evict(session, handle: str) -> None:
    [reply] = list(session.web.execute(RpcRequest(1, handle, "evict")))
    assert reply.kind == "ack" and reply.payload == {"evicted": True}


class TestIdleSweep:
    def test_idle_session_handles_evicted_then_rebuilt(self, manager, source):
        session = manager.get_or_create("sleepy")
        handle = session.web.load(source)
        assert row_count(session, handle) == 4_000
        evict(session, handle)
        # The handle's dataset is gone but its redo-log chain is not...
        assert isinstance(session.web._handles[handle], list)
        assert handle in session.web.handles
        # ...so the next request transparently replays it (§5.7).
        assert row_count(session, handle) == 4_000

    def test_swept_root_handle_reattaches_to_pooled_dataset(
        self, manager, source
    ):
        """Rebuilding an evicted root handle lands on the same
        content-addressed cluster dataset with one ``ensure`` per worker.
        While another session's handle holds the dataset, each worker
        answers it from its store; the sole holder's evict freed it, so
        its rebuild reads the source again."""
        keeper = manager.get_or_create("keeper")
        kept = keeper.web.load(source)
        session = manager.get_or_create("pooled")
        handle = session.web.load(source)
        original_id = session.web.dataset(handle).dataset_id
        evict(session, handle)
        workers = manager.cluster.workers
        hits = [w.store.stats().hits for w in workers]
        calls = [count_verb_calls(w) for w in workers]
        assert session.web.dataset(handle).dataset_id == original_id
        assert [c["ensure"] for c in calls] == [1, 1]
        assert [w.store.stats().hits for w in workers] == [h + 1 for h in hits]
        # The sole holder: both handles evicted, the shards are gone.
        evict(session, handle)
        evict(keeper, kept)
        assert [original_id in w.inventory() for w in workers] == [False, False]
        hits = [w.store.stats().hits for w in workers]
        assert keeper.web.dataset(kept).dataset_id == original_id
        assert [c["ensure"] for c in calls] == [2, 2]
        assert [w.store.stats().hits for w in workers] == hits
        assert [original_id in w.inventory() for w in workers] == [True, True]
        assert row_count(keeper, kept) == 4_000

    def test_expired_sessions_are_dropped_entirely(self, manager, clock, source):
        session = manager.get_or_create("forgotten")
        session.web.load(source)
        keeper = manager.get_or_create("keeper")
        clock.advance(241.0)
        keeper.touch()
        assert manager.expire() == ["forgotten"]
        assert manager.get("forgotten") is None
        assert manager.get("keeper") is keeper
        assert manager.sessions_expired == 1
        # Reconnecting with the expired id starts a fresh session.
        fresh = manager.get_or_create("forgotten")
        assert fresh.web.handles == []

    def test_derived_handles_survive_sweep_via_lineage(self, manager, source):
        session = manager.get_or_create("deriver")
        root = session.web.load(source)
        [ack] = list(
            session.web.execute(
                RpcRequest(
                    2,
                    root,
                    "filter",
                    {
                        "predicate": {
                            "type": "column", "column": "x", "op": "<", "value": 5,
                        }
                    },
                )
            )
        )
        derived = ack.payload["handle"]
        before = row_count(session, derived)
        evict(session, root)
        evict(session, derived)
        assert row_count(session, derived) == before


class TestLifecycleRaces:
    """Regression tests for the get-or-create and expire races."""

    def test_racing_resumes_of_one_id_are_atomic(self, manager):
        """Two connections resuming the same id used to race get() and
        create(): both could miss, and the loser got a protocol error for
        a perfectly legitimate reconnect.  get-or-create is now atomic
        under the manager lock: every racer receives the same session.

        A delay injected into ``get`` widens the old check-then-act
        window so the race is caught deterministically; the atomic
        implementation never leaves the lock between check and create,
        so the delay is harmless there."""
        import time as time_mod

        original_get = manager.get

        def slow_get(session_id):
            result = original_get(session_id)
            time_mod.sleep(0.002)
            return result

        manager.get = slow_get
        for round_no in range(20):
            session_id = f"racer-{round_no}"
            barrier = threading.Barrier(8)
            results, errors = [], []

            def attempt():
                barrier.wait()
                try:
                    results.append(manager.get_or_create(session_id))
                except Exception as exc:  # noqa: BLE001 — the regression
                    errors.append(exc)

            threads = [threading.Thread(target=attempt) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not errors, f"round {round_no}: {errors[0]!r}"
            assert len(results) == 8
            assert len({id(s) for s in results}) == 1

    @staticmethod
    def _flip_active(session) -> dict:
        """Make ``session.active`` read False once (the expiry snapshot),
        then True forever — simulating a query admitted between the
        snapshot and the teardown."""
        reads = {"count": 0}
        base = type(session)

        class FlipActive(base):
            @property
            def active(self):  # noqa: D401 — test double
                reads["count"] += 1
                return reads["count"] > 1

        session.__class__ = FlipActive
        return reads

    def test_expire_skips_session_that_became_active(
        self, manager, clock, source
    ):
        session = manager.get_or_create("lively")
        session.web.load(source)
        reads = self._flip_active(session)
        clock.advance(241.0)
        assert manager.expire() == []
        assert reads["count"] >= 2, "activity was not re-checked at teardown"
        assert manager.get("lively") is session
        assert session.web._handles != {}, "active session was torn down"


class TestSharedDatasets:
    def test_same_spec_shares_cluster_dataset(self, manager, source):
        a = manager.get_or_create("u1")
        b = manager.get_or_create("u2")
        ha = a.web.load(source)
        hb = b.web.load(source)
        assert a.web.dataset(ha).dataset_id == b.web.dataset(hb).dataset_id

    def test_row_count_cached_on_cluster(self, manager, source):
        session = manager.get_or_create("counter")
        handle = session.web.load(source)
        dataset = session.web.dataset(handle)
        assert row_count(session, handle) == 4_000
        # Even after every worker loses the shards, the count is served
        # without a shard walk.
        for index in range(len(manager.cluster.workers)):
            manager.cluster.kill_worker(index)
        assert dataset.total_rows == 4_000


class TestSourceSpecs:
    def test_default_requires_configuration(self):
        with pytest.raises(ProtocolError, match="no default dataset"):
            source_from_json({}, default=None)

    def test_default_resolves(self, source):
        assert source_from_json({}, default=source) is source
        assert source_from_json({"kind": "default"}, default=source) is source

    def test_flights_spec(self):
        resolved = source_from_json(
            {"kind": "flights", "rows": 1234, "partitions": 4, "seed": 9}
        )
        assert resolved.total_rows == 1234
        assert resolved.partitions == 4

    def test_flights_spec_takes_every_field_and_the_client_defaults(self):
        """A client's flights spec is read by the worker codec: extra
        columns survive, and an absent size is 100 000 rows in 16
        partitions."""
        resolved = source_from_json(
            {"kind": "flights", "rows": 1000, "extraColumns": 3}
        )
        assert resolved.extra_columns == 3
        assert len(resolved.load()[0].schema) == 31
        assert (resolved.total_rows, resolved.partitions) == (1000, 16)
        bare = source_from_json({"kind": "flights"})
        assert (bare.total_rows, bare.partitions, bare.seed) == (100_000, 16, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown source kind"):
            source_from_json({"kind": "telepathy"})


class TestErrorEnvelopes:
    def test_unknown_handle_is_structured(self, manager):
        session = manager.get_or_create("err")
        [reply] = list(session.web.execute(RpcRequest(7, "obj-404", "rowCount")))
        assert reply.kind == "error"
        assert reply.code == "unknown_handle"
        assert "unknown remote object" in reply.error

    def test_internal_failure_is_contained(self, manager, source, monkeypatch):
        """A crash inside dispatch becomes an 'internal' envelope, not an
        exception through the shared service loop."""
        def boom(spec):
            raise RuntimeError("sketch builder exploded")

        monkeypatch.setattr("repro.engine.web.sketch_from_json", boom)
        session = manager.get_or_create("kaboom")
        handle = session.web.load(source)
        [reply] = list(
            session.web.execute(
                RpcRequest(8, handle, "sketch", {"sketch": {"type": "boom"}})
            )
        )
        assert reply.kind == "error"
        assert reply.code == "internal"
        assert "sketch builder exploded" in reply.error

    def test_leaf_failure_becomes_error_envelope(self, manager, source):
        """A sketch whose leaves all fail (bad column) must answer with an
        error envelope, not a 'complete' with an empty payload."""
        session = manager.get_or_create("badcol")
        handle = session.web.load(source)
        spec = {
            "type": "histogram",
            "column": "no_such_column",
            "buckets": {"type": "double", "min": 0, "max": 1, "count": 2},
        }
        replies = list(
            session.web.execute(
                RpcRequest(10, handle, "sketch", {"sketch": spec})
            )
        )
        assert replies[-1].kind == "error"
        assert "no_such_column" in replies[-1].error

    def test_protocol_error_code(self, manager, source):
        session = manager.get_or_create("proto")
        handle = session.web.load(source)
        [reply] = list(session.web.execute(RpcRequest(9, handle, "teleport")))
        assert reply.kind == "error"
        assert reply.code == "protocol"

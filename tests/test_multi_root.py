"""The horizontal service tier: N roots over one shared worker fleet.

Two real roots (``ServiceServer`` behind a ``GatewayServer``) attach to
the same pre-started
``repro worker --listen`` daemons (the paper's stateless-web-server
deployment, §5.2–5.3) and must be indistinguishable to clients: identical
shard placement, identical answers to concurrent sessions, and sessions
that resume on either root through the shared session store with handles
rebuilt by lineage replay (§5.7).  Every kernel spec through a second
root is a column of ``tests/test_invariant.py``; here both roots answer
a histogram and its ``slow`` wrapper through the service tier.
"""

from __future__ import annotations

import threading

import pytest

from repro.data.flights import FlightsSource
from repro.engine.local import LocalDataSet
from repro.engine.remote import ProcessCluster
from repro.engine.rpc import (
    sketch_from_json,
    summary_from_json,
    summary_to_json,
)
from repro.gateway import GatewayClient, GatewayServer, GatewayWebSocket
from repro.service import ConnectionDirector, ServiceServer, SqliteSessionStore
from repro.service.director import dial
from repro.table.table import Table

from tests.conftest import canonical, daemon_fleet
from tests.test_wire_golden import FLIGHTS_SPECS

pytestmark = pytest.mark.tier2

ROWS = 2_000
PARTITIONS = 8
SEED = 5
SOURCE = FlightsSource(ROWS, partitions=PARTITIONS, seed=SEED)
#: The same dataset, described the way a wire client loads it.
FLIGHTS_SPEC = {
    "kind": "flights",
    "rows": ROWS,
    "partitions": PARTITIONS,
    "seed": SEED,
}
HIST = {
    "type": "histogram",
    "column": "Distance",
    "buckets": {"type": "double", "min": 0, "max": 3000, "count": 9},
}


@pytest.fixture(scope="module")
def fleet():
    """Two pre-started worker daemons that outlive any root."""
    with daemon_fleet("fleet", 2) as addresses:
        yield addresses


@pytest.fixture(scope="module")
def tier(fleet, tmp_path_factory):
    """Two roots over the shared fleet + shared store, each as
    (service, cluster, gateway address)."""
    store_path = str(tmp_path_factory.mktemp("tier") / "sessions.db")
    roots, gateways = [], []
    try:
        for _ in range(2):
            cluster = ProcessCluster(
                addresses=fleet, aggregation_interval=0.01
            )
            server = ServiceServer(
                cluster,
                session_store=SqliteSessionStore(store_path),
                sweep_interval_seconds=30.0,
            )
            gateways.append(GatewayServer(server))
            roots.append((server, cluster, gateways[-1].start_background()))
        yield roots
    finally:
        for gateway in gateways:
            gateway.close()
        for server, cluster, _ in roots:
            server.close()
            cluster.close()


def load(client: GatewayWebSocket) -> str:
    return client.call("load", args={"source": FLIGHTS_SPEC})["payload"]["handle"]


def run(client: GatewayWebSocket, handle: str, spec: dict) -> dict:
    """One sketch's terminal reply."""
    reply = client.call("sketch", handle, {"sketch": spec})
    assert reply["kind"] == "complete", reply
    return reply


@pytest.fixture(scope="module")
def reference_table() -> Table:
    return Table.concat(SOURCE.load())


class TestSharedPlacement:
    def test_roots_adopt_one_slicing(self, tier):
        """Both roots hold the same workers in the same slice order —
        the placement registry's byte-for-byte agreement."""
        (_, cluster_a, _), (_, cluster_b, _) = tier
        names_a = [w.name for w in cluster_a.workers]
        names_b = [w.name for w in cluster_b.workers]
        assert names_a == names_b
        assert sorted(names_a) == ["fleet-0", "fleet-1"]
        for index, worker in enumerate(cluster_b.workers):
            placement = worker.placement_info()
            assert placement["index"] == index
            assert placement["count"] == len(cluster_b.workers)

    def test_partial_fleet_spec_adopts_membership_never_reslices(
        self, fleet, tier
    ):
        """A root attaching with a stale fleet list (one address of the
        two-worker placed fleet) must not re-slice it.  Since workers
        report the fleet's membership alongside their placement
        (versioned placements, elastic fleets), the attach adopts the
        full membership instead of being rejected — the operator's
        stale file still lands on the fleet as it is now."""
        cluster = ProcessCluster(addresses=fleet[:1])
        try:
            assert sorted(w.name for w in cluster.workers) == [
                "fleet-0",
                "fleet-1",
            ]
        finally:
            cluster.close()


class TestByteIdenticalSummaries:
    @pytest.mark.parametrize("kind", ["histogram", "slow"])
    def test_every_sketch_agrees_across_roots(
        self, kind, tier, reference_table
    ):
        """A plain and a ``slow``-wrapped histogram return the same wire
        payload text from both roots, and summaries byte-identical to the
        single-process reference."""
        import repro.service.slow  # noqa: F401 — registers "slow"

        spec = FLIGHTS_SPECS[kind]
        local_bytes = (
            LocalDataSet(reference_table)
            .sketch(sketch_from_json(spec))
            .to_bytes()
        )
        payloads = []
        for _, _, (host, port) in tier:
            with dial(host, port) as client:
                payload = run(client, load(client), spec)["payload"]
                payloads.append(canonical(payload))
                assert (
                    summary_from_json(payload).to_bytes() == local_bytes
                ), f"{kind} differs from the local reference on {host}:{port}"
        assert payloads[0] == payloads[1], (
            f"{kind}: the two roots returned different wire payloads"
        )

    def test_concurrent_sessions_across_roots(self, tier, reference_table):
        """Eight sessions spread over both roots, all streaming at once,
        every result byte-identical to the single-root answer."""
        local = canonical(
            summary_to_json(
                LocalDataSet(reference_table).sketch(sketch_from_json(HIST))
            )
        )
        director = ConnectionDirector([address for _, _, address in tier])
        results, errors = [], []

        def one_session() -> None:
            try:
                with director.connect() as client:
                    reply = run(client, load(client), HIST)
                    results.append(canonical(reply["payload"]))
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=one_session) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[0]
        assert len(results) == 8
        assert all(result == local for result in results)
        # Both roots actually served traffic.
        for server, _, _ in tier:
            assert server.sessions.sessions_created >= 4


def metrics(client: GatewayWebSocket) -> dict:
    """The root's metricsSnapshot, read from the client's gateway."""
    with GatewayClient(client.host, client.port) as api:
        return api.metrics()


def session_metrics(client: GatewayWebSocket) -> dict:
    """The calling session's counters, as the root's metricsSnapshot
    reports them."""
    sessions = metrics(client)["sessions"]["sessions"]
    (mine,) = [s for s in sessions if s["session"] == client.session]
    return mine["metrics"]


class TestCrossRootWarmCache:
    """The multi-tier memoization acceptance path (§5.4): a sketch first
    run via root A completes via root B with *zero* worker-side shard
    scans, served from the worker daemons' memo caches."""

    #: A bucketing no other test in this module uses, so the fleet's memo
    #: caches are guaranteed cold for it until this test runs.
    WARM_SPEC = {
        "type": "histogram",
        "column": "Distance",
        "buckets": {"type": "double", "min": 0, "max": 3000, "count": 13},
    }

    def worker_scans(self, client: GatewayWebSocket) -> list[int]:
        workers = metrics(client)["cluster"]["workers"]
        assert all("error" not in w for w in workers), workers
        return [w["shardsSummarized"] for w in workers]

    def test_sketch_warmed_via_root_a_hits_via_root_b(self, tier):
        (_, _, address_a), (_, _, address_b) = tier
        with dial(*address_a) as client_a:
            cold = run(client_a, load(client_a), self.WARM_SPEC)
            assert cold["cache"] == {"hit": False, "workerHits": 0}

        with dial(*address_b) as client_b:
            scans_before = self.worker_scans(client_b)
            warm = run(client_b, load(client_b), self.WARM_SPEC)
            scans_after = self.worker_scans(client_b)
            # Zero worker-side shard scans: every daemon answered root B
            # from the memo entry root A's run left behind.
            assert scans_after == scans_before, (
                f"warm run scanned shards: {scans_before} -> {scans_after}"
            )
            assert warm["cache"]["workerHits"] == len(scans_after)
            assert not warm["cache"]["hit"]  # root B's own root tier was cold
            assert canonical(warm["payload"]) == canonical(cold["payload"])
            # The per-session telemetry shows up in the metricsSnapshot RPC.
            assert (
                session_metrics(client_b)["workerCacheHits"]
                == len(scans_after)
            )

    def test_second_run_on_same_root_hits_root_tier(self, tier):
        (_, _, address_a), _ = tier
        spec = {  # a bucketing of this test's own, so it self-warms
            "type": "histogram",
            "column": "Distance",
            "buckets": {"type": "double", "min": 0, "max": 3000, "count": 17},
        }
        with dial(*address_a) as client:
            handle = load(client)
            first = run(client, handle, spec)
            again = run(client, handle, spec)
            assert again["cache"]["hit"]
            assert canonical(again["payload"]) == canonical(first["payload"])
            assert session_metrics(client)["cacheHits"] >= 1


class TestSessionMobility:
    def test_session_created_on_root_a_resumes_on_root_b(self, tier):
        """The acceptance path: load + filter on root A, reconnect to
        root B by session id, and query the *derived* handle — root B
        rebuilds it from the stored recipe book via lineage replay."""
        (server_a, _, address_a), (server_b, _, address_b) = tier
        with dial(*address_a, session="roaming") as client_a:
            root_handle = load(client_a)
            derived = client_a.call(
                "filter",
                root_handle,
                {
                    "predicate": {
                        "type": "column",
                        "column": "Distance",
                        "op": ">",
                        "value": 500.0,
                    }
                },
            )["payload"]["handle"]
            reference = run(client_a, derived, HIST)
            reference_rows = client_a.call("rowCount", derived)["payload"]

        with dial(*address_b, session="roaming") as client_b:
            assert client_b.session == "roaming"
            assert client_b.call("rowCount", derived)["payload"] == reference_rows
            resumed = run(client_b, derived, HIST)
            assert canonical(resumed["payload"]) == canonical(reference["payload"])
        assert server_b.sessions.sessions_resumed >= 1

    def test_director_pins_sessions_and_rotates_fresh_connections(self):
        """Round-robin for fresh connections; affinity pins a session to
        the root that actually served it — and only after the dial
        succeeded, so a dead root cannot capture a session forever."""
        addresses = [("root-a", 1), ("root-b", 2)]
        dialed = []

        class StubClient:
            def __init__(self, host, port, session=None):
                if host == "root-b" and down["b"]:
                    raise ConnectionRefusedError("root-b is down")
                dialed.append((host, port))
                self.session = session or f"minted-{len(dialed)}"

        down = {"b": False}
        director = ConnectionDirector(addresses, client_factory=StubClient)
        first = director.connect(session="sticky")
        assert dialed[-1] == ("root-a", 1)
        for _ in range(3):  # reconnects stay pinned
            assert director.connect(session="sticky").session == "sticky"
            assert dialed[-1] == ("root-a", 1)
        # Fresh connections keep rotating across the remaining slots.
        fresh = director.connect()
        assert dialed[-1] == ("root-b", 2)
        assert director.connect(session=fresh.session).session == fresh.session
        assert dialed[-1] == ("root-b", 2), "minted ids pin too"
        # A failed dial must not pin: the session retries onto a live root.
        director.connect()  # consume the root-a rotation slot
        down["b"] = True
        with pytest.raises(ConnectionRefusedError):
            director.connect(session="roamer")  # round-robin lands on b
        assert director.connect(session="roamer").session == "roamer"
        assert dialed[-1] == ("root-a", 1)
        assert first.session == "sticky"
        # A dead *pinned* root must not capture its session either: the
        # failed dial drops the pin, and the retry (with the shared
        # store behind it) resumes the session on a healthy root.
        with pytest.raises(ConnectionRefusedError):
            director.connect(session=fresh.session)  # pinned to dead b
        with pytest.raises(ConnectionRefusedError):
            director.connect(session=fresh.session)  # rotation hits b too
        assert (
            director.connect(session=fresh.session).session
            == fresh.session
        )
        assert dialed[-1] == ("root-a", 1)

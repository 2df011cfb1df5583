"""Elastic worker fleets: grow/shrink with shard re-balancing (tier ops).

The tentpole contract under test: a placed fleet can change size at
runtime — only the moved shard slices travel between workers, the
placement version bumps so every root adopts the new assignment, and
sketch results stay **byte-identical** to a static fleet throughout.
Plus the director's root health checks (consecutive-failure ejection)
and maintenance draining (refuse new sessions, existing ones roam via
the shared session store), and the worker daemon's graceful SIGTERM.
"""

from __future__ import annotations

import signal
import sys
import threading
import time

import pytest

from repro.data.flights import FlightsSource
from repro.engine import cluster as cluster_module
from repro.engine.cluster import Cluster, Worker
from repro.engine.dataset import FilterMap
from repro.engine.local import LocalDataSet
from repro.engine.placement import (
    PlacementError,
    StalePlacementError,
    expected_slice,
    plan_moves,
)
from repro.engine.redo_log import LoadOp
from repro.engine.remote import ProcessCluster, WorkerServer
from repro.engine.rpc import (
    RpcRequest,
    predicate_from_json,
    sketch_from_json,
    summary_to_json,
)
from repro.errors import HillviewError, WorkerUnavailableError
from repro.gateway import GatewayClient, GatewayServer
from repro.gateway.client import GatewayError
from repro.service import (
    ConnectionDirector,
    ServiceServer,
    SqliteSessionStore,
    probe_gateway,
)
from repro.service.director import dial
from repro.table.table import Table

from tests.conftest import WireDeployment, canonical, daemon_fleet, spawn_daemon

ROWS = 4_000
PARTITIONS = 16
SEED = 11
SOURCE = FlightsSource(ROWS, partitions=PARTITIONS, seed=SEED)
HIST = {
    "type": "histogram",
    "column": "Distance",
    "buckets": {"type": "double", "min": 0, "max": 3000, "count": 9},
}


def run_canonical(dataset, spec: dict) -> str:
    return canonical(summary_to_json(dataset.run(sketch_from_json(spec)).value))


# ---------------------------------------------------------------------------
# The move plan (pure function)
# ---------------------------------------------------------------------------
class TestPlanMoves:
    def test_grow_2_to_4_moves_exactly_the_departing_slices(self):
        # Worker 0 holds globals {0,2,4,6}, worker 1 holds {1,3,5,7}.
        resident = [[0, 2, 4, 6], [1, 3, 5, 7]]
        moves = plan_moves(resident, [0, 1], 4)
        assert moves == {(0, 2): [2, 6], (1, 3): [3, 7]}

    def test_shrink_4_to_2_trailing_workers_hand_everything_over(self):
        resident = [[0, 4], [1, 5], [2, 6], [3, 7]]
        moves = plan_moves(resident, [0, 1, None, None], 2)
        assert moves == {(2, 0): [2, 6], (3, 1): [3, 7]}

    def test_removing_a_middle_worker_scatters_only_as_needed(self):
        resident = [[0, 4, 8], [1, 5, 9], [2, 6, 10], [3, 7, 11]]
        moves = plan_moves(resident, [0, None, 1, 2], 3)
        # Every shard's new owner is its global index mod 3.
        owners: dict[int, int] = {}
        for (_, owner), globals_moved in moves.items():
            for g in globals_moved:
                owners[g] = owner
        for g, owner in owners.items():
            assert owner == g % 3
        # Worker 1's shards all depart; kept shards never appear.
        for g in (1, 5, 9):
            assert g in owners
        assert 0 not in owners  # stays on worker 0 (0 % 3 == 0)

    def test_no_move_when_assignment_is_unchanged(self):
        resident = [[0, 2], [1, 3]]
        assert plan_moves(resident, [0, 1], 2) == {}

    def test_mismatched_inputs_are_rejected(self):
        with pytest.raises(PlacementError):
            plan_moves([[0]], [0, 1], 2)

    def test_expected_slice_matches_load_slice_striping(self):
        assert expected_slice(1, 4, 10) == [1, 5, 9]
        assert expected_slice(3, 4, 3) == []


# ---------------------------------------------------------------------------
# Versioned placements, as the one placement sync reads them
# ---------------------------------------------------------------------------
class TestVersionedPlacement:
    def test_version_and_members_round_trip(self):
        deployment = WireDeployment()
        members = ["a:1", "b:2", "c:3", "d:4"]
        worker = deployment.make("reporter")
        worker.configure(1, 4, 0.01, 3, members)
        info = worker.placement_info()
        assert (info["index"], info["count"]) == (1, 4)
        assert (info["version"], info["members"]) == (3, members)
        deployment.close()

    def test_version_defaults_to_zero_for_old_reports(self):
        """A report without a version (an older daemon's) is version 0."""

        class Unversioned(Worker):
            def placement_info(self):
                info = super().placement_info()
                del info["version"]
                return info

        fleet = [Unversioned(f"old-{i}", cores=1) for i in range(2)]
        Cluster(workers=fleet)
        again = Cluster(workers=fleet[::-1])
        assert (again.placement_version, again.workers) == (0, fleet)

    def test_mixed_versions_are_a_retryable_conflict(self, monkeypatch):
        """A fleet mid-commit is re-read, not refused: inside the grace
        period the initiator finishes, and the attach adopts its result."""
        monkeypatch.setattr(cluster_module, "REPAIR_GRACE_SECONDS", 60.0)
        fleet = [Worker(f"w{i}", cores=1) for i in range(2)]
        Cluster(workers=fleet)
        fleet[0].rebalance_commit(1, 0, 2, fleet, {})
        finisher = threading.Timer(
            0.2, fleet[1].rebalance_commit, (1, 1, 2, fleet, {})
        )
        finisher.start()
        attached = Cluster(workers=fleet)
        finisher.join(10)
        assert (attached.placement_version, attached.workers) == (1, fleet)

    def test_agreed_fleet_adopts_verbatim_across_versions(self):
        fleet = [Worker(f"w{i}", cores=1) for i in range(2)]
        members = fleet[::-1]
        for index, worker in enumerate(members):
            worker.rebalance_commit(5, index, 2, members, {})
        attached = Cluster(workers=fleet)
        assert (attached.placement_version, attached.workers) == (5, members)


# ---------------------------------------------------------------------------
# Worker store re-keying
# ---------------------------------------------------------------------------
class TestRebalanceStore:
    def _worker(self, index: int, count: int, shards: list[Table]):
        worker = Worker(f"w{index}", cores=1)
        worker.configure(index, count, 0.01)
        worker.put("ds", shards)
        return worker

    def test_keeps_owned_merges_adopted_sorted_by_global_index(self):
        tables = SOURCE.load()  # 16 shards
        # Worker 0 of 2 holds globals 0,2,...,14.
        worker = self._worker(0, 2, tables[0::2])
        # Re-key to slice 0 of 4: keeps {0,4,8,12}, adopts nothing new.
        kept = worker.rebalance_store(0, 4, {"ds": len(tables)})
        assert kept == {"ds": 4}
        resident = worker.store.get("ds")
        assert [t.shard_id for t in resident] == [
            t.shard_id for t in tables[0::4]
        ]

    def test_incomplete_slice_is_dropped_for_replay(self):
        tables = SOURCE.load()
        worker = self._worker(0, 2, tables[0::2])
        # Slice 1 of 2 needs the odd globals, which this worker lacks and
        # nothing was adopted: the entry must drop, not half-survive.
        kept = worker.rebalance_store(1, 2, {"ds": len(tables)})
        assert kept == {}
        assert worker.store.get("ds") is None

    def test_unlisted_datasets_are_evicted(self):
        tables = SOURCE.load()
        worker = self._worker(0, 2, tables[0::2])
        worker.put("derived", tables[0:2])
        worker.rebalance_store(0, 2, {"ds": len(tables)})
        assert worker.store.get("ds") is not None
        assert worker.store.get("derived") is None

    def test_adopted_shards_fill_a_fresh_worker(self):
        tables = SOURCE.load()
        fresh = Worker("fresh", cores=1)
        adopted = {"ds": {g: tables[g] for g in range(1, len(tables), 2)}}
        kept = fresh.rebalance_store(1, 2, {"ds": len(tables)}, adopted)
        assert kept == {"ds": len(tables) // 2}
        resident = fresh.store.get("ds")
        assert [t.shard_id for t in resident] == [
            t.shard_id for t in tables[1::2]
        ]


# ---------------------------------------------------------------------------
# The elasticity contract, once, for both deployments (``conftest.deployment``)
# ---------------------------------------------------------------------------
class TestElasticityContract:
    """What a fleet of workers promises a root, whatever the workers are:
    every test runs against ``Worker`` objects and against
    ``RemoteWorkerProxy`` ↔ ``WorkerServer`` over a socket pair."""

    @pytest.fixture()
    def reference(self):
        table = Table.concat(SOURCE.load())
        return canonical(
            summary_to_json(LocalDataSet(table).sketch(sketch_from_json(HIST)))
        )

    def _cluster(self, deployment, count: int = 2) -> Cluster:
        return deployment.root(
            [deployment.make(f"worker-{i}") for i in range(count)]
        )

    def _placed(self, deployment, index: int = 0, count: int = 1):
        """One worker pinned to a slice and holding it."""
        worker = deployment.make("solo")
        worker.configure(index, count, 0.01, 0, ["a:1", "b:2"][:count])
        worker.ensure("ds", [LoadOp("ds", SOURCE)])
        return worker

    def test_grow_and_shrink_keep_results_byte_identical(
        self, deployment, reference
    ):
        cluster = self._cluster(deployment)
        dataset = cluster.load(SOURCE)
        derived = dataset.map(
            FilterMap(
                predicate_from_json(
                    {"type": "column", "column": "Distance", "op": ">", "value": 500.0}
                )
            )
        )
        before = run_canonical(dataset, HIST)
        before_derived = run_canonical(derived, HIST)
        assert before == reference

        joiners = [deployment.make("worker-2"), deployment.make("worker-3")]
        assert cluster.grow(joiners) == 4
        assert cluster.placement_version == 1
        assert [w.placement_info()["index"] for w in cluster.workers] == [0, 1, 2, 3]
        # Shards were re-striped, not duplicated: every worker holds 1/4
        # and still knows the dataset is a (transferable) load.
        for worker in cluster.workers:
            entry = worker.inventory()[dataset.dataset_id]
            assert entry == {"shards": PARTITIONS // 4, "loaded": True}
        cluster.computation_cache.clear()  # force a real re-execution
        assert run_canonical(dataset, HIST) == before
        assert run_canonical(derived, HIST) == before_derived

        assert cluster.shrink(["worker-3", 2]) == 2
        assert cluster.placement_version == 2
        cluster.computation_cache.clear()
        assert run_canonical(dataset, HIST) == before
        assert run_canonical(derived, HIST) == before_derived
        assert dataset.total_rows == ROWS

    def test_minted_workers_join_an_in_process_fleet(self):
        cluster = Cluster(num_workers=2, aggregation_interval=0.01)
        dataset = cluster.load(SOURCE)
        before = run_canonical(dataset, HIST)
        assert cluster.grow(2) == 4
        assert [w.name for w in cluster.workers][2:] == ["worker-2", "worker-3"]
        cluster.computation_cache.clear()
        assert run_canonical(dataset, HIST) == before

    def test_rebalance_waits_for_inflight_streams(self, deployment):
        cluster = self._cluster(deployment)
        dataset = cluster.load(SOURCE)
        slow_spec = {"type": "slow", "perShardSeconds": 0.02, "inner": HIST}
        results: list[str] = []
        errors: list[Exception] = []

        def stream() -> None:
            try:
                results.append(run_canonical(dataset, slow_spec))
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        thread = threading.Thread(target=stream)
        thread.start()
        time.sleep(0.05)  # the stream is mid-flight
        grown = cluster.grow(
            [deployment.make("worker-2"), deployment.make("worker-3")]
        )
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert grown == 4
        assert not errors, errors[0]
        # The in-flight stream drained on the old placement and its
        # result matches a fresh run on the new one.
        cluster.computation_cache.clear()
        assert results[0] == run_canonical(dataset, slow_spec)

    def test_shrink_to_zero_is_refused(self, deployment):
        cluster = self._cluster(deployment)
        with pytest.raises(PlacementError):
            cluster.shrink([0, 1])

    def test_unknown_worker_selector_is_refused(self, deployment):
        cluster = self._cluster(deployment)
        with pytest.raises(PlacementError):
            cluster.shrink(["nonesuch"])

    def test_placement_is_sticky(self, deployment):
        worker = self._placed(deployment, 0, 2)
        worker.configure(0, 2, 0.01, 0, ["a:1", "b:2"])  # agreeing: fine
        with pytest.raises(HillviewError, match="re-slicing a shared fleet"):
            worker.configure(1, 2, 0.01, 0, ["a:1", "b:2"])
        with pytest.raises(StalePlacementError):
            worker.configure(0, 2, 0.01, 3, ["a:1", "b:2"])
        assert worker.placement_info()["index"] == 0

    def test_stale_version_is_rejected_with_retryable_code(self, deployment):
        worker = self._placed(deployment)
        assert worker.ensure("ds", [], 0).rows == ROWS
        with pytest.raises(StalePlacementError) as info:
            worker.ensure("ds", [], 7)
        assert info.value.retryable and info.value.code == "stale_placement"

    def test_draining_refuses_new_state_but_serves_reads(self):
        """A drain is a daemon's SIGTERM state — the one clause of the
        contract an in-process worker, having no process, cannot meet."""
        deployment = WireDeployment()
        worker = self._placed(deployment)
        deployment.drain(worker)
        with pytest.raises(WorkerUnavailableError, match="draining"):
            worker.ensure("other", [LoadOp("other", SOURCE)])
        with pytest.raises(WorkerUnavailableError, match="draining"):
            worker.rebalance_commit(1, 0, 2, ["a:1", "b:2"], {})
        assert worker.ensure("ds", [LoadOp("ds", SOURCE)]).rows == ROWS
        emissions = list(worker.sketch_partials("ds", sketch_from_json(HIST), []))
        assert emissions[-1].shards_done == PARTITIONS
        deployment.close()

    def test_incomplete_slice_falls_back_to_replay(self, deployment):
        """A commit whose transfer never arrived must drop the dataset,
        not half-keep it: lineage replay then rebuilds the new slice."""
        worker = self._placed(deployment, 0, 2)  # holds the even shards
        reply = worker.rebalance_commit(
            1, 1, 2, ["a:1", "b:2"], {"ds": PARTITIONS}
        )
        assert reply["kept"] == {}  # slice 1/2 is the odd ones: none came
        assert worker.inventory() == {}
        extent = worker.ensure("ds", [LoadOp("ds", SOURCE)], 1)
        assert extent.shards == PARTITIONS // 2

    def test_commit_is_idempotent_and_versions_are_monotonic(self, deployment):
        worker = self._placed(deployment)
        first = worker.rebalance_commit(2, 0, 2, ["a:1", "b:2"], {"ds": PARTITIONS})
        assert first == {"version": 2, "kept": {"ds": PARTITIONS // 2}}
        again = worker.rebalance_commit(2, 0, 2, ["a:1", "b:2"], {"ds": PARTITIONS})
        assert again == {"version": 2, "idempotent": True}
        assert worker.inventory()["ds"]["shards"] == PARTITIONS // 2
        with pytest.raises(HillviewError, match="cannot commit"):
            worker.rebalance_commit(1, 1, 2, ["a:1", "b:2"], {})

    def test_retire_leaves_a_farewell(self, deployment):
        worker = self._placed(deployment)
        assert worker.retire(1, ["b:2"]) == {"version": 1}
        assert worker.retire(1, ["b:2"]) == {"version": 1, "idempotent": True}
        info = worker.placement_info()
        assert (info["index"], info["retired"]) == (None, True)
        assert (info["version"], info["members"]) == (1, ["b:2"])
        assert worker.inventory() == {}
        # A retired worker serves no slice and cannot be re-pinned by a
        # stale root; both rejections send the root to the farewell.
        with pytest.raises(StalePlacementError):
            worker.ensure("ds", [])
        with pytest.raises(StalePlacementError):
            worker.configure(0, 1, 0.01, 0, None)

    def test_a_second_commit_to_one_version_is_a_replay(self, deployment):
        """Repairs landing while the initiator's commit drains must not
        re-key the store a second time: with their empty totals they
        would evict every shard the first commit kept."""
        worker = self._placed(deployment)
        inner = deployment.worker_of(worker)
        replies: dict[str, dict] = {}

        def commit(name: str, totals: dict) -> None:
            replies[name] = worker.rebalance_commit(1, 0, 2, ["a:1", "b:2"], totals)

        first = threading.Thread(target=commit, args=("first", {"ds": PARTITIONS}))
        repairs = [
            threading.Thread(target=commit, args=(f"repair-{i}", {}))
            for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with inner._dataset_op(None):  # one op in flight: commits drain it
                first.start()
                deadline = time.monotonic() + 10.0
                while not inner._rebalance_pending:
                    assert time.monotonic() < deadline, "the commit never began"
                    time.sleep(0.005)
                for repair in repairs:
                    repair.start()
                time.sleep(0.2)  # the repairs arrive mid-drain
            for thread in [first, *repairs]:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert replies == {
            "first": {"version": 1, "kept": {"ds": PARTITIONS // 2}},
            **{f"repair-{i}": {"version": 1, "idempotent": True} for i in range(4)},
        }
        assert worker.inventory()["ds"]["shards"] == PARTITIONS // 2

    def test_a_stale_root_adopts_the_resize(self, deployment, reference):
        """Root B shares root A's workers.  A grows the fleet 2 → 4 and
        shrinks it back; B learns of each resize from a stale rejection
        and adopts it, in-process as over the wire."""
        a = self._cluster(deployment)
        b = deployment.root([deployment.rejoin(w) for w in a.workers])
        dataset = b.load(SOURCE)
        assert run_canonical(dataset, HIST) == reference
        a.grow([deployment.make("worker-2"), deployment.make("worker-3")])
        b.computation_cache.clear()
        assert run_canonical(dataset, HIST) == reference
        assert (b.placement_version, len(b.workers)) == (1, 4)
        a.shrink([2, 3])
        b.computation_cache.clear()
        assert run_canonical(dataset, HIST) == reference
        assert (b.placement_version, len(b.workers)) == (2, 2)

    def test_interrupted_rebalance_is_healed_on_attach(
        self, deployment, reference, monkeypatch
    ):
        """A rebalance that died after committing only some members is
        finished by the next root to attach: the committed member's
        report carries the whole target assignment."""
        monkeypatch.setattr(cluster_module, "REPAIR_GRACE_SECONDS", 0.0)
        cluster = self._cluster(deployment)
        cluster.load(SOURCE)
        members = [w.member for w in cluster.workers]
        cluster.workers[0].rebalance_commit(1, 0, 2, members, {})
        healed = deployment.root([deployment.rejoin(w) for w in cluster.workers])
        placements = [w.placement_info() for w in healed.workers]
        assert healed.placement_version == 1
        assert [(p["version"], p["index"]) for p in placements] == [(1, 0), (1, 1)]
        assert run_canonical(healed.load(SOURCE), HIST) == reference

    def test_retired_farewell_heals_uncommitted_survivors(
        self, deployment, monkeypatch
    ):
        """A shrink retired the departing worker, but no survivor
        committed: only the farewell knows the target, and the next
        attach must read it and drive the survivors there."""
        monkeypatch.setattr(cluster_module, "REPAIR_GRACE_SECONDS", 0.0)
        cluster = self._cluster(deployment, 3)
        cluster.workers[2].retire(1, [w.member for w in cluster.workers[:2]])
        healed = deployment.root([deployment.rejoin(w) for w in cluster.workers])
        placements = [w.placement_info() for w in healed.workers]
        assert (healed.placement_version, len(healed.workers)) == (1, 2)
        assert [(p["index"], p["count"]) for p in placements] == [(0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# Director: health checks and draining
# ---------------------------------------------------------------------------
class _StubClient:
    def __init__(self, host, port, session=None):
        self.session = session or f"minted-{id(self)}"


class TestDirectorHealth:
    def _director(self, health: dict, max_failures: int = 3):
        addresses = [("root-a", 1), ("root-b", 2)]
        return ConnectionDirector(
            addresses,
            client_factory=_StubClient,
            max_ping_failures=max_failures,
            probe=lambda address: health[address],
        )

    def test_ejection_after_n_consecutive_failures_and_recovery(self):
        health = {("root-a", 1): True, ("root-b", 2): False}
        director = self._director(health)
        for round_number in range(3):
            director.check_health()
            if round_number < 2:
                assert director.ejected() == []  # not yet N consecutive
        assert director.ejected() == [("root-b", 2)]
        assert director.ejections == 1
        # Every connection now lands on the healthy root.
        for _ in range(4):
            director.connect()
        assert director.routable() == [("root-a", 1)]
        # Recovery: one good ping restores the root and resets the count.
        health[("root-b", 2)] = True
        director.check_health()
        assert director.ejected() == []
        assert director.recoveries == 1

    def test_intermittent_failures_never_eject(self):
        flips = {"n": 0}

        def flaky(address):
            flips["n"] += 1
            return flips["n"] % 2 == 0  # fail, succeed, fail, succeed...

        director = ConnectionDirector(
            [("root-a", 1)],
            client_factory=_StubClient,
            max_ping_failures=3,
            probe=flaky,
        )
        for _ in range(10):
            director.check_health()
        assert director.ejected() == []

    def test_session_pinned_to_ejected_root_migrates(self):
        health = {("root-a", 1): True, ("root-b", 2): True}
        director = self._director(health, max_failures=1)
        sticky = director.connect(session="sticky")
        assert sticky.session == "sticky"
        pinned = director._affinity["sticky"]
        health[pinned] = False
        director.check_health()
        assert pinned in director.ejected()
        other = [a for a in director.addresses if a != pinned][0]
        for _ in range(3):
            director.connect(session="sticky")
            assert director._affinity["sticky"] == other

    def test_all_roots_down_raises(self):
        health = {("root-a", 1): False, ("root-b", 2): False}
        director = self._director(health, max_failures=1)
        director.check_health()
        with pytest.raises(ConnectionError):
            director.connect()


class TestDirectorDrain:
    def test_drain_stops_routing_and_drops_pins(self):
        director = ConnectionDirector(
            [("root-a", 1), ("root-b", 2)], client_factory=_StubClient
        )
        director.connect(session="resident")
        pinned = director._affinity["resident"]
        other = [a for a in director.addresses if a != pinned][0]
        result = director.drain(pinned, flush_sessions=False)
        assert result["drained"] and result["unpinned"] == 1
        assert director.drained() == [pinned]
        # New sessions and the formerly pinned session route elsewhere.
        for _ in range(4):
            assert director._pick(None) == other
        assert director._pick("resident") == other
        director.undrain(pinned)
        # undrain's best-effort RPC hits a nonexistent address; routing
        # state must be restored regardless.
        assert director.drained() == []
        assert pinned in {director._pick(None) for _ in range(4)}

    def test_unknown_root_cannot_be_drained(self):
        director = ConnectionDirector(
            [("root-a", 1)], client_factory=_StubClient
        )
        with pytest.raises(ValueError):
            director.drain(("root-x", 9), flush_sessions=False)


def _root(tmp_path) -> tuple[ServiceServer, GatewayServer]:
    """An in-process-cluster root on the shared store, behind a gateway."""
    server = ServiceServer(
        Cluster(num_workers=2, aggregation_interval=0.01),
        default_source=SOURCE,
        session_store=SqliteSessionStore(str(tmp_path / "tier.db")),
        sweep_interval_seconds=30.0,
    )
    gateway = GatewayServer(server)
    gateway.start_background()
    return server, gateway


def _sketch(client, handle: str) -> dict:
    return client.call("sketch", handle, {"sketch": HIST})


class TestServiceDrainRpc:
    """Draining against a real (in-process-cluster) root."""

    @pytest.fixture()
    def root(self, tmp_path):
        server, gateway = _root(tmp_path)
        yield server, gateway
        gateway.close()
        server.close()

    def test_drain_refuses_new_sessions_while_existing_ones_work(self, root):
        server, gateway = root
        host, port = gateway.address
        with dial(host, port, session="settled") as resident, GatewayClient(
            host, port
        ) as api:
            handle = resident.call("load", args={"source": {}})["payload"]["handle"]
            sessions_before = server.sessions.sessions_created
            assert probe_gateway((host, port))  # health probe mints no session
            assert server.sessions.sessions_created == sessions_before

            drained = api.drain()
            assert drained["draining"] is True
            assert drained["persisted"] >= 1  # recipe books flushed

            # New sessions are refused with a structured error...
            with pytest.raises(GatewayError) as info:
                dial(host, port)
            assert "draining" in str(info.value)
            with pytest.raises(GatewayError):
                dial(host, port, session="brand-new")

            # ...while the resident session keeps streaming.
            assert _sketch(resident, handle)["kind"] == "complete"
            # And its *reconnects* still work (it lives on this root).
            with dial(host, port, session="settled") as again:
                assert again.session == "settled"

            assert probe_gateway((host, port))  # drained != unhealthy
            api.undrain()
        with dial(host, port) as fresh:  # back in rotation
            assert fresh.session

    def test_drained_session_roams_via_the_store(self, root, tmp_path):
        _, gateway = root
        with dial(*gateway.address, session="roamer") as client:
            handle = client.call("load", args={"source": {}})["payload"]["handle"]
            reference = _sketch(client, handle)
        ConnectionDirector([gateway.address]).drain(gateway.address)
        # A sibling root sharing the store resumes the session.
        sibling, sibling_gateway = _root(tmp_path)
        try:
            with dial(*sibling_gateway.address, session="roamer") as moved:
                assert moved.session == "roamer"
                resumed = _sketch(moved, handle)
                assert canonical(resumed["payload"]) == canonical(reference["payload"])
            assert sibling.sessions.sessions_resumed >= 1
        finally:
            sibling_gateway.close()
            sibling.close()


# ---------------------------------------------------------------------------
# Worker daemon draining (SIGTERM path, in-process)
# ---------------------------------------------------------------------------
class TestWorkerServerDraining:
    def _dispatch(self, server: WorkerServer, request: RpcRequest):
        from repro.engine.remote import _RootLink

        link = _RootLink(None, None)
        return list(server._dispatch(request, link))

    def test_draining_refuses_configure_but_serves_sketches(self):
        from repro.engine.remote import WorkerDrainingError

        server = WorkerServer(name="drainee", cores=1)
        self._dispatch(
            server, RpcRequest(1, "", "configure", {"index": 0, "count": 1})
        )
        flights = {"kind": "flights", "rows": 500, "partitions": 4, "seed": 1}

        def ensure(request_id: int, dataset: str) -> RpcRequest:
            lineage = [{"op": "load", "dataset": dataset, "source": flights}]
            return RpcRequest(
                request_id,
                "",
                "ensure",
                {"dataset": dataset, "lineage": lineage, "placementVersion": 0},
            )

        self._dispatch(server, ensure(2, "ds"))
        server.begin_drain()
        assert server.draining
        with pytest.raises(WorkerDrainingError):
            self._dispatch(
                server,
                RpcRequest(3, "", "configure", {"index": 0, "count": 1}),
            )
        # An ensure that would have to read the source is refused.
        with pytest.raises(WorkerDrainingError):
            self._dispatch(server, ensure(4, "x"))
        # In-flight work still completes: reads and sketches are served.
        replies = self._dispatch(
            server,
            RpcRequest(
                5,
                "",
                "sketch",
                {
                    "dataset": "ds",
                    "sketch": HIST,
                    "lineage": [],
                    "placementVersion": 0,
                },
            ),
        )
        assert replies[-1].kind == "complete"
        # So is an ensure over shards the worker holds.
        [held] = self._dispatch(server, ensure(6, "ds"))
        assert held.kind == "ack" and held.payload["rows"] == 500
        assert server.wait_drained(timeout=5.0)


# ---------------------------------------------------------------------------
# Tier 2: a real daemon fleet growing and shrinking under load
# ---------------------------------------------------------------------------
@pytest.mark.tier2
class TestElasticFleetTier2:
    @pytest.fixture()
    def daemons(self):
        with daemon_fleet("elastic", 4) as addresses:
            yield addresses

    def test_grow_and_shrink_under_load_byte_identical(self, daemons):
        """The acceptance path: a 2-daemon fleet grows to 4 and shrinks
        back mid-workload; every sketch result — before, during, after —
        is byte-identical to the static single-process reference."""
        local = canonical(
            summary_to_json(
                LocalDataSet(Table.concat(SOURCE.load())).sketch(
                    sketch_from_json(HIST)
                )
            )
        )
        slow_spec = {"type": "slow", "perShardSeconds": 0.004, "inner": HIST}
        serving = ProcessCluster(
            addresses=daemons[:2], aggregation_interval=0.01
        )
        admin = ProcessCluster(
            addresses=daemons[:2], aggregation_interval=0.01
        )
        try:
            dataset = serving.load(SOURCE)
            results: list[str] = []
            errors: list[Exception] = []
            stop = threading.Event()

            def workload() -> None:
                while not stop.is_set():
                    try:
                        run = dataset.run(sketch_from_json(slow_spec))
                        results.append(
                            canonical(summary_to_json(run.value))
                        )
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=workload) for _ in range(2)]
            for thread in threads:
                thread.start()
            time.sleep(0.3)  # sketches in flight on the old placement

            assert admin.grow(daemons[2:]) == 4
            assert admin.placement_version == 1
            time.sleep(0.5)  # the serving root discovers and resyncs

            assert admin.shrink(daemons[2:]) == 2
            assert admin.placement_version == 2
            time.sleep(0.5)

            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors[0]
            assert results, "the workload never completed a sketch"
            assert all(r == local for r in results), (
                "a sketch observed a half-rebalanced fleet"
            )
            # The serving root adopted both rebalances transparently.
            assert serving.placement_version == 2
            assert len(serving.workers) == 2
        finally:
            admin.close()
            serving.close()

    def test_admin_grow_transfers_another_roots_shards(self, daemons):
        """The operator path: `repro fleet grow` runs from a transient
        administrative root whose redo log never saw the serving root's
        datasets.  The loaded-dataset marker is worker-resident, so the
        shards still *move* (adoption, not eviction-and-reload), and the
        serving root's results are unchanged."""
        serving = ProcessCluster(
            addresses=daemons[:2], aggregation_interval=0.01
        )
        admin = ProcessCluster(
            addresses=daemons[:2], aggregation_interval=0.01
        )
        try:
            dataset = serving.load(SOURCE)
            reference = run_canonical(dataset, HIST)
            admin.grow(daemons[2:3])  # empty redo log on this root
            assert [w.placement_info()["index"] for w in admin.workers] == [0, 1, 2]
            # Every worker (including the new one) reports its re-striped
            # inventory — the shards moved, they were not re-read (an
            # evicted dataset would inventory as absent until next use).
            counts = [
                (w.inventory().get(dataset.dataset_id) or {}).get("shards", 0)
                for w in admin.workers
            ]
            assert sum(counts) == PARTITIONS
            assert counts[2] > 0, "the new worker adopted no shards"
            serving.computation_cache.clear()
            assert run_canonical(dataset, HIST) == reference
        finally:
            admin.close()
            serving.close()

    def test_interrupted_rebalance_is_healed_on_attach(self, daemons):
        """A rebalance that died after committing only some members
        leaves the fleet at mixed placement versions; the next attaching
        root must finish the job (the committed report carries the full
        target assignment) instead of wedging on the conflict."""
        from repro.engine.placement import format_address

        cluster = ProcessCluster(
            addresses=daemons[:2], aggregation_interval=0.01
        )
        dataset = cluster.load(SOURCE)
        reference = run_canonical(dataset, HIST)
        members = [format_address(w.address) for w in cluster.workers]
        # Simulate the interruption: version 1 committed on worker 0
        # only, then the initiating root vanishes.
        cluster.workers[0].rebalance_commit(1, 0, 2, members, {})
        cluster.close()

        healed = ProcessCluster(
            addresses=daemons[:2], aggregation_interval=0.01
        )
        try:
            assert healed.placement_version == 1
            placements = [w.placement_info() for w in healed.workers]
            assert [p["version"] for p in placements] == [1, 1]
            assert [p["index"] for p in placements] == [0, 1]
            dataset2 = healed.load(SOURCE)  # replays after the repair evict
            assert run_canonical(dataset2, HIST) == reference
        finally:
            healed.close()

    def test_retired_farewell_heals_uncommitted_survivors(self, daemons):
        """The worst interruption: a shrink retired the departing worker
        but none of the survivors committed.  Only the retired worker's
        farewell report knows the target assignment — the next attach
        must read it, drive the survivors' commits, and settle."""
        from repro.engine.placement import format_address

        cluster = ProcessCluster(
            addresses=daemons[:3], aggregation_interval=0.01
        )
        survivors = [format_address(w.address) for w in cluster.workers[:2]]
        cluster.workers[2].retire(1, survivors)
        cluster.close()

        healed = ProcessCluster(
            addresses=daemons[:3], aggregation_interval=0.01
        )
        try:
            assert healed.placement_version == 1
            assert len(healed.workers) == 2
            placements = [w.placement_info() for w in healed.workers]
            assert [p["index"] for p in placements] == [0, 1]
            assert {p["count"] for p in placements} == {2}
        finally:
            healed.close()

    def test_sigterm_drains_gracefully_mid_sketch(self):
        """SIGTERM mid-stream: the in-flight sketch finishes, the daemon
        refuses new state and exits 0 — shrink and CI teardown never race
        an abrupt kill."""
        proc, address = spawn_daemon("elastic-99")
        cluster = ProcessCluster(addresses=[address], aggregation_interval=0.01)
        try:
            dataset = cluster.load(SOURCE)
            slow_spec = {"type": "slow", "perShardSeconds": 0.05, "inner": HIST}
            reference = run_canonical(dataset, {"type": "histogram",
                                                "column": "Distance",
                                                "buckets": HIST["buckets"]})
            outcome: dict = {}

            def stream() -> None:
                try:
                    run = dataset.run(sketch_from_json(slow_spec))
                    outcome["payload"] = canonical(summary_to_json(run.value))
                except Exception as exc:  # noqa: BLE001
                    outcome["error"] = exc

            thread = threading.Thread(target=stream)
            thread.start()
            time.sleep(0.3)  # the sketch is mid-partials
            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert "error" not in outcome, outcome.get("error")
            assert outcome["payload"] == reference
            assert proc.wait(timeout=30) == 0, "daemon did not exit cleanly"
        finally:
            cluster.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

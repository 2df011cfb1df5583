"""Shard-placement agreement: the multi-root fleet's slicing contract,
as cases of the one placement sync every root runs on attach."""

from __future__ import annotations

import contextlib
import queue
import random
import threading

import pytest

from repro.engine import cluster as cluster_module
from repro.engine.cluster import Cluster, Worker
from repro.engine.remote import ProcessCluster, WorkerServer, _RootLink
from repro.engine.rpc import RpcRequest
from repro.engine.placement import PlacementError, parse_fleet_spec


@contextlib.contextmanager
def listening(count: int):
    """``count`` fresh worker daemons listening on threads; yields their
    addresses."""
    servers, addresses = [], []
    try:
        for i in range(count):
            server = WorkerServer(
                name=f"listen-{i}", cores=1, cache_sweep_interval_seconds=0
            )
            bound: "queue.Queue[tuple[str, int]]" = queue.Queue()
            threading.Thread(
                target=server.run_listen, kwargs={"on_bound": bound.put}, daemon=True
            ).start()
            servers.append(server)
            addresses.append(tuple(bound.get(timeout=10)))
        yield addresses
    finally:
        for server in servers:
            server.begin_drain()


def workers(count: int) -> list[Worker]:
    return [Worker(f"w{i}", cores=1) for i in range(count)]


class TestAgreement:
    def test_fresh_fleet_gets_canonical_assignment(self):
        """Unplaced daemons are assigned by sorted address, so two roots
        listing a fresh fleet in different orders mint identical
        placements."""
        for order in (lambda a: a, lambda a: a[::-1]):
            with listening(3) as addresses:
                root = ProcessCluster(addresses=order(addresses))
                try:
                    assert [w.address for w in root.workers] == sorted(addresses)
                finally:
                    root.close()

    def test_placed_fleet_is_adopted_verbatim(self):
        a, b, c = workers(3)
        Cluster(workers=[c, a, b])  # places c, a, b at slices 0, 1, 2
        assert Cluster(workers=[a, b, c]).workers == [c, a, b]

    def test_partially_placed_fleet_rejected(self, monkeypatch):
        """A fleet another root is still configuring is re-read until the
        deadline: adopted once it is placed, refused if it never is."""
        monkeypatch.setattr(cluster_module, "PLACEMENT_SYNC_SECONDS", 0.3)
        fleet = workers(3)
        fleet[0].configure(0, 3, None, 0, fleet)
        with pytest.raises(PlacementError, match="partially placed"):
            Cluster(workers=fleet)
        finisher = threading.Timer(
            0.1, lambda: [w.configure(i, 3, None, 0, fleet) for i, w in enumerate(fleet)]
        )
        finisher.start()
        assert Cluster(workers=fleet[::-1]).workers == fleet
        finisher.join(10)

    def test_wrong_fleet_size_rejected(self):
        """A fleet placed as 3 slices cannot be attached as 2 workers —
        that worker list describes a different fleet."""
        a, b = workers(2)
        a.configure(0, 3)
        b.configure(1, 3)
        with pytest.raises(PlacementError, match="does not match"):
            Cluster(workers=[a, b])

    def test_duplicate_indices_rejected(self):
        a, b = workers(2)
        a.configure(0, 2)
        b.configure(0, 2)
        with pytest.raises(PlacementError, match="permutation"):
            Cluster(workers=[a, b])

    def test_canonical_order_is_a_permutation(self):
        """Each daemon of a fresh fleet is placed at its rank by address,
        whatever order the root was given."""
        with listening(4) as addresses:
            shuffled = random.Random(7).sample(addresses, len(addresses))
            root = ProcessCluster(addresses=shuffled)
            try:
                placed = {
                    w.address: w.placement_info()["index"] for w in root.workers
                }
            finally:
                root.close()
        assert placed == {a: sorted(addresses).index(a) for a in addresses}


class TestFleetSpec:
    def test_inline_spec(self):
        assert parse_fleet_spec("hosta:1,hostb:2") == [
            ("hosta", 1),
            ("hostb", 2),
        ]

    def test_port_only_defaults_to_localhost(self):
        assert parse_fleet_spec(":9301") == [("127.0.0.1", 9301)]

    def test_file_spec_with_comments_and_announcements(self, tmp_path):
        """A fleet file can be built by redirecting `repro worker --listen`
        stdout: JSON announcement lines parse alongside plain host:port."""
        fleet = tmp_path / "fleet.txt"
        fleet.write_text(
            "# the fleet\n"
            "hosta:9301\n"
            "\n"
            '{"worker": "daemon-1", "port": 9302}\n'
        )
        assert parse_fleet_spec(f"@{fleet}") == [
            ("hosta", 9301),
            ("127.0.0.1", 9302),
        ]

    def test_bad_entry_rejected(self):
        with pytest.raises(PlacementError, match="bad fleet entry"):
            parse_fleet_spec("hosta:not-a-port")

    def test_empty_spec_rejected(self):
        with pytest.raises(PlacementError, match="names no workers"):
            parse_fleet_spec("  , ,")

    def test_missing_file_rejected(self):
        with pytest.raises(PlacementError, match="cannot read fleet file"):
            parse_fleet_spec("@/no/such/fleet.txt")


class TestStickyWorkerPlacement:
    """The worker daemon pins its first configure and defends it."""

    def _dispatch(self, server: WorkerServer, request: RpcRequest):
        return list(server._dispatch(request, _RootLink(None, None)))

    def test_first_configure_pins_reconfigure_must_match(self):
        server = WorkerServer(name="pinned", cores=1)
        [ack] = self._dispatch(
            server,
            RpcRequest(1, "", "configure", {"index": 1, "count": 2}),
        )
        assert ack.kind == "ack"
        assert ack.payload == {"index": 1, "count": 2, "version": 0}
        # A second root configuring the same slice is welcome (it may
        # carry a different aggregation interval).
        [again] = self._dispatch(
            server,
            RpcRequest(
                2,
                "",
                "configure",
                {"index": 1, "count": 2, "aggregationInterval": 0.5},
            ),
        )
        assert again.kind == "ack"
        assert server.worker.aggregation_interval == 0.5

    def test_conflicting_configure_rejected(self):
        server = WorkerServer(name="defended", cores=1)
        self._dispatch(
            server, RpcRequest(1, "", "configure", {"index": 0, "count": 2})
        )
        with pytest.raises(PlacementError, match="re-slicing"):
            self._dispatch(
                server,
                RpcRequest(2, "", "configure", {"index": 1, "count": 2}),
            )
        # The pinned slice survived the attack.
        assert server.worker.index == 0
        assert server.worker.count == 2

    def test_placement_rpc_reports_sticky_state(self):
        server = WorkerServer(name="reporter", cores=1)
        [fresh] = self._dispatch(server, RpcRequest(1, "", "placement", {}))
        assert fresh.payload["index"] is None
        self._dispatch(
            server, RpcRequest(2, "", "configure", {"index": 3, "count": 4})
        )
        [placed] = self._dispatch(server, RpcRequest(3, "", "placement", {}))
        assert (placed.payload["index"], placed.payload["count"]) == (3, 4)

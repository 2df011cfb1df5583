"""Shard-placement agreement: the multi-root fleet's slicing contract."""

from __future__ import annotations

import pytest

from repro.engine.remote import WorkerServer, _RootLink
from repro.engine.rpc import RpcRequest
from repro.engine.placement import (
    PlacementError,
    ShardPlacement,
    agree_placement,
    canonical_order,
    parse_fleet_spec,
)

A, B, C = ("hosta", 9301), ("hostb", 9301), ("hostc", 9301)


class TestAgreement:
    def test_fresh_fleet_gets_canonical_assignment(self):
        """Unplaced workers are assigned by sorted address, so two roots
        listing the fleet in different orders mint identical placements."""
        forward = agree_placement([A, B, C], [None, None, None])
        shuffled = agree_placement([C, A, B], [None, None, None])
        # position -> index; resolve back to address -> index maps.
        by_address_fwd = {addr: idx for addr, idx in zip([A, B, C], forward)}
        by_address_shf = {addr: idx for addr, idx in zip([C, A, B], shuffled)}
        assert by_address_fwd == by_address_shf == {A: 0, B: 1, C: 2}

    def test_placed_fleet_is_adopted_verbatim(self):
        reported = [ShardPlacement(2, 3), ShardPlacement(0, 3), ShardPlacement(1, 3)]
        assert agree_placement([A, B, C], reported) == [2, 0, 1]

    def test_partially_placed_fleet_rejected(self):
        reported = [ShardPlacement(0, 3), None, ShardPlacement(1, 3)]
        with pytest.raises(PlacementError, match="partially placed"):
            agree_placement([A, B, C], reported)

    def test_wrong_fleet_size_rejected(self):
        """A fleet placed as 3 slices cannot be attached as 2 workers —
        that address list describes a different fleet."""
        reported = [ShardPlacement(0, 3), ShardPlacement(1, 3)]
        with pytest.raises(PlacementError, match="does not match"):
            agree_placement([A, B], reported)

    def test_duplicate_indices_rejected(self):
        reported = [ShardPlacement(0, 2), ShardPlacement(0, 2)]
        with pytest.raises(PlacementError, match="permutation"):
            agree_placement([A, B], reported)

    def test_canonical_order_is_a_permutation(self):
        addresses = [("h", p) for p in (9, 3, 7, 1)]
        assignment = canonical_order(addresses)
        assert sorted(assignment) == [0, 1, 2, 3]
        # Lowest port -> index 0.
        assert assignment[3] == 0 and assignment[0] == 3


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
        assert ShardPlacement.from_json(fresh.payload) is None
        self._dispatch(
            server, RpcRequest(2, "", "configure", {"index": 3, "count": 4})
        )
        [placed] = self._dispatch(server, RpcRequest(3, "", "placement", {}))
        assert ShardPlacement.from_json(placed.payload) == ShardPlacement(3, 4)

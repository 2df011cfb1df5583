"""The autoscaler control loop: hysteresis, cooldowns, no flapping.

Everything here drives :class:`repro.service.autoscaler.Autoscaler`
through injected metrics and an injected clock — simulated load through
simulated time — so the stability properties (the acceptance criterion:
no decision flapping across >= 3 cooldown windows under oscillating
load) are asserted deterministically, without a process or a socket.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import HillviewError
from repro.service.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    fleet_pressure,
    read_state,
    worker_pressure,
)

CFG = AutoscalerConfig(
    min_workers=1,
    max_workers=4,
    high_watermark=3.0,
    low_watermark=0.5,
    consecutive_ticks=3,
    cooldown_seconds=30.0,
    interval_seconds=5.0,
)


class FakeFleet:
    """A fleet the tests steer: per-tick pressure plus grow/shrink."""

    def __init__(self, size: int = 2, cores: int = 1):
        self.size = size
        self.cores = cores
        self.pressure = 0.0  # queued requests per worker
        self.unreachable = 0
        self.clock = 0.0
        self.actions: list[tuple[str, float]] = []

    def metrics(self) -> list[dict]:
        reports = []
        for i in range(self.size):
            if i < self.unreachable:
                reports.append({"address": f"w{i}", "error": "down"})
            else:
                reports.append({
                    "inflight": self.pressure * self.cores,
                    "datasetOps": 0,
                    "cores": self.cores,
                })
        return reports

    def grow(self, count: int) -> None:
        self.size += count
        self.actions.append(("grow", self.clock))

    def shrink(self, count: int) -> None:
        self.size -= count
        self.actions.append(("shrink", self.clock))

    def scaler(self, config: AutoscalerConfig = CFG, **kwargs) -> Autoscaler:
        return Autoscaler(
            self.metrics,
            self.grow,
            self.shrink,
            config=config,
            clock=lambda: self.clock,
            **kwargs,
        )

    def run_ticks(self, scaler: Autoscaler, ticks: int):
        decisions = []
        for _ in range(ticks):
            decisions.append(scaler.tick())
            self.clock += scaler.config.interval_seconds
        return decisions


class TestPressure:
    def test_worker_pressure_discounts_the_probe(self):
        assert worker_pressure({"inflight": 0, "datasetOps": 0, "cores": 2}) == 0.0
        assert worker_pressure({"inflight": 4, "datasetOps": 2, "cores": 2}) == 3.0

    def test_fleet_pressure_skips_unreachable(self):
        mean, reachable = fleet_pressure([
            {"inflight": 4, "cores": 1},
            {"address": "w1", "error": "down"},
        ])
        assert (mean, reachable) == (4.0, 1)
        assert fleet_pressure([{"error": "down"}]) == (0.0, 0)


class TestConfigValidation:
    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ValueError, match="dead band"):
            AutoscalerConfig(low_watermark=3.0, high_watermark=1.0).validated()

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_workers=0).validated()
        with pytest.raises(ValueError):
            AutoscalerConfig(min_workers=3, max_workers=2).validated()


class TestControlLaw:
    def test_grow_needs_consecutive_ticks(self):
        fleet = FakeFleet(size=2)
        scaler = fleet.scaler()
        fleet.pressure = 9
        decisions = fleet.run_ticks(scaler, 3)
        assert [d.action for d in decisions] == ["hold", "hold", "grow"]
        assert fleet.size == 3
        assert "est. scan" in decisions[-1].reason

    def test_one_spike_never_scales(self):
        fleet = FakeFleet(size=2)
        scaler = fleet.scaler()
        fleet.pressure = 9
        fleet.run_ticks(scaler, 2)  # 2/3 of the way to a grow...
        fleet.pressure = 1  # ...then back inside the band: streak resets
        fleet.run_ticks(scaler, 1)
        fleet.pressure = 9
        decisions = fleet.run_ticks(scaler, 2)
        assert fleet.actions == []
        assert all(d.action == "hold" for d in decisions)

    def test_cooldown_spaces_actions(self):
        fleet = FakeFleet(size=1)
        scaler = fleet.scaler()
        fleet.pressure = 9
        fleet.run_ticks(scaler, 12)
        assert [a for a, _ in fleet.actions] == ["grow", "grow"]
        (_, first), (_, second) = fleet.actions
        assert second - first >= CFG.cooldown_seconds

    def test_holds_at_max_and_min(self):
        fleet = FakeFleet(size=4)
        scaler = fleet.scaler()
        fleet.pressure = 9
        decisions = fleet.run_ticks(scaler, 4)
        assert fleet.actions == []
        assert "max_workers" in decisions[-1].reason

        fleet = FakeFleet(size=1)
        scaler = fleet.scaler()
        fleet.pressure = 0
        decisions = fleet.run_ticks(scaler, 4)
        assert fleet.actions == []
        assert "min_workers" in decisions[-1].reason

    def test_degraded_fleet_never_shrinks(self):
        fleet = FakeFleet(size=3)
        fleet.unreachable = 1
        scaler = fleet.scaler()
        fleet.pressure = 0
        decisions = fleet.run_ticks(scaler, 5)
        assert fleet.actions == []
        assert any("degraded" in d.reason for d in decisions)

    def test_fully_unreachable_fleet_holds_blind(self):
        fleet = FakeFleet(size=2)
        fleet.unreachable = 2
        scaler = fleet.scaler()
        decisions = fleet.run_ticks(scaler, 3)
        assert all(d.action == "hold" for d in decisions)
        assert "blind" in decisions[-1].reason

    def test_failed_grow_becomes_hold_and_opens_cooldown(self):
        fleet = FakeFleet(size=2)

        def broken_grow(count: int) -> None:
            raise HillviewError("standby pool exhausted; cannot grow")

        scaler = Autoscaler(
            fleet.metrics, broken_grow, fleet.shrink,
            config=CFG, clock=lambda: fleet.clock,
        )
        fleet.pressure = 9
        decisions = fleet.run_ticks(scaler, 4)
        assert decisions[2].action == "hold"
        assert "grow failed" in decisions[2].reason
        # The failed attempt opened a cooldown: the very next tick must
        # not hammer the broken pool again.
        assert "cooling down" in decisions[3].reason


class TestNoFlapping:
    """The acceptance criterion: oscillating load, >= 3 cooldown
    windows, no flapping."""

    def test_fast_oscillation_produces_zero_actions(self):
        """Load flipping sides every tick never builds a streak: across
        three-plus cooldown windows the fleet size never moves."""
        fleet = FakeFleet(size=2)
        scaler = fleet.scaler()
        windows = 4
        ticks = int(windows * CFG.cooldown_seconds / CFG.interval_seconds)
        for tick in range(ticks):
            fleet.pressure = 9 if tick % 2 == 0 else 0
            fleet.run_ticks(scaler, 1)
        assert fleet.actions == [], (
            f"oscillating load caused resizes: {fleet.actions}"
        )
        assert fleet.size == 2

    def test_slow_oscillation_respects_cooldown_spacing(self):
        """Load swinging slower than the streak threshold may scale,
        but never more than once per cooldown window and never as an
        immediate grow/shrink reversal."""
        fleet = FakeFleet(size=2)
        scaler = fleet.scaler()
        windows = 4
        ticks = int(windows * CFG.cooldown_seconds / CFG.interval_seconds)
        for tick in range(ticks):
            # Period of 8 ticks (40 simulated seconds): long enough to
            # build a 3-tick streak on each side.
            fleet.pressure = 9 if (tick // 4) % 2 == 0 else 0
            fleet.run_ticks(scaler, 1)
        for (_, earlier), (_, later) in zip(
            fleet.actions, fleet.actions[1:]
        ):
            assert later - earlier >= CFG.cooldown_seconds, (
                f"two resizes inside one cooldown window: {fleet.actions}"
            )
        assert 1 <= fleet.size <= 4

    def test_steady_load_reaches_stable_size(self):
        """Steady high load grows to max and then *stays* there."""
        fleet = FakeFleet(size=1)
        scaler = fleet.scaler()
        fleet.pressure = 9
        fleet.run_ticks(scaler, 40)
        assert fleet.size == CFG.max_workers
        grow_count = len([a for a, _ in fleet.actions if a == "grow"])
        assert grow_count == CFG.max_workers - 1
        settle = fleet.run_ticks(scaler, 6)
        assert all(d.action == "hold" for d in settle)


class TestStateFile:
    def test_state_roundtrip(self, tmp_path):
        path = str(tmp_path / "autoscaler.json")
        fleet = FakeFleet(size=1)
        scaler = fleet.scaler(state_path=path)
        fleet.pressure = 9
        fleet.run_ticks(scaler, 3)
        state = read_state(path)
        assert state is not None
        assert state["target"] == 2
        assert state["lastDecision"]["action"] == "grow"
        assert len(state["decisions"]) == 3
        assert state["config"]["cooldown_seconds"] == 30.0

    def test_read_state_degrades_on_garbage(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert read_state(missing) is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert read_state(str(bad)) is None
        wrong_shape = tmp_path / "list.json"
        wrong_shape.write_text(json.dumps([1, 2]))
        assert read_state(str(wrong_shape)) is None

    def test_run_max_ticks_and_callback(self):
        fleet = FakeFleet(size=2)
        scaler = fleet.scaler(
            config=AutoscalerConfig(
                max_workers=4, interval_seconds=0.001,
                cooldown_seconds=0.0,
            ),
        )
        seen = []
        ticks = scaler.run(max_ticks=3, on_decision=seen.append)
        assert ticks == 3
        assert len(seen) == 3

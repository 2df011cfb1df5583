"""Metrics-driven fleet autoscaler (ROADMAP item 3).

PR 5 made resize *possible* (``grow``/``shrink`` move only the shard
slices that change hands); PR 6 made queue depth, shard counts, and
cache hit rates *live signals* (``metricsSnapshot`` /
``query_fleet_metrics``).  This module closes the loop: a control loop
that watches those signals and resizes the fleet — with enough
hysteresis that a noisy load never makes it flap.

The loop is deliberately split in two:

* :class:`Autoscaler` — the pure control law.  ``evaluate(reports)``
  turns one fleet metrics sample into a :class:`Decision`; ``tick()``
  samples, evaluates, and acts.  The clock, the metrics source, and the
  grow/shrink actions are all injected, so tests drive simulated load
  through simulated time and assert on the decision stream without a
  single process.
* ``repro fleet autoscale`` (``cli.py``) — the operational wrapper: it
  binds the loop to a live fleet (``query_fleet_metrics`` for signals, a
  transient administrative :class:`~repro.engine.remote.ProcessCluster`
  for actions) and a standby *pool* of worker daemons to grow from.

**The control law.**  Each worker's *pressure* is its queued work
normalized by its cores: ``(inflight + datasetOps) / cores``.  The
fleet pressure is the mean over reachable workers.  Scaling requires *all three* of:

1. pressure beyond a watermark (``high_watermark`` to grow,
   ``low_watermark`` to shrink) — the gap between them is the
   hysteresis band where the loop always holds;
2. the same side of the band for ``consecutive_ticks`` samples in a row
   (one spiky sample is not a trend);
3. ``cooldown_seconds`` elapsed since the last action — a grow's effect
   (shards rebalanced, caches prewarmed) takes a few queries to show up
   in the signals, and acting again before it does is how oscillation
   starts.

Decisions carry a human-readable reason that includes a marginal-cost
estimate from :class:`~repro.engine.costmodel.CostModel`: what the
per-worker scan time for a nominal query is now vs after the action.
Every decision is appended to a bounded history and (optionally)
published atomically to a JSON state file that ``repro fleet top``
renders next to the live per-worker metrics.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Callable

from repro.engine.costmodel import CostModel
from repro.errors import HillviewError
from repro.obs.logs import log_event
from repro.obs.metrics import REGISTRY

#: Decisions kept in the in-memory history (and the tail published to
#: the state file).  Bounded so a week-long loop cannot grow a list.
HISTORY = 64


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs of the control law.  All hysteresis lives here."""

    min_workers: int = 1
    max_workers: int = 8
    #: Mean pressure per worker core above which the fleet grows.
    high_watermark: float = 3.0
    #: ... and below which it shrinks.  The (low, high) gap is the dead
    #: band: inside it the loop always holds.
    low_watermark: float = 0.5
    #: Samples that must agree before either watermark triggers.
    consecutive_ticks: int = 3
    #: Minimum quiet time after any action before the next one.
    cooldown_seconds: float = 30.0
    #: Sampling cadence of :meth:`Autoscaler.run`.
    interval_seconds: float = 5.0
    #: Nominal query used for the marginal-cost text in decision
    #: reasons (rows scanned per query, columns touched).
    assumed_rows: int = 10_000_000
    assumed_columns: int = 2

    def validated(self) -> "AutoscalerConfig":
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if self.low_watermark >= self.high_watermark:
            raise ValueError(
                "low_watermark must be strictly below high_watermark "
                "(the gap is the hysteresis dead band)"
            )
        if self.consecutive_ticks < 1:
            raise ValueError("consecutive_ticks must be >= 1")
        if self.cooldown_seconds < 0 or self.interval_seconds <= 0:
            raise ValueError("cooldown/interval must be non-negative")
        return self


@dataclass(frozen=True)
class Decision:
    """One control-loop verdict: what to do and, crucially, why."""

    action: str  #: ``"grow"`` | ``"shrink"`` | ``"hold"``
    reason: str
    size: int  #: fleet size when the decision was made
    target: int  #: fleet size the decision aims for
    pressure: float  #: mean pressure per worker core at decision time
    at: float  #: injected-clock timestamp

    def to_json(self) -> dict:
        return {
            "action": self.action,
            "reason": self.reason,
            "size": self.size,
            "target": self.target,
            "pressure": round(self.pressure, 4),
            "at": round(self.at, 3),
        }


def worker_pressure(report: dict) -> float:
    """Queued work per core on one worker, from its metrics snapshot.

    ``datasetOps`` adds load/map/rebalance operations that hold the
    daemon busy without a per-request queue entry.
    """
    inflight = max(0, int(report.get("inflight", 0)))
    ops = max(0, int(report.get("datasetOps", 0)))
    cores = max(1, int(report.get("cores", 1)))
    return (inflight + ops) / cores


def fleet_pressure(reports: "list[dict]") -> "tuple[float, int]":
    """(mean pressure over reachable workers, reachable count)."""
    reachable = [r for r in reports if "error" not in r]
    if not reachable:
        return 0.0, 0
    total = sum(worker_pressure(r) for r in reachable)
    return total / len(reachable), len(reachable)


class Autoscaler:
    """The control loop: sample → evaluate → act, with hysteresis.

    ``metrics`` returns one fleet sample (the ``query_fleet_metrics``
    shape: one dict per worker, unreachable ones carrying ``"error"``).
    ``grow(n)`` / ``shrink(n)`` perform the resize and raise
    :class:`~repro.errors.HillviewError` (or ``OSError``) on failure —
    a failed action is recorded as a hold and the cooldown still
    applies, so a broken pool is retried gently, not hammered.
    """

    def __init__(
        self,
        metrics: "Callable[[], list[dict]]",
        grow: "Callable[[int], object]",
        shrink: "Callable[[int], object]",
        config: AutoscalerConfig | None = None,
        clock: "Callable[[], float]" = time.monotonic,
        cost_model: CostModel | None = None,
        state_path: str | None = None,
    ):
        self.config = (config or AutoscalerConfig()).validated()
        self._metrics = metrics
        self._grow = grow
        self._shrink = shrink
        self._clock = clock
        self.cost_model = cost_model or CostModel()
        self.state_path = state_path
        #: Signed agreement streak: +k after k consecutive above-high
        #: samples, -k after k consecutive below-low samples, 0 inside
        #: the dead band.  Crossing the band resets it.
        self._streak = 0
        self._last_action_at: float | None = None
        self.last_decision: Decision | None = None
        self.decisions: "deque[Decision]" = deque(maxlen=HISTORY)

    # -- the control law -------------------------------------------------
    def _marginal_cost(self, size: int, target: int) -> str:
        """Per-worker scan time for the nominal query, now vs after."""
        cfg = self.config
        total = self.cost_model.scan_cost_s(
            cfg.assumed_rows, cfg.assumed_columns
        )
        now_s = total / max(1, size)
        then_s = total / max(1, target)
        return (
            f"est. scan {now_s * 1e3:.0f}ms -> {then_s * 1e3:.0f}ms/worker"
        )

    def evaluate(self, reports: "list[dict]") -> Decision:
        """One sample through the control law.  Updates the streak but
        performs no action — :meth:`tick` acts on the verdict."""
        cfg = self.config
        now = self._clock()
        size = len(reports)
        pressure, reachable = fleet_pressure(reports)

        def hold(reason: str) -> Decision:
            return Decision("hold", reason, size, size, pressure, now)

        if reachable == 0:
            # Blind: no signal, no action.  Growing into an outage the
            # loop cannot even observe would be guesswork.
            self._streak = 0
            return hold("no reachable worker; holding blind")

        if pressure > cfg.high_watermark:
            self._streak = self._streak + 1 if self._streak > 0 else 1
        elif pressure < cfg.low_watermark:
            self._streak = self._streak - 1 if self._streak < 0 else -1
        else:
            self._streak = 0
            return hold(
                f"pressure {pressure:.2f}/core inside the "
                f"[{cfg.low_watermark:g}, {cfg.high_watermark:g}] band"
            )

        if self._last_action_at is not None:
            elapsed = now - self._last_action_at
            if elapsed < cfg.cooldown_seconds:
                return hold(
                    f"cooling down {cfg.cooldown_seconds - elapsed:.0f}s "
                    f"more (pressure {pressure:.2f}/core)"
                )

        if self._streak > 0:
            if self._streak < cfg.consecutive_ticks:
                return hold(
                    f"pressure {pressure:.2f}/core > "
                    f"{cfg.high_watermark:g} for {self._streak}/"
                    f"{cfg.consecutive_ticks} ticks"
                )
            if size >= cfg.max_workers:
                return hold(
                    f"pressure {pressure:.2f}/core but already at "
                    f"max_workers={cfg.max_workers}"
                )
            return Decision(
                "grow",
                f"pressure {pressure:.2f}/core > {cfg.high_watermark:g} "
                f"for {self._streak} ticks; "
                + self._marginal_cost(size, size + 1),
                size,
                size + 1,
                pressure,
                now,
            )

        # Below the low watermark.
        if -self._streak < cfg.consecutive_ticks:
            return hold(
                f"pressure {pressure:.2f}/core < {cfg.low_watermark:g} "
                f"for {-self._streak}/{cfg.consecutive_ticks} ticks"
            )
        if size <= cfg.min_workers:
            return hold(
                f"pressure {pressure:.2f}/core but already at "
                f"min_workers={cfg.min_workers}"
            )
        if reachable < size:
            # A degraded fleet is a reason to heal, never to shrink:
            # retiring a healthy worker while another is down would
            # hand the survivors *more* shards mid-outage.
            return hold(
                f"{size - reachable} worker(s) unreachable; "
                "not shrinking a degraded fleet"
            )
        return Decision(
            "shrink",
            f"pressure {pressure:.2f}/core < {cfg.low_watermark:g} "
            f"for {-self._streak} ticks; "
            + self._marginal_cost(size, size - 1),
            size,
            size - 1,
            pressure,
            now,
        )

    # -- acting -----------------------------------------------------------
    def tick(self) -> Decision:
        """Sample the fleet, evaluate, act, record, publish."""
        decision = self.evaluate(self._metrics())
        if decision.action != "hold":
            delta = abs(decision.target - decision.size)
            try:
                if decision.action == "grow":
                    self._grow(delta)
                else:
                    self._shrink(delta)
            except (HillviewError, OSError, ValueError) as exc:
                decision = replace(
                    decision,
                    action="hold",
                    target=decision.size,
                    reason=f"{decision.action} failed: {exc}",
                )
                # The failed attempt still opens a cooldown window so a
                # broken pool is retried on the loop's timescale, not
                # every tick.
                self._last_action_at = decision.at
                self._streak = 0
            else:
                self._last_action_at = decision.at
                self._streak = 0
                REGISTRY.counter(
                    f"autoscaler.{decision.action}s",
                    "fleet resizes performed by the autoscaler",
                ).inc()
                log_event(
                    "autoscaler.resize",
                    action=decision.action,
                    size=decision.size,
                    target=decision.target,
                    reason=decision.reason,
                )
        self.last_decision = decision
        self.decisions.append(decision)
        if self.state_path:
            self.write_state(self.state_path)
        return decision

    def run(
        self,
        stop: "threading.Event | None" = None,
        max_ticks: int | None = None,
        on_decision: "Callable[[Decision], object] | None" = None,
    ) -> int:
        """Tick at ``interval_seconds`` until ``stop`` is set (or
        ``max_ticks`` elapse).  Runs in the caller's thread — the CLI
        owns the loop, tests drive :meth:`tick` directly."""
        stop = stop if stop is not None else threading.Event()
        ticks = 0
        while max_ticks is None or ticks < max_ticks:
            decision = self.tick()
            ticks += 1
            if on_decision is not None:
                on_decision(decision)
            if max_ticks is not None and ticks >= max_ticks:
                break
            if stop.wait(self.config.interval_seconds):
                break
        return ticks

    # -- the published state ----------------------------------------------
    def state(self) -> dict:
        """The state-file payload (also handy for in-process callers)."""
        last = self.last_decision
        return {
            "updatedAt": time.time(),
            "config": asdict(self.config),
            "streak": self._streak,
            "target": last.target if last is not None else None,
            "lastDecision": last.to_json() if last is not None else None,
            "decisions": [d.to_json() for d in self.decisions],
        }

    def write_state(self, path: str) -> None:
        """Atomically publish :meth:`state` for ``repro fleet top``."""
        payload = json.dumps(self.state(), sort_keys=True, indent=2)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        os.replace(tmp, path)


def read_state(path: str) -> dict | None:
    """Read a state file written by :meth:`Autoscaler.write_state`;
    ``None`` when absent or unreadable (``fleet top`` degrades to the
    plain per-worker view)."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None

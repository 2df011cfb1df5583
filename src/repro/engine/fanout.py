"""The root's side of one fan-out, as a clock-free state machine (§5.3).

The root of the paper's aggregation tree merges the latest cumulative
partial of every worker and streams a better result after each merge.
:class:`FanOut` owns everything the root *decides* while it does so:

* the latest partial per slot and the summaries stolen from it;
* the merge, folded in slot order so arrival order never reaches the
  bytes, and the progress fraction;
* the steal policy — the straggler gate, victim choice, claim budget,
  restart epochs, victims with nothing left to cede and the one claim
  in flight per victim;
* the query profile, and the check that every stolen slice tiles its
  victim's unfolded suffix.

It has no threads, sockets, queue or clock of its own.  A driver
(:meth:`~repro.engine.cluster.ClusterDataSet._sketch_attempt`) injects
the clock and feeds it one event at a time — :meth:`partial`,
:meth:`restarted`, :meth:`ended`, :meth:`claimed` — and carries out the
actions each returns: a :class:`PartialResult` to yield, or a
:class:`Claim` to run.  Tests drive it the same way with a fake clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generic, Sequence, TypeVar, Union

from repro.core.sketch import Sketch
from repro.engine.progress import CancellationToken, PartialResult
from repro.errors import EngineError
from repro.obs.metrics import REGISTRY

R = TypeVar("R")

#: A straggler must have at least this many unstarted shards before an
#: idle peer bothers claiming any — below this, letting the victim
#: finish beats the claim round-trip.
STEAL_MIN_PENDING = 2

#: Upper bound on shards moved by one claim.  Thieves loop (another
#: claim fires as each one returns), so a small cap keeps claims cheap
#: and lets several idle peers share one straggler's backlog.
STEAL_MAX_BUDGET = 8


@dataclass(frozen=True)
class Claim:
    """Ask the ``victim`` slot's ``run`` to cede up to ``budget``
    unstarted shards for the idle ``thief`` slot to summarize."""

    thief: int
    victim: int
    run: str
    budget: int


Action = Union[PartialResult, Claim]


class FanOut(Generic[R]):
    """One fan-out attempt over ``len(names)`` worker slots.

    ``slot_totals`` is each slot's shard count from the ensure phase;
    ``steal_after`` is how long (by ``clock``) the fan-out must run
    before a claim is considered; ``fanout`` prefixes the run names
    that claims address (``fanout/slot/epoch``).  ``profile`` is the
    dict every yielded partial carries: the driver seeds it,
    :meth:`result` finishes it.  It is kept unconditionally — a few
    clock reads per event — so ``profile: true`` replies work with
    tracing off.
    """

    def __init__(
        self,
        sketch: Sketch[R],
        names: Sequence[str],
        slot_totals: Sequence[int],
        *,
        clock: Callable[[], float],
        steal_after: float,
        token: CancellationToken | None = None,
        fanout: str = "",
        profile: dict | None = None,
        engine_started: float | None = None,
    ):
        self.sketch = sketch
        self.clock = clock
        self.token = token
        self.fanout = fanout
        self.slot_totals = list(slot_totals)
        self.total_shards = sum(self.slot_totals) or 1
        self.slots = range(len(names))
        # One slot has no peer to steal for it: a gate that never opens.
        self.steal_after = steal_after if len(names) > 1 else math.inf
        self.latest: dict[int, R] = {}
        self.done = dict.fromkeys(self.slots, 0)
        self.stolen: "dict[int, dict[int, object]]" = {i: {} for i in self.slots}
        self.epochs = dict.fromkeys(self.slots, 0)
        #: Never claimed: finished slots, and victims whose last claim
        #: ceded nothing, until their next partial.
        self.unclaimable: set[int] = set()
        #: victim -> (thief, epoch) of its one claim in flight.
        self.in_flight: "dict[int, tuple[int, int]]" = {}
        self.idle: list[int] = []
        self.open = len(names)
        self.final: R | None = None
        self.error: BaseException | None = None
        self.merge_seconds = 0.0
        self.stats: list[dict] = [
            {
                "name": name,
                "shards": 0,
                "bytes": 0,
                "emissions": 0,
                "cacheHit": False,
                "attempts": 0,
            }
            for name in names
        ]
        self.profile = {} if profile is None else profile
        self.profile["workers"] = self.stats
        self._bytes = REGISTRY.counter(
            "cluster.bytes_to_root",
            "serialized summary bytes received by the root",
        )
        self._claims = REGISTRY.counter(
            "cluster.steal.claims", "work-steal claims dispatched by roots"
        )
        self._slices = REGISTRY.counter(
            "cluster.steal.slices",
            "shard slices reassigned to idle workers mid-sketch",
        )
        self.started = clock()
        self.engine_started = (
            self.started if engine_started is None else engine_started
        )

    def run_name(self, slot: int, epoch: int) -> str:
        """The name of ``slot``'s run in ``epoch`` — what a claim addresses."""
        return f"{self.fanout}/{slot}/{epoch}"

    @property
    def finished(self) -> bool:
        """Every slot ended and no claim is outstanding."""
        return not self.open and not self.in_flight

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def partial(self, slot: int, emission, at: float) -> "list[Action]":
        """A cumulative partial (a ``WorkerEmission``) read from ``slot``
        at clock time ``at``."""
        stat = self.stats[slot]
        self.done[slot] = stat["shards"] = emission.shards_done
        offset = round(at - self.started, 6)
        stat.setdefault("firstEmitSeconds", offset)
        stat["lastEmitSeconds"] = offset
        stat["bytes"] += emission.bytes
        stat["emissions"] += 1
        stat["cacheHit"] = stat["cacheHit"] or emission.cache_hit
        self.latest[slot] = emission.summary
        self._bytes.inc(emission.bytes)
        # An emitter whose last claim ceded nothing may be claimed once
        # more (its run may have registered since): at most one empty
        # claim per partial.  Cadence partials also re-evaluate the
        # straggler gate for thieves idle since before it opened.
        self.unclaimable.discard(slot)
        return [self._merge(emission.bytes), *self._steal()]

    def restarted(self, slot: int) -> "list[Action]":
        """``slot``'s worker was revived and re-runs from scratch: the
        fresh run recomputes *every* shard, so summaries stolen from the
        dead run are dropped (they would double-count), and a new epoch
        names its run."""
        self.epochs[slot] += 1
        self.stolen[slot].clear()
        self.done[slot] = self.stats[slot]["shards"] = 0
        self.stats[slot].pop("ceded", None)
        return []

    def ended(
        self,
        slot: int,
        error: BaseException | None,
        attempts: int,
        at: float,
    ) -> "list[Action]":
        """``slot``'s stream ended (after ``attempts`` runs) at clock
        time ``at``, cleanly or with ``error``, which fails the query.
        A clean end makes the slot an idle thief."""
        stat = self.stats[slot]
        stat["attempts"] = attempts
        stat["endSeconds"] = round(at - self.started, 6)
        self.open -= 1
        self.unclaimable.add(slot)
        if error is not None:
            stat["error"] = str(error)
            self._fail(error)
            return []
        self.idle.append(slot)
        return self._steal()

    def claimed(
        self,
        victim: int,
        stolen: "list[tuple[int, object]] | None",
        error: BaseException | None = None,
    ) -> "list[Action]":
        """The claim on ``victim`` returned ``(global index, summary)``
        pairs; ``None`` means ceded parcels nobody could summarize,
        which fails the query with ``error`` rather than return a
        silently incomplete merge."""
        thief, epoch = self.in_flight.pop(victim)
        self.idle.append(thief)
        actions: "list[Action]" = []
        if stolen is None:
            self._fail(error)
        elif not stolen:
            self.unclaimable.add(victim)
        elif epoch == self.epochs[victim]:
            self.stolen[victim].update(stolen)
            self._slices.inc(len(stolen))
            self.stats[victim]["ceded"] = len(self.stolen[victim])
            actions.append(self._merge(0))
        return actions + self._steal()

    def result(self) -> R:
        """Finish the profile, check steal coverage, and return the
        final merge — or raise the first failure."""
        last = [s["lastEmitSeconds"] for s in self.stats if "lastEmitSeconds" in s]
        now = self.clock()
        self.profile.update(
            mergeSeconds=round(self.merge_seconds, 6),
            stragglerSeconds=round(max(last), 6) if last else 0.0,
            fanoutSeconds=round(now - self.started, 6),
            engineSeconds=round(now - self.engine_started, 6),
            totalShards=self.total_shards,
            stolenSlices=sum(len(extras) for extras in self.stolen.values()),
        )
        if self.error is not None:
            raise self.error
        self._check_coverage()
        return self.final  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _fail(self, error: BaseException | None) -> None:
        if self.error is None:
            self.error = error

    def _pending(self, victim: int) -> int:
        return (
            self.slot_totals[victim]
            - self.done[victim]
            - len(self.stolen[victim])
        )

    def _steal(self) -> list[Claim]:
        """Pair idle thieves with the stragglers that have the most
        unstarted shards, once the gate is open.  Claims this early
        cost more than they save and break the victim's slice
        memoization; the next event re-evaluates."""
        if not self.idle or (self.token is not None and self.token.cancelled):
            return []
        if self.clock() - self.started < self.steal_after:
            return []
        claims: list[Claim] = []
        while self.idle:
            candidates = [
                v
                for v in self.slots
                if v not in self.unclaimable
                and v not in self.in_flight
                and self._pending(v) >= STEAL_MIN_PENDING
            ]
            if not candidates:
                break
            victim = max(candidates, key=self._pending)
            thief = self.idle.pop()
            epoch = self.epochs[victim]
            budget = max(1, min(STEAL_MAX_BUDGET, self._pending(victim) // 2))
            self.in_flight[victim] = (thief, epoch)
            self._claims.inc()
            claims.append(Claim(thief, victim, self.run_name(victim, epoch), budget))
        return claims

    def _merge(self, received_bytes: int) -> PartialResult[R]:
        # Slot order, not arrival order, and stolen summaries appended
        # to their victim's prefix fold in global shard order: the final
        # bytes must not depend on which worker emitted (or stole) first.
        began = self.clock()
        values = []
        for slot in self.slots:
            extras = self.stolen[slot]
            if slot not in self.latest and not extras:
                continue
            value = self.latest.get(slot, self.sketch.zero())
            for g in sorted(extras):
                value = self.sketch.merge(value, extras[g])
            values.append(value)
        self.final = self.sketch.merge_all(values)
        self.merge_seconds += self.clock() - began
        covered = sum(self.done.values()) + sum(
            len(extras) for extras in self.stolen.values()
        )
        return PartialResult(
            covered / self.total_shards,
            self.final,
            received_bytes=received_bytes,
            worker_cache_hits=sum(s["cacheHit"] for s in self.stats),
            profile=self.profile,
        )

    def _check_coverage(self) -> None:
        """The stolen set must be exactly each victim's unfolded suffix:
        the shards it folded plus the stolen global indices tile
        ``range(slot_totals[v])``.  Anything else means a slice was
        double-summarized or silently dropped, and a loud failure beats
        byte-divergent results."""
        count = len(self.slot_totals)
        for victim, extras in self.stolen.items():
            if not extras:
                continue
            positions = {(g - victim) // count for g in extras}
            expected = set(range(self.done[victim], self.slot_totals[victim]))
            if positions != expected:
                raise EngineError(
                    f"work stealing left slot {victim} with shard coverage "
                    f"{sorted(positions)} over prefix {self.done[victim]} "
                    f"of {self.slot_totals[victim]} shards"
                )

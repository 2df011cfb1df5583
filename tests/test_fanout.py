"""The root's fan-out decisions, driven as a state machine.

:class:`FanOut` has no threads, sockets or clock of its own, so every
case here is a table: a fake clock and a sequence of events (partials,
restarts, ends, claim results), and the claims, merges, profile or
failure the root must produce from them.  The summaries are *trails* —
the shard labels folded, in fold order — so a merge in any order but
slot order (stolen shards after their victim's prefix, in global shard
order) changes the bytes.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.cluster import WorkerEmission
from repro.engine.fanout import STEAL_MAX_BUDGET, STEAL_MIN_PENDING, Claim, FanOut
from repro.engine.progress import CancellationToken, PartialResult
from repro.errors import EngineError


class Trail:
    """An order-sensitive summary: the global shard indices folded."""

    def __init__(self, shards: "tuple[int, ...]" = ()):
        self.shards = shards

    def to_bytes(self) -> bytes:
        return ",".join(map(str, self.shards)).encode()


class TrailSketch:
    name = "trail"

    def zero(self) -> Trail:
        return Trail()

    def merge(self, left: Trail, right: Trail) -> Trail:
        return Trail(left.shards + right.shards)

    def merge_all(self, values: "list[Trail]") -> Trail:
        result = self.zero()
        for value in values:
            result = self.merge(result, value)
        return result


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def fan_out(totals, steal_after=0.0, token=None, clock=None) -> FanOut:
    return FanOut(
        TrailSketch(),
        [f"w{i}" for i in range(len(totals))],
        totals,
        clock=clock or Clock(),
        steal_after=steal_after,
        token=token,
        fanout="f",
    )


def shard(fan: FanOut, slot: int, position: int) -> int:
    """The global index of ``slot``'s ``position``-th shard."""
    return slot + position * len(fan.slot_totals)


def partial(fan: FanOut, slot: int, done: int, cache_hit=False) -> WorkerEmission:
    """``slot``'s cumulative partial after folding ``done`` shards."""
    trail = Trail(tuple(shard(fan, slot, p) for p in range(done)))
    return WorkerEmission(trail, done, 10 * done, cache_hit)


def step(fan: FanOut, event: tuple) -> list:
    """Apply one table event; return the actions it produced."""
    verb, slot, *rest = event
    clock = fan.clock
    if verb == "partial":
        return fan.partial(slot, partial(fan, slot, *rest), clock())
    if verb == "restarted":
        return fan.restarted(slot)
    if verb == "ended":
        return fan.ended(slot, rest[0] if rest else None, 1, clock())
    if verb == "claimed":
        (positions,) = rest
        stolen = None
        if positions is not None:
            stolen = [(shard(fan, slot, p), Trail((shard(fan, slot, p),)))
                      for p in positions]
        return fan.claimed(slot, stolen, RuntimeError("thief and root failed"))
    raise AssertionError(verb)


def claims(actions: list) -> "list[tuple]":
    return [
        (a.thief, a.victim, a.run, a.budget)
        for a in actions
        if isinstance(a, Claim)
    ]


def run_table(fan: FanOut, table) -> None:
    """Each row is ``(event, expected claims)``; ``("at", t)`` moves the
    fake clock and produces nothing."""
    for event, expected in table:
        if event[0] == "at":
            fan.clock.now = event[1]
            continue
        assert claims(step(fan, event)) == list(expected), event


# ---------------------------------------------------------------------------
# The steal policy
# ---------------------------------------------------------------------------
POLICY = {
    "no claim before the gate, one on the first event after it": (
        (1, 8),
        1.0,
        [
            (("at", 0.2), []),
            (("partial", 0, 1), []),
            (("ended", 0), []),  # an idle thief, but the gate is shut
            (("partial", 1, 1), []),
            (("at", 0.99), []),
            (("partial", 1, 2), []),
            (("at", 1.0), []),
            (("partial", 1, 3), [(0, 1, "f/1/0", 2)]),
        ],
    ),
    "most pending wins": (
        (1, 8, 8),
        0.0,
        [
            (("partial", 1, 3), []),
            (("partial", 2, 1), []),
            (("ended", 0), [(0, 2, "f/2/0", 3)]),
        ],
    ),
    "slot order breaks ties, and a victim has one claim in flight": (
        (1, 1, 8, 8),
        0.0,
        [
            (("partial", 2, 2), []),
            (("partial", 3, 2), []),
            (("ended", 0), [(0, 2, "f/2/0", 3)]),
            (("ended", 1), [(1, 3, "f/3/0", 3)]),
            (("partial", 2, 3), []),  # no idle thief left
        ],
    ),
    "an empty claim leaves the victim unclaimable until its next partial": (
        (1, 8),
        0.0,
        [
            (("ended", 0), [(0, 1, "f/1/0", 4)]),
            (("claimed", 1, []), []),
            (("partial", 1, 1), [(0, 1, "f/1/0", 3)]),
            (("claimed", 1, []), []),
        ],
    ),
    "a multi-core straggler costs one empty claim per partial": (
        (1, 8),
        0.0,
        [
            (("partial", 1, 6), []),
            (("ended", 0), [(0, 1, "f/1/0", 1)]),
            (("claimed", 1, []), []),  # both pending shards already started
            (("partial", 1, 7), []),  # one pending: let it finish
            (("ended", 1), []),
        ],
    ),
    "a balanced fleet that finishes inside the gate never claims": (
        (4, 4),
        0.25,
        [
            (("at", 0.05), []),
            (("partial", 0, 2), []),
            (("partial", 1, 1), []),
            (("at", 0.1), []),
            (("partial", 0, 4), []),
            (("ended", 0), []),  # an idle thief, three shards pending
            (("at", 0.2), []),
            (("partial", 1, 3), []),
            (("at", 0.24), []),
            (("partial", 1, 4), []),
            (("ended", 1), []),
        ],
    ),
    "a finished slot is never a victim": (
        (1, 8),
        0.0,
        [
            (("partial", 1, 2), []),
            (("ended", 1), []),  # cancelled with 6 shards unfolded
            (("ended", 0), []),
        ],
    ),
    "a returning thief claims again": (
        (1, 40),
        0.0,
        [
            (("ended", 0), [(0, 1, "f/1/0", 8)]),
            (("claimed", 1, range(32, 40)), [(0, 1, "f/1/0", 8)]),
        ],
    ),
    "stolen summaries from a dead run are dropped; the new run is named by its epoch": (
        (1, 8),
        0.0,
        [
            (("partial", 1, 1), []),
            (("ended", 0), [(0, 1, "f/1/0", 3)]),
            (("restarted", 1), []),
            (("claimed", 1, [5, 6, 7]), [(0, 1, "f/1/1", 4)]),
        ],
    ),
}


@pytest.mark.parametrize("totals,steal_after,table", POLICY.values(), ids=list(POLICY))
def test_steal_policy(totals, steal_after, table):
    run_table(fan_out(totals, steal_after), table)


@pytest.mark.parametrize(
    "total,done,budget",
    [
        (40, 1, STEAL_MAX_BUDGET),  # pending 39 // 2 = 19, capped
        (18, 2, 8),
        (10, 1, 4),
        (5, 1, 2),
        (4, 1, 1),  # pending 3 // 2 = 1
        (3, 1, 1),  # pending 2 // 2 = 1
        (2, 1, None),  # pending 1 < STEAL_MIN_PENDING: let it finish
        (1, 1, None),
    ],
)
def test_budget_is_half_the_pending_capped(total, done, budget):
    fan = fan_out((1, total))
    step(fan, ("partial", 1, done))
    expected = [] if budget is None else [(0, 1, "f/1/0", budget)]
    assert claims(step(fan, ("ended", 0))) == expected
    pending = total - done
    assert (budget is None) == (pending < STEAL_MIN_PENDING)
    if budget is not None:
        assert budget == max(1, min(STEAL_MAX_BUDGET, pending // 2))


def test_at_most_one_empty_claim_per_partial():
    # A victim whose every pending shard is already started cedes
    # nothing; re-claiming it on every event would spin.
    fan = fan_out((1, 1, 8))
    step(fan, ("ended", 0))  # thief 0 claims slot 2
    step(fan, ("claimed", 2, []))
    assert claims(step(fan, ("ended", 1))) == []  # thief 1: still unclaimable
    for done in range(1, 4):
        issued = claims(step(fan, ("partial", 2, done)))
        assert len(issued) == 1
        assert claims(step(fan, ("claimed", 2, []))) == []


def test_a_cancelled_query_never_claims():
    token = CancellationToken()
    token.cancel()
    fan = fan_out((1, 8), token=token)
    step(fan, ("partial", 1, 1))
    assert claims(step(fan, ("ended", 0))) == []


def test_a_single_slot_never_claims():
    fan = fan_out((8,))
    assert fan.steal_after == float("inf")
    for done in range(1, 9):
        assert claims(step(fan, ("partial", 0, done))) == []
    assert step(fan, ("ended", 0)) == []
    assert fan.finished


# ---------------------------------------------------------------------------
# Merge order, results and failures
# ---------------------------------------------------------------------------
def unstolen_final(totals) -> bytes:
    """Every slot's shards in slot order, each slot's in its own order."""
    count = len(totals)
    trail = [slot + p * count for slot, total in enumerate(totals) for p in range(total)]
    return Trail(tuple(trail)).to_bytes()


@pytest.mark.parametrize("seed", range(8))
def test_interleaving_across_slots_never_reaches_the_bytes(seed):
    totals = (3, 4, 2, 3)
    fan = fan_out(totals, steal_after=float("inf"))
    queues = [
        [("partial", slot, done) for done in range(1, total + 1)]
        + [("ended", slot)]
        for slot, total in enumerate(totals)
    ]
    rng = random.Random(seed)
    merges = []
    while any(queues):
        slot_events = rng.choice([q for q in queues if q])
        fan.clock.now += 0.01
        merges += [
            a for a in step(fan, slot_events.pop(0)) if isinstance(a, PartialResult)
        ]
    assert fan.finished
    assert [m.progress for m in merges] == sorted(m.progress for m in merges)
    assert merges[-1].progress == 1.0
    assert fan.result().to_bytes() == unstolen_final(totals)


def test_stolen_shards_fold_after_their_victims_prefix():
    fan = fan_out((1, 8))
    step(fan, ("partial", 0, 1))
    step(fan, ("partial", 1, 2))
    assert claims(step(fan, ("ended", 0))) == [(0, 1, "f/1/0", 3)]
    # Delivered out of order: the merge sorts by global shard index.
    (merged,) = [
        a for a in step(fan, ("claimed", 1, [7, 5, 6])) if isinstance(a, PartialResult)
    ]
    assert merged.received_bytes == 0
    assert merged.progress == (1 + 2 + 3) / 9
    step(fan, ("partial", 1, 5))
    step(fan, ("claimed", 1, []))  # the thief's next claim: all started
    step(fan, ("ended", 1))
    assert fan.finished
    assert fan.result().to_bytes() == unstolen_final((1, 8))
    assert fan.profile["stolenSlices"] == 3
    assert fan.profile["workers"][1]["ceded"] == 3


def test_a_revived_victims_ceded_count_restarts():
    fan = fan_out((1, 8))
    step(fan, ("partial", 0, 1))
    step(fan, ("partial", 1, 2))
    step(fan, ("ended", 0))  # claims 3 of slot 1
    step(fan, ("claimed", 1, [5, 6, 7]))
    assert fan.stats[1]["ceded"] == 3
    step(fan, ("restarted", 1))  # the fresh run recomputes every shard
    step(fan, ("claimed", 1, []))  # the dead run's second claim
    step(fan, ("partial", 1, 8))
    step(fan, ("ended", 1))
    assert fan.result().to_bytes() == unstolen_final((1, 8))
    ceded = sum(s.get("ceded", 0) for s in fan.profile["workers"])
    assert ceded == fan.profile["stolenSlices"] == 0


def test_a_claim_nobody_could_summarize_fails_the_query():
    fan = fan_out((1, 8))
    step(fan, ("ended", 0))
    step(fan, ("claimed", 1, None))
    step(fan, ("partial", 1, 8))
    step(fan, ("claimed", 1, []))
    step(fan, ("ended", 1))
    assert fan.finished
    with pytest.raises(RuntimeError, match="thief and root failed"):
        fan.result()


def test_a_coverage_gap_is_an_engine_error():
    fan = fan_out((1, 8))
    step(fan, ("partial", 1, 2))
    step(fan, ("ended", 0))
    step(fan, ("claimed", 1, [6, 7]))  # position 5 ceded but never delivered
    step(fan, ("claimed", 1, []))
    step(fan, ("partial", 1, 5))
    step(fan, ("ended", 1))
    with pytest.raises(EngineError, match="shard coverage"):
        fan.result()


def test_the_first_error_fails_the_query_and_names_the_worker():
    fan = fan_out((2, 2))
    step(fan, ("partial", 0, 1))
    step(fan, ("ended", 0, ValueError("no column Nope")))
    step(fan, ("ended", 1, KeyError("later")))
    assert fan.stats[0]["error"] == "no column Nope"
    with pytest.raises(ValueError, match="no column Nope"):
        fan.result()


def test_the_profile_times_each_worker_by_the_injected_clock():
    clock = Clock()
    fan = fan_out((2, 2), steal_after=float("inf"), clock=clock)
    clock.now = 0.5
    step(fan, ("partial", 0, 1))
    clock.now = 1.0
    (merged,) = step(fan, ("partial", 1, 2, True))
    assert merged.worker_cache_hits == 1
    clock.now = 1.5
    step(fan, ("partial", 0, 2))
    clock.now = 1.75
    step(fan, ("ended", 0))
    step(fan, ("ended", 1))
    clock.now = 2.0
    fan.result()
    w0, w1 = fan.profile["workers"]
    assert (w0["firstEmitSeconds"], w0["lastEmitSeconds"], w0["endSeconds"]) == (
        0.5, 1.5, 1.75,
    )
    assert (w1["emissions"], w1["bytes"], w1["cacheHit"]) == (1, 20, True)
    assert fan.profile["stragglerSeconds"] == 1.5
    assert fan.profile["fanoutSeconds"] == 2.0
    assert fan.profile["mergeSeconds"] == 0.0  # the fake clock stood still
    assert fan.profile["totalShards"] == 4

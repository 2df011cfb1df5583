"""Shard-level work stealing and cache prewarming (self-operating fleet).

The tentpole contract under test: an idle worker may claim pending
shard slices from a straggling peer mid-sketch, and the result bytes
**must not change** — stolen partials fold in global shard order, so a
stolen run, an unstolen run (a ``REPRO_STEAL_AFTER=inf`` gate that never
opens), and a single-process
reference all produce identical summaries.  Plus prewarming: a worker
joining via ``grow`` recomputes the donors' hottest memo recipes over
its own slice, so a fresh root's first query hits its memo.

Tier-1 classes run in-process or over a socket pair (every sketch spec
under an in-process steal is the ``stolen`` column of
``tests/test_invariant.py``); the tier-2 class spawns real worker
subprocesses, steals over the ``claimSlices``/``stolenPartial`` wire
verbs, and SIGKILLs the thief mid-claim.
"""

from __future__ import annotations

import signal
import sys
import threading
import time

import pytest

from repro.core.buckets import DoubleBuckets
from repro.data.flights import FlightsSource
from repro.engine.cluster import (
    Cluster,
    Worker,
    prewarm_budget_bytes,
    steal_after_seconds,
)
from repro.engine.local import LocalDataSet
from repro.engine.redo_log import LoadOp
from repro.service.slow import SlowdownSketch
from repro.sketches.histogram import HistogramSketch
from repro.storage.loader import TableSource
from repro.table.table import Table

ROWS = 6_000
PARTITIONS = 12
SOURCE = FlightsSource(ROWS, partitions=PARTITIONS, seed=13)
DISTANCE = DoubleBuckets(0, 3000, 10)
#: Enough shards for claims racing one at a time to collide.
MANY = FlightsSource(2_000, partitions=400, seed=13)


def hist() -> HistogramSketch:
    return HistogramSketch("Distance", DISTANCE)


def reference_bytes(sketch, source=SOURCE) -> bytes:
    return LocalDataSet(Table.concat(source.load())).sketch(sketch).to_bytes()


def slow(per_shard_seconds: float) -> SlowdownSketch:
    return SlowdownSketch(hist(), per_shard_seconds=per_shard_seconds)


def count_claims(victim) -> "tuple[list[int], list]":
    """Spy on a victim (a ``Worker`` or a proxy): the slices each claim
    on it ceded, and the partials it emitted."""
    ceded: list[int] = []
    partials: list = []
    claim, stream = victim.claim_slices, victim.sketch_partials

    def claim_slices(run, budget):
        parcels = claim(run, budget)
        ceded.append(len(parcels))
        return parcels

    def sketch_partials(*args, **kwargs):
        for emission in stream(*args, **kwargs):
            partials.append(emission)
            yield emission

    victim.claim_slices = claim_slices
    victim.sketch_partials = sketch_partials
    return ceded, partials


class TestStealSwitch:
    def test_gate_defaults_to_the_cadence_and_inf_never_opens(self, monkeypatch):
        monkeypatch.delenv("REPRO_STEAL_AFTER", raising=False)
        assert steal_after_seconds(0.5) == 1.0
        assert steal_after_seconds(0.01) == 0.25
        monkeypatch.setenv("REPRO_STEAL_AFTER", "0.05")
        assert steal_after_seconds(0.5) == 0.05
        monkeypatch.setenv("REPRO_STEAL_AFTER", "inf")
        assert steal_after_seconds(0.5) == float("inf")

    def test_prewarm_budget_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PREWARM_BYTES", raising=False)
        assert prewarm_budget_bytes() > 0
        monkeypatch.setenv("REPRO_PREWARM_BYTES", "0")
        assert prewarm_budget_bytes() == 0
        monkeypatch.setenv("REPRO_PREWARM_BYTES", "123")
        assert prewarm_budget_bytes() == 123


class TestClaimSlices:
    """The claim contract, for an in-process ``Worker`` and over the
    wire: a victim placed as slice 1 of 2 holds the odd global shards
    1, 3, ..., 11 of ``SOURCE``."""

    @staticmethod
    def _victim(deployment, cores: int = 1, source=SOURCE):
        worker = deployment.make("victim", cores=cores)
        worker.configure(1, 2, 0.01, 0, ["a:1", "b:2"])
        worker.ensure("ds", [LoadOp("ds", source)])
        return worker

    @staticmethod
    def _start(worker, per_shard_seconds: float, run: str = "r"):
        """Run ``worker``'s sketch as ``run`` on a thread; returns the
        thread and the list its emissions land in."""
        emissions: list = []
        stream = worker.sketch_partials("ds", slow(per_shard_seconds), [], run=run)
        thread = threading.Thread(target=lambda: emissions.extend(stream))
        thread.start()
        return thread, emissions

    @staticmethod
    def _until(condition, what: str) -> None:
        deadline = time.monotonic() + 10.0
        while not condition():
            assert time.monotonic() < deadline, what
            time.sleep(0.002)

    def test_cedes_the_trailing_unstarted_suffix(self, deployment):
        """Only a contiguous *trailing* run of unstarted shards may be
        ceded: the victim's own fold then covers a clean prefix, which
        is what keeps the global fold order byte-identical."""
        worker = self._victim(deployment)
        thread, emissions = self._start(worker, 0.1)
        claimed: list = []

        def claim() -> bool:
            # One core: shard 0 starts at once, 1..5 wait in the queue;
            # a claim before the run registers cedes nothing.
            claimed.extend(worker.claim_slices("r", 3))
            return bool(claimed)

        self._until(claim, "the run never became claimable")
        thread.join(30.0)
        assert not thread.is_alive()
        assert [p.global_index for p in claimed] == [7, 9, 11], (
            "a claim must take the trailing suffix in ascending order"
        )
        assert [p.resolve().num_rows for p in claimed] == [
            shard.num_rows for shard in SOURCE.load_slice(1, 2)[3:]
        ]
        assert emissions[-1].shards_done == 3, "the victim folded a ceded shard"
        finals = [e.final for e in emissions]
        assert finals == [False] * (len(finals) - 1) + [True], (
            "a ceded run ends with exactly one final emission"
        )
        assert worker.metrics_snapshot()["slicesDonated"] == 3

    def test_nothing_to_cede_is_an_empty_claim(self, deployment):
        worker = self._victim(deployment, cores=8)
        backing = deployment.worker_of(worker)
        assert worker.claim_slices("no-such-run", 4) == []
        thread, emissions = self._start(worker, 0.3)
        self._until(lambda: "r" in backing._runs, "the run never registered")
        time.sleep(0.05)  # eight leaf threads pick up all six shards
        assert worker.claim_slices("r", 4) == [], "a started shard was ceded"
        thread.join(30.0)
        assert not thread.is_alive()
        assert worker.claim_slices("r", 4) == [], "a finished run ceded"
        assert emissions[-1].shards_done == 6
        finals = [e.final for e in emissions]
        assert finals == [False] * (len(finals) - 1) + [True], (
            "a finished run ends with exactly one final emission"
        )
        assert worker.metrics_snapshot()["slicesDonated"] == 0

    def test_a_closed_stream_leaves_no_registered_run(self, deployment):
        worker = self._victim(deployment)
        backing = deployment.worker_of(worker)
        stream = worker.sketch_partials("ds", slow(0.02), [], run="r")
        next(stream)
        assert "r" in backing._runs
        stream.close()
        # In-process the close itself unregisters; a daemon drops the
        # run when its own stream ends.
        self._until(lambda: "r" not in backing._runs, "the run stayed registered")
        assert worker.claim_slices("r", 8) == []

    def test_racing_claims_cede_each_shard_once(self, deployment):
        """Eight thieves claim one shard at a time while the leaf pool
        runs, over four runs of 200 shards: no shard goes to two claims,
        and each run's claimed shards plus its folded prefix are every
        shard exactly once."""
        worker = self._victim(deployment, source=MANY)
        backing = deployment.worker_of(worker)
        donated = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for run in ("r0", "r1", "r2", "r3"):
                ceded: list[int] = []

                def thief() -> None:
                    while parcels := worker.claim_slices(run, 1):
                        ceded.extend(parcel.global_index for parcel in parcels)

                runner, emissions = self._start(worker, 0.2, run)
                self._until(lambda: run in backing._runs, "the run never registered")
                threads = [threading.Thread(target=thief) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads + [runner]:
                    thread.join(30.0)
                    assert not thread.is_alive()
                assert len(ceded) == len(set(ceded)), "a shard was ceded twice"
                folded = emissions[-1].shards_done
                assert sorted(ceded) == [1 + 2 * p for p in range(folded, 200)]
                donated += len(ceded)
        finally:
            sys.setswitchinterval(interval)
        assert worker.metrics_snapshot()["slicesDonated"] == donated


class TestInProcessStealing:
    def test_byte_identity_on_vs_off(self, monkeypatch):
        """The acceptance invariant: stealing changes wall-clock, never
        bytes."""
        slow = SlowdownSketch(hist(), per_shard_seconds=0.03)

        def skewed_cluster() -> Cluster:
            return Cluster(
                workers=[Worker("straggler", cores=1), Worker("fast", cores=4)],
                aggregation_interval=0.02,
            )

        monkeypatch.setenv("REPRO_STEAL_AFTER", "inf")
        off_cluster = skewed_cluster()
        off = off_cluster.load(SOURCE).run(slow).value.to_bytes()
        assert all(w.slices_stolen == 0 for w in off_cluster.workers)

        monkeypatch.setenv("REPRO_STEAL_AFTER", "0.05")
        on_cluster = skewed_cluster()
        on = on_cluster.load(SOURCE).run(slow).value.to_bytes()

        straggler, fast = on_cluster.workers
        assert fast.slices_stolen > 0, "the idle peer never stole"
        assert straggler.slices_donated > 0
        assert on == off == reference_bytes(slow), (
            "stealing changed the summary bytes"
        )


class TestPrewarming:
    def test_grow_prewarms_and_fresh_root_first_query_hits(self, monkeypatch):
        """Acceptance: a prewarmed joiner serves its first query with a
        nonzero memo hit rate.  The *fresh root* matters — on the grown
        root the computation cache answers repeats before any worker is
        consulted, so only a cold root proves the joiner's memo is warm."""
        monkeypatch.delenv("REPRO_PREWARM_BYTES", raising=False)
        cluster = Cluster(
            workers=[Worker("a", cores=2), Worker("b", cores=2)],
            aggregation_interval=0.02,
        )
        ds = cluster.load(SOURCE)
        for _ in range(3):  # memoize + accumulate recipe hits
            ds.run(hist())
        joiner = Worker("joiner", cores=2)
        assert cluster.grow([joiner]) == 3
        assert joiner.entries_warmed > 0, "grow did not prewarm the joiner"

        hits_before = joiner.memo.stats().hits
        fresh = Cluster(workers=cluster.workers, aggregation_interval=0.02)
        fresh_run = fresh.load(SOURCE).run(hist())
        assert joiner.memo.stats().hits > hits_before, (
            "the fresh root's first query missed the prewarmed memo"
        )
        assert fresh_run.value.to_bytes() == reference_bytes(hist())

    def test_a_recipe_no_wire_can_describe_is_skipped(self, monkeypatch):
        """Prewarm is best-effort: a dataset loaded from in-memory tables
        (a ``TableSource``) has no lineage a joiner could be sent, so
        its recipe is left out, the grow still commits, and the other
        recipes still prewarm."""
        monkeypatch.delenv("REPRO_PREWARM_BYTES", raising=False)
        cluster = Cluster(num_workers=3, aggregation_interval=0.02)
        table = Table.concat(SOURCE.load())
        in_memory = cluster.load(TableSource([table], shards_per_table=12))
        in_memory.run(hist())
        cluster.load(SOURCE).run(hist())
        assert cluster.grow(1) == 4
        assert cluster.workers[-1].entries_warmed == 1
        wider = HistogramSketch("Distance", DoubleBuckets(0, 3000, 11))
        assert in_memory.run(wider).value.to_bytes() == reference_bytes(wider)

    def test_prewarm_disabled_by_zero_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREWARM_BYTES", "0")
        cluster = Cluster(
            workers=[Worker("a", cores=2), Worker("b", cores=2)],
            aggregation_interval=0.02,
        )
        ds = cluster.load(SOURCE)
        ds.run(hist())
        joiner = Worker("joiner", cores=2)
        cluster.grow([joiner])
        assert joiner.entries_warmed == 0

    def test_export_ranks_by_hits_and_respects_budget(self):
        """The donor exports its hottest recipes first and stops at the
        byte budget (always at least one)."""
        worker = Worker("donor", cores=2)
        cluster = Cluster(workers=[worker], aggregation_interval=0.02)
        ds = cluster.load(SOURCE)
        hot = hist()
        cold = HistogramSketch("Distance", DoubleBuckets(0, 3000, 5))
        lineage = cluster.lineage(ds.dataset_id)
        for repeat in range(4):
            # Drive the worker directly: the root computation cache
            # would otherwise absorb the repeats before the memo sees
            # them.
            worker_runs = list(
                worker.sketch_partials(ds.dataset_id, hot, lineage)
            )
            assert worker_runs and worker_runs[-1].final
            if repeat:  # a memo hit is one final emission
                (hit,) = worker_runs
                assert hit.cache_hit and hit.shards_done == PARTITIONS
        list(worker.sketch_partials(ds.dataset_id, cold, lineage))

        everything = worker.export_hot_entries(1 << 30)
        assert len(everything) == 2
        assert everything[0]["hits"] >= everything[-1]["hits"]
        tight = worker.export_hot_entries(1)
        assert len(tight) == 1, "a tiny budget still exports one entry"
        assert tight[0]["hits"] == everything[0]["hits"]

    def test_import_skips_bad_recipes(self):
        """One malformed recipe must not poison the batch: the importer
        recomputes what it can and skips the rest."""
        donor = Worker("donor", cores=2)
        cluster = Cluster(workers=[donor], aggregation_interval=0.02)
        ds = cluster.load(SOURCE)
        list(donor.sketch_partials(
            ds.dataset_id, hist(), cluster.lineage(ds.dataset_id)
        ))
        exported = donor.export_hot_entries(1 << 30)
        assert exported
        bad = {"dataset": "no-such", "sketch": {"type": "nope"}, "lineage": []}
        importer = Worker("importer", cores=2)
        warmed = importer.import_entries([bad] + exported)
        assert warmed == len(exported)
        assert importer.entries_warmed == len(exported)


@pytest.mark.tier2
class TestWireStealingTier2:
    """Stealing over the binary worker wire, with real processes."""

    def test_remote_byte_identity_and_sigkill_thief_mid_claim(
        self, monkeypatch
    ):
        """A 1-core straggler and a 4-core thief: stealing happens over
        ``claimSlices``/``stolenPartial``, then the thief is SIGKILLed
        *after donations began* — the root summarizes any orphaned
        parcels itself, respawns the thief for its own slice, and the
        final bytes still match the single-process reference."""
        from repro.engine.remote import ProcessCluster

        monkeypatch.setenv("REPRO_STEAL_AFTER", "0.05")
        sketch = SlowdownSketch(hist(), per_shard_seconds=0.06)
        cluster = ProcessCluster(
            num_workers=2,
            cores_per_worker=(1, 4),
            aggregation_interval=0.02,
        )
        try:
            dataset = cluster.load(SOURCE)
            victim, thief = cluster.workers

            killed = threading.Event()

            def kill_thief_once_stealing() -> None:
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    try:
                        snap = victim.metrics_snapshot()
                    except Exception:  # noqa: BLE001 — mid-kill races
                        return
                    if snap.get("slicesDonated", 0) > 0:
                        cluster.kill_worker_process(1, signal.SIGKILL)
                        killed.set()
                        return
                    time.sleep(0.01)

            watcher = threading.Thread(target=kill_thief_once_stealing)
            watcher.start()
            run = dataset.run(sketch)
            watcher.join(timeout=30.0)

            assert killed.is_set(), (
                "no donation observed: the steal path never engaged"
            )
            assert run.value.to_bytes() == reference_bytes(sketch), (
                "bytes diverged after SIGKILLing the thief mid-claim"
            )
        finally:
            cluster.close()

    def test_remote_multi_core_straggler_is_not_claimed_in_a_loop(
        self, monkeypatch
    ):
        """The empty-claim rule over the wire: a 2-core victim beside an
        8-core thief (``ProcessCluster``'s default is 2 cores a worker);
        every claim is a ``claimSlices`` RPC."""
        from repro.engine.remote import ProcessCluster

        monkeypatch.setenv("REPRO_STEAL_AFTER", "0.05")
        source = FlightsSource(ROWS, partitions=48, seed=13)
        sketch = slow(0.05)
        cluster = ProcessCluster(
            num_workers=2,
            cores_per_worker=(2, 8),
            aggregation_interval=0.02,
        )
        try:
            ceded, partials = count_claims(cluster.workers[0])
            run = cluster.load(source).run(sketch)
        finally:
            cluster.close()
        assert sum(ceded) > 0, "no slices were stolen over the wire"
        assert ceded.count(0) <= 1 + len(partials), (
            f"{ceded.count(0)} empty claims against {len(partials)} partials"
        )
        assert run.value.to_bytes() == reference_bytes(sketch, source)

    def test_remote_steal_matches_steal_off(self, monkeypatch):
        """Same skewed fleet, no chaos: on vs off, identical bytes and
        a nonzero stolen count."""
        from repro.engine.remote import ProcessCluster

        sketch = SlowdownSketch(hist(), per_shard_seconds=0.03)
        results: dict[str, bytes] = {}
        stolen = 0
        for mode, gate in (("0", "inf"), ("1", "0.05")):
            monkeypatch.setenv("REPRO_STEAL_AFTER", gate)
            cluster = ProcessCluster(
                num_workers=2,
                cores_per_worker=(1, 4),
                aggregation_interval=0.02,
            )
            try:
                run = cluster.load(SOURCE).run(sketch)
                results[mode] = run.value.to_bytes()
                if mode == "1":
                    stolen = sum(
                        w.get("slicesStolen", 0)
                        for w in cluster.metrics_snapshot()["workers"]
                    )
            finally:
                cluster.close()
        assert stolen > 0, "no slices were stolen over the wire"
        assert results["0"] == results["1"] == reference_bytes(sketch)

"""Shard-level work stealing and cache prewarming (self-operating fleet).

The tentpole contract under test: an idle worker may claim pending
shard slices from a straggling peer mid-sketch, and the result bytes
**must not change** — stolen partials fold in global shard order, so a
stolen run, an unstolen run (a ``REPRO_STEAL_AFTER=inf`` gate that never
opens), and a single-process
reference all produce identical summaries.  Plus prewarming: a worker
joining via ``grow`` recomputes the donors' hottest memo recipes over
its own slice, so a fresh root's first query hits its memo.

Tier-1 classes run in-process (every sketch spec under an in-process
steal is the ``stolen`` column of ``tests/test_invariant.py``); the
tier-2 class spawns real worker subprocesses, steals over the
``claimSlices``/``stolenPartial`` wire verbs, and SIGKILLs the thief
mid-claim.
"""

from __future__ import annotations

import signal
import threading
import time

import pytest

from repro.core.buckets import DoubleBuckets
from repro.data.flights import FlightsSource
from repro.engine.cluster import (
    Cluster,
    StealLedger,
    Worker,
    prewarm_budget_bytes,
    steal_after_seconds,
)
from repro.engine.local import LocalDataSet
from repro.service.slow import SlowdownSketch
from repro.sketches.histogram import HistogramSketch
from repro.table.table import Table

ROWS = 6_000
PARTITIONS = 12
SOURCE = FlightsSource(ROWS, partitions=PARTITIONS, seed=13)
DISTANCE = DoubleBuckets(0, 3000, 10)


def hist() -> HistogramSketch:
    return HistogramSketch("Distance", DISTANCE)


def reference_bytes(sketch) -> bytes:
    return LocalDataSet(Table.concat(SOURCE.load())).sketch(sketch).to_bytes()


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


class TestStealLedger:
    def test_cede_cancels_trailing_unstarted_suffix(self):
        """Only a contiguous *trailing* run of unstarted shards may be
        ceded: the victim's own fold then covers a clean prefix, which
        is what keeps the global fold order byte-identical."""
        import concurrent.futures

        gate = threading.Event()
        started = threading.Event()

        def task(i):
            started.set()
            gate.wait(5.0)
            return i

        worker = Worker("victim", cores=1)
        shards = [Table.from_pydict({"x": [i]}) for i in range(6)]
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            futures = [pool.submit(task, i) for i in range(6)]
            started.wait(5.0)
            ledger = StealLedger(worker, futures, shards)
            parcels = ledger.cede(3)
            gate.set()
        # Unconfigured worker: slice 0 of 1, so global index == position.
        positions = [p.global_index for p in parcels]
        assert positions == [3, 4, 5], (
            "cede must take the trailing suffix in ascending order"
        )
        assert worker.slices_donated == 3

    def test_cede_empty_when_everything_started(self):
        import concurrent.futures

        worker = Worker("victim", cores=1)
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(lambda: 1) for _ in range(3)]
            concurrent.futures.wait(futures)
            ledger = StealLedger(worker, futures, [None] * 3)
            assert ledger.cede(8) == []
        assert worker.slices_donated == 0


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

    def test_balanced_fleet_does_not_steal(self, monkeypatch):
        """The straggler gate: a balanced fleet finishing within the
        grace window must not shed slices (stolen shards would dodge
        their home worker's memo for no latency win)."""
        monkeypatch.delenv("REPRO_STEAL_AFTER", raising=False)
        cluster = Cluster(num_workers=2, cores_per_worker=2,
                          aggregation_interval=0.02)
        cluster.load(SOURCE).run(hist())
        assert all(w.slices_stolen == 0 for w in cluster.workers)


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
        for _ in range(4):
            # Drive the worker directly: the root computation cache
            # would otherwise absorb the repeats before the memo sees
            # them.
            worker_runs = list(
                worker.sketch_partials(ds.dataset_id, hot, lineage)
            )
            assert worker_runs
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

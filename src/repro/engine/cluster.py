"""The multi-server cluster engine (paper §5.2–5.8).

A :class:`Cluster` owns a set of workers — each one server of the paper's
deployment — behind the :class:`WorkerProtocol` interface, whose methods
are the verbs of the root↔worker wire (:mod:`repro.engine.verbs`).  Two
implementations exist:

* :class:`Worker` (this module): in-process, a soft object store plus a
  leaf thread pool, *and* the owner of its sticky, versioned shard
  placement — the admission guard around every dataset operation, the
  staging area for shards a rebalance hands it, the drain-then-commit
  that re-slices it.  Used directly by tests and single-machine serving,
  and wrapped by a socket in a worker daemon;
* :class:`~repro.engine.remote.RemoteWorkerProxy`: a worker living in a
  separate OS process (or machine); every method is a stub derived from
  the verb table — see :class:`~repro.engine.remote.ProcessCluster`.

Because the placement rules live in the worker, fleet elasticity is
written once: :meth:`Cluster.grow`/:meth:`Cluster.shrink` drive only
protocol verbs (inventory → move plan → ``transfer_shards`` →
``rebalance_commit`` on every member → ``retire`` the removed) and serve
an in-process fleet and a daemon fleet alike.  The one thing a
deployment supplies is how a moved shard reaches a member: an object
reference between in-process workers, an ``adoptShards`` frame between
daemons.  So is adopting a fleet that *another* root resized:
:meth:`Cluster._sync_placement` reads every worker's placement, adopts
the newest and heals what is behind it, for an attaching root and for a
root a worker rejected as stale.  A deployment says only how a worker
is minted (``_mint``), how a member token is reached (``_reach``) and
how a dropped worker is let go of (``_release``).

Sketch execution follows the paper's tree regardless of substrate:

* the root broadcasts the query with the dataset's redo-log lineage, one
  ``sketch`` request per worker; every worker materializes its shards
  (replaying lineage if its soft state is gone, §5.7).  The root
  broadcasts ``ensure`` first only after a placement change: the shard
  counts its progress and steal policy need are kept on the dataset
  from the ``ensure`` of its load or map;
* each worker's resident leaf pool runs ``summarize`` per micropartition
  and the worker (acting as its aggregation node) merges locally,
  forwarding a cumulative partial to the root at the aggregation
  cadence (0.1 s in the paper);
* the root merges the latest partial from every worker and streams
  progressively better results to the client, counting received bytes.
  What the root decides while it does so — merge order, progress, the
  work-stealing policy and the query profile — is a clock-free state
  machine, :class:`~repro.engine.fanout.FanOut`; this module's
  ``ClusterDataSet._sketch_attempt`` only drives it (the ensure refresh,
  the stream and claim tasks on the root's resident pool, one event
  queue, the clock).

A worker that dies mid-sketch is revived (see ``Cluster.revive_worker``)
and its stream re-run from scratch; because every partial is *cumulative*,
the root simply replaces that worker's contribution and the final merge is
still exact (§5.8).

Deterministic sketch results are served from the multi-tier memoization
subsystem (§5.4): whole results from the root's computation cache, and
per-worker cumulative partials from each worker's memo cache — keyed by
content-addressed dataset id and shard slice, so on a shared fleet a
sketch computed for one root is served from the worker cache to every
other root (see :mod:`repro.engine.cache`).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import itertools
import json
import os
import queue
import threading
import time
import uuid
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Sequence, TypeVar

from repro.core.sketch import Sketch
from repro.core.wire import summary_body_size, summary_from_bytes, summary_to_bytes
from repro.engine.cache import KEY_SEP, ComputationCache, DataCache, MemoCache
from repro.engine.dataset import TABLE_MAPS, IDataSet, TableMap
from repro.engine.fanout import Claim, FanOut
from repro.engine.placement import (
    PlacementError,
    StalePlacementError,
    format_address,
    global_indices,
    plan_moves,
)
from repro.engine.progress import CancellationToken, PartialResult, SketchRun
from repro.engine.redo_log import LINEAGE, LoadOp, MapOp, RedoLog
from repro.obs.metrics import REGISTRY
from repro.obs.trace import current_context, span, use_context
from repro.errors import (
    DatasetMissingError,
    EngineError,
    HillviewError,
    ProtocolError,
    WorkerDrainingError,
    WorkerUnavailableError,
)
from repro.storage.loader import DataSource, LoadedOnce
from repro.table.schema import Schema
from repro.table.table import Table

R = TypeVar("R")

#: How many times the root re-runs a worker's stream after revival before
#: giving up on the query (§5.8: repeated failures surface to the client).
MAX_WORKER_RETRIES = 3

#: How many times a root re-syncs and retries after a worker rejects a
#: stale-versioned request before surfacing the failure.  Each retry
#: re-reads the fleet's placement, so this bounds how many back-to-back
#: rebalances a single query can ride out.
MAX_PLACEMENT_RETRIES = 8

#: How long an attach or resync waits for the fleet to settle — another
#: root placing it, or a rebalance committing — before giving up.
PLACEMENT_SYNC_SECONDS = 15.0

#: How long a worker may stay behind the fleet's newest placement before
#: a syncing root drives it there itself: the rebalance's own initiator
#: may still be committing it.
REPAIR_GRACE_SECONDS = 2.0

#: How long a thread of a root's :class:`ResidentPool` waits for its
#: next task before it exits: long enough to span the pause between one
#: user's queries, short enough that a root nobody closed lets go.
POOL_IDLE_SECONDS = 30.0


def steal_after_seconds(aggregation_interval: float) -> float:
    """How long a fan-out must run before claims are considered.

    The gate separates stragglers from ordinary skew: in a balanced
    sub-second run every worker finishes within a cadence or two, and a
    claim would only add round-trips — worse, the ceded worker can no
    longer memoize its slice partial (it never folded the whole slice),
    which would defeat the §5.4 warm path for every later query.
    ``REPRO_STEAL_AFTER`` (seconds) overrides for tests and benchmarks;
    ``inf`` is a gate that never opens, i.e. stealing off.  Read per
    fan-out, so one process can run stolen and unstolen back to back.
    """
    raw = os.environ.get("REPRO_STEAL_AFTER")
    if raw:
        try:
            return max(0.0, float(raw))
        except ValueError:
            pass
    return max(2 * aggregation_interval, 0.25)


#: Default byte budget for prewarming a joining worker's memo cache
#: from its peers' hot entries (summaries are tiny — §5.4 — so a few
#: megabytes covers hundreds of sketches).
PREWARM_BUDGET_BYTES = 4 * 1024 * 1024


def prewarm_budget_bytes() -> int:
    """How many summary bytes of hot memo entries a joiner replicates.

    ``REPRO_PREWARM_BYTES`` overrides (0 disables prewarming); read per
    resize, not at import, so tests can flip it inside one process.
    """
    raw = os.environ.get("REPRO_PREWARM_BYTES")
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return PREWARM_BUDGET_BYTES


@dataclass
class WorkerEmission:
    """One cumulative partial emitted by a worker's aggregation node.

    ``cache_hit`` marks a partial served whole from the worker's memo
    cache — no shard was scanned to produce it (§5.4 at the worker tier).
    ``final`` marks the stream's last one (on the wire, its terminal).
    ``blob`` is the summary's tagged binary form, which a daemon ships as
    is: a memoized final carries its memo entry's bytes, and a memo hit
    those bytes alone (:attr:`summary` decodes them on first read).
    ``encoded_size`` is the summary's wire size when a remote worker's
    reply says it; otherwise :attr:`bytes` reads it off the blob, or
    encodes once, on first read.
    """

    _summary: object
    shards_done: int
    encoded_size: int | None = None
    cache_hit: bool = False
    final: bool = False
    blob: bytes | None = None

    @property
    def summary(self) -> object:
        if self._summary is None:
            self._summary = summary_from_bytes(self.blob)
        return self._summary

    @property
    def bytes(self) -> int:
        """The summary's size on the wire (Figure 5's bytes to the root)."""
        if self.encoded_size is None:
            self.encoded_size = (
                self.summary.serialized_size()
                if self.blob is None
                else summary_body_size(self.blob)
            )
        return self.encoded_size


@dataclass(frozen=True)
class Extent:
    """What one worker holds of a dataset, as ``ensure`` answers it: the
    shard count, their rows, and their schema (None with no shards).
    The root keeps the fleet's sum as the dataset's size and shape
    (§5.2), so reading either never calls a worker."""

    shards: int
    rows: int
    schema: Schema | None


@dataclass
class StolenParcel:
    """One shard slice on its way to another worker: ceded by a
    straggler to an idle peer, or moved to its new owner by a rebalance.

    In-process fleets pass the shard as an object reference; over the
    wire it travels as serialized bytes and :meth:`resolve` decodes it
    lazily on whichever side ends up holding it (the thief or adopting
    daemon, or the root as a last-resort steal fallback).
    """

    global_index: int
    table: Table | None = None
    payload: bytes | None = None
    shard_id: str | None = None

    def resolve(self) -> Table:
        if self.table is None:
            if self.payload is None:
                raise EngineError(
                    f"shard parcel {self.global_index} carries no data"
                )
            from repro.storage.columnar import table_from_bytes

            self.table = table_from_bytes(
                self.payload,
                shard_id=self.shard_id or f"shard-{self.global_index}",
            )
        return self.table


class WorkerProtocol(ABC):
    """One server of the cluster, local or remote (§5.2).

    Every method below except :meth:`close` is one *verb* of the
    root↔worker wire (:mod:`repro.engine.verbs` declares each exactly
    once); a root drives in-process :class:`Worker` objects and remote
    daemons through the same calls.

    ``lineage`` arguments carry the dataset's redo-log chain (LoadOp then
    MapOps, in application order) so the worker can rebuild any soft state
    it lost without calling back into the root (§5.7).  ``version``, on
    the dataset operations, is the placement version the root names for
    the fleet: a worker that moved on rejects the request
    (:class:`StalePlacementError`).  A :class:`Cluster` always names it;
    None skips the check, for a worker calling itself (prewarming) and
    for tests that drive one worker directly.
    """

    name: str
    cores: int

    @property
    def member(self) -> object:
        """The token peers use to reach this worker — in membership
        reports and as the ``target`` of a shard transfer: the worker
        itself in-process, ``host:port`` for a daemon."""
        return self

    @abstractmethod
    def configure(
        self,
        index: int,
        count: int,
        aggregation_interval: float | None = None,
        version: int = 0,
        members: list | None = None,
    ) -> dict:
        """Pin this worker's shard slice (index of count) at placement
        ``version``; None keeps the worker's own aggregation cadence.
        The first configure sticks — a later one must agree with it."""

    @abstractmethod
    def placement_info(self) -> dict:
        """The sticky assignment: slice, version, fleet membership, and
        the retired flag a re-syncing root needs."""

    @abstractmethod
    def ensure(
        self, dataset_id: str, lineage: list, version: int | None = None
    ) -> Extent:
        """Materialize the dataset, replaying lineage where this worker
        lost it (a one-step lineage is a load); returns what it holds."""

    @abstractmethod
    def sketch_partials(
        self,
        dataset_id: str,
        sketch: Sketch,
        lineage: list,
        token: CancellationToken | None = None,
        run: str | None = None,
        version: int | None = None,
    ) -> Iterator[WorkerEmission]:
        """Run the sketch over this worker's shards, yielding cumulative
        partials at the aggregation cadence; the final emission reflects
        every shard the worker summarized itself.

        ``run``, when given, is the root's name for this run: while its
        leaves are queued, :meth:`claim_slices` on that name cedes
        unstarted trailing shards to an idle peer mid-sketch.
        """

    @abstractmethod
    def claim_slices(self, run: str, budget: int) -> "list[StolenParcel]":
        """Cede up to ``budget`` unstarted trailing shards of the named
        run; their parcels come back in ascending global order.  An
        unknown or finished run cedes nothing (``[]``)."""

    @abstractmethod
    def evict(self, dataset_id: str, version: int | None = None) -> None:
        """Drop this worker's shards of one dataset (soft state)."""

    @abstractmethod
    def crash(self) -> None:
        """Lose all soft state, as after a process restart (§5.8)."""

    @abstractmethod
    def summarize_stolen(
        self, sketch: Sketch, parcels: "list[StolenParcel]"
    ) -> "list[tuple[int, object]]":
        """Summarize shard slices stolen from a straggling peer; returns
        ``[(global_index, summary)]`` in parcel order."""

    @abstractmethod
    def export_hot_entries(self, budget_bytes: int) -> list[dict]:
        """Hot memo *recipes* (dataset + sketch + lineage JSON), most-hit
        first, cut off at roughly ``budget_bytes`` of summary payload.

        Recipes, not entries: memo keys embed the worker's shard slice,
        so a joiner on a resized fleet recomputes each recipe over its
        *own* slice instead of adopting another slice's bytes.
        """

    @abstractmethod
    def import_entries(self, entries: list[dict]) -> int:
        """Eagerly recompute and memoize exported recipes (prewarming);
        returns how many entries were warmed.  Best-effort."""

    @abstractmethod
    def inventory(self) -> dict[str, dict]:
        """Resident datasets: ``{id: {"shards": n, "loaded": bool}}``.

        Fleet rebalancing reads this to plan which shard slices move.
        ``loaded`` marks datasets materialized straight from a data
        source (dense tables): only those are safe to stream as bytes —
        derived datasets are views and replay instead.  The marking
        lives at the worker so a rebalance driven by an *administrative*
        root (whose redo log is empty) can still classify another root's
        datasets.
        """

    @abstractmethod
    def transfer_shards(
        self, dataset_id: str, moves: list[dict], target_version: int
    ) -> dict:
        """Hand moved shard slices to their new owners' staging areas.
        ``moves`` is ``[{"target": member, "globalIndices": [...]}]``;
        returns ``{"moved": n, "missing": [global indices gone cold]}``."""

    @abstractmethod
    def adopt_shards(
        self, dataset_id: str, target_version: int, parcels: "list[StolenParcel]"
    ) -> int:
        """Stage shards a peer hands over for the rebalance to
        ``target_version``; returns how many were staged."""

    @abstractmethod
    def rebalance_commit(
        self,
        version: int,
        index: int,
        count: int,
        members: list | None,
        totals: dict[str, int],
        drain_timeout: float = 60.0,
        aggregation_interval: float | None = None,
    ) -> dict:
        """Adopt a new slice assignment: drain in-flight dataset ops,
        re-key the store (kept + staged shards), bump the version.
        ``totals`` maps each transferred dataset to its global shard
        count.  Idempotent for the already-committed version."""

    @abstractmethod
    def retire(
        self, version: int, members: list | None, drain_timeout: float = 60.0
    ) -> dict:
        """Leave the fleet: drain, drop all soft state, and keep
        reporting the successor ``members`` to stale roots."""

    @abstractmethod
    def ping(self) -> bool:
        """Liveness probe."""

    @abstractmethod
    def metrics_snapshot(self) -> dict:
        """This worker's one report: identity, lifetime counters and both
        caches' counters (a daemon adds its queue depth and registry)."""

    def trace_dump(self, trace_id: str | None = None) -> list[dict]:
        """Spans recorded on this worker's side of the wire.

        In-process workers share the root's recorder (their spans are
        already in the root's buffer), so the default is empty; remote
        proxies fetch the daemon's ring buffer over the wire.
        """
        return []

    def sweep_caches(self) -> int:
        """Purge TTL-expired cache entries; returns how many were dropped.

        Remote workers sweep themselves on their own daemon-side timer,
        so the proxy default is a no-op.
        """
        return 0

    def close(self) -> None:
        """Release resources (sockets, subprocesses, leaf threads)."""


class Worker(WorkerProtocol):
    """One in-process server: a soft object store plus a leaf pool (§5.2)."""

    def __init__(
        self,
        name: str,
        cores: int = 4,
        cache_entries: int = 64,
        cache_ttl_seconds: float = 2 * 3600.0,
        memo_entries: int = 4096,
        memo_bytes: int = 32 * 1024 * 1024,
        clock=time.monotonic,
    ):
        if cores < 1:
            raise ValueError("a worker needs at least one core")
        self.name = name
        self.cores = cores
        # The data cache: dataset id -> this worker's micropartitions,
        # accounted at their shards' heap bytes (no byte budget yet): a
        # mapped hvc column counts 0, a filter's membership counts.  A
        # derived dataset still counts the heap columns (and string
        # dictionaries) it shares with its parent again.
        self.store: DataCache[list[Table]] = DataCache(
            max_entries=cache_entries,
            ttl_seconds=cache_ttl_seconds,
            clock=clock,
            name=f"{name}-store",
            sizer=lambda shards: sum(shard.memory_bytes() for shard in shards),
        )
        #: The worker tier of the computation cache (§5.4): cumulative
        #: *partial* sketch results keyed by (content-addressed dataset id,
        #: sketch cache key, this worker's shard slice).  On a shared
        #: fleet, a deterministic sketch computed for one root is served
        #: from here to every other root — zero shard scans.  An entry is
        #: ``(summary_to_bytes blob, shard count)``, counted at the blob's
        #: length: the bytes a daemon ships for it.
        self.memo: MemoCache[tuple[bytes, int]] = MemoCache(
            max_entries=memo_entries,
            max_bytes=memo_bytes,
            ttl_seconds=cache_ttl_seconds,
            clock=clock,
            sizer=lambda entry: len(entry[0]),
            name=f"{name}-memo",
            disableable=True,
        )
        #: Dataset ids whose resident shards came straight from a data
        #: source (LoadOp materializations — dense tables).  Rebalances
        #: stream only these as bytes; derived datasets are views whose
        #: serialization would flatten membership, so they replay.
        self._loaded: set[str] = set()
        self.crashes = 0
        self.shards_summarized = 0
        #: Work-stealing traffic: slices this worker summarized for a
        #: straggling peer, and slices it ceded to idle peers.
        self.slices_stolen = 0
        self.slices_donated = 0
        #: Memo entries eagerly recomputed from another worker's hot
        #: list when this worker joined or was restriped (prewarming).
        self.entries_warmed = 0
        #: Recipes behind live memo entries: memo key -> {dataset,
        #: sketch, lineage, hits}.  A recipe (not the summary bytes) is
        #: what prewarming exports — the importer's memo key embeds a
        #: different shard slice, so it recomputes rather than copies.
        self._recipes: dict[str, dict] = {}
        self._recipes_lock = threading.Lock()
        self._clock = clock
        self.aggregation_interval = 0.1
        #: The sticky, versioned placement (elastic fleets): the slice
        #: the first ``configure`` pinned, the version it was pinned at,
        #: the fleet membership this worker was told about, shards
        #: adopted for a pending rebalance (keyed by target version, with
        #: arrival times so an aborted rebalance cannot pin them
        #: forever), and the in-flight dataset-op count a commit drains
        #: before re-keying the store.  All guarded by ``_ops``.
        self.index = 0
        self.count = 1
        self._placed = False
        self.version = 0
        self.members: list | None = None
        self.retired = False
        self._staged: dict[int, dict[str, dict[int, Table]]] = {}
        self._staged_at: dict[int, float] = {}
        self.staged_ttl_seconds = 900.0
        self._ops = threading.Condition()
        self.dataset_ops = 0
        self._rebalance_pending = False
        #: In-flight runs a root named, for :meth:`claim_slices`: run ->
        #: (leaf futures, shards) in shard order.  Guarded by ``_ops``.
        self._runs: dict[str, tuple[list, list[Table]]] = {}
        #: The leaf pool, ``cores`` threads shared by every run and
        #: steal; started on first use and again after :meth:`close`.
        #: Guarded by ``_ops``.
        self._leaf_pool: concurrent.futures.ThreadPoolExecutor | None = None
        #: How moved shards reach another member — the one thing a
        #: deployment supplies: in-process members *are* the target
        #: workers; a daemon dials the member's address instead.
        self.deliver = lambda target, dataset_id, version, parcels: (
            target.adopt_shards(dataset_id, version, parcels)
        )
        #: Set once this worker may read no more data sources: a daemon
        #: draining for shutdown still serves the shards it holds.
        self.draining = threading.Event()

    # -- the sticky, versioned placement ---------------------------------
    def configure(
        self,
        index: int,
        count: int,
        aggregation_interval: float | None = None,
        version: int = 0,
        members: list | None = None,
    ) -> dict:
        with self._ops:
            if self.retired:
                # A stale root re-dialing a worker the fleet shrank away
                # must not resurrect it by re-pinning the old slice; the
                # root resyncs to the farewell membership instead.  (To
                # genuinely re-add it, grow the fleet — or restart it.)
                raise StalePlacementError(
                    f"worker {self.name} was retired from the fleet "
                    f"at version {self.version}; it cannot be "
                    "re-placed by configure"
                )
            if not self._placed:
                # First configure pins this worker's slice (and the
                # fleet version the configuring root agreed on); later
                # roots must agree with it.
                self._placed = True
                self.index, self.count, self.version = index, count, version
                if members:
                    self.members = list(members)
            elif version != self.version:
                raise StalePlacementError(
                    f"worker {self.name} holds placement version "
                    f"{self.version} but this root configured for "
                    f"{version}; re-read the placement and retry"
                )
            elif (self.index, self.count) != (index, count):
                raise PlacementError(
                    f"worker {self.name} is placed as slice "
                    f"{self.index}/{self.count} but this root asked for "
                    f"{index}/{count}; re-slicing a shared fleet would "
                    "corrupt datasets other roots already loaded"
                )
            # None = "keep your cadence": administrative roots (the
            # fleet CLI) attach without rewriting the tier's tuning.
            if aggregation_interval is not None:
                self.aggregation_interval = aggregation_interval
        return {"index": index, "count": count, "version": version}

    def placement_info(self) -> dict:
        return {
            "name": self.name,
            "index": self.index if self._placed else None,
            "count": self.count if self._placed else None,
            "version": self.version,
            "members": self.members,
            "retired": self.retired,
        }

    @contextlib.contextmanager
    def _dataset_op(self, version: int | None):
        """Admission guard for store-touching operations.

        Verifies the caller's placement version and registers the op so
        a rebalance commit can drain in-flight work before re-keying the
        store — the invariant that every admitted operation runs
        start-to-finish against exactly one slice assignment (results
        stay byte-identical across rebalances).
        """
        with self._ops:
            if self._rebalance_pending:
                raise StalePlacementError(
                    f"worker {self.name} is committing a rebalance; "
                    "re-read the placement and retry"
                )
            if self.retired:
                raise StalePlacementError(
                    f"worker {self.name} was retired from the fleet "
                    f"at version {self.version}; it serves no shard slice"
                )
            if version is not None and int(version) != self.version:
                raise StalePlacementError(
                    f"worker {self.name} holds placement version "
                    f"{self.version} but this root sent "
                    f"{int(version)}; the fleet was rebalanced — re-read "
                    "the placement and retry"
                )
            self.dataset_ops += 1
        try:
            yield
        finally:
            with self._ops:
                self.dataset_ops -= 1
                self._ops.notify_all()

    @contextlib.contextmanager
    def _reslicing(self, what: str, version: int, timeout: float):
        """Holding ``_ops``, take this worker off its slice for a move to
        ``version``; yields the shards staged for it.

        Versions are monotonic — an older one is a replay of a rebalance
        this worker already moved past, anything *newer* is accepted
        (including a skip-ahead from a repair pass healing an interrupted
        rebalance).  New dataset ops are refused while the in-flight ones
        drain on the old placement, and staging for any other target
        dies with it.
        """
        if self._placed and version <= self.version:
            raise PlacementError(
                f"worker {self.name} is at placement version "
                f"{self.version}; cannot {what} at version {version}"
            )
        self._rebalance_pending = True
        try:
            if not self._ops.wait_for(lambda: not self.dataset_ops, timeout):
                raise PlacementError(
                    f"{self.dataset_ops} dataset op(s) still in flight "
                    f"after {timeout:.0f}s; {what} aborted"
                )
            staged = self._staged.pop(version, {})
            self._staged.clear()
            self._staged_at.clear()
            yield staged
            self.version = version
        finally:
            self._rebalance_pending = False
            self._ops.notify_all()

    def _await_move(self, timeout: float) -> None:
        """Holding ``_ops``, wait out a move already draining here: only
        after it can a commit or retire tell whether it is a replay.  Two
        commits to one version (a repairing root racing the initiator)
        must not both re-key the store — the second, with empty totals,
        would evict every shard the first one kept."""
        if not self._ops.wait_for(lambda: not self._rebalance_pending, timeout):
            raise PlacementError(
                f"worker {self.name} is still committing another "
                f"rebalance after {timeout:.0f}s"
            )

    def transfer_shards(
        self, dataset_id: str, moves: list[dict], target_version: int
    ) -> dict:
        """Shards that went cold since the root's inventory are reported
        ``missing`` — the new owner's commit will find its slice
        incomplete, drop it, and redo-log replay rebuilds it on first
        use (§5.7 fallback)."""
        if not self._placed:
            raise PlacementError(
                f"worker {self.name} is unplaced; nothing to transfer"
            )
        index, count = self.index, self.count
        shards = self.store.get(dataset_id)
        moved = 0
        missing: list[int] = []
        for move in moves:
            parcels = []
            for g in move.get("globalIndices") or []:
                local = (g - index) // count
                if (
                    shards is None
                    or g % count != index
                    or not 0 <= local < len(shards)
                ):
                    missing.append(g)
                else:
                    parcels.append(StolenParcel(g, table=shards[local]))
            if parcels:
                moved += self.deliver(
                    move["target"], dataset_id, target_version, parcels
                )
        return {"moved": moved, "missing": missing}

    def adopt_shards(
        self, dataset_id: str, target_version: int, parcels: "list[StolenParcel]"
    ) -> int:
        # Opportunistic reclamation: staging from an aborted rebalance
        # must go even where no periodic sweep runs, and a new transfer
        # is the natural moment.
        self._sweep_stale_staging()
        tables = {parcel.global_index: parcel.resolve() for parcel in parcels}
        with self._ops:
            self._staged_at.setdefault(target_version, self._clock())
            self._staged.setdefault(target_version, {}).setdefault(
                dataset_id, {}
            ).update(tables)
        return len(tables)

    def _sweep_stale_staging(self) -> int:
        """Drop shards staged for a rebalance that never committed (the
        initiating root died mid-resize); returns shards dropped."""
        now = self._clock()
        dropped = 0
        with self._ops:
            for version, stamped in list(self._staged_at.items()):
                if now - stamped > self.staged_ttl_seconds:
                    del self._staged_at[version]
                    for shards in self._staged.pop(version, {}).values():
                        dropped += len(shards)
        return dropped

    def rebalance_commit(
        self,
        version: int,
        index: int,
        count: int,
        members: list | None,
        totals: dict[str, int],
        drain_timeout: float = 60.0,
        aggregation_interval: float | None = None,
    ) -> dict:
        with self._ops:
            self._await_move(drain_timeout)
            if (
                self._placed
                and (version, index, count)
                == (self.version, self.index, self.count)
            ):
                return {"version": version, "idempotent": True}
            with self._reslicing("commit", version, drain_timeout) as staged:
                kept = self.rebalance_store(index, count, totals, staged)
                self.index, self.count, self._placed = index, count, True
                self.members = members or None
                self.retired = False
                if aggregation_interval is not None:
                    self.aggregation_interval = aggregation_interval
        return {"version": version, "kept": kept}

    def retire(
        self, version: int, members: list | None, drain_timeout: float = 60.0
    ) -> dict:
        with self._ops:
            self._await_move(drain_timeout)
            if self.retired and version <= self.version:
                return {"version": self.version, "idempotent": True}
            with self._reslicing("retire", version, drain_timeout):
                self.store.clear()
                self.memo.clear()
                self._placed = False
                self.members = members or None
                self.retired = True
        return {"version": version}

    # -- soft object store ----------------------------------------------
    def fetch(self, dataset_id: str) -> list[Table]:
        """This worker's shards of ``dataset_id``; raises if evicted."""
        shards = self.store.get(dataset_id)
        if shards is None:
            raise DatasetMissingError(dataset_id, self.name)
        return shards

    def put(
        self, dataset_id: str, shards: list[Table], loaded: bool = False
    ) -> None:
        self.store.put(dataset_id, shards)
        if loaded:
            self._loaded.add(dataset_id)
        else:
            self._loaded.discard(dataset_id)

    def evict(self, dataset_id: str, version: int | None = None) -> None:
        with self._dataset_op(version):
            self._evict(dataset_id)

    def _evict(self, dataset_id: str) -> None:
        self.store.evict(dataset_id)
        self._loaded.discard(dataset_id)
        # The invalidation invariant: evicting a dataset drops every
        # dependent memoized partial at this tier too.
        self.memo.invalidate_prefix(dataset_id + KEY_SEP)

    def crash(self) -> None:
        """Lose all soft state, as after a process restart (§5.8)."""
        self.store.clear()
        self.memo.clear()
        self._loaded.clear()
        with self._recipes_lock:
            self._recipes.clear()
        self.crashes += 1

    def ping(self) -> bool:
        return True

    def metrics_snapshot(self) -> dict:
        return {
            "name": self.name,
            "cores": self.cores,
            "shardsSummarized": self.shards_summarized,
            "crashes": self.crashes,
            "store": self.store.stats().to_json(),
            "memo": self.memo.stats().to_json(),
            "slicesStolen": self.slices_stolen,
            "slicesDonated": self.slices_donated,
            "entriesWarmed": self.entries_warmed,
        }

    def inventory(self) -> dict[str, dict]:
        # peek, not get: a monitoring loop polling `fleet status` must
        # not refresh recency/TTL or inflate hit counters.
        return {
            dataset_id: {
                "shards": len(shards),
                "loaded": dataset_id in self._loaded,
            }
            for dataset_id in self.store.keys()
            if (shards := self.store.peek(dataset_id)) is not None
        }

    def rebalance_store(
        self,
        new_index: int,
        new_count: int,
        totals: dict[str, int],
        adopted: "dict[str, dict[int, Table]] | None" = None,
    ) -> dict[str, int]:
        """Re-key this worker's shard store for a new slice assignment.

        The caller must :meth:`configure` the new slice afterwards —
        this method reads ``self.index``/``self.count`` as the *old*
        assignment to locate kept shards.  ``totals`` maps each
        *transferred* dataset to its global shard count; ``adopted``
        holds shards streamed in from other workers, keyed by global
        index.  For each transferred dataset the worker
        keeps its still-owned shards (global index ≡ new slice), merges
        the adopted ones, and stores the result in ascending global
        order — byte-identical to what ``load_slice(new_index,
        new_count)`` would have produced.  A dataset that ends up
        incomplete (a transfer failed, a source worker had gone cold) is
        dropped instead: redo-log replay rebuilds it on first use
        (§5.7), which is always correct and merely slower.  Datasets not
        listed in ``totals`` (derived datasets, another root's datasets
        this root cannot classify) are evicted for the same replay
        fallback.  Returns ``{dataset_id: resident shard count}`` after
        the re-key.
        """
        adopted = adopted or {}
        old_index, old_count = self.index, self.count
        kept: dict[str, int] = {}
        for dataset_id in self.store.keys():
            if dataset_id not in totals:
                self._evict(dataset_id)
        for dataset_id, total in totals.items():
            by_global: dict[int, Table] = dict(adopted.get(dataset_id, {}))
            resident = self.store.get(dataset_id)
            if resident is not None:
                for position, shard in enumerate(resident):
                    g = old_index + position * old_count
                    if g % new_count == new_index:
                        by_global.setdefault(g, shard)
            expected = list(range(new_index, total, new_count))
            if sorted(by_global) != expected:
                # Incomplete slice: drop it, lineage replay rebuilds.
                self._evict(dataset_id)
                continue
            # Transferred datasets are loads by construction (only dense
            # LoadOp materializations qualify for transfer), and must
            # stay marked so the *next* rebalance can move them again.
            self.put(
                dataset_id, [by_global[g] for g in expected], loaded=True
            )
            kept[dataset_id] = len(expected)
        return kept

    def sweep_caches(self) -> int:
        """The paper's "unused for 2 hours → purged" behavior, for real:
        drop TTL-expired shards and memoized partials, and staging an
        aborted rebalance left behind."""
        return (
            self.store.purge_stale()
            + self.memo.purge_stale()
            + self._sweep_stale_staging()
        )

    # -- materialization (replay, §5.7) ---------------------------------
    def shards(self, dataset_id: str, lineage: list) -> list[Table]:
        """This worker's shards, replaying redo-log lineage when evicted.

        Replay walks the lineage from the load op forward, re-applying maps
        (§5.7: "the recursion ends when data is read from disk").
        """
        try:
            return self.fetch(dataset_id)
        except DatasetMissingError:
            pass
        shards: list[Table] | None = None
        for op in lineage:
            if isinstance(op, LoadOp):
                try:
                    shards = self.fetch(op.dataset_id)
                    continue
                except DatasetMissingError:
                    if self.draining.is_set():
                        raise WorkerDrainingError(
                            f"worker {self.name} is draining for shutdown "
                            f"and reads no source (dataset {op.dataset_id!r})"
                        ) from None
                    shards = op.source.load_slice(self.index, self.count)
            elif isinstance(op, MapOp):
                assert shards is not None
                try:
                    shards = self.fetch(op.dataset_id)
                    continue
                except DatasetMissingError:
                    shards = [op.table_map.apply(shard) for shard in shards]
            self.put(op.dataset_id, shards, loaded=isinstance(op, LoadOp))
        if shards is None:
            raise DatasetMissingError(dataset_id, self.name)
        return shards

    def ensure(
        self, dataset_id: str, lineage: list, version: int | None = None
    ) -> Extent:
        # Content-addressed ids make a load idempotent: when another root
        # of a shared fleet (or an earlier session) already loaded the
        # same source, the resident shards are byte-identical.
        with self._dataset_op(version):
            shards = self.shards(dataset_id, lineage)
        return Extent(
            len(shards),
            sum(shard.num_rows for shard in shards),
            shards[0].schema if shards else None,
        )

    # -- sketch execution (leaf pool + aggregation cadence) --------------
    def _memo_key(self, dataset_id: str, cache_key: str) -> str:
        """Keyed by (dataset, sketch, shard slice): a reconfigured worker
        must never serve partials computed over a different slice."""
        return (
            f"{dataset_id}{KEY_SEP}{cache_key}{KEY_SEP}"
            f"{self.index}/{self.count}"
        )

    def sketch_partials(
        self,
        dataset_id: str,
        sketch: Sketch,
        lineage: list,
        token: CancellationToken | None = None,
        run: str | None = None,
        version: int | None = None,
    ) -> Iterator[WorkerEmission]:
        with self._dataset_op(version):
            yield from self._sketch_partials(
                dataset_id, sketch, lineage, token, run
            )

    def _sketch_partials(
        self, dataset_id, sketch, lineage, token, run
    ) -> Iterator[WorkerEmission]:
        memo_key = None
        cache_key = sketch.cache_key()
        if cache_key is not None:
            memo_key = self._memo_key(dataset_id, cache_key)
            memoized = self.memo.get(memo_key)
            if memoized is not None:
                with self._recipes_lock:
                    recipe = self._recipes.get(memo_key)
                    if recipe is not None:
                        recipe["hits"] += 1
                blob, shard_count = memoized
                yield WorkerEmission(
                    None, shard_count, cache_hit=True, final=True, blob=blob
                )
                return
        shards = self.shards(dataset_id, lineage)
        interval = self.aggregation_interval
        leaf_ctx = current_context()

        def leaf(shard: Table) -> object | None:
            # Cancellation removes queued micropartitions only (§5.3).
            if token is not None and token.cancelled:
                return None
            # Pool threads see no thread-local trace context; restore the
            # spawning thread's so leaf-side log records correlate.
            with use_context(leaf_ctx):
                return sketch.summarize(shard)

        accumulated = sketch.zero()
        done = 0
        unsent = 0
        last_emit = time.monotonic()
        failure: BaseException | None = None
        with self._ops:
            futures = self._submit_leaves(leaf, shards)
            if run is not None:
                self._runs[run] = (futures, shards)
        try:
            # Merge in *shard* order, not completion order: Misra-Gries
            # (and any non-commutative merge) must produce the same
            # bytes no matter which leaf thread finishes first — the
            # memo and the cross-root computation cache rely on it.
            for future in futures:
                try:
                    summary = future.result()
                except concurrent.futures.CancelledError:
                    # This position (and, because claims take
                    # contiguous suffixes, every later one) went to an
                    # idle peer: the cumulative partial so far covers
                    # exactly the prefix this worker kept.
                    break
                except Exception as exc:  # repro: ignore[B001] — not swallowed: re-raised once the run's leaves end
                    # A leaf failed (bad column, broken expression...):
                    # drop this worker's remaining shards (below) and
                    # surface the failure at the root instead of dying
                    # silently.
                    failure = exc
                    break
                done += 1
                if summary is not None:
                    accumulated = sketch.merge(accumulated, summary)
                    unsent += 1
                    # Counted here, in the folding thread and under
                    # the lock: a bare ``+= 1`` on the leaf pool's
                    # threads loses updates.
                    with self._ops:
                        self.shards_summarized += 1
                now = time.monotonic()
                # The last shard rides the final emission below.
                if unsent and done < len(shards) and now - last_emit >= interval:
                    yield WorkerEmission(accumulated, done)
                    unsent = 0
                    last_emit = now
        finally:
            # Ended or closed: the run is no longer claimable, its
            # unstarted leaves never start, and it waits for the ones
            # that did.
            with self._ops:
                self._runs.pop(run, None)
            for pending in futures:
                pending.cancel()
            concurrent.futures.wait(futures)
        if failure is not None:
            raise failure
        blob = None
        if (
            memo_key is not None
            and shards
            and done == len(shards)
            and not (token is not None and token.cancelled)
        ):
            # Every shard was summarized into the cumulative partial:
            # memoize it for the next root (or session) asking for the
            # same deterministic sketch over the same dataset slice.  One
            # encode: the final emission below carries the same bytes.
            blob = summary_to_bytes(accumulated)
            self.memo.put(memo_key, (blob, len(shards)))
            if memo_key in self.memo:  # dropped when caches are disabled
                with self._recipes_lock:
                    hits = self._recipes.get(memo_key, {}).get("hits", 0)
                    self._recipes[memo_key] = {
                        "dataset": dataset_id,
                        "sketch": sketch,
                        "lineage": lineage,
                        "hits": hits,
                    }
        if done:
            # Finished, ceded or cancelled, the run ends with one final
            # emission, after the memo insert: a repeat the root sends
            # once it has read this must hit the memo.
            yield WorkerEmission(accumulated, done, final=True, blob=blob)

    def _submit_leaves(self, leaf, items) -> list[concurrent.futures.Future]:
        """``leaf(item)`` per item on the leaf pool, started in item
        order (a steal claim relies on it); the caller holds ``_ops``."""
        if self._leaf_pool is None:
            self._leaf_pool = concurrent.futures.ThreadPoolExecutor(
                self.cores, thread_name_prefix=f"{self.name}-leaf"
            )
        return [self._leaf_pool.submit(leaf, item) for item in items]

    def close(self) -> None:
        """Stop the leaf pool's threads once their queued leaves ran; a
        later sketch starts a new pool (several roots may share an
        in-process worker, and one root closing must not break another)."""
        with self._ops:
            pool, self._leaf_pool = self._leaf_pool, None
        if pool is not None:
            pool.shutdown()

    def claim_slices(self, run: str, budget: int) -> "list[StolenParcel]":
        """Act as the victim of a steal.

        The leaf pool starts micropartitions in submission order, so the
        started set is always a *prefix* of the shard list and the
        cancellable set a contiguous *suffix*.  Cancelling from the tail
        toward the front — a ``Future.cancel()`` that returns True
        guarantees the leaf never ran — keeps the victim's final
        cumulative partial a left fold over an uninterrupted prefix, and
        the stolen suffix folds on top of it in global shard order to
        reproduce the uninterrupted run byte for byte.
        """
        taken: list[int] = []
        # One lock for every claim: cancel() on an already-cancelled
        # future also returns True, so two unlocked thieves could both
        # believe they own one position.
        with self._ops:
            futures, shards = self._runs.get(run, ([], []))
            for position in range(len(futures) - 1, -1, -1):
                if len(taken) >= budget:
                    break
                if futures[position].cancelled():
                    continue  # ceded to an earlier claim
                if not futures[position].cancel():
                    break  # started (or done) — so is everything earlier
                taken.append(position)
            self.slices_donated += len(taken)
            return [
                StolenParcel(self.index + position * self.count, shards[position])
                for position in reversed(taken)
            ]

    def summarize_stolen(
        self, sketch: Sketch, parcels: "list[StolenParcel]"
    ) -> "list[tuple[int, object]]":
        """Act as the thief: summarize another worker's ceded slices.

        Per-shard summaries come back individually (never pre-merged) —
        the root appends them to the victim's prefix fold in global
        shard order, which keeps the fold tree identical to an
        uninterrupted run.  Nothing here touches this worker's memo:
        memoized partials are keyed by *its own* slice.
        """
        if not parcels:
            return []
        ctx = current_context()

        def leaf(parcel: StolenParcel) -> object:
            with use_context(ctx):
                return sketch.summarize(parcel.resolve())

        with self._ops:
            futures = self._submit_leaves(leaf, parcels)
        concurrent.futures.wait(futures)
        summaries = [future.result() for future in futures]
        with self._ops:
            self.shards_summarized += len(parcels)
            self.slices_stolen += len(parcels)
        return [
            (parcel.global_index, summary)
            for parcel, summary in zip(parcels, summaries)
        ]

    # -- memo prewarming (elastic fleets) --------------------------------
    def export_hot_entries(self, budget_bytes: int) -> list[dict]:
        """The hottest live memo recipes, as wire-ready JSON dicts.

        Ranked by hit count (ties broken by key for determinism) and cut
        off once the *summaries* behind them exceed ``budget_bytes`` —
        the recipes themselves are a few hundred bytes of JSON; the
        budget bounds the recompute a joiner signs up for in terms of
        the result bytes it ends up caching.
        """
        from repro.engine.rpc import sketch_to_json

        with self._recipes_lock:
            recipes = dict(self._recipes)
        ranked: "list[tuple[int, str, dict, int]]" = []
        for memo_key, recipe in recipes.items():
            entry = self.memo.peek(memo_key)
            if entry is None:
                with self._recipes_lock:
                    self._recipes.pop(memo_key, None)
                continue
            ranked.append((recipe["hits"], memo_key, recipe, len(entry[0])))
        ranked.sort(key=lambda item: (-item[0], item[1]))
        exported: list[dict] = []
        spent = 0
        for hits, _, recipe, size in ranked:
            if exported and spent + size > budget_bytes:
                break
            try:
                sketch = sketch_to_json(recipe["sketch"])
                lineage = LINEAGE.to_json(recipe["lineage"])
            except ProtocolError:
                # Not describable on a wire (an in-memory TableSource, an
                # unregistered sketch): no joiner could replay it.
                continue
            spent += size
            exported.append(
                {
                    "dataset": recipe["dataset"],
                    "sketch": sketch,
                    "lineage": lineage,
                    "hits": hits,
                    "bytes": size,
                }
            )
        return exported

    def import_entries(self, entries: list[dict]) -> int:
        """Prewarm: recompute each exported recipe over this worker's own
        shard slice, memoizing the partial so the first real query hits.

        Best-effort by design — a recipe whose dataset cannot be
        replayed here (source gone, sketch type unknown) is skipped, not
        fatal: prewarming is an optimization, never a correctness step.
        """
        from repro.engine.rpc import sketch_from_json

        warmed = 0
        for entry in entries:
            try:
                sketch = sketch_from_json(entry["sketch"])
                lineage = LINEAGE.from_json(entry["lineage"])
                dataset_id = str(entry["dataset"])
                for _ in self.sketch_partials(dataset_id, sketch, lineage):
                    pass
            except (HillviewError, KeyError, TypeError, ValueError):
                # Prewarm is best-effort; a failed recipe (source gone,
                # unknown sketch, malformed entry) only means a cold
                # first query on this worker.
                continue
            warmed += 1
        self.entries_warmed += warmed
        return warmed

    def __repr__(self) -> str:
        return f"<Worker {self.name} cores={self.cores}>"


class ResidentPool:
    """The root's threads for fan-out streams, steal claims and
    ``ensure`` broadcasts, kept from one query to the next.

    A task never waits for a thread: an idle one takes it, else a new
    one starts, so the pool holds the peak number of tasks that ran at
    once.  It has no bound on purpose: a stream holds its thread for a
    whole query, so under a bound one query's streams would queue
    behind another's, and a task that waited on a queued task would
    deadlock.  A thread idle for :data:`POOL_IDLE_SECONDS` exits, so a
    root nobody closes does not keep its threads.  Each task runs under
    the trace context its submitter names.
    """

    def __init__(self, name: str):
        self.name = name
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        #: Guards ``_idle``, ``_threads`` and ``_closed``; every put of a
        #: task happens under it.  Invariant: ``_idle`` = threads not
        #: running a task minus queued tasks.
        self._lock = threading.Lock()
        self._idle = 0
        self._threads: set[threading.Thread] = set()
        self._started = 0
        self._closed = False

    def submit(self, ctx, fn, *args) -> "concurrent.futures.Future":
        """Run ``fn(*args)`` on a pool thread, under trace context ``ctx``."""
        future: concurrent.futures.Future = concurrent.futures.Future()
        task = (future, fn, args, ctx)
        with self._lock:
            if self._closed:
                raise EngineError(f"{self.name}: the pool is closed")
            self._tasks.put(task)
            if self._idle:
                self._idle -= 1
                return future
            self._started += 1
            thread = threading.Thread(
                target=self._serve, name=f"{self.name}-{self._started}", daemon=True
            )
            self._threads.add(thread)
            thread.start()
        return future

    def _serve(self) -> None:
        while True:
            try:
                task = self._tasks.get(timeout=POOL_IDLE_SECONDS)
            except queue.Empty:
                with self._lock:
                    if not self._tasks.empty():
                        continue  # a submit just counted on this thread
                    self._idle -= 1
                    self._threads.discard(threading.current_thread())
                    return
            if task is None:  # close()
                return
            future, fn, args, ctx = task
            if not future.set_running_or_notify_cancel():
                self._settle(stays=True)
                continue
            try:
                with use_context(ctx):
                    result = fn(*args)
            except BaseException as exc:
                # The task's owner gets every failure; one that is not
                # an Exception (SystemExit, KeyboardInterrupt) also ends
                # this thread.
                stays = isinstance(exc, Exception)
                self._settle(stays)
                future.set_exception(exc)
                if not stays:
                    raise
            else:
                self._settle(stays=True)
                future.set_result(result)

    def _settle(self, stays: bool) -> None:
        """Count this thread idle again — before its task's future
        resolves, so a caller that saw the task end and submits again
        reuses it — or gone."""
        with self._lock:
            if stays:
                self._idle += 1
            else:
                self._threads.discard(threading.current_thread())

    def close(self) -> None:
        """Run what was submitted, then stop every thread and wait for
        it; a later :meth:`submit` raises."""
        with self._lock:
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._tasks.put(None)
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join()


class Cluster:
    """A set of workers, the root's redo log, and the computation cache."""

    def __init__(
        self,
        num_workers: int = 4,
        cores_per_worker: "int | Sequence[int]" = 4,
        aggregation_interval: float = 0.1,
        workers: "Sequence[WorkerProtocol | str] | None" = None,
    ):
        """``workers`` are workers or member tokens to reach; without
        them, ``num_workers`` are minted (see :meth:`_gather`)."""
        self.aggregation_interval = aggregation_interval
        self._resync_lock = threading.Lock()
        #: Distinguishes this root's counter-minted ids from another
        #: root's on a shared worker fleet (content-addressed ids need no
        #: such qualifier: equal id means equal content by construction).
        self._root_nonce = uuid.uuid4().hex[:8]
        #: Threads for every fan-out stream, steal claim and broadcast.
        self._pool = ResidentPool(f"root-{self._root_nonce}")
        self.workers: list[WorkerProtocol] = []
        made: list[WorkerProtocol] = []
        try:
            held = self._gather(
                num_workers if workers is None else workers, cores_per_worker, made
            )
            if not held:
                raise ValueError("a cluster needs at least one worker")
            #: Bumped by every grow/shrink; the root names it on each
            #: dataset operation so workers can reject requests from a
            #: root that has not yet adopted the current assignment.  A
            #: root built over an already-placed fleet adopts the
            #: fleet's workers and version.
            self.workers, self.placement_version = self._sync_placement(held)
            for index, worker in enumerate(self.workers):
                self._configure(index, worker)
        except BaseException:
            for worker in made:  # a failed constructor leaks nothing
                worker.close()
            self._pool.close()
            raise
        #: The rebalance barrier: a grow/shrink waits for in-flight
        #: sketch streams to drain on the old placement, and blocks new
        #: streams for the (brief) duration of the re-key, so no stream
        #: ever observes a half-moved fleet.
        self._stream_gate = threading.Condition()
        self._active_streams = 0
        self._rebalancing = False
        self.rebalances = 0
        self.redo_log = RedoLog()
        self.computation_cache = ComputationCache()
        self.total_bytes_to_root = 0
        self._ids = itertools.count()
        self._lock = threading.Lock()
        #: dataset id -> how many handles hold it (guarded by ``_lock``);
        #: the last :meth:`release` evicts the dataset fleet-wide.
        self._holds: dict[str, int] = {}
        # Live gauges read the cluster; a later cluster in the same
        # process takes the callbacks over (one serving cluster per
        # daemon), mirroring the scheduler's depth gauges.
        REGISTRY.gauge(
            "cluster.workers",
            "workers in the current placement",
            callback=lambda: len(self.workers),
        )
        REGISTRY.gauge(
            "cluster.placement_version",
            "bumped by every grow/shrink",
            callback=lambda: self.placement_version,
        )
        REGISTRY.gauge(
            "cluster.rebalances",
            "completed grow/shrink operations",
            callback=lambda: self.rebalances,
        )

    def _cadence(self) -> float | None:
        """The aggregation cadence this root imposes on its workers
        (None leaves each worker's own in place)."""
        return self.aggregation_interval

    def _configure(self, index: int, worker: WorkerProtocol) -> None:
        worker.configure(
            index,
            len(self.workers),
            self._cadence(),
            self.placement_version,
            [w.member for w in self.workers],
        )

    def metrics_snapshot(self) -> dict:
        """Fleet metrics for the ``metricsSnapshot`` RPC: root-side
        counters, the root's computation cache, and every worker's live
        snapshot (remote workers report their daemon's queue depth and
        registry).  An unreachable worker degrades to an error entry
        instead of failing the whole answer."""
        workers = []
        for worker in self.workers:
            try:
                workers.append(worker.metrics_snapshot())
            except (WorkerUnavailableError, EngineError) as exc:
                workers.append({"name": worker.name, "error": str(exc)})
        return {
            "placementVersion": self.placement_version,
            "rebalances": self.rebalances,
            "bytesToRoot": self.total_bytes_to_root,
            "computation": self.computation_cache.stats().to_json(),
            "workers": workers,
        }

    def trace_dump(self, trace_id: str | None = None) -> list[dict]:
        """Collect span records from every worker daemon's ring buffer.

        The root's own recorder is merged in at the service layer —
        in-process workers share it, so pulling it here would
        double-count their spans.
        """
        spans: list[dict] = []
        for worker in self.workers:
            try:
                spans.extend(worker.trace_dump(trace_id))
            except (WorkerUnavailableError, EngineError):
                continue
        return spans

    def sweep_caches(self) -> int:
        """Purge TTL-expired entries at every local tier; remote workers
        run their own daemon-side sweep.  Returns entries dropped."""
        purged = self.computation_cache.purge_stale()
        for worker in self.workers:
            try:
                purged += worker.sweep_caches()
            except (WorkerUnavailableError, EngineError):
                continue
        return purged

    # ------------------------------------------------------------------
    # Fleet elasticity: grow/shrink with shard re-balancing
    # ------------------------------------------------------------------
    def _enter_stream(self) -> None:
        """Register an in-flight sketch stream; blocks during a rebalance."""
        with self._stream_gate:
            self._stream_gate.wait_for(lambda: not self._rebalancing)
            self._active_streams += 1

    def _exit_stream(self) -> None:
        with self._stream_gate:
            self._active_streams -= 1
            self._stream_gate.notify_all()

    @contextlib.contextmanager
    def _stream_guard(self):
        """Gate for every whole-fleet operation (load, map, eviction,
        sketch fan-outs): counted so a rebalance can drain them, blocked
        while one is re-keying the fleet.  Must never nest on one thread
        — the rebalance waits for the count to reach zero."""
        self._enter_stream()
        try:
            yield
        finally:
            self._exit_stream()

    def _begin_rebalance(self, drain_timeout: float = 300.0) -> None:
        """Block new sketch streams and wait for in-flight ones to drain
        on the old placement — the barrier that keeps every stream's
        merge consistent with exactly one slice assignment."""
        with self._stream_gate:
            if self._rebalancing:
                raise PlacementError("a rebalance is already in progress")
            self._rebalancing = True
            if not self._stream_gate.wait_for(
                lambda: not self._active_streams, drain_timeout
            ):
                self._rebalancing = False
                self._stream_gate.notify_all()
                raise PlacementError(
                    f"{self._active_streams} sketch stream(s) did not "
                    f"drain within {drain_timeout:.0f}s; rebalance aborted"
                )

    def _end_rebalance(self) -> None:
        with self._stream_gate:
            self._rebalancing = False
            self._stream_gate.notify_all()

    def grow(
        self, workers: "int | Sequence[WorkerProtocol | str | tuple[str, int]]"
    ) -> int:
        """Add workers to a live cluster, re-balancing resident shards.

        ``workers`` is a count of fresh workers to mint, or workers and
        member tokens to reach (a daemon's ``host:port``).  Existing
        workers keep their slice indices (minimizing shard movement);
        the new ones take indices ``n..m-1``.  Returns the new worker
        count.
        """
        if not isinstance(workers, int):
            # An address tuple is the ``host:port`` token a daemon reports.
            workers = [format_address(w) if isinstance(w, tuple) else w for w in workers]
            tokens = [w.member if isinstance(w, WorkerProtocol) else w for w in workers]
            members = [worker.member for worker in self.workers]
            for token in tokens:  # before reaching anything
                if tokens.count(token) > 1 or token in members:
                    raise PlacementError(
                        f"worker {token} is already in the fleet (or was "
                        "named twice); one worker serves one slice"
                    )
        made: list[WorkerProtocol] = []
        try:
            added = self._gather(workers, self.workers[0].cores, made)
            if not added:
                raise ValueError("grow needs at least one new worker")
            old = list(self.workers)
            self._rebalance(old, list(range(len(old))), old + added)
        except BaseException:
            for worker in made:
                if worker not in self.workers:  # a failed grow leaks nothing
                    worker.close()
            raise
        # Prewarm after the commit: the joiners' memo keys embed the new
        # slice, so recipes recompute over exactly what they now hold.
        self._prewarm_joiners(old, added)
        return len(self.workers)

    def _prewarm_joiners(
        self,
        donors: "Sequence[WorkerProtocol]",
        joiners: "Sequence[WorkerProtocol]",
    ) -> None:
        """Replicate hot memo entries onto workers that just joined.

        Donors export their most-hit memo *recipes* (byte-budgeted);
        each joiner recomputes them over its own new shard slice so its
        first real query is served from the memo instead of a cold scan.
        Runs after the placement commit (recipes key on the new slice)
        and entirely best-effort: an unreachable donor or joiner costs
        warmth, never correctness.  ``REPRO_PREWARM_BYTES=0`` disables.
        """
        budget = prewarm_budget_bytes()
        if not budget or not donors or not joiners:
            return
        entries: list[dict] = []
        seen: set[str] = set()
        for donor in donors:
            try:
                exported = donor.export_hot_entries(budget)
            except (WorkerUnavailableError, EngineError):
                continue
            for entry in exported:
                key = json.dumps(
                    {"d": entry.get("dataset"), "s": entry.get("sketch")},
                    sort_keys=True,
                )
                if key in seen:
                    continue
                seen.add(key)
                entries.append(entry)
        if not entries:
            return
        warmed_counter = REGISTRY.counter(
            "cluster.prewarm.entries",
            "memo entries eagerly recomputed on joining workers",
        )
        for joiner in joiners:
            try:
                warmed_counter.inc(joiner.import_entries(entries))
            except (WorkerUnavailableError, EngineError):
                continue

    def shrink(self, selectors: "Sequence[int | str]") -> int:
        """Remove workers, re-balancing their shards onto the survivors.

        ``selectors`` name workers by index or by name.  At least one
        worker must survive.  Returns the new worker count.
        """
        removed = set()
        for selector in selectors:
            removed.add(self._find_worker(selector))
        if not removed:
            raise ValueError("shrink needs at least one worker to remove")
        if len(removed) >= len(self.workers):
            raise PlacementError("cannot shrink a cluster to zero workers")
        old = list(self.workers)
        survivors = [w for i, w in enumerate(old) if i not in removed]
        new_indices = [
            None if i in removed else survivors.index(w) for i, w in enumerate(old)
        ]
        self._rebalance(old, new_indices, survivors)
        return len(self.workers)

    def _find_worker(self, selector: "int | str | tuple[str, int]") -> int:
        """A worker's position by index, name, or member address."""
        if isinstance(selector, int):
            if not 0 <= selector < len(self.workers):
                raise PlacementError(f"no worker at index {selector}")
            return selector
        if isinstance(selector, tuple):
            selector = format_address(selector)
        for index, worker in enumerate(self.workers):
            if selector in (worker.name, worker.member):
                return index
        raise PlacementError(f"no worker named {selector!r}")

    def _transferable_datasets(
        self, inventories: "list[dict[str, dict]]"
    ) -> dict[str, int]:
        """Datasets whose shards move as bytes during a rebalance.

        Only *loaded* datasets (every worker marks them as materialized
        straight from a data source) that are fully resident on every
        worker qualify: their shards are exactly the dense tables
        ``load_slice`` produces, so streaming them is byte-identical to
        reloading.  The marker is worker-resident, so an administrative
        root whose redo log never saw the dataset still transfers it.
        Derived datasets are dropped and replayed from their (moved)
        parents — re-applying a map in memory is cheap next to
        re-reading a source, and replay is the §5.7-correct fallback for
        everything else.  Returns ``{dataset_id: total shard count}``.
        """
        everywhere = set.intersection(*(set(inv) for inv in inventories))
        return {
            dataset_id: sum(inv[dataset_id]["shards"] for inv in inventories)
            for dataset_id in everywhere
            if all(inv[dataset_id]["loaded"] for inv in inventories)
        }

    def _rebalance(
        self,
        old: "list[WorkerProtocol]",
        new_indices: "list[int | None]",
        new_workers: "list[WorkerProtocol]",
    ) -> None:
        """The one rebalance, for every deployment: plan from worker
        inventories, have each source hand only its moved shard slices
        to their new owners (``transfer_shards`` → ``adopt_shards``),
        then commit the new versioned placement on every member
        (``rebalance_commit``) and retire the removed ones.

        Roots that did not initiate it discover the change through
        ``stale_placement`` rejections and resync; transfers are
        best-effort — a failed or cold slice is simply dropped at commit
        and redo-log replay rebuilds it on first use (§5.7)."""
        members = [worker.member for worker in new_workers]
        self._begin_rebalance()
        try:
            new_count = len(new_workers)
            target_version = self.placement_version + 1
            inventories = []
            for worker in old:
                try:
                    inventories.append(worker.inventory())
                except (WorkerUnavailableError, EngineError):
                    inventories.append({})  # nothing of its moves; it replays
            totals = self._transferable_datasets(inventories)
            for dataset_id in sorted(totals):
                resident = [
                    global_indices(position, len(old), inv[dataset_id]["shards"])
                    for position, inv in enumerate(inventories)
                ]
                moves = plan_moves(resident, new_indices, new_count)
                by_source: dict[int, list[dict]] = {}
                for (position, owner), globals_moved in sorted(moves.items()):
                    by_source.setdefault(position, []).append(
                        {"target": members[owner], "globalIndices": globals_moved}
                    )
                for position, move_list in by_source.items():
                    try:
                        old[position].transfer_shards(
                            dataset_id, move_list, target_version
                        )
                    except (PlacementError, WorkerUnavailableError, EngineError):
                        # Commit's completeness check drops the partial
                        # slice; redo-log replay rebuilds it on demand.
                        continue
            # Commit every member even if one fails: a straggler left at
            # the old version is healed by any root's resync (the
            # committed members' report carries the full assignment), so
            # the mixed-version window must be as small as possible.
            commit_errors: list[str] = []
            for index, worker in enumerate(new_workers):
                try:
                    worker.rebalance_commit(
                        target_version,
                        index,
                        new_count,
                        members,
                        totals,
                        aggregation_interval=self._cadence(),
                    )
                except (PlacementError, WorkerUnavailableError, EngineError) as exc:
                    commit_errors.append(f"{worker.name}: {exc}")
            if len(commit_errors) == new_count:
                # Nothing committed: the fleet is still uniformly at the
                # old placement.  Retiring the departing workers now
                # would strand it (retired members at the new version,
                # survivors at the old, nobody placed at the target) —
                # leave everything as it was and let the operator re-run.
                raise PlacementError(
                    f"no member accepted the rebalance commit to version "
                    f"{target_version} ({'; '.join(commit_errors)}); the "
                    "fleet is unchanged at the old placement — re-run the "
                    "grow/shrink"
                )
            for position, new_index in enumerate(new_indices):
                if new_index is None:
                    try:
                        old[position].retire(target_version, members)
                    except (WorkerUnavailableError, EngineError):
                        pass  # a dead worker is as removed as it gets
                    old[position].close()
            if commit_errors:
                raise PlacementError(
                    f"rebalance to version {target_version} committed on "
                    f"{new_count - len(commit_errors)}/{new_count} workers "
                    f"({'; '.join(commit_errors)}); the stragglers are "
                    "healed by the next attach or resync (commits are "
                    "idempotent), or re-run the same grow/shrink"
                )
            with self._resync_lock:  # one writer of the placement at a time
                self.workers = list(new_workers)
                self.placement_version = target_version
            self.rebalances += 1
        finally:
            self._end_rebalance()

    # -- what a deployment supplies: mint, reach, release -----------------
    def _mint(self, name: str, cores: int) -> WorkerProtocol:
        """A fresh worker for this fleet: in-process, a new object."""
        return Worker(name, cores=cores)

    def _gather(
        self,
        workers: "int | Sequence[WorkerProtocol | str]",
        cores: "int | Sequence[int]",
        made: list,
    ) -> "list[WorkerProtocol]":
        """The workers ``workers`` names; each one minted or reached here
        is appended to ``made``, the caller's to close on failure.

        A count mints that many, with ``cores`` each — or one core count
        per worker: chaos and steal tests build deliberately skewed
        fleets this way (a 1-core straggler next to a 4-core thief).
        Otherwise workers are kept and member tokens reached."""
        if not isinstance(workers, int):
            held = []
            for worker in workers:
                if not isinstance(worker, WorkerProtocol):
                    worker = self._reach(worker)
                    made.append(worker)
                held.append(worker)
            return held
        if isinstance(cores, int):
            cores = [cores] * workers
        elif len(cores) != workers:
            raise ValueError(f"{len(cores)} core counts for {workers} workers")
        # Mint names no current worker holds: after a shrink the low
        # indices may be gone but the high names survive, and a
        # duplicate name would break shrink-by-name later.
        taken = {w.name for w in self.workers}
        fresh = (
            name
            for i in itertools.count(len(self.workers))
            if (name := f"worker-{i}") not in taken
        )
        for count in cores:
            made.append(self._mint(next(fresh), int(count)))
        return list(made)

    def _reach(self, member) -> WorkerProtocol:
        """A worker for a member token the fleet reports: in-process the
        token *is* the worker; a daemon fleet dials the address."""
        return member

    def _release(self, worker: WorkerProtocol) -> None:
        """Let go of a worker the fleet's placement no longer names."""

    # -- the one placement sync, for attach and resync alike -------------
    def _sync_placement(
        self, workers: "list[WorkerProtocol]", min_version: int = 0
    ) -> "tuple[list[WorkerProtocol], int]":
        """Read every worker's placement, adopt the newest, and drive
        whatever is behind it there; returns the workers in slice order
        and the fleet's version, once that is at least ``min_version``.

        The newest report naming members is the target — a retired
        worker's farewell counts, and the target outlives the pass that
        read it (the farewell is gone once its worker is released).  Its
        members not held yet are reached, the ones it no longer names
        released.  A worker still behind it after
        :data:`REPAIR_GRACE_SECONDS` (an interrupted rebalance) is
        committed to it with no shard totals: its store drops and
        redo-log replay rebuilds it (§5.7).  An unplaced fleet keeps the
        given order; a partly placed one is being configured by another
        root, so it is re-read until the deadline.
        """
        deadline = time.monotonic() + PLACEMENT_SYNC_SECONDS

        def another_pass(error: PlacementError) -> None:
            if time.monotonic() >= deadline:
                raise error
            time.sleep(0.1)

        target: "tuple[int, list] | None" = None
        behind_since: float | None = None
        while True:
            reports = []
            for worker in workers:
                try:
                    reports.append(worker.placement_info())
                except (WorkerUnavailableError, EngineError):
                    reports.append({})  # unreachable: reports nothing
            for report in reports:
                if report.get("members") and (
                    target is None or report.get("version", 0) > target[0]
                ):
                    target = (report.get("version", 0), list(report["members"]))
            if target is not None:
                newest, members = target
                held = {worker.member: worker for worker in workers}
                if set(held) != set(members):
                    adopted = [
                        held[m] if m in held else self._reach(m) for m in members
                    ]
                    for worker in workers:
                        if worker not in adopted:
                            self._release(worker)
                    workers = adopted
                    continue  # re-read the adopted membership
                behind = [
                    worker
                    for worker, report in zip(workers, reports)
                    if report and report.get("version", 0) < newest
                ]
                if behind:
                    now = time.monotonic()
                    if behind_since is None:
                        behind_since = now
                    if now - behind_since >= REPAIR_GRACE_SECONDS:
                        for worker in behind:
                            try:
                                worker.rebalance_commit(
                                    newest,
                                    members.index(worker.member),
                                    len(members),
                                    members,
                                    {},
                                )
                            except (
                                PlacementError,
                                WorkerUnavailableError,
                                EngineError,
                            ):
                                continue  # the next pass re-evaluates
                    another_pass(
                        PlacementError(
                            f"{len(behind)} worker(s) stayed behind placement "
                            f"version {newest}; healing an interrupted "
                            "rebalance needs them reachable"
                        )
                    )
                    continue
                behind_since = None
            placed = [report for report in reports if report.get("index") is not None]
            if placed and len(placed) < len(workers):
                another_pass(
                    PlacementError(
                        f"fleet is partially placed ({len(placed)} of "
                        f"{len(workers)} workers); another root may be "
                        "configuring it right now"
                    )
                )
                continue
            version = 0
            if placed:  # every worker is: adopt the fleet's slices
                counts = {report["count"] for report in reports}
                if counts != {len(workers)}:
                    raise PlacementError(
                        f"fleet reports slice count(s) {sorted(counts)} but "
                        f"this root attached {len(workers)} workers; the "
                        "worker list does not match the fleet that was placed"
                    )
                indices = [report["index"] for report in reports]
                if sorted(indices) != list(range(len(workers))):
                    raise PlacementError(
                        f"fleet reports slice indices {sorted(indices)}; "
                        f"expected a permutation of 0..{len(workers) - 1}"
                    )
                workers = [workers[indices.index(i)] for i in range(len(workers))]
                version = max(report.get("version", 0) for report in reports)
            if version < min_version:
                another_pass(
                    StalePlacementError(
                        f"fleet stayed at placement version {version}; "
                        f"expected at least {min_version}"
                    )
                )
                continue
            return workers, version

    def resync_placement(self, observed_version: int | None = None) -> bool:
        """Adopt a placement the fleet moved to without this root, after
        a worker rejected one of its requests as stale.

        ``observed_version`` is the placement version the caller was at
        when its request failed: if another thread already adopted a
        newer placement in the meantime, the retry is immediately
        worthwhile — without the witness, the second of two concurrent
        resyncs would wait for a version the fleet never reaches.
        """
        with self._resync_lock:
            if (
                observed_version is not None
                and self.placement_version > observed_version
            ):
                return True
            try:
                self.workers, self.placement_version = self._sync_placement(
                    list(self.workers), self.placement_version + 1
                )
            except (PlacementError, EngineError, OSError):
                return False
            return True

    def _with_placement_retries(self, fn):
        """Run ``fn(version)`` (a whole-fleet operation at the placement
        version this root names), re-syncing placement and retrying when
        the fleet rebalanced underneath it."""
        attempts = 0
        while True:
            observed = self.placement_version
            try:
                return fn(observed)
            except StalePlacementError:
                attempts += 1
                if attempts > MAX_PLACEMENT_RETRIES or not self.resync_placement(
                    observed
                ):
                    raise
                time.sleep(min(0.05 * attempts, 0.5))

    # ------------------------------------------------------------------
    # Dataset lifecycle
    # ------------------------------------------------------------------
    def _new_dataset_id(self, prefix: str) -> str:
        return f"{prefix}-{self._root_nonce}-{next(self._ids)}"

    @staticmethod
    def _content_id(description: str) -> str:
        return "ds-" + hashlib.sha1(description.encode("utf-8")).hexdigest()[:12]

    def _load_dataset_id(self, source: DataSource) -> str:
        """A content-addressed id for a loaded source.

        Dataset ids name *content*, not creation events: every root (and
        every session on every root) loading the same source derives the
        same id, so workers of a shared fleet hold one copy of the shards
        and the redo logs of independent roots agree byte-for-byte.  The
        hash covers the source's stable ``spec()`` — the same string the
        redo log's load entries describe.
        """
        try:
            spec = source.spec()
        except Exception:  # repro: ignore[B001] — exotic sources fall back safely
            return self._new_dataset_id("ds")
        return self._content_id(f"load|{spec}")

    def _map_dataset_id(self, parent_id: str, table_map: TableMap) -> str:
        """A content-addressed id for a derived dataset.

        Only *declarative* maps (the ones that can cross the worker wire)
        are content-addressed: their JSON encoding is the content.  Maps
        carrying Python callables get a per-root unique id instead — two
        different lambdas can share a ``spec()`` string, and colliding
        their ids would silently serve one map's shards for the other.
        """
        try:
            encoded = json.dumps(TABLE_MAPS.to_json(table_map), sort_keys=True)
        except ProtocolError:
            return self._new_dataset_id("ds")
        return self._content_id(f"map|{parent_id}|{encoded}")

    def lineage(self, dataset_id: str) -> list:
        """The redo-log chain workers replay to rebuild ``dataset_id``."""
        return self.redo_log.lineage(dataset_id)

    def load(self, source: DataSource) -> "ClusterDataSet":
        """Load a data source, distributing partitions over workers."""
        dataset_id = self._load_dataset_id(source)
        self.redo_log.record_load(dataset_id, source)
        # Workers in this process share one read of the source, each
        # taking its slice; a table cannot cross a process boundary, so
        # the others load their slice from the description.
        shared = LoadedOnce(source)
        return self._materialize(
            dataset_id,
            lambda w: [LoadOp(dataset_id, shared if w.member is w else source)],
        )

    def _materialize(self, dataset_id: str, lineage_for) -> "ClusterDataSet":
        """Broadcast ``ensure`` and build the dataset from the extents the
        workers answer, recorded with the placement version they hold at."""
        with self._stream_guard():
            version, extents = self._with_placement_retries(
                lambda version: (version, self._ensure(dataset_id, lineage_for, version))
            )
        return ClusterDataSet(self, dataset_id, extents, version)

    def _ensure(self, dataset_id: str, lineage_for, version: int) -> list[Extent]:
        """Every worker materializes its shards of ``dataset_id`` at
        placement ``version``, replaying ``lineage_for(worker)`` if its
        soft state is gone (§5.7), and answers its :class:`Extent`."""
        with span("cluster.ensure", dataset=dataset_id):
            return self._for_all_workers(
                lambda i, w: w.ensure(dataset_id, lineage_for(w), version)
            )

    def _for_all_workers(self, fn) -> list:
        """Run ``fn(index, worker)`` for every worker in parallel on the
        root's pool, reviving and retrying a worker whose process died
        (§5.8); every call ends before this returns or raises."""
        ctx = current_context()  # worker RPCs parent under the caller
        futures = [
            self._pool.submit(ctx, self._with_revival, index, fn)
            for index in range(len(self.workers))
        ]
        concurrent.futures.wait(futures)
        return [future.result() for future in futures]

    def _with_revival(self, index: int, fn):
        attempts = 0
        while True:
            try:
                return fn(index, self.workers[index])
            except WorkerUnavailableError:
                attempts += 1
                if attempts > MAX_WORKER_RETRIES or not self.revive_worker(index):
                    raise

    # ------------------------------------------------------------------
    # Fault injection and recovery
    # ------------------------------------------------------------------
    def kill_worker(self, index: int) -> None:
        """Crash-restart one worker: all its soft state is lost."""
        self.workers[index].crash()

    def revive_worker(self, index: int) -> bool:
        """Bring a dead worker back; in-process workers never die."""
        return False

    def evict_dataset(self, dataset_id: str, worker_index: int | None = None) -> None:
        """Evict a dataset's shards (memory pressure / TTL expiry).

        A full eviction also invalidates every dependent cache entry at
        the root tier (the computation cache); each worker drops its own
        memoized partials inside :meth:`WorkerProtocol.evict`.
        """
        if worker_index is not None:
            self.workers[worker_index].evict(dataset_id, self.placement_version)
            return

        def evict_everywhere(version: int) -> None:
            for worker in self.workers:
                worker.evict(dataset_id, version)

        # Same rebalance discipline as every other whole-fleet op: the
        # stream guard keeps an in-process rebalance from re-planting
        # staged copies of the dataset being evicted, and the placement
        # retries keep an external rebalance from leaving some workers
        # holding shards while the root-tier caches are dropped below.
        with self._stream_guard():
            self._with_placement_retries(evict_everywhere)
        self.computation_cache.invalidate_dataset(dataset_id)

    def hold(self, dataset_id: str) -> None:
        """Count one more handle holding ``dataset_id`` (see :meth:`release`)."""
        with self._lock:
            self._holds[dataset_id] = self._holds.get(dataset_id, 0) + 1

    def release(self, dataset_id: str) -> None:
        """Drop one hold; the last one evicts the dataset everywhere
        (§5.7: soft state, rebuilt from the redo log by whoever uses it
        next)."""
        with self._lock:
            left = self._holds.get(dataset_id, 0) - 1
            if left > 0:
                self._holds[dataset_id] = left
                return
            self._holds.pop(dataset_id, None)
        self.evict_dataset(dataset_id)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release worker resources, then the root's pool threads."""
        for worker in self.workers:
            worker.close()
        self._pool.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} workers={len(self.workers)} "
            f"cores={self.workers[0].cores} log={len(self.redo_log)} ops>"
        )


class ClusterDataSet(IDataSet):
    """A dataset resident (softly) on a cluster's workers.  Datasets are
    immutable, so the size and schema the workers answered when they
    materialized it stay true across eviction, crash and replay — and
    so does each worker's shard count, until the placement changes."""

    def __init__(
        self,
        cluster: Cluster,
        dataset_id: str,
        extents: list[Extent],
        version: int,
    ):
        self.cluster = cluster
        self.dataset_id = dataset_id
        self._rows = sum(extent.rows for extent in extents)
        self._schema = next(
            (e.schema for e in extents if e.schema is not None), None
        )
        #: (placement version, each worker's shard count) as the last
        #: ``ensure`` answered them; a fan-out at that version and fleet
        #: size seeds its progress and steal policy from it.
        self._placed = (version, [extent.shards for extent in extents])

    @property
    def total_rows(self) -> int:
        return self._rows

    @property
    def schema(self) -> Schema:
        if self._schema is None:
            raise EngineError(f"dataset {self.dataset_id!r} has no shards")
        return self._schema

    def map(self, table_map: TableMap) -> "ClusterDataSet":
        new_id = self.cluster._map_dataset_id(self.dataset_id, table_map)
        self.cluster.redo_log.record_map(new_id, self.dataset_id, table_map)
        # The new dataset's lineage ends with the map op just recorded, so
        # "ensure" both applies the map and registers the result (§5.7).
        lineage = self.cluster.lineage(new_id)
        return self.cluster._materialize(new_id, lambda w: lineage)

    # ------------------------------------------------------------------
    # Sketch execution
    # ------------------------------------------------------------------
    def _worker_stream(
        self,
        slot: int,
        sketch: Sketch[R],
        lineage: list,
        token: CancellationToken | None,
        workers: "list[WorkerProtocol]",
        version: int | None,
        fan: FanOut,
        post,
    ) -> None:
        """Drive one worker's partial stream, reviving it if it dies.

        Because partials are cumulative, a retry after revival simply
        *replaces* this worker's contribution at the root — no double
        counting (§5.8).  ``workers`` is this attempt's placement
        snapshot: if the cluster's live list diverges from it (the fleet
        rebalanced under a concurrent stream), revival is abandoned and
        the whole fan-out restarts on the new placement.

        Every event goes to the driver as ``post((fan.<event>, *args))``:
        a partial per emission, ``restarted`` per revival, and exactly
        one ``ended``.  Each attempt records its own span (revival
        retries show up as sibling spans under one fan-out) and its run
        is named ``fanout/slot/attempt`` — the name a steal claim
        addresses (attempt = restarts so far, the root's epoch for the
        slot).
        """
        cluster = self.cluster
        failure: BaseException | None = None
        attempts = 0
        tries = 0
        try:
            while True:
                tries += 1
                worker = workers[slot]
                try:
                    with span("worker.stream", worker=worker.name, attempt=tries):
                        for emission in worker.sketch_partials(
                            self.dataset_id,
                            sketch,
                            lineage,
                            token,
                            run=fan.run_name(slot, attempts),
                            version=version,
                        ):
                            post((fan.partial, slot, emission, fan.clock()))
                except WorkerUnavailableError as exc:
                    attempts += 1
                    cancelled = token is not None and token.cancelled
                    in_sync = (
                        slot < len(cluster.workers)
                        and cluster.workers[slot] is workers[slot]
                    )
                    if (
                        not cancelled
                        and attempts <= MAX_WORKER_RETRIES
                        and in_sync
                        and cluster.revive_worker(slot)
                    ):
                        workers[slot] = cluster.workers[slot]
                        post((fan.restarted, slot))
                        continue  # re-run against the revived worker
                    if not in_sync:
                        failure = StalePlacementError(
                            f"worker {worker.name} left the placement "
                            "while streaming; re-running on the new fleet"
                        )
                    else:
                        failure = exc
                except Exception as exc:  # repro: ignore[B001] — surfaced at the root
                    failure = exc
                break
        except BaseException as exc:  # repro: ignore[B001] — sentinel must still post
            failure = failure if failure is not None else exc
        finally:
            # Unconditional: without it the driver would wait on this
            # worker forever.
            post((fan.ended, slot, failure, tries, fan.clock()))

    def _steal_claim(
        self,
        claim: Claim,
        sketch: Sketch,
        snapshot: "list[WorkerProtocol]",
        fan: FanOut,
        post,
    ) -> None:
        """One claim: cede unstarted slices of the victim's run,
        summarize them on the thief (root fallback if the thief cannot),
        and post the per-shard summaries as ``fan.claimed``.

        Once :meth:`WorkerProtocol.claim_slices` returns parcels, the
        victim has irrevocably skipped those shards — so every path
        below must either produce their summaries or report an error
        that fails the query; quietly dropping parcels would corrupt the
        merge.
        """
        victim, thief = snapshot[claim.victim], snapshot[claim.thief]
        stolen: "list[tuple[int, object]] | None" = []
        error: BaseException | None = None
        try:
            with span(
                "cluster.steal",
                victim=victim.name,
                thief=thief.name,
                budget=claim.budget,
            ):
                try:
                    parcels = victim.claim_slices(claim.run, claim.budget)
                except (WorkerUnavailableError, EngineError):
                    # Nothing was ceded: an error reply means the victim
                    # kept its shards, and a dead victim's revival
                    # recomputes every shard regardless.
                    parcels = []
                if parcels:
                    try:
                        results = thief.summarize_stolen(sketch, parcels)
                    except (WorkerUnavailableError, EngineError):
                        results = None
                    if results is None:
                        # The thief died (or cannot help) after the
                        # cede: the root summarizes the parcels itself —
                        # it holds the sketch and the shard bytes, so no
                        # slice goes missing.
                        REGISTRY.counter(
                            "cluster.steal.fallbacks",
                            "ceded slices summarized by the root after "
                            "a thief failure",
                        ).inc(len(parcels))
                        results = [
                            (parcel.global_index, sketch.summarize(parcel.resolve()))
                            for parcel in parcels
                        ]
                    stolen = results
        except BaseException as exc:
            stolen = None
            error = exc
            # The finally below posts the failure *before* this re-raise
            # unwinds; the query fails loudly at the root.
            raise
        finally:
            post((fan.claimed, claim.victim, stolen, error))

    def sketch_stream(
        self,
        sketch: Sketch[R],
        token: CancellationToken | None = None,
    ) -> Iterator[PartialResult[R]]:
        cluster = self.cluster
        cache_key = sketch.cache_key()
        if cache_key is not None:
            cached = cluster.computation_cache.get(self.dataset_id, cache_key)
            if cached is not None:
                yield PartialResult(1.0, cached, received_bytes=0, cache_hit=True)
                return

        # The whole fan-out restarts from scratch when the fleet
        # rebalances underneath it (a worker rejects our stale placement
        # version): partials already streamed remain valid progressive
        # approximations, and the retry's cumulative partials simply
        # replace them — the final merge is computed entirely on one
        # placement, so bytes stay identical across rebalances.
        attempts = 0
        final: R | None = None
        while True:
            observed = cluster.placement_version
            try:
                final = yield from self._sketch_attempt(sketch, token, observed)
                break
            except StalePlacementError:
                attempts += 1
                if attempts > MAX_PLACEMENT_RETRIES or not cluster.resync_placement(
                    observed
                ):
                    raise
                time.sleep(min(0.05 * attempts, 0.5))

        if (
            cache_key is not None
            and final is not None
            and not (token is not None and token.cancelled)
        ):
            cluster.computation_cache.put(self.dataset_id, cache_key, final)

    def _sketch_attempt(
        self,
        sketch: Sketch[R],
        token: CancellationToken | None,
        version: int,
    ):
        """One fan-out over the current placement, which the root names
        as ``version`` on every worker call; returns the final merge (via
        StopIteration value) or raises :class:`StalePlacementError` if
        the fleet moved mid-flight.

        One ``sketch`` request per worker: it carries the lineage, so a
        worker that lost the dataset replays it itself (§5.7).  The root
        broadcasts ``ensure`` first only when the placement changed
        since the dataset's shard counts were recorded, and records the
        fresh counts.

        The root's decisions live in a :class:`FanOut`; this driver owns
        that refresh, the pool tasks, one event queue and the clock.
        Tasks never touch the ``FanOut``: each posts the call the driver
        then makes on it, and the driver carries out the actions that
        call returns.
        """
        cluster = self.cluster
        clock = time.perf_counter
        cluster._enter_stream()
        try:
            lineage = cluster.lineage(self.dataset_id)
            started = clock()
            snapshot = list(cluster.workers)
            placed_at, shard_counts = self._placed
            ensure_seconds = 0.0
            if placed_at != version or len(shard_counts) != len(snapshot):
                extents = cluster._ensure(self.dataset_id, lambda w: lineage, version)
                shard_counts = [extent.shards for extent in extents]
                self._placed = (version, shard_counts)
                ensure_seconds = round(clock() - started, 6)
            fan = FanOut(
                sketch,
                [w.name for w in snapshot],
                shard_counts,
                clock=clock,
                steal_after=steal_after_seconds(cluster.aggregation_interval),
                token=token,
                # Unique across roots that share a daemon fleet.
                fanout=uuid.uuid4().hex[:12],
                profile={"ensureSeconds": ensure_seconds},
                engine_started=started,
            )
            events: queue.Queue = queue.Queue()
            with span(
                "cluster.fanout",
                dataset=self.dataset_id,
                sketch=sketch.name,
                workers=len(snapshot),
            ):
                fan_ctx = current_context()  # streams and claims parent here
                tasks = [
                    cluster._pool.submit(
                        fan_ctx, self._worker_stream, slot, sketch, lineage,
                        token, snapshot, version, fan, events.put,
                    )
                    for slot in range(len(snapshot))
                ]
                while not fan.finished:
                    event, *args = events.get()
                    for action in event(*args):
                        if isinstance(action, Claim):
                            tasks.append(cluster._pool.submit(
                                fan_ctx, self._steal_claim, action, sketch,
                                snapshot, fan, events.put,
                            ))
                            continue
                        with cluster._lock:
                            cluster.total_bytes_to_root += action.received_bytes
                        yield action
                for task in tasks:  # all at their end once fan finished
                    task.result()
                return fan.result()
        finally:
            cluster._exit_stream()

    def run(
        self, sketch: Sketch[R], token: CancellationToken | None = None
    ) -> SketchRun[R]:
        """Execute with statistics; cache hits are flagged by the stream
        itself (``drain`` copies them off the partials), so the cache is
        probed exactly once per execution and stats stay honest."""
        run = super().run(sketch, token)
        run.cancelled = token is not None and token.cancelled
        if run.value is None:
            raise EngineError("sketch execution produced no result")
        return run

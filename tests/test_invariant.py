"""One invariant, one suite: what a client sees never depends on what ran it.

The paper's modularity claim (§5.5, §5.8): a vizketch's result is a
function of the data alone, not of threads, processes, a replay, a cache
tier, a rebalance, a stolen shard or a wire.  Each cell runs one spec in
one execution mode and asserts that ``summary_to_bytes`` *and* the
sorted-key ``summary_to_json`` (what a client receives) equal those of a
fresh in-process :class:`Cluster` with the mode's final worker count over
the same hvc shards.  ``FOLD_DEPENDENT`` specs (Misra-Gries at capacity,
quantile samples, float sums over dates and doubles, per-shard samples)
fold to bytes that depend on the fold tree, hence that worker count; the
rest are also compared with a ``ParallelDataSet``.

A mode is a generator registered with :func:`execution_mode`; its ``run``
asserts that what the mode exists for happened (a steal, a cache hit, a
crash and a replay, a resize) before returning what the client saw.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import pytest

import repro.service.slow  # noqa: F401 — the "slow" wire type
from repro.core.wire import SKETCH_TYPES
from repro.engine.cluster import Cluster, Worker
from repro.engine.local import LocalDataSet, ParallelDataSet
from repro.engine.remote import ProcessCluster
from repro.engine.rpc import (
    sketch_from_json, sketch_to_json, summary_to_bytes, summary_to_json,
)
from repro.gateway import GatewayServer, GatewayWebSocket, RemoteDataSet
from repro.service import ServiceServer
from repro.sketches.specs import SKETCH_SPECS
from repro.storage import columnar
from repro.storage.loader import ColumnarDatasetSource, TableSource

from tests.conftest import canonical, daemon_fleet
from tests.test_wire_golden import EXTRA_SPECS

#: The 32 kernel specs, plus the wire features no kernel spec reaches.
SPECS: dict[str, dict] = {
    **{spec.name: sketch_to_json(spec.sketch()) for spec in SKETCH_SPECS},
    **EXTRA_SPECS,
}
#: Specs whose bytes depend on the fold tree, not only on the data.
FOLD_DEPENDENT = {
    "heavy_hitters.streaming_string", "heavy_hitters.streaming_numeric",
    "quantile.asc", "quantile.desc_sampled", "moments.date", "correlation",
    "histogram.sampled", "heavy_hitters.sampled", "heavyHitters.sampling",
    "trellisHistogram.group2",
}
#: One spec per wire type (the first in ``SPECS``) and a ``slow`` wrapper,
#: for suites that mean "every sketch type" rather than every kernel.
SPEC_PER_TYPE = {spec["type"]: spec for spec in reversed(list(SPECS.values()))}
SPEC_PER_TYPE["slow"] = {"type": "slow", "perShardSeconds": 0.0,
                         "inner": SPECS["histogram.int"]}

Seen = tuple[bytes, str]


def seen(summary) -> Seen:
    """What a client sees: the binary summary and its sorted-key JSON."""
    return summary_to_bytes(summary), canonical(summary_to_json(summary))


def cacheable(spec: dict) -> bool:
    return sketch_from_json(spec).cache_key() is not None


@dataclass
class Mode:
    workers: int  # the final worker count: the reference's fold tree
    run: Callable[[dict], Seen]


def plain(dataset, workers: int = 2) -> Mode:
    return Mode(workers, lambda spec: seen(run(dataset, spec).value))


MODES: dict[str, tuple[Callable, str, tuple]] = {}


def execution_mode(precondition: str, *marks):
    def register(fn):
        MODES[fn.__name__] = (fn, precondition, marks)
        return fn

    return register


def in_process(workers: int = 2) -> Cluster:
    return Cluster(num_workers=workers, aggregation_interval=0.01)


def run(dataset, spec: dict):
    return dataset.run(sketch_from_json(spec))


def resident(cluster: Cluster, dataset) -> list[bool]:
    return [dataset.dataset_id in w.inventory() for w in cluster.workers]


@execution_mode("its workers are separate processes", pytest.mark.tier2)
def spawned(directory):
    cluster = ProcessCluster(num_workers=2, cores_per_worker=1, aggregation_interval=0.01)
    try:
        assert None not in cluster.worker_pids()
        assert os.getpid() not in cluster.worker_pids()
        yield plain(cluster.load(ColumnarDatasetSource(directory)))
    finally:
        cluster.close()


@execution_mode("no worker held the dataset; after the run every worker does")
def evicted(directory):
    cluster = in_process()
    dataset = cluster.load(ColumnarDatasetSource(directory))

    def evict_then_run(spec):
        cluster.evict_dataset(dataset.dataset_id)
        assert resident(cluster, dataset) == [False, False]
        result = run(dataset, spec)
        assert resident(cluster, dataset) == [True, True]
        return seen(result.value)

    yield Mode(2, evict_then_run)


@execution_mode("worker 0 lost its shards and memo, and replayed its slice")
def crashed(directory):
    cluster = in_process()
    dataset = cluster.load(ColumnarDatasetSource(directory))
    victim = cluster.workers[0]

    def crash_then_run(spec):
        cluster.kill_worker(0)
        assert victim.inventory() == {} and len(victim.memo) == 0
        result = run(dataset, spec)
        assert resident(cluster, dataset) == [True, True]
        return seen(result.value)

    yield Mode(2, crash_then_run)


def resized(directory, before: int, resize):
    """A fleet of ``before`` workers that ran every spec (warm memos keyed
    by the old slices), then ``resize``d: the shards move, not replay."""
    cluster = in_process(before)
    dataset = cluster.load(ColumnarDatasetSource(directory))
    for spec in SPECS.values():
        run(dataset, spec)
    resize(cluster)
    assert cluster.placement_version == 1
    assert all(w.inventory()[dataset.dataset_id]["loaded"] for w in cluster.workers)
    # The root tier holds answers folded by the old tree; the worker memos,
    # keyed by slice, are what this mode exercises.
    cluster.computation_cache.clear()
    return dataset


@execution_mode("grown 2 → 3 after every spec ran: version 1, shards moved")
def grown(directory):
    dataset = resized(directory, 2, lambda cluster: cluster.grow(1))
    assert len(dataset.cluster.workers) == 3
    yield plain(dataset, 3)


@execution_mode("shrunk 3 → 2 after every spec ran: version 1, shards moved")
def shrunk(directory):
    dataset = resized(directory, 3, lambda cluster: cluster.shrink([2]))
    assert len(dataset.cluster.workers) == 2
    yield plain(dataset)


@execution_mode("a 4-core worker stole slices from a 1-core straggler")
def stolen(directory):
    straggler, thief = Worker("straggler", cores=1), Worker("thief", cores=4)
    cluster = Cluster(workers=[straggler, thief], aggregation_interval=0.02)
    dataset = cluster.load(ColumnarDatasetSource(directory))

    def steal_then_run(spec):
        # A steal races the straggler's own pool: on a loaded machine the
        # straggler may start every shard before a claim lands, so a run
        # without a steal is retried; only a run that stole is compared.
        slowed = {"type": "slow", "perShardSeconds": 0.01, "inner": spec}
        for _ in range(5):
            stolen, donated = thief.slices_stolen, straggler.slices_donated
            with pytest.MonkeyPatch.context() as env:
                env.setenv("REPRO_STEAL_AFTER", "0.005")
                result = run(dataset, slowed)
            if thief.slices_stolen > stolen and straggler.slices_donated > donated:
                return seen(result.value)
        pytest.fail("the idle worker never stole")

    yield Mode(2, steal_then_run)


@execution_mode("the repeat was a root cache hit, with no bytes, iff cacheable")
def warm_root(directory):
    dataset = in_process().load(ColumnarDatasetSource(directory))

    def repeat(spec):
        assert not run(dataset, spec).cache_hit
        again = run(dataset, spec)
        assert again.cache_hit == cacheable(spec) == (again.bytes_received == 0)
        return seen(again.value)

    yield Mode(2, repeat)


@execution_mode("a fresh root hit every worker's memo, scanning nothing, iff cacheable")
def warm_memo(directory):
    workers = [Worker(f"memo-{i}", cores=2) for i in range(2)]
    source = ColumnarDatasetSource(directory)
    warm, fresh = (
        Cluster(workers=workers, aggregation_interval=0.01).load(source) for _ in range(2)
    )

    def warm_then_fresh(spec):
        run(warm, spec)
        scans = [w.shards_summarized for w in workers]
        result = run(fresh, spec)
        assert not result.cache_hit
        assert result.worker_cache_hits == (2 if cacheable(spec) else 0)
        assert (scans == [w.shards_summarized for w in workers]) == cacheable(spec)
        return seen(result.value)

    yield Mode(2, warm_then_fresh)


@execution_mode("under `REPRO_DISABLE_CACHES=1` the repeat hit no tier")
def uncached(directory):
    dataset = in_process().load(ColumnarDatasetSource(directory))

    def repeat(spec):
        with pytest.MonkeyPatch.context() as env:
            env.setenv("REPRO_DISABLE_CACHES", "1")
            first, again = run(dataset, spec), run(dataset, spec)
        assert not first.cache_hit and not again.cache_hit
        assert again.worker_cache_hits == 0
        return seen(again.value)

    yield Mode(2, repeat)


@execution_mode("the shards were read to the heap (`use_mmap=False`)")
def heap(directory):
    shards = columnar.read_dataset(directory, use_mmap=False)
    assert all(shard.column("i").data.flags.writeable for shard in shards)
    yield plain(in_process().load(TableSource(shards)))


@execution_mode("the summaries crossed the gateway to a `RemoteDataSet`")
def ws(directory):
    server = ServiceServer(in_process())
    server.start_background()
    gateway = GatewayServer(server)
    gateway.start_background()
    socket = GatewayWebSocket(*gateway.address, timeout=60)
    try:
        socket.connect()
        yield plain(RemoteDataSet.load(socket, {"kind": "hvc", "directory": directory}))
    finally:
        socket.close()
        gateway.close()
        server.close()


@execution_mode(
    "a second root adopted the daemon fleet the first placed", pytest.mark.tier2
)
def second_root(directory):
    with daemon_fleet("invariant", 2) as fleet:
        first = ProcessCluster(addresses=fleet, aggregation_interval=0.01)
        second = ProcessCluster(addresses=fleet, aggregation_interval=0.01)
        try:
            loaded = first.load(ColumnarDatasetSource(directory))
            assert [w.name for w in second.workers] == [w.name for w in first.workers]
            dataset = second.load(ColumnarDatasetSource(directory))
            assert dataset.dataset_id == loaded.dataset_id
            yield plain(dataset)
        finally:
            second.close()
            first.close()


@pytest.fixture(
    scope="module",
    params=[pytest.param(name, marks=marks) for name, (_, _, marks) in MODES.items()],
)
def mode(request, canonical_dataset):
    yield from MODES[request.param][0](canonical_dataset)


@pytest.fixture(scope="module")
def reference(canonical_dataset):
    """What a fresh in-process cluster of ``workers`` answers for a spec
    (one cluster per answer: no cache tier of the reference is ever warm)."""

    @functools.cache
    def answer(workers: int, name: str) -> Seen:
        dataset = in_process(workers).load(ColumnarDatasetSource(canonical_dataset))
        return seen(dataset.sketch(sketch_from_json(SPECS[name])))

    return answer


@pytest.mark.parametrize("name", SPECS)
def test_the_client_sees_the_reference(mode, name, reference):
    assert mode.run(SPECS[name]) == reference(mode.workers, name)


@pytest.mark.parametrize("name", [name for name in SPECS if name not in FOLD_DEPENDENT])
def test_parallel_dataset_sees_the_reference(name, reference, canonical_dataset):
    shards = ColumnarDatasetSource(canonical_dataset).load()
    parallel = ParallelDataSet([LocalDataSet(shard) for shard in shards])
    assert seen(parallel.sketch(sketch_from_json(SPECS[name]))) == reference(2, name)


def test_specs_reach_every_sketch_type():
    reached = {spec["type"] for spec in SPECS.values()}
    assert set(SKETCH_TYPES) - reached == {"save", "slow"}
    assert FOLD_DEPENDENT < set(SPECS)


def render_matrix() -> str:
    """README's mode × spec-family table, from the live matrix."""
    families = sorted({spec["type"] for spec in SPECS.values()})
    every = Counter(spec["type"] for spec in SPECS.values())
    exact = Counter(SPECS[n]["type"] for n in SPECS if n not in FOLD_DEPENDENT)
    rows = [(f"`{name}`", text, every) for name, (_, text, _) in MODES.items()]
    rows.append(("`ParallelDataSet`", "the spec is fold-exact", exact))
    lines = [
        "| mode | asserted before comparing | " + " | ".join(families) + " |",
        "|---|---|" + "---|" * len(families),
    ]
    for name, precondition, counts in rows:
        cells = " | ".join(str(counts[family]) for family in families)
        lines.append(f"| {name} | {precondition} | {cells} |")
    return "\n".join(lines)

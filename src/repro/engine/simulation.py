"""Discrete-event simulator of the Hillview cluster (figure-scale runs).

The paper's testbed is eight 28-core Xeon servers holding 13B rows; this
machine is not.  The figure-scale experiments therefore run on a
deterministic discrete-event simulation with the architecture of §5:

* servers with a fixed core count execute micropartition *leaf tasks*
  (costs from the calibrated :class:`~repro.engine.costmodel.CostModel`);
* each server is its own aggregation node: it merges finished leaves and
  forwards a cumulative partial to the root at the 0.1 s cadence;
* the root merges server partials; the client sees the first partial after
  one more network hop — both timestamps are reported, as in Figure 5;
* cold runs prepend per-server SSD loads of the touched columns (§5.4:
  "when a worker needs a column, it reads it completely");
* per-shard multiplicative jitter models stragglers, which is what makes
  progressive partials matter.

A query is a sequence of :class:`SimPhase` values (preparation, rendering —
§5.3's two trees); concurrent phases share the tree, sequential phases add.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.rand import rng_for
from repro.engine.costmodel import CostModel


@dataclass(frozen=True)
class SimCluster:
    """Cluster shape: servers, cores, and the dataset's sharding."""

    servers: int
    cores_per_server: int
    total_rows: int
    micropartition_rows: int = 15_000_000  # §5.3: 10-20M rows

    def shards_per_server(self) -> list[int]:
        """Number of micropartitions each server holds."""
        rows_per_server = self.total_rows // self.servers
        shards = max(1, round(rows_per_server / self.micropartition_rows))
        return [shards] * self.servers

    def rows_per_shard(self) -> int:
        per_server = self.total_rows // self.servers
        return per_server // max(1, self.shards_per_server()[0])


@dataclass(frozen=True)
class SimPhase:
    """One execution tree: what every leaf does and what it sends up.

    ``kind`` selects the cost formula:

    * ``scan`` — stream every row of the shard over ``columns`` columns;
    * ``sample`` — draw ``total_samples`` rows across the whole dataset
      (each shard draws its proportional share — this is what makes sampled
      vizketches scale *super-linearly*, §7.2.2);
    * ``sort`` — scan + sort the shard over ``columns`` columns (next-items).
    """

    kind: str  # "scan" | "sample" | "sort"
    columns: int = 1
    total_samples: int = 0
    summary_bytes: int = 256

    def leaf_cost_s(
        self, model: CostModel, rows_per_shard: int, total_rows: int
    ) -> float:
        if self.kind == "scan":
            return model.task_setup_s + model.scan_cost_s(rows_per_shard, self.columns)
        if self.kind == "sample":
            share = rows_per_shard / max(total_rows, 1)
            sampled = min(self.total_samples * share, rows_per_shard)
            # Above ~80% sampling a scan is cheaper; the engine switches to
            # streaming, exactly like the spreadsheet's SCAN_RATE_THRESHOLD.
            if sampled >= 0.8 * rows_per_shard:
                return model.task_setup_s + model.scan_cost_s(
                    rows_per_shard, self.columns
                )
            return model.task_setup_s + model.sample_cost_s(int(sampled))
        if self.kind == "sort":
            return model.task_setup_s + model.sort_cost_s(rows_per_shard, self.columns)
        raise ValueError(f"unknown phase kind {self.kind!r}")


@dataclass
class SimResult:
    """Timings and bytes for one simulated query."""

    first_partial_s: float
    total_s: float
    bytes_to_root: int
    partials_to_root: int
    leaf_tasks: int

    def __add__(self, other: "SimResult") -> "SimResult":
        """Sequential composition of two query phases."""
        return SimResult(
            first_partial_s=self.first_partial_s,
            total_s=self.total_s + other.total_s,
            bytes_to_root=self.bytes_to_root + other.bytes_to_root,
            partials_to_root=self.partials_to_root + other.partials_to_root,
            leaf_tasks=self.leaf_tasks + other.leaf_tasks,
        )


def _schedule_leaves(
    costs: list[float], cores: int, releases: list[float]
) -> list[float]:
    """List-schedule leaf tasks on ``cores``; returns completion times.

    ``releases[i]`` is when shard i becomes available (0 when warm; its
    disk-load completion when cold — loading overlaps compute, §5.4).
    """
    heap = [0.0] * cores
    heapq.heapify(heap)
    finished = []
    for cost, release in zip(costs, releases):
        free_at = heapq.heappop(heap)
        done = max(free_at, release) + cost
        finished.append(done)
        heapq.heappush(heap, done)
    return finished


def simulate_phase(
    cluster: SimCluster,
    phase: SimPhase,
    model: CostModel,
    cold_columns: int = 0,
    seed: int = 0,
) -> SimResult:
    """Simulate one execution tree over the cluster."""
    shard_counts = cluster.shards_per_server()
    rows_per_shard = cluster.rows_per_shard()
    total_rows = cluster.total_rows

    bytes_to_root = 0
    partials = 0
    first_partial: float | None = None
    completion = 0.0
    leaf_tasks = 0

    for server in range(cluster.servers):
        rng = rng_for(seed, "sim", server)
        count = shard_counts[server]
        if cold_columns > 0:
            # Cold data: one disk per server streams the touched columns of
            # each micropartition in turn; computation on a shard starts as
            # soon as that shard is loaded (loads overlap compute, §5.4) —
            # this is why first partials stay early even on cold data.
            per_shard_load = model.disk_load_s(rows_per_shard, cold_columns)
            releases = [per_shard_load * (i + 1) for i in range(count)]
        else:
            releases = [0.0] * count
        base = phase.leaf_cost_s(model, rows_per_shard, total_rows)
        jitter = 1.0 + model.jitter_fraction * (rng.random(count) * 2.0 - 1.0)
        costs = (base * jitter).tolist()
        leaf_tasks += len(costs)
        finish_times = sorted(
            _schedule_leaves(costs, cluster.cores_per_server, releases)
        )

        # Aggregation node: one partial per cadence window with >= 1 new
        # leaf result, plus the final one when the last leaf lands.
        sends = 0
        window_end = None
        for t in finish_times:
            if window_end is None or t > window_end:
                sends += 1
                window_end = t + model.aggregation_interval_s
        last_leaf = finish_times[-1]
        first_leaf = finish_times[0]

        transfer = model.transfer_s(phase.summary_bytes)
        first_arrival = first_leaf + transfer
        final_arrival = last_leaf + transfer
        bytes_to_root += sends * phase.summary_bytes
        partials += sends
        if first_partial is None or first_arrival < first_partial:
            first_partial = first_arrival
        completion = max(completion, final_arrival)

    assert first_partial is not None
    return SimResult(
        first_partial_s=first_partial + model.client_latency_s,
        total_s=completion + model.client_latency_s,
        bytes_to_root=bytes_to_root,
        partials_to_root=partials,
        leaf_tasks=leaf_tasks,
    )


@dataclass(frozen=True)
class TreeShape:
    """The aggregation-tree geometry for one query (§5.2, Figure 1).

    Hillview's execution tree is rooted at the web server with one or more
    layers of aggregation nodes above the per-server leaves; "a small
    deployment with tens of servers needs only one layer".  This model
    quantifies the trade-off a fanout choice makes: fewer children per node
    shrinks the root's in-degree (incast) at the price of extra merge hops
    on the path of every partial result.
    """

    servers: int
    fanout: int
    #: Aggregation-node counts per layer, leaf-most layer first; empty when
    #: every server reports directly to the root.
    layer_widths: tuple[int, ...]

    @property
    def layers(self) -> int:
        return len(self.layer_widths)

    @property
    def root_in_degree(self) -> int:
        return self.layer_widths[-1] if self.layer_widths else self.servers

    @property
    def aggregation_nodes(self) -> int:
        return sum(self.layer_widths)

    def hop_latency_s(self, model: CostModel, summary_bytes: int) -> float:
        """Added latency of the aggregation hops (vs direct-to-root)."""
        return self.layers * model.transfer_s(summary_bytes)

    def root_bytes_per_round(self, summary_bytes: int) -> int:
        """Bytes arriving at the root per aggregation cadence round."""
        return self.root_in_degree * summary_bytes


def aggregation_tree(servers: int, fanout: int) -> TreeShape:
    """Build the aggregation-tree shape for ``servers`` under ``fanout``.

    Layers of aggregation nodes are added until at most ``fanout`` nodes
    report to the root.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    widths: list[int] = []
    width = servers
    while width > fanout:
        width = -(-width // fanout)  # ceil division
        widths.append(width)
    return TreeShape(servers=servers, fanout=fanout, layer_widths=tuple(widths))


def simulate_query(
    cluster: SimCluster,
    phases: list[SimPhase],
    model: CostModel,
    cold_columns: int = 0,
    seed: int = 0,
) -> SimResult:
    """Simulate a query of sequential phases (§5.3: prepare then render).

    Cold column loads are paid once, by the first phase — afterwards the
    data cache holds the columns (§5.4).
    """
    if not phases:
        raise ValueError("a query needs at least one phase")
    result = simulate_phase(cluster, phases[0], model, cold_columns, seed)
    total = result
    for i, phase in enumerate(phases[1:], start=1):
        step = simulate_phase(cluster, phase, model, 0, seed + i)
        # The first *user-visible* partial comes from the final phase (the
        # rendering tree); earlier trees only prepare parameters.
        total = SimResult(
            first_partial_s=total.total_s + step.first_partial_s,
            total_s=total.total_s + step.total_s,
            bytes_to_root=total.bytes_to_root + step.bytes_to_root,
            partials_to_root=total.partials_to_root + step.partials_to_root,
            leaf_tasks=total.leaf_tasks + step.leaf_tasks,
        )
    return total

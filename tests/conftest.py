"""Shared fixtures: small deterministic tables, flights data, clusters,
the canonical hvc dataset, pre-started worker daemons, and the two
deployments a worker contract runs against."""

from __future__ import annotations

import collections
import contextlib
import json
import socket
import subprocess
import threading

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "tier2: distributed correctness tests that spawn worker processes "
        "(also run by the scheduled CI chaos job)",
    )

from repro.core.buckets import DoubleBuckets
from repro.data.flights import FlightsSource, generate_flights
from repro.engine.cluster import Cluster, Worker
from repro.engine.placement import parse_address
from repro.engine.remote import (
    RemoteWorkerProxy,
    WorkerServer,
    _WorkerChannel,
    spawn_worker,
)
from repro.engine.verbs import WIRE_VERBS
from repro.sketches.histogram import HistogramSketch
from repro.sketches.specs import CANONICAL_SCHEMA, DATE_HI, DATE_LO
from repro.storage import columnar
from repro.table.column import (
    DateColumn,
    DoubleColumn,
    IntColumn,
    StringColumn,
    datetime_to_millis,
)
from repro.table.schema import ColumnDescription
from repro.table.table import Table

#: Instants ``int(value.timestamp() * 1000)`` lands a millisecond low
#: (2004-02-01T00:00:00.001Z and two more); the earliest dates in
#: ``canonical_table``, so date-ordered nextK pages show them.
SHIFTED_MILLIS = (1075593600001, 1075852800008, 1080000000123)


def canonical(payload) -> str:
    """A JSON payload as sorted-key text: what two clients compare."""
    return json.dumps(payload, sort_keys=True)


def canonical_table(rows: int = 800) -> Table:
    """A seeded table over ``repro.sketches.specs``' canonical schema,
    built from int64 epoch millis so no date crosses a conversion."""
    rng = np.random.default_rng(2021)
    holes = [rng.random(rows) < 0.1 for _ in range(4)]
    lo, hi = datetime_to_millis(DATE_LO), datetime_to_millis(DATE_HI)
    dates = rng.integers(lo, hi, rows)
    dates[[7, 400, 700]] = SHIFTED_MILLIS
    holes[2][[7, 400, 700]] = False
    letters = ["".join(rng.choice(list("abcdegkpz"), 2)) for _ in range(rows)]
    integers = rng.integers(-60, 61, rows)
    doubles = np.where(holes[1], np.nan, rng.uniform(-60, 60, rows))
    strings = [None if hole else s for hole, s in zip(holes[3], letters)]
    desc = {name: ColumnDescription(name, k) for name, k in CANONICAL_SCHEMA.items()}
    return Table([
        IntColumn(desc["i"], integers, holes[0]),
        DoubleColumn(desc["d"], doubles),
        DateColumn(desc["t"], dates, holes[2]),
        StringColumn.from_values(desc["s"], strings),
    ])


@pytest.fixture(scope="session")
def canonical_dataset(tmp_path_factory) -> str:
    """``canonical_table`` written once as 8 hvc shards; every cluster,
    daemon and wire client loads the same bytes by this path."""
    directory = str(tmp_path_factory.mktemp("canonical"))
    columnar.write_dataset(canonical_table().split(8), directory)
    return directory


def spawn_daemon(name: str):
    """Start one ``repro worker --listen`` daemon: (process, address)."""
    return spawn_worker(name, cores=2)


@contextlib.contextmanager
def daemon_fleet(prefix: str, count: int):
    """``count`` daemons named ``prefix-i`` that outlive any root;
    yields their addresses and terminates them on exit."""
    procs, addresses = [], []
    try:
        for i in range(count):
            proc, address = spawn_daemon(f"{prefix}-{i}")
            procs.append(proc)
            addresses.append(address)
        yield addresses
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            with proc:  # closes its pipes and reaps it
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()


def connect(server: WorkerServer, address=("pair", 0)) -> RemoteWorkerProxy:
    """A proxy to ``server`` over a ``socketpair`` served on a thread;
    ``address`` is the member token it answers to."""
    near, far = socket.socketpair()
    threading.Thread(target=server.serve_socket, args=(far,), daemon=True).start()
    name = server.worker.name
    return RemoteWorkerProxy(
        name, _WorkerChannel(near, name), server.worker.cores, address
    )


def count_verb_calls(worker) -> collections.Counter:
    """Count the verbs ``worker`` — a ``Worker`` or a proxy — is asked
    to serve, by wrapping each protocol method on the instance."""
    calls: collections.Counter = collections.Counter()

    def counted(name: str, method):
        def call(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return call

    for verb in WIRE_VERBS:
        if verb.method is not None:
            method = getattr(worker, verb.method)
            setattr(worker, verb.method, counted(verb.wire, method))
    return calls


def check_resident_threads(build, column: str, monkeypatch) -> None:
    """``build()`` makes a ``(cluster, dataset)``; 50 uncached histograms
    of ``column`` follow.  The last 45 must start no thread, the threads
    started since this began must stay as many as after the first 5,
    and after ``cluster.close()`` none of them may be alive.  Counting
    only threads started here keeps pools that earlier tests left
    idling out of the count."""
    monkeypatch.setenv("REPRO_STEAL_AFTER", "inf")  # no claim tasks
    before = set(threading.enumerate())
    cluster, dataset = build()
    counts = iter(range(10, 60))

    def sketches(n: int) -> None:
        for _ in range(n):
            buckets = DoubleBuckets(0, 100, next(counts))
            dataset.sketch(HistogramSketch(column, buckets))

    def new_threads() -> list:
        return [t for t in threading.enumerate() if t not in before]

    try:
        sketches(5)
        after_five = len(new_threads())
        started: list = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        sketches(45)
        monkeypatch.undo()
        assert started == []
        assert len(new_threads()) == after_five
    finally:
        cluster.close()
    assert [t.name for t in new_threads() if t.is_alive()] == []


class InProcessDeployment:
    """Workers are plain objects; a moved shard is an object reference."""

    def make(self, name: str, cores: int = 2):
        return Worker(name, cores=cores)

    def worker_of(self, handle) -> Worker:
        return handle

    def rejoin(self, handle):
        """Another root's handle on the same worker."""
        return handle

    def root(self, handles) -> Cluster:
        return Cluster(workers=handles, aggregation_interval=0.01)

    def close(self) -> None:
        pass


class _PairCluster(Cluster):
    """A root whose members are ``pair:N`` daemons of a
    :class:`WireDeployment`: it reaches one over a fresh socket pair."""

    def __init__(self, deployment: "WireDeployment", workers):
        self._deployment = deployment
        super().__init__(workers=workers, aggregation_interval=0.01)

    def _reach(self, member: str):
        return self._deployment.attach(member)


class WireDeployment:
    """Each worker is a :class:`WorkerServer` serving one end of a
    ``socketpair`` on a thread, reached through a
    :class:`RemoteWorkerProxy` on the other: the real wire, no
    subprocesses.  A moved shard is an ``adoptShards`` frame over a
    fresh pair — the seam a real daemon fills by dialing the member."""

    def __init__(self):
        self.servers: dict[str, WorkerServer] = {}
        self.proxies: list[RemoteWorkerProxy] = []

    def _connect(self, server: WorkerServer, member: str) -> RemoteWorkerProxy:
        proxy = connect(server, parse_address(member))
        self.proxies.append(proxy)
        return proxy

    def make(self, name: str, cores: int = 2):
        server = WorkerServer(
            name=name, cores=cores, cache_sweep_interval_seconds=0
        )
        server.worker.deliver = self._deliver
        member = f"pair:{len(self.servers) + 1}"
        self.servers[member] = server
        return self._connect(server, member)

    def worker_of(self, handle) -> Worker:
        """The daemon-side :class:`Worker` behind a proxy."""
        return self.servers[handle.member].worker

    def attach(self, member: str) -> RemoteWorkerProxy:
        """A new proxy to the ``pair:N`` daemon ``member``."""
        return self._connect(self.servers[member], member)

    def rejoin(self, handle) -> RemoteWorkerProxy:
        """Another root's handle on the same worker: its own proxy."""
        return self.attach(handle.member)

    def root(self, handles) -> Cluster:
        return _PairCluster(self, handles)

    def _deliver(self, target, dataset_id, version, parcels) -> int:
        return self.attach(target).adopt_shards(dataset_id, version, parcels)

    def drain(self, worker) -> None:
        self.servers[worker.member].begin_drain()

    def close(self) -> None:
        for proxy in self.proxies:
            proxy.close()


@pytest.fixture(
    params=[InProcessDeployment, WireDeployment], ids=["in-process", "wire"]
)
def deployment(request):
    """One worker contract, two deployments: ``Worker`` objects, and
    ``RemoteWorkerProxy`` ↔ ``WorkerServer`` over a socket pair."""
    deployment = request.param()
    yield deployment
    deployment.close()


@pytest.fixture
def small_table() -> Table:
    """A tiny mixed-kind table with missing values, used across tests."""
    return Table.from_pydict(
        {
            "x": [3, 1, 2, None, 5, 4, 1, 2],
            "y": [0.5, 1.5, None, 2.5, 3.5, 0.5, 1.5, 2.5],
            "name": ["bob", "alice", "carol", None, "alice", "dave", "bob", "alice"],
        }
    )


@pytest.fixture(scope="session")
def medium_numeric() -> Table:
    """50k uniform rows in one numeric column plus a category column."""
    rng = np.random.default_rng(7)
    n = 50_000
    return Table.from_pydict(
        {
            "value": rng.uniform(0, 100, n).tolist(),
            "group": [f"g{int(v)}" for v in rng.integers(0, 12, n)],
        }
    )


@pytest.fixture(scope="session")
def flights() -> Table:
    """A session-scoped synthetic flights table (60k rows)."""
    return generate_flights(60_000, seed=42)


@pytest.fixture
def cluster() -> Cluster:
    """A 3-worker cluster with a fast aggregation cadence for tests."""
    return Cluster(num_workers=3, cores_per_worker=2, aggregation_interval=0.01)


@pytest.fixture
def flights_cluster(cluster: Cluster):
    """A cluster pre-loaded with 40k flights in 12 partitions."""
    dataset = cluster.load(FlightsSource(40_000, partitions=12, seed=5))
    return cluster, dataset

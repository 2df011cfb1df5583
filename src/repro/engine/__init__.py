"""The Hillview execution engine (paper §5).

Queries execute as trees: leaves run ``summarize`` over micropartitions in
parallel, aggregation nodes ``merge`` results upward at a fixed cadence, and
the root streams progressively merged partial results to the client.  The
engine also provides computation/data caching, cancellation, soft state
with redo-log replay (fault tolerance), and network byte accounting.

Two interchangeable engines implement :class:`~repro.engine.dataset.IDataSet`:

* :mod:`repro.engine.local` — in-process, real threads; used by tests and
  wall-clock microbenchmarks;
* :mod:`repro.engine.cluster` — a multi-"server" engine with per-server
  object stores, caches, redo log and fault injection; the reproduction of
  the paper's distributed architecture.

:mod:`repro.engine.simulation` additionally provides a deterministic
discrete-event simulator for figure-scale experiments (billions of rows).
"""

from repro.engine.progress import (
    CancellationToken,
    PartialResult,
    SketchRun,
)
from repro.engine.dataset import (
    IDataSet,
    TableMap,
    FilterMap,
    DeriveMap,
    ExpressionMap,
    ProjectMap,
)
from repro.engine.local import LocalDataSet, ParallelDataSet, parallel_dataset
from repro.engine.cache import (
    CacheStats,
    ComputationCache,
    DataCache,
    MemoCache,
    caches_disabled,
)
from repro.engine.cluster import (
    Cluster,
    ClusterDataSet,
    StolenParcel,
    Worker,
    WorkerProtocol,
    prewarm_budget_bytes,
)
from repro.engine.remote import (
    ProcessCluster,
    RemoteWorkerProxy,
    WorkerServer,
)
from repro.engine.rpc import ProtocolError, RpcReply, RpcRequest
from repro.engine.web import WebServer

__all__ = [
    "CancellationToken",
    "PartialResult",
    "SketchRun",
    "IDataSet",
    "TableMap",
    "FilterMap",
    "DeriveMap",
    "ExpressionMap",
    "ProjectMap",
    "LocalDataSet",
    "ParallelDataSet",
    "parallel_dataset",
    "CacheStats",
    "ComputationCache",
    "MemoCache",
    "caches_disabled",
    "ProtocolError",
    "RpcReply",
    "RpcRequest",
    "WebServer",
    "DataCache",
    "Cluster",
    "ClusterDataSet",
    "ProcessCluster",
    "RemoteWorkerProxy",
    "StolenParcel",
    "Worker",
    "WorkerProtocol",
    "WorkerServer",
    "prewarm_budget_bytes",
]

"""Root-side bookkeeping of the worker wire: abandoned requests leave no
reply queue behind, the served/scanned counters lose no update, a
worker's stream ends with its last summary, and a malformed summary
reply is a protocol error.

Most tests talk to an in-thread :class:`WorkerServer` over a
``socket.socketpair()`` — the real channel and dispatch, no subprocess.
``TestStreamEnd`` dials in-thread daemons over loopback TCP instead: an
AF_UNIX pair has no Nagle algorithm, so only TCP shows a stream whose
end waits on a small frame written right behind another.
"""

from __future__ import annotations

import socket
import statistics
import sys
import threading

import pytest

import repro.service.slow  # noqa: F401 — the "slow" wire type
from repro.core.framing import read_frame_blocking, write_frame
from repro.data.flights import FlightsSource
from repro.engine.cluster import Worker
from repro.engine.redo_log import LoadOp
from repro.engine.remote import (
    ProcessCluster,
    RemoteWorkerProxy,
    WorkerServer,
    _WorkerChannel,
)
from repro.engine.rpc import (
    RpcReply,
    RpcRequest,
    sketch_from_json,
    summary_to_bytes,
)
from repro.errors import ProtocolError, WorkerUnavailableError
from repro.storage.loader import TableSource
from repro.table.table import Table

from tests.conftest import connect
from tests.test_service_placement import listening

HIST = {
    "type": "histogram",
    "column": "Distance",
    "buckets": {"type": "double", "min": 0, "max": 3000, "count": 9},
}


@pytest.fixture()
def server():
    return WorkerServer(name="pair", cores=2, cache_sweep_interval_seconds=0)


class TestAbandonedRequests:
    def test_timed_out_call_unregisters_and_late_reply_is_dropped(self, server):
        release = threading.Event()
        server.worker.ping = lambda: release.wait(10.0)  # answers late
        proxy = connect(server)
        try:
            with pytest.raises(WorkerUnavailableError, match="did not answer"):
                proxy.ping(timeout=0.2)
            assert len(proxy.channel._pending) == 0
            release.set()  # the late reply is on its way now
            del server.worker.ping
            # Frames are read in order: once this answer is back, the
            # late one has been through the reader — and went nowhere.
            assert proxy.ping(timeout=10.0) is True
            assert len(proxy.channel._pending) == 0
        finally:
            proxy.close()

    def test_stream_closed_early_unregisters(self, server):
        proxy = connect(server)
        try:
            proxy.configure(0, 1, 0.01)
            source = FlightsSource(2_000, partitions=8, seed=3)
            proxy.ensure("ds", [LoadOp("ds", source)])
            slow = sketch_from_json(
                {"type": "slow", "perShardSeconds": 0.05, "inner": HIST}
            )
            stream = proxy.sketch_partials("ds", slow, [])
            next(stream)
            assert len(proxy.channel._pending) == 1
            stream.close()  # the consumer walks away mid-stream
            assert len(proxy.channel._pending) == 0
        finally:
            proxy.close()

    def test_stalled_stream_unregisters(self, server):
        release = threading.Event()
        server._run_sketch = lambda request, link: iter(
            () if release.wait(10.0) else ()
        )
        proxy = connect(server)
        proxy.request_timeout = 0.2
        try:
            with pytest.raises(WorkerUnavailableError, match="stalled"):
                list(proxy.sketch_partials("ds", sketch_from_json(HIST), []))
            assert len(proxy.channel._pending) == 0
        finally:
            release.set()
            proxy.close()


class TestUnreachableTransferTarget:
    def test_dead_member_is_an_error_reply_not_a_timeout(self, server):
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            dead = "127.0.0.1:%d" % closed.getsockname()[1]
        proxy = connect(server)
        try:
            proxy.configure(0, 1, 0.01)
            source = FlightsSource(2_000, partitions=4, seed=3)
            proxy.ensure("ds", [LoadOp("ds", source)])
            moves = [{"target": dead, "globalIndices": [1, 3]}]
            # The daemon answers at once; the 5 s budget is never touched.
            with pytest.raises(WorkerUnavailableError, match="cannot reach"):
                proxy.transfer_shards("ds", moves, 1, timeout=5.0)
        finally:
            proxy.close()


class TestExactCounters:
    @pytest.fixture(autouse=True)
    def eager_thread_switches(self):
        """Make a lost read-modify-write likely instead of rare."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    def test_every_shard_scan_is_counted(self):
        worker = Worker("wide", cores=8)
        worker.configure(0, 1, 0.01)
        rows = Table.from_pydict({"Distance": [float(i) for i in range(512)]})
        lineage = [LoadOp("ds", TableSource([rows], 512))]
        assert worker.ensure("ds", lineage).shards == 512
        sketch = sketch_from_json(HIST)
        list(worker.sketch_partials("ds", sketch, []))
        assert worker.shards_summarized == 512

    def test_every_request_of_every_root_is_counted(self, server):
        roots, calls = 4, 150
        proxies = [connect(server) for _ in range(roots)]

        def hammer(proxy: RemoteWorkerProxy) -> None:
            for _ in range(calls):
                proxy.ping()

        threads = [threading.Thread(target=hammer, args=(p,)) for p in proxies]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert server.requests_served == roots * calls
        finally:
            for proxy in proxies:
                proxy.close()


class TestIdleDaemon:
    def test_an_idle_daemon_reports_nothing_in_flight(self, server):
        """The probe that reads ``inflight`` is not itself in flight."""
        proxy = connect(server)
        try:
            assert [proxy.metrics_snapshot()["inflight"] for _ in range(3)] == [0] * 3
        finally:
            proxy.close()


def histogram(count: int):
    return sketch_from_json(
        {**HIST, "buckets": {**HIST["buckets"], "count": count}}
    )


class TestStreamEnd:
    def test_the_terminal_carries_the_last_summary_over_tcp(self):
        """Per query, the slowest worker's end (the root's read of its
        terminal) lags its last emission by under 10 ms.  A last summary
        sent as a ``partial`` and then a separate small ``complete``
        stalled ~40 ms here: Nagle held the second frame for the
        delayed ACK of the first."""
        with listening(2) as addresses:
            cluster = ProcessCluster(addresses=addresses)
            try:
                dataset = cluster.load(FlightsSource(4_000, partitions=8, seed=3))
                tails = []
                for count in range(5, 15):  # distinct bucketings: no cache
                    *_, last = dataset.sketch_stream(histogram(count))
                    workers = last.profile["workers"]
                    assert len(workers) == 2 and not last.cache_hit
                    tails.append(
                        max(w["endSeconds"] - w["lastEmitSeconds"] for w in workers)
                    )
            finally:
                cluster.close()
        assert statistics.median(tails) < 0.010, tails


class TestMalformedSummaryReply:
    """A worker is another process: a summary reply whose header does
    not say how many shards and bytes it covers fails the stream as a
    protocol error naming the worker, not as ``internal``."""

    @staticmethod
    def _stream(reply: RpcReply):
        """A proxy whose ``worker`` answers its first request with
        ``reply`` (request id filled in) over a socket pair."""
        near, far = socket.socketpair()

        def answer() -> None:
            with far, far.makefile("rb") as rfile, far.makefile("wb") as wfile:
                request = RpcRequest.from_frame(read_frame_blocking(rfile))
                reply.request_id = request.request_id
                write_frame(wfile, reply.to_frame())
                read_frame_blocking(rfile)  # until the proxy hangs up

        threading.Thread(target=answer, daemon=True).start()
        proxy = RemoteWorkerProxy("liar", _WorkerChannel(near, "liar"), 1, ("liar", 0))
        return proxy, proxy.sketch_partials("ds", histogram(9), [])

    @pytest.mark.parametrize("kind", ["partial", "complete"])
    @pytest.mark.parametrize(
        "payload",
        [
            {"shardsDone": "6", "bytes": 55, "cacheHit": False},
            {"shardsDone": 6, "bytes": 5.5, "cacheHit": False},
            {"shardsDone": 6, "cacheHit": False},
            {"shardsDone": True, "bytes": 55},
            [6, 55],
        ],
    )
    def test_a_bad_header_is_a_protocol_error(self, kind, payload):
        reply = RpcReply(0, kind, payload=payload)
        reply.attachment = summary_to_bytes(histogram(9).zero())
        proxy, stream = self._stream(reply)
        try:
            with pytest.raises(ProtocolError, match="worker liar"):
                next(stream)
        finally:
            proxy.close()

    def test_a_complete_with_a_summary_but_no_payload(self):
        reply = RpcReply(0, "complete")
        reply.attachment = summary_to_bytes(histogram(9).zero())
        proxy, stream = self._stream(reply)
        try:
            with pytest.raises(ProtocolError, match="worker liar"):
                next(stream)
        finally:
            proxy.close()

    def test_a_well_formed_terminal_is_the_final_emission(self):
        reply = RpcReply(0, "complete", payload={"shardsDone": 6, "bytes": 55})
        reply.attachment = summary_to_bytes(histogram(9).zero())
        proxy, stream = self._stream(reply)
        try:
            (emission,) = list(stream)
            assert (emission.shards_done, emission.bytes) == (6, 55)
            assert emission.final and not emission.cache_hit
        finally:
            proxy.close()

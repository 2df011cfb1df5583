"""Observability tests: tracing, metrics, query profiles, structured logs.

The plane's core guarantees:

* **byte identity** — untraced envelopes encode exactly the pre-tracing
  wire format (frozen here as literal strings), so turning the feature
  off really is free;
* **span parenting** — one trace context flows client -> scheduler ->
  engine -> worker streams, and every recorded span chains back to the
  request's root span;
* **fault survival** — revive-and-retry and a mid-sketch placement
  restart stay inside the same trace (retries appear as extra spans,
  the query still answers exactly);
* **profiles** — ``profile: true`` gets a per-stage breakdown on the
  terminal reply and nothing anywhere else;
* **metrics** — the registry aggregates and renders, and the
  ``metricsSnapshot``/``traceDump`` RPCs expose both planes.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import RemoteSession, _worker_line
from repro.core.buckets import DoubleBuckets
from repro.data.flights import FlightsSource
from repro.engine.cluster import Cluster, Worker
from repro.engine.dataset import FilterMap
from repro.engine.rpc import NO_PAYLOAD, RpcReply, RpcRequest
from repro.engine.placement import StalePlacementError
from repro.errors import WorkerUnavailableError
from repro.obs.logs import configure_logging, log_event, reset_logging
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    RECORDER,
    TraceContext,
    chrome_trace,
    current_context,
    record_span,
    serve_span,
    span,
    spans_to_jsonl,
    trace_enabled,
    use_context,
)
from repro.service import ServiceClient, ServiceServer
from repro.sketches.histogram import HistogramSketch
from repro.storage.loader import TableSource
from repro.table.compute import ColumnPredicate

from tests.conftest import WireDeployment

BUCKETS = DoubleBuckets(0, 100, 10)


@pytest.fixture(autouse=True)
def clean_slate():
    RECORDER.clear()
    yield
    RECORDER.clear()


# ---------------------------------------------------------------------------
# Byte identity: tracing off == the pre-tracing wire format, exactly
# ---------------------------------------------------------------------------
class TestWireByteIdentity:
    def test_untraced_request_is_byte_identical(self):
        request = RpcRequest(7, "obj-1", "rowCount", {})
        assert request.to_json() == (
            '{"requestId": 7, "target": "obj-1", '
            '"method": "rowCount", "args": {}}'
        )

    def test_unprofiled_reply_is_byte_identical(self):
        reply = RpcReply(3, "complete", progress=1.0, payload={"rows": 5})
        assert reply.to_json() == (
            '{"requestId": 3, "kind": "complete", '
            '"progress": 1.0, "payload": {"rows": 5}}'
        )

    def test_ack_reply_is_byte_identical(self):
        assert RpcReply(1, "ack").to_json() == (
            '{"requestId": 1, "kind": "ack", "progress": 1.0}'
        )

    def test_trace_field_round_trips_when_present(self):
        ctx = TraceContext.new_root()
        request = RpcRequest(9, "t", "sketch", {"a": 1}, trace=ctx.to_json())
        back = RpcRequest.from_json(request.to_json())
        assert back.trace == ctx.to_json()
        assert TraceContext.from_json(back.trace) == ctx

    def test_profile_field_round_trips_when_present(self):
        reply = RpcReply(4, "complete", payload=None, profile={"totalSeconds": 0.5})
        back = RpcReply.from_json(reply.to_json())
        assert back.profile == {"totalSeconds": 0.5}

    def test_pre_tracing_envelopes_still_decode(self):
        request = RpcRequest.from_json(
            '{"requestId": 2, "target": "x", "method": "schema", "args": {}}'
        )
        assert request.trace is None
        reply = RpcReply.from_json('{"requestId": 2, "kind": "ack"}')
        assert reply.profile is None
        assert reply.payload is NO_PAYLOAD


# ---------------------------------------------------------------------------
# Trace contexts and spans
# ---------------------------------------------------------------------------
class TestTraceContext:
    def test_root_has_no_parent_and_children_chain(self):
        root = TraceContext.new_root()
        assert root.parent_id is None
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_to_json_omits_absent_parent(self):
        root = TraceContext.new_root()
        assert set(root.to_json()) == {"traceId", "spanId"}
        assert set(root.child().to_json()) == {"traceId", "spanId", "parentId"}

    def test_from_json_tolerates_garbage(self):
        assert TraceContext.from_json(None) is None
        assert TraceContext.from_json("nope") is None
        assert TraceContext.from_json({"traceId": "only"}) is None

    def test_trace_enabled_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not trace_enabled()
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert trace_enabled()
        monkeypatch.setenv("REPRO_TRACE", "off")
        assert not trace_enabled()


class TestSpans:
    def test_span_is_a_no_op_without_context(self):
        with span("orphan"):
            pass
        assert len(RECORDER) == 0

    def test_nested_spans_parent_correctly(self):
        root = TraceContext.new_root()
        with use_context(root):
            with span("outer") as outer_ctx:
                with span("inner"):
                    pass
        spans = RECORDER.spans(root.trace_id)
        by_name = {s["name"]: s for s in spans}
        assert by_name["outer"]["parentId"] == root.span_id
        assert by_name["inner"]["parentId"] == outer_ctx.span_id
        assert current_context() is None  # restored on exit

    def test_serve_span_records_the_propagated_context_itself(self):
        ctx = TraceContext.new_root().child()
        with serve_span(ctx, "worker.sketch", worker="w0"):
            pass
        (recorded,) = RECORDER.spans(ctx.trace_id)
        assert recorded["spanId"] == ctx.span_id
        assert recorded["parentId"] == ctx.parent_id
        assert recorded["attrs"]["worker"] == "w0"

    def test_record_span_is_retroactive(self):
        root = TraceContext.new_root()
        child = record_span("queue", root, 123.0, 0.25, depth=3)
        (recorded,) = RECORDER.spans(root.trace_id)
        assert recorded["spanId"] == child.span_id
        assert recorded["parentId"] == root.span_id
        assert recorded["start"] == 123.0
        assert recorded["duration"] == 0.25

    def test_chrome_trace_export(self):
        root = TraceContext.new_root()
        with use_context(root):
            with span("work"):
                pass
        trace = chrome_trace(RECORDER.spans(root.trace_id))
        kinds = {e["ph"] for e in trace["traceEvents"]}
        assert kinds == {"M", "X"}
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["name"] == "work"
        assert complete[0]["dur"] >= 1.0  # never a zero-width slice
        # one line per span, each valid JSON
        lines = spans_to_jsonl(RECORDER.spans(root.trace_id)).splitlines()
        assert all(json.loads(line)["traceId"] == root.trace_id for line in lines)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c", "a counter").inc(3)
        registry.counter("c", "a counter").inc(2)
        registry.gauge("g", "a gauge", callback=lambda: 7)
        h = registry.histogram("h", "a histogram")
        for v in (0.001, 0.002, 0.004, 0.008):
            h.observe(v)
        snap = registry.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == 7.0
        assert snap["h"]["count"] == 4
        assert 0.001 <= snap["h"]["p50"] <= 0.008

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("queries", "queries served").inc()
        registry.gauge("queue.depth", "queue depth", callback=lambda: 2)
        text = registry.render_prometheus()
        assert "# TYPE repro_queries counter" in text
        assert "repro_queries 1" in text
        assert "repro_queue_depth 2" in text


# ---------------------------------------------------------------------------
# Structured logs
# ---------------------------------------------------------------------------
class TestStructuredLogs:
    @pytest.fixture(autouse=True)
    def silent_after(self):
        yield
        reset_logging()

    def test_off_by_default(self):
        sink = io.StringIO()
        log_event("ignored")
        assert sink.getvalue() == ""

    def test_json_records_carry_trace_ids(self):
        sink = io.StringIO()
        configure_logging(json_mode=True, level="info", stream=sink)
        root = TraceContext.new_root()
        with use_context(root):
            log_event("session.create", session="s-1")
        record = json.loads(sink.getvalue())
        assert record["event"] == "session.create"
        assert record["session"] == "s-1"
        assert record["traceId"] == root.trace_id

    def test_level_filtering(self):
        sink = io.StringIO()
        configure_logging(json_mode=True, level="warning", stream=sink)
        log_event("quiet", level="info")
        log_event("loud", level="warning")
        lines = sink.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "loud"


# ---------------------------------------------------------------------------
# Engine-level: traces survive revival and placement restarts
# ---------------------------------------------------------------------------
@pytest.fixture
def small_cluster(medium_numeric):
    cluster = Cluster(num_workers=2, cores_per_worker=2)
    loaded = cluster.load(TableSource([medium_numeric], shards_per_table=8))
    yield cluster, loaded, medium_numeric
    cluster.close()


class TestTraceSurvivesFaults:
    def test_revive_and_retry_stays_in_one_trace(self, small_cluster):
        cluster, loaded, table = small_cluster
        victim = cluster.workers[0]
        original = victim.sketch_partials
        state = {"failed": False}

        def dying(*args, **kwargs):
            if not state["failed"]:
                state["failed"] = True
                raise WorkerUnavailableError("simulated mid-sketch death")
            return original(*args, **kwargs)

        victim.sketch_partials = dying
        cluster.revive_worker = lambda index: True

        ctx = TraceContext.new_root()
        with use_context(ctx):
            summary = loaded.sketch(HistogramSketch("value", BUCKETS))
        exact = HistogramSketch("value", BUCKETS).summarize(table)
        assert np.array_equal(summary.counts, exact.counts)

        streams = [
            s
            for s in RECORDER.spans(ctx.trace_id)
            if s["name"] == "worker.stream"
            and s["attrs"]["worker"] == victim.name
        ]
        attempts = sorted(s["attrs"]["attempt"] for s in streams)
        assert attempts == [1, 2]  # the retry is a sibling span, same trace

    def test_mid_sketch_placement_restart_stays_in_one_trace(
        self, small_cluster
    ):
        cluster, loaded, table = small_cluster
        victim = cluster.workers[1]
        original = victim.sketch_partials
        state = {"failed": False}

        def stale(*args, **kwargs):
            if not state["failed"]:
                state["failed"] = True
                raise StalePlacementError("fleet rebalanced mid-sketch")
            return original(*args, **kwargs)

        victim.sketch_partials = stale
        cluster.resync_placement = lambda observed=None: True

        ctx = TraceContext.new_root()
        with use_context(ctx):
            summary = loaded.sketch(HistogramSketch("value", BUCKETS))
        exact = HistogramSketch("value", BUCKETS).summarize(table)
        assert np.array_equal(summary.counts, exact.counts)

        fanouts = [
            s
            for s in RECORDER.spans(ctx.trace_id)
            if s["name"] == "cluster.fanout"
        ]
        assert len(fanouts) == 2  # the restarted fan-out, same trace


class TestFanOutTracing:
    def test_worker_ensures_parent_under_the_ensure_broadcast(self):
        # Load and map broadcast ensure on the root pool's threads, which
        # carry the caller's context: inside span("cluster.ensure"),
        # that span.  A sketch at the same placement sends none.
        deployment = WireDeployment()
        try:
            cluster = deployment.root(
                [deployment.make(f"worker-{i}") for i in range(2)]
            )
            materialize, query = TraceContext.new_root(), TraceContext.new_root()
            with use_context(materialize):
                loaded = cluster.load(FlightsSource(2_000, partitions=4, seed=5))
                loaded.map(FilterMap(ColumnPredicate("Distance", ">", 500.0)))
            # A daemon records its span before its terminal reply, so the
            # spans are there as soon as the last ensure returned.
            spans = RECORDER.spans(materialize.trace_id)
            ensures = [s["spanId"] for s in spans if s["name"] == "cluster.ensure"]
            parents = [s["parentId"] for s in spans if s["name"] == "worker.ensure"]
            assert len(ensures) == 2  # the load's and the map's
            assert sorted(parents) == sorted(ensures * 2)  # both workers, each
            with use_context(query):
                loaded.sketch(HistogramSketch("Distance", DoubleBuckets(0, 6000, 12)))
            names = [s["name"] for s in RECORDER.spans(query.trace_id)]
            assert "cluster.fanout" in names
            assert "cluster.ensure" not in names and "worker.ensure" not in names
        finally:
            deployment.close()


# ---------------------------------------------------------------------------
# Service-level: the client->root wire, profiles, and the obs RPCs
# ---------------------------------------------------------------------------
HIST_SPEC = {
    "type": "histogram",
    "column": "Distance",
    "buckets": {"type": "double", "min": 0, "max": 6000, "count": 12},
}


@pytest.fixture(scope="module")
def obs_server():
    server = ServiceServer(
        Cluster(num_workers=2, cores_per_worker=2, aggregation_interval=0.02),
        default_source=FlightsSource(8_000, partitions=8, seed=3),
        max_concurrent=4,
    )
    server.start_background()
    yield server
    server.close()


@pytest.fixture
def obs_client(obs_server):
    with ServiceClient(*obs_server.address) as client:
        yield client


def drain(pending):
    final = None
    for reply in pending.replies():
        final = reply
    return final


class TestServiceTracing:
    def test_spans_cover_every_stage_and_parent_to_the_root(self, obs_client):
        handle = obs_client.load()
        ctx = TraceContext.new_root()
        final = drain(
            obs_client.submit("sketch", handle, {"sketch": HIST_SPEC}, trace=ctx)
        )
        assert final.kind == "complete"

        spans = obs_client.trace_dump(ctx.trace_id)
        names = {s["name"] for s in spans}
        assert {
            "scheduler.queue",
            "query.sketch",
            "cluster.fanout",
            "worker.stream",
        } <= names
        # The dataset is resident at the current placement: the sketch
        # is the only request each worker gets.
        assert "cluster.ensure" not in names
        assert all(s["traceId"] == ctx.trace_id for s in spans)

        # Parenting: the propagated request context is the one root span;
        # every other span chains back to a recorded span.
        ids = {s["spanId"] for s in spans}
        roots = [s for s in spans if s["parentId"] is None]
        assert [s["spanId"] for s in roots] == [ctx.span_id]
        for s in spans:
            if s["parentId"] is not None:
                assert s["parentId"] in ids

    def test_trace_dump_filters_by_trace_id(self, obs_client):
        handle = obs_client.load()
        first, second = TraceContext.new_root(), TraceContext.new_root()
        drain(obs_client.submit("sketch", handle, {"sketch": HIST_SPEC}, trace=first))
        drain(obs_client.submit("sketch", handle, {"sketch": HIST_SPEC}, trace=second))
        spans = obs_client.trace_dump(first.trace_id)
        assert spans
        assert all(s["traceId"] == first.trace_id for s in spans)

    def test_untraced_requests_record_no_spans(
        self, obs_client, monkeypatch
    ):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        RECORDER.clear()
        handle = obs_client.load()
        final = drain(obs_client.submit("sketch", handle, {"sketch": HIST_SPEC}))
        assert final.kind == "complete"
        assert final.profile is None
        assert len(RECORDER) == 0

    def test_env_switch_originates_traces_server_side(
        self, obs_client, monkeypatch
    ):
        # The scheduler originates a context when REPRO_TRACE is on even
        # though the client sent a bare envelope.
        monkeypatch.setenv("REPRO_TRACE", "1")
        RECORDER.clear()
        handle = obs_client.load()
        final = drain(obs_client.submit("sketch", handle, {"sketch": HIST_SPEC}))
        assert final.kind == "complete"
        assert any(
            s["name"] == "query.sketch" for s in RECORDER.spans()
        )

    def test_profile_rides_only_the_terminal_reply(self, obs_client):
        handle = obs_client.load()
        # A bucket count no other test uses: a computation-cache hit
        # would legitimately skip the fan-out (and its profile stages).
        cold_spec = dict(HIST_SPEC, buckets=dict(HIST_SPEC["buckets"], count=17))
        replies = list(
            obs_client.submit(
                "sketch", handle, {"sketch": cold_spec, "profile": True}
            ).replies()
        )
        final = replies[-1]
        assert final.kind == "complete"
        assert all(r.profile is None for r in replies[:-1])
        profile = final.profile
        assert profile is not None
        for key in (
            "queueWaitSeconds",
            "firstPartialSeconds",
            "totalSeconds",
            "ensureSeconds",
            "fanoutSeconds",
            "mergeSeconds",
            "workers",
        ):
            assert key in profile
        assert len(profile["workers"]) == 2
        for stat in profile["workers"]:
            assert stat["attempts"] >= 1
            assert stat["shards"] >= 1
            # Where the root read the worker's terminal: never before its
            # last partial.
            assert stat["endSeconds"] >= stat["lastEmitSeconds"]

    def test_metrics_snapshot_reports_fleet_state(self, obs_client):
        handle = obs_client.load()
        drain(obs_client.submit("sketch", handle, {"sketch": HIST_SPEC}))
        snap = obs_client.metrics_snapshot()
        assert snap["type"] == "metricsSnapshot"
        assert snap["scheduler"]["completed"] >= 1
        workers = snap["cluster"]["workers"]
        assert len(workers) == 2
        for worker in workers:
            assert "shardsSummarized" in worker
            assert 0.0 <= worker["store"]["hitRate"] <= 1.0
            assert 0.0 <= worker["memo"]["hitRate"] <= 1.0
        registry = snap["registry"]
        assert registry["web.first_partial_seconds"]["count"] >= 1
        assert "scheduler.queued" in registry

    def test_prometheus_exposition(self, obs_client):
        text = obs_client.metrics_snapshot(fmt="prometheus")["text"]
        assert "# TYPE" in text
        assert "scheduler_queued" in text


class TestOneReportPerProcess:
    """``metricsSnapshot`` is the fleet's one report: every number the
    retired ``cacheStats`` RPC carried is readable from it."""

    #: ``CacheStats.to_json`` — one cache tier's counters.
    CACHE_KEYS = [
        "name", "entries", "bytes", "hits", "misses", "hitRate",
        "evictions", "invalidations", "maxEntries", "maxBytes", "disabled",
    ]

    def test_every_cache_stats_field_is_in_the_snapshot(self):
        deployment = WireDeployment()
        cluster = deployment.root(
            [deployment.make(f"worker-{i}") for i in range(2)]
        )
        server = ServiceServer(
            cluster, default_source=FlightsSource(4_000, partitions=4, seed=5)
        )
        server.start_background()
        try:
            with ServiceClient(*server.address) as client:
                handle = client.load()
                # Cold, then a root hit, then (root tier cleared) one
                # memo hit per worker.
                for _ in range(2):
                    drain(client.submit("sketch", handle, {"sketch": HIST_SPEC}))
                cluster.computation_cache.clear()
                drain(client.submit("sketch", handle, {"sketch": HIST_SPEC}))
                snap = client.metrics_snapshot()
                session_id = client.session_id
                out = io.StringIO()
                RemoteSession(client, out).execute("metrics")
        finally:
            server.close()
            deployment.close()

        fleet = snap["cluster"]
        # cacheStats.cluster.disabled and .root.computation
        computation = fleet["computation"]
        assert list(computation) == self.CACHE_KEYS
        assert computation["disabled"] is False
        assert computation["hits"] == 1 and computation["misses"] == 2
        # cacheStats.cluster.workers[]
        assert [w["name"] for w in fleet["workers"]] == ["worker-0", "worker-1"]
        for worker in fleet["workers"]:
            assert list(worker["store"]) == self.CACHE_KEYS
            assert list(worker["memo"]) == self.CACHE_KEYS
            assert worker["store"]["entries"] == 1
            assert worker["memo"]["hits"] == 1
            assert worker["shardsSummarized"] == 2  # the cold run only
            assert worker["entriesPurged"] == 0
        # cacheStats.sessions[id]
        (mine,) = [
            s["metrics"] for s in snap["sessions"]["sessions"]
            if s["session"] == session_id
        ]
        assert mine["cacheHits"] == 1
        assert mine["workerCacheHits"] == 2

        # `repro client metrics` draws the same numbers.
        text = out.getvalue()
        assert "root/computation: 1 entries" in text
        assert "1 hits / 2 misses" in text
        assert "  worker-0  queue " in text and "  cpu " in text
        assert text.count("    memo: 1 entries") == 2
        assert "this session: 1 root hits, 2 worker partial hits" in text

    def test_worker_line_without_daemon_fields(self):
        line = _worker_line(Worker("worker-0").metrics_snapshot())
        assert line.startswith("worker-0  shards 0  memo 0%  store 0%")
        assert "queue" not in line and "cpu" not in line
        assert _worker_line({"address": "h:1", "error": "refused"}) == (
            "h:1: DOWN (refused)"
        )


# ---------------------------------------------------------------------------
# The root->worker wire: spans parent across a real process boundary
# ---------------------------------------------------------------------------
@pytest.mark.tier2
class TestWorkerWireTracing:
    def test_spans_parent_across_the_worker_wire(self):
        from repro.engine.remote import ProcessCluster

        cluster = ProcessCluster(
            num_workers=1, cores_per_worker=2, aggregation_interval=0.01
        )
        try:
            loaded = cluster.load(FlightsSource(2_000, partitions=4, seed=5))
            ctx = TraceContext.new_root()
            with use_context(ctx):
                summary = loaded.sketch(
                    HistogramSketch("Distance", DoubleBuckets(0, 6000, 12))
                )
            assert summary.counts.sum() > 0

            root_spans = RECORDER.spans(ctx.trace_id)
            stream_ids = {
                s["spanId"]
                for s in root_spans
                if s["name"] == "worker.stream"
            }
            assert stream_ids

            daemon_spans = cluster.trace_dump(ctx.trace_id)
            sketch_spans = [
                s for s in daemon_spans if s["name"] == "worker.sketch"
            ]
            assert sketch_spans
            for s in sketch_spans:
                # The channel stamped a child of the root-side stream span
                # on the envelope; the daemon recorded exactly that child.
                assert s["traceId"] == ctx.trace_id
                assert s["parentId"] in stream_ids
                assert s["service"].startswith("worker-")
        finally:
            cluster.close()

    def test_fleet_metrics_reach_a_live_daemon(self):
        import subprocess

        from repro.engine.remote import (
            ProcessCluster,
            query_fleet_metrics,
            spawn_worker,
        )

        proc, address = spawn_worker("obs-daemon", cores=2)
        try:
            cluster = ProcessCluster(
                addresses=[address], aggregation_interval=0.01
            )
            try:
                loaded = cluster.load(FlightsSource(2_000, partitions=4, seed=5))
                loaded.sketch(
                    HistogramSketch("Distance", DoubleBuckets(0, 6000, 6))
                )
                (snap,) = [w.metrics_snapshot() for w in cluster.workers]
                assert snap["name"] == "obs-daemon"
                assert snap["shardsSummarized"] >= 1
                assert snap["inflight"] >= 0
                assert "registry" in snap
            finally:
                cluster.close()
            # The sessionless path `repro fleet top` uses.
            (report,) = query_fleet_metrics([address])
            assert "error" not in report
            assert report["name"] == "obs-daemon"
            assert report["requestsServed"] >= 1
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()

"""Web-server RPC layer tests: protocol codecs, streaming, soft state."""

from __future__ import annotations

import json
from datetime import datetime, timezone

import numpy as np
import pytest

from repro.core.buckets import DoubleBuckets, ExplicitStringBuckets, StringBuckets
from repro.engine.cluster import Cluster
from repro.engine.rpc import (
    ProtocolError,
    RpcReply,
    RpcRequest,
    buckets_from_json,
    buckets_to_json,
    cell_from_json,
    cell_to_json,
    order_from_json,
    order_to_json,
    predicate_from_json,
    predicate_to_json,
    sketch_from_json,
    summary_to_json,
)
from repro.engine.web import WebServer
from repro.sketches.histogram import HistogramSketch
from repro.storage.loader import TableSource
from repro.table.compute import (
    AndPredicate,
    ColumnPredicate,
    NotPredicate,
    OrPredicate,
    StringMatchPredicate,
)
from repro.table.sort import RecordOrder
from repro.table.table import Table


@pytest.fixture(scope="module")
def numbers_table() -> Table:
    rng = np.random.default_rng(3)
    n = 5_000
    return Table.from_pydict(
        {
            "x": rng.uniform(0, 100, n).tolist(),
            "label": [f"item{int(v)}" for v in rng.integers(0, 20, n)],
        }
    )


@pytest.fixture
def server(numbers_table) -> tuple[WebServer, str]:
    web = WebServer(Cluster(num_workers=2, cores_per_worker=2))
    handle = web.load(TableSource([numbers_table], shards_per_table=4))
    return web, handle


def run(web: WebServer, handle: str, method: str, args=None, request_id=1):
    """Execute one request and return the list of replies."""
    request = RpcRequest(request_id, handle, method, args or {})
    return list(web.execute(request))


class TestEnvelopes:
    def test_request_round_trip(self):
        request = RpcRequest(7, "obj-1", "sketch", {"sketch": {"type": "x"}})
        back = RpcRequest.from_json(request.to_json())
        assert back == request

    def test_reply_round_trip(self):
        reply = RpcReply(3, "partial", progress=0.25, payload={"a": [1, 2]})
        back = RpcReply.from_json(reply.to_json())
        assert back.request_id == 3
        assert back.kind == "partial"
        assert back.progress == 0.25
        assert back.payload == {"a": [1, 2]}

    def test_null_payload_is_distinct_from_absent_payload(self):
        """Regression: a complete envelope whose payload is legitimately
        None must encode the null, while a payload-less ack must not grow
        a payload key — and both must round-trip to what they were."""
        import json

        from repro.engine.rpc import NO_PAYLOAD

        null_payload = RpcReply(7, "complete", payload=None)
        encoded = json.loads(null_payload.to_json())
        assert "payload" in encoded and encoded["payload"] is None
        back = RpcReply.from_json(null_payload.to_json())
        assert back.payload is None
        assert back.payload is not NO_PAYLOAD

        no_payload = RpcReply(8, "ack")
        assert "payload" not in json.loads(no_payload.to_json())
        assert RpcReply.from_json(no_payload.to_json()).payload is NO_PAYLOAD

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            RpcRequest.from_json("{nope")

    def test_missing_fields_rejected(self):
        with pytest.raises(ProtocolError, match="missing 'method'"):
            RpcRequest.from_json(json.dumps({"requestId": 1, "target": "t"}))


class TestValueCodecs:
    def test_cell_date_round_trip(self):
        stamp = datetime(2019, 7, 10, 12, 30, tzinfo=timezone.utc)
        assert cell_from_json(cell_to_json(stamp)) == stamp

    def test_cell_numpy_scalars_become_plain(self):
        assert cell_to_json(np.int64(4)) == 4
        assert isinstance(cell_to_json(np.float64(0.5)), float)

    @pytest.mark.parametrize(
        "buckets",
        [
            DoubleBuckets(0.0, 10.0, 8),
            StringBuckets(["a", "f", "m"]),
            ExplicitStringBuckets(["x", "y", "z"]),
        ],
    )
    def test_buckets_round_trip(self, buckets):
        back = buckets_from_json(buckets_to_json(buckets))
        assert back.spec() == buckets.spec()

    def test_unknown_buckets_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown buckets type"):
            buckets_from_json({"type": "mystery"})

    @pytest.mark.parametrize(
        "predicate",
        [
            ColumnPredicate("x", ">", 5),
            ColumnPredicate("x", "between", [1, 3]),
            ColumnPredicate("x", "is_missing"),
            StringMatchPredicate("s", "foo", "regex", False),
            AndPredicate(
                [ColumnPredicate("x", ">", 1), ColumnPredicate("x", "<", 9)]
            ),
            OrPredicate(
                [ColumnPredicate("x", "==", 1), ColumnPredicate("x", "==", 2)]
            ),
            NotPredicate(ColumnPredicate("x", "==", 0)),
        ],
    )
    def test_predicate_round_trip(self, predicate):
        back = predicate_from_json(predicate_to_json(predicate))
        assert back.spec() == predicate.spec()

    def test_a_flights_load_decodes_in_a_bare_process(self):
        """A worker decodes ``{"kind": "flights"}`` with nothing imported
        beyond the lineage codec: the source registers with the others."""
        import subprocess
        import sys

        code = (
            "from repro.engine.redo_log import LINEAGE\n"
            "[op] = LINEAGE.from_json("
            "[{'op': 'load', 'dataset': 'd', 'source': {'kind': 'flights'}}])\n"
            "print(op.describe())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == (
            "load d <- FlightsSource(rows=100000,parts=16,seed=0,extra=0)"
        )

    def test_order_round_trip(self):
        order = RecordOrder.of("a", "b", ascending=[True, False])
        back = order_from_json(order_to_json(order))
        assert back.spec() == order.spec()

    def test_empty_order_rejected(self):
        with pytest.raises(ProtocolError):
            order_from_json([])


class TestSketchRegistry:
    def test_histogram_spec(self):
        sketch = sketch_from_json(
            {
                "type": "histogram",
                "column": "x",
                "buckets": {"type": "double", "min": 0, "max": 10, "count": 5},
                "rate": 0.5,
                "seed": 9,
            }
        )
        assert isinstance(sketch, HistogramSketch)
        assert sketch.rate == 0.5
        assert sketch.buckets.count == 5

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown sketch type"):
            sketch_from_json({"type": "teleport"})

    def test_missing_argument_reported(self):
        with pytest.raises(ProtocolError, match="missing argument"):
            sketch_from_json({"type": "histogram", "column": "x"})

    def test_every_registered_type_builds(self, numbers_table):
        """Each sketch spec builds and runs against a real shard."""
        b = {"type": "double", "min": 0, "max": 100, "count": 4}
        sb = {"type": "strings", "values": [f"item{i}" for i in range(20)]}
        order = [{"column": "x", "ascending": True}]
        specs = [
            {"type": "histogram", "column": "x", "buckets": b},
            {"type": "cdf", "column": "x", "buckets": b},
            {
                "type": "heatmap",
                "xColumn": "x", "xBuckets": b,
                "yColumn": "x", "yBuckets": b,
            },
            {
                "type": "stacked",
                "xColumn": "x", "xBuckets": b,
                "yColumn": "label", "yBuckets": sb,
            },
            {
                "type": "trellisHeatmap",
                "groupColumn": "label", "groupBuckets": sb,
                "xColumn": "x", "xBuckets": b,
                "yColumn": "x", "yBuckets": b,
            },
            {
                "type": "trellisHistogram",
                "groupColumn": "label", "groupBuckets": sb,
                "xColumn": "x", "xBuckets": b,
            },
            {"type": "moments", "column": "x"},
            {"type": "distinct", "column": "label"},
            {"type": "heavyHitters", "column": "label", "k": 5},
            {
                "type": "heavyHitters",
                "column": "label",
                "k": 5,
                "method": "sampling",
                "rate": 0.5,
            },
            {"type": "nextK", "order": order, "k": 5},
            {"type": "quantile", "order": order, "rate": 0.1},
            {
                "type": "find",
                "order": order,
                "match": {
                    "type": "match",
                    "column": "label",
                    "pattern": "item1",
                },
            },
            {"type": "bottomK", "column": "label", "k": 50},
        ]
        for spec in specs:
            sketch = sketch_from_json(spec)
            summary = sketch.summarize(numbers_table)
            payload = summary_to_json(summary)
            json.dumps(payload)  # payloads must be JSON-serializable

    def test_summary_payload_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="no JSON payload"):
            summary_to_json(object())


class TestWebServerQueries:
    def test_sketch_streams_and_completes(self, server):
        web, handle = server
        replies = run(
            web,
            handle,
            "sketch",
            {
                "sketch": {
                    "type": "histogram",
                    "column": "x",
                    "buckets": {
                        "type": "double", "min": 0, "max": 100, "count": 10,
                    },
                }
            },
        )
        assert replies[-1].kind == "complete"
        assert replies[-1].progress == 1.0
        counts = replies[-1].payload["counts"]
        assert sum(counts) == 5_000
        for reply in replies[:-1]:
            assert reply.kind == "partial"
            assert reply.progress < 1.0

    def test_replies_serialize_to_json(self, server):
        web, handle = server
        replies = run(
            web, handle, "sketch",
            {"sketch": {"type": "moments", "column": "x"}},
        )
        for reply in replies:
            RpcReply.from_json(reply.to_json())

    def test_execute_accepts_raw_json(self, server):
        web, handle = server
        request = RpcRequest(
            5, handle, "sketch", {"sketch": {"type": "moments", "column": "x"}}
        )
        replies = list(web.execute(request.to_json()))
        assert replies[-1].kind == "complete"
        assert replies[-1].payload["presentCount"] == 5_000

    def test_schema_and_row_count(self, server):
        web, handle = server
        [schema_reply] = run(web, handle, "schema")
        names = [c["name"] for c in schema_reply.payload["columns"]]
        assert names == ["x", "label"]
        [rows_reply] = run(web, handle, "rowCount")
        assert rows_reply.payload["rows"] == 5_000

    def test_filter_creates_new_handle(self, server):
        web, handle = server
        [ack] = run(
            web,
            handle,
            "filter",
            {
                "predicate": {
                    "type": "column", "column": "x", "op": "<", "value": 50,
                }
            },
        )
        assert ack.kind == "ack"
        derived = ack.payload["handle"]
        assert derived != handle
        [rows_reply] = run(web, derived, "rowCount")
        assert 0 < rows_reply.payload["rows"] < 5_000

    def test_project_narrows_schema(self, server):
        web, handle = server
        [ack] = run(web, handle, "project", {"columns": ["label"]})
        [schema_reply] = run(web, ack.payload["handle"], "schema")
        assert [c["name"] for c in schema_reply.payload["columns"]] == ["label"]

    def test_unknown_method_is_error_reply(self, server):
        web, handle = server
        [reply] = run(web, handle, "teleport")
        assert reply.kind == "error"
        assert "unknown method" in reply.error

    def test_unknown_target_is_error_reply(self, server):
        web, _ = server
        [reply] = run(web, "obj-999", "rowCount")
        assert reply.kind == "error"
        assert "unknown remote object" in reply.error

    def test_bad_sketch_spec_is_error_reply(self, server):
        web, handle = server
        replies = run(web, handle, "sketch", {"sketch": {"type": "nope"}})
        assert replies[0].kind == "error"

    def test_ping(self, server):
        web, handle = server
        [reply] = run(web, handle, "ping")
        assert reply.payload == {"pong": True}


class TestSoftState:
    def test_evicted_root_rebuilds_from_source(self, server):
        web, handle = server
        web.evict(handle)
        [reply] = run(web, handle, "rowCount")
        assert reply.payload["rows"] == 5_000

    def test_evicted_derived_handle_replays_lineage(self, server):
        web, handle = server
        [ack] = run(
            web,
            handle,
            "filter",
            {
                "predicate": {
                    "type": "column", "column": "x", "op": ">=", "value": 50,
                }
            },
        )
        derived = ack.payload["handle"]
        [before] = run(web, derived, "rowCount")
        # Evict both the derived object and its parent: the rebuild must
        # recurse all the way down to the data source (§5.7).
        web.evict(derived)
        web.evict(handle)
        [after] = run(web, derived, "rowCount")
        assert after.payload["rows"] == before.payload["rows"]

    def test_evict_via_rpc(self, server):
        web, handle = server
        [ack] = run(web, handle, "evict")
        assert ack.payload == {"evicted": True}
        [reply] = run(web, handle, "rowCount")
        assert reply.payload["rows"] == 5_000

    def test_chained_derivations_rebuild(self, server):
        web, handle = server
        [ack1] = run(
            web, handle, "filter",
            {"predicate": {"type": "column", "column": "x", "op": ">", "value": 25}},
        )
        [ack2] = run(web, ack1.payload["handle"], "project", {"columns": ["x"]})
        leaf = ack2.payload["handle"]
        [before] = run(web, leaf, "rowCount")
        for h in (leaf, ack1.payload["handle"], handle):
            web.evict(h)
        [after] = run(web, leaf, "rowCount")
        assert after.payload["rows"] == before.payload["rows"]


class TestCancellation:
    def test_cancel_unknown_request(self, server):
        web, _ = server
        assert web.cancel(12345) is False

    def test_cancel_mid_stream(self, numbers_table):
        web = WebServer(Cluster(num_workers=2, cores_per_worker=1))
        handle = web.load(TableSource([numbers_table], shards_per_table=64))
        request = RpcRequest(
            42,
            handle,
            "sketch",
            {
                "sketch": {
                    "type": "histogram",
                    "column": "x",
                    "buckets": {
                        "type": "double", "min": 0, "max": 100, "count": 10,
                    },
                }
            },
        )
        stream = web.execute(request)
        first = next(stream)
        assert first.kind in ("partial", "complete")
        cancelled = web.cancel(42)
        remaining = list(stream)
        if cancelled and remaining:
            assert remaining[-1].kind in ("cancelled", "complete")


class TestFailureInjection:
    """Worker crashes under the web layer: queries still answer (§5.7-5.8)."""

    def test_worker_crash_between_queries(self, numbers_table):
        web = WebServer(Cluster(num_workers=3, cores_per_worker=2))
        handle = web.load(TableSource([numbers_table], shards_per_table=6))
        spec = {
            "sketch": {
                "type": "histogram",
                "column": "x",
                "buckets": {"type": "double", "min": 0, "max": 100, "count": 10},
            }
        }
        before = run(web, handle, "sketch", spec)[-1].payload["counts"]
        web.cluster.kill_worker(0)
        web.cluster.computation_cache.clear()
        after = run(web, handle, "sketch", spec)[-1].payload["counts"]
        assert after == before

    def test_crash_plus_eviction_of_derived_handle(self, numbers_table):
        web = WebServer(Cluster(num_workers=2, cores_per_worker=2))
        handle = web.load(TableSource([numbers_table], shards_per_table=4))
        [ack] = run(
            web, handle, "filter",
            {"predicate": {"type": "column", "column": "x", "op": "<", "value": 30}},
        )
        derived = ack.payload["handle"]
        [before] = run(web, derived, "rowCount")
        # Lose every worker's soft state AND the web server's handles.
        for index in range(len(web.cluster.workers)):
            web.cluster.kill_worker(index)
        web.cluster.computation_cache.clear()
        web.evict(derived)
        web.evict(handle)
        [after] = run(web, derived, "rowCount")
        assert after.payload["rows"] == before.payload["rows"]

    def test_sampled_query_replay_deterministic_through_rpc(self, numbers_table):
        web = WebServer(Cluster(num_workers=2, cores_per_worker=2))
        handle = web.load(TableSource([numbers_table], shards_per_table=4))
        spec = {
            "sketch": {
                "type": "histogram",
                "column": "x",
                "buckets": {"type": "double", "min": 0, "max": 100, "count": 10},
                "rate": 0.2,
                "seed": 123,
            }
        }
        before = run(web, handle, "sketch", spec)[-1].payload["counts"]
        web.cluster.kill_worker(1)
        after = run(web, handle, "sketch", spec)[-1].payload["counts"]
        # Same seed + same shard ids -> bit-identical samples (§5.8).
        assert after == before


class TestPcaAndSaveOverRpc:
    def test_correlation_sketch_via_rpc(self, server):
        web, handle = server
        replies = run(
            web, handle, "sketch",
            {"sketch": {"type": "correlation", "columns": ["x", "x"]}},
        )
        payload = replies[-1].payload
        assert payload["type"] == "correlation"
        assert payload["count"] == 5_000
        # A column correlates perfectly with itself.
        import numpy as np

        from repro.sketches.pca import CorrelationSummary

        summary = CorrelationSummary(
            columns=payload["columns"],
            count=payload["count"],
            sums=np.array(payload["sums"]),
            products=np.array(payload["products"]),
        )
        assert summary.correlation()[0, 1] == pytest.approx(1.0)

    def test_correlation_requires_two_columns(self, server):
        web, handle = server
        [reply] = run(
            web, handle, "sketch",
            {"sketch": {"type": "correlation", "columns": ["x"]}},
        )
        assert reply.kind == "error"

    def test_save_via_rpc(self, server, tmp_path):
        web, handle = server
        target = str(tmp_path / "saved")
        replies = run(
            web, handle, "sketch",
            {"sketch": {"type": "save", "directory": target, "format": "hvc"}},
        )
        payload = replies[-1].payload
        assert payload["type"] == "saveStatus"
        assert payload["errors"] == []
        assert payload["rowsWritten"] == 5_000
        # The written dataset loads back with identical totals.
        from repro.storage import columnar

        shards = columnar.read_dataset(target, verify_snapshot=False)
        assert sum(s.num_rows for s in shards) == 5_000


class TestHeatmapSwap:
    def test_swapped_transposes_counts(self, numbers_table):
        from repro.core.resolution import Resolution
        from repro.engine.local import parallel_dataset
        from repro.spreadsheet import Spreadsheet

        sheet = Spreadsheet(
            parallel_dataset(numbers_table, shards=4),
            resolution=Resolution(120, 60),
            seed=8,
        )
        chart = sheet.heatmap("x", "x")
        flipped = chart.swapped()
        assert flipped.x_column == chart.y_column
        assert flipped.cell_value(2, 5) == chart.cell_value(5, 2)
        # Swapping twice is the identity.
        again = flipped.swapped()
        assert (again.summary.counts == chart.summary.counts).all()
        assert again.summary.x_missing == chart.summary.x_missing

    def test_swap_runs_no_query(self, numbers_table):
        from repro.core.resolution import Resolution
        from repro.engine.local import parallel_dataset
        from repro.spreadsheet import Spreadsheet

        sheet = Spreadsheet(
            parallel_dataset(numbers_table, shards=2),
            resolution=Resolution(120, 60),
        )
        chart = sheet.heatmap("x", "x")
        actions_before = len(sheet.log.actions)
        chart.swapped()
        assert len(sheet.log.actions) == actions_before


class TestMalformedRequests:
    def test_malformed_json_yields_error_reply(self, server):
        web, _ = server
        [reply] = list(web.execute("{not json"))
        assert reply.kind == "error"
        assert reply.request_id == -1

    def test_missing_sketch_spec(self, server):
        web, handle = server
        [reply] = run(web, handle, "sketch", {})
        assert reply.kind == "error"
        assert "sketch" in reply.error

    def test_project_empty_columns(self, server):
        web, handle = server
        [reply] = run(web, handle, "project", {"columns": []})
        assert reply.kind == "error"

    def test_filter_missing_predicate(self, server):
        web, handle = server
        [reply] = run(web, handle, "filter", {})
        assert reply.kind == "error"

    def test_derive_missing_args(self, server):
        web, handle = server
        [reply] = run(web, handle, "derive", {"name": "x"})
        assert reply.kind == "error"


# ---------------------------------------------------------------------------
# Pinned bytes: the lineage and bucket wire forms, frozen as literals
# ---------------------------------------------------------------------------
# Each entry is (value, JSON, JSON with sorted keys, and what the bytes
# feed: a content-addressed dataset id, or the bucket binary form as
# hex).  Dataset ids hash a source's ``spec()`` and a map's sorted JSON,
# so a codec that changes a byte here renames every dataset a fleet holds.
# Recorded once; never re-record to make a change pass.
def _pinned_values():
    from repro.data.flights import FlightsSource
    from repro.engine.dataset import ExpressionMap, FilterMap, ProjectMap
    from repro.storage.loader import (
        ColumnarDatasetSource,
        CsvSource,
        JsonlSource,
        SqlSource,
        SyslogSource,
    )

    compare = ColumnPredicate("DepDelay", ">", 15)
    predicates = {
        "compare": compare,
        "is_missing": ColumnPredicate("ArrDelay", "is_missing"),
        "in": ColumnPredicate("Origin", "in", ["SFO", "LAX"]),
        "date": ColumnPredicate("FlightDate", ">=", datetime(2017, 3, 1, 12, 30)),
        "between": ColumnPredicate("Distance", "between", [100, 2500.5]),
        "match": StringMatchPredicate("Dest", "S.O", "regex", False),
        "nested": NotPredicate(
            AndPredicate(
                [
                    ColumnPredicate("x", "<", 1.5),
                    OrPredicate(
                        [ColumnPredicate("y", "==", "a"), StringMatchPredicate("s", "b")]
                    ),
                ]
            )
        ),
    }
    return {
        "source": {
            "flights": FlightsSource(5000, partitions=4, seed=7, extra_columns=2),
            "csv": CsvSource("data/*.csv"),
            "jsonl": JsonlSource("data/*.jsonl"),
            "syslog": SyslogSource("logs/*.log"),
            "sql": SqlSource("pinned.db", "events", partitions=3),
            "hvc": ColumnarDatasetSource("data/flights.hvc"),
        },
        "predicate": predicates,
        "map": {
            "filter": FilterMap(compare),
            "project": ProjectMap(["Origin", "Dest"]),
            "expression": ExpressionMap("gain", "DepDelay - ArrDelay"),
        },
        "buckets": {
            "double": DoubleBuckets(-2.5, 10.0, 8),
            "string_ranges": StringBuckets(["a", "f", "m"]),
            "strings": ExplicitStringBuckets(["x", "y", "z"]),
        },
    }


PINNED = {
    ("source", "flights"): (
        '{"kind": "flights", "rows": 5000, "partitions": 4, "seed": 7, "extraColumns": 2}',
        '{"extraColumns": 2, "kind": "flights", "partitions": 4, "rows": 5000, "seed": 7}',
        "ds-c31cd326405f",
    ),
    ("source", "csv"): (
        '{"kind": "csv", "pattern": "data/*.csv"}',
        '{"kind": "csv", "pattern": "data/*.csv"}',
        "ds-25b8bc6701c3",
    ),
    ("source", "jsonl"): (
        '{"kind": "jsonl", "pattern": "data/*.jsonl"}',
        '{"kind": "jsonl", "pattern": "data/*.jsonl"}',
        "ds-295046eced00",
    ),
    ("source", "syslog"): (
        '{"kind": "syslog", "pattern": "logs/*.log"}',
        '{"kind": "syslog", "pattern": "logs/*.log"}',
        "ds-e68b34109811",
    ),
    ("source", "sql"): (
        '{"kind": "sql", "path": "pinned.db", "table": "events", "partitions": 3}',
        '{"kind": "sql", "partitions": 3, "path": "pinned.db", "table": "events"}',
        "ds-3f8993de24a4",
    ),
    ("source", "hvc"): (
        '{"kind": "hvc", "directory": "data/flights.hvc"}',
        '{"directory": "data/flights.hvc", "kind": "hvc"}',
        "ds-23f286a2c739",
    ),
    ("predicate", "compare"): (
        '{"type": "column", "column": "DepDelay", "op": ">", "value": 15}',
        '{"column": "DepDelay", "op": ">", "type": "column", "value": 15}',
        "ds-3e967ffbcec4",
    ),
    ("predicate", "is_missing"): (
        '{"type": "column", "column": "ArrDelay", "op": "is_missing", "value": null}',
        '{"column": "ArrDelay", "op": "is_missing", "type": "column", "value": null}',
        "ds-af61b70c66ba",
    ),
    ("predicate", "in"): (
        '{"type": "column", "column": "Origin", "op": "in", "value": ["SFO", "LAX"]}',
        '{"column": "Origin", "op": "in", "type": "column", "value": ["SFO", "LAX"]}',
        "ds-9e9263aa3f20",
    ),
    ("predicate", "date"): (
        '{"type": "column", "column": "FlightDate", "op": ">=", '
        '"value": {"$date": "2017-03-01T12:30:00"}}',
        '{"column": "FlightDate", "op": ">=", "type": "column", '
        '"value": {"$date": "2017-03-01T12:30:00"}}',
        "ds-c7d4b78815ee",
    ),
    ("predicate", "between"): (
        '{"type": "column", "column": "Distance", "op": "between", "value": [100, 2500.5]}',
        '{"column": "Distance", "op": "between", "type": "column", "value": [100, 2500.5]}',
        "ds-89079874175a",
    ),
    ("predicate", "match"): (
        '{"type": "match", "column": "Dest", "pattern": "S.O", "mode": "regex", '
        '"caseSensitive": false}',
        '{"caseSensitive": false, "column": "Dest", "mode": "regex", "pattern": "S.O", '
        '"type": "match"}',
        "ds-ac5150142e76",
    ),
    ("predicate", "nested"): (
        '{"type": "not", "inner": {"type": "and", "parts": [{"type": "column", '
        '"column": "x", "op": "<", "value": 1.5}, {"type": "or", "parts": [{"type": '
        '"column", "column": "y", "op": "==", "value": "a"}, {"type": "match", '
        '"column": "s", "pattern": "b", "mode": "substring", "caseSensitive": true}]}]}}',
        '{"inner": {"parts": [{"column": "x", "op": "<", "type": "column", "value": 1.5}, '
        '{"parts": [{"column": "y", "op": "==", "type": "column", "value": "a"}, '
        '{"caseSensitive": true, "column": "s", "mode": "substring", "pattern": "b", '
        '"type": "match"}], "type": "or"}], "type": "and"}, "type": "not"}',
        "ds-33e750fb0760",
    ),
    ("map", "filter"): (
        '{"type": "filter", "predicate": {"type": "column", "column": "DepDelay", '
        '"op": ">", "value": 15}}',
        '{"predicate": {"column": "DepDelay", "op": ">", "type": "column", "value": 15}, '
        '"type": "filter"}',
        "ds-3e967ffbcec4",
    ),
    ("map", "project"): (
        '{"type": "project", "columns": ["Origin", "Dest"]}',
        '{"columns": ["Origin", "Dest"], "type": "project"}',
        "ds-75c93381dfb3",
    ),
    ("map", "expression"): (
        '{"type": "expression", "name": "gain", "expression": "DepDelay - ArrDelay"}',
        '{"expression": "DepDelay - ArrDelay", "name": "gain", "type": "expression"}',
        "ds-4a80fff204f5",
    ),
    ("buckets", "double"): (
        '{"type": "double", "min": -2.5, "max": 10.0, "count": 8}',
        '{"count": 8, "max": 10.0, "min": -2.5, "type": "double"}',
        "0000000000000004c0000000000000244008",
    ),
    ("buckets", "string_ranges"): (
        '{"type": "string_ranges", "boundaries": ["a", "f", "m"]}',
        '{"boundaries": ["a", "f", "m"], "type": "string_ranges"}',
        "010302610266026d",
    ),
    ("buckets", "strings"): (
        '{"type": "strings", "values": ["x", "y", "z"]}',
        '{"type": "strings", "values": ["x", "y", "z"]}',
        "020302780279027a",
    ),
}

#: A two-step lineage (the flights load, then the ``compare`` filter),
#: plain and with sorted keys.
PINNED_LINEAGE = (
    '[{"op": "load", "dataset": "ds-c31cd326405f", "source": {"kind": "flights", '
    '"rows": 5000, "partitions": 4, "seed": 7, "extraColumns": 2}}, {"op": "map", '
    '"dataset": "ds-955273efc3cd", "parent": "ds-c31cd326405f", "map": {"type": '
    '"filter", "predicate": {"type": "column", "column": "DepDelay", "op": ">", '
    '"value": 15}}}]',
    '[{"dataset": "ds-c31cd326405f", "op": "load", "source": {"extraColumns": 2, '
    '"kind": "flights", "partitions": 4, "rows": 5000, "seed": 7}}, {"dataset": '
    '"ds-955273efc3cd", "map": {"predicate": {"column": "DepDelay", "op": ">", '
    '"type": "column", "value": 15}, "type": "filter"}, "op": "map", "parent": '
    '"ds-c31cd326405f"}]',
)

#: Minimal specs a client may send, and the ``spec()`` of what they
#: decode to: the defaults a wire field falls back to.
PINNED_DEFAULTS = [
    ("source", {"kind": "flights"}, "FlightsSource(rows=100000,parts=16,seed=0,extra=0)"),
    (
        "source",
        {"kind": "sql", "path": "pinned.db", "table": "events"},
        "SqlSource('pinned.db','events',partitions=1)",
    ),
    (
        "predicate",
        {"type": "match", "column": "s", "pattern": "p"},
        "StringMatchPredicate('s','p','substring',cs=True)",
    ),
    (
        "predicate",
        {"type": "column", "column": "x", "op": "is_missing"},
        "ColumnPredicate('x','is_missing',None)",
    ),
]


class TestPinnedBytes:
    @pytest.fixture(autouse=True)
    def _sqlite_in_cwd(self, tmp_path, monkeypatch):
        """The SQL source opens ``pinned.db`` relative to the cwd, so its
        path (and every byte derived from it) is the same on any machine."""
        import sqlite3

        monkeypatch.chdir(tmp_path)
        with sqlite3.connect("pinned.db") as con:
            con.execute("create table events (a integer)")

    @pytest.fixture(scope="class")
    def cluster(self):
        cluster = Cluster(num_workers=1)
        yield cluster
        cluster.close()

    @staticmethod
    def _codec(union: str):
        from repro.engine import rpc

        return {
            "source": (rpc.source_to_json, rpc.source_from_json),
            "predicate": (predicate_to_json, predicate_from_json),
            "map": (rpc.table_map_to_json, rpc.table_map_from_json),
            "buckets": (buckets_to_json, buckets_from_json),
        }[union]

    @pytest.mark.parametrize("entry", sorted(PINNED), ids="/".join)
    def test_json_is_frozen(self, entry, cluster):
        union, name = entry
        value = _pinned_values()[union][name]
        plain, ordered, derived = PINNED[entry]
        to_json, from_json = self._codec(union)
        assert json.dumps(to_json(value)) == plain
        assert json.dumps(to_json(value), sort_keys=True) == ordered
        back = from_json(json.loads(plain))
        assert back.spec() == value.spec()
        assert json.dumps(to_json(back)) == plain
        if union == "source":
            assert cluster._load_dataset_id(value) == derived
        elif union == "map":
            assert cluster._map_dataset_id("ds-parent", value) == derived
        elif union == "predicate":
            from repro.engine.dataset import FilterMap

            assert cluster._map_dataset_id("ds-parent", FilterMap(value)) == derived

    @pytest.mark.parametrize("name", ["double", "string_ranges", "strings"])
    def test_bucket_binary_is_frozen(self, name):
        from repro.core.buckets import BUCKETS
        from repro.core.serialization import Decoder, Encoder

        value = _pinned_values()["buckets"][name]
        enc = Encoder()
        BUCKETS.write(enc, value)
        assert enc.to_bytes().hex() == PINNED["buckets", name][2]
        back = BUCKETS.read(Decoder(bytes.fromhex(PINNED["buckets", name][2])))
        assert back.spec() == value.spec()

    def test_lineage_is_frozen(self, cluster):
        from repro.engine.redo_log import LoadOp, MapOp
        from repro.engine.rpc import lineage_from_json, lineage_to_json

        values = _pinned_values()
        source, table_map = values["source"]["flights"], values["map"]["filter"]
        load_id = cluster._load_dataset_id(source)
        map_id = cluster._map_dataset_id(load_id, table_map)
        chain = [LoadOp(load_id, source), MapOp(map_id, load_id, table_map)]
        assert json.dumps(lineage_to_json(chain)) == PINNED_LINEAGE[0]
        assert json.dumps(lineage_to_json(chain), sort_keys=True) == PINNED_LINEAGE[1]
        back = lineage_from_json(json.loads(PINNED_LINEAGE[0]))
        assert [op.describe() for op in back] == [op.describe() for op in chain]

    @pytest.mark.parametrize(
        "union, spec, described", PINNED_DEFAULTS, ids=lambda v: str(v)[:24]
    )
    def test_defaults_are_frozen(self, union, spec, described):
        assert self._codec(union)[1](spec).spec() == described

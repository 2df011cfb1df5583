"""The derived wire codecs (``repro.core.wire``): hostile specs, the
summary-size bound, and the one-file-sketch promise.

Byte-for-byte stability of the derived codecs is pinned separately by
``tests/test_wire_golden.py``; round-trip laws are fuzzed in
``tests/test_rpc_properties.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

import repro.service.slow  # noqa: F401 — the "slow" wire type
from repro.core.serialization import Decoder
from repro.core.sketch import Sketch, Summary
from repro.core.wire import (
    INT,
    MAX_SUMMARY_CELLS,
    SKETCH_TYPES,
    STR,
    SUMMARY_TYPES,
    UVARINT,
    Derived,
    Field,
    Wire,
)
from repro.engine.cluster import Cluster
from repro.engine.rpc import (
    ProtocolError,
    RpcRequest,
    sketch_from_json,
    sketch_to_json,
    summary_from_bytes,
    summary_from_json,
    summary_to_bytes,
    summary_to_json,
)
from repro.engine.web import WebServer
from repro.storage.loader import ColumnarDatasetSource

from tests.test_invariant import SPEC_PER_TYPE, SPECS

_BUCKETS = {"type": "double", "min": 0, "max": 3000, "count": 12}

#: One valid spec per registered (wire type, variant): the invariant
#: matrix's first of each, plus the two types it does not run.
VALID_SPECS: dict[tuple[str, str | None], dict] = {
    (spec["type"], spec.get("method")): spec for spec in reversed(list(SPECS.values()))
}
VALID_SPECS["slow", None] = SPEC_PER_TYPE["slow"]
VALID_SPECS["save", None] = {"type": "save", "directory": "/nonexistent", "format": "csv"}

#: A value of the wrong JSON type, per kind name.
WRONG_TYPED = {
    "string": 7,
    "int": "seven",
    "float": "fast",
    "bool": "yes",
    "buckets": 5,
    "sort order": "Distance",
    "row": 5,
    "match predicate": 5,
    "sketch spec": 5,
    "list of string": "ab",
}


def _field_cases():
    for name, classes in sorted(SKETCH_TYPES.items()):
        for cls in classes:
            variant = cls.wire.variant[1] if cls.wire.variant else None
            for entry in cls.wire.entries:
                yield pytest.param(
                    (name, variant), entry, id=f"{name}.{variant or ''}.{entry.key}"
                )


@pytest.fixture(scope="module")
def served(canonical_dataset):
    web = WebServer(Cluster(num_workers=2, cores_per_worker=1))
    return web, web.load(ColumnarDatasetSource(canonical_dataset))


def _execute(served, spec):
    web, handle = served
    replies = list(web.execute(RpcRequest(1, handle, "sketch", {"sketch": spec})))
    return replies[-1]


class TestMalformedSpecsAreProtocolErrors:
    def test_every_registered_type_has_a_valid_spec(self):
        registered = {
            (name, cls.wire.variant[1] if cls.wire.variant else None)
            for name, classes in SKETCH_TYPES.items()
            for cls in classes
        }
        assert registered == set(VALID_SPECS)

    @pytest.mark.parametrize("key, entry", _field_cases())
    def test_wrong_typed_field(self, served, key, entry):
        spec = dict(VALID_SPECS[key], **{entry.key: WRONG_TYPED[entry.kind.name]})
        reply = _execute(served, spec)
        assert (reply.kind, reply.code) == ("error", "protocol"), reply.error
        assert repr(key[0]) in reply.error and repr(entry.key) in reply.error

    @pytest.mark.parametrize(
        "patch",
        [
            {"rate": "x"},
            {"rate": 0},
            {"rate": None},
            {"buckets": None},
            {"buckets": dict(_BUCKETS, count=-3)},
            {"buckets": dict(_BUCKETS, count="many")},
            {"seed": [1]},
        ],
        ids=json.dumps,
    )
    def test_histogram_spec_values(self, served, patch):
        spec = dict(VALID_SPECS["histogram", None], **patch)
        reply = _execute(served, spec)
        assert (reply.kind, reply.code) == ("error", "protocol"), reply.error
        assert "'histogram'" in reply.error

    @pytest.mark.parametrize("k", [0, -1, "abc", None])
    def test_heavy_hitters_k(self, served, k):
        reply = _execute(served, dict(VALID_SPECS["heavyHitters", "streaming"], k=k))
        assert (reply.kind, reply.code) == ("error", "protocol"), reply.error

    def test_unknown_variant(self, served):
        spec = dict(VALID_SPECS["heavyHitters", "streaming"], method="guess")
        reply = _execute(served, spec)
        assert reply.code == "protocol" and "'guess'" in reply.error

    def test_half_a_second_group(self, served):
        spec = dict(VALID_SPECS["trellisHistogram", None], group2Column="s")
        assert _execute(served, spec).code == "protocol"

    @pytest.mark.parametrize(
        "patch", [{"counts": "abc"}, {"missing": None}, {"sampledRows": [2]}]
    )
    def test_summary_payload_fields(self, patch):
        payload = {"type": "histogram", "counts": [1, 2], "missing": 0,
                   "outOfRange": 0, "sampledRows": 3}
        with pytest.raises(ProtocolError, match=f"'histogram' field '{next(iter(patch))}'"):
            summary_from_json(dict(payload, **patch))

    def test_valid_specs_still_run(self, served):
        reply = _execute(served, VALID_SPECS["histogram", None])
        assert reply.kind == "complete" and sum(reply.payload["counts"]) > 0


class TestSummarySizeBound:
    """A spec's bucket counts multiply to the cells its summary allocates;
    beyond MAX_SUMMARY_CELLS it is refused before any worker sees it."""

    @staticmethod
    def _heatmap(x: int, y: int) -> dict:
        return {
            "type": "heatmap",
            "xColumn": "Distance", "xBuckets": dict(_BUCKETS, count=x),
            "yColumn": "DepDelay", "yBuckets": dict(_BUCKETS, count=y),
        }

    def test_the_bound_is_a_constant(self):
        assert MAX_SUMMARY_CELLS == 1 << 22

    def test_at_the_bound_is_accepted(self):
        sketch = sketch_from_json(self._heatmap(2048, 2048))
        assert sketch.x_buckets.count * sketch.y_buckets.count == MAX_SUMMARY_CELLS

    def test_over_the_bound_is_rejected(self, served):
        with pytest.raises(ProtocolError, match="cells"):
            sketch_from_json(self._heatmap(2048, 2049))
        reply = _execute(served, self._heatmap(100_000, 100_000))
        assert (reply.kind, reply.code) == ("error", "protocol")

    def test_every_bucket_field_counts(self):
        spec = dict(
            VALID_SPECS["trellisHeatmap", None],
            groupBuckets=dict(_BUCKETS, count=100),
            group2Column="s", group2Buckets=dict(_BUCKETS, count=100),
            xBuckets=dict(_BUCKETS, count=100), yBuckets=dict(_BUCKETS, count=100),
        )
        with pytest.raises(ProtocolError, match="100000000 cells"):
            sketch_from_json(spec)

    def test_a_single_histogram_is_bounded_too(self):
        spec = dict(VALID_SPECS["histogram", None], buckets=dict(_BUCKETS, count=10**8))
        with pytest.raises(ProtocolError, match="cells"):
            sketch_from_json(spec)

    def test_nested_specs_are_checked(self):
        spec = {"type": "slow", "inner": self._heatmap(4096, 4096)}
        with pytest.raises(ProtocolError, match="cells"):
            sketch_from_json(spec)


# ---------------------------------------------------------------------------
# The one-file sketch: everything a new vizketch needs is declared right here
# (no file under src/ knows these classes exist)
# ---------------------------------------------------------------------------
def _declare_toy_sketch() -> tuple[type, type]:
    @dataclass
    class ToyCount(Summary):
        """Rows seen, and how many had the column present."""

        rows: int = 0
        present: int = 0

        wire = Wire(
            "toyCount",
            Field("rows", "rows", UVARINT),
            Field("present", "present", UVARINT),
            Derived(
                "share", lambda s: s.present / s.rows if s.rows else 0.0, "present / rows"
            ),
        )

    class ToyCountSketch(Sketch[ToyCount]):
        wire = Wire(
            "toyCount",
            Field("column", "column", STR),
            Field("weight", "weight", INT, 1),
        )

        def __init__(self, column: str, weight: int = 1):
            self.column = column
            self.weight = weight

        def cache_key(self) -> str:
            return f"ToyCount({self.column!r},{self.weight})"

        def zero(self) -> ToyCount:
            return ToyCount()

        def summarize(self, table) -> ToyCount:
            rows = table.members.indices()
            missing = int(table.column(self.column).missing_mask()[rows].sum())
            return ToyCount(len(rows) * self.weight, (len(rows) - missing) * self.weight)

        def merge(self, left: ToyCount, right: ToyCount) -> ToyCount:
            return ToyCount(left.rows + right.rows, left.present + right.present)

    return ToyCount, ToyCountSketch


@pytest.fixture(scope="class")
def toy():
    """Defining the classes registers them; other suites assert the exact
    set of registered types, so they are forgotten again afterwards."""
    classes = _declare_toy_sketch()
    yield classes
    del SKETCH_TYPES["toyCount"], SUMMARY_TYPES["toyCount"]


class TestOneFileSketch:
    def test_spec_round_trips(self, toy):
        _, sketch_cls = toy
        spec = {"type": "toyCount", "column": "DepDelay", "weight": 3}
        sketch = sketch_from_json(spec)
        assert type(sketch) is sketch_cls and sketch.weight == 3
        assert sketch_to_json(sketch) == spec
        assert sketch_from_json({"type": "toyCount", "column": "x"}).weight == 1

    def test_summary_round_trips_both_codecs(self, toy):
        summary_cls, _ = toy
        summary = summary_cls(rows=10, present=7)
        payload = summary_to_json(summary)
        assert payload == {"type": "toyCount", "rows": 10, "present": 7, "share": 0.7}
        assert summary_from_json(json.loads(json.dumps(payload))) == summary
        assert summary_from_bytes(summary_to_bytes(summary)) == summary
        assert summary_cls.decode(Decoder(summary.to_bytes())) == summary
        assert summary.serialized_size() == 2

    def test_runs_through_cluster_and_web_server(self, toy, served):
        _, sketch_cls = toy
        web, handle = served
        direct = web.dataset(handle).sketch(sketch_cls("d", weight=2))
        assert direct.rows == 1600 and 0 < direct.present <= 1600
        reply = _execute(served, {"type": "toyCount", "column": "d", "weight": 2})
        assert reply.kind == "complete"
        assert reply.payload == summary_to_json(direct)

    def test_malformed_toy_spec_is_a_protocol_error(self, toy, served):
        reply = _execute(served, {"type": "toyCount", "column": 5})
        assert reply.code == "protocol" and "'toyCount'" in reply.error

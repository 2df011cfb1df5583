"""JSON text straight from the array, and count grids at their width.

The reply encoders render a summary payload with
:func:`repro.core.wire.summary_json` and :func:`repro.core.wire.dumps`
instead of ``json.dumps(summary_to_json(summary))``; integer grids are
written from the ndarray through a value-to-text table.  Every byte must
be what ``json.dumps`` wrote before — this file pins that identity for
arrays of every shape, for every summary the goldens cover (keys in table
order and sorted), and inside the reply frames of both client wires.

Every reader of a reply frame parses it with :func:`repro.core.wire.loads`
(orjson, and ``json.loads`` where the two parsers differ); the last
section pins that it reads every frame the server can send, and any
envelope, exactly as ``json.loads`` does.

On the worker wire a count grid travels at the narrowest unsigned width
that holds it and is widened back to int64 on read; the width edges are
pinned here too.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.framing import encode_frame
from repro.core.serialization import Decoder, Encoder
from repro.core.wire import (
    COUNTS,
    JsonText,
    dumps,
    int_array_json,
    loads,
    summary_json,
)
from repro.data.flights import FlightsSource
from repro.engine.local import LocalDataSet
from repro.engine.rpc import (
    REQUEST_ID_MAX,
    REQUEST_ID_MIN,
    RpcReply,
    sketch_from_json,
    summary_from_bytes,
    summary_to_bytes,
    summary_to_json,
)
from repro.gateway import websocket as ws
from repro.gateway.server import reply_frame as gateway_frame
from repro.service.transport import reply_frame as tcp_frame
from repro.sketches.heatmap import HeatmapSummary
from repro.sketches.moments import MomentsSketch
from repro.sketches.specs import SKETCH_SPECS
from repro.table.table import Table
from test_wire_golden import EXTRA_SPECS, FLIGHTS_SPECS, canonical_shards


def _text(rendered) -> str:
    return rendered if type(rendered) is JsonText else json.dumps(rendered)


# ---------------------------------------------------------------------------
# Integer arrays
# ---------------------------------------------------------------------------
_INT_DTYPES = st.sampled_from(["int64", "int32", "uint8", "uint16", "uint32"])


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        _INT_DTYPES,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=40),
        elements=st.integers(0, 255),
    )
)
def test_small_valued_arrays_render_as_json_dumps(array):
    assert _text(int_array_json(array)) == json.dumps(array.tolist())


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=30),
        elements=st.integers(-2, 5000),
    )
)
def test_arrays_around_the_table_edge_render_as_json_dumps(array):
    assert _text(int_array_json(array)) == json.dumps(array.tolist())


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=30),
        elements=st.integers(-(2**63), 2**63 - 1),
    )
)
def test_any_int64_array_renders_as_json_dumps(array):
    assert _text(int_array_json(array)) == json.dumps(array.tolist())


@pytest.mark.parametrize(
    "array",
    [
        np.array(7, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros((0, 9), dtype=np.int64),
        np.zeros((9, 0), dtype=np.int64),
        np.zeros((2, 0, 3), dtype=np.int64),
        np.arange(100, dtype=np.int64).reshape(4, 25) - 3,  # a negative cell
        np.full((8, 8), np.iinfo(np.int64).max),
        np.full((8, 8), np.iinfo(np.int64).min),
        np.arange(4090, 4100, dtype=np.int64).repeat(8),  # past the table
        np.arange(4096, dtype=np.int64).reshape(64, 64),  # the whole table
        np.arange(3 * 4 * 9, dtype=np.int64).reshape(3, 4, 9),
        np.ones((200, 1), dtype=np.int64),  # one cell a row
        np.arange(127, dtype=np.int64),  # too few cells for the table
    ],
    ids=lambda a: f"{a.dtype}{a.shape}",
)
def test_edge_arrays_render_as_json_dumps(array):
    assert _text(int_array_json(array)) == json.dumps(array.tolist())


def test_a_wide_grid_renders_from_the_array():
    grid = np.random.default_rng(3).integers(0, 14, (400, 300))
    rendered = int_array_json(grid)
    assert type(rendered) is JsonText
    assert rendered == json.dumps(grid.tolist())


@pytest.mark.parametrize("sort_keys", [False, True])
def test_dumps_splices_text_where_json_dumps_writes_the_value(sort_keys):
    fields = {"z": 1, "payload": JsonText("[1, 2]"), "a": {"y": 2, "b": None}}
    expected = {"z": 1, "payload": [1, 2], "a": {"y": 2, "b": None}}
    assert dumps(fields, sort_keys) == json.dumps(expected, sort_keys=sort_keys)
    plain = {"k": "é", "n": [1.5, float("inf")]}
    assert dumps(plain, sort_keys) == json.dumps(plain, sort_keys=sort_keys)


# ---------------------------------------------------------------------------
# Every summary, in both key orders
# ---------------------------------------------------------------------------
#: Grids large enough that the text path renders them (the golden specs
#: are display-sized for a 400-row table, mostly under the threshold).
WIDE_SPECS: dict[str, dict] = {
    "heatmap": {
        "type": "heatmap",
        "xColumn": "Distance",
        "xBuckets": {"type": "double", "min": 0, "max": 3000, "count": 40},
        "yColumn": "DepDelay",
        "yBuckets": {"type": "double", "min": -30, "max": 180, "count": 30},
    },
    "histogram": {
        "type": "histogram",
        "column": "Distance",
        "buckets": {"type": "double", "min": 0, "max": 3000, "count": 200},
    },
    "trellisHeatmap": {
        "type": "trellisHeatmap",
        "groupColumn": "Airline",
        "groupBuckets": {"type": "strings", "values": ["AA", "DL", "UA"]},
        "xColumn": "Distance",
        "xBuckets": {"type": "double", "min": 0, "max": 3000, "count": 20},
        "yColumn": "DepDelay",
        "yBuckets": {"type": "double", "min": -30, "max": 180, "count": 10},
    },
    "stacked": {
        "type": "stacked",
        "xColumn": "Distance",
        "xBuckets": {"type": "double", "min": 0, "max": 3000, "count": 30},
        "yColumn": "Airline",
        "yBuckets": {"type": "strings", "values": ["AA", "AS", "B6", "DL",
                                                   "UA", "WN", "OO", "EV"]},
    },
    "distinct": {"type": "distinct", "column": "Origin", "precision": 10},
}


def _summaries() -> dict[str, object]:
    import repro.service.slow  # noqa: F401 — the "slow" wire type

    shards = canonical_shards()
    out: dict[str, object] = {}
    for spec in SKETCH_SPECS:
        sketch = spec.sketch()
        out[f"kernel/{spec.name}"] = sketch.merge_all(
            [sketch.summarize(s) for s in shards]
        )
    for name, spec in EXTRA_SPECS.items():
        sketch = sketch_from_json(spec)
        out[f"extra/{name}"] = sketch.merge_all([sketch.summarize(s) for s in shards])
    flights = LocalDataSet(
        Table.concat(FlightsSource(2_000, partitions=4, seed=5).load())
    )
    wide = {f"wide/{name}": spec for name, spec in WIDE_SPECS.items()}
    for name, spec in {**FLIGHTS_SPECS, **wide}.items():
        out[f"flights/{name}"] = flights.sketch(sketch_from_json(spec))
    return out


SUMMARIES = _summaries()


def test_the_wide_summaries_take_the_text_path():
    for name in WIDE_SPECS:
        assert type(summary_json(SUMMARIES[f"flights/wide/{name}"])) is JsonText, name


@pytest.mark.parametrize("sort_keys", [False, True], ids=["table-order", "sorted"])
@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_summary_text_is_json_dumps(name, sort_keys):
    summary = SUMMARIES[name]
    expected = json.dumps(summary_to_json(summary), sort_keys=sort_keys)
    rendered = summary_json(summary, sort_keys)
    text = rendered if type(rendered) is JsonText else json.dumps(
        rendered, sort_keys=sort_keys
    )
    assert text == expected


# ---------------------------------------------------------------------------
# Inside the reply frames of both client wires
# ---------------------------------------------------------------------------
_PROFILE = {"totalSeconds": 0.25, "workers": [{"worker": "w0", "bytes": 9}],
            "cacheHit": False}


def _replies(summary) -> list[RpcReply]:
    return [
        RpcReply.carrying(3, "partial", summary, progress=0.375),
        RpcReply.carrying(3, "complete", summary, cache={"hit": False, "workerHits": 2},
                          profile=_PROFILE),
        RpcReply.carrying(3, "cancelled", summary, code="superseded",
                          cache={"hit": True, "workerHits": 0}, profile=_PROFILE),
        RpcReply.carrying(3, "complete", None, cache={"hit": False, "workerHits": 0}),
    ]


def _reference(reply: RpcReply) -> dict:
    """The envelope as the dict-then-json.dumps route built it."""
    envelope = reply.envelope()
    if reply.summary is not None:
        envelope["payload"] = summary_to_json(reply.summary)
    return envelope


@pytest.mark.parametrize(
    "name", [n for n in sorted(SUMMARIES) if n.startswith(("flights/", "kernel/heat"))]
)
def test_reply_frames_are_byte_identical(name):
    summary = SUMMARIES[name]
    for seq, reply in enumerate(_replies(summary), start=1):
        envelope = _reference(reply)
        assert tcp_frame(reply) == encode_frame(json.dumps(envelope).encode("utf-8"))
        message = {**envelope, "type": "reply", "seq": seq}
        assert gateway_frame(reply, seq) == ws.encode_frame(
            ws.OP_TEXT, json.dumps(message, sort_keys=True).encode("utf-8")
        )
        unsequenced = {**envelope, "type": "reply"}
        assert gateway_frame(reply) == ws.encode_frame(
            ws.OP_TEXT, json.dumps(unsequenced, sort_keys=True).encode("utf-8")
        )


def test_payload_reads_as_the_plain_dict():
    summary = SUMMARIES["flights/wide/heatmap"]
    reply = RpcReply.carrying(1, "complete", summary)
    assert reply.payload == summary_to_json(summary)
    assert RpcReply.from_json(reply.to_json()).payload == reply.payload
    assert RpcReply.carrying(1, "complete", None).payload is None


# ---------------------------------------------------------------------------
# Count grids at their width on the worker wire
# ---------------------------------------------------------------------------
_TAGS = {"uint8": 3, "uint16": 6, "uint32": 7, "int64": 1}


def _roundtrip(grid: np.ndarray) -> tuple[int, np.ndarray]:
    enc = Encoder()
    COUNTS.write(enc, grid)
    raw = enc.to_bytes()
    return raw[0], COUNTS.read(Decoder(raw))


@pytest.mark.parametrize(
    "top, width",
    [
        (0, "uint8"),
        (255, "uint8"),
        (256, "uint16"),
        (65535, "uint16"),
        (65536, "uint32"),
        (2**32 - 1, "uint32"),
        (2**32, "int64"),
        (2**62, "int64"),
    ],
)
def test_count_grid_width_edges(top, width):
    grid = np.zeros((3, 5), dtype=np.int64)
    grid[1, 2] = top
    tag, back = _roundtrip(grid)
    assert tag == _TAGS[width]
    assert back.dtype == np.int64 and np.array_equal(back, grid)


def test_a_negative_cell_keeps_the_grid_int64():
    grid = np.array([[3, -1], [0, 7]], dtype=np.int64)
    tag, back = _roundtrip(grid)
    assert tag == _TAGS["int64"]
    assert back.dtype == np.int64 and np.array_equal(back, grid)


def test_an_empty_grid_roundtrips():
    tag, back = _roundtrip(np.zeros((0, 4), dtype=np.int64))
    assert back.dtype == np.int64 and back.shape == (0, 4)


def test_the_wide_heat_map_travels_at_one_byte_a_cell():
    counts = np.random.default_rng(1).integers(0, 14, (400, 300))
    summary = HeatmapSummary(counts=counts, x_missing=1, y_missing=2,
                             out_of_range=3, sampled_rows=4)
    blob = summary_to_bytes(summary)
    assert 120_000 <= len(blob) < 120_100
    back = summary_from_bytes(blob)
    assert back.counts.dtype == np.int64
    assert summary_to_json(back) == summary_to_json(summary)


# ---------------------------------------------------------------------------
# Reading the frames back: loads is json.loads
# ---------------------------------------------------------------------------
def assert_same(got, expected) -> None:
    """The same JSON value: the same type at every node, floats bit for
    bit (``-0.0`` is not ``0.0``), object keys in the same order."""
    assert type(got) is type(expected), (got, expected)
    if type(expected) is float:
        assert struct.pack("<d", got) == struct.pack("<d", expected), (got, expected)
    elif type(expected) is dict:
        assert list(got) == list(expected)
        for key, value in expected.items():
            assert_same(got[key], value)
    elif type(expected) is list:
        assert len(got) == len(expected)
        for item, value in zip(got, expected):
            assert_same(item, value)
    else:
        assert got == expected


class _Socket:
    """What a client reads a frame through: ``recv`` over ``data``."""

    def __init__(self, data: bytes):
        self.recv = io.BytesIO(data).read


def assert_loads_reads_as_json(reply: RpcReply, seq: int = 1) -> bytes:
    """Both wires' text of ``reply`` decodes alike with either parser;
    returns the gateway message, as a client reads it off the frame."""
    message = ws.read_message_blocking(_Socket(gateway_frame(reply, seq))).data
    for data in (message, reply.to_json().encode("utf-8")):
        assert_same(loads(data), json.loads(data.decode("utf-8")))
    return message


@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_loads_reads_every_reply_frame_as_json_loads(name):
    for seq, reply in enumerate(_replies(SUMMARIES[name]), start=1):
        assert_loads_reads_as_json(reply, seq)


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf + -inf
def test_a_non_finite_stat_takes_the_fallback():
    inf = float("inf")
    table = Table.from_pydict({"x": [1.5, inf, -inf, -0.0, None]})
    stats = LocalDataSet(table).sketch(MomentsSketch("x"))
    assert stats.min_value == -inf and stats.max_value == inf
    message = assert_loads_reads_as_json(RpcReply.carrying(5, "complete", stats))
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(message)  # NaN and Infinity: only json.loads reads them


@pytest.mark.parametrize(
    "value",
    [REQUEST_ID_MIN, REQUEST_ID_MAX, 2**64 - 1, REQUEST_ID_MIN - 1, 2**64, -(10**40)],
)
def test_integers_stay_exact_past_int64(value):
    # orjson alone returns a float for the last three.
    assert_loads_reads_as_json(RpcReply(7, "ack", payload={"n": [value, 1.5]}))


def test_signed_zeros_keep_their_sign_on_either_path():
    inf = float("inf")
    for extra in ([], [float("nan"), inf, -inf]):  # orjson's path, the fallback
        payload = {"zeros": [-0.0, 0.0, -5e-324], "extra": extra}
        assert_loads_reads_as_json(RpcReply(7, "partial", 0.5, payload=payload))


@pytest.mark.parametrize("text", ["café", "日本語", "😀"])
def test_non_ascii_cells_read_as_json_loads(text):
    table = Table.from_pydict({"s": ["plain", text, text]})
    stats = LocalDataSet(table).sketch(MomentsSketch("s"))
    assert text in (stats.min_value, stats.max_value)
    assert_loads_reads_as_json(RpcReply.carrying(5, "complete", stats))


@pytest.mark.parametrize("text", ["café", "😀", "a\ud800b", "\udfff", "\ud83d"])
def test_an_echoed_string_reads_as_json_loads(text):
    # A request's strings are json.loads output, lone surrogates and all,
    # and an error message can echo one (a column the client named).
    message = assert_loads_reads_as_json(
        RpcReply(6, "error", error=f"column {text} not found", code="engine")
    )
    assert text in loads(message)["error"]


_INT64 = st.integers(REQUEST_ID_MIN, REQUEST_ID_MAX)
_STRINGS = st.text(st.characters(blacklist_categories=()), max_size=8)
_VALUES = st.recursive(
    st.none() | st.booleans() | _INT64 | st.integers() | st.floats() | _STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(
    request_id=_INT64,
    seq=_INT64,
    kind=st.sampled_from(["partial", "complete", "cancelled", "error", "ack"]),
    progress=st.floats(0, 1),
    payload=_VALUES,
    cache=st.none() | st.dictionaries(_STRINGS, _VALUES, max_size=3),
)
def test_loads_reads_any_envelope_as_json_loads(
    request_id, seq, kind, progress, payload, cache
):
    reply = RpcReply(request_id, kind, progress=progress, payload=payload, cache=cache)
    assert_loads_reads_as_json(reply, seq)

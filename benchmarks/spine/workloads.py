"""The six workloads: what one unit sends, and how its answer is checked.

A *unit* is one user action, timed closed-loop from the moment the driver
starts it.  Each workload is a small class: which dataset it loads, how
many connections drive it, and ``unit(session, index)`` — the requests of
unit ``index``.  Every cold workload derives a parameter that is unique to
``(seed, index)`` (a bucket bound, a start key, a predicate constant, an
alias path) so that no cache tier can answer it; ``warm_repeat`` does the
opposite on purpose.

Why these six, and what each is expected to move, is argued in README.md.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from data import VOCABULARY, DataSet
from stack import Connection, Reply, Stack

#: Rows per dataset.  Frozen: these sizes are part of the benchmark.  They
#: are what fits >= 100 timed units of every workload into one 12-second
#: run on the 2-core reference box (README, "Sizes").
ROWS = {"big": 500_000, "mid": 200_000, "small": 20_000}
SMOKE_ROWS = {"big": 40_000, "mid": 40_000, "small": 4_000}


def double_buckets(lo: float, hi: float, count: int) -> dict:
    return {"type": "double", "min": lo, "max": hi, "count": count}


def string_buckets(values: list[str]) -> dict:
    return {"type": "strings", "values": values}


def bucket_count(buckets: dict) -> int:
    return buckets["count"] if buckets["type"] == "double" else len(buckets["values"])


# ---------------------------------------------------------------------------
# Records: what the driver keeps about each request and unit
# ---------------------------------------------------------------------------
@dataclass
class Exchange:
    """One request and every reply to it, with driver-side timestamps."""

    method: str
    args: dict
    started: float  # before the request is serialised
    sent: float  # the socket accepted it
    replies: list[Reply]
    span_id: str | None = None

    @property
    def terminal(self) -> Reply:
        return self.replies[-1]

    @property
    def seconds(self) -> float:
        return self.terminal.decoded - self.started

    @property
    def wire_bytes(self) -> int:
        return sum(r.wire_bytes for r in self.replies)

    @property
    def error(self) -> str | None:
        message = self.terminal.message
        if message.get("kind") == "error":
            return f"{self.method}: {message.get('error')}"
        return None


@dataclass
class Unit:
    """One user action: its exchanges and the instants that define its
    latency.  ``first``/``finished`` refer to the unit's last sketch."""

    index: int
    family: str
    started: float
    #: Units of one kind do the same work (one chart family, one sort
    #: order, one cached spec): latency medians are taken per kind.
    kind: str = ""
    exchanges: list[Exchange] = field(default_factory=list)
    handshake_seconds: float | None = None
    first: float = 0.0
    finished: float = 0.0
    ended: float = 0.0
    spec: dict | None = None
    predicate: dict | None = None  # the oracle's input is table.filter(this)
    payload: dict | None = None  # kept only for oracle-sampled units
    error: str | None = None
    sampled: bool = False
    trace_id: str | None = None

    @property
    def sketch(self) -> Exchange:
        return next(e for e in reversed(self.exchanges) if e.method == "sketch")

    @property
    def first_partial_seconds(self) -> float:
        return self.first - self.started

    @property
    def complete_seconds(self) -> float:
        return self.finished - self.started

    @property
    def busy_seconds(self) -> float:
        return self.ended - self.started


class Session:
    """One driver connection: a handshaken WebSocket, its own loaded
    handle (handles are session-scoped), and the per-connection state a
    workload threads from one unit to the next."""

    def __init__(self, stack: Stack, dataset: DataSet, seed: int, traced: bool, tmp: str):
        self.stack = stack
        self.dataset = dataset
        self.seed = seed
        self.traced = traced
        self.tmp = tmp
        self.state: dict = {}
        self.opening = Unit(-1, "open", time.perf_counter())
        self.conn = stack.connect()
        self.opening.handshake_seconds = self.conn.handshake_seconds
        self.handle = self.load(self.opening, self.conn, dataset.directory)
        self.opening.ended = time.perf_counter()

    # A value in [0, 1) that differs between seeds; added to the unit
    # index it keeps every derived parameter unique within a run and
    # different across seeds.
    @property
    def offset(self) -> float:
        return (self.seed % 9973) / 9973.0

    def request(self, unit: Unit, conn: Connection, method: str, target: str = "",
                args: dict | None = None, trace: dict | None = None) -> Exchange:
        args = args or {}
        started = time.perf_counter()
        request_id = conn.send(method, target, args, trace)
        sent = time.perf_counter()
        exchange = Exchange(method, args, started, sent, conn.replies(request_id))
        if trace is not None:
            exchange.span_id = trace["spanId"]
        unit.exchanges.append(exchange)
        if exchange.error and unit.error is None:
            unit.error = exchange.error
        return exchange

    def load(self, unit: Unit, conn: Connection, directory: str) -> str:
        source = {"kind": "hvc", "directory": directory}
        exchange = self.request(unit, conn, "load", args={"source": source})
        if exchange.error:
            raise RuntimeError(exchange.error)
        return exchange.terminal.message["payload"]["handle"]

    def sketch(self, unit: Unit, spec: dict, target: str | None = None,
               conn: Connection | None = None) -> Exchange:
        """The unit's sketch: stamps first/finished, keeps spec and payload.

        In a traced run the request also asks for its profile and carries
        a trace context whose trace id is the unit's.
        """
        args: dict = {"sketch": spec}
        trace = None
        if self.traced:
            args["profile"] = True
            unit.trace_id = f"{self.seed & 0xFFFFFFFF:08x}{unit.index & 0xFFFFFFFF:08x}"
            trace = {
                "traceId": unit.trace_id,
                "spanId": f"{unit.index & 0xFFFFFFFF:08x}{len(unit.exchanges):08x}",
            }
        exchange = self.request(
            unit, conn or self.conn, "sketch", target or self.handle, args, trace
        )
        unit.family = spec["type"]
        unit.kind = unit.kind or unit.family
        unit.spec = spec
        unit.first = exchange.replies[0].decoded
        unit.finished = unit.ended = exchange.terminal.decoded
        unit.payload = exchange.terminal.message.get("payload")
        return exchange

    def close(self) -> None:
        self.conn.close()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Workload:
    name = ""
    why = ""
    dataset = "big"
    connections = 1
    warmup_units = 5
    #: Does a timed unit's answer come from the root computation cache?
    cached = False

    def prepare(self, session: Session) -> list[Unit]:
        """Extra set-up on a freshly opened session (untimed)."""
        return []

    def unit(self, session: Session, index: int) -> Unit:
        raise NotImplementedError


def _bound(session: Session, index: int, base: float = 50.0) -> float:
    """A bucket bound unique to (seed, index): ``base`` plus < 1."""
    return base + (index + session.offset) * 1e-3


def chart_spec(family: str, session: Session, index: int) -> dict:
    """The six chart sketches of ``chart_scan``, made unique per unit."""
    hi = _bound(session, index)
    if family == "histogram":
        return {"type": "histogram", "column": "d", "buckets": double_buckets(-50, hi, 64)}
    if family == "cdf":
        return {"type": "cdf", "column": "d", "buckets": double_buckets(-50, hi, 600)}
    if family == "heatmap":
        return {
            "type": "heatmap",
            "xColumn": "i", "xBuckets": double_buckets(-50, 50, 50),
            "yColumn": "d", "yBuckets": double_buckets(-50, hi, 30),
        }
    if family == "stacked":
        return {
            "type": "stacked",
            "xColumn": "d", "xBuckets": double_buckets(-50, hi, 40),
            "yColumn": "s", "yBuckets": string_buckets(VOCABULARY),
        }
    if family == "heavyHitters":
        # k exceeds the ten distinct strings, so Misra-Gries never
        # saturates and the counts are exact for every k.
        return {"type": "heavyHitters", "column": "s", "k": 20 + index}
    if family == "distinct":
        return {"type": "distinct", "column": "i", "seed": session.seed * 100_003 + index + 1}
    raise KeyError(family)


CHART_FAMILIES = ("histogram", "cdf", "heatmap", "stacked", "heavyHitters", "distinct")


class ChartScan(Workload):
    name = "chart_scan"
    why = (
        "six chart sketches over 500k rows, never cached: leaf binning/counting "
        "kernels and mmap column reads do nearly all the work"
    )

    def unit(self, session: Session, index: int) -> Unit:
        unit = Unit(index, "", time.perf_counter())
        family = CHART_FAMILIES[index % len(CHART_FAMILIES)]
        session.sketch(unit, chart_spec(family, session, index))
        return unit


SORT_ORDERS = (
    [{"column": "i", "ascending": False}, {"column": "d", "ascending": True}],
    [
        {"column": "s", "ascending": True},
        {"column": "t", "ascending": False},
        {"column": "d", "ascending": True},
    ],
)
PAGE_ROWS = 50


def next_k_spec(session: Session, index: int) -> dict:
    """Page forward: the start key is the last row of this order's
    previous page, so every request is new to every cache."""
    which = index % len(SORT_ORDERS)
    cursor = session.state.setdefault(("cursor", which), {"start": None, "laps": 0})
    spec: dict = {
        "type": "nextK",
        "order": SORT_ORDERS[which],
        # A lap (the data ran out) restarts from the top with another k,
        # which keeps the restarted pages unique too.
        "k": PAGE_ROWS + cursor["laps"],
    }
    if cursor["start"] is not None:
        spec["start"] = cursor["start"]
    return spec


class TableScroll(Workload):
    name = "table_scroll"
    why = (
        "nextK paging over 20k rows in two sort orders: the table view's sort/top-k "
        "leaf path, which a change that helps binning kernels can hurt"
    )
    dataset = "small"

    def unit(self, session: Session, index: int) -> Unit:
        unit = Unit(index, "", time.perf_counter(), kind=f"order{index % len(SORT_ORDERS)}")
        spec = next_k_spec(session, index)
        session.sketch(unit, spec)
        rows = (unit.payload or {}).get("rows") or []
        cursor = session.state[("cursor", index % len(SORT_ORDERS))]
        if len(rows) == spec["k"]:
            cursor["start"] = rows[-1]
        else:
            cursor["start"] = None
            cursor["laps"] += 1
        return unit


TRELLIS_GROUPS = VOCABULARY + ["yak", "zebu"]


class WideResult(Workload):
    name = "wide_result"
    why = (
        "small scan (200k rows), ~390 KB JSON reply frames: worker-wire attachments, root "
        "merge, summary encode, WebSocket framing and client decode dominate"
    )
    dataset = "mid"

    def unit(self, session: Session, index: int) -> Unit:
        unit = Unit(index, "", time.perf_counter())
        hi = _bound(session, index)
        if index % 2 == 0:
            spec = {
                "type": "heatmap",
                "xColumn": "d", "xBuckets": double_buckets(-50, hi, 400),
                "yColumn": "i", "yBuckets": double_buckets(-50, 50, 300),
            }
        else:
            spec = {
                "type": "trellisHeatmap",
                "groupColumn": "s", "groupBuckets": string_buckets(TRELLIS_GROUPS),
                "xColumn": "d", "xBuckets": double_buckets(-50, hi, 120),
                "yColumn": "i", "yBuckets": double_buckets(-50, 50, 100),
            }
        session.sketch(unit, spec)
        return unit


def warm_specs(session: Session) -> list[dict]:
    """Eight small-payload specs; fixed within a run, shifted by the seed."""
    hi = _bound(session, 0)
    return [
        {"type": "histogram", "column": "d", "buckets": double_buckets(-50, hi, 64)},
        {"type": "histogram", "column": "i", "buckets": double_buckets(-50, hi, 50)},
        {"type": "histogram", "column": "s", "buckets": string_buckets(VOCABULARY)},
        {"type": "cdf", "column": "d", "buckets": double_buckets(-50, hi, 100)},
        {"type": "heavyHitters", "column": "s", "k": 12 + session.seed % 5},
        {
            "type": "stacked",
            "xColumn": "d", "xBuckets": double_buckets(-50, hi, 10),
            "yColumn": "s", "yBuckets": string_buckets(VOCABULARY),
        },
        {
            "type": "heatmap",
            "xColumn": "i", "xBuckets": double_buckets(-50, 50, 12),
            "yColumn": "d", "yBuckets": double_buckets(-50, hi, 10),
        },
        {"type": "histogram", "column": "d", "buckets": double_buckets(-40, hi, 32)},
    ]


class WarmRepeat(Workload):
    name = "warm_repeat"
    why = (
        "two connections repeating eight small cached sketches: zero kernel time, so "
        "HTTP/WS framing, session lookup, scheduler hand-off and reply encode are the cost"
    )
    connections = 2
    cached = True

    def prepare(self, session: Session) -> list[Unit]:
        """Compute each spec once so every later unit is a root cache hit."""
        filled = []
        for spec in warm_specs(session):
            unit = Unit(-1, "", time.perf_counter())
            session.sketch(unit, spec)
            filled.append(unit)
        return filled

    def unit(self, session: Session, index: int) -> Unit:
        if "specs" not in session.state:
            session.state["specs"] = warm_specs(session)
        specs = session.state["specs"]
        unit = Unit(index, "", time.perf_counter(), kind=f"spec{index % len(specs)}")
        session.sketch(unit, specs[index % len(specs)])
        return unit


class ColdOpen(Workload):
    name = "cold_open"
    why = (
        "each unit opens a WebSocket and a never-seen alias of the 500k-row dataset, then "
        "one histogram: handshake, session, shard open, first-touch faults and ensure"
    )
    warmup_units = 6

    def unit(self, session: Session, index: int) -> Unit:
        # Hard-linking the alias is the benchmark's own file work, not
        # part of the user's action: it happens before the clock starts.
        alias = session.dataset.alias(
            os.path.join(session.tmp, f"alias-{session.seed}-{index}")
        )
        unit = Unit(index, "", time.perf_counter())
        conn = session.stack.connect()
        try:
            unit.handshake_seconds = conn.handshake_seconds
            handle = session.load(unit, conn, alias)
            spec = chart_spec("histogram", session, index)
            session.sketch(unit, spec, handle, conn)
            if index < self.warmup_units:
                # The self-check's reference: the same sketch (another
                # unique bound) on the handle that is now open.
                again = Unit(index, "", time.perf_counter())
                session.sketch(again, chart_spec("histogram", session, -1 - index), handle, conn)
                session.state.setdefault("open_vs_cold", []).append(
                    (unit.complete_seconds, again.complete_seconds)
                )
            session.request(unit, conn, "evict", handle)
        finally:
            conn.close()
        unit.ended = time.perf_counter()
        return unit


def zoom_predicate(session: Session, index: int) -> dict:
    """A range on ``d`` keeping ~50 % of the rows, unique per unit."""
    shift = (index + session.offset) * 1e-3
    return {"type": "column", "column": "d", "op": "between",
            "value": [-30.0 + shift, 30.0 + shift]}


class ZoomFilter(Workload):
    name = "zoom_filter"
    why = (
        "filter (unique ~50 % range on d) then a histogram on the derived handle, then "
        "evict: the dataset-mutating path beside the read path"
    )

    def unit(self, session: Session, index: int) -> Unit:
        unit = Unit(index, "", time.perf_counter())
        unit.predicate = zoom_predicate(session, index)
        ack = session.request(
            unit, session.conn, "filter", session.handle, {"predicate": unit.predicate}
        )
        if ack.error:
            unit.ended = time.perf_counter()
            return unit
        derived = ack.terminal.message["payload"]["handle"]
        # The bound is fixed: the derived dataset is what is new.
        session.sketch(unit, chart_spec("histogram", session, 0), derived)
        session.request(unit, session.conn, "evict", derived)
        unit.ended = time.perf_counter()
        return unit


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (ChartScan(), TableScroll(), WideResult(), WarmRepeat(), ColdOpen(), ZoomFilter())
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def expected_rows(dataset: DataSet, predicate: dict | None) -> int:
    """Row count the unit's sketch must account for, computed with numpy
    alone (independent of the program's own filter code)."""
    if predicate is None:
        return dataset.rows
    lo, hi = predicate["value"]
    values = dataset.table.column(predicate["column"]).data
    with np.errstate(invalid="ignore"):
        return int(np.count_nonzero((values >= lo) & (values <= hi)))


def structural_error(unit: Unit, rows: int) -> str | None:
    """Why this unit's terminal reply is wrong, or ``None``.

    Every terminal must be ``complete`` at progress 1.0, and its payload
    must account for every row of the dataset it ran on.
    """
    if unit.error:
        return unit.error
    if not any(e.method == "sketch" for e in unit.exchanges):
        return "unit ran no sketch"
    message = unit.sketch.terminal.message
    if message.get("kind") != "complete" or message.get("progress") != 1.0:
        return f"terminal was {message.get('kind')} at progress {message.get('progress')}"
    payload = unit.payload or {}
    kind = payload.get("type")
    spec = unit.spec or {}
    if kind == "histogram":
        total = sum(payload["counts"]) + payload["missing"] + payload["outOfRange"]
        if total != rows or len(payload["counts"]) != bucket_count(spec["buckets"]):
            return f"histogram accounts for {total} of {rows} rows"
    elif kind == "stacked":
        total = sum(payload["barCounts"]) + payload["missing"] + payload["outOfRange"]
        if total != rows:
            return f"stacked histogram accounts for {total} of {rows} rows"
    elif kind == "heatmap":
        counts = payload["counts"]
        shape = (len(counts), len(counts[0]))
        want = (bucket_count(spec["xBuckets"]), bucket_count(spec["yBuckets"]))
        if shape != want or payload["sampledRows"] != rows:
            return f"heatmap is {shape} over {payload['sampledRows']} rows, want {want} over {rows}"
    elif kind == "trellisHeatmap":
        panes = len(payload["panes"])
        if panes != bucket_count(spec["groupBuckets"]) or payload["sampledRows"] != rows:
            return f"trellis has {panes} panes over {payload['sampledRows']} rows"
    elif kind == "frequencies":
        if payload["scanned"] != rows:
            return f"heavy hitters scanned {payload['scanned']} of {rows} rows"
    elif kind == "distinct":
        if not payload["registers"] or not payload["estimate"] > 0:
            return "distinct count is empty"
    elif kind == "nextK":
        if payload["scanned"] != rows or len(payload["rows"]) != len(payload["counts"]):
            return f"nextK scanned {payload['scanned']} of {rows} rows"
    else:
        return f"unexpected payload type {kind!r}"
    return None


def settle(unit: Unit, rows: int, keep_payload: bool) -> None:
    """Off the clock, right after a unit: check it, then drop the reply
    payloads (a wide reply is ~2 MB of Python objects) unless the unit is
    in the oracle's sample."""
    unit.error = structural_error(unit, rows)
    for exchange in unit.exchanges:
        for reply in exchange.replies:
            reply.message.pop("payload", None)
    unit.sampled = keep_payload
    if not keep_payload:
        unit.payload = None


def canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


class Oracle:
    """The reference answer: the same spec through ``LocalDataSet`` on the
    driver's own copy of the table, off the clock."""

    def __init__(self, dataset: DataSet):
        self.dataset = dataset
        self._answers: dict[str, str] = {}

    def mismatch(self, unit: Unit) -> str | None:
        from repro.engine.dataset import FilterMap
        from repro.engine.local import LocalDataSet
        from repro.engine.rpc import predicate_from_json, sketch_from_json, summary_to_json

        key = canonical([unit.predicate, unit.spec])
        if key not in self._answers:
            local = LocalDataSet(self.dataset.table)
            if unit.predicate is not None:
                local = local.map(FilterMap(predicate_from_json(unit.predicate)))
            summary = local.sketch(sketch_from_json(unit.spec))
            self._answers[key] = canonical(summary_to_json(summary))
        if canonical(unit.payload) != self._answers[key]:
            return f"unit {unit.index} ({unit.family}) differs from the LocalDataSet reference"
        return None

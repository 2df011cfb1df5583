"""Per-layer metrics of a traced run.

Three sources, none of them inside the program:

* the **records** of the traced run's own units (driver timestamps, reply
  ``profile`` and ``cache`` envelopes, bytes and frames off the socket);
* a **probe** of the live stack after the timed phase — the operations
  this workload's units do not perform (a handshake, a load, a filter, a
  unit of each sketch family), so that every layer metric is measured on
  every workload — plus what the gateway's stats and traces endpoints
  report;
* **replays** in the driver, after the stack is gone, of each layer's
  public functions on the workload's own requests, replies and shards.

A layer's metric is the median over every sample of that operation in
the traced run after warm-up: the timed units' and the probe's alike.
The engine's stage times are taken from the sketches that reached the
engine; on ``warm_repeat`` none of the timed ones do, so there they come
from the set-up computations that filled the cache.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

from data import SHARDS
from measure import SelfCheckFailed, kind_p50, metric
from spans import Recorder, attributed_share, unit_spans
from workloads import (
    CHART_FAMILIES,
    PAGE_ROWS,
    SORT_ORDERS,
    Unit,
    chart_spec,
    settle,
    zoom_predicate,
)

PROBE_INDEX = 1_000_000  # unit indices no workload reaches
PROBE_UNITS_PER_FAMILY = 2
GATEWAY_FAMILIES = (*CHART_FAMILIES, "nextK")
TRACE_SAMPLE = 10  # units whose server-recorded spans are fetched
REPLAY_PAYLOADS = 5
REPLAY_REPEATS = 5
#: Unit of a replayed metric, by the suffix of its name.
REPLAY_UNITS = {
    "_us_per_kb": "us/KB", "_us": "us", "_ms_per_shard": "ms", "ns_per_row": "ns/row",
    "bytes_per_row": "B/row", "mb_per_s": "MB/s", "summary_bytes": "B",
}


def _ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3


class Probe:
    """What is asked of the live traced stack once the timed phase is over."""

    def __init__(self, run, tmp: str):
        session = run.sessions[0]
        stack = run.stack
        self.recorder = Recorder()
        self.units: list[Unit] = []
        with stack.http() as http:
            #: Scheduler counters as the timed phase left them.
            self.scheduler = http.stats()["scheduler"]
            self.health_seconds = []
            for _ in range(20):
                started = time.perf_counter()
                http.health()
                self.health_seconds.append(time.perf_counter() - started)
            # Server clocks are wall-clock; the driver's is perf_counter.
            self.clock_offset = time.time() - time.perf_counter()
            self.server_spans = {}
            timed = [u for u in run.timed if u.trace_id and u.error is None]
            step = max(1, len(timed) // TRACE_SAMPLE)
            for unit in timed[::step][:TRACE_SAMPLE]:
                self.server_spans[unit.trace_id] = http.traces(unit.trace_id)["spans"]

        self.handshake_seconds = []
        for _ in range(5):
            conn = stack.connect()
            self.handshake_seconds.append(conn.handshake_seconds)
            conn.close()

        index = PROBE_INDEX
        for n in range(3):
            unit = Unit(index + n, "probe:load", time.perf_counter())
            alias = session.dataset.alias(os.path.join(tmp, f"probe-alias-{n}"))
            handle = session.load(unit, session.conn, alias)
            session.request(unit, session.conn, "evict", handle)
            unit.ended = time.perf_counter()
            self.units.append(unit)
        for n in range(3):
            unit = Unit(index + n, "probe:filter", time.perf_counter())
            ack = session.request(unit, session.conn, "filter", session.handle,
                                  {"predicate": zoom_predicate(session, index + n)})
            session.request(unit, session.conn, "evict",
                            ack.terminal.message["payload"]["handle"])
            unit.ended = time.perf_counter()
            self.units.append(unit)
        ran = {u.family for u in run.timed}
        for family in GATEWAY_FAMILIES:
            if family in ran:
                continue
            for n in range(PROBE_UNITS_PER_FAMILY):
                unit = Unit(index + n, "", time.perf_counter())
                if family == "nextK":
                    spec = {"type": "nextK", "order": SORT_ORDERS[0],
                            "k": PAGE_ROWS + 100 + n}
                else:
                    spec = chart_spec(family, session, index + n)
                session.sketch(unit, spec)
                settle(unit, session.dataset.rows, keep_payload=False)
                self.units.append(unit)
        for unit in self.units:
            if unit.error:
                raise RuntimeError(f"layer probe failed: {unit.error}")


# ---------------------------------------------------------------------------
# Replays: each layer's public functions, in the driver
# ---------------------------------------------------------------------------
def _timed(recorder: Recorder, name: str, fn, repeats: int = REPLAY_REPEATS) -> float:
    """Median seconds of ``fn()`` over ``repeats`` calls, each one a span."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        with recorder.span(name):
            fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def replay_codecs(recorder: Recorder, units: list) -> dict[str, float]:
    """The wire, gateway and client codecs on this workload's own
    terminal replies and requests (the oracle's sample kept them)."""
    from repro.engine.rpc import (
        RpcReply,
        RpcRequest,
        sketch_from_json,
        summary_from_bytes,
        summary_from_json,
        summary_to_bytes,
        summary_to_json,
    )
    from repro.gateway import websocket

    kept = [u for u in units if u.sampled and u.payload is not None and u.error is None]
    by_spec = {json.dumps(u.spec, sort_keys=True): u for u in kept}
    samples: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    for unit in list(by_spec.values())[:REPLAY_PAYLOADS]:
        summary = summary_from_json(unit.payload)
        blob = summary_to_bytes(summary)
        add("wire.summary_binary_encode_us",
            _timed(recorder, "wire.summary_to_bytes", lambda: summary_to_bytes(summary)) * 1e6)
        add("wire.summary_binary_decode_us",
            _timed(recorder, "wire.summary_from_bytes", lambda: summary_from_bytes(blob)) * 1e6)
        add("wire.summary_json_encode_us",
            _timed(recorder, "wire.summary_to_json",
                   lambda: json.dumps(summary_to_json(summary))) * 1e6)
        request = json.dumps({"requestId": 1, "target": "obj-1", "method": "sketch",
                              "args": unit.sketch.args})
        add("wire.request_decode_us",
            _timed(recorder, "wire.request_decode",
                   lambda: sketch_from_json(RpcRequest.from_json(request).args["sketch"])) * 1e6)
        # The gateway's reply path, from its public pieces: envelope to
        # JSON and back to a message, message to text, text to frame.
        envelope = unit.sketch.terminal.message
        reply = RpcReply(1, "complete", payload=unit.payload, cache=envelope.get("cache"),
                         profile=envelope.get("profile"))
        message = dict(json.loads(reply.to_json()), type="reply", seq=1)
        text = json.dumps(message, sort_keys=True).encode("utf-8")
        kb = len(text) / 1024.0
        add("gateway.reply_json_us_per_kb",
            _timed(recorder, "gateway.reply_to_text",
                   lambda: json.dumps(dict(json.loads(reply.to_json()), type="reply", seq=1),
                                      sort_keys=True).encode("utf-8")) * 1e6 / kb)
        add("gateway.ws_encode_us_per_kb",
            _timed(recorder, "gateway.encode_frame",
                   lambda: websocket.encode_frame(websocket.OP_TEXT, text)) * 1e6 / kb)
        add("client.decode_us_per_kb",
            _timed(recorder, "client.json_decode", lambda: json.loads(text)) * 1e6 / kb)
    return {name: statistics.median(values) for name, values in samples.items()}


def replay_sketches(recorder: Recorder, dataset, session) -> dict[str, float]:
    """Single-thread ``summarize`` over each shard and pairwise ``merge``,
    for the nine sketch families, on this workload's dataset."""
    from repro.engine.rpc import sketch_from_json, summary_to_bytes

    specs = {family: chart_spec(family, session, 0) for family in CHART_FAMILIES}
    specs["nextK"] = {"type": "nextK", "order": SORT_ORDERS[0], "k": PAGE_ROWS}
    specs["quantile"] = {"type": "quantile", "order": SORT_ORDERS[0], "rate": 0.01,
                         "seed": session.seed}
    specs["find"] = {
        "type": "find", "order": SORT_ORDERS[1],
        "match": {"type": "match", "column": "s", "pattern": "o", "mode": "substring"},
    }
    shards = dataset.table.split(SHARDS)
    rows = sum(shard.num_rows for shard in shards)
    out = {}
    for family, spec in specs.items():
        sketch = sketch_from_json(spec)
        summaries = []
        started = time.perf_counter()
        with recorder.span(f"sketches.{family}.summarize", shards=len(shards)):
            for shard in shards:
                summaries.append(sketch.summarize(shard))
        out[f"sketches.{family}.ns_per_row"] = (time.perf_counter() - started) / rows * 1e9
        merges = []
        merged = summaries[0]
        for summary in summaries[1:]:
            started = time.perf_counter()
            with recorder.span(f"sketches.{family}.merge"):
                merged = sketch.merge(merged, summary)
            merges.append(time.perf_counter() - started)
        out[f"sketches.{family}.merge_us"] = statistics.median(merges) * 1e6
        out[f"sketches.{family}.summary_bytes"] = float(len(summary_to_bytes(merged)))
    return out


def replay_storage(recorder: Recorder, dataset, session) -> dict[str, float]:
    """Open each shard as the workers do (mmap), touch one column twice,
    and filter one shard."""
    from repro.engine.dataset import FilterMap
    from repro.engine.rpc import predicate_from_json
    from repro.storage import columnar

    opens, touches = [], []
    table = None
    for path in dataset.shard_paths():
        started = time.perf_counter()
        with recorder.span("storage.read_table"):
            table = columnar.read_table(path, use_mmap=True)
        opens.append(time.perf_counter() - started)
        passes = []
        for _ in range(2):
            started = time.perf_counter()
            with recorder.span("storage.column_pass"):
                float(np.nansum(table.column("d").data))
            passes.append(time.perf_counter() - started)
        touches.append(passes[0] - passes[1])
    table_map = FilterMap(predicate_from_json(zoom_predicate(session, 0)))
    filter_seconds = _timed(recorder, "table.filter", lambda: table_map.apply(table))
    return {
        "storage.open_ms_per_shard": _ms(opens),
        "storage.first_touch_ms_per_shard": _ms(touches),
        "storage.bytes_per_row": dataset.bytes_written / dataset.rows,
        "storage.write_mb_per_s": dataset.bytes_written / 1e6 / dataset.write_seconds,
        "table.filter_ns_per_row": filter_seconds / table.num_rows * 1e9,
    }


# ---------------------------------------------------------------------------
# The layer table
# ---------------------------------------------------------------------------
def layer_metrics(run, plain, probe: Probe, dataset, smoke: bool) -> dict:
    timed = [u for u in run.timed if u.error is None]
    everything = timed + probe.units
    openings = [s.opening for s in run.sessions]
    out: dict[str, dict] = {}

    def put(name: str, value: float, unit: str, n: int) -> None:
        out[name] = metric(float(value), unit, n)

    def put_ms(name: str, seconds: list[float]) -> None:
        put(name, _ms(seconds), "ms", len(seconds))

    def exchanges(method: str, units=None) -> list:
        return [e for u in (everything if units is None else units)
                for e in u.exchanges if e.method == method]

    sketches = [u.sketch for u in timed]
    profiles = [e.terminal.message["profile"] for e in sketches]
    # Sketches that reached the engine: timed ones, else the set-up's.
    engine = [p for p in profiles if "fanoutSeconds" in p] or [
        e.terminal.message["profile"] for u in run.preamble + probe.units
        for e in u.exchanges if e.method == "sketch"
        and "fanoutSeconds" in e.terminal.message.get("profile", {})
    ]

    # gateway
    put_ms("gateway.handshake_ms_p50",
           [u.handshake_seconds for u in everything + openings if u.handshake_seconds is not None]
           + probe.handshake_seconds)
    put_ms("gateway.overhead_ms_p50",
           [e.seconds - p["totalSeconds"] for e, p in zip(sketches, profiles)])
    put("gateway.ws_kb_per_unit",
        sum(e.wire_bytes for u in timed for e in u.exchanges) / 1024.0 / len(timed), "KB",
        len(timed))
    put("gateway.frames_per_unit",
        sum(len(e.replies) for u in timed for e in u.exchanges) / len(timed), "count", len(timed))
    put_ms("gateway.http_health_ms_p50", probe.health_seconds)

    # service
    put_ms("service.queue_wait_ms_p50", [p["queueWaitSeconds"] for p in profiles])
    put("service.peak_queued", probe.scheduler["peakQueued"], "count", 1)
    put("service.preempted", probe.scheduler["preempted"], "count", 1)
    put_ms("service.load_ms_p50", [e.seconds for e in exchanges("load", everything + openings)])

    # engine
    put_ms("engine.ensure_ms_p50", [p["ensureSeconds"] for p in engine])
    put_ms("engine.fanout_ms_p50", [p["fanoutSeconds"] for p in engine])
    put_ms("engine.straggler_ms_p50", [p["stragglerSeconds"] for p in engine])
    put_ms("engine.fanout_tail_ms_p50",
           [p["fanoutSeconds"] - p["stragglerSeconds"] for p in engine])
    put_ms("engine.first_emit_ms_p50",
           [min(w["firstEmitSeconds"] for w in p["workers"] if "firstEmitSeconds" in w)
            for p in engine])
    put_ms("engine.merge_ms_p50", [p["mergeSeconds"] for p in engine])
    put_ms("engine.derive_ms_p50", [e.seconds for e in exchanges("filter")])
    put("engine.partials_per_unit",
        sum(r.message.get("kind") == "partial" for e in sketches for r in e.replies)
        / len(timed), "count", len(timed))
    put("engine.stolen_slices", sum(p.get("stolenSlices", 0) for p in profiles), "count",
        len(profiles))
    put("engine.cache_hit_share",
        sum(bool(e.terminal.message["cache"]["hit"]) for e in sketches) / len(sketches),
        "share", len(sketches))
    put("engine.worker_cache_hit_share",
        sum(e.terminal.message["cache"]["workerHits"] > 0 for e in sketches) / len(sketches),
        "share", len(sketches))

    # wire, gateway and client codecs; storage; sketches; table
    put("wire.worker_kb_per_unit",
        statistics.mean(sum(w["bytes"] for w in p["workers"]) for p in engine) / 1024.0, "KB",
        len(engine))
    session = run.sessions[0]
    replays = {
        **replay_codecs(probe.recorder, run.timed),
        **replay_storage(probe.recorder, dataset, session),
        **replay_sketches(probe.recorder, dataset, session),
    }
    for name, value in replays.items():
        suffix = next(s for s in REPLAY_UNITS if name.endswith(s))
        put(name, value, REPLAY_UNITS[suffix], REPLAY_REPEATS if "_us" in suffix else SHARDS)
    for family in GATEWAY_FAMILIES:
        seconds = [u.complete_seconds for u in everything if u.family == family]
        put_ms(f"sketches.{family}.complete_ms_p50", seconds)

    # obs and budget
    traced_p50 = kind_p50(timed, lambda u: u.complete_seconds)
    plain_p50 = kind_p50([u for u in plain.timed if u.error is None],
                         lambda u: u.complete_seconds)
    put("obs.trace_overhead_ratio", traced_p50 / plain_p50, "ratio", len(timed))
    driver_spans = statistics.mean(len(unit_spans(u)) for u in timed[:200])
    server_spans = statistics.mean(len(s) for s in probe.server_spans.values())
    put("obs.spans_per_unit", driver_spans + server_spans, "count", len(probe.server_spans))
    median_unit = min(timed, key=lambda u: abs(u.complete_seconds - traced_p50))
    put("budget.attributed_share", attributed_share(median_unit), "share", 1)

    # Self-checks that need the profile (README, "Self-checks").
    share = out["engine.fanout_ms_p50"]["value"] / (traced_p50 * 1e3)
    timed_fanout = sum(p.get("fanoutSeconds", 0.0) for p in profiles)
    timed_share = timed_fanout / sum(u.complete_seconds for u in timed)
    name = run.workload.name
    if not smoke:
        if name in ("chart_scan", "table_scroll") and share < 0.5:
            raise SelfCheckFailed(f"{name}: fan-out is only {share:.2f} of complete")
        if name == "warm_repeat" and timed_share > 0.05:
            raise SelfCheckFailed(f"warm_repeat: fan-out is {timed_share:.2f} of complete")
    return out

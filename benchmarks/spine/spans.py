"""Spans: built from the driver's records, written out for Perfetto.

The driver keeps timestamps, not spans, while it measures; this module
turns one unit's records into the span tree

    unit
      connect                      (cold_open: the WebSocket handshake)
      request:<method>             (one per exchange; only a sketch has waits)
        send                       request serialised and written
        wait_first                 until the first reply's last byte
          queue_wait|ensure|fanout   server stages, from the reply profile
            merge
        decode                     reply JSON decoded
        wait_terminal              until the terminal reply's last byte
          ...server stages, continued
        decode

Spans of one unit share its trace id.  A span's *self time* is its
duration minus what its children cover.  The server stages are not
measured here: they are the durations the program reports in the reply's
``profile``, laid end to end so that the profile's end meets the arrival
of the terminal reply, and clipped to the waits they fall in (their
placement is an estimate; their durations are the program's own).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Which layer a span's self time belongs to.  ``wait_*`` self time is
#: what no server stage accounts for: gateway framing, the scheduler
#: hand-off, loopback.  ``fanout`` self time is the root waiting for its
#: workers: worker wire, shard reads and leaf kernels together.
LAYER_OF = {
    "unit": "driver",
    "connect": "gateway",
    "send": "client",
    "decode": "client",
    "wait_first": "gateway",
    "wait_terminal": "gateway",
    "queue_wait": "service",
    "ensure": "engine",
    "fanout": "workers",
    "merge": "engine",
    "request:load": "service",
    "request:evict": "service",
    "request:filter": "engine",
    "request:sketch": "driver",
}
#: Self time under these names is waiting nobody has explained yet.
UNATTRIBUTED = ("unit", "wait_first", "wait_terminal", "request:sketch")


@dataclass
class Span:
    name: str
    start: float
    end: float
    trace_id: str
    span_id: str
    parent_id: str | None
    track: str = "driver"
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans around the replays of each layer's functions."""

    def __init__(self):
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, **args):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                Span(name, started, time.perf_counter(), "replay",
                     f"replay-{len(self.spans)}", None, "replay", args)
            )


def _server_stages(exchange) -> list[tuple[str, float, float]]:
    """(name, start, end) of the profile's stages on the driver's clock."""
    profile = exchange.terminal.message.get("profile")
    if not profile:
        return []
    end = exchange.terminal.arrived
    begin = end - profile["totalSeconds"]
    stages = [("queue_wait", begin - profile["queueWaitSeconds"], begin)]
    if "fanoutSeconds" in profile:  # absent when the root cache answered
        ensured = begin + profile["ensureSeconds"]
        fanned = ensured + profile["fanoutSeconds"]
        stages.append(("ensure", begin, ensured))
        stages.append(("fanout", ensured, fanned))
        stages.append(("merge", fanned - profile["mergeSeconds"], fanned))
    return stages


def unit_spans(unit, lane: int = 0) -> list[Span]:
    trace_id = unit.trace_id or f"unit-{lane}-{unit.index}"
    ids = iter(range(1_000_000))

    def make(name, start, end, parent, track="driver", **args) -> Span:
        span = Span(name, start, end, trace_id, f"{trace_id}.{next(ids)}",
                    parent.span_id if parent else None, track, args)
        out.append(span)
        return span

    out: list[Span] = []
    last = max([unit.ended] + [e.terminal.decoded for e in unit.exchanges])
    root = make("unit", unit.started, last, None, index=unit.index, family=unit.family,
                lane=lane)
    if unit.handshake_seconds is not None:
        make("connect", unit.started, unit.started + unit.handshake_seconds, root)
    for exchange in unit.exchanges:
        request = make(f"request:{exchange.method}", exchange.started,
                       exchange.terminal.decoded, root, spanId=exchange.span_id)
        make("send", exchange.started, exchange.sent, request)
        if exchange.method != "sketch":
            # No profile to split the wait with: it stays the request's
            # own time, which LAYER_OF gives to the method's layer.
            reply = exchange.terminal
            make("decode", reply.arrived, reply.decoded, request, bytes=reply.wire_bytes)
            continue
        stages = _server_stages(exchange)
        cursor = exchange.sent
        for n, reply in enumerate(exchange.replies):
            wait = make("wait_first" if n == 0 else "wait_terminal", cursor, reply.arrived,
                        request)
            fanout = None
            for name, start, end in stages:
                start, end = max(start, wait.start), min(end, wait.end)
                if end <= start:
                    continue
                parent = fanout if name == "merge" and fanout else wait
                piece = make(name, start, end, parent, "server (from profile)",
                             placement="estimated")
                if name == "fanout":
                    fanout = piece
            make("decode", reply.arrived, reply.decoded, request, bytes=reply.wire_bytes,
                 kind=reply.message.get("kind"))
            cursor = reply.decoded
    return out


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per span id: duration minus the union of its children."""
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.span_id] = span.seconds - covered
    return out


def layer_seconds(unit) -> dict[str, float]:
    """Self time of one unit's spans, summed by span name, for the spans
    that end by the unit's terminal reply."""
    spans = [s for s in unit_spans(unit) if s.end <= unit.finished + 1e-9 or s.name == "unit"]
    own = self_seconds(spans)
    out: dict[str, float] = {}
    for span in spans:
        if span.name == "unit":
            continue  # its extent runs past the terminal; gaps are reported as the rest
        out[span.name] = out.get(span.name, 0.0) + own[span.span_id]
    return out


def attributed_share(unit) -> float:
    """Share of the unit's ``complete`` that named work accounts for."""
    by_name = layer_seconds(unit)
    named = sum(v for k, v in by_name.items() if k not in UNATTRIBUTED)
    return named / unit.complete_seconds


# ---------------------------------------------------------------------------
# Perfetto / chrome://tracing output
# ---------------------------------------------------------------------------
TRACKS = {"driver": 1, "server (from profile)": 2, "server (recorded)": 3, "replay": 4}


def _event(span: Span, epoch: float, tid: int) -> dict:
    return {
        "name": span.name,
        "cat": LAYER_OF.get(span.name, span.track),
        "ph": "X",
        "ts": (span.start - epoch) * 1e6,
        "dur": max(span.seconds, 0.0) * 1e6,
        "pid": TRACKS[span.track],
        "tid": tid,
        "args": {"traceId": span.trace_id, "spanId": span.span_id,
                 "parentId": span.parent_id, **span.args},
    }


def write_trace(path: str, run, probe) -> int:
    """One Chrome-trace-event JSON file (Perfetto loads it): the driver's
    spans per connection, the profile's stages, the spans the server
    itself recorded for the sampled units, and the replays."""
    epoch = run.sessions[0].opening.started
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}
        for name, pid in TRACKS.items()
    ]
    for lane, units in enumerate(run.units):
        for unit in [run.sessions[lane].opening, *units]:
            events.extend(_event(s, epoch, lane) for s in unit_spans(unit, lane))
    for unit in run.preamble + probe.units:
        events.extend(_event(s, epoch, len(run.units)) for s in unit_spans(unit))
    # The server stamps wall-clock starts; the driver's clock is
    # perf_counter.  ``probe.clock_offset`` maps one onto the other.
    for spans in probe.server_spans.values():
        for record in spans:
            start = record["start"] - probe.clock_offset
            events.append({
                "name": record["name"], "cat": record.get("service", "server"), "ph": "X",
                "ts": (start - epoch) * 1e6, "dur": record["duration"] * 1e6,
                "pid": TRACKS["server (recorded)"], "tid": record.get("thread", 0),
                "args": {"traceId": record["traceId"], "spanId": record["spanId"],
                         "parentId": record.get("parentId"), **record.get("attrs", {})},
            })
    events.extend(_event(s, epoch, 0) for s in probe.recorder.spans)
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
    return len(events)

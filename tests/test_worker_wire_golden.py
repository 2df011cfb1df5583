"""The root↔worker wire, pinned frame by frame.

``tests/fixtures/worker_wire_golden.json`` is the transcript of one
scripted conversation between :class:`RemoteWorkerProxy` handles and two
in-thread :class:`WorkerServer` daemons over the seeded i/d/t/s table:
for every worker verb, the exact request frame the root emits and the
reply frame(s) the daemon answers — JSON header text (key order
included) plus the SHA-256 of the binary attachment.  Frames are taken
off the sockets by a recording relay, so neither end can drift without a
line here changing.  Process ids, ports and the scratch directory are
normalised; so are the few payload fields that depend on process-global
state (the metrics registry, the span ring buffer, cache statistics,
CPU time and page faults).

The fixture was generated at the commit *before* the verb-table refactor
(the parent of the commit adding this file) by running this file as a
script against that commit's ``src`` — with the five root-side calls
whose Python spelling changed (``configure`` taking version and members
explicitly, ``placement_info``, ``adopt_shards``, ``sweep_remote_caches``
and the steal ledger) spelled the old way; the two exchanges of the
steal (``a1.19.sketch``, ``a1.20.claimSlices``) were re-recorded when a
claim came to name its run instead of a request id, and only their
request headers changed.  The dataset verbs name their placement version
explicitly (the root names it; the proxy no longer stamps one), with the
values the proxy used to stamp, so every request replays byte for byte;
the ``placement`` and ``inventory`` replies were re-recorded when the
worker's report lost its ``rebalancing`` flag; the replies of
``a1.7.sketch`` and ``a1.8.sketch`` were re-recorded when a worker's last
summary came to ride the terminal ``complete`` (two frames became one).
When count grids came to travel at the narrowest width that holds them,
the attachments (and ``bytes``) of ``a1.7.sketch``, ``a1.8.sketch`` and
``b1.1.stolenPartial`` were re-recorded; so was the ``bytes`` of the one
hot entry in the ``a1.10.exportHotEntries`` reply and the
``a1.11.importEntries`` request that sends it back, then the memory the
memo held for it (55 → 72).  When the memo came to hold each entry as
its tagged binary summary, those two ``bytes`` were re-recorded again
(72 → 23): still what the memo holds, which is now the wire form.
When ``ensure`` became the one verb that materializes a dataset, the
``load``, ``rows`` and ``schema`` exchanges became ``ensure`` exchanges
at the same request ids — ``a1.3.ensure`` (a load: it reads the
source), ``a1.5.ensure`` (no version named), ``a1.6.ensure`` (an empty
lineage over resident shards) and the stale root's ``a1.23.ensure`` —
and the reply of ``a1.4.ensure`` was re-recorded: it carries the rows
and schema beside the shard count.
The reply of ``a1.15.metricsSnapshot`` was re-recorded when the daemon's
snapshot gained its process's ``cpuSeconds`` and ``minorFaults``.
When ``metricsSnapshot`` became each daemon's one report, the ``stats``
and ``cacheStats`` exchanges became ``a1.12.placement`` and
``a1.13.inventory`` at the same request ids, and the reply of
``a1.15.metricsSnapshot`` was re-recorded: it carries the shard store
and the memo whole (``store``, ``memo``) in place of ``datasets`` and
the derived hit rates and memo bytes.
Regenerate, only when the wire is *meant* to change, with::

    PYTHONPATH=src python tests/test_worker_wire_golden.py
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest

import repro.service.slow  # noqa: F401 — the "slow" wire type
from repro.core.framing import FrameError, read_frame_blocking, write_frame
from repro.engine.placement import format_address
from repro.engine.progress import CancellationToken
from repro.engine.redo_log import LoadOp
from repro.engine.remote import WorkerServer, dial_worker
from repro.engine.rpc import RpcRequest, sketch_from_json, split_envelope
from repro.engine.verbs import WIRE_VERBS
from repro.errors import HillviewError
from repro.storage.columnar import write_dataset
from repro.storage.loader import ColumnarDatasetSource
from test_wire_golden import canonical_shards

GOLDEN = Path(__file__).parent / "fixtures" / "worker_wire_golden.json"
#: Empty only while (re)generating; the coverage test below then fails.
PINNED: dict[str, dict] = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

DATASET = "ds-golden"
HIST = {
    "type": "histogram",
    "column": "d",
    "buckets": {"type": "double", "min": -60, "max": 60, "count": 6},
}
SLOW = {"type": "slow", "perShardSeconds": 0.15, "inner": HIST}

#: Payload fields whose value depends on process-global state (everything
#: else this process ran before) or on timing (``inflight``: the previous
#: request's handler may not have left its ``finally`` yet), not on the
#: conversation.
_VOLATILE = {
    "pid", "registry", "spansBuffered", "spans", "store", "memo",
    "inflight", "cpuSeconds", "minorFaults",
}


class _Relay:
    """A TCP relay in front of one daemon that records every frame."""

    def __init__(self, backend: tuple[str, int], label: str, frames: list):
        self._backend = backend
        self._label = label
        self._frames = frames
        self._connections = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()[:2]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                near, _ = self._listener.accept()
            except OSError:
                return
            far = socket.create_connection(self._backend)
            self._connections += 1
            conn = f"{self._label}{self._connections}"
            for source, sink, direction in ((near, far, ">"), (far, near, "<")):
                threading.Thread(
                    target=self._pump,
                    args=(source, sink, conn, direction),
                    daemon=True,
                ).start()

    def _pump(self, source, sink, conn: str, direction: str) -> None:
        rfile, wfile = source.makefile("rb"), sink.makefile("wb")
        try:
            while (frame := read_frame_blocking(rfile, error=FrameError)) is not None:
                self._frames.append((conn, direction, frame))
                write_frame(wfile, frame)
        except (FrameError, OSError, ValueError):
            pass
        finally:
            for sock in (source, sink):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def close(self) -> None:
        self._listener.close()


def _normalise(value, replacements: dict[str, str]):
    if isinstance(value, dict):
        return {
            key: f"<{key}>" if key in _VOLATILE else _normalise(item, replacements)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_normalise(item, replacements) for item in value]
    if isinstance(value, str):
        for old, new in replacements.items():
            value = value.replace(old, new)
    return value


def _pin(frame: bytes, replacements: dict[str, str]) -> dict:
    header, attachment = split_envelope(frame)
    pinned = {"header": json.dumps(_normalise(json.loads(header), replacements))}
    if attachment is not None:
        pinned["attachment"] = hashlib.sha256(attachment).hexdigest()
    return pinned


def _start_daemon(name: str) -> tuple[WorkerServer, tuple[str, int]]:
    server = WorkerServer(name=name, cores=1, cache_sweep_interval_seconds=0)
    bound = threading.Event()
    address: list = []

    def on_bound(where) -> None:
        address.append(where)
        bound.set()

    threading.Thread(
        target=server.run_listen,
        kwargs={"host": "127.0.0.1", "port": 0, "on_bound": on_bound},
        daemon=True,
    ).start()
    assert bound.wait(10.0)
    return server, address[0]


def record_transcript() -> dict[str, dict]:
    """Run the scripted conversation; return ``{exchange: pinned frames}``
    keyed ``<connection>.<request id>.<method>``."""
    frames: list[tuple[str, str, bytes]] = []
    #: Exchanges whose reply *stream* depends on thread timing (a sketch
    #: being robbed or cancelled mid-flight): only the request is pinned.
    request_only: set[str] = set()
    with tempfile.TemporaryDirectory() as scratch:
        directory = str(Path(scratch) / "golden")
        write_dataset(canonical_shards(rows=600, shards=6), directory)
        source = ColumnarDatasetSource(directory)
        lineage = [LoadOp(DATASET, source)]
        server_a, backend_a = _start_daemon("golden-a")
        server_b, backend_b = _start_daemon("golden-b")
        relay_a = _Relay(backend_a, "a", frames)
        relay_b = _Relay(backend_b, "b", frames)
        member_a = format_address(relay_a.address)
        member_b = format_address(relay_b.address)
        replacements = {scratch: "<scratch>", member_a: "<a>", member_b: "<b>"}
        a = dial_worker(*relay_a.address)
        b = dial_worker(*relay_b.address)
        try:
            a.placement_info()  # unplaced
            a.configure(0, 1, 3600.0, 0, [member_a])
            a.ensure(DATASET, lineage, 0)  # a load: reads the source
            a.ensure(DATASET, lineage, 0)  # resident
            a.ensure(DATASET, lineage)  # no version named
            a.ensure(DATASET, [], 0)  # resident: no lineage needed
            sketch = sketch_from_json(HIST)
            list(a.sketch_partials(DATASET, sketch, lineage, version=0))
            list(a.sketch_partials(DATASET, sketch, lineage, version=0))  # memo hit
            a.inventory()
            entries = a.export_hot_entries(1 << 20)
            a.import_entries(entries)
            a.placement_info()
            a.inventory()
            a.sweep_remote_caches()
            a.metrics_snapshot()
            a.trace_dump()
            a.trace_dump("0" * 32)
            a.ping()

            # Work stealing: rob the slow run of its two trailing shards
            # and have the idle joiner summarize them.
            slow = sketch_from_json(SLOW)
            stream = a.sketch_partials(
                DATASET, slow, lineage, run="golden-run", version=0
            )
            robbed = threading.Thread(target=lambda: list(stream), daemon=True)
            robbed.start()
            deadline = time.monotonic() + 10.0
            while "golden-run" not in server_a.worker._runs:  # registered
                assert time.monotonic() < deadline, "the robbed run never started"
                time.sleep(0.005)
            parcels = a.claim_slices("golden-run", 2)
            b.summarize_stolen(sketch, parcels)
            robbed.join(30.0)
            request_only.add("sketch#3")

            # Cancellation.
            token = CancellationToken()
            token.cancel()
            list(a.sketch_partials(DATASET, slow, lineage, token, version=0))
            request_only.add("sketch#4")

            # Errors: a stale root, a conflicting slice, an unknown verb.
            for call in (
                lambda: a.ensure(DATASET, lineage, 7),
                lambda: a.configure(1, 2, 3600.0, 0, [member_a]),
                lambda: a.channel.call("frobnicate", {}),
            ):
                with pytest.raises(HillviewError):
                    call()

            # Grow 1 -> 2: the odd shards move a -> b, both commit.
            members = [member_a, member_b]
            a.transfer_shards(
                DATASET, [{"target": member_b, "globalIndices": [1, 3, 5]}], 1
            )
            a.rebalance_commit(1, 0, 2, members, {DATASET: 6})
            b.rebalance_commit(1, 1, 2, members, {DATASET: 6})
            a.placement_info()
            b.inventory()
            # Shrink back: b retires with a farewell naming its successor.
            b.retire(2, [member_a])
            b.placement_info()
            a.evict(DATASET, 1)
            a.crash()
            b.channel.call("shutdown", {})
        finally:
            a.close()
            b.close()
            relay_a.close()
            relay_b.close()
            server_a.begin_drain()
            server_b.begin_drain()

    exchanges: dict[tuple[str, int], dict] = {}
    seen: dict[str, int] = {}
    for conn, direction, frame in frames:
        header = json.loads(split_envelope(frame)[0])
        key = (conn, int(header["requestId"]))
        if direction == ">":
            method = RpcRequest.from_frame(frame).method
            seen[method] = seen.get(method, 0) + 1
            exchanges[key] = {
                "name": f"{conn}.{key[1]}.{method}",
                "occurrence": f"{method}#{seen[method]}",
                "request": _pin(frame, replacements),
                "replies": [],
            }
        else:
            exchanges[key]["replies"].append(_pin(frame, replacements))
    transcript: dict[str, dict] = {}
    for exchange in exchanges.values():
        entry = {"request": exchange["request"]}
        if exchange["occurrence"] not in request_only:
            entry["replies"] = exchange["replies"]
        transcript[exchange["name"]] = entry
    return transcript


@pytest.fixture(scope="module")
def transcript() -> dict[str, dict]:
    # The memo-hit and prewarm exchanges need the memo tier on, whatever
    # CI leg this runs under; both switches are read per call.
    patch = pytest.MonkeyPatch()
    patch.delenv("REPRO_DISABLE_CACHES", raising=False)
    patch.delenv("REPRO_TRACE", raising=False)
    try:
        return record_transcript()
    finally:
        patch.undo()


def test_golden_covers_every_exchange_and_every_verb(transcript):
    assert sorted(transcript) == sorted(PINNED)
    methods = {re.sub(r"^\w+\.\d+\.", "", name) for name in PINNED}
    assert methods - {"frobnicate"} == {verb.wire for verb in WIRE_VERBS}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_worker_wire_unchanged(name, transcript):
    assert transcript[name] == PINNED[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_transcript(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

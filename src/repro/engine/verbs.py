"""The root↔worker wire, declared once.

Each row of :data:`WIRE_VERBS` is one verb: its wire name, the
:class:`~repro.engine.cluster.WorkerProtocol` method it calls, how each
argument and the reply convert to and from JSON (built from the codecs
:mod:`repro.engine.rpc` exports), and its flags.  Both ends of the wire
are *derived* from the row — :meth:`Verb.serve` is the daemon's dispatch,
:meth:`Verb.request` and :meth:`Verb.result` are the body of the proxy's
stub — so a verb cannot be spelled one way by the root and another by
the worker.  Arguments travel
positionally in the method's own parameter order (which is also the JSON
key order), and a parameter's Python default is what the worker uses
when the key is absent or null.

Rows without a method are connection-level (``hello``, ``cancel``,
``shutdown``); together with the streaming ``sketch`` they are the only
verbs with hand-written bodies in :mod:`repro.engine.remote`.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import Callable

from repro.core.serialization import Decoder, Encoder
from repro.core.wire import Kind
from repro.engine.cluster import Extent, StolenParcel, WorkerProtocol
from repro.engine.redo_log import LINEAGE
from repro.engine.rpc import (
    NO_PAYLOAD,
    ProtocolError,
    RpcReply,
    RpcRequest,
    sketch_from_json,
    sketch_to_json,
    summary_from_bytes,
    summary_to_bytes,
)
from repro.table.schema import ColumnDescription, Schema


# ---------------------------------------------------------------------------
# Kinds: the JSON conversions of one argument or reply value
# ---------------------------------------------------------------------------
def _same(value):
    return value


def _members(value) -> list | None:
    return [str(member) for member in value or []] or None


def _moves(value) -> list[dict]:
    return [
        {
            "target": str(move["target"]),
            "globalIndices": [int(g) for g in move.get("globalIndices") or []],
        }
        for move in value or []
    ]


def _object(*keys: str) -> Kind:
    """A JSON object passed through as is; the name documents its keys."""
    return Kind("{" + ", ".join(keys) + "}", _same, _same)


JSON = Kind("json", _same, _same)
INT = Kind("int", int, int)
COUNT = Kind("int", int, lambda value: int(value or 0))
FLOAT = Kind("float", float, float)
TEXT = Kind("string", _same, str)
MEMBERS = Kind("[host:port]", _same, _members)
MOVES = Kind("[{target, globalIndices}]", _same, _moves)
TOTALS = Kind(
    "{dataset: shards}",
    _same,
    lambda value: {str(k): int(v) for k, v in (value or {}).items()},
)
LIST = Kind("list", _same, lambda value: value if isinstance(value, list) else [])
SKETCH = Kind("sketch spec", sketch_to_json, sketch_from_json)
EXTENT = Kind(
    "{shards, rows, schema}",
    lambda extent: {
        "shards": extent.shards,
        "rows": extent.rows,
        "schema": (
            None
            if extent.schema is None
            else [column.to_json() for column in extent.schema]
        ),
    },
    lambda value: Extent(
        int(value["shards"]),
        int(value["rows"]),
        None
        if value.get("schema") is None
        else Schema(ColumnDescription.from_json(c) for c in value["schema"]),
    ),
)
DATASETS = Kind(
    "{dataset: {shards, loaded}}",
    _same,
    lambda value: {
        str(k): {"shards": int(v.get("shards", 0)), "loaded": bool(v.get("loaded"))}
        for k, v in (value or {}).items()
        if isinstance(v, dict)
    },
)


@dataclass(frozen=True)
class Blobs:
    """A list value whose items each own one binary payload: the JSON
    entries ride the header, the payloads one attachment (in order)."""

    name: str
    split: Callable  # value -> (entries, [bytes])
    join: Callable  # (entries, [bytes]) -> value

    def pack(self, value) -> tuple[list[dict], bytes | None]:
        entries, blobs = self.split(value)
        if not blobs:
            return entries, None
        enc = Encoder()
        enc.write_uvarint(len(blobs))
        for blob in blobs:
            enc.write_bytes(blob)
        return entries, enc.to_bytes()

    def unpack(self, entries, attachment: bytes | None, what: str):
        entries = entries or []
        blobs: list[bytes] = []
        if attachment is not None:
            dec = Decoder(attachment)
            blobs = [dec.read_bytes() for _ in range(dec.read_uvarint())]
        if len(blobs) != len(entries):
            raise ProtocolError(
                f"{what} attachment carries {len(blobs)} payloads "
                f"for {len(entries)} entries"
            )
        return self.join(entries, blobs)


def _split_parcels(parcels: "list[StolenParcel]"):
    from repro.storage.columnar import table_to_bytes

    entries, blobs = [], []
    for parcel in parcels:
        payload, shard_id = parcel.payload, parcel.shard_id
        if payload is None:  # still an object reference: serialize it now
            payload = table_to_bytes(parcel.resolve())
            shard_id = parcel.resolve().shard_id
        blobs.append(payload)
        entries.append({"globalIndex": parcel.global_index, "shardId": shard_id})
    return entries, blobs


#: Shards in transit (steals and rebalances): ``{globalIndex, shardId}``
#: entries, one hvc table payload each, decoded lazily by the receiver.
PARCELS = Blobs(
    "[{globalIndex, shardId}] + hvc tables",
    _split_parcels,
    lambda entries, blobs: [
        StolenParcel(
            int(entry["globalIndex"]),
            payload=blob,
            shard_id=str(entry.get("shardId") or "") or None,
        )
        for entry, blob in zip(entries, blobs)
    ],
)
#: A thief's per-shard summaries, never pre-merged.
SUMMARIES = Blobs(
    "[{globalIndex}] + summaries",
    lambda results: (
        [{"globalIndex": index} for index, _ in results],
        [summary_to_bytes(summary) for _, summary in results],
    ),
    lambda entries, blobs: [
        (int(entry["globalIndex"]), summary_from_bytes(blob))
        for entry, blob in zip(entries, blobs)
    ],
)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Arg:
    """One request argument: its JSON key and conversion.  ``omit_none``
    leaves the key out of the request when the value is None."""

    key: str
    kind: "Kind | Blobs" = JSON
    omit_none: bool = False


@dataclass(frozen=True)
class Verb:
    """One root↔worker verb.  Flags: ``dataset_op`` — runs under the
    worker's placement guard and carries the placement version the root
    names as a last argument (``placementVersion``); ``refused_draining``
    — refused (code ``worker_draining``) once the daemon received
    SIGTERM; ``streaming`` — ``partial`` replies precede the terminal
    one, each summary rides an attachment, the last on the terminal;
    ``daemon`` — the daemon answers, adding process-level fields to
    the worker's own answer.  ``reply_key`` wraps the converted result as
    ``{reply_key: ...}`` (``also`` names a second method whose dict
    result joins it); without one the result *is* the payload (no
    payload at all when it is None)."""

    wire: str
    method: str | None = None
    args: tuple[Arg, ...] = ()
    kind: str = "complete"
    reply_key: str | None = None
    reply: "Kind | Blobs" = JSON
    also: str | None = None
    dataset_op: bool = False
    refused_draining: bool = False
    streaming: bool = False
    daemon: bool = False
    #: The proxy attribute, where it is not the method's name.
    stub: str | None = None
    #: (name, default) of each method parameter, filled in below.
    params: tuple = field(default=(), compare=False)

    @property
    def blobs(self) -> bool:
        """Whether a request or reply of this verb carries an attachment."""
        kinds = [arg.kind for arg in self.args] + [self.reply]
        return self.streaming or any(isinstance(kind, Blobs) for kind in kinds)

    # -- the root's end ---------------------------------------------------
    def request(self, values: tuple, named: dict) -> tuple[dict, bytes | None]:
        """The JSON args (and attachment) for one call of the stub."""
        values = list(values)
        for name, default in self.params[len(values) :]:
            values.append(named.pop(name, default))
        if named or len(values) > len(self.params):
            raise TypeError(f"{self.method}() got unexpected arguments")
        args: dict = {}
        attachment = None
        for arg, value in zip(self.args, values):
            if isinstance(arg.kind, Blobs):
                args[arg.key], attachment = arg.kind.pack(value)
            elif value is not None:
                args[arg.key] = arg.kind.to_json(value)
            elif not arg.omit_none:
                args[arg.key] = None
        return args, attachment

    def result(self, reply: RpcReply):
        """The stub's return value, from the terminal reply."""
        payload = reply.payload
        if self.reply_key is not None:
            payload = payload.get(self.reply_key) if isinstance(payload, dict) else None
        elif payload is NO_PAYLOAD:
            return None
        if isinstance(self.reply, Blobs):
            return self.reply.unpack(payload, reply.attachment, self.wire)
        return self.reply.from_json(payload)

    # -- the worker's end -------------------------------------------------
    def arguments(self, request: RpcRequest) -> list:
        """The method's arguments, decoded from the request."""
        values = []
        for arg, (_, default) in zip(self.args, self.params):
            raw = request.args.get(arg.key)
            if isinstance(arg.kind, Blobs):
                values.append(arg.kind.unpack(raw, request.attachment, self.wire))
            elif raw is not None:
                values.append(arg.kind.from_json(raw))
            elif default is inspect.Parameter.empty:
                raise ProtocolError(f"{self.wire} request missing {arg.key!r}")
            else:
                values.append(default)
        return values

    def serve(self, target, request: RpcRequest) -> RpcReply:
        """Decode the request, call ``target``'s method, encode the reply."""
        result = getattr(target, self.method)(*self.arguments(request))
        reply = RpcReply(request.request_id, self.kind)
        if isinstance(self.reply, Blobs):
            result, reply.attachment = self.reply.pack(result)
        elif result is not None:
            result = self.reply.to_json(result)
        if self.reply_key is not None:
            reply.payload = {self.reply_key: result}
            if self.also is not None:
                reply.payload.update(getattr(target, self.also)())
        elif result is not None:
            reply.payload = result
        return reply


_PLACEMENT = _object("name", "index", "count", "version", "members", "retired")
_DATASET = Arg("dataset", TEXT)
_LINEAGE = Arg("lineage", LINEAGE)
_VERSION = Arg("version", INT)
_MEMBERS = Arg("members", MEMBERS)
_DRAIN = Arg("drainTimeout", FLOAT)
_CADENCE = Arg("aggregationInterval", FLOAT)

WIRE_VERBS: tuple[Verb, ...] = (
    Verb("hello", kind="ack", reply=_object("name", "pid", "cores")),
    Verb("cancel", kind="ack", args=(Arg("requestId", INT),),
         reply=_object("cancelled")),
    Verb("shutdown", kind="ack"),
    Verb(
        "configure", "configure", kind="ack", refused_draining=True,
        reply=_object("index", "count", "version"),
        args=(Arg("index", INT), Arg("count", INT), _CADENCE,
              Arg("placementVersion", INT), _MEMBERS),
    ),
    Verb("placement", "placement_info", reply=_PLACEMENT),
    Verb("ensure", "ensure", kind="ack", reply=EXTENT, dataset_op=True,
         args=(_DATASET, _LINEAGE)),
    Verb("sketch", "sketch_partials", dataset_op=True, streaming=True,
         reply=_object("shardsDone", "bytes", "cacheHit"),
         args=(_DATASET, Arg("sketch", SKETCH), _LINEAGE,
               Arg("run", TEXT, omit_none=True))),
    Verb("evict", "evict", kind="ack", dataset_op=True, args=(_DATASET,)),
    Verb("inventory", "inventory", reply_key="datasets", reply=DATASETS,
         also="placement_info"),
    Verb(
        "transferShards", "transfer_shards", kind="ack", refused_draining=True,
        reply=_object("moved", "missing"),
        args=(_DATASET, Arg("moves", MOVES), Arg("targetVersion", INT)),
    ),
    Verb(
        "adoptShards", "adopt_shards", kind="ack", reply_key="staged",
        reply=COUNT, refused_draining=True,
        args=(_DATASET, Arg("targetVersion", INT), Arg("shards", PARCELS)),
    ),
    Verb("claimSlices", "claim_slices", reply_key="parcels", reply=PARCELS,
         args=(Arg("run", TEXT), Arg("budget", COUNT))),
    Verb(
        "stolenPartial", "summarize_stolen", reply_key="summaries",
        reply=SUMMARIES, refused_draining=True,
        args=(Arg("sketch", SKETCH), Arg("parcels", PARCELS)),
    ),
    Verb("exportHotEntries", "export_hot_entries", reply_key="entries",
         reply=LIST, args=(Arg("budgetBytes", COUNT),)),
    Verb("importEntries", "import_entries", reply_key="warmed", reply=COUNT,
         refused_draining=True, args=(Arg("entries", LIST),)),
    Verb(
        "rebalanceCommit", "rebalance_commit", kind="ack",
        refused_draining=True, reply=_object("version", "kept"),
        args=(_VERSION, Arg("index", INT), Arg("count", INT), _MEMBERS,
              Arg("datasets", TOTALS), _DRAIN, _CADENCE),
    ),
    Verb("retire", "retire", kind="ack", reply=_object("version"),
         args=(_VERSION, _MEMBERS, _DRAIN)),
    Verb("crash", "crash", kind="ack"),
    Verb("ping", "ping", kind="ack", reply_key="pong",
         reply=Kind("bool", _same, bool)),
    Verb("sweepCaches", "sweep_caches", reply_key="purged", reply=INT,
         daemon=True, stub="sweep_remote_caches"),
    Verb("metricsSnapshot", "metrics_snapshot", daemon=True, reply=_object(
        "name", "cores", "shardsSummarized", "crashes", "store", "memo",
        "slicesStolen", "slicesDonated", "entriesWarmed", "pid", "cpuSeconds",
        "minorFaults", "inflight", "datasetOps", "requestsServed", "rootsServed",
        "placementVersion", "draining", "entriesPurged", "spansBuffered",
        "registry")),
    Verb("traceDump", "trace_dump", reply_key="spans", reply=LIST, daemon=True,
         args=(Arg("traceId", TEXT, omit_none=True),)),
)


def _bind(verb: Verb) -> Verb:
    """Read the method's parameters (names and defaults) off the
    protocol, and give dataset ops their trailing version argument."""
    if verb.method is None:
        return verb
    parameters = inspect.signature(getattr(WorkerProtocol, verb.method)).parameters
    params = tuple(
        (name, p.default)
        for name, p in parameters.items()
        if name not in ("self", "token")
    )
    args = verb.args + ((Arg("placementVersion", INT),) if verb.dataset_op else ())
    assert len(params) == len(args), verb.wire
    return dataclasses.replace(verb, args=args, params=params)


WIRE_VERBS = tuple(_bind(verb) for verb in WIRE_VERBS)
VERBS: dict[str, Verb] = {verb.wire: verb for verb in WIRE_VERBS}

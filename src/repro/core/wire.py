"""One value, one definition: wire codecs derived from field tables.

Every wire-visible :class:`~repro.core.sketch.Summary` and
:class:`~repro.core.sketch.Sketch` class — and every value a lineage or
a sketch spec carries: data sources, table maps, lineage ops, predicates
and buckets — declares one :class:`Wire` table beside itself: its wire
tag, then per field the attribute, the JSON key, a :class:`Kind` and
(for specs) a default::

    wire = Wire(
        "histogram",
        Field("counts", "counts", COUNTS),
        Field("missing", "missing", UVARINT),
        ...
    )

From that table this module *derives* every codec the system speaks: the
binary ``Summary.encode``/``decode`` pair, ``summary_to_json`` /
``summary_from_json`` / ``summary_to_bytes`` / ``summary_from_bytes``,
``sketch_from_json`` / ``sketch_to_json``, and the JSON text the reply
encoders send (``summary_json`` + ``dumps``), which every reader of a
reply frame parses with ``loads``.  The lineage and spec
values are members of a :class:`TaggedUnion` per family (``SOURCES``,
``TABLE_MAPS``, ``LINEAGE_OPS``, ``PREDICATES``, ``BUCKET_TYPES``, each
defined beside its base class); the union's ``to_json``/``from_json``
(and, for buckets, ``write``/``read``) are the family's codecs, and its
``kind`` nests it in another table.  A kind knows its four conversions
(to/from JSON, write/read binary), so the JSON and binary forms of a
field cannot drift apart, and a new sketch, source or predicate is a
one-file change: classes register themselves, by exact type, when they
are defined.  The codec plan of a class is compiled once, at class
definition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import datetime
from functools import cache
from operator import attrgetter
from typing import Any, Callable, ClassVar

import numpy as np
import orjson

from repro.core.serialization import (
    Decoder,
    Encoder,
    read_tagged_value,
    write_tagged_value,
)
from repro.errors import ProtocolError, SerializationError

#: Upper bound on the cells of one summary, checked when a sketch spec is
#: parsed: summary size follows display resolution, never the client's
#: appetite (paper §4.2).  An order of magnitude above a 400x300 heat map.
MAX_SUMMARY_CELLS = 1 << 22


# ---------------------------------------------------------------------------
# Cell values: JSON-safe encoding for dates and numpy scalars
# ---------------------------------------------------------------------------
def cell_to_json(value: object | None) -> object | None:
    """One table cell as a JSON-representable value."""
    if value is None:
        return None
    if isinstance(value, datetime):
        return {"$date": value.isoformat()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def cell_from_json(value: object | None) -> object | None:
    """Inverse of :func:`cell_to_json`."""
    if isinstance(value, dict) and "$date" in value:
        return datetime.fromisoformat(value["$date"])
    return value


# ---------------------------------------------------------------------------
# JSON text: pre-rendered values spliced into json.dumps output
# ---------------------------------------------------------------------------
class JsonText(str):
    """A value already rendered as JSON text; :func:`dumps` splices it in."""


_ENCODERS = {
    False: json.JSONEncoder(),  # what json.dumps(obj) uses
    True: json.JSONEncoder(sort_keys=True),
}


def dumps(fields: dict, sort_keys: bool = False) -> str:
    """``json.dumps(fields, sort_keys=sort_keys)``, byte for byte, except
    that a :class:`JsonText` value of ``fields`` goes in verbatim.

    Only the top-level values are inspected: a nested object carrying
    pre-rendered text is itself a :class:`JsonText`.
    """
    encode = _ENCODERS[sort_keys].encode
    if JsonText not in map(type, fields.values()):
        return encode(fields)
    parts: list[str] = []
    plain: dict = {}
    for key in sorted(fields) if sort_keys else fields:
        value = fields[key]
        if type(value) is JsonText:
            if plain:
                parts.append(encode(plain)[1:-1])
                plain = {}
            parts.append(f"{encode(key)}: {value}")
        else:
            plain[key] = value
    if plain:
        parts.append(encode(plain)[1:-1])
    return "{" + ", ".join(parts) + "}"


#: Maps each digit byte to ``0`` and every other byte to a space, so a run
#: of 19 digits in a document is ``_LONG_DIGIT_RUN`` in its translation.
_DIGIT_BYTES = bytes(48 if 48 <= b <= 57 else 32 for b in range(256))
_LONG_DIGIT_RUN = b"0" * 19


def loads(data: bytes | str) -> Any:
    """``json.loads(data)``, at native speed for a reply frame.

    orjson parses it, except where the two parsers differ:
    ``json.loads`` reads what orjson refuses (``NaN``/``Infinity`` from a
    non-finite float, a lone surrogate in a string) and keeps an integer
    outside [-2**63, 2**64) exact, where orjson returns a float.  Such an
    integer has at least 19 digits, so a document holding a run of 19
    digits goes to ``json.loads`` whole; the count grids of wide replies
    hold short integers and take the fast path.
    """
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    if _LONG_DIGIT_RUN not in raw.translate(_DIGIT_BYTES):
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    return json.loads(data if isinstance(data, str) else str(data, "utf-8"))


def _dumps_list(items: list, sort_keys: bool) -> list | JsonText:
    """``items`` for :func:`dumps`: itself, or JSON text if any item is."""
    if JsonText not in map(type, items):
        return items
    encode = _ENCODERS[sort_keys].encode
    return JsonText(
        "[" + ", ".join(i if type(i) is JsonText else encode(i) for i in items) + "]"
    )


#: An integer array renders from a table of its cells' text when it has
#: _TEXT_CELLS_MIN cells (below that, a list of ints is cheaper) and
#: every one lies in [0, _TEXT_CELLS).
_TEXT_CELLS = 4096
_TEXT_CELLS_MIN = 128


@cache
def _text_table(width: int, outer: int) -> tuple[np.ndarray, int]:
    """The pieces of an array's JSON text with ``outer`` axes around its
    rows, NUL-padded to ``width`` bytes: ``"v, "`` then ``"v]"`` for each
    cell value ``v`` below the returned bound (all of ``width - 2``
    digits), then the separator before a row that opens ``k`` more axes,
    for each ``k``, then the close of the whole array."""
    top = min(_TEXT_CELLS, 10 ** (width - 2))
    texts = [f"{v}, " for v in range(top)] + [f"{v}]" for v in range(top)]
    texts += ["]" * k + ", " + "[" * (k + 1) for k in range(outer)]
    texts.append("]" * outer)
    table = np.array(texts, dtype=f"S{width}")
    table.flags.writeable = False  # shared by every caller
    return table, top


def int_array_json(array: np.ndarray) -> list | int | JsonText:
    """An integer array for :func:`dumps`: ``json.dumps(array.tolist())``
    rendered straight from the array, or ``array.tolist()`` itself when
    that is cheaper or a cell falls outside the text table.

    Each cell indexes its text in a table — ``"v, "``, or ``"v]"`` at the
    end of a row, which is followed by the separator that closes and
    opens the axes around the next row — so one ``take`` writes the whole
    text, NUL-padded, and one ``translate`` deletes the padding.
    """
    if array.ndim == 0 or array.size < _TEXT_CELLS_MIN:
        return array.tolist()
    top = array.max()
    if top >= _TEXT_CELLS or array.min() < 0:
        return array.tolist()
    outer = array.ndim - 1
    table, ends = _text_table(max(len(str(top)) + 2, 2 * outer + 1), outer)
    per_row = array.shape[-1]
    flat = array.reshape(-1, per_row)
    index = np.empty((len(flat), per_row + 1), dtype=np.intp)
    index[:, :per_row] = flat
    index[:, per_row - 1] += ends
    # The row after row r opens one more axis per inner block it starts.
    after = np.arange(1, len(flat))
    separators = np.full(len(flat), 2 * ends, dtype=np.intp)
    block = 1
    for size in array.shape[-2:0:-1]:
        block *= size
        separators[:-1] += after % block == 0
    separators[-1] = 2 * ends + outer
    index[:, per_row] = separators
    text = table.take(index).tobytes().translate(None, b"\0")
    return JsonText("[" * (outer + 1) + text.decode("ascii"))


# ---------------------------------------------------------------------------
# Kinds: one field type, four conversions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Kind:
    """How one field type travels: JSON both ways, binary both ways.

    Spec-only kinds (predicates, nested sketch specs) have no binary form
    and leave ``write``/``read`` unset.  ``cells`` — set on bucket kinds —
    is how many summary cells a parsed value contributes, the factor the
    :data:`MAX_SUMMARY_CELLS` bound multiplies.  ``to_text`` — set on
    the kinds that carry grids — is ``to_json`` for an encoder: given the
    value and whether keys are sorted, the JSON value or, when faster to
    build, its :class:`JsonText`.
    """

    name: str
    to_json: Callable[[Any], Any]
    from_json: Callable[..., Any]
    write: Callable[[Encoder, Any], None] | None = None
    read: Callable[[Decoder], Any] | None = None
    cells: Callable[[Any], int] | None = None
    to_text: Callable[[Any, bool], Any] | None = None


def _same(value):
    return value


def _strict(expected: type, label: str) -> Callable[[Any], Any]:
    def parse(value):
        if not isinstance(value, expected):
            raise TypeError(f"expected {label}, got {type(value).__name__}")
        return value

    return parse


_strict_list = _strict(list, "a list")

UVARINT = Kind("uint", _same, int, Encoder.write_uvarint, Decoder.read_uvarint)
INT = Kind("int", _same, int, Encoder.write_int, Decoder.read_int)
F64 = Kind("float", _same, float, Encoder.write_float, Decoder.read_float)
BOOL = Kind(
    "bool", _same, _strict(bool, "a boolean"), Encoder.write_bool, Decoder.read_bool
)
STR = Kind(
    "string",
    _same,
    _strict(str, "a string"),
    Encoder.write_str,
    lambda dec: dec.read_str() or "",
)
CELL = Kind("cell", cell_to_json, cell_from_json, write_tagged_value, read_tagged_value)


def _int_array_text(array: np.ndarray, sort_keys: bool) -> list | int | JsonText:
    return int_array_json(array)


def array_of(dtype: str) -> Kind:
    """A numpy array of ``dtype`` (any shape): nested lists in JSON."""
    return Kind(
        f"{dtype} array",
        np.ndarray.tolist,
        lambda data: np.asarray(data, dtype=dtype),
        Encoder.write_array,
        Decoder.read_array,
        to_text=_int_array_text if np.dtype(dtype).kind in "iu" else None,
    )


F64_ARRAY = array_of("float64")
UINT8_ARRAY = array_of("uint8")

#: The unsigned widths a count grid travels at, narrowest first, each
#: with the largest cell it holds.
_COUNT_WIDTHS = tuple((np.dtype(t), np.iinfo(t).max) for t in ("u1", "u2", "u4"))


def _write_counts(enc: Encoder, counts: np.ndarray) -> None:
    counts = np.asarray(counts, dtype=np.int64)
    width = np.dtype(np.int64)
    if counts.size == 0:
        width = _COUNT_WIDTHS[0][0]
    elif counts.min() >= 0:
        top = counts.max()
        width = next((t for t, most in _COUNT_WIDTHS if top <= most), width)
    enc.write_array(counts.astype(width, copy=False))


#: A grid of counts (histogram bars, heat-map cells): int64 in memory
#: and in JSON; in binary, the narrowest of uint8/16/32 that holds every
#: cell (int64 if one is negative or beyond 2**32 - 1), widened back to
#: int64 on read.  The array's dtype tag is the width byte.
COUNTS = Kind(
    "count grid",
    np.ndarray.tolist,
    lambda data: np.asarray(data, dtype=np.int64),
    _write_counts,
    lambda dec: dec.read_array(np.dtype(np.int64)),
    to_text=_int_array_text,
)


def list_of(item: Kind, name: str | None = None) -> Kind:
    """A list of ``item``: a JSON list; uvarint count then items in binary."""
    item_to, item_from = item.to_json, item.from_json
    item_write, item_read = item.write, item.read

    def to_json(values):
        return [item_to(v) for v in values]

    def from_json(data):
        return [item_from(v) for v in _strict_list(data)]

    def write(enc, values):
        enc.write_uvarint(len(values))
        for value in values:
            item_write(enc, value)

    def read(dec):
        return [item_read(dec) for _ in range(dec.read_uvarint())]

    binary = item_write is not None
    return Kind(
        name or f"list of {item.name}",
        to_json,
        from_json,
        write if binary else None,
        read if binary else None,
    )


def pair_of(first: Kind, second: Kind) -> Kind:
    """A 2-tuple: ``[a, b]`` in JSON; ``a`` then ``b`` in binary."""

    def to_json(value):
        return [first.to_json(value[0]), second.to_json(value[1])]

    def from_json(data):
        a, b = data
        return first.from_json(a), second.from_json(b)

    def write(enc, value):
        first.write(enc, value[0])
        second.write(enc, value[1])

    def read(dec):
        return first.read(dec), second.read(dec)

    return Kind(f"[{first.name}, {second.name}]", to_json, from_json, write, read)


def optional(item: Kind) -> Kind:
    """``item`` or None: ``null`` in JSON; a presence byte in binary."""

    def write(enc, value):
        enc.write_bool(value is not None)
        if value is not None:
            item.write(enc, value)

    return Kind(
        f"{item.name} or null",
        lambda value: None if value is None else item.to_json(value),
        lambda data: None if data is None else item.from_json(data),
        write,
        lambda dec: item.read(dec) if dec.read_bool() else None,
    )


def via(item: Kind, name: str, out: Callable, back: Callable) -> Kind:
    """``item`` over a canonical view of the value: ``out`` maps the
    attribute to what ``item`` carries (a sorted list of a set, say) and
    ``back`` rebuilds the attribute from it."""
    return Kind(
        name,
        lambda value: item.to_json(out(value)),
        lambda data: back(item.from_json(data)),
        lambda enc, value: item.write(enc, out(value)),
        lambda dec: back(item.read(dec)),
    )


def _write_row(enc: Encoder, values: tuple) -> None:
    enc.write_uvarint(len(values))
    for value in values:
        write_tagged_value(enc, value)


STR_LIST = list_of(STR)
F64_LIST = list_of(F64)
#: One table row as raw cell values (a tuple in Python).  Spelled out, not
#: composed from ``list_of(CELL)``: row lists are the longest things on
#: the wire that are walked in Python.
ROW = Kind(
    "row",
    lambda values: [cell_to_json(v) for v in values],
    lambda data: tuple(cell_from_json(v) for v in _strict_list(data)),
    _write_row,
    lambda dec: tuple(read_tagged_value(dec) for _ in range(dec.read_uvarint())),
)
ROWS = list_of(ROW, "list of rows")


# ---------------------------------------------------------------------------
# Field tables
# ---------------------------------------------------------------------------
#: Default of a field the JSON form must carry.
REQUIRED: Any = object()
#: Default of a field a spec may omit (it then reads as None) but that
#: the JSON form always carries, ``null`` included.
NULL: Any = object()


@dataclass(frozen=True)
class Field:
    """One wire field: ``attr`` of the object (and constructor keyword),
    its JSON ``key``, its :class:`Kind`, and the ``default`` a spec may
    omit it for.  A field whose default is None is left out of the JSON
    form while it is None; one whose default is :data:`NULL` is not.

    ``attr`` and ``key`` may be equal-length tuples when one binary
    layout interleaves several attributes (the kind then converts tuples).
    ``context`` names an earlier field whose parsed value the kind's
    ``from_json`` needs as a second argument (a start key needs its order).
    """

    attr: str | tuple[str, ...]
    key: str | tuple[str, ...]
    kind: Kind
    default: Any = REQUIRED
    context: str | None = None


@dataclass(frozen=True)
class Derived:
    """A JSON-only field computed from the summary for the UI (an HLL
    estimate beside its registers); ignored when parsing and in binary."""

    key: str
    value: Callable[[Any], Any]
    doc: str


class Wire:
    """The field table of one wire-visible class.

    ``tag`` is the JSON ``"type"`` (a :class:`TaggedUnion` member's tag
    key) and the binary summary tag; None derives ``encode``/``decode``
    without registering a wire type.  ``variant`` — ``(key, value)`` —
    lets several sketch classes share one tag, told apart by that
    constant JSON field; the first class registered under the tag is the
    one a spec without the key selects.  ``code`` is the uvarint that
    tags a member of a binary :class:`TaggedUnion` (buckets).
    """

    def __init__(
        self,
        tag: str | None,
        *entries: Field | Derived,
        variant: tuple[str, str] | None = None,
        code: int | None = None,
    ):
        self.tag = tag
        self.entries = entries
        self.variant = variant
        self.code = code

    def tagged(self, tag: str) -> "Wire":
        """The same fields under another tag (a subclass's wire type)."""
        return Wire(tag, *self.entries, variant=self.variant)


@dataclass(frozen=True)
class _Plan:
    """The compiled codec of one class: flat tuples, walked per call."""

    cls: type
    tag: str | None
    head: dict  # {tag key: tag} plus the variant field
    json_out: tuple  # (key, get, to_json, omit_none, to_text)
    json_in: tuple  # (attr, key, from_json, default, context)
    binary_out: tuple  # (get, write)
    binary_in: tuple  # (attr, read)
    cell_fields: tuple  # (attr, cells)


def _compile(cls: type, wire: Wire, key: str = "type") -> _Plan:
    head = {key: wire.tag}
    if wire.variant is not None:
        head[wire.variant[0]] = wire.variant[1]
    json_out, json_in, binary_out, binary_in, cell_fields = [], [], [], [], []
    for entry in wire.entries:
        if isinstance(entry, Derived):
            json_out.append((entry.key, entry.value, _same, False, None))
            continue
        attr, kind = entry.attr, entry.kind
        get = attrgetter(*attr) if isinstance(attr, tuple) else attrgetter(attr)
        json_out.append(
            (entry.key, get, kind.to_json, entry.default is None, kind.to_text)
        )
        default = None if entry.default is NULL else entry.default
        json_in.append((attr, entry.key, kind.from_json, default, entry.context))
        if kind.write is not None:
            binary_out.append((get, kind.write))
            binary_in.append((attr, kind.read))
        if kind.cells is not None:
            cell_fields.append((attr, kind.cells))
    return _Plan(
        cls,
        wire.tag,
        head,
        tuple(json_out),
        tuple(json_in),
        tuple(binary_out),
        tuple(binary_in),
        tuple(cell_fields),
    )


# ---------------------------------------------------------------------------
# Registries: filled at class-definition time, keyed by exact type
# ---------------------------------------------------------------------------
def registering(register: Callable[[type], Any]) -> type:
    """A base class that hands each subclass declaring a ``wire`` table
    to ``register`` when the subclass is defined."""

    class Registering:
        wire: ClassVar[Wire]

        def __init_subclass__(cls, **kwargs) -> None:
            super().__init_subclass__(**kwargs)
            if "wire" in cls.__dict__:
                register(cls)

    return Registering


#: Summary wire tag -> summary class.
SUMMARY_TYPES: dict[str, type] = {}
#: Sketch wire type -> its classes (several only when they declare a
#: ``variant``), in registration order.
SKETCH_TYPES: dict[str, list[type]] = {}

_PLANS: dict[type, _Plan] = {}


def register_summary(cls: type) -> None:
    """Compile ``cls.wire`` and (if tagged) register the summary class."""
    plan = _PLANS[cls] = _compile(cls, cls.wire)
    if plan.tag is not None:
        if SUMMARY_TYPES.setdefault(plan.tag, cls) is not cls:
            raise ValueError(f"summary tag {plan.tag!r} is already registered")


def register_sketch(cls: type) -> None:
    """Compile ``cls.wire`` and register the sketch class under its type."""
    wire = cls.wire
    _PLANS[cls] = _compile(cls, wire)
    classes = SKETCH_TYPES.setdefault(wire.tag, [])
    # Classes share a type only as distinct variants of it.
    taken = {c.wire.variant for c in classes}
    if classes and (wire.variant is None or None in taken or wire.variant in taken):
        raise ValueError(f"sketch type {wire.tag!r} is already registered")
    classes.append(cls)


# ---------------------------------------------------------------------------
# The derived codecs
# ---------------------------------------------------------------------------
_ABSENT = object()
#: What a kind's ``from_json`` raises on a wrong-typed or out-of-range value.
_MALFORMED = (
    ProtocolError, ValueError, TypeError, AttributeError, IndexError, OverflowError
)


def _to_json(plan: _Plan, obj: object, sort_keys: bool | None = None) -> dict:
    """The JSON object of ``obj``; with ``sort_keys`` given, prepared for
    :func:`dumps` under that key order (grids as :class:`JsonText`)."""
    out = dict(plan.head)
    for key, get, convert, omit_none, text in plan.json_out:
        value = get(obj)
        if omit_none and value is None:
            continue
        if type(key) is tuple:
            out.update(zip(key, convert(value)))
        elif text is None or sort_keys is None:
            out[key] = convert(value)
        else:
            out[key] = text(value, sort_keys)
    return out


def _from_json(plan: _Plan, data: dict, what: str, part: str) -> dict:
    """Constructor keywords parsed from ``data``; every malformed field
    surfaces as a :class:`ProtocolError` naming ``what``, the tag and the
    field."""
    kwargs: dict = {}
    key = None
    try:
        for attr, key, convert, default, context in plan.json_in:
            if type(key) is tuple:
                kwargs.update(zip(attr, convert(tuple(data[k] for k in key))))
                continue
            if default is REQUIRED:
                raw = data[key]
            else:
                raw = data.get(key, _ABSENT)
                if raw is _ABSENT or (raw is None and default is None):
                    kwargs[attr] = default
                    continue
            if context is None:
                kwargs[attr] = convert(raw)
            else:
                kwargs[attr] = convert(raw, kwargs[context])
    except KeyError as exc:
        raise ProtocolError(f"{what} {plan.tag!r} missing {part} {exc}") from exc
    except _MALFORMED as exc:
        raise ProtocolError(
            f"{what} {plan.tag!r} {part} {key!r} is malformed: {exc}"
        ) from exc
    return kwargs


def _summary_plan(summary: object, form: str) -> _Plan:
    plan = _PLANS.get(type(summary))
    if plan is None or plan.tag is None:
        raise ProtocolError(f"no {form} for summary type {type(summary).__name__}")
    return plan


def summary_tag(summary: object) -> str:
    """The wire tag of ``summary`` (shared by the JSON and binary forms)."""
    return _summary_plan(summary, "wire form").tag


def summary_to_json(summary: object) -> dict:
    """Render any summary as the JSON payload the UI consumes."""
    return _to_json(_summary_plan(summary, "JSON payload"), summary)


def summary_json(summary: object, sort_keys: bool = False) -> dict | JsonText:
    """:func:`summary_to_json` for an encoder: ``dumps`` of the result is
    ``json.dumps(summary_to_json(summary), sort_keys=sort_keys)``.

    A payload whose grids render faster as text comes back as
    :class:`JsonText` (each grid straight from its array); any other as
    its plain dict, so the reply around it is one ``json.dumps``.  Only
    the fields the summary's table declares are visited.
    """
    fields = _to_json(_summary_plan(summary, "JSON payload"), summary, sort_keys)
    if JsonText in map(type, fields.values()):
        return JsonText(dumps(fields, sort_keys))
    return fields


def _summary_from_json(plan: _Plan, data: dict) -> object:
    return plan.cls(**_from_json(plan, data, "summary payload", "field"))


def summary_from_json(data: dict) -> object:
    """Rebuild a summary object from its JSON payload."""
    kind = data.get("type")
    cls = SUMMARY_TYPES.get(str(kind))
    if cls is None:
        raise ProtocolError(f"unknown summary payload type {kind!r}")
    return _summary_from_json(_PLANS[cls], data)


def encode_summary(summary: object, enc: Encoder) -> None:
    """The derived body of :meth:`Summary.encode` (no tag), and of any
    other object with a binary form."""
    for get, write in _PLANS[type(summary)].binary_out:
        write(enc, get(summary))


def decode_summary(cls: type, dec: Decoder) -> object:
    """The derived body of :meth:`Summary.decode` (no tag), and of any
    other class with a binary form."""
    kwargs: dict = {}
    for attr, read in _PLANS[cls].binary_in:
        if type(attr) is tuple:
            kwargs.update(zip(attr, read(dec)))
        else:
            kwargs[attr] = read(dec)
    return cls(**kwargs)


def summary_to_bytes(summary: object) -> bytes:
    """Encode any summary as a tagged binary attachment."""
    return summary_attachment(summary)[0]


def summary_attachment(summary: object) -> tuple[bytes, int]:
    """:func:`summary_to_bytes`, and the size of its body (the summary's
    wire size, the tag excluded) from the same encode."""
    enc = Encoder()
    enc.write_str(summary_tag(summary))
    tag_size = enc.size
    encode_summary(summary, enc)
    return enc.to_bytes(), enc.size - tag_size


def summary_nbytes(value: object) -> int:
    """Approximate memory held by a summary: its arrays' ``nbytes`` in
    full, 8 bytes per other scalar or list slot, strings by length.

    Caches budget summaries by this, not by wire size: a count grid
    travels at as little as one byte a cell but is held at eight.
    """
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(8 + summary_nbytes(item) for item in value)
    if isinstance(value, str):
        return len(value)
    plan = _PLANS.get(type(value))
    if plan is None:
        return 8
    return sum(summary_nbytes(get(value)) for get, _ in plan.binary_out)


def summary_from_bytes(payload: bytes) -> object:
    """Inverse of :func:`summary_to_bytes`."""
    dec = Decoder(payload)
    tag = dec.read_str()
    cls = SUMMARY_TYPES.get(tag or "")
    if cls is None:
        raise ProtocolError(f"unknown binary summary tag {tag!r}")
    return decode_summary(cls, dec)


def summaries_of(cls: type) -> Kind:
    """A list of nested ``cls`` summaries (trellis panes): full payloads
    in JSON, untagged bodies in binary."""
    plan = _PLANS[cls]
    panes = list_of(
        Kind(
            f"{plan.tag} payload",
            summary_to_json,
            lambda data: _summary_from_json(plan, data),
            lambda enc, summary: encode_summary(summary, enc),
            lambda dec: decode_summary(cls, dec),
        )
    )

    def to_text(summaries: list, sort_keys: bool) -> list | JsonText:
        return _dumps_list([summary_json(s, sort_keys) for s in summaries], sort_keys)

    return replace(panes, to_text=to_text)


def sketch_to_json(sketch: object) -> dict:
    """Encode a sketch as the JSON spec :func:`sketch_from_json` accepts.

    The root uses this to broadcast queries to worker processes: any sketch
    the engine can run locally travels the wire as the same spec a browser
    would submit.
    """
    plan = _PLANS.get(type(sketch))
    if plan is None:
        raise ProtocolError(f"cannot encode sketch of type {type(sketch).__name__}")
    return _to_json(plan, sketch)


def sketch_from_json(spec: dict) -> Any:
    """Instantiate the vizketch described by a JSON spec."""
    if not isinstance(spec, dict):
        raise ProtocolError("a sketch spec must be a JSON object")
    kind = spec.get("type")
    classes = SKETCH_TYPES.get(str(kind))
    if classes is None:
        raise ProtocolError(f"unknown sketch type {kind!r}")
    cls = classes[0]
    if cls.wire.variant is not None:
        key, default = cls.wire.variant
        wanted = spec.get(key, default)
        cls = next((c for c in classes if c.wire.variant[1] == wanted), None)
        if cls is None:
            raise ProtocolError(f"unknown {kind!r} {key} {wanted!r}")
    plan = _PLANS[cls]
    kwargs = _from_json(plan, spec, "sketch", "argument")
    cells = 1
    for attr, count in plan.cell_fields:
        if kwargs[attr] is not None:
            cells *= count(kwargs[attr])
    if cells > MAX_SUMMARY_CELLS:
        raise ProtocolError(
            f"sketch {kind!r} asks for a summary of {cells} cells; the bound "
            f"is {MAX_SUMMARY_CELLS} (summaries follow display resolution)"
        )
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"sketch {kind!r} is malformed: {exc}") from exc


#: A nested sketch spec (a wrapper sketch's ``inner``).
SKETCH = Kind("sketch spec", sketch_to_json, sketch_from_json)


# ---------------------------------------------------------------------------
# Tagged unions: the value objects lineage and sketch specs carry
# ---------------------------------------------------------------------------
class TaggedUnion:
    """One family of wire values told apart by a tag: data sources (tag
    key ``kind``), lineage ops (``op``), table maps, predicates and
    buckets (``type``).

    The family's base class derives from :attr:`Member`, so each class
    that declares ``wire = Wire(tag, ...)`` registers when it is defined;
    its JSON form is ``{key: tag}``, then its fields in table order.  The
    members of a ``binary`` union also declare a ``code``: their binary
    form is that uvarint, then the fields.  :attr:`kind` is the union as
    a field kind, so unions nest (a filter map carries a predicate).
    ``refusal`` ends the error for a value with no wire table.
    """

    def __init__(
        self,
        name: str,
        key: str = "type",
        binary: bool = False,
        refusal: str = "has no wire form",
    ):
        self.name, self.key, self.refusal = name, key, refusal
        #: Tag -> member class, in registration order.
        self.classes: dict[str, type] = {}
        self.codes: dict[int, type] = {}
        write, read = (self.write, self.read) if binary else (None, None)
        self.kind = Kind(name, self.to_json, self.from_json, write, read)
        self.Member = registering(self.register)

    def register(self, cls: type) -> None:
        """Compile ``cls.wire`` and register ``cls`` under its tag."""
        wire = cls.wire
        _PLANS[cls] = _compile(cls, wire, self.key)
        if self.classes.setdefault(wire.tag, cls) is not cls:
            raise ValueError(f"{self.name} {wire.tag!r} is already registered")
        if self.kind.write is not None and (
            wire.code is None or self.codes.setdefault(wire.code, cls) is not cls
        ):
            raise ValueError(f"{self.name} {wire.tag!r} needs a code of its own")

    def _plan(self, value: object) -> _Plan:
        plan = _PLANS.get(type(value))
        if plan is None or self.classes.get(plan.tag) is not plan.cls:
            raise ProtocolError(f"{self.name} {type(value).__name__} {self.refusal}")
        return plan

    def to_json(self, value: object) -> dict:
        return _to_json(self._plan(value), value)

    def from_json(self, data: dict) -> Any:
        if not isinstance(data, dict):
            raise ProtocolError(f"{self.name} must be a JSON object")
        tag = data.get(self.key)
        cls = self.classes.get(str(tag))
        if cls is None:
            raise ProtocolError(f"unknown {self.name} {self.key} {tag!r}")
        return cls(**_from_json(_PLANS[cls], data, self.name, "field"))

    def write(self, enc: Encoder, value: object) -> None:
        self._plan(value)
        enc.write_uvarint(type(value).wire.code)
        encode_summary(value, enc)

    def read(self, dec: Decoder) -> Any:
        code = dec.read_uvarint()
        cls = self.codes.get(code)
        if cls is None:
            raise SerializationError(f"unknown {self.name} tag {code}")
        return decode_summary(cls, dec)

"""The ``hvc`` columnar binary format (stand-in for Parquet/ORC).

The real Hillview reads columnar formats like Parquet and ORC through
third-party libraries; this environment has none, so the reproduction
defines its own simple columnar container with the properties the paper
relies on:

* column-oriented layout: a reader can load a single column without
  touching the others (fast sequential, columnar access — §5.4);
* dictionary-encoded strings;
* an explicit missing-value bitmap;
* immutable files with a snapshot manifest so changing data under a
  running engine is detected (§2 requirement 2).

Layout: magic ``HVC1`` followed by Encoder-framed sections: schema JSON,
row count, then per column a self-describing block.  A directory dataset is
``part-*.hvc`` files plus ``_schema.json`` and ``_snapshot.json``.
"""

from __future__ import annotations

import glob
import json
import mmap
import os

import numpy as np

from repro.core.serialization import Decoder, Encoder
from repro.errors import SnapshotViolationError, StorageError
from repro.table.column import (
    Column,
    DateColumn,
    DoubleColumn,
    IntColumn,
    StringColumn,
)
from repro.table.dictionary import StringDictionary
from repro.table.schema import ColumnDescription, ContentsKind, Schema
from repro.table.table import Table

MAGIC = b"HVC1"


def _encode_column(enc: Encoder, column: Column, rows: np.ndarray) -> None:
    enc.write_str(column.name)
    enc.write_str(column.kind.value)
    if isinstance(column, StringColumn):
        values = column.string_values(rows)
        dictionary = StringDictionary()
        codes = dictionary.encode_values(values)
        enc.write_str_list(dictionary.values)
        enc.write_array(codes)
        return
    data = column.data[rows]  # type: ignore[attr-defined]
    missing = column.missing_mask()[rows]
    enc.write_array(data)
    enc.write_bool(bool(missing.any()))
    if missing.any():
        enc.write_array(missing)


def _decode_column(dec: Decoder) -> Column:
    name = dec.read_str()
    kind_text = dec.read_str()
    if name is None or kind_text is None:
        raise StorageError("corrupt column header")
    kind = ContentsKind(kind_text)
    desc = ColumnDescription(name, kind)
    if kind.is_string:
        dictionary = StringDictionary(s or "" for s in dec.read_str_list())
        codes = dec.read_array()
        return StringColumn(desc, codes, dictionary)
    data = dec.read_array()
    missing = dec.read_array() if dec.read_bool() else None
    if kind is ContentsKind.INTEGER:
        return IntColumn(desc, data, missing)
    if kind is ContentsKind.DOUBLE:
        return DoubleColumn(desc, data, missing)
    return DateColumn(desc, data, missing)


def table_to_bytes(table: Table) -> bytes:
    """Encode the member rows of ``table`` as one in-memory hvc payload.

    The same encoding :func:`write_table` puts on disk; also the wire
    format shard slices travel in when an elastic fleet rebalances
    (``transferShards``/``adoptShards`` between worker daemons).
    """
    enc = Encoder()
    enc.write_str(table.schema.to_json_string())
    rows = table.members.indices()
    enc.write_uvarint(len(rows))
    for name in table.column_names:
        _encode_column(enc, table.column(name), rows)
    return MAGIC + enc.to_bytes()


def table_from_bytes(
    payload, shard_id: str | None = None, zero_copy: bool = False
) -> Table:
    """Decode a :func:`table_to_bytes` payload.

    ``payload`` may be ``bytes`` or any buffer (e.g. a ``memoryview`` of a
    mapped file).  With ``zero_copy`` the numeric column arrays remain
    views into the buffer, which stays pinned through their ``.base``.
    """
    where = shard_id or "<memory>"
    if len(payload) < 4 or bytes(payload[:4]) != MAGIC:
        raise StorageError(f"{where}: not an hvc payload (bad magic)")
    dec = Decoder(payload[4:], zero_copy=zero_copy)
    schema_json = dec.read_str()
    if schema_json is None:
        raise StorageError(f"{where}: missing schema")
    schema = Schema.from_json_string(schema_json)
    num_rows = dec.read_uvarint()
    columns = [_decode_column(dec) for _ in range(len(schema))]
    for column in columns:
        if column.size != num_rows:
            raise StorageError(
                f"{where}: column {column.name!r} has {column.size} rows, "
                f"header says {num_rows}"
            )
    return Table(columns, shard_id=shard_id)


def write_table(table: Table, path: str) -> int:
    """Write the member rows of ``table`` to ``path``; returns bytes written."""
    payload = table_to_bytes(table)
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as f:
        f.write(payload)
    os.replace(tmp_path, path)  # atomic: readers never see partial files
    return len(payload)


def read_table(
    path: str, shard_id: str | None = None, use_mmap: bool | None = None
) -> Table:
    """Read a table written by :func:`write_table`.

    The file is memory-mapped read-only and numeric columns decode as
    zero-copy views over the map: worker processes reading the same
    partitions share one set of page frames, and cold reads fault in only
    the pages a sketch touches.  ``use_mmap=False`` reads the file onto
    the heap instead — the reference the mapped path is tested against.
    """
    name = shard_id or os.path.basename(path)
    with open(path, "rb") as f:
        if use_mmap is False:
            return table_from_bytes(f.read(), shard_id=name)
        if os.fstat(f.fileno()).st_size == 0:
            raise StorageError(f"{name}: not an hvc payload (bad magic)")
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    # The file descriptor can close now: the map (and the arrays viewing
    # it) keep the pages alive until the table is garbage collected.
    return table_from_bytes(memoryview(mapped), shard_id=name, zero_copy=True)


def write_dataset(tables: list[Table], directory: str) -> list[str]:
    """Write ``tables`` as a partitioned dataset directory with a manifest."""
    if not tables:
        raise StorageError("cannot write an empty dataset")
    schema = tables[0].schema
    for t in tables[1:]:
        if t.schema != schema:
            raise StorageError("dataset partitions must share a schema")
    os.makedirs(directory, exist_ok=True)
    paths = []
    manifest = {}
    for i, table in enumerate(tables):
        filename = f"part-{i:05d}.hvc"
        path = os.path.join(directory, filename)
        size = write_table(table, path)
        paths.append(path)
        manifest[filename] = size
    with open(os.path.join(directory, "_schema.json"), "w") as f:
        f.write(schema.to_json_string())
    with open(os.path.join(directory, "_snapshot.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return paths


def write_manifest(directory: str, files: list[str] | None = None) -> str:
    """Write the ``_snapshot.json`` manifest for partitions already on disk.

    The save vizketch writes one partition per shard at the leaves; the root
    finalizes the dataset by recording the snapshot manifest once all
    partitions have landed (their merged :class:`SaveStatus` lists them).
    With ``files`` omitted, every ``part-*.hvc`` in the directory is listed.
    """
    if files is None:
        files = sorted(glob.glob(os.path.join(directory, "part-*.hvc")))
    if not files:
        raise StorageError(f"{directory}: no partitions to snapshot")
    manifest = {os.path.basename(p): os.path.getsize(p) for p in files}
    path = os.path.join(directory, "_snapshot.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return path


def dataset_manifest(directory: str) -> dict:
    """The ``_snapshot.json`` manifest of a dataset directory."""
    manifest_path = os.path.join(directory, "_snapshot.json")
    try:
        with open(manifest_path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise StorageError(f"{directory}: not a dataset (missing _snapshot.json)")


def verify_partition(directory: str, filename: str, manifest: dict) -> str:
    """Check one partition against the snapshot manifest; returns its path."""
    path = os.path.join(directory, filename)
    try:
        actual = os.path.getsize(path)
    except OSError:
        raise SnapshotViolationError(f"{path}: partition disappeared")
    if actual != manifest[filename]:
        raise SnapshotViolationError(
            f"{path}: size {actual} != snapshot {manifest[filename]}; "
            "data changed while Hillview was running"
        )
    return path


def read_dataset(
    directory: str,
    verify_snapshot: bool = True,
    use_mmap: bool | None = None,
) -> list[Table]:
    """Read every partition of a dataset directory.

    With ``verify_snapshot`` the partition sizes are checked against the
    manifest written at dataset-creation time; a mismatch means the data
    changed under us, violating the §2 snapshot requirement.
    """
    manifest = dataset_manifest(directory)
    tables = []
    for filename in sorted(manifest):
        path = os.path.join(directory, filename)
        if verify_snapshot:
            verify_partition(directory, filename, manifest)
        tables.append(read_table(path, shard_id=filename, use_mmap=use_mmap))
    return tables

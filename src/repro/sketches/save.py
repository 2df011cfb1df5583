"""Save-table vizketch (§5.4).

Hillview saves a derived table by "a special vizketch with a summarize
function that writes a data record to the repository and returns an error
indication, while the merge function combines error indications."  Each
worker stores its partition; the merged summary tells the UI how many rows
and files were written and carries any per-partition errors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.sketch import Sketch, Summary
from repro.core.wire import STR, STR_LIST, UVARINT, Field, Wire
from repro.table.table import Table


@dataclass
class SaveStatus(Summary):
    """Outcome of writing partitions to a repository."""

    files: list[str] = field(default_factory=list)
    rows_written: int = 0
    errors: list[str] = field(default_factory=list)

    wire = Wire(
        "saveStatus",
        Field("files", "files", STR_LIST),
        Field("rows_written", "rowsWritten", UVARINT),
        Field("errors", "errors", STR_LIST),
    )

    @property
    def ok(self) -> bool:
        return not self.errors


class SaveTableSketch(Sketch[SaveStatus]):
    """Write each shard to ``directory`` in the chosen format.

    Formats: ``"hvc"`` (this library's columnar binary format) or ``"csv"``.
    Not cacheable: the side effect must run on every invocation.
    """

    deterministic = False

    wire = Wire(
        "save",
        Field("directory", "directory", STR),
        Field("format", "format", STR, "hvc"),
    )

    def __init__(self, directory: str, format: str = "hvc"):
        if format not in ("hvc", "csv"):
            raise ValueError(f"unknown save format {format!r}")
        self.directory = directory
        self.format = format

    @property
    def name(self) -> str:
        return f"SaveTable({self.directory},{self.format})"

    def zero(self) -> SaveStatus:
        return SaveStatus()

    def summarize(self, table: Table) -> SaveStatus:
        # Imported here: storage depends on table, not on sketches.
        from repro.storage import columnar, csv_io

        safe_shard = table.shard_id.replace("/", "_").replace(os.sep, "_")
        filename = f"part-{safe_shard}.{self.format}"
        path = os.path.join(self.directory, filename)
        try:
            os.makedirs(self.directory, exist_ok=True)
            if self.format == "hvc":
                columnar.write_table(table, path)
            else:
                csv_io.write_csv(table, path)
        except OSError as exc:
            return SaveStatus(errors=[f"{path}: {exc}"])
        return SaveStatus(files=[path], rows_written=table.num_rows)

    def merge(self, left: SaveStatus, right: SaveStatus) -> SaveStatus:
        return SaveStatus(
            files=sorted(left.files + right.files),
            rows_written=left.rows_written + right.rows_written,
            errors=left.errors + right.errors,
        )

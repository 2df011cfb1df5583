"""Exception hierarchy for the repro (Hillview reproduction) library.

All library-raised exceptions derive from :class:`HillviewError` so callers
can catch one base class.  The sub-classes mirror the major subsystems.
"""

from __future__ import annotations


class HillviewError(Exception):
    """Base class for every error raised by this library.

    ``code`` is a short machine-readable tag carried by RPC error
    envelopes, so remote clients can dispatch on the failure class
    without parsing messages.
    """

    code: str = "engine"


class SchemaError(HillviewError):
    """A column or table schema is inconsistent with an operation."""


class ColumnKindError(SchemaError):
    """An operation was applied to a column of an unsupported kind."""


class MissingColumnError(SchemaError):
    """A referenced column does not exist in the table."""

    def __init__(self, name: str, available: list[str] | None = None):
        self.name = name
        self.available = list(available) if available is not None else None
        detail = f"column {name!r} not found"
        if self.available is not None:
            detail += f"; available: {', '.join(self.available)}"
        super().__init__(detail)


class SerializationError(HillviewError):
    """A summary could not be encoded or decoded."""


class ProtocolError(HillviewError):
    """A malformed or unsupported RPC message."""

    code = "protocol"


class StorageError(HillviewError):
    """A data repository could not be read or written."""


class SnapshotViolationError(StorageError):
    """The storage layer detected that data changed under a snapshot."""


class EngineError(HillviewError):
    """The execution engine encountered an internal problem."""


class DatasetMissingError(EngineError):
    """A soft-state remote object was evicted and must be reconstructed.

    The root node catches this error and replays the redo log (paper §5.7).
    """

    def __init__(self, object_id: str, server: str | None = None):
        self.object_id = object_id
        self.server = server
        where = f" on server {server}" if server else ""
        super().__init__(f"dataset object {object_id!r} no longer exists{where}")


class CancelledError(EngineError):
    """A computation was cancelled by the user (paper §5.3)."""

    code = "cancelled"


class WorkerUnavailableError(EngineError):
    """A worker process died or its connection broke mid-request.

    The root treats this like any other soft-state loss (§5.8): respawn or
    reconnect the worker, replay lineage, and re-run the sketch — cumulative
    partials make the retry transparent to the streaming client.
    """

    code = "worker_unavailable"


class WorkerDrainingError(HillviewError):
    """The worker received SIGTERM and refuses new state-creating work."""

    code = "worker_draining"


class QueryError(HillviewError):
    """A baseline database query was malformed."""

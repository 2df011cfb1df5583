"""The REST dataset connector: OData-style reads over published datasets.

Spreadsheet add-ins and BI tools speak paged-row REST, not progressive
WebSocket streams.  This connector bridges the two worlds: datasets are
*published* under stable ids, and three read endpoints answer from the
same vizketch machinery the interactive UI uses —

* ``$metadata`` — the schema document (column names/kinds + row count),
  from the ``schema``/``rowCount`` RPC methods;
* ``rows?$top=N&$skip=M`` — a page of distinct sorted rows with
  repetition counts, served by the ``nextK`` sketch (fetch the first
  ``skip + top`` rows, return the slice);
* ``sample?count=N`` — a server-generated sample view: evenly spaced
  rows from the ``quantile`` sketch's uniform sample, so a connector can
  preview a trillion-cell table with one bounded query.

Everything here is *blocking* by design: the gateway's asyncio loop calls
it through ``run_in_executor``, and tests can drive it directly.  Queries
execute on the connector's own service session (resolved per call, so
session expiry is survived transparently via the session manager's
store-resume path), through the transport-free
:meth:`~repro.engine.web.WebServer.execute` facade — REST reads are
synchronous request/response and must not preempt each other the way
interactive sketches do under newest-query-wins.
"""

from __future__ import annotations

import itertools
import threading

from repro.engine.rpc import RpcReply, RpcRequest
from repro.errors import HillviewError
from repro.obs.trace import TraceContext
from repro.service.sessions import Session, SessionManager

#: ``$top`` defaults and bounds: a page is a rendering, not an export.
DEFAULT_TOP = 100
MAX_TOP = 10_000
#: ``$skip + $top`` may not exceed this (nextK materializes the prefix).
MAX_WINDOW = 100_000
#: ``sample?count=`` bound.
MAX_SAMPLE = 10_000


class ConnectorError(HillviewError):
    """A connector-level failure; ``code`` picks the HTTP status."""

    code = "bad_request"

    def __init__(self, message: str, code: str = "bad_request"):
        super().__init__(message)
        self.code = code


class DatasetConnector:
    """Published datasets + OData-style reads over one service session."""

    def __init__(
        self,
        sessions: SessionManager,
        session_id: str = "gateway-connector",
        query_timeout_seconds: float = 120.0,
    ):
        self.sessions = sessions
        self.session_id = session_id
        self.query_timeout_seconds = query_timeout_seconds
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: dataset id -> the source spec that rebuilds it.  The spec, not
        #: the handle, is durable: sessions are soft state, so the handle
        #: is re-minted lazily whenever the backing session is reborn.
        self._published: dict[str, dict] = {}
        #: dataset id -> (session incarnation, handle) — valid only while
        #: the session object is the same one the handle was minted on.
        self._handles: dict[str, tuple[Session, str]] = {}

    # -- session + query plumbing --------------------------------------
    def _session(self) -> Session:
        return self.sessions.get_or_create(self.session_id)

    def _run(
        self,
        session: Session,
        method: str,
        target: str = "",
        args: dict | None = None,
        trace: TraceContext | None = None,
    ) -> RpcReply:
        """Execute one request to its terminal reply; raise on error."""
        request = RpcRequest(next(self._ids), target, method, args or {})
        if trace is not None:
            request.trace = trace.to_json()
        terminal: RpcReply | None = None
        for reply in session.web.execute(request):
            session.record_reply(reply)
            terminal = reply
        assert terminal is not None  # execute always yields a terminal
        if terminal.kind == "error":
            raise ConnectorError(
                str(terminal.error), code=terminal.code or "engine"
            )
        return terminal

    # -- publication ----------------------------------------------------
    def publish(self, name: str, source: dict | None = None) -> dict:
        """Publish ``source`` (``{}`` = the server default) under ``name``."""
        if not name or "/" in name:
            raise ConnectorError(f"invalid dataset name {name!r}")
        spec = source if isinstance(source, dict) else {}
        with self._lock:
            self._published[name] = spec
            self._handles.pop(name, None)
        session, handle = self._resolve(name)
        count = self._run(session, "rowCount", target=handle)
        return {"dataset": name, "rows": count.payload["rows"]}

    def unpublish(self, name: str) -> bool:
        with self._lock:
            self._handles.pop(name, None)
            return self._published.pop(name, None) is not None

    def datasets(self) -> list[str]:
        with self._lock:
            return sorted(self._published)

    def _resolve(self, name: str) -> tuple[Session, str]:
        """The (session, handle) pair for a published dataset, re-loading
        through the session's source resolver when the session has been
        reborn since the handle was minted."""
        with self._lock:
            spec = self._published.get(name)
        if spec is None:
            raise ConnectorError(
                f"no published dataset {name!r}", code="not_found"
            )
        session = self._session()
        with self._lock:
            cached = self._handles.get(name)
            if cached is not None and cached[0] is session:
                return cached
        reply = self._run(session, "load", args={"source": spec})
        resolved = (session, str(reply.payload["handle"]))
        with self._lock:
            self._handles[name] = resolved
        return resolved

    # -- reads ----------------------------------------------------------
    def metadata(self, name: str, trace: TraceContext | None = None) -> dict:
        """The ``$metadata`` schema document."""
        session, handle = self._resolve(name)
        schema = self._run(session, "schema", target=handle, trace=trace)
        count = self._run(session, "rowCount", target=handle, trace=trace)
        return {
            "dataset": name,
            "rows": count.payload["rows"],
            "columns": schema.payload["columns"],
        }

    def _order_spec(
        self, session: Session, handle: str, orderby: str | None
    ) -> list[dict]:
        """``$orderby`` ("Col" / "Col desc" / comma list) as a wire order.

        Without ``$orderby`` the order is the full schema, ascending — the
        row tuples then carry every column, which is what a tabular
        connector wants from ``rows``.
        """
        columns = self._run(session, "schema", target=handle).payload["columns"]
        known = {c["name"] for c in columns}
        if not orderby:
            return [
                {"column": c["name"], "ascending": True} for c in columns
            ]
        order: list[dict] = []
        for part in orderby.split(","):
            words = part.strip().split()
            if not words or len(words) > 2:
                raise ConnectorError(f"malformed $orderby clause {part!r}")
            column = words[0]
            if column not in known:
                raise ConnectorError(f"unknown $orderby column {column!r}")
            ascending = True
            if len(words) == 2:
                if words[1].lower() not in ("asc", "desc"):
                    raise ConnectorError(
                        f"$orderby direction must be asc/desc, got {words[1]!r}"
                    )
                ascending = words[1].lower() == "asc"
            order.append({"column": column, "ascending": ascending})
        return order

    def rows(
        self,
        name: str,
        top: int = DEFAULT_TOP,
        skip: int = 0,
        orderby: str | None = None,
        trace: TraceContext | None = None,
    ) -> dict:
        """One page of distinct sorted rows (``$top``/``$skip`` paging)."""
        top = int(top)
        skip = int(skip)
        if top < 1 or top > MAX_TOP:
            raise ConnectorError(f"$top must be in [1, {MAX_TOP}]")
        if skip < 0 or skip + top > MAX_WINDOW:
            raise ConnectorError(
                f"$skip + $top may not exceed {MAX_WINDOW}"
            )
        session, handle = self._resolve(name)
        order = self._order_spec(session, handle, orderby)
        reply = self._run(
            session,
            "sketch",
            target=handle,
            args={"sketch": {"type": "nextK", "order": order, "k": skip + top}},
            trace=trace,
        )
        payload = reply.payload
        all_rows = payload["rows"]
        page = {
            "dataset": name,
            "columns": [o["column"] for o in order],
            "rows": all_rows[skip : skip + top],
            "counts": payload["counts"][skip : skip + top],
            "skip": skip,
            "top": top,
            "scanned": payload["scanned"],
        }
        if len(all_rows) == skip + top:
            # The window was full, so more distinct rows may follow.
            page["nextSkip"] = skip + top
        return page

    def sample(
        self,
        name: str,
        count: int = 100,
        seed: int = 0,
        orderby: str | None = None,
        trace: TraceContext | None = None,
    ) -> dict:
        """A server-generated sample view: ``count`` evenly spaced rows
        from the quantile sketch's uniform sample."""
        count = int(count)
        if count < 1 or count > MAX_SAMPLE:
            raise ConnectorError(f"count must be in [1, {MAX_SAMPLE}]")
        session, handle = self._resolve(name)
        order = self._order_spec(session, handle, orderby)
        total = self._run(session, "rowCount", target=handle).payload["rows"]
        # Oversample 4x so decimation inside the sketch still leaves at
        # least ``count`` rows to space the view across; rate 1.0 on
        # small datasets degrades to "every row, then thin".
        rate = min(1.0, (4.0 * count) / total) if total else 1.0
        reply = self._run(
            session,
            "sketch",
            target=handle,
            args={
                "sketch": {
                    "type": "quantile",
                    "order": order,
                    "rate": rate,
                    "seed": int(seed),
                }
            },
            trace=trace,
        )
        samples = reply.payload["samples"]
        if len(samples) > count:
            step = len(samples) / count
            samples = [samples[int(i * step)] for i in range(count)]
        return {
            "dataset": name,
            "columns": [o["column"] for o in order],
            "rows": samples,
            "requested": count,
            "scanned": reply.payload["scanned"],
        }

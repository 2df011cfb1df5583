"""An interactive terminal spreadsheet: the browser UI's stand-in.

Hillview's front end is a web page; this module provides the same
explore-loop in a terminal so a downstream user can actually *browse* —
sort, page, scroll, chart, filter, derive, search — against any supported
data source::

    python -m repro.cli flights.csv
    python -m repro.cli data.db --sql-table events
    python -m repro.cli --demo-flights 200000

The same binary also runs the concurrent multi-client service layer and
the worker daemons of a process-level fleet, and ``client`` runs this
same command loop over a served dataset (a
:class:`~repro.gateway.RemoteDataSet`)::

    python -m repro.cli serve --demo-flights 500000 --port 8947
    python -m repro.cli serve --demo-flights 500000 --spawn --workers 8
    python -m repro.cli worker --listen 0.0.0.0:9301 --cores 8
    python -m repro.cli serve --join host-a:9301,host-b:9301 \
        --session-store sessions.db --port 8948
    python -m repro.cli client --port 8947 --commands "rows; hist Distance"
    python -m repro.cli client flights.csv --port 8947
    python -m repro.cli fleet status --join @fleet.txt
    python -m repro.cli fleet top --join @fleet.txt
    python -m repro.cli fleet grow --join @fleet.txt --add host-c:9301
    python -m repro.cli fleet shrink --join @fleet.txt --remove host-b:9301
    python -m repro.cli fleet drain --root 127.0.0.1:8948

Commands (also shown by ``help``)::

    cols                         show the schema
    view <col> [col...]          sort by columns and show the top rows
    next / prev                  page forward / backward (§3.3)
    scroll <fraction>            jump the scroll bar, e.g. scroll 0.5
    find <col> <text>            jump to the next match
    hist <col>                   histogram + CDF
    stack <x> <y>                stacked histogram
    heat <x> <y>                 heat map
    trellis <group> <x>          array of histograms grouped by a column
    top <col> [k]                heavy hitters
    distinct <col>               approximate distinct count
    summary <col>                min/max/mean/missing
    filter <col> <op> <value>    keep matching rows (e.g. filter delay > 60)
    derive <name> <expression>   new column, e.g. derive gain "dep - arr"
    reset                        drop all filters/derivations
    rows                         total row count
    log                          what ran, with bytes and latencies
    stats                        the root's sessions and queries (client)
    metrics                      the root's caches and workers (client)
    trace <command>              run a command traced; write its spans (client)
    quit

The command loop is a thin translation layer onto
:class:`~repro.spreadsheet.Spreadsheet` — every keystroke still becomes a
vizketch execution tree, exactly like clicks in the real UI (§7.3).
"""

from __future__ import annotations

import argparse
import shlex
import sys
from collections import Counter
from typing import Callable, Iterable, TextIO

from repro.engine.cluster import Cluster
from repro.errors import HillviewError
from repro.spreadsheet import Spreadsheet
from repro.storage.loader import DataSource, TableSource, source_for_path
from repro.table.compute import ColumnPredicate
from repro.table.sort import RecordOrder


class Session:
    """One interactive exploration session over a spreadsheet."""

    def __init__(self, sheet: Spreadsheet, out: TextIO | None = None):
        self.root_sheet = sheet
        self.sheet = sheet
        self.out = out if out is not None else sys.stdout
        self.view = None
        self._commands: dict[str, Callable[[list[str]], None]] = {
            "cols": self.cmd_cols,
            "view": self.cmd_view,
            "next": self.cmd_next,
            "prev": self.cmd_prev,
            "scroll": self.cmd_scroll,
            "find": self.cmd_find,
            "hist": self.cmd_hist,
            "stack": self.cmd_stack,
            "heat": self.cmd_heat,
            "trellis": self.cmd_trellis,
            "top": self.cmd_top,
            "distinct": self.cmd_distinct,
            "summary": self.cmd_summary,
            "filter": self.cmd_filter,
            "derive": self.cmd_derive,
            "reset": self.cmd_reset,
            "rows": self.cmd_rows,
            "log": self.cmd_log,
            "help": self.cmd_help,
        }

    # -- plumbing ------------------------------------------------------
    def print(self, text: str = "") -> None:
        print(text, file=self.out)

    def execute(self, line: str) -> bool:
        """Run one command line; returns False when the session should end."""
        try:
            words = shlex.split(line.strip())
        except ValueError as exc:
            self.print(f"parse error: {exc}")
            return True
        if not words:
            return True
        name, args = words[0].lower(), words[1:]
        if name in ("quit", "exit", "q"):
            return False
        handler = self._commands.get(name)
        if handler is None:
            self.print(f"unknown command {name!r}; try 'help'")
            return True
        try:
            handler(args)
        except HillviewError as exc:
            self.print(f"error: {exc}")
        except (ValueError, KeyError, IndexError) as exc:
            self.print(f"error: {exc}")
        return True

    def run(self, lines: Iterable[str], prompt: bool = False) -> None:
        if prompt:
            self.print("hillview> type 'help' for commands, 'quit' to leave")
        for line in lines:
            if prompt:
                self.print(f"hillview> {line.strip()}")
            if not self.execute(line):
                break

    def _require_column(self, name: str) -> str:
        if name not in self.sheet.schema.names:
            raise HillviewError(
                f"no column {name!r}; 'cols' lists the schema"
            )
        return name

    # -- commands ------------------------------------------------------
    def cmd_help(self, args: list[str]) -> None:
        self.print(__doc__.split("Commands", 1)[1].split("::", 1)[1])

    def cmd_cols(self, args: list[str]) -> None:
        for desc in self.sheet.schema:
            self.print(f"  {desc.name}: {desc.kind.value}")

    def cmd_rows(self, args: list[str]) -> None:
        self.print(f"{self.sheet.total_rows:,} rows")

    def cmd_view(self, args: list[str]) -> None:
        if not args:
            raise HillviewError("view needs at least one sort column")
        columns = [self._require_column(c) for c in args]
        self.view = self.sheet.table_view(RecordOrder.of(*columns), k=15)
        self.print(self.view.ascii())

    def cmd_next(self, args: list[str]) -> None:
        if self.view is None:
            raise HillviewError("no view yet; use 'view <col>' first")
        self.view = self.sheet.next_page(self.view)
        self.print(self.view.ascii())

    def cmd_prev(self, args: list[str]) -> None:
        if self.view is None:
            raise HillviewError("no view yet; use 'view <col>' first")
        self.view = self.sheet.prev_page(self.view)
        self.print(self.view.ascii())

    def cmd_scroll(self, args: list[str]) -> None:
        if self.view is None:
            raise HillviewError("no view yet; use 'view <col>' first")
        fraction = float(args[0]) if args else 0.5
        self.view = self.sheet.scroll(fraction, self.view.order, k=15)
        self.print(f"[scrolled to ~{self.view.scroll_position:.0%}]")
        self.print(self.view.ascii())

    def cmd_find(self, args: list[str]) -> None:
        if len(args) < 2:
            raise HillviewError("usage: find <col> <text>")
        column = self._require_column(args[0])
        pattern = " ".join(args[1:])
        result, view = self.sheet.find(column, pattern)
        if view is None:
            self.print(f"no match for {pattern!r}")
            return
        self.view = view
        self.print(f"{result.total_matches:,} matches; showing the first:")
        self.print(view.ascii())

    def cmd_hist(self, args: list[str]) -> None:
        if not args:
            raise HillviewError("usage: hist <col>")
        chart = self.sheet.histogram(self._require_column(args[0]))
        self.print(chart.ascii(height=10))
        if chart.rate < 1.0:
            self.print(f"(sampled at rate {chart.rate:.4f}; "
                       "bars within one pixel w.h.p.)")

    def cmd_stack(self, args: list[str]) -> None:
        if len(args) < 2:
            raise HillviewError("usage: stack <x> <y>")
        chart = self.sheet.stacked_histogram(
            self._require_column(args[0]), self._require_column(args[1])
        )
        rendering = chart.rendering()
        self.print(
            f"stacked histogram: {chart.summary.x_buckets} bars x "
            f"{chart.summary.y_buckets} colors; tallest bar "
            f"{rendering.heights.max()} px"
        )

    def cmd_heat(self, args: list[str]) -> None:
        if len(args) < 2:
            raise HillviewError("usage: heat <x> <y>")
        chart = self.sheet.heatmap(
            self._require_column(args[0]), self._require_column(args[1])
        )
        self.print(chart.ascii())

    def cmd_trellis(self, args: list[str]) -> None:
        if len(args) < 2:
            raise HillviewError("usage: trellis <group> <x>")
        chart = self.sheet.trellis_histogram(
            self._require_column(args[0]),
            self._require_column(args[1]),
            panes=4,
        )
        self.print(chart.ascii(panes=4, height=5))

    def cmd_top(self, args: list[str]) -> None:
        if not args:
            raise HillviewError("usage: top <col> [k]")
        k = int(args[1]) if len(args) > 1 else 10
        # The sketch's K is a frequency threshold (finds values above 1/K);
        # query finer than the display count so a small k still shows rows.
        result = self.sheet.heavy_hitters(
            self._require_column(args[0]), k=max(2 * k, 20)
        )
        hitters = result.frequencies()[:k]
        if not hitters:
            self.print("  (no value is frequent enough to report)")
        for value, fraction in hitters:
            self.print(f"  {value}: {fraction:.2%}")

    def cmd_distinct(self, args: list[str]) -> None:
        if not args:
            raise HillviewError("usage: distinct <col>")
        estimate = self.sheet.distinct_count(self._require_column(args[0]))
        self.print(f"~{estimate:,.0f} distinct values")

    def cmd_summary(self, args: list[str]) -> None:
        if not args:
            raise HillviewError("usage: summary <col>")
        stats = self.sheet.column_summary(self._require_column(args[0]))
        self.print(
            f"  rows {stats.row_count:,} (missing {stats.missing_count:,})\n"
            f"  min {stats.min_value}  max {stats.max_value}\n"
            f"  mean {stats.mean:.3f}  std {stats.std_dev:.3f}"
        )

    def cmd_filter(self, args: list[str]) -> None:
        if len(args) < 2:
            raise HillviewError("usage: filter <col> <op> <value>")
        column = self._require_column(args[0])
        op = args[1]
        value: object = None
        if op != "is_missing":
            if len(args) < 3:
                raise HillviewError("usage: filter <col> <op> <value>")
            raw = args[2]
            if self.sheet.schema.kind(column).is_numeric:
                value = float(raw)
            else:
                value = raw
        self._replace_sheet(self.sheet.filter_rows(ColumnPredicate(column, op, value)))
        self.view = None
        self.print(f"filtered: {self.sheet.total_rows:,} rows remain")

    def cmd_derive(self, args: list[str]) -> None:
        if len(args) < 2:
            raise HillviewError("usage: derive <name> <expression>")
        name, expression = args[0], " ".join(args[1:])
        self._replace_sheet(self.sheet.derive_expression(name, expression))
        stats = self.sheet.column_summary(name)
        self.print(
            f"derived {name!r}: mean {stats.mean:.3f}, "
            f"{stats.missing_count:,} missing"
        )

    def cmd_reset(self, args: list[str]) -> None:
        self._replace_sheet(self.root_sheet)
        self.view = None
        self.print("back to the full dataset")

    def _replace_sheet(self, sheet: Spreadsheet) -> None:
        """Move to ``sheet``; the sheet left behind releases its dataset
        (a server handle over the wire) unless it is the root sheet's."""
        left, self.sheet = self.sheet, sheet
        if left.dataset is not self.root_sheet.dataset:
            left.dataset.release()

    def cmd_log(self, args: list[str]) -> None:
        for line in self.sheet.log.describe()[-15:]:
            self.print(f"  {line}")


def build_session(args: argparse.Namespace, out: TextIO | None = None) -> Session:
    cluster = Cluster(num_workers=args.workers)
    if args.demo_flights:
        from repro.data.flights import generate_flights

        table = generate_flights(args.demo_flights, seed=1)
        source: DataSource = TableSource([table], shards_per_table=args.workers * 4)
    else:
        if not args.path:
            raise HillviewError("give a data file, or --demo-flights N")
        source = source_for_path(args.path, args.sql_table)
    dataset = cluster.load(source)
    return Session(Spreadsheet(dataset), out=out)


# ---------------------------------------------------------------------------
# The service layer: `repro serve` and `repro client`
# ---------------------------------------------------------------------------
def _serve_source(args: argparse.Namespace) -> DataSource | None:
    """The server's default dataset, if any was configured."""
    if args.demo_flights:
        from repro.data.flights import FlightsSource

        return FlightsSource(
            args.demo_flights, partitions=args.workers * 8, seed=1
        )
    if args.path:
        return source_for_path(args.path, args.sql_table)
    return None


def serve_main(argv: list[str]) -> int:
    """`repro serve`: run the concurrent multi-client service behind its
    HTTP/WebSocket gateway (``docs/GATEWAY_API.md``)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="Serve a dataset to concurrent sessions over "
                    "HTTP/WebSocket.",
    )
    parser.add_argument("path", nargs="?", help="CSV/JSONL/log/SQLite/hvc path")
    parser.add_argument("--sql-table", help="table name for SQLite sources")
    parser.add_argument(
        "--demo-flights", type=int, metavar="N",
        help="serve N synthetic flight rows as the default dataset",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--spawn", action="store_true",
        help="run workers as spawned subprocesses instead of threads",
    )
    parser.add_argument(
        "--join", metavar="FLEET",
        help="join a shared worker fleet as one of several roots: "
             "'host:port,host:port' or '@file' with one address per line; "
             "roots adopt the fleet's shard placement instead of slicing "
             "it themselves",
    )
    parser.add_argument(
        "--session-store", metavar="PATH",
        help="shared session store so clients can resume a session id on "
             "any root of the tier ('memory' or a SQLite file path; "
             "default: memory)",
    )
    parser.add_argument(
        "--session-store-ttl", type=float, metavar="SECONDS",
        help="compact the shared session store: records idle longer than "
             "this are purged by the sweep loop (default: never)",
    )
    parser.add_argument(
        "--cores-per-worker", type=int, default=4,
        help="leaf thread pool size per worker",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8947,
        help="HTTP/WebSocket listen port (0 picks a free one)",
    )
    parser.add_argument(
        "--max-concurrent", type=int, default=4,
        help="query scheduler concurrency (fair-share across sessions)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=15.0, metavar="SECONDS",
        help="WebSocket heartbeat interval",
    )
    parser.add_argument(
        "--resume-grace", type=float, default=60.0, metavar="SECONDS",
        help="seconds a disconnected session's streams stay resumable",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit one-line JSON log records (stamped with trace/session "
             "ids) instead of staying quiet",
    )
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        help="enable structured logging at this level (text mode unless "
             "--log-json)",
    )
    args = parser.parse_args(argv)

    import threading

    from repro.gateway import PROTOCOL_VERSION, GatewayServer
    from repro.obs.logs import configure_logging
    from repro.obs.trace import set_service_name
    from repro.service import ServiceServer, open_session_store

    if args.log_json or args.log_level:
        configure_logging(
            json_mode=args.log_json or None, level=args.log_level
        )
    set_service_name("root")

    if args.join:
        from repro.engine.remote import ProcessCluster
        from repro.service import parse_fleet_spec

        addresses = parse_fleet_spec(args.join)
        cluster = ProcessCluster(addresses=addresses)
        topology = (
            f"joined a shared fleet of {len(addresses)} worker processes"
        )
    elif args.spawn:
        from repro.engine.remote import ProcessCluster

        cluster = ProcessCluster(
            num_workers=args.workers, cores_per_worker=args.cores_per_worker
        )
        topology = f"{args.workers} spawned worker processes"
    else:
        cluster = Cluster(
            num_workers=args.workers, cores_per_worker=args.cores_per_worker
        )
        topology = f"{args.workers} in-process workers"

    service = ServiceServer(
        cluster,
        max_concurrent=args.max_concurrent,
        default_source=_serve_source(args),
        session_store=open_session_store(args.session_store),
        session_store_ttl_seconds=args.session_store_ttl,
    )
    gateway = GatewayServer(
        service,
        host=args.host,
        port=args.port,
        heartbeat_interval_seconds=args.heartbeat,
        resume_grace_seconds=args.resume_grace,
    )
    try:
        host, port = gateway.start_background()
        print(f"hillview service on http://{host}:{port} "
              f"(protocol v{PROTOCOL_VERSION}; {topology}, "
              f"{args.max_concurrent} query slots)", flush=True)
        try:
            threading.Event().wait()  # serve until Ctrl-C
        except KeyboardInterrupt:
            pass
    finally:
        gateway.close()
        service.close()
        cluster.close()
    return 0


def _tier_line(label: str, cache: dict) -> str:
    """One cache tier's counters (a ``CacheStats.to_json`` object)."""
    return (
        f"{label}: {cache['entries']} entries, {cache['bytes']:,}B, "
        f"{cache['hits']} hits / {cache['misses']} misses, "
        f"{cache['evictions']} evictions"
    )


def _worker_line(snap: dict) -> str:
    """One worker's ``metricsSnapshot`` as a status line — what both
    ``repro fleet top`` and ``repro client metrics`` print.  The fields
    only a daemon reports (queue, CPU, faults...) appear when present."""
    label = "  ".join(str(snap[key]) for key in ("address", "name") if key in snap)
    if "error" in snap:
        return f"{label}: DOWN ({snap['error']})"
    line = label
    if "inflight" in snap:
        line += f"  queue {snap['inflight']}  served {snap['requestsServed']}"
    line += (
        f"  shards {snap['shardsSummarized']}"
        f"  memo {snap['memo']['hitRate']:.0%}"
        f"  store {snap['store']['hitRate']:.0%}"
        f"  stolen {snap['slicesStolen']}/{snap['slicesDonated']}"
        f"  warmed {snap['entriesWarmed']}"
    )
    if "cpuSeconds" in snap:
        line += (
            f"  cpu {snap['cpuSeconds']:.1f}s  faults {snap['minorFaults']}"
            f"  v{snap['placementVersion']}  spans {snap['spansBuffered']}"
        )
        if snap["draining"]:
            line += " DRAINING"
    return line


def remote_session(dataset, http, out: TextIO | None = None) -> Session:
    """`repro client`'s REPL: a :class:`Session` over ``dataset`` (a
    :class:`~repro.gateway.RemoteDataSet`), plus three operational
    commands that read the root's own state over HTTP (``http``, a
    :class:`~repro.gateway.GatewayClient`)."""
    session = Session(Spreadsheet(dataset), out=out)
    ws = dataset.socket

    def stats(args: list[str]) -> None:
        snap = http.stats()
        scheduler = snap["scheduler"]
        session.print(
            f"  sessions: {len(snap['sessions']['sessions'])} live, "
            f"{snap['sessions']['sessionsCreated']} created"
        )
        session.print(
            f"  queries: {scheduler['admitted']} admitted, "
            f"{scheduler['completed']} completed, "
            f"{scheduler['preempted']} preempted, "
            f"{scheduler['rejected']} rejected"
        )

    def metrics(args: list[str]) -> None:
        snap = http.metrics()
        scheduler = snap["scheduler"]
        session.print(
            f"  scheduler: {scheduler['admitted']} admitted, "
            f"{scheduler['completed']} completed, "
            f"{scheduler['peakRunning']} peak running"
        )
        cluster = snap["cluster"]
        computation = cluster["computation"]
        if computation["disabled"]:
            session.print("  caches DISABLED (REPRO_DISABLE_CACHES)")
        session.print(
            f"  cluster: placement v{cluster['placementVersion']}, "
            f"{cluster['rebalances']} rebalances, "
            f"{cluster['bytesToRoot']:,}B to root"
        )
        session.print(f"  {_tier_line('root/computation', computation)}")
        for worker in cluster["workers"]:
            session.print(f"  {_worker_line(worker)}")
            if "error" not in worker:
                for tier in ("store", "memo"):
                    session.print(f"    {_tier_line(tier, worker[tier])}")
        mine = next(
            (s["metrics"] for s in snap["sessions"]["sessions"]
             if s["session"] == ws.session),
            {},
        )
        session.print(
            f"  this session: {mine.get('cacheHits', 0)} root hits, "
            f"{mine.get('workerCacheHits', 0)} worker partial hits"
        )

    def trace(args: list[str]) -> None:
        # `trace hist Distance`: run the command under a fresh trace
        # context, then fetch the merged root+worker span timeline and
        # write it as Chrome trace-event JSON.
        if not args:
            raise HillviewError("usage: trace <command>")
        import json

        from repro.obs.trace import TraceContext, chrome_trace, use_context

        ctx = TraceContext.new_root()
        with use_context(ctx):
            session.execute(shlex.join(args))
        spans = http.traces(ctx.trace_id)["spans"]
        path = f"trace-{ctx.trace_id}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(spans), fh)
        by_service = Counter(str(s.get("service", "?")) for s in spans)
        if spans:
            first = min(float(s.get("start", 0.0)) for s in spans)
            last = max(
                float(s.get("start", 0.0)) + float(s.get("duration", 0.0))
                for s in spans
            )
            session.print(
                f"trace {ctx.trace_id}: {len(spans)} spans over "
                f"{last - first:.3f}s"
            )
        else:
            session.print(f"trace {ctx.trace_id}: no spans recorded")
        for service in sorted(by_service):
            session.print(f"  {service}: {by_service[service]} spans")
        session.print(f"wrote {path} (open in Perfetto / chrome://tracing)")

    session._commands.update(stats=stats, metrics=metrics, trace=trace)
    return session


def _fleet_autoscale(args, addresses, stream: TextIO) -> int:
    """`repro fleet autoscale`: bind the control loop to a live fleet.

    ``--join`` names the current members, ``--pool`` the standby worker
    daemons the loop may grow into.  Grow takes daemons from the front
    of the pool; shrink retires the most recently added members first
    (LIFO), returning them to the pool — the operator-given core fleet
    is the last to go, and an oscillation (which hysteresis should
    prevent anyway) cycles the same standbys instead of churning
    through new ones.
    """
    from repro.engine.placement import format_address, parse_fleet_spec
    from repro.engine.remote import ProcessCluster, query_fleet_metrics
    from repro.service.autoscaler import Autoscaler, AutoscalerConfig

    members = list(addresses)
    pool = [
        a
        for a in (parse_fleet_spec(args.pool) if args.pool else [])
        if a not in members
    ]

    def sample() -> list[dict]:
        return query_fleet_metrics(members)

    def grow(count: int) -> None:
        take = pool[:count]
        if not take:
            raise HillviewError("standby pool exhausted; cannot grow")
        # preserve_cadence: administrative attach, like grow/shrink above.
        cluster = ProcessCluster(addresses=members, preserve_cadence=True)
        try:
            cluster.grow(take)
        finally:
            cluster.close()
        del pool[: len(take)]
        members.extend(take)

    def shrink(count: int) -> None:
        victims = members[-count:]
        cluster = ProcessCluster(addresses=members, preserve_cadence=True)
        try:
            cluster.shrink(victims)
        finally:
            cluster.close()
        del members[-count:]
        pool[:0] = victims

    scaler = Autoscaler(
        sample,
        grow,
        shrink,
        config=AutoscalerConfig(
            min_workers=args.min,
            max_workers=args.max,
            high_watermark=args.high,
            low_watermark=args.low,
            consecutive_ticks=args.ticks,
            cooldown_seconds=args.cooldown,
            interval_seconds=args.interval,
        ),
        state_path=args.state,
    )

    def report(decision) -> None:
        fleet = ",".join(format_address(a) for a in members)
        print(
            f"[{decision.action}] size {decision.size} -> "
            f"{decision.target}  pressure {decision.pressure:.2f}/core  "
            f"{decision.reason}  fleet=[{fleet}]",
            file=stream,
        )

    print(
        f"autoscaling {len(members)} worker(s), pool of {len(pool)} "
        f"standby(s), every {args.interval:g}s "
        f"(watermarks {args.low:g}/{args.high:g}, "
        f"cooldown {args.cooldown:g}s)",
        file=stream,
    )
    try:
        scaler.run(max_ticks=args.max_ticks, on_decision=report)
    except KeyboardInterrupt:
        print("autoscaler stopped", file=stream)
    return 0


def fleet_main(argv: list[str], out: TextIO | None = None) -> int:
    """`repro fleet`: operate a live worker fleet / root tier.

    Subcommands::

        status    --join FLEET                 placement + inventory per worker
        top       --join FLEET                 live metrics per worker daemon
        grow      --join FLEET --add H:P ...   add daemons, re-balance shards
        shrink    --join FLEET --remove H:P .. retire daemons, re-balance
        drain     --root H:P                   root: persist sessions, refuse new
        undrain   --root H:P                   root: return to rotation
        autoscale --join FLEET --pool SPEC     metrics-driven resize loop

    ``grow``/``shrink`` attach a transient administrative root to the
    fleet, stream only the moved shard slices between daemons, and bump
    the placement version; serving roots adopt the new assignment on
    their next request (stale-version requests are rejected and retried
    internally — clients never notice).
    """
    stream = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro.cli fleet",
        description="Operate a live worker fleet (grow/shrink/drain).",
    )
    parser.add_argument(
        "action",
        choices=[
            "status", "top", "grow", "shrink", "drain", "undrain",
            "autoscale",
        ],
    )
    parser.add_argument(
        "--join", metavar="FLEET",
        help="the current fleet: 'host:port,...' or '@file' "
             "(status/grow/shrink)",
    )
    parser.add_argument(
        "--add", action="append", metavar="HOST:PORT", default=[],
        help="daemon to add (grow; repeatable)",
    )
    parser.add_argument(
        "--remove", action="append", metavar="HOST:PORT", default=[],
        help="daemon to retire (shrink; repeatable)",
    )
    parser.add_argument(
        "--root", metavar="HOST:PORT",
        help="the gateway address of the root to drain/undrain",
    )
    parser.add_argument(
        "--pool", metavar="SPEC", default=None,
        help="standby daemons the autoscaler may grow into: "
             "'host:port,...' or '@file' (autoscale)",
    )
    parser.add_argument(
        "--state", metavar="FILE", default=None,
        help="autoscaler state file, read back by `fleet top` "
             "(autoscale/top)",
    )
    parser.add_argument(
        "--min", type=int, default=1, help="minimum fleet size (autoscale)"
    )
    parser.add_argument(
        "--max", type=int, default=8, help="maximum fleet size (autoscale)"
    )
    parser.add_argument(
        "--high", type=float, default=3.0,
        help="grow above this pressure/core (autoscale)",
    )
    parser.add_argument(
        "--low", type=float, default=0.5,
        help="shrink below this pressure/core (autoscale)",
    )
    parser.add_argument(
        "--cooldown", type=float, default=30.0,
        help="seconds between resize actions (autoscale)",
    )
    parser.add_argument(
        "--ticks", type=int, default=3,
        help="consecutive agreeing samples before acting (autoscale)",
    )
    parser.add_argument(
        "--interval", type=float, default=5.0,
        help="sampling cadence in seconds (autoscale)",
    )
    parser.add_argument(
        "--max-ticks", type=int, default=None,
        help="stop the autoscale loop after N samples (default: forever)",
    )
    args = parser.parse_args(argv)

    from repro.engine.placement import parse_address, parse_fleet_spec
    from repro.engine.remote import ProcessCluster, query_fleet

    def print_fleet(addresses) -> None:
        for report in query_fleet(addresses):
            if "error" in report:
                print(f"  {report['address']}: DOWN ({report['error']})",
                      file=stream)
                continue
            if report.get("retired"):
                place = "retired"
            elif report.get("index") is None:
                place = "unplaced"
            else:
                place = f"slice {report['index']}/{report['count']}"
            datasets = report.get("datasets") or {}
            shard_count = sum(
                entry.get("shards", 0) if isinstance(entry, dict) else entry
                for entry in datasets.values()
            )
            print(
                f"  {report['address']}  {report.get('name', '?')}  "
                f"{place}  v{report.get('version', 0)}  "
                f"{len(datasets)} dataset(s), {shard_count} shard(s)",
                file=stream,
            )

    if args.action in ("drain", "undrain"):
        if not args.root:
            raise HillviewError(f"{args.action} needs --root host:port")
        from repro.gateway import GatewayClient

        with GatewayClient(*parse_address(args.root)) as root:
            payload = root.post(f"/api/v1/{args.action}")
        if args.action == "drain":
            print(
                f"root {args.root} draining: {payload.get('persisted', 0)} "
                f"session(s) persisted to the shared store",
                file=stream,
            )
        else:
            print(f"root {args.root} back in rotation", file=stream)
        return 0

    if not args.join:
        raise HillviewError(f"{args.action} needs --join FLEET")
    addresses = parse_fleet_spec(args.join)
    if args.action == "status":
        print(f"fleet of {len(addresses)} worker daemon(s):", file=stream)
        print_fleet(addresses)
        return 0
    if args.action == "top":
        from repro.engine.remote import query_fleet_metrics
        from repro.service.autoscaler import read_state

        state = read_state(args.state) if args.state else None
        if state is not None:
            last = state.get("lastDecision") or {}
            print(
                f"autoscaler: target {state.get('target', '?')}  "
                f"last {last.get('action', '?')} "
                f"({last.get('reason', 'no decision yet')})",
                file=stream,
            )
        print(f"fleet of {len(addresses)} worker daemon(s):", file=stream)
        for snap in query_fleet_metrics(addresses):
            print(f"  {_worker_line(snap)}", file=stream)
        return 0
    if args.action == "autoscale":
        return _fleet_autoscale(args, addresses, stream)

    # preserve_cadence: this administrative attach must not rewrite the
    # serving tier's aggregation interval with our own default.
    cluster = ProcessCluster(addresses=addresses, preserve_cadence=True)
    try:
        if args.action == "grow":
            if not args.add:
                raise HillviewError("grow needs at least one --add host:port")
            count = cluster.grow([parse_address(a) for a in args.add])
            print(
                f"fleet grown to {count} workers "
                f"(placement v{cluster.placement_version}):",
                file=stream,
            )
        else:
            if not args.remove:
                raise HillviewError(
                    "shrink needs at least one --remove host:port"
                )
            count = cluster.shrink([parse_address(a) for a in args.remove])
            print(
                f"fleet shrunk to {count} workers "
                f"(placement v{cluster.placement_version}):",
                file=stream,
            )
        print_fleet([w.address for w in cluster.workers])
    finally:
        cluster.close()
    return 0


def client_main(argv: list[str], out: TextIO | None = None) -> int:
    """`repro client`: the terminal spreadsheet over a running service."""
    parser = argparse.ArgumentParser(
        prog="repro.cli client",
        description="Browse a dataset served by a hillview service.",
    )
    parser.add_argument(
        "path", nargs="?",
        help="a data path on the server (default: the server's dataset)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8947)
    parser.add_argument("--session", help="resume a session by id")
    parser.add_argument(
        "--commands", help="semicolon-separated commands to run and exit"
    )
    args = parser.parse_args(argv)

    from repro.gateway import GatewayClient, RemoteDataSet
    from repro.service.director import dial

    source = {"kind": "path", "path": args.path} if args.path else {}
    try:
        ws = dial(args.host, args.port, session=args.session)
    except (OSError, HillviewError) as exc:
        # Unreachable, or the root refused the handshake (e.g. it is
        # draining for maintenance): one friendly line, exit 1.
        print(
            f"error: cannot connect to {args.host}:{args.port}: {exc}",
            file=out if out is not None else sys.stderr,
        )
        return 1
    with ws, GatewayClient(args.host, args.port) as http:
        try:
            dataset = RemoteDataSet.load(ws, source)
        except HillviewError as exc:
            print(f"error: {exc}", file=out if out is not None else sys.stderr)
            return 1
        session = remote_session(dataset, http, out=out)
        session.print(f"session {ws.session} on {args.host}:{args.port}")
        if args.commands:
            session.run(args.commands.split(";"), prompt=True)
        else:
            session.run(sys.stdin, prompt=False)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        return client_main(argv[1:])
    if argv and argv[0] == "worker":
        from repro.engine.remote import worker_main

        return worker_main(argv[1:])
    if argv and argv[0] == "analyze":
        from repro.analysis import analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "fleet":
        try:
            return fleet_main(argv[1:])
        except (HillviewError, OSError) as exc:
            # Operator-facing surface: usage mistakes and unreachable
            # daemons/roots get one friendly line, like `repro client`.
            print(f"error: {exc}", file=sys.stderr)
            return 1
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Browse a dataset in the terminal."
    )
    parser.add_argument("path", nargs="?", help="CSV/JSONL/log/SQLite/hvc path")
    parser.add_argument("--sql-table", help="table name for SQLite sources")
    parser.add_argument(
        "--demo-flights", type=int, metavar="N",
        help="skip loading and explore N synthetic flight rows",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--commands", help="semicolon-separated commands to run and exit"
    )
    args = parser.parse_args(argv)

    session = build_session(args)
    if args.commands:
        session.run(args.commands.split(";"), prompt=True)
        return 0
    session.run(sys.stdin, prompt=False)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

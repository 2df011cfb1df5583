"""Terminal spreadsheet (repro.cli) tests: every command, end to end,
in-process and over the gateway (`repro client`)."""

from __future__ import annotations

import contextlib
import io

import pytest

from repro.cli import Session, source_for_path
from repro.engine.cluster import Cluster, ClusterDataSet
from repro.errors import HillviewError
from repro.gateway import GatewayServer, RemoteDataSet
from repro.service import ServiceServer
from repro.service.director import dial
from repro.spreadsheet import Spreadsheet
from repro.storage import columnar
from repro.storage.loader import CsvSource, JsonlSource, SqlSource, SyslogSource
from repro.storage.sql_io import write_sql
from repro.table.table import Table

WORKERS = 2


@pytest.fixture(scope="module")
def flights_path(flights, tmp_path_factory) -> str:
    """The flights table as 8 hvc shards, which both sides load."""
    directory = str(tmp_path_factory.mktemp("cli-flights"))
    columnar.write_dataset(flights.split(8), directory)
    return directory


@pytest.fixture(scope="module")
def gateway():
    service = ServiceServer(Cluster(num_workers=WORKERS))
    gateway = GatewayServer(service)
    gateway.start_background()
    yield gateway
    gateway.close()
    service.close()


@contextlib.contextmanager
def open_session(side: str, path: str, gateway):
    """A session on ``path``: an in-process cluster, or a root behind
    ``gateway`` with the same worker count (so the same fold tree)."""
    out = io.StringIO()
    if side == "local":
        dataset = Cluster(num_workers=WORKERS).load(source_for_path(path))
        yield Session(Spreadsheet(dataset, seed=7), out=out), out
        return
    with dial(*gateway.address, timeout=60) as ws:
        dataset = RemoteDataSet.load(ws, {"kind": "path", "path": path})
        yield Session(Spreadsheet(dataset, seed=7), out=out), out


@pytest.fixture
def session(flights_path):
    with open_session("local", flights_path, None) as pair:
        yield pair


def run(session_pair, *lines: str) -> str:
    session, out = session_pair
    session.run(lines)
    return out.getvalue()


#: Every command, a failing one of each kind, and a filtered sheet.
SCRIPT = [
    "cols", "rows", "view Distance", "next", "prev", "view DepDelay Origin",
    "scroll 0.5", "next", "find Origin SFO", "find Origin ZZZZ",
    "hist Distance", "hist Airline", "stack DepDelay Airline",
    "heat DepDelay ArrDelay", "trellis Airline DepDelay", "top Origin 5",
    "distinct Origin", "summary DepDelay", "filter DepDelay > 60", "rows",
    "hist Distance", "top Airline 3", "reset", "rows",
    "derive gain 'DepDelay - ArrDelay'", "summary gain", "hist gain",
    "filter Origin == SFO", "view gain", "help", "teleport",
    "hist Nonexistent", "derive evil 'exec(1)'", "filter Distance",
]


def test_local_and_remote_sessions_print_the_same(flights_path, gateway):
    outputs = []
    for side in ("local", "remote"):
        with open_session(side, flights_path, gateway) as pair:
            outputs.append(run(pair, *SCRIPT).splitlines())
    local, remote = outputs
    assert len(local) > 3 * len(SCRIPT)
    assert local == remote


def test_replaced_sheets_release_their_server_handles(flights_path):
    """``filter`` and ``reset`` evict the sheet they leave (never the
    root sheet's): twenty pairs leave the root's dataset resident, not
    twenty-one."""
    service = ServiceServer(Cluster(num_workers=WORKERS))
    gateway = GatewayServer(service)
    gateway.start_background()
    try:
        with open_session("remote", flights_path, gateway) as (session, out):
            session.run(
                line
                for n in range(20)
                for line in (f"filter Distance > {100 * n}", "reset")
            )
            served = service.sessions.get(session.sheet.dataset.socket.session)
            resident = [
                handle
                for handle in served.web.handles
                if isinstance(served.web._handles[handle], ClusterDataSet)
            ]
            assert len(served.web.handles) == 21
            assert len(resident) <= 2
            assert all(len(w.store) <= 2 for w in service.cluster.workers)
            assert out.getvalue().count("rows remain") == 20
    finally:
        gateway.close()
        service.close()


class TestCommands:
    def test_cols_lists_schema(self, session):
        output = run(session, "cols")
        assert "DepDelay: double" in output
        assert "Airline: category" in output

    def test_rows(self, session):
        output = run(session, "rows")
        assert "60,000 rows" in output

    def test_view_next_prev(self, session):
        output = run(session, "view Distance", "next", "prev")
        assert output.count("Distance") >= 3
        assert "count" in output

    def test_scroll(self, session):
        output = run(session, "view DepDelay", "scroll 0.5")
        assert "scrolled to ~" in output

    def test_find(self, session):
        output = run(session, "find Origin SFO")
        assert "matches; showing the first" in output

    def test_find_no_match(self, session):
        output = run(session, "find Origin ZZZZ")
        assert "no match" in output

    def test_hist(self, session):
        output = run(session, "hist Distance")
        assert "#" in output  # histogram bars

    def test_stack_and_heat(self, session):
        output = run(session, "stack DepDelay Airline", "heat DepDelay ArrDelay")
        assert "stacked histogram" in output

    def test_trellis(self, session):
        output = run(session, "trellis Airline DepDelay")
        assert "--" in output  # pane separators

    def test_top(self, session):
        output = run(session, "top Origin 5")
        assert "ATL" in output
        assert "%" in output

    def test_distinct_and_summary(self, session):
        output = run(session, "distinct Origin", "summary DepDelay")
        assert "distinct values" in output
        assert "mean" in output

    def test_filter_then_reset(self, session):
        output = run(session, "filter DepDelay > 60", "rows", "reset", "rows")
        assert "filtered:" in output
        assert "back to the full dataset" in output
        assert output.count("60,000 rows") == 1  # only after reset

    def test_derive(self, session):
        output = run(session, "derive gain 'DepDelay - ArrDelay'", "summary gain")
        assert "derived 'gain'" in output

    def test_log(self, session):
        output = run(session, "rows", "hist Distance", "log")
        assert "histogram" in output

    def test_help(self, session):
        output = run(session, "help")
        assert "view <col>" in output

    def test_quit_stops_processing(self, session):
        output = run(session, "rows", "quit", "cols")
        assert "DepDelay" not in output  # cols never ran

    def test_unknown_command(self, session):
        output = run(session, "teleport")
        assert "unknown command" in output

    def test_unknown_column_is_reported(self, session):
        output = run(session, "hist Nonexistent")
        assert "no column" in output

    def test_bad_expression_is_reported(self, session):
        output = run(session, "derive evil 'exec(1)'")
        assert "error" in output

    def test_empty_lines_ignored(self, session):
        output = run(session, "", "   ", "rows")
        assert "60,000 rows" in output


class TestRemoteCommands(TestCommands):
    """Every command again, in `repro client`'s session: the same
    spreadsheet over a :class:`RemoteDataSet` on the gateway."""

    @pytest.fixture
    def session(self, flights_path, gateway):
        with open_session("remote", flights_path, gateway) as pair:
            yield pair


class TestSourceSelection:
    def test_csv(self):
        assert isinstance(source_for_path("data.csv"), CsvSource)

    def test_jsonl(self):
        assert isinstance(source_for_path("data.jsonl"), JsonlSource)

    def test_syslog(self):
        assert isinstance(source_for_path("server.log"), SyslogSource)

    def test_sqlite_requires_table(self):
        with pytest.raises(HillviewError, match="--sql-table"):
            source_for_path("data.db")

    def test_sqlite_with_table(self, tmp_path):
        path = str(tmp_path / "t.db")
        write_sql(path, "events", Table.from_pydict({"n": [1, 2, 3]}))
        source = source_for_path(path, sql_table="events")
        assert isinstance(source, SqlSource)
        assert sum(t.num_rows for t in source.load()) == 3


class TestMainEntry:
    def test_scripted_run(self, capsys):
        from repro.cli import main

        code = main(
            ["--demo-flights", "5000", "--workers", "1",
             "--commands", "rows; top Airline 3; quit"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "5,000 rows" in output

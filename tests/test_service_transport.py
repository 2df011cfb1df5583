"""The root behind its one front door: framing, sessions, concurrent
streams, and the front-door contract (admission, backpressure,
teardown), all through the gateway's WebSocket and HTTP surfaces.
"""

from __future__ import annotations

import io
import re
import socket
import threading
import time

import pytest

from repro.core.framing import FrameError, encode_frame, read_frame_blocking
from repro.data.flights import FlightsSource
from repro.engine.cluster import Cluster
from repro.engine.rpc import REQUEST_ID_MAX, REQUEST_ID_MIN
from repro.gateway import GatewayClient, GatewayServer, GatewayWebSocket
from repro.gateway import server as gateway_server
from repro.gateway.client import GatewayError
from repro.gateway.websocket import OP_TEXT
from repro.gateway.websocket import encode_frame as ws_frame
from repro.service import ServiceServer
from repro.service.director import dial

ROWS = 20_000


@pytest.fixture(scope="module")
def server():
    server = ServiceServer(
        Cluster(num_workers=2, cores_per_worker=2, aggregation_interval=0.02),
        default_source=FlightsSource(ROWS, partitions=16, seed=3),
        max_concurrent=4,
    )
    yield server
    server.close()


@pytest.fixture(scope="module")
def gateway(server):
    gateway = GatewayServer(server)
    gateway.start_background()
    yield gateway
    gateway.close()


@pytest.fixture
def client(gateway):
    with dial(*gateway.address, timeout=60) as client:
        yield client


def hist_spec(per_shard_seconds: float = 0.0) -> dict:
    spec = {
        "type": "histogram",
        "column": "Distance",
        "buckets": {"type": "double", "min": 0, "max": 6000, "count": 12},
    }
    if per_shard_seconds > 0:
        spec = {"type": "slow", "perShardSeconds": per_shard_seconds, "inner": spec}
    return spec


def load(client: GatewayWebSocket) -> str:
    return client.call("load", args={"source": {}})["payload"]["handle"]


def row_count(client: GatewayWebSocket, handle: str) -> int:
    return client.call("rowCount", handle)["payload"]["rows"]


def sketch(client: GatewayWebSocket, handle: str, spec: dict) -> int:
    return client.request("sketch", handle, {"sketch": spec})


def replies(client: GatewayWebSocket, request_id: int) -> list[dict]:
    """One stream's replies through its terminal (cancel acks dropped)."""
    return [m for m in client.stream(request_id) if m.get("type") == "reply"]


class TestFraming:
    """The uvarint framing of the root<->worker wire."""

    def test_frame_round_trip(self):
        payload = b'{"hello": "world"}' * 50
        stream = io.BytesIO(encode_frame(payload) + encode_frame(b"x"))
        assert read_frame_blocking(stream) == payload
        assert read_frame_blocking(stream) == b"x"
        assert read_frame_blocking(stream) is None

    def test_truncated_frame_detected(self):
        stream = io.BytesIO(encode_frame(b"abcdef")[:-2])
        with pytest.raises(FrameError, match="inside a frame body"):
            read_frame_blocking(stream)


class TestBasicRpc:
    def test_hello_assigns_session(self, client):
        assert client.session.startswith("sess-")
        assert client.ping() == {"type": "pong"}

    def test_load_schema_rows(self, client):
        handle = load(client)
        columns = client.call("schema", handle)["payload"]["columns"]
        names = [c["name"] for c in columns]
        assert "Distance" in names and "Airline" in names
        assert row_count(client, handle) == ROWS

    def test_sketch_streams_monotonic_progress(self, client):
        handle = load(client)
        stream = replies(client, sketch(client, handle, hist_spec(0.01)))
        assert stream[-1]["kind"] == "complete"
        assert stream[-1]["progress"] == 1.0
        progresses = [r["progress"] for r in stream]
        assert progresses == sorted(progresses)
        assert len(stream) > 1  # progressive, not one-shot
        total = sum(stream[-1]["payload"]["counts"])
        assert 0 < total <= ROWS

    def test_unknown_handle_error_envelope_keeps_session_alive(self, client):
        with pytest.raises(GatewayError, match="unknown remote object"):
            row_count(client, "obj-404")
        assert client.ping()  # the connection survived the bad request

    def test_malformed_frame_gets_protocol_error(self, client):
        client._sock.sendall(ws_frame(OP_TEXT, b"this is not json", mask=True))
        answer = client.recv(None)
        assert (answer["type"], answer["code"]) == ("error", "bad_request")

    def test_an_id_outside_int64_gets_protocol_error(self, client):
        for outside in (REQUEST_ID_MAX + 1, REQUEST_ID_MIN - 1, "one"):
            client.submit(outside, "ping")
            refused = client.recv(None)
            assert (refused["type"], refused["code"]) == ("error", "bad_request")
        # The connection stays usable, and both ends of the range are ids.
        for edge in (REQUEST_ID_MIN, REQUEST_ID_MAX):
            client.submit(edge, "ping")
            answered = client.result(edge)
            assert (answered["requestId"], answered["kind"]) == (edge, "ack")

    def test_explicit_cancel_rpc(self, client):
        handle = load(client)
        request_id = sketch(client, handle, hist_spec(0.05))
        client.recv(request_id)  # the query is visibly running
        client.cancel(request_id)
        stream = list(client.stream(request_id))
        (ack,) = [m for m in stream if m["type"] == "cancel_ack"]
        assert ack["cancelled"] is True
        assert stream[-1]["kind"] in ("cancelled", "complete")

    def test_stats_rpc(self, client, gateway):
        handle = load(client)
        row_count(client, handle)
        with GatewayClient(*gateway.address) as api:
            stats = api.stats()
        assert stats["type"] == "serviceStats"
        assert stats["scheduler"]["admitted"] >= 1
        assert stats["cluster"]["workers"] == 2


class TestSessions:
    def test_session_resumes_across_connections(self, gateway):
        with dial(*gateway.address) as first:
            session_id = first.session
            handle = load(first)
            assert row_count(first, handle) == ROWS
        # Reconnect with the same session id: the handle namespace is
        # still there (soft state lives on the server, not the socket).
        with dial(*gateway.address, session=session_id) as second:
            assert second.session == session_id
            assert row_count(second, handle) == ROWS

    def test_sessions_share_the_default_dataset(self, server, gateway):
        with dial(*gateway.address) as a, dial(*gateway.address) as b:
            ha = load(a)
            hb = load(b)
            sessions = server.sessions
            da = sessions.get(a.session).web.dataset(ha)
            db = sessions.get(b.session).web.dataset(hb)
            assert da.dataset_id == db.dataset_id


class TestConcurrentSessions:
    def test_two_sessions_stream_concurrently(self, gateway):
        """The acceptance scenario: two sessions, overlapping streaming
        sketches, each seeing monotonically-progressing partials."""
        results: dict[str, list] = {}
        errors: list[Exception] = []

        def explore(name: str) -> None:
            try:
                with dial(*gateway.address) as client:
                    handle = load(client)
                    results[name] = replies(
                        client, sketch(client, handle, hist_spec(0.01))
                    )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=explore, args=(f"user-{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert set(results) == {"user-0", "user-1"}
        for stream in results.values():
            assert stream[-1]["kind"] == "complete"
            progresses = [r["progress"] for r in stream]
            assert progresses == sorted(progresses)
            assert sum(stream[-1]["payload"]["counts"]) > 0

    def test_newest_query_wins_isolated_per_session(self, server, gateway):
        """Second half of the acceptance criteria: a superseding sketch on
        one session cancels its predecessor (visible in scheduler metrics)
        without affecting the other session."""
        preempted_before = server.scheduler.metrics.preempted
        with dial(*gateway.address) as alice, dial(*gateway.address) as bob:
            ha, hb = load(alice), load(bob)
            bob_query = sketch(bob, hb, hist_spec(0.01))
            stale = sketch(alice, ha, hist_spec(0.05))
            alice.recv(stale)  # streaming has visibly begun
            fresh = sketch(alice, ha, hist_spec(0.0))
            stale_terminal = alice.result(stale)
            fresh_terminal = alice.result(fresh)
            bob_terminal = bob.result(bob_query)
            assert stale_terminal["kind"] == "cancelled"
            assert stale_terminal["code"] == "superseded"
            assert fresh_terminal["kind"] == "complete"
            # Bob's overlapping query is untouched by Alice's preemption.
            assert bob_terminal["kind"] == "complete"
            assert sum(bob_terminal["payload"]["counts"]) > 0
            assert server.scheduler.metrics.preempted == preempted_before + 1
            alice_stats = next(
                s
                for s in server.stats()["sessions"]["sessions"]
                if s["session"] == alice.session
            )
            assert alice_stats["metrics"]["preempted"] == 1


class TestWorkerFailure:
    def test_worker_crash_mid_query_over_the_wire(self, server, gateway):
        with dial(*gateway.address) as client:
            handle = load(client)
            request_id = sketch(client, handle, hist_spec(0.02))
            client.recv(request_id)
            server.cluster.kill_worker(1)
            terminal = client.result(request_id)
            assert terminal["kind"] == "complete"
            # The next query replays the lost shards from lineage (§5.7).
            again = client.call("sketch", handle, {"sketch": hist_spec()})
            assert again["payload"]["counts"] == terminal["payload"]["counts"]


# ---------------------------------------------------------------------------
# The front-door contract: admission, backpressure, teardown
# ---------------------------------------------------------------------------
class TestFrontDoorContract:
    @pytest.fixture
    def connect(self, gateway):
        peers = []

        def connect(session=None, gateway=gateway):
            peers.append(dial(*gateway.address, session=session, timeout=30))
            return peers[-1]

        yield connect
        for peer in peers:
            peer.close()

    def test_overloaded_rejections_do_not_stall_the_root(self, connect):
        """The scheduler sinks an ``overloaded`` rejection from inside
        ``submit``, i.e. on the listener's own loop: the outbox must not
        wait there for a writer that runs on the same loop."""
        service = ServiceServer(
            Cluster(num_workers=2, cores_per_worker=2, aggregation_interval=0.02),
            default_source=FlightsSource(ROWS, partitions=16, seed=3),
            max_concurrent=1,
            max_queue_per_session=1,
        )
        gateway = GatewayServer(service)
        gateway.start_background()
        try:
            peer = connect(gateway=gateway)
            bystander = connect(gateway=gateway)
            handle = load(peer)
            slow = sketch(peer, handle, hist_spec(0.2))
            assert peer.recv(slow)["kind"] == "partial"  # it has the slot
            # One request waits behind the slow sketch for the only slot;
            # the session's backlog is now full.
            queued = peer.request("rowCount", handle)
            started = time.monotonic()
            rejected = [peer.request("rowCount", handle) for _ in range(3)]
            for stream in rejected:
                (reply,) = replies(peer, stream)
                assert (reply["kind"], reply["code"]) == ("error", "overloaded")
            assert time.monotonic() - started < 1.0
            started = time.monotonic()
            assert bystander.ping()
            assert time.monotonic() - started < 0.5
            assert service.scheduler.running_count == 1  # still the slow one
            assert replies(peer, slow)[-1]["kind"] == "complete"
            assert replies(peer, queued)[-1]["payload"] == {"rows": ROWS}
        finally:
            gateway.close()
            service.close()

    def test_draining_root_admits_only_resident_sessions(self, connect, server):
        resident = connect().session
        refused_before = server.hellos_refused
        server.draining = True
        try:
            for session in (None, "sess-never-seen"):
                with pytest.raises(GatewayError) as caught:
                    connect(session)
                assert caught.value.code == "draining"
                assert "reconnect through the director" in str(caught.value)
            assert server.hellos_refused == refused_before + 2
            assert connect(resident).session == resident
        finally:
            server.draining = False

    def test_cancel_ends_the_stream_with_exactly_one_terminal(self, connect):
        peer = connect()
        handle = load(peer)
        stream = sketch(peer, handle, hist_spec(0.05))
        peer.cancel(stream)
        kinds = [reply["kind"] for reply in replies(peer, stream)]
        assert kinds[-1] in ("cancelled", "complete")
        assert all(kind == "partial" for kind in kinds[:-1])
        peer.ping()  # everything sent before the pong has been read
        strays = peer._inbox.get(stream, ())
        assert [m for m in strays if m.get("type") == "reply"] == []

    @pytest.fixture
    def small_window(self, monkeypatch):
        """Clients connect with a 2 KB receive buffer, so a peer that
        reads nothing fills the path at the server's own send buffer."""

        def create_connection(address, timeout=None):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
            sock.settimeout(timeout)
            sock.connect(address)
            return sock

        monkeypatch.setattr(socket, "create_connection", create_connection)

    def wide_sketch(self) -> dict:
        # ~1.2 MB per partial, ten of them: more than the kernel's socket
        # buffers (4 MB by default) will take from a peer that reads nothing.
        wide = hist_spec(0.05)
        wide["inner"]["buckets"]["count"] = 400_000
        return {"sketch": wide}

    def test_a_client_that_stops_reading_gets_its_query_cancelled(
        self, connect, server, small_window, monkeypatch
    ):
        """Backpressure end to end: the socket fills, the outbox fills,
        the sink blocks, gives up after the sink timeout, and the
        scheduler cancels the query rather than buffer for the client."""
        monkeypatch.setattr(gateway_server, "OUTBOX_FRAMES", 1)
        monkeypatch.setattr(gateway_server, "SINK_TIMEOUT_SECONDS", 0.2)
        peer = connect()
        handle = load(peer)
        cancelled_before = server.scheduler.metrics.cancelled
        peer.request("sketch", handle, self.wide_sketch())
        # The client reads only when asked: from here on, nothing is read.
        deadline = time.monotonic() + 10.0
        while server.scheduler.metrics.cancelled == cancelled_before:
            assert time.monotonic() < deadline, "the query was never cancelled"
            time.sleep(0.02)
        assert server.scheduler.metrics.cancelled == cancelled_before + 1

    def test_queued_replies_are_flushed_when_the_peer_half_closes(
        self, connect, server, small_window
    ):
        """The whole stream fits the outbox, so the query completes while
        the writer is stuck behind a full socket; the peer then shuts its
        sending side and reads.  Ending the connection must write out
        what is queued, not drop it with the writer."""
        peer = connect()
        handle = load(peer)
        while server.scheduler.running_count:  # the load has been counted
            time.sleep(0.005)
        completed_before = server.scheduler.metrics.completed
        stream = peer.request("sketch", handle, self.wide_sketch())
        deadline = time.monotonic() + 10.0
        while server.scheduler.metrics.completed == completed_before:
            assert time.monotonic() < deadline, "the query never completed"
            time.sleep(0.02)
        peer._sock.shutdown(socket.SHUT_WR)
        assert replies(peer, stream)[-1]["kind"] == "complete"


class TestOneSweepTask:
    @pytest.mark.parametrize("gateway_first", [False, True])
    def test_exactly_one_sweep_task_in_either_start_order(self, gateway_first):
        def sweeps() -> set[threading.Thread]:
            return {t for t in threading.enumerate() if t.name == "service-sweep"}

        before = sweeps()  # other roots' sweeps, not this one's
        service = ServiceServer(
            Cluster(num_workers=1, cores_per_worker=1), sweep_interval_seconds=0.02
        )
        gateway = GatewayServer(service)
        starts = [service.start_background, gateway.start_background]
        try:
            for start in reversed(starts) if gateway_first else starts:
                start()
            (sweep,) = sweeps() - before
            # The sweep is the root's, not the gateway's: it outlives it.
            gateway.close()
            swept = []
            service.sessions.sweep = lambda: swept.append(1)
            deadline = time.monotonic() + 5.0
            while not swept:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            gateway.close()
            service.close()
        assert not sweep.is_alive()


class TestCliService:
    def test_client_command_loop(self, gateway, tmp_path, monkeypatch):
        """`repro client` is the terminal spreadsheet over the gateway,
        with the root's operational reads beside it."""
        from repro.cli import client_main

        monkeypatch.chdir(tmp_path)  # where `trace` writes its file
        out = io.StringIO()
        host, port = gateway.address
        code = client_main(
            [
                "--host", host, "--port", str(port),
                "--commands",
                "rows; hist Distance; view Distance; distinct Airline; "
                "stats; metrics; trace top Airline 3",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert f"{ROWS:,} rows" in text
        assert "(100 buckets)" in text and "Distance | count" in text
        assert "distinct values" in text
        assert "admitted" in text
        assert "this session: " in text
        (written,) = tmp_path.glob("trace-*.json")
        assert f"wrote {written.name}" in text
        assert re.search(r"trace \w+: [1-9]\d* spans over", text)

    def test_client_loads_a_path(self, gateway, tmp_path):
        from repro.cli import client_main

        path = tmp_path / "small.csv"
        path.write_text("n,name\n1,a\n2,b\n3,c\n")
        out = io.StringIO()
        host, port = gateway.address
        code = client_main(
            ["--host", host, "--port", str(port), str(path),
             "--commands", "cols; rows"],
            out=out,
        )
        assert code == 0
        assert "  name: " in out.getvalue()
        assert "3 rows" in out.getvalue()

    def test_client_reports_a_failed_load(self, gateway, tmp_path):
        from repro.cli import client_main

        out = io.StringIO()
        host, port = gateway.address
        missing = str(tmp_path / "missing.csv")
        code = client_main(["--host", host, "--port", str(port), missing], out=out)
        assert code == 1
        assert out.getvalue().startswith("error: ")

    def test_serve_parser_defaults(self):
        """`repro serve --help`-level sanity: the subcommand dispatches."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve", "--help"])

"""Service transport tests: framing, concurrent sessions, wire acceptance.

The front-door contract at the end runs each case over both client
wires — the TCP :class:`ServiceClient` and the gateway's
:class:`GatewayWebSocket` — because admission, backpressure and
teardown are one implementation behind both.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import itertools
import json
import socket
import threading
import time

import pytest

from repro.data.flights import FlightsSource
from repro.engine.cluster import Cluster
from repro.engine.rpc import REQUEST_ID_MAX, REQUEST_ID_MIN, RpcReply
from repro.gateway import GatewayServer, GatewayWebSocket
from repro.gateway.client import GatewayError
from repro.service import (
    ServiceClient,
    ServiceError,
    ServiceServer,
    encode_frame,
    frontdoor,
    read_frame_blocking,
)

ROWS = 20_000


@pytest.fixture(scope="module")
def server():
    server = ServiceServer(
        Cluster(num_workers=2, cores_per_worker=2, aggregation_interval=0.02),
        default_source=FlightsSource(ROWS, partitions=16, seed=3),
        max_concurrent=4,
    )
    server.start_background()
    yield server
    server.close()


@pytest.fixture
def client(server):
    with ServiceClient(*server.address) as client:
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


class TestFraming:
    def test_frame_round_trip(self):
        payload = b'{"hello": "world"}' * 50
        stream = io.BytesIO(encode_frame(payload) + encode_frame(b"x"))
        assert read_frame_blocking(stream) == payload
        assert read_frame_blocking(stream) == b"x"
        assert read_frame_blocking(stream) is None

    def test_truncated_frame_detected(self):
        stream = io.BytesIO(encode_frame(b"abcdef")[:-2])
        with pytest.raises(ServiceError, match="inside a frame body"):
            read_frame_blocking(stream)


class TestBasicRpc:
    def test_hello_assigns_session(self, client):
        assert client.session_id.startswith("sess-")
        assert client.ping()

    def test_load_schema_rows(self, client):
        handle = client.load()
        names = [c["name"] for c in client.schema(handle)]
        assert "Distance" in names and "Airline" in names
        assert client.row_count(handle) == ROWS

    def test_sketch_streams_monotonic_progress(self, client):
        handle = client.load()
        replies = list(client.sketch(handle, hist_spec(0.01)).replies(timeout=60))
        assert replies[-1].kind == "complete"
        assert replies[-1].progress == 1.0
        progresses = [r.progress for r in replies]
        assert progresses == sorted(progresses)
        assert len(replies) > 1  # progressive, not one-shot
        total = sum(replies[-1].payload["counts"])
        assert 0 < total <= ROWS

    def test_unknown_handle_error_envelope_keeps_session_alive(self, client):
        with pytest.raises(ServiceError, match="unknown remote object"):
            client.row_count("obj-404")
        assert client.ping()  # the connection survived the bad request

    def test_malformed_frame_gets_protocol_error(self, server):
        import socket as socket_mod

        with socket_mod.create_connection(server.address, timeout=5) as sock:
            sock.sendall(encode_frame(b"this is not json"))
            stream = sock.makefile("rb")
            frame = read_frame_blocking(stream)
            assert b'"protocol"' in frame

    def test_an_id_outside_int64_gets_protocol_error(self, server):
        import socket as socket_mod

        with socket_mod.create_connection(server.address, timeout=5) as sock:
            stream = sock.makefile("rb")

            def exchange(request_id) -> RpcReply:
                request = {"requestId": request_id, "target": "", "method": "ping"}
                sock.sendall(encode_frame(json.dumps(request).encode("utf-8")))
                return RpcReply.from_json(read_frame_blocking(stream))

            for outside in (REQUEST_ID_MAX + 1, REQUEST_ID_MIN - 1, "one"):
                refused = exchange(outside)
                assert (refused.request_id, refused.kind) == (-1, "error")
                assert refused.code == "protocol"
            # The connection stays usable, and both ends of the range are ids.
            for edge in (REQUEST_ID_MIN, REQUEST_ID_MAX):
                answered = exchange(edge)
                assert (answered.request_id, answered.kind) == (edge, "ack")

    def test_explicit_cancel_rpc(self, client):
        handle = client.load()
        pending = client.sketch(handle, hist_spec(0.05))
        next(pending.replies(timeout=60))  # the query is visibly running
        assert client.cancel(pending.request_id) is True
        terminal = pending.result(raise_on_error=False)
        assert terminal.kind in ("cancelled", "complete")

    def test_stats_rpc(self, client):
        handle = client.load()
        client.row_count(handle)
        stats = client.stats()
        assert stats["type"] == "serviceStats"
        assert stats["scheduler"]["admitted"] >= 1
        assert stats["cluster"]["workers"] == 2


class TestSessions:
    def test_session_resumes_across_connections(self, server):
        with ServiceClient(*server.address) as first:
            session_id = first.session_id
            handle = first.load()
            assert first.row_count(handle) == ROWS
        # Reconnect with the same session id: the handle namespace is
        # still there (soft state lives on the server, not the socket).
        with ServiceClient(*server.address, session=session_id) as second:
            assert second.session_id == session_id
            assert second.row_count(handle) == ROWS

    def test_sessions_share_the_default_dataset(self, server):
        with ServiceClient(*server.address) as a, ServiceClient(
            *server.address
        ) as b:
            ha = a.load()
            hb = b.load()
            sessions = server.sessions
            da = sessions.get(a.session_id).web.dataset(ha)
            db = sessions.get(b.session_id).web.dataset(hb)
            assert da.dataset_id == db.dataset_id


class TestConcurrentSessions:
    def test_two_sessions_stream_concurrently(self, server):
        """The acceptance scenario: two sessions, overlapping streaming
        sketches, each seeing monotonically-progressing partials."""
        results: dict[str, list] = {}
        errors: list[Exception] = []

        def explore(name: str) -> None:
            try:
                with ServiceClient(*server.address) as client:
                    handle = client.load()
                    replies = list(
                        client.sketch(handle, hist_spec(0.01)).replies(timeout=60)
                    )
                    results[name] = replies
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
        for replies in results.values():
            assert replies[-1].kind == "complete"
            progresses = [r.progress for r in replies]
            assert progresses == sorted(progresses)
            assert sum(replies[-1].payload["counts"]) > 0

    def test_newest_query_wins_isolated_per_session(self, server):
        """Second half of the acceptance criteria: a superseding sketch on
        one session cancels its predecessor (visible in scheduler metrics)
        without affecting the other session."""
        preempted_before = server.scheduler.metrics.preempted
        with ServiceClient(*server.address) as alice, ServiceClient(
            *server.address
        ) as bob:
            ha, hb = alice.load(), bob.load()
            bob_query = bob.sketch(hb, hist_spec(0.01))
            stale = alice.sketch(ha, hist_spec(0.05))
            next(stale.replies(timeout=60))  # streaming has visibly begun
            fresh = alice.sketch(ha, hist_spec(0.0))
            stale_terminal = stale.result(timeout=60, raise_on_error=False)
            fresh_terminal = fresh.result(timeout=60)
            bob_terminal = bob_query.result(timeout=60)
            assert stale_terminal.kind == "cancelled"
            assert stale_terminal.code == "superseded"
            assert fresh_terminal.kind == "complete"
            # Bob's overlapping query is untouched by Alice's preemption.
            assert bob_terminal.kind == "complete"
            assert sum(bob_terminal.payload["counts"]) > 0
            assert server.scheduler.metrics.preempted == preempted_before + 1
            stats = alice.stats()
            alice_stats = next(
                s
                for s in stats["sessions"]["sessions"]
                if s["session"] == alice.session_id
            )
            assert alice_stats["metrics"]["preempted"] == 1


class TestWorkerFailure:
    def test_worker_crash_mid_query_over_the_wire(self, server):
        with ServiceClient(*server.address) as client:
            handle = client.load()
            pending = client.sketch(handle, hist_spec(0.02))
            next(pending.replies(timeout=60))
            server.cluster.kill_worker(1)
            terminal = pending.result(timeout=60)
            assert terminal.kind == "complete"
            # The next query replays the lost shards from lineage (§5.7).
            again = client.sketch(handle, hist_spec()).result(timeout=60)
            assert again.payload["counts"] == terminal.payload["counts"]


# ---------------------------------------------------------------------------
# The front-door contract: one behaviour, two wires
# ---------------------------------------------------------------------------
class TcpPeer:
    """A :class:`ServiceClient` behind the verbs the contract cases use."""

    refused = ServiceError

    def __init__(self, service, gateway, session=None):
        self.client = ServiceClient(*service.address, session=session)
        self.session = self.client.session_id
        self.sock = self.client._sock

    def submit(self, method, target="", args=None):
        return self.client.submit(method, target, args)

    def next_reply(self, pending) -> dict:
        return next(pending.replies(timeout=30)).envelope()

    def replies(self, pending) -> list[dict]:
        return [reply.envelope() for reply in pending.replies(timeout=30)]

    def cancel(self, pending) -> None:
        self.client.cancel(pending.request_id)

    def ping(self) -> bool:
        return self.client.ping()

    def stray_replies(self, pending) -> list[dict]:
        """What arrived for ``pending`` after its terminal (needs
        ``keep_pending``: the client forgets a stream at its terminal)."""
        self.ping()  # everything sent before the pong has been read
        strays = []
        while not pending._replies.empty():
            strays.append(pending._replies.get_nowait().envelope())
        return strays

    def keep_pending(self) -> None:
        class Keep(dict):
            def __delitem__(self, key):
                pass

        self.client._pending = Keep(self.client._pending)

    def stop_reading(self):
        # The reader thread takes this lock after every frame it reads.
        return self.client._lock

    def close(self) -> None:
        self.client.close()


class WsPeer:
    """A :class:`GatewayWebSocket` behind the same verbs."""

    refused = GatewayError

    def __init__(self, service, gateway, session=None):
        self.ws = GatewayWebSocket(*gateway.address, timeout=30)
        try:
            self.ws.connect(session=session)
        except BaseException:
            self.ws.close()
            raise
        self.session = self.ws.session
        self.sock = self.ws._sock
        self._ids = itertools.count(1)

    def submit(self, method, target="", args=None):
        return self.ws.submit(next(self._ids), method, target, args)

    def next_reply(self, request_id) -> dict:
        return self.ws.recv(request_id)

    def replies(self, request_id) -> list[dict]:
        return [m for m in self.ws.stream(request_id) if m.get("type") == "reply"]

    def cancel(self, request_id) -> None:
        self.ws.cancel(request_id)

    def ping(self) -> bool:
        return self.ws.ping() == {"type": "pong"}

    def stray_replies(self, request_id) -> list[dict]:
        self.ping()  # everything sent before the pong has been read
        inbox = self.ws._inbox.get(request_id, ())
        return [m for m in inbox if m.get("type") == "reply"]

    def keep_pending(self) -> None:
        pass  # the WebSocket client keeps everything it reads

    def stop_reading(self):
        return contextlib.nullcontext()  # it only reads when asked

    def close(self) -> None:
        self.ws.close()


def sweep_tasks(*listeners) -> list[asyncio.Task]:
    return [
        task
        for listener in listeners
        for task in asyncio.all_tasks(listener.loop)
        if task.get_coro().__name__ == "_sweep_loop"
    ]


@pytest.mark.parametrize("peer_type", [TcpPeer, WsPeer], ids=["tcp", "ws"])
class TestFrontDoorContract:
    @pytest.fixture(scope="class")
    def gateway(self, server):
        gateway = GatewayServer(server)
        gateway.start_background()
        yield gateway
        gateway.close()

    @pytest.fixture
    def connect(self, peer_type, server, gateway):
        peers = []

        def connect(session=None, service=server, gateway=gateway):
            peers.append(peer_type(service, gateway, session))
            return peers[-1]

        yield connect
        for peer in peers:
            peer.close()

    def load(self, peer) -> str:
        return peer.replies(peer.submit("load", args={"source": {}}))[-1][
            "payload"
        ]["handle"]

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
        service.start_background()
        gateway = GatewayServer(service)
        gateway.start_background()
        try:
            peer = connect(service=service, gateway=gateway)
            bystander = connect(service=service, gateway=gateway)
            handle = self.load(peer)
            slow = peer.submit("sketch", handle, {"sketch": hist_spec(0.2)})
            assert peer.next_reply(slow)["kind"] == "partial"  # it has the slot
            # One request waits behind the slow sketch for the only slot;
            # the session's backlog is now full.
            queued = peer.submit("rowCount", handle)
            started = time.monotonic()
            rejected = [peer.submit("rowCount", handle) for _ in range(3)]
            for stream in rejected:
                (reply,) = peer.replies(stream)
                assert (reply["kind"], reply["code"]) == ("error", "overloaded")
            assert time.monotonic() - started < 1.0
            started = time.monotonic()
            assert bystander.ping()
            assert time.monotonic() - started < 0.5
            assert service.scheduler.running_count == 1  # still the slow one
            assert peer.replies(slow)[-1]["kind"] == "complete"
            assert peer.replies(queued)[-1]["payload"] == {"rows": ROWS}
        finally:
            gateway.close()
            service.close()

    def test_draining_root_admits_only_resident_sessions(
        self, peer_type, connect, server
    ):
        resident = connect().session
        refused_before = server.hellos_refused
        server.draining = True
        try:
            for session in (None, "sess-never-seen"):
                with pytest.raises(peer_type.refused) as caught:
                    connect(session)
                assert caught.value.code == "draining"
                assert "reconnect through the director" in str(caught.value)
            assert server.hellos_refused == refused_before + 2
            assert connect(resident).session == resident
        finally:
            server.draining = False

    def test_cancel_ends_the_stream_with_exactly_one_terminal(self, connect):
        peer = connect()
        peer.keep_pending()
        handle = self.load(peer)
        stream = peer.submit("sketch", handle, {"sketch": hist_spec(0.05)})
        peer.cancel(stream)
        replies = peer.replies(stream)
        kinds = [reply["kind"] for reply in replies]
        assert kinds[-1] in ("cancelled", "complete")
        assert all(kind == "partial" for kind in kinds[:-1])
        assert peer.stray_replies(stream) == []

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
        monkeypatch.setattr(frontdoor, "OUTBOX_FRAMES", 1)
        monkeypatch.setattr(frontdoor, "SINK_TIMEOUT_SECONDS", 0.2)
        peer = connect()
        handle = self.load(peer)
        cancelled_before = server.scheduler.metrics.cancelled
        peer.submit("sketch", handle, self.wide_sketch())
        with peer.stop_reading():
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
        handle = self.load(peer)
        while server.scheduler.running_count:  # the load has been counted
            time.sleep(0.005)
        completed_before = server.scheduler.metrics.completed
        stream = peer.submit("sketch", handle, self.wide_sketch())
        with peer.stop_reading():
            deadline = time.monotonic() + 10.0
            while server.scheduler.metrics.completed == completed_before:
                assert time.monotonic() < deadline, "the query never completed"
                time.sleep(0.02)
            peer.sock.shutdown(socket.SHUT_WR)
        assert peer.replies(stream)[-1]["kind"] == "complete"


class TestOneSweepTask:
    @pytest.mark.parametrize("gateway_first", [False, True])
    def test_exactly_one_sweep_task_in_either_start_order(self, gateway_first):
        service = ServiceServer(
            Cluster(num_workers=1, cores_per_worker=1), sweep_interval_seconds=0.02
        )
        gateway = GatewayServer(service)
        first, second = (gateway, service) if gateway_first else (service, gateway)
        try:
            first.start_background()
            second.start_background()
            (task,) = sweep_tasks(service, gateway)
            assert task.get_loop() is first.loop
            # The sweep outlives the listener it started on.
            first.close()
            deadline = time.monotonic() + 5.0
            while not sweep_tasks(second):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            (task,) = sweep_tasks(second)
            swept = []
            service.sessions.sweep = lambda: swept.append(1)
            while not swept:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            gateway.close()
            service.close()


class TestCliService:
    def test_client_command_loop(self, server):
        from repro.cli import client_main

        out = io.StringIO()
        host, port = server.address
        client_main(
            [
                "--host", host, "--port", str(port),
                "--commands",
                "load; rows; hist Distance 0 6000 6; distinct Airline; stats",
            ],
            out=out,
        )
        text = out.getvalue()
        assert f"{ROWS:,} rows" in text
        assert "distinct values" in text
        assert "admitted" in text

    def test_serve_parser_defaults(self):
        """`repro serve --help`-level sanity: the subcommand dispatches."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve", "--help"])

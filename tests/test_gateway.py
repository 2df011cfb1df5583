"""Gateway tests: negotiation, HTTP surface, connector reads, WS streams,
and the reply-frame oracle.

That a WebSocket client sees exactly what a plain cluster returns, for
every kernel spec, is the ``ws`` column of ``tests/test_invariant.py`` —
the gateway adds transport, never semantics.
"""

from __future__ import annotations

import io
import json
import random
import socket
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.slow  # noqa: F401 — registers the "slow" sketch type
from repro.data.flights import FlightsSource
from repro.engine.cluster import Cluster
from repro.gateway import (
    FEATURES,
    MIN_SUPPORTED,
    PROTOCOL_VERSION,
    GatewayClient,
    GatewayServer,
    GatewayWebSocket,
    NegotiationError,
    RemoteDataSet,
    negotiate,
    protocol_payload,
)
from repro.core.wire import sketch_from_json, summary_to_bytes
from repro.engine.dataset import DeriveMap, ExpressionMap, FilterMap, ProjectMap
from repro.engine.progress import CancellationToken
from repro.errors import ProtocolError
from repro.obs.trace import TraceContext, use_context
from repro.engine.rpc import REQUEST_ID_MAX, REQUEST_ID_MIN, RpcReply, RpcRequest
from repro.gateway.client import GatewayError
from repro.gateway.server import _Stream, reply_frame
from repro.gateway.websocket import (
    OP_CLOSE,
    OP_PING,
    OP_TEXT,
    ConnectionClosed,
    encode_frame,
    read_message_blocking,
)
from repro.service import ConnectionDirector, ServiceServer, probe_gateway
from repro.service.slow import SlowdownSketch
from repro.spreadsheet import Spreadsheet
from repro.storage.loader import SOURCES
from repro.table.compute import ColumnPredicate
from repro.table.schema import ContentsKind

from tests.conftest import canonical
from tests.test_invariant import SPEC_PER_TYPE

ROWS = 2_000
SOURCE = FlightsSource(ROWS, partitions=8, seed=5)

HIST = {
    "type": "histogram",
    "column": "Distance",
    "buckets": {"type": "double", "min": 0, "max": 3000, "count": 12},
}


@pytest.fixture(scope="module")
def service():
    server = ServiceServer(
        Cluster(num_workers=2, cores_per_worker=2, aggregation_interval=0.02),
        default_source=SOURCE,
    )
    server.start_background()
    yield server
    server.close()


@pytest.fixture(scope="module")
def gateway(service):
    gw = GatewayServer(service)
    gw.start_background()
    yield gw
    gw.close()


@pytest.fixture
def api(gateway):
    with GatewayClient(*gateway.address) as client:
        yield client


def open_ws(gateway, **kwargs) -> GatewayWebSocket:
    return GatewayWebSocket(*gateway.address, **kwargs)


# ---------------------------------------------------------------------------
# Version negotiation (unit matrix)
# ---------------------------------------------------------------------------
class TestNegotiation:
    def test_current_client_gets_everything(self):
        pinned = negotiate(PROTOCOL_VERSION)
        assert pinned.version == PROTOCOL_VERSION
        assert all(pinned.features.values())
        assert set(pinned.features) == set(FEATURES)

    def test_old_client_downgrades_new_features(self):
        pinned = negotiate(1)
        assert pinned.version == 1
        assert pinned.enabled("trace_context")
        assert not pinned.enabled("ws_resume")
        assert not pinned.enabled("ws_heartbeat")

    def test_newer_client_is_pinned_to_server_version(self):
        pinned = negotiate(PROTOCOL_VERSION + 97)
        assert pinned.version == PROTOCOL_VERSION
        assert all(pinned.features.values())

    def test_below_min_supported_is_rejected(self):
        with pytest.raises(NegotiationError) as info:
            negotiate(MIN_SUPPORTED - 1)
        assert info.value.code == "unsupported_protocol"

    def test_non_integer_version_is_rejected(self):
        with pytest.raises(NegotiationError):
            negotiate("latest")  # type: ignore[arg-type]

    def test_client_can_switch_a_feature_off(self):
        pinned = negotiate(PROTOCOL_VERSION, {"ws_heartbeat": False})
        assert not pinned.enabled("ws_heartbeat")
        assert pinned.enabled("ws_resume")

    def test_client_cannot_switch_on_an_unavailable_feature(self):
        pinned = negotiate(1, {"ws_resume": True})
        assert not pinned.enabled("ws_resume")

    def test_payload_announces_current_version(self):
        payload = protocol_payload()
        assert payload["protocolVersion"] == PROTOCOL_VERSION
        assert payload["minSupported"] == MIN_SUPPORTED
        assert all(payload["features"].values())


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------
class TestHttpSurface:
    def test_protocol_endpoint(self, api):
        assert api.protocol() == protocol_payload()

    def test_health_is_gateway_aware(self, api):
        health = api.health()
        assert health["gateway"] is True
        assert health["status"] == "ok"
        assert health["protocolVersion"] == PROTOCOL_VERSION
        assert health["workers"] == 2

    def test_session_create_resume_close(self, api):
        created = api.create_session()
        assert created["resumed"] is False
        session_id = created["session"]
        again = api.create_session(session_id)
        assert again == {"session": session_id, "resumed": True}
        assert api.close_session(session_id) is True
        assert api.close_session(session_id) is False

    def test_unknown_path_is_a_structured_404(self, api):
        with pytest.raises(GatewayError) as info:
            api.get("/api/v1/nope")
        assert info.value.status == 404
        assert info.value.code == "not_found"

    def test_draining_refuses_new_sessions(self, api, service):
        api.drain()
        try:
            with pytest.raises(GatewayError) as info:
                api.create_session()
            assert info.value.status == 503
            assert info.value.code == "draining"
        finally:
            api.undrain()
        assert service.draining is False
        assert api.create_session()["session"]

    def test_stats_and_prometheus_metrics(self, api):
        stats = api.stats()
        assert "scheduler" in stats
        text = api.metrics(fmt="prometheus")
        assert isinstance(text, str) and "# TYPE" in text

    def test_metrics_include_gateway_series(self, api):
        registry = api.metrics()["registry"]
        assert any(name.startswith("gateway.") for name in registry)


# ---------------------------------------------------------------------------
# The OData-style connector
# ---------------------------------------------------------------------------
class TestConnector:
    @pytest.fixture(scope="class", autouse=True)
    def published(self, gateway):
        with GatewayClient(*gateway.address) as client:
            result = client.publish("flights", {})
            yield result
            client.unpublish("flights")

    def test_publish_reports_row_count(self, published):
        assert published == {"dataset": "flights", "rows": ROWS}

    def test_datasets_listing(self, api):
        assert "flights" in api.datasets()

    def test_metadata_document(self, api):
        meta = api.metadata("flights")
        assert meta["dataset"] == "flights"
        assert meta["rows"] == ROWS
        names = [c["name"] for c in meta["columns"]]
        assert "Distance" in names and "Origin" in names

    def test_rows_paging_walks_distinct_rows(self, api):
        first = api.rows("flights", top=5)
        assert first["top"] == 5 and first["skip"] == 0
        assert len(first["rows"]) == 5
        assert len(first["counts"]) == 5
        # Every column appears: the default order is the full schema.
        assert len(first["columns"]) == len(api.metadata("flights")["columns"])
        assert first["nextSkip"] == 5
        second = api.rows("flights", top=5, skip=first["nextSkip"])
        assert second["rows"] != first["rows"]
        assert second["skip"] == 5

    def test_rows_orderby_descending(self, api):
        page = api.rows("flights", top=10, orderby="Distance desc")
        assert page["columns"] == ["Distance"]
        distances = [row[0] for row in page["rows"]]
        assert distances == sorted(distances, reverse=True)

    def test_rows_rejects_unknown_column(self, api):
        with pytest.raises(GatewayError) as info:
            api.rows("flights", orderby="Nope")
        assert info.value.status == 400

    def test_rows_rejects_oversized_window(self, api):
        with pytest.raises(GatewayError):
            api.rows("flights", top=1000, skip=999_999)

    def test_sample_is_bounded_and_seeded(self, api):
        view = api.sample("flights", count=50, seed=7)
        assert view["requested"] == 50
        assert len(view["rows"]) == 50
        assert view["scanned"] == ROWS
        assert api.sample("flights", count=50, seed=7) == view

    def test_unpublished_dataset_is_404(self, api):
        with pytest.raises(GatewayError) as info:
            api.rows("ghost")
        assert info.value.status == 404
        assert info.value.code == "not_found"

    def test_connector_survives_session_sweep(self, api, service):
        before = api.rows("flights", top=3)
        # Kill the connector's backing session outright: the published
        # spec (not the handle) is durable, so the next read re-resolves.
        service.sessions.close("gateway-connector")
        after = api.rows("flights", top=3)
        assert canonical(after) == canonical(before)


# ---------------------------------------------------------------------------
# WebSocket handshake end to end
# ---------------------------------------------------------------------------
class TestWsHandshake:
    def test_server_hello_comes_first(self, gateway):
        ws = open_ws(gateway)
        welcome = ws.connect()
        assert ws.server_hello == {"type": "hello", **protocol_payload()}
        assert welcome["type"] == "welcome"
        assert welcome["protocolVersion"] == PROTOCOL_VERSION
        assert welcome["session"]
        ws.close()

    def test_mixed_version_fleet_serves_old_clients(self, gateway):
        """A v1 client on a v2 server completes with features downgraded."""
        ws = open_ws(gateway)
        welcome = ws.connect(protocol_version=1)
        assert welcome["protocolVersion"] == 1
        assert welcome["features"]["trace_context"] is True
        assert welcome["features"]["ws_resume"] is False
        assert welcome["features"]["ws_heartbeat"] is False
        # v1 welcomes carry no resume bookkeeping.
        assert "resumed" not in welcome
        ws.submit(1, "ping")
        reply = ws.result(1)
        assert reply["kind"] == "ack"
        assert reply["payload"] == {"pong": True}
        # v1 streams carry no seq numbers (ws_resume is a v2 feature).
        assert "seq" not in reply
        ws.close()

    def test_too_old_client_is_refused(self, gateway):
        ws = open_ws(gateway)
        with pytest.raises(GatewayError) as info:
            ws.connect(protocol_version=MIN_SUPPORTED - 1)
        assert info.value.code == "unsupported_protocol"
        ws.close()

    def test_future_client_is_pinned_down(self, gateway):
        ws = open_ws(gateway)
        welcome = ws.connect(protocol_version=PROTOCOL_VERSION + 5)
        assert welcome["protocolVersion"] == PROTOCOL_VERSION
        ws.close()

    def test_client_feature_opt_out(self, gateway):
        ws = open_ws(gateway)
        welcome = ws.connect(features={"ws_heartbeat": False})
        assert welcome["features"]["ws_heartbeat"] is False
        assert welcome["features"]["ws_resume"] is True
        ws.close()

    def test_malformed_hello_is_bad_handshake(self, gateway):
        ws = open_ws(gateway)
        ws.recv(None)  # server hello
        ws._send_json({"type": "request", "requestId": 1, "method": "ping"})
        answer = ws.recv(None)
        assert answer["type"] == "error"
        assert answer["code"] == "bad_handshake"
        ws.close()

    def test_unmasked_client_frame_closes_the_connection(self, gateway):
        ws = open_ws(gateway)
        ws.recv(None)
        ws._sock.sendall(
            encode_frame(OP_TEXT, b'{"type": "hello"}', mask=False)
        )
        with pytest.raises((ConnectionClosed, ConnectionError, OSError)):
            ws.recv(None)
        ws.close()

    def test_an_oversized_control_frame_header_closes_the_connection(
        self, gateway
    ):
        """RFC 6455 §5.5: a control frame carries at most 125 bytes.  A
        ping header declaring 200 is refused on its first two bytes —
        the server never waits for (or buffers) the payload."""
        ws = open_ws(gateway)
        ws.connect()
        ws._sock.sendall(
            bytes([0x80 | OP_PING, 0x80 | 126]) + struct.pack("!H", 200)
            + b"\x01\x02\x03\x04"
        )
        ws._sock.settimeout(5.0)
        try:
            while ws._sock.recv(4096):
                pass  # whatever the server sent before it hung up
        except socket.timeout:
            pytest.fail("the server kept the connection open")
        except ConnectionError:
            pass
        ws.close()

    def test_a_protocol_violation_is_closed_with_1002(self, gateway):
        """The same oversized ping header is answered with a close frame
        carrying status 1002 (protocol error) and a reason, then EOF."""
        ws = open_ws(gateway)
        ws.connect()
        ws._sock.sendall(
            bytes([0x80 | OP_PING, 0x80 | 126]) + struct.pack("!H", 200)
            + b"\x01\x02\x03\x04"
        )
        ws._sock.settimeout(5.0)
        while (message := read_message_blocking(ws._reader)).opcode != OP_CLOSE:
            pass  # a heartbeat sent before the violation
        (status,) = struct.unpack("!H", message.data[:2])
        assert status == 1002
        assert b"control frame" in message.data[2:]
        assert ws._sock.recv(4096) == b""
        ws.close()

    def test_ws_session_roams_from_http(self, gateway, api):
        session_id = api.create_session()["session"]
        ws = open_ws(gateway)
        welcome = ws.connect(session=session_id)
        assert welcome["session"] == session_id
        ws.close()
        api.close_session(session_id)


def masked_per_byte(payload: bytes, key: bytes) -> bytes:
    """RFC 6455 §5.3 as written: byte ``i`` XOR key byte ``i mod 4``."""
    return bytes(b ^ key[i % 4] for i, b in enumerate(payload))


class _Socket:
    def __init__(self, data: bytes):
        self.recv = io.BytesIO(data).read


class TestMasking:
    @settings(max_examples=60, deadline=None)
    @given(
        length=st.sampled_from([0, 1, 3, 4, 5, 125, 126, 127, 65535, 65536])
        | st.integers(0, 70_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_masked_frame_is_the_per_byte_mask(self, length, seed):
        payload = random.Random(seed).randbytes(length)
        frame = encode_frame(OP_TEXT, payload, mask=True)
        head = 2 + (2 if 126 <= length < 65536 else 8 if length >= 65536 else 0)
        key, body = frame[head : head + 4], frame[head + 4 :]
        assert frame[1] & 0x80 and len(body) == length
        assert body == masked_per_byte(payload, key)
        assert read_message_blocking(_Socket(frame)).data == payload


class TestRequestIdRange:
    @pytest.mark.parametrize("request_id", [REQUEST_ID_MAX + 1, REQUEST_ID_MIN - 1])
    def test_out_of_range_ids_are_bad_requests(self, gateway, request_id):
        ws = open_ws(gateway)
        ws.connect()
        for message in (
            {"type": "request", "requestId": request_id, "method": "ping"},
            {"type": "cancel", "requestId": request_id},
        ):
            ws._send_json(message)
            answer = ws.recv(None)
            assert answer["type"] == "error" and answer["code"] == "bad_request"
        # The connection stays usable, and both ends of the range are ids.
        for edge in (REQUEST_ID_MIN, REQUEST_ID_MAX):
            ws.submit(edge, "ping")
            assert ws.result(edge)["requestId"] == edge
        ws.close()

    def test_an_out_of_range_resume_entry_is_skipped(self, gateway):
        ws = open_ws(gateway)
        welcome = ws.connect(resume={str(REQUEST_ID_MAX + 1): 0, "778": 0})
        assert welcome["expired"] == [778]
        ws.close()


# ---------------------------------------------------------------------------
# Streams: progressive replies, cancel, resume, heartbeats
# ---------------------------------------------------------------------------
class TestWsStreams:
    def test_sketch_streams_progressive_partials(self, gateway):
        ws = open_ws(gateway)
        ws.connect()
        ws.submit(1, "load", args={"source": {}})
        handle = ws.result(1)["payload"]["handle"]
        ws.submit(2, "sketch", handle, {"sketch": HIST})
        replies = list(ws.stream(2))
        kinds = [r["kind"] for r in replies]
        assert kinds[-1] == "complete"
        assert kinds.count("complete") == 1
        assert all(k == "partial" for k in kinds[:-1])
        seqs = [r["seq"] for r in replies]
        assert seqs == sorted(seqs) and seqs[0] == 1
        progress = [r["progress"] for r in replies]
        assert progress == sorted(progress) and progress[-1] == 1.0
        assert replies[-1]["cache"] is not None
        ws.close()

    def test_cancel_terminates_with_cancelled(self, gateway):
        ws = open_ws(gateway)
        ws.connect()
        ws.submit(1, "load", args={"source": {}})
        handle = ws.result(1)["payload"]["handle"]
        slow = {"type": "slow", "perShardSeconds": 0.2, "inner": HIST}
        ws.submit(2, "sketch", handle, {"sketch": slow})
        ws.cancel(2)
        seen = list(ws.stream(2))
        # The ack is its own message type; the stream still ends with
        # exactly one terminal of its own.
        acks = [m for m in seen if m.get("type") == "cancel_ack"]
        assert len(acks) == 1 and acks[0]["cancelled"] is True
        assert seen[-1]["kind"] in ("cancelled", "complete")
        ws.close()

    def test_resume_replays_the_cumulative_tail(self, gateway):
        ws = open_ws(gateway)
        ws.connect()
        session_id = ws.session
        ws.submit(1, "load", args={"source": {}})
        handle = ws.result(1)["payload"]["handle"]
        ws.submit(2, "sketch", handle, {"sketch": HIST})
        original = list(ws.stream(2))
        ws.close()

        again = open_ws(gateway)
        welcome = again.connect(session=session_id, resume={"2": 0})
        assert welcome["resumed"] == [2]
        assert welcome["restarted"] == [] and welcome["expired"] == []
        replayed = list(again.stream(2))
        # The ledger holds the latest partial + the terminal: cumulative
        # partials make that replay lossless.
        assert [r["kind"] for r in replayed][-1] == "complete"
        assert canonical(replayed[-1]["payload"]) == canonical(
            original[-1]["payload"]
        )
        assert replayed[-1]["seq"] == original[-1]["seq"]
        again.close()

    def test_resume_skips_already_seen_seqs(self, gateway):
        ws = open_ws(gateway)
        ws.connect()
        session_id = ws.session
        ws.submit(1, "load", args={"source": {}})
        handle = ws.result(1)["payload"]["handle"]
        ws.submit(2, "sketch", handle, {"sketch": HIST})
        last_seq = ws.result(2)["seq"]
        ws.close()

        again = open_ws(gateway)
        again.connect(session=session_id, resume={"2": last_seq})
        again.submit(9, "ping")
        assert again.result(9)["kind"] == "ack"
        # Nothing with seq <= last_seq was replayed.
        assert again._inbox.get(2) is None
        again.close()

    def test_unknown_stream_resume_is_expired(self, gateway):
        ws = open_ws(gateway)
        welcome = ws.connect(resume={"777": 3})
        assert welcome["expired"] == [777]
        terminal = ws.result(777)
        assert terminal["kind"] == "error"
        assert terminal["code"] == "stream_expired"
        ws.close()

    def test_completed_stream_resumes_even_after_grace(self, service):
        """A stream that finished before the disconnect never expires:
        the ledger keeps its terminal for replay indefinitely."""
        gw = GatewayServer(service, resume_grace_seconds=0.05)
        gw.start_background()
        try:
            ws = GatewayWebSocket(*gw.address)
            ws.connect()
            session_id = ws.session
            ws.submit(1, "load", args={"source": {}})
            handle = ws.result(1)["payload"]["handle"]
            ws.submit(2, "sketch", handle, {"sketch": HIST})
            original = ws.result(2)
            ws.close()
            time.sleep(0.3)

            again = GatewayWebSocket(*gw.address)
            welcome = again.connect(session=session_id, resume={"2": 0})
            assert welcome["resumed"] == [2]
            replayed = list(again.stream(2))
            assert canonical(replayed[-1]["payload"]) == canonical(
                original["payload"]
            )
            again.close()
        finally:
            gw.close()

    def test_restart_after_grace_expiry(self, service):
        """A stream live at disconnect expires after the grace period;
        a late resume restarts the stored request from soft state."""
        gw = GatewayServer(service, resume_grace_seconds=0.05)
        gw.start_background()
        try:
            ws = GatewayWebSocket(*gw.address)
            ws.connect()
            session_id = ws.session
            ws.submit(1, "load", args={"source": {}})
            handle = ws.result(1)["payload"]["handle"]
            slow = {"type": "slow", "perShardSeconds": 0.1, "inner": HIST}
            ws.submit(2, "sketch", handle, {"sketch": slow})
            ws.close()  # drop mid-flight
            time.sleep(0.5)  # grace elapses; the live stream expires

            again = GatewayWebSocket(*gw.address)
            welcome = again.connect(session=session_id, resume={"2": 0})
            assert welcome["restarted"] == [2]
            replayed = list(again.stream(2))
            terminal = replayed[-1]
            assert terminal["kind"] == "complete"
            # seq continued monotonically across the restart (the expired
            # run already consumed seq 1+), so the client's "ignore
            # seq <= last seen" dedupe rule stays safe.
            assert replayed[0]["seq"] >= 2
            # The restarted run is the same computation: byte-identical
            # to a fresh submission of the same spec.
            again.submit(3, "sketch", handle, {"sketch": slow})
            fresh = again.result(3)
            assert canonical(terminal["payload"]) == canonical(
                fresh["payload"]
            )
            again.close()
        finally:
            gw.close()

    def test_heartbeats_arrive_when_negotiated(self, service):
        gw = GatewayServer(service, heartbeat_interval_seconds=0.05)
        gw.start_background()
        try:
            ws = GatewayWebSocket(*gw.address)
            ws.connect()
            deadline = time.monotonic() + 5.0
            message = ws.recv(None)
            while message.get("type") != "heartbeat":
                assert time.monotonic() < deadline
                message = ws.recv(None)
            assert message["n"] >= 1
            ws.close()
        finally:
            gw.close()

    def test_application_ping(self, gateway):
        ws = open_ws(gateway)
        ws.connect()
        assert ws.ping() == {"type": "pong"}
        ws.close()

    def test_ping_returns_the_pong_past_heartbeats(self, service):
        gw = GatewayServer(service, heartbeat_interval_seconds=0.05)
        gw.start_background()
        try:
            ws = GatewayWebSocket(*gw.address)
            ws.connect()
            time.sleep(0.3)  # heartbeats are queued ahead of the pong
            assert ws.ping() == {"type": "pong"}
            # What the ping read past is still there, in order.
            beats = [ws.recv(None)["n"] for _ in range(3)]
            assert beats == sorted(beats) and beats[0] == 1
            ws.close()
        finally:
            gw.close()

    def test_unknown_message_type_is_bad_request(self, gateway):
        ws = open_ws(gateway)
        ws.connect()
        ws._send_json({"type": "subscribe"})
        answer = ws.recv(None)
        assert answer["type"] == "error"
        assert answer["code"] == "bad_request"
        ws.close()


# ---------------------------------------------------------------------------
# The reply frame: encoded once, byte-identical to the three-pass path
# ---------------------------------------------------------------------------
def three_pass_frame(reply: RpcReply, seq: int | None) -> bytes:
    """The WebSocket reply frame as the gateway built it before replies
    were encoded once: envelope JSON, parsed back, re-serialized sorted."""
    message = json.loads(reply.to_json())
    message["type"] = "reply"
    if seq is not None:
        message["seq"] = seq
    return encode_frame(
        OP_TEXT, json.dumps(message, sort_keys=True).encode("utf-8")
    )


class TestReplyFrameOracle:
    @pytest.fixture(scope="class")
    def session(self, service):
        return service.sessions.get_or_create(None)

    def replies(self, session, args: dict, token=None, source=None) -> list[RpcReply]:
        load = RpcRequest(1, "", "load", {"source": source or {}})
        (loaded,) = session.web.execute(load)
        request = RpcRequest(7, loaded.payload["handle"], "sketch", args)
        return list(session.web.execute(request, token=token))

    def assert_identical(self, replies: list[RpcReply]) -> None:
        for seq, reply in enumerate(replies, start=1):
            assert reply_frame(reply, seq) == three_pass_frame(reply, seq)
            assert reply_frame(reply) == three_pass_frame(reply, None)

    @pytest.mark.parametrize("kind", sorted(SPEC_PER_TYPE))
    def test_every_summary(self, kind, session, canonical_dataset):
        source = {"kind": "hvc", "directory": canonical_dataset}
        replies = self.replies(session, {"sketch": SPEC_PER_TYPE[kind]}, source=source)
        assert replies[-1].kind == "complete"
        self.assert_identical(replies)

    def test_profiled_complete(self, session):
        replies = self.replies(session, {"sketch": HIST, "profile": True})
        assert replies[-1].profile is not None
        self.assert_identical(replies)

    def test_error_and_cancelled(self, session):
        error = list(session.web.execute(RpcRequest(8, "obj-404", "rowCount", {})))
        assert error[-1].kind == "error"
        token = CancellationToken()
        token.cancel()
        slow = {"type": "slow", "perShardSeconds": 0.01, "inner": HIST}
        cancelled = self.replies(session, {"sketch": slow}, token=token)
        assert cancelled[-1].kind == "cancelled"
        self.assert_identical(error + cancelled)

    def test_resume_replays_the_stored_bytes(self, session):
        slow = {"type": "slow", "perShardSeconds": 0.01, "inner": HIST}
        replies = self.replies(session, {"sketch": slow})
        assert [r.kind for r in replies[-2:]] == ["partial", "complete"]
        stream = _Stream(RpcRequest(7, "ds", "sketch", {"sketch": slow}))
        frames = [stream.record(reply) for reply in replies]
        assert frames == [
            three_pass_frame(reply, seq) for seq, reply in enumerate(replies, 1)
        ]
        last = len(frames)
        # A finished stream keeps its terminal alone: it subsumes every
        # cumulative partial.
        replayed = stream.replay_after(0)
        assert [id(f) for f in replayed] == [id(frames[-1])]
        assert stream.last_partial is None
        assert stream.replay_after(last - 1) == [frames[-1]]
        assert stream.replay_after(last) == []

    def test_resume_mid_stream_replays_the_latest_partial(self, session):
        slow = {"type": "slow", "perShardSeconds": 0.01, "inner": HIST}
        replies = self.replies(session, {"sketch": slow})
        partials = [reply for reply in replies if reply.kind == "partial"]
        assert len(partials) >= 2
        stream = _Stream(RpcRequest(7, "ds", "sketch", {"sketch": slow}))
        frames = [stream.record(reply) for reply in partials]
        assert not stream.done
        assert stream.replay_after(0) == [frames[-1]]
        assert stream.replay_after(len(frames) - 1) == [frames[-1]]
        assert stream.replay_after(len(frames)) == []


# ---------------------------------------------------------------------------
# Trace-context ingestion from HTTP headers
# ---------------------------------------------------------------------------
class TestTracing:
    def test_traceparent_header_joins_the_trace(
        self, gateway, api, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE", "1")
        trace_id = "ab" * 16
        header = f"00-{trace_id}-{'cd' * 8}-01"
        api.publish("traced", {})
        try:
            api.rows("traced", top=3, headers={"traceparent": header})
            spans = api.traces(trace_id)["spans"]
            assert spans, "no spans recorded for the propagated trace id"
            assert all(s["traceId"] == trace_id for s in spans)
        finally:
            api.unpublish("traced")


# ---------------------------------------------------------------------------
# RemoteDataSet: the dataset interface over the WebSocket
# ---------------------------------------------------------------------------
class TestRemoteDataSet:
    @pytest.fixture
    def remote(self, gateway):
        ws = open_ws(gateway, timeout=60)
        ws.connect()
        yield RemoteDataSet.load(ws, SOURCES.to_json(SOURCE))
        ws.close()

    def test_heartbeats_read_past_are_not_queued(self, service):
        """A spreadsheet drains each request's stream and never reads
        unaddressed messages: the beats it reads past leave only their
        count behind."""
        gw = GatewayServer(service, heartbeat_interval_seconds=0.01)
        gw.start_background()
        try:
            with open_ws(gw, timeout=60) as ws:
                ws.connect()
                sheet = Spreadsheet(RemoteDataSet.load(ws, SOURCES.to_json(SOURCE)))
                for _ in range(5):
                    time.sleep(0.2)
                    sheet.histogram("Distance")
                assert not ws._inbox.get(None)
                assert ws.last_heartbeat is not None and ws.last_heartbeat > 1
        finally:
            gw.close()

    def test_maps_return_new_handles_the_server_derived(self, remote):
        local = Cluster(num_workers=2).load(SOURCE)
        maps = [
            FilterMap(ColumnPredicate("Distance", ">", 1000.0)),
            ProjectMap(["Distance", "Airline"]),
            ExpressionMap("gain", "DepDelay - ArrDelay"),
        ]
        for table_map in maps:
            derived = remote.map(table_map)
            assert derived.handle != remote.handle
            expected = local.map(table_map)
            assert derived.schema.names == expected.schema.names
            assert derived.total_rows == expected.total_rows
            spec = sketch_from_json(HIST)
            assert summary_to_bytes(derived.sketch(spec)) == summary_to_bytes(
                expected.sketch(spec)
            )

    def test_a_derive_map_is_refused_before_anything_is_sent(self, remote):
        with pytest.raises(ProtocolError, match="Python callable"):
            remote.map(DeriveMap("twice", ContentsKind.DOUBLE, lambda row: 2.0))
        assert next(remote.socket._ids) == 2  # the load's, and no other

    def test_an_error_reply_raises_with_its_code(self, remote):
        with pytest.raises(GatewayError) as caught:
            remote.sketch(sketch_from_json({**HIST, "column": "Nope"}))
        assert caught.value.code == "engine"
        assert remote.total_rows == ROWS  # the socket is still in step

    def test_a_cancelled_token_cancels_the_stream(self, remote):
        token = CancellationToken()
        slow = SlowdownSketch(sketch_from_json(HIST), per_shard_seconds=0.1)
        partials = []
        for partial in remote.sketch_stream(slow, token):
            partials.append(partial)
            token.cancel()
        assert partials and partials[-1].progress < 1.0
        assert remote.total_rows == ROWS  # the cancelled terminal was read

    def test_each_request_carries_a_child_of_the_current_trace(
        self, remote, api
    ):
        ctx = TraceContext.new_root()
        with use_context(ctx):
            remote.sketch(sketch_from_json({**HIST, "buckets": {
                **HIST["buckets"], "count": 7}}))
        spans = api.traces(ctx.trace_id)["spans"]
        (served,) = [s for s in spans if s["name"] == "query.sketch"]
        assert served["parentId"] == ctx.span_id


# ---------------------------------------------------------------------------
# Director integration: gateway routing and health
# ---------------------------------------------------------------------------
class TestDirector:
    def test_probe_gateway_sees_a_live_gateway(self, gateway):
        assert probe_gateway(gateway.address) is True

    def test_probe_gateway_rejects_a_dead_port(self):
        assert probe_gateway(("127.0.0.1", 1), timeout=0.5) is False

    def test_connect_pins_the_welcomed_session(self, gateway):
        director = ConnectionDirector([gateway.address])
        with director.connect() as first:
            session = first.session
        assert director._affinity[session] == gateway.address
        with director.connect(session) as again:
            assert again.session == session

    def test_healthy_root_with_live_gateway_stays_in_rotation(self, gateway):
        director = ConnectionDirector([gateway.address], max_ping_failures=1)
        results = director.check_health()
        assert results[gateway.address] is True
        assert director.ejected() == []

    def test_dead_gateway_ejects_its_root(self, service):
        gw = GatewayServer(service)
        address = gw.start_background()
        gw.close()  # the root's front door is gone
        director = ConnectionDirector([address], max_ping_failures=2)
        assert director.check_health()[address] is False
        assert director.ejected() == []  # one strike is not enough
        assert director.check_health()[address] is False
        assert director.ejected() == [address]
        # A gateway back on the same port heals the root on the next pass.
        gw = GatewayServer(service, port=address[1])
        gw.start_background()
        try:
            assert director.check_health()[address] is True
            assert director.ejected() == []
        finally:
            gw.close()


# ---------------------------------------------------------------------------
# `repro serve`: the CLI front door end to end
# ---------------------------------------------------------------------------
class TestGatewayCli:
    def test_serve_subcommand_serves_http(self):
        import os
        import re
        import subprocess
        import sys
        import urllib.request

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--demo-flights", "300", "--workers", "1", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no address in the startup banner: {banner!r}"
            host, port = match.group(1), int(match.group(2))
            with urllib.request.urlopen(
                f"http://{host}:{port}/api/v1/health", timeout=10
            ) as response:
                health = json.loads(response.read())
            assert health["gateway"] is True
            assert health["protocolVersion"] == PROTOCOL_VERSION
            with urllib.request.urlopen(
                f"http://{host}:{port}/api/v1/protocol", timeout=10
            ) as response:
                protocol = json.loads(response.read())
            assert protocol == protocol_payload()
        finally:
            process.terminate()
            process.wait(timeout=10)

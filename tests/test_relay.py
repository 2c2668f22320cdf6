"""Command relay: mailbox protocol, HTTP server, polling loop."""

import json
import logging
import socket
import struct
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cecsim.attacks import AttackController
from cecsim.bus import Simulator
from cecsim.frames import OP_STANDBY
from cecsim.relay import (
    LISTENER_PATH,
    MAX_BODY_BYTES,
    LoopbackRelayClient,
    RelayPoller,
    RelayState,
    RelayUnreachable,
    WEBCLIENT_PATH,
)
from cecsim.relay_http import HttpRelayClient, RelayServer
from cecsim.scenarios import builtin_scenario, load_scenario, run_scenario, scenario_document
from cecsim.testbed import EXPECTED_TESTBED_SCAN
from cecsim.transfer import MAX_PAYLOAD, PayloadStore, payload_digest

from conftest import KNOWN_COMMANDS, build_testbed, serving


@pytest.fixture(params=["loopback", "http"])
def client(request):
    if request.param == "loopback":
        yield LoopbackRelayClient()
        return
    with serving(RelayServer(("127.0.0.1", 0))) as server:
        yield HttpRelayClient(server.url)


def wired_sim():
    sim = Simulator(build_testbed())
    store = PayloadStore(seed=0)
    store.capture = b"seized-bytes"
    controller = AttackController("listener", store)
    controller.register(sim)
    return sim, controller, store


# ---------------------------------------------------------------------------
# Mailbox protocol (exercised over both transports)
# ---------------------------------------------------------------------------

class TestMailboxes:
    def test_slots_start_empty(self, client):
        assert client.get(LISTENER_PATH) is None
        assert client.get(WEBCLIENT_PATH) is None

    def test_post_then_get(self, client):
        client.post(LISTENER_PATH, "hello")
        assert client.get(LISTENER_PATH) == "hello"

    def test_get_does_not_consume(self, client):
        client.post(LISTENER_PATH, "sticky")
        assert client.get(LISTENER_PATH) == "sticky"
        assert client.get(LISTENER_PATH) == "sticky"

    def test_last_write_wins(self, client):
        client.post(WEBCLIENT_PATH, "one")
        client.post(WEBCLIENT_PATH, "two")
        assert client.get(WEBCLIENT_PATH) == "two"

    def test_slots_independent(self, client):
        client.post(LISTENER_PATH, "inbound")
        client.post(WEBCLIENT_PATH, "outbound")
        assert client.get(LISTENER_PATH) == "inbound"
        assert client.get(WEBCLIENT_PATH) == "outbound"

    def test_unknown_path_fails(self, client):
        with pytest.raises(RelayUnreachable):
            client.get("/cec/other")


class TestProtocolEdges:
    def test_unknown_path_404(self):
        state = RelayState()
        status, _ = state.handle("GET", "/nope", b"")
        assert status == 404

    def test_post_requires_json_value(self):
        state = RelayState()
        assert state.handle("POST", LISTENER_PATH, b"not-json")[0] == 400
        assert state.handle("POST", LISTENER_PATH, b'{"other": 1}')[0] == 400
        assert state.handle("POST", LISTENER_PATH, b'{"value": 3}')[0] == 400
        assert state.handle("POST", LISTENER_PATH, b'{"value": "ok"}')[0] == 200

    def test_deeply_nested_body_400(self):
        state = RelayState()
        assert state.handle("POST", LISTENER_PATH, b"[" * 100_000)[0] == 400

    def test_other_methods_405(self):
        state = RelayState()
        assert state.handle("PUT", LISTENER_PATH, b"")[0] == 405
        assert state.handle("DELETE", WEBCLIENT_PATH, b"")[0] == 405

    def test_get_returns_null_value(self):
        state = RelayState()
        status, payload = state.handle("GET", LISTENER_PATH, b"")
        assert status == 200
        assert payload == {"value": None}


# ---------------------------------------------------------------------------
# Polling loop
# ---------------------------------------------------------------------------

class TestPoller:
    def test_polls_only_on_interval(self):
        sim, controller, _ = wired_sim()

        class CountingClient(LoopbackRelayClient):
            gets = 0

            def get(self, path):
                CountingClient.gets += 1
                return super().get(path)

        ticks = []

        class CountingPoller(RelayPoller):
            def on_tick(self, sim, tick):
                ticks.append(tick)
                super().on_tick(sim, tick)

        CountingPoller(CountingClient(), controller, interval_ticks=5).start(sim)
        sim.start()
        sim.run(until=21)
        assert CountingClient.gets == 4
        # Between polls the poller sleeps: it ticks only to poll.
        assert ticks == [5, 10, 15, 20]

    def test_idle_relay_run_jumps_between_polls(self, monkeypatch):
        ticks = []
        on_tick = RelayPoller.on_tick

        def counting(self, sim, tick):
            ticks.append(tick)
            on_tick(self, sim, tick)

        monkeypatch.setattr(RelayPoller, "on_tick", counting)
        scenario = load_scenario({
            "name": "idle-relay", "topology": "testbed", "duration": 100_000,
            "relay": {"enabled": True, "interval_ticks": 10_000},
        })
        result = run_scenario(scenario)
        assert ticks == list(range(10_000, 100_000, 10_000))
        assert result.sim.clock == 100_000

    def test_a_poll_runs_before_its_ticks_queued_calls(self):
        # DOS1 posted at tick 40, a poll tick: that poll reads the slot before
        # the post lands, so the command runs at the poll of tick 60.
        document, _ = scenario_document("attack5-remote-churn")
        relay = {"enabled": True, "commands": [{"tick": 40, "command": "DOS1"}]}
        result = run_scenario(load_scenario(dict(document, relay=relay)))
        churn = [e.tick for e in result.sim.trace.events if e.origin == "listener" and e.tick > 0]
        assert churn[0] == 61

    def test_command_dispatched_once(self, relay_log):
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        client.post(LISTENER_PATH, json.dumps({"command": "TDOS", "issued_at": 0}))
        sim.start()
        sim.run(until=12)
        assert relay_log.executed == ["TDOS"]
        # Armed, and nothing on the wire has made it fire yet.
        assert controller.targeted.armed
        assert not any(e.frame.opcode == OP_STANDBY for e in sim.trace.events)

    def test_fresh_envelope_reexecutes(self, relay_log):
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        client.post(LISTENER_PATH, json.dumps({"command": "CANCEL", "issued_at": 0}))
        sim.start()
        sim.run(until=5)
        client.post(LISTENER_PATH, json.dumps({"command": "CANCEL", "issued_at": 5}))
        sim.run(until=10)
        assert relay_log.executed == ["CANCEL", "CANCEL"]

    def test_unknown_command_logged_not_executed(self, relay_log):
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        client.post(LISTENER_PATH, json.dumps({"command": "FORMAT_DISK"}))
        sim.start()
        sim.run(until=6)
        assert relay_log.executed == []
        assert relay_log.unknown == ["'FORMAT_DISK' (11 chars)"]
        assert "FORMAT_DISK" not in KNOWN_COMMANDS

    def test_malformed_envelope_ignored(self, relay_log):
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        client.post(LISTENER_PATH, "not json at all")
        sim.start()
        sim.run(until=6)
        assert relay_log.executed == []

    @pytest.mark.parametrize(
        "envelope", ["[" * 100_000, '{"command": %s}' % ("[" * 900 + "]" * 900)]
    )
    def test_deeply_nested_envelope_ignored(self, envelope, relay_log):
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        client.post(LISTENER_PATH, envelope)
        sim.run(until=6)
        assert relay_log.executed == [] and relay_log.unknown == []
        assert sim.clock == 6

    @pytest.mark.parametrize("target", ["x", "4", 99, -1, None, True, [4]])
    def test_bad_target_ignored_and_run_finishes(self, target, relay_log):
        scenario = load_scenario(
            {
                "name": "bad-target",
                "topology": "testbed",
                "duration": 50,
                "relay": {
                    "enabled": True,
                    "interval_ticks": 5,
                    "commands": [
                        {"tick": 3, "command": "TDOS", "target": target},
                        {"tick": 12, "command": "CANCEL"},
                    ],
                },
            }
        )
        result = run_scenario(scenario, relay_client=LoopbackRelayClient())
        assert result.sim.clock == 50
        assert relay_log.executed == ["CANCEL"]
        assert not result.controllers["listener"].targeted.armed

    def test_target_sets_standby_destination(self, relay_log):
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        client.post(LISTENER_PATH, json.dumps({"command": "TDOS", "target": 4}))
        sim.run(until=4)
        assert relay_log.executed == ["TDOS"]
        assert controller.targeted.target_address == 4

    def test_command_table_names_every_command(self):
        assert set(KNOWN_COMMANDS) == {"DOS1", "SCAN", "TDOS", "CANCEL", "GETFILE"}

    def test_outage_queues_results_until_recovery(self):
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        client.down = True
        poller.publish("result-1")
        assert poller._pending == "result-1"
        client.down = False
        poller.publish("result-2")
        assert client.get(WEBCLIENT_PATH) == "result-2"
        assert poller._pending is None

    def test_outage_over_two_results_posts_only_the_newer(self):
        sim, controller, _ = wired_sim()
        posted = []

        class RecordingClient(LoopbackRelayClient):
            def post(self, path, value):
                super().post(path, value)
                posted.append(value)

        client = RecordingClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        client.down = True
        poller.publish("result-1")
        poller.publish("result-2")
        sim.run(until=3)  # the poll at tick 2 fails too
        client.down = False
        sim.run(until=5)
        assert posted == ["result-2"]
        assert client.get(WEBCLIENT_PATH) == "result-2"
        assert poller._pending is None

    def test_distinct_envelopes_leave_one_held(self, relay_log):
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=1)
        poller.start(sim)
        for issued_at in range(1, 1001):
            envelope = json.dumps({"command": "CANCEL", "issued_at": issued_at})
            client.post(LISTENER_PATH, envelope)
            sim.run(until=issued_at + 1)
        assert relay_log.executed == ["CANCEL"] * 1000
        assert poller._last == envelope
        assert poller._pending is None

    def test_poller_state_does_not_grow_with_envelopes(self, relay_log):
        # Known and unknown commands alike: after 10 distinct envelopes and
        # after 1,000, each container the poller holds has the same size.
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=1)
        poller.start(sim)
        sizes = []
        for issued_at in range(1, 1001):
            command = "CANCEL" if issued_at % 2 else "FORMAT_DISK"
            client.post(LISTENER_PATH, json.dumps({"command": command, "issued_at": issued_at}))
            sim.run(until=issued_at + 1)
            if issued_at in (10, 1000):
                sizes.append({name: len(value) for name, value in vars(poller).items()
                              if isinstance(value, (list, dict, set, deque))})
        assert len(relay_log.executed) == len(relay_log.unknown) == 500
        assert sizes[0] == sizes[1]

    def test_envelope_reposted_after_another_runs_again(self, relay_log):
        # Only the last envelope read is remembered: A, B, A runs A twice.
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        first = json.dumps({"command": "CANCEL", "issued_at": 0})
        for until, envelope in ((5, first), (9, json.dumps({"command": "TDOS"})), (13, first)):
            client.post(LISTENER_PATH, envelope)
            sim.run(until=until)
        assert relay_log.executed == ["CANCEL", "TDOS", "CANCEL"]

    @pytest.mark.parametrize(
        "envelope, unknown",
        [
            pytest.param(
                json.dumps({"command": "X" * 2**20}), [repr("X" * 64) + " (1048576 chars)"],
                id="command",
            ),
            pytest.param("{" * 2**20, [], id="malformed"),
            pytest.param(json.dumps({"command": "TDOS", "target": "X" * 2**20}), [], id="target"),
        ],
    )
    def test_huge_envelope_text_is_cut(self, envelope, unknown, caplog, relay_log):
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        client.post(LISTENER_PATH, envelope)
        with caplog.at_level("DEBUG", logger="cecsim.relay"):
            sim.run(until=4)
        assert relay_log.executed == [] and relay_log.unknown == unknown
        assert caplog.records
        assert all(len(record.getMessage()) < 200 for record in caplog.records)

    def test_poll_survives_outage(self, relay_log):
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        client.down = True
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        sim.start()
        sim.run(until=8)  # polls fail quietly
        client.down = False
        client.post(LISTENER_PATH, json.dumps({"command": "TDOS"}))
        sim.run(until=12)
        assert relay_log.executed == ["TDOS"]

    def test_getfile_publishes_digest(self):
        sim, controller, store = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        client.post(LISTENER_PATH, json.dumps({"command": "GETFILE"}))
        sim.start()
        sim.run(until=6)
        published = json.loads(client.get(WEBCLIENT_PATH))
        assert published["bytes"] == len(b"seized-bytes")
        assert published["sha256"] == payload_digest(b"seized-bytes")
        assert bytes.fromhex(published["data_hex"]) == b"seized-bytes"

    def test_scan_command_publishes_census(self):
        sim, controller, _ = wired_sim()
        client = LoopbackRelayClient()
        poller = RelayPoller(client, controller, interval_ticks=2)
        poller.start(sim)
        client.post(LISTENER_PATH, json.dumps({"command": "SCAN"}))
        sim.start()
        sim.run(until=140)
        assert json.loads(client.get(WEBCLIENT_PATH)) == EXPECTED_TESTBED_SCAN

    def test_interval_must_be_positive(self):
        sim, controller, _ = wired_sim()
        actors = list(sim.actors)
        with pytest.raises(ValueError):
            RelayPoller(LoopbackRelayClient(), controller, interval_ticks=0).start(sim)
        # A refused poller is not left added.
        assert sim.actors == actors


# ---------------------------------------------------------------------------
# HTTP transport specifics
# ---------------------------------------------------------------------------

class TestHttpTransport:
    @pytest.mark.parametrize(
        "url",
        ["notaurl", "127.0.0.1:8750", "ftp://127.0.0.1/", "file:///etc/hosts", "http://",
         "http://:8750", "http://127.0.0.1:99999", "http://127.0.0.1:port", "http://[::1",
         "http://127.0.0.1:8750/?key=1", "http://127.0.0.1:8750?", "http://127.0.0.1:8750#top"],
    )
    def test_base_url_must_be_http_with_a_host(self, url):
        with pytest.raises(ValueError):
            HttpRelayClient(url)

    @pytest.mark.parametrize("url", ["http://127.0.0.1:1", "https://relay.example/base/"])
    def test_http_urls_build_without_connecting(self, url):
        assert HttpRelayClient(url).base_url == url.rstrip("/")

    def test_unreachable_server(self):
        client = HttpRelayClient("http://127.0.0.1:1", timeout=0.2)
        with pytest.raises(RelayUnreachable):
            client.get(LISTENER_PATH)

    def test_http_error_statuses(self):
        with serving(RelayServer(("127.0.0.1", 0))) as server:
            client = HttpRelayClient(server.url)
            with pytest.raises(RelayUnreachable):
                client.get("/cec/bogus")


class _StubRelayHandler(BaseHTTPRequestHandler):
    """Answers every request with the server's `answer` bytes as a 200, or
    with them alone, status line and all, when `raw` is set."""

    def do_GET(self):
        if self.server.raw:
            self.wfile.write(self.server.answer)
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.server.answer)))
        self.end_headers()
        self.wfile.write(self.server.answer)

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.do_GET()

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_relay():
    with serving(ThreadingHTTPServer(("127.0.0.1", 0), _StubRelayHandler)) as server:
        yield server


def _stub_client(server, answer: bytes, raw: bool = False) -> HttpRelayClient:
    server.answer, server.raw = answer, raw
    host, port = server.server_address[:2]
    return HttpRelayClient("http://%s:%d" % (host, port), timeout=5)


class TestUntrustedAnswers:
    @pytest.mark.parametrize(
        "answer",
        [b"[]", b"{}", b'"x"', b"5", b"null", b'{"value": 5}', b'{"value": ["DOS1"]}',
         b'{"value": {"command": "DOS1"}}', b"not json", b"\xff\xfe",
         pytest.param(b"[" * 100_000, id="deep")],
    )
    def test_get_refuses_a_malformed_answer(self, stub_relay, answer):
        with pytest.raises(RelayUnreachable):
            _stub_client(stub_relay, answer).get(LISTENER_PATH)

    @pytest.mark.parametrize("answer", [b"[]", b'"x"', b"5", b"null"])
    def test_post_refuses_an_answer_that_is_not_an_object(self, stub_relay, answer):
        with pytest.raises(RelayUnreachable):
            _stub_client(stub_relay, answer).post(WEBCLIENT_PATH, "result")

    def test_a_garbled_status_line_is_an_outage(self, stub_relay):
        with pytest.raises(RelayUnreachable):
            _stub_client(stub_relay, b"garbage\r\n\r\n", raw=True).get(LISTENER_PATH)

    @pytest.mark.parametrize(
        "answer, value",
        [(b'{"value": null}', None), (b'{"value": "x", "extra": 1}', "x")],
    )
    def test_get_accepts_a_string_or_null_value(self, stub_relay, answer, value):
        assert _stub_client(stub_relay, answer).get(LISTENER_PATH) == value

    def test_poller_retries_through_malformed_answers(self, stub_relay, caplog, relay_log):
        client = _stub_client(stub_relay, b'{"value": 5}')
        result = run_scenario(builtin_scenario("attack5-remote-churn"), relay_client=client)
        assert relay_log.executed == []
        polls = [r for r in caplog.records if r.getMessage().startswith("relay poll failed")]
        # Every poll tick of the run fails, and is retried at the next.
        assert len(polls) == result.scenario.duration // result.poller.interval_ticks - 1


def _raw_request(server, head: bytes) -> bytes:
    """Send raw request bytes and return the status line of the answer."""
    with socket.create_connection(server.server_address[:2], timeout=5) as conn:
        conn.sendall(head)
        return conn.makefile("rb").readline()


class TestContentLength:
    @pytest.mark.parametrize(
        "length, status",
        [("abc", b" 400 "), ("-5", b" 400 "), (str(MAX_BODY_BYTES + 1), b" 413 ")],
    )
    def test_bad_length_answered_and_server_keeps_serving(self, length, status):
        with serving(RelayServer(("127.0.0.1", 0))) as server:
            head = "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n" % (
                LISTENER_PATH, length
            )
            assert status in _raw_request(server, head.encode("ascii"))
            get = "GET %s HTTP/1.1\r\nHost: x\r\n\r\n" % WEBCLIENT_PATH
            assert b" 200 " in _raw_request(server, get.encode("ascii"))
            assert HttpRelayClient(server.url).get(WEBCLIENT_PATH) is None

    def test_short_body_is_answered_400_and_stored_nowhere(self):
        # 50 bytes of a valid command body, then the client stops sending.
        body = b'{"value": "%s"}' % (b"a" * 37)
        assert len(body) == 50
        head = "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n" % LISTENER_PATH
        with serving(RelayServer(("127.0.0.1", 0))) as server:
            with socket.create_connection(server.server_address[:2], timeout=5) as conn:
                conn.sendall(head.encode("ascii") + body)
                conn.shutdown(socket.SHUT_WR)
                assert b" 400 " in conn.makefile("rb").readline()
            assert HttpRelayClient(server.url).get(LISTENER_PATH) is None

    def test_client_hang_up_is_logged_without_a_traceback(self, caplog, capsys):
        caplog.set_level(logging.DEBUG, logger="cecsim.relay_http")
        head = "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n" % LISTENER_PATH
        with serving(RelayServer(("127.0.0.1", 0))) as server:
            with socket.create_connection(server.server_address[:2], timeout=5) as conn:
                conn.sendall(head.encode("ascii") + b"{")
                # Close with a reset, so the server's read fails mid-body.
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            deadline = time.monotonic() + 5
            while not any("hung up" in m for m in caplog.messages):
                assert time.monotonic() < deadline, "no hang-up logged"
                time.sleep(0.01)
            assert HttpRelayClient(server.url).get(LISTENER_PATH) is None
        assert "Traceback" not in capsys.readouterr().err

    def test_limit_fits_a_getfile_of_the_largest_payload(self):
        # A GETFILE body grows by two hex digits per payload byte; measure
        # the rest on a small payload and scale it to MAX_PAYLOAD.
        sim, controller, _ = wired_sim()
        poller = RelayPoller(LoopbackRelayClient(), controller, interval_ticks=1)
        controller.store.capture = bytes(1024)
        poller._getfile(sim, {})
        body = json.dumps({"value": poller.client.get(WEBCLIENT_PATH)})
        overhead = len(body) - 2 * 1024 + len(str(MAX_PAYLOAD)) - len("1024")
        assert 2 * MAX_PAYLOAD + overhead <= MAX_BODY_BYTES

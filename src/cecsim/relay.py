"""Two-slot HTTP dead-drop linking an outside operator to the listener.

The relay holds exactly two single-value string caches: one the operator
writes commands into, one the listener publishes results to.  GET returns
{"value": ...} (null when empty), POST {"value": ...} overwrites; last
write wins and reads never consume.  The same handler backs an in-process
loopback transport and a real socket server, so tests exercise identical
logic either way.
"""

import http.client
import json
import logging
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from cecsim import schema
from cecsim.bus import Actor, Simulator
from cecsim.frames import BROADCAST
from cecsim.transfer import MAX_PAYLOAD, payload_digest

log = logging.getLogger(__name__)

LISTENER_PATH = "/cec/listener"
WEBCLIENT_PATH = "/cec/webclient"

# The largest legal request body: a GETFILE summary of a MAX_PAYLOAD payload
# is twice that in hex digits, and the rest of both JSON layers fits in 4 KiB.
MAX_BODY_BYTES = 2 * MAX_PAYLOAD + 4096


# Envelope text in a log line or a record is cut to this many characters.
EXCERPT_CHARS = 64


def _excerpt(text: str) -> str:
    return "%r (%d chars)" % (text[:EXCERPT_CHARS], len(text))


class RelayUnreachable(Exception):
    """The relay endpoint could not be reached; the caller should retry."""


class RelayState:
    """The two named slots plus the shared request handler."""

    def __init__(self):
        self._slots: dict[str, str | None] = {LISTENER_PATH: None, WEBCLIENT_PATH: None}
        self._lock = threading.Lock()

    def handle(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        if path not in self._slots:
            return 404, {"error": "unknown path %s" % path}
        if method == "GET":
            with self._lock:
                return 200, {"value": self._slots[path]}
        if method == "POST":
            try:
                document = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
                return 400, {"error": "body must be JSON"}
            if not isinstance(document, dict) or not isinstance(document.get("value"), str):
                return 400, {"error": 'body must be {"value": "<string>"}'}
            with self._lock:
                self._slots[path] = document["value"]
            return 200, {"value": document["value"]}
        return 405, {"error": "method %s not allowed" % method}


class _RelayRequestHandler(BaseHTTPRequestHandler):
    server_version = "cecsim-relay/1.0"

    def _respond(self, method: str):
        length = self.headers.get("Content-Length") or "0"
        if not length.isdecimal():
            self._send(400, {"error": "Content-Length must be a non-negative integer"})
        elif int(length) > MAX_BODY_BYTES:
            self._send(413, {"error": "body larger than %d bytes" % MAX_BODY_BYTES})
        else:
            self._send(*self.server.state.handle(method, self.path, self.rfile.read(int(length))))

    def _send(self, status: int, payload: dict):
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        self._respond("GET")

    def do_POST(self):
        self._respond("POST")

    def log_message(self, fmt, *args):
        log.debug("relay http: " + fmt, *args)


class RelayServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], state: RelayState | None = None):
        self.state = state or RelayState()
        super().__init__(address, _RelayRequestHandler)

    def start_background(self) -> threading.Thread:
        # Poll every 0.05 s, not 0.5 s: `shutdown()` waits for the next poll.
        thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        return thread

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return "http://%s:%d" % (host, port)


class LoopbackRelayClient:
    """Talks to a RelayState directly; `down` simulates an outage."""

    def __init__(self, state: RelayState | None = None):
        self.state = state or RelayState()
        self.down = False

    def _call(self, method: str, path: str, body: bytes) -> dict:
        if self.down:
            raise RelayUnreachable("loopback relay marked down")
        status, payload = self.state.handle(method, path, body)
        if status != 200:
            raise RelayUnreachable("relay answered %d: %r" % (status, payload))
        return payload

    def get(self, path: str) -> str | None:
        return self._call("GET", path, b"")["value"]

    def post(self, path: str, value: str):
        self._call("POST", path, json.dumps({"value": value}).encode("utf-8"))


class HttpRelayClient:
    """Same interface over a real socket.  The relay's answers are not
    trusted: one that is not a JSON object, or a GET `value` that is
    neither a string nor null, counts as an outage (RelayUnreachable).
    A base URL that is not http(s)://host[:port][/path] raises ValueError."""

    def __init__(self, base_url: str, timeout: float = 5.0):
        parts = urllib.parse.urlsplit(base_url)
        # A query or a fragment, even an empty one, would swallow the paths appended.
        if parts.scheme not in ("http", "https") or not parts.hostname or set("?#") & set(base_url):
            raise ValueError("relay URL must be http(s)://host[:port][/path], got %r" % base_url)
        parts.port  # raises ValueError now, not at the first call, for a bad port
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _call(self, method: str, path: str, body: bytes | None) -> dict:
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                answer = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, http.client.HTTPException, OSError, ValueError,
                RecursionError) as exc:
            raise RelayUnreachable(str(exc)) from None
        if not isinstance(answer, dict):
            raise RelayUnreachable("relay answered %.*r, not an object" % (EXCERPT_CHARS, answer))
        return answer

    def get(self, path: str) -> str | None:
        answer = self._call("GET", path, None)
        value = answer.get("value")
        if "value" not in answer or not (value is None or isinstance(value, str)):
            raise RelayUnreachable("relay answered %.*r, not a value" % (EXCERPT_CHARS, answer))
        return value

    def post(self, path: str, value: str):
        self._call("POST", path, json.dumps({"value": value}).encode("utf-8"))


class RelayPoller(Actor):
    """Listener-side loop: read the command slot every poll interval,
    run anything new, push the pending result back out.

    Like the relay slots, the poller keeps only the last write: it runs a
    value that differs from the last one read, so re-reading an envelope
    never re-runs it (re-issue with a fresh issued_at instead), and a
    result held over an outage is replaced by the next.  An envelope
    posted again after another (A, B, A) runs again; anyone who can
    replay A to the unauthenticated relay can post a fresh one anyway.
    """

    def __init__(self, client, controller, interval_ticks: int):
        if interval_ticks < 1:
            raise ValueError("poll interval must be at least one tick")
        super().__init__(controller.device)
        self.client = client
        self.controller = controller
        self.interval_ticks = interval_ticks
        self._last: str | None = None
        self._pending: str | None = None

    def on_tick(self, sim: Simulator, tick: int):
        if tick == 0 or tick % self.interval_ticks != 0:
            return
        try:
            value = self.client.get(LISTENER_PATH)
        except RelayUnreachable as exc:
            log.warning("relay poll failed: %s", exc)
            return
        if value is not None and value != self._last:
            self._last = value
            self._dispatch(sim, value)
        self._flush()

    def publish(self, text: str):
        self._pending = text
        self._flush()

    def _flush(self):
        if self._pending is None:
            return
        try:
            self.client.post(WEBCLIENT_PATH, self._pending)
        except RelayUnreachable as exc:
            log.warning("relay publish failed, will retry: %s", exc)
            return
        self._pending = None

    def _dispatch(self, sim: Simulator, value: str):
        try:
            envelope = json.loads(value)
            command = schema.text(envelope["command"], "command")
        except (ValueError, RecursionError, TypeError, KeyError):
            log.warning("ignoring malformed relay envelope %s", _excerpt(value))
            return
        handler = self._HANDLERS.get(command)
        if handler is None:
            log.warning("unknown relay command %s acknowledged, not executed", _excerpt(command))
            return
        try:
            handler(self, sim, envelope)
        except ValueError as exc:
            log.warning("ignoring relay command %s: %s", command, _excerpt(str(exc)))
            return
        log.info("relay command %s executed", command)

    def _dos1(self, sim: Simulator, envelope: dict):
        self.controller.broadcast.activate()

    def _tdos(self, sim: Simulator, envelope: dict):
        targeted = self.controller.targeted
        target = envelope.get("target", targeted.target_address)
        targeted.target_address = schema.integer(target, "standby target", 0, BROADCAST)
        targeted.arm()

    def _scan(self, sim: Simulator, envelope: dict):
        self.controller.start_scan(sim, on_complete=lambda _, rep: self.publish(rep.to_json()))

    def _cancel(self, sim: Simulator, envelope: dict):
        self.controller.cancel_all()

    def _getfile(self, sim: Simulator, envelope: dict):
        data = self.controller.store.current()
        summary = {"bytes": len(data), "sha256": payload_digest(data), "data_hex": data.hex()}
        self.publish(json.dumps(summary))

    # Each relay command name and the method that runs it.
    _HANDLERS = {
        "DOS1": _dos1, "SCAN": _scan, "TDOS": _tdos, "CANCEL": _cancel, "GETFILE": _getfile,
    }


KNOWN_COMMANDS = tuple(RelayPoller._HANDLERS)

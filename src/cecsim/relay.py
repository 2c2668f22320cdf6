"""Two-slot HTTP dead-drop linking an outside operator to the listener.

The relay holds exactly two single-value string caches: one the operator
writes commands into, one the listener publishes results to.  GET returns
{"value": ...} (null when empty), POST {"value": ...} overwrites; last
write wins and reads never consume.  The same handler backs an in-process
loopback transport and the socket server of `relay_http`, so tests
exercise identical logic either way.
"""

import json
import logging
import threading

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

# The largest answer a relay server sends: a stored value as `json.dumps`
# writes it, which turns each body byte into at most 6 answer bytes (a DEL
# byte becomes "\u007f"), inside the {"value": ""} envelope.  Every other
# answer is shorter.
MAX_ANSWER_BYTES = 6 * MAX_BODY_BYTES + len('{"value": ""}')


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


class RelayPoller(Actor):
    """Listener-side loop: read the command slot every poll interval,
    run anything new, push the pending result back out.

    An `interval_ticks` below 1 is refused at construction; `start` adds
    the poller and counts intervals from the current clock.
    Between polls it rests, with a wake queued for the tick before the next
    one, so each poll runs ahead of that tick's queued calls.

    Like the relay slots, the poller keeps only the last write: it runs a
    value that differs from the last one read, so re-reading an envelope
    never re-runs it (re-issue with a fresh issued_at instead), and a
    result held over an outage is replaced by the next.  An envelope
    posted again after another (A, B, A) runs again; anyone who can
    replay A to the unauthenticated relay can post a fresh one anyway.
    """

    hears = frozenset()

    def __init__(self, client, controller, interval_ticks: int):
        super().__init__(controller.device)
        self.client = client
        self.controller = controller
        self.interval_ticks = schema.integer(interval_ticks, "relay interval_ticks", 1)
        self._last: str | None = None
        self._pending: str | None = None

    def start(self, sim: Simulator):
        sim.add_actor(self)
        sim.schedule(sim.clock + self.interval_ticks - 1, sim.wake, self)

    def on_tick(self, sim: Simulator, tick: int):
        sim.rest(self)
        sim.schedule(tick + self.interval_ticks - 1, sim.wake, self)
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
        self.controller.broadcast.activate(sim)

    def _tdos(self, sim: Simulator, envelope: dict):
        targeted = self.controller.targeted
        target = envelope.get("target", targeted.target_address)
        targeted.target_address = schema.integer(target, "standby target", 0, BROADCAST)
        targeted.armed = True

    def _scan(self, sim: Simulator, envelope: dict):
        self.controller.start_scan(sim, on_complete=lambda rep: self.publish(rep.to_json()))

    def _cancel(self, sim: Simulator, envelope: dict):
        self.controller.targeted.armed = False
        self.controller.broadcast.active = False

    def _getfile(self, sim: Simulator, envelope: dict):
        data = self.controller.store.current()
        summary = {"bytes": len(data), "sha256": payload_digest(data), "data_hex": data.hex()}
        self.publish(json.dumps(summary))

    # Each relay command name and the method that runs it.
    _HANDLERS = {
        "DOS1": _dos1, "SCAN": _scan, "TDOS": _tdos, "CANCEL": _cancel, "GETFILE": _getfile,
    }


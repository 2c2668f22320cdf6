"""The relay over real sockets: the HTTP server of its two slots and the
poller's HTTP client.  Only `cecsim relay serve` and `cecsim run
--relay-url` import this module, so no simulation loads the HTTP stack."""

import http.client
import json
import logging
import sys
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from cecsim.relay import EXCERPT_CHARS, MAX_BODY_BYTES, RelayState, RelayUnreachable

log = logging.getLogger(__name__)


class _RelayRequestHandler(BaseHTTPRequestHandler):
    server_version = "cecsim-relay/1.0"

    def _respond(self, method: str):
        length = self.headers.get("Content-Length") or "0"
        if not length.isdecimal():
            self._send(400, {"error": "Content-Length must be a non-negative integer"})
        elif int(length) > MAX_BODY_BYTES:
            self._send(413, {"error": "body larger than %d bytes" % MAX_BODY_BYTES})
        else:
            body = self.rfile.read(int(length))
            if len(body) < int(length):
                # The client stopped sending early: store nothing of it.
                self._send(400, {"error": "body shorter than its Content-Length"})
            else:
                self._send(*self.server.state.handle(method, self.path, body))

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

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return "http://%s:%d" % (host, port)

    def handle_error(self, request, client_address):
        """A client that hangs up is routine: log it, without a traceback."""
        if isinstance(sys.exc_info()[1], ConnectionError):
            log.debug("relay http: %s:%d hung up", *client_address[:2])
        else:
            super().handle_error(request, client_address)


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

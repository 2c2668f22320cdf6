"""Shared fixtures: the lab tree, small topologies, random builders, and
the relay poller's log and command names; servers run in the background."""

import contextlib
import logging
import threading

import pytest

from cecsim.bus import Simulator
from cecsim.relay import RelayPoller
from cecsim.testbed import build_testbed
from cecsim.topology import build_topology


@pytest.fixture
def testbed_topology():
    return build_testbed()


@pytest.fixture
def testbed_sim(testbed_topology):
    sim = Simulator(testbed_topology)
    sim.start()
    return sim


@pytest.fixture
def pair_topology():
    """A display plus one source, the smallest interesting bus."""
    return build_topology(
        {
            "nodes": [
                {"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"},
                {"id": "box", "kind": "source", "device_type": "playback", "osd_name": "Box"},
            ],
            "edges": [{"parent": "tv", "child": "box", "port": 1}],
        }
    )


def make_chain(length: int, propagates=True):
    """display <- switch <- ... <- source, every hop on port 1."""
    nodes = [{"id": "d0", "kind": "display", "device_type": "television", "osd_name": "D0"}]
    edges = []
    for i in range(1, length):
        kind = "source" if i == length - 1 else "switch"
        dtype = "playback"
        nodes.append({"id": "d%d" % i, "kind": kind, "device_type": dtype, "osd_name": "D%d" % i})
        edges.append(
            {"parent": "d%d" % (i - 1), "child": "d%d" % i, "port": 1, "cec_propagates": propagates}
        )
    return build_topology({"nodes": nodes, "edges": edges})


class RelayLog:
    """The relay commands a poller ran, read from its log records."""

    def __init__(self, caplog):
        self._caplog = caplog

    def _args(self, message: str) -> list:
        return [r.args[0] for r in self._caplog.records
                if r.name == "cecsim.relay" and r.msg == message]

    @property
    def executed(self) -> list[str]:
        """Each command name the poller ran, in order."""
        return self._args("relay command %s executed")

    @property
    def unknown(self) -> list[str]:
        """The excerpt of each unknown command the poller acknowledged."""
        return self._args("unknown relay command %s acknowledged, not executed")

    def clear(self):
        self._caplog.clear()


@pytest.fixture
def relay_log(caplog):
    caplog.set_level(logging.INFO, logger="cecsim.relay")
    return RelayLog(caplog)


# Every command name a relay poller runs.
KNOWN_COMMANDS = tuple(RelayPoller._HANDLERS)


@contextlib.contextmanager
def serving(server):
    """Serve `server` from a daemon thread, then shut it down and close it."""
    # Poll every 0.05 s, not 0.5 s: `shutdown()` waits for the next poll.
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()

"""Shared fixtures and helpers: the lab tree, small topologies, random
builders, covert segment counts, near misses of marker frames, rendered
logs, and the relay poller's log and command names; servers run in the
background.  `--hypothesis-profile=ci` runs every example but shrinks
none, so a failing property reports at once."""

import contextlib
import io
import logging
import threading

import pytest
from hypothesis import Phase, settings

from cecsim.bus import Simulator
from cecsim.frames import CecFrame
from cecsim.relay import RelayPoller
from cecsim.testbed import TESTBED_TOPOLOGY
from cecsim.topology import Topology, build_topology
from cecsim.transfer import SEGMENT_BYTES

# A whole-run property can take minutes to shrink its failing example.
settings.register_profile("ci", phases=tuple(p for p in Phase if p is not Phase.shrink))


def build_testbed() -> Topology:
    return build_topology(TESTBED_TOPOLOGY)


def segment_count(size: int) -> int:
    """The data frames a covert transfer of `size` bytes takes."""
    return -(-size // SEGMENT_BYTES)


def rendered(render) -> str:
    """The text a `Trace` render method, such as `trace.render_log`, writes."""
    out = io.StringIO()
    render(out)
    return out.getvalue()


def near_misses(marker: CecFrame) -> list[CecFrame]:
    """Frames that carry `marker`'s opcode but differ from it in the
    initiator, in one operand, or in length."""
    head, last = marker.operands[:-1], marker.operands[-1]
    return [
        CecFrame(1, marker.destination, marker.opcode, marker.operands),
        CecFrame(marker.initiator, marker.destination, marker.opcode, head + bytes((last ^ 1,))),
        CecFrame(marker.initiator, marker.destination, marker.opcode, head),
        CecFrame(marker.initiator, marker.destination, marker.opcode, marker.operands + bytes((last,))),
    ]


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

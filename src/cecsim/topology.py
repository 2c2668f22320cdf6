"""HDMI tree model: device nodes, cable edges, and physical addressing.

Topologies load from a plain JSON document of nodes and edges.  Validation
is strict and every error names the node or edge at fault.  Physical
addresses follow EDID: the root is 0.0.0.0 and a child on port p replaces
its parent's first zero nibble with p.  A device that never reads EDID
stays unregistered at f.f.f.f; an intermediate without its own EDID hop
(a dumb switch or splitter) passes its upstream address through unchanged,
so everything behind it sees the same port address.  A `Topology` is a
value nothing can edit: its nodes are frozen and held, with its vendor
names, in read-only mappings, its edges are a tuple, its root is found once
by `build_topology`, and its read-only views (addresses, domains) are
computed once.
"""

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from cecsim import schema
from cecsim.frames import (
    DeviceType, FrameError, IdentityEnum, PhysicalAddress, PowerState, parse_vendor_id,
)


class TopologyError(schema.FieldError):
    """Raised when a topology document is structurally invalid."""


class DeviceKind(IdentityEnum):
    DISPLAY = "display"
    SWITCH = "switch"
    HUB_SPLITTER = "hub_splitter"
    SOURCE = "source"
    ATTACKER_LISTENER = "attacker_listener"


_KIND_ALIASES = {
    "display": DeviceKind.DISPLAY,
    "tv": DeviceKind.DISPLAY,
    "switch": DeviceKind.SWITCH,
    "hub": DeviceKind.HUB_SPLITTER,
    "hub_splitter": DeviceKind.HUB_SPLITTER,
    "splitter": DeviceKind.HUB_SPLITTER,
    "source": DeviceKind.SOURCE,
    "listener": DeviceKind.ATTACKER_LISTENER,
    "attacker_listener": DeviceKind.ATTACKER_LISTENER,
}

_TYPE_ALIASES = {
    "television": DeviceType.TELEVISION,
    "tv": DeviceType.TELEVISION,
    "recording": DeviceType.RECORDING,
    "tuner": DeviceType.TUNER,
    "playback": DeviceType.PLAYBACK,
    "reserved": DeviceType.RESERVED,
    "free_use": DeviceType.FREE_USE,
}

MAX_PORTS = 15
MAX_DEPTH = 4
MAX_OSD_LEN = 14


@dataclass(frozen=True, slots=True)
class DeviceNode:
    """Static configuration of one device in the tree."""

    id: str
    kind: DeviceKind
    device_type: DeviceType
    osd_name: str
    vendor_id: int
    cec_version: str
    menu_language: str | None
    cec_control_enabled: bool
    cec_info_reporting_enabled: bool
    edid_address_available: bool
    # Whether the device takes part in CEC at all.  Dumb switches and
    # splitters propagate frames but never hold a logical address.
    cec_addressed: bool
    logical_address: int | None
    initial_power: PowerState
    active_source: bool
    active_input_port: int | None
    input_count: int


@dataclass(frozen=True)
class Edge:
    parent: str
    child: str
    port: int
    cec_propagates: bool = True


@dataclass(frozen=True)
class Topology:
    """A validated tree rooted at `root`.  Each read-only view is computed
    on first read and shared by every run; a tree changed by
    `dataclasses.replace` computes its own."""

    nodes: Mapping[str, DeviceNode]
    edges: tuple[Edge, ...]
    root: str
    vendor_names: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        # However it is made (`build_topology`, `replace`, a direct call),
        # a tree holds read-only copies of the mappings it was given.
        for name in ("nodes", "vendor_names"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @cached_property
    def physical(self) -> MappingProxyType[str, PhysicalAddress]:
        """Each node's physical address (`assign_physical_addresses`)."""
        return MappingProxyType(assign_physical_addresses(self))

    @cached_property
    def domains(self) -> MappingProxyType[str, tuple[str, ...]]:
        """Each node's propagation domain (`propagation_domains`)."""
        return MappingProxyType(propagation_domains(self))

    def listeners(self) -> list[str]:
        return [n.id for n in self.nodes.values() if n.kind is DeviceKind.ATTACKER_LISTENER]


def _require(condition: bool, message: str):
    if not condition:
        raise TopologyError(message)


# Each node flag and its value when the document leaves it out; the
# default of cec_addressed depends on the node's kind.
_NODE_FLAGS = (
    ("cec_control_enabled", True),
    ("cec_info_reporting_enabled", True),
    ("edid_address_available", True),
    ("active_source", False),
)


def _parse_node(raw: dict) -> DeviceNode:
    node_id = schema.text(raw.get("id"), "node id")
    # Trace lines separate their fields by spaces and their observers by commas.
    _require(not any(c.isspace() or c == "," for c in node_id),
             "node id %r holds whitespace or a comma" % node_id)
    where = "node %r " % node_id
    kind_text = str(raw.get("kind", "")).lower()
    _require(kind_text in _KIND_ALIASES, "node %r has unknown kind %r" % (node_id, raw.get("kind")))
    kind = _KIND_ALIASES[kind_text]
    type_text = str(raw.get("device_type", "")).lower()
    _require(
        type_text in _TYPE_ALIASES,
        "node %r has unknown device_type %r" % (node_id, raw.get("device_type")),
    )
    device_type = _TYPE_ALIASES[type_text]

    osd = schema.text(raw.get("osd_name", node_id), where + "osd_name")
    try:
        vendor = parse_vendor_id(raw.get("vendor_id", 0))
    except FrameError as exc:
        raise TopologyError("%svendor_id: %s" % (where, exc)) from None

    language = raw.get("menu_language", "eng")
    if language in (None, "", "unknown"):
        language = None
    else:
        language = schema.text(language, where + "menu_language").lower()
        _require(len(language) == 3 and language.isascii(),
                 "node %r menu_language must be 3 ASCII chars" % node_id)

    logical = raw.get("logical_address")
    if logical is not None:
        schema.integer(logical, where + "logical_address", 0, 14)

    power_text = str(raw.get("initial_power", "on")).lower()
    _require(power_text in ("on", "standby"), "node %r initial_power must be on|standby" % node_id)

    input_count = schema.integer(raw.get("input_count", 4), where + "input_count", 1, MAX_PORTS)
    active_port = raw.get("active_input_port")
    if active_port is not None:
        schema.integer(active_port, where + "active_input_port", 1, input_count)

    addressed = ("cec_addressed", kind not in (DeviceKind.SWITCH, DeviceKind.HUB_SPLITTER))
    flags = {
        name: schema.flag(raw.get(name, default), where + name)
        for name, default in _NODE_FLAGS + (addressed,)
    }
    return DeviceNode(
        id=node_id,
        kind=kind,
        device_type=device_type,
        osd_name=osd[:MAX_OSD_LEN],
        vendor_id=vendor,
        cec_version=schema.text(raw.get("cec_version", "1.4"), where + "cec_version"),
        menu_language=language,
        logical_address=logical,
        initial_power=PowerState.ON if power_text == "on" else PowerState.STANDBY,
        active_input_port=active_port,
        input_count=input_count,
        **flags,
    )


@schema.raises(TopologyError)
def build_topology(config: dict) -> Topology:
    """Validate a topology document and return the tree.

    Checks: unique ids, known kinds/types, a single root, no cycles or
    shared children, ports within range and unique per parent, and that the
    tree still fits the four-nibble address space.
    """
    schema.obj(config, "topology config")
    raw_nodes = schema.objects(config.get("nodes"), "topology nodes")
    _require(raw_nodes, "topology needs a non-empty nodes list")

    nodes: dict[str, DeviceNode] = {}
    for raw in raw_nodes:
        node = _parse_node(raw)
        _require(node.id not in nodes, "duplicate node id %r" % node.id)
        nodes[node.id] = node

    edges: list[Edge] = []
    seen_child: set[str] = set()
    ports_used: dict[str, set[int]] = {}
    for raw in schema.objects(config.get("edges", []), "topology edges"):
        parent = schema.text(raw.get("parent"), "edge parent", nodes)
        child = schema.text(raw.get("child"), "edge child", nodes)
        _require(parent != child, "node %r cannot be its own parent" % parent)
        where = "edge %r->%r " % (parent, child)
        port = schema.integer(raw.get("port"), where + "port", 1, MAX_PORTS)
        _require(
            port not in ports_used.setdefault(parent, set()),
            "node %r uses port %d twice" % (parent, port),
        )
        ports_used[parent].add(port)
        _require(child not in seen_child, "node %r has more than one parent" % child)
        seen_child.add(child)
        propagates = schema.flag(raw.get("cec_propagates", True), where + "cec_propagates")
        edges.append(Edge(parent, child, port, propagates))

    roots = [n for n in nodes if n not in seen_child]
    _require(len(roots) == 1, "topology must have exactly one root, found %r" % roots)
    [root] = roots

    vendor_names = {}
    for key, name in schema.obj(config.get("vendor_names", {}), "topology vendor_names").items():
        try:
            vendor_names[parse_vendor_id(key)] = schema.text(name, "vendor_names %r" % key)
        except FrameError as exc:
            raise TopologyError("vendor_names: %s" % exc) from None

    topo = Topology(nodes, tuple(edges), root, vendor_names)
    # The addressing walk checks depth and reaches everything below the root;
    # anything it misses is an orphan or part of a cycle among non-root nodes.
    unreached = [n for n in nodes if n not in topo.physical]
    _require(not unreached, "nodes unreachable from root %r: %r" % (root, unreached))
    return topo


def assign_physical_addresses(topology: Topology) -> dict[str, PhysicalAddress]:
    """EDID walk over the tree, returning each node's physical address.

    A node with edid_address_available=False reports f.f.f.f but still has
    an address slot; when such a node is a switch or splitter its children
    inherit the slot unchanged instead of consuming another nibble.
    """
    root = topology.root
    children: dict[str, list[Edge]] = {}
    for edge in topology.edges:
        children.setdefault(edge.parent, []).append(edge)
    slots = {root: PhysicalAddress.root()}
    result: dict[str, PhysicalAddress] = {}
    order = deque([root])
    while order:
        node_id = order.popleft()
        node = topology.nodes[node_id]
        slot = slots[node_id]
        result[node_id] = slot if node.edid_address_available else PhysicalAddress.unregistered()
        passthrough = not node.edid_address_available and node.kind in (
            DeviceKind.SWITCH,
            DeviceKind.HUB_SPLITTER,
        )
        for edge in children.get(node_id, ()):
            if passthrough:
                slots[edge.child] = slot
            else:
                try:
                    slots[edge.child] = slot.child(edge.port)
                except FrameError:
                    raise TopologyError(
                        "node %r exceeds the %d-level address depth" % (edge.child, MAX_DEPTH)
                    ) from None
            order.append(edge.child)
    return result


def propagation_domains(topology: Topology) -> dict[str, tuple[str, ...]]:
    """Map each node to its CEC propagation domain: the nodes that observe
    every frame any of them puts on the shared wire.  A domain is named by
    its top, reached by climbing cables with cec_propagates True; a climb
    stops at the first node already placed.  Members are in declaration
    order, which keeps traces stable, and share one tuple.
    """
    up = {edge.child: edge.parent for edge in topology.edges if edge.cec_propagates}
    top: dict[str, str] = {}
    members: dict[str, list[str]] = {}
    for node_id in topology.nodes:
        climbed, node = [], node_id
        while node not in top and node in up:
            climbed.append(node)
            node = up[node]
        head = top.setdefault(node, node)
        top.update(dict.fromkeys(climbed, head))
        members.setdefault(head, []).append(node_id)
    domains = {head: tuple(ids) for head, ids in members.items()}
    return {node_id: domains[top[node_id]] for node_id in topology.nodes}

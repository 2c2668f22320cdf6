"""Generator for the fleet-census workload and its expected census table.

The fleet is a breadth-first 15-ary HDMI tree: node i > 0 hangs off node
(i - 1) // 15 on port (i - 1) % 15 + 1, so every address fits the four
nibbles.  The root is a television, every node with children is a dumb
(unaddressed) switch, and the leaves are one attacker listener plus a fixed
mix of displays, sources and non-CEC gear.  The mix and the node count are
constants of the workload, so the amount of work does not depend on the
seed; the seed only decides which leaf gets which role and attributes, and
the order in which devices claim logical addresses.

Why 500 nodes: `Simulator.start` polls every candidate address of every
device against every node in the domain, so it grows quadratically.  When
this benchmark was written (Python 3.11, a shared 2-vCPU VM), a 500-node
run took about 1 s of reference-speed time (see speed.py; 1 to 2 s raw),
most of it in `start`.  At 1,600 nodes `start` alone took 19 s raw (8.7 s
corrected), too long to repeat inside one benchmark run.  `SCALING_NODES`
is the second point of `bus.start_scaling`: log2 of start time at 500 nodes
over start time at 250 nodes on this same generator (1.0 would be linear,
2.0 quadratic).
"""

from random import Random

ARITY = 15
FLEET_NODES = 500
SCALING_NODES = 250
CENSUS_DURATION = 160

# Share of the leaves (the listener excluded) per role.  Displays and
# sources all speak CEC; "dark" sources sit on the wire without it.
_LEAF_MIX = (
    ("display", "television", 0.15),
    ("source", "playback", 0.35),
    ("source", "recording", 0.15),
    ("source", "tuner", 0.25),
    ("dark", "playback", 0.10),
)

# Logical-address claim order per device type (CEC 1.4 table 11), used by
# the expected census below, independently of the simulator's own table.
_CLAIM_ORDER = {
    "television": (0, 14),
    "recording": (1, 2, 14),
    "tuner": (3, 6, 7, 10, 14),
    "playback": (4, 8, 9, 11, 14),
}

_VENDORS = {
    "00e091": "LG",
    "0000f0": "Samsung",
    "080046": "Sony",
    "001582": "Pulse-Eight",
    "00903e": "Philips",
    "18c086": "Broadcom",
}
_VERSION_NAMES = {"1.4": "1.4", "1.3a": "1.3a"}
_VERSIONS = ("1.4", "1.4", "1.3a", "2.0")
_LANGUAGES = ("eng", "eng", "ger", "fre", "unknown")


def _parent_port(index: int) -> tuple[int, int]:
    return (index - 1) // ARITY, (index - 1) % ARITY + 1


def _physical_texts(count: int) -> list[str]:
    """Physical address of every node: each hop replaces the first zero
    nibble of the parent's address with the port number."""
    addresses = [(0, 0, 0, 0)]
    for index in range(1, count):
        parent, port = _parent_port(index)
        nibbles = list(addresses[parent])
        nibbles[nibbles.index(0)] = port
        addresses.append(tuple(nibbles))
    return [".".join("%x" % n for n in a) for a in addresses]


def fleet_topology(seed: int, count: int = FLEET_NODES) -> dict:
    """Topology document for a fleet of `count` nodes, deterministic in
    `seed`.  Node declaration order (which is also claim order) is: the
    root display, the listener, then every other node shuffled."""
    rng = Random(seed)
    internal = set(range((count - 2) // ARITY + 1))
    leaves = [i for i in range(count) if i not in internal]
    rng.shuffle(leaves)
    listener = leaves.pop()
    roles = []
    for kind, device_type, share in _LEAF_MIX:
        roles.extend([(kind, device_type)] * int(share * len(leaves)))
    roles.extend([roles[-1]] * (len(leaves) - len(roles)))

    role_of = {0: ("display", "television")}
    role_of.update({i: ("switch", "playback") for i in internal if i})
    role_of.update(zip(leaves, roles))
    role_of[listener] = ("listener", "recording")

    vendor_ids = sorted(_VENDORS)
    nodes = {}
    for index in range(count):
        kind, device_type = role_of[index]
        node = {
            "id": "n%03d" % index,
            "kind": "source" if kind == "dark" else kind,
            "device_type": device_type,
            "osd_name": "%s-%d" % (kind, index),
            "vendor_id": rng.choice(vendor_ids),
            "cec_version": rng.choice(_VERSIONS),
            "menu_language": rng.choice(_LANGUAGES),
            "initial_power": "standby" if rng.random() < 0.3 and kind != "listener" else "on",
        }
        if index in internal:
            node["input_count"] = ARITY
        if kind == "dark":
            node["cec_addressed"] = False
        nodes[index] = node

    rest = [i for i in range(1, count) if i != listener]
    rng.shuffle(rest)
    order = [0, listener] + rest
    edges = []
    for index in range(1, count):
        parent, port = _parent_port(index)
        edges.append({"parent": "n%03d" % parent, "child": "n%03d" % index, "port": port})
    return {
        "nodes": [nodes[i] for i in order],
        "edges": edges,
        "vendor_names": dict(_VENDORS),
    }


def expected_census(topology: dict) -> tuple[str, dict]:
    """The census the listener must report on a generated fleet, worked out
    from the document alone: claims go in declaration order to the first
    candidate nobody holds yet, and every holder answers every query."""
    nodes = topology["nodes"]
    index_of = {n["id"]: int(n["id"][1:]) for n in nodes}
    physical = _physical_texts(len(nodes))
    holders = {}
    for node in nodes:
        if node["kind"] == "switch" or node.get("cec_addressed") is False:
            continue
        for candidate in _CLAIM_ORDER[node["device_type"]]:
            if candidate not in holders:
                holders[candidate] = node
                break
    listener = next(n for n in nodes if n["kind"] == "listener")
    table = {}
    for address, node in sorted(holders.items()):
        own = node is listener
        language = node["menu_language"]
        version = node["cec_version"]
        table["Addr %02X" % address] = {
            "P. Addr": physical[index_of[node["id"]]],
            "Active": "No",
            "Vendor": _VENDORS[node["vendor_id"]],
            "OSD Str": node["osd_name"],
            "CEC Ver": version if own else _VERSION_NAMES.get(version, "Unk"),
            "Pow Status": "ON" if node["initial_power"] == "on" else "Standby",
            "Language": "Unk" if language == "unknown" else language,
        }
    return listener["id"], table


def fleet_scenario(seed: int, count: int = FLEET_NODES) -> dict:
    """Scenario document: the listener walks the fleet once; the census
    must match `expected_census` and the detector must flag exactly one
    scan burst, from the listener."""
    topology = fleet_topology(seed, count)
    listener, table = expected_census(topology)
    return {
        "name": "fleet-census",
        "topology": topology,
        "duration": CENSUS_DURATION,
        "seed": seed,
        "actions": [{"tick": 1, "actor": listener, "action": "scan"}],
        "checks": [
            {"type": "scan_report_equals", "expected": table},
            {"type": "alert_exactly", "rule": "ScanBurst", "count": 1, "subject": listener},
        ],
    }

"""Topology building, validation, and physical address assignment."""

import dataclasses
import time

import pytest

from cecsim.ids import apply_mitigation
from cecsim.scenarios import ScenarioError, load_scenario
from cecsim.topology import (
    DeviceKind,
    Edge,
    Topology,
    TopologyError,
    assign_physical_addresses,
    build_topology,
    propagation_domains,
)

from conftest import make_chain


def minimal(nodes, edges):
    return build_topology({"nodes": nodes, "edges": edges})


def tv_and_box(**tv_fields):
    """The nodes of a TV with one box below it, the TV given extra fields."""
    return [
        dict({"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"},
             **tv_fields),
        {"id": "box", "kind": "source", "device_type": "playback", "osd_name": "Box"},
    ]


# ---------------------------------------------------------------------------
# Happy path
# ---------------------------------------------------------------------------

class TestBuild:
    def test_testbed_shape(self, testbed_topology):
        assert len(testbed_topology.nodes) == 7
        assert testbed_topology.root == "tv"
        assert testbed_topology.nodes["listener"].kind is DeviceKind.ATTACKER_LISTENER
        assert [e.child for e in testbed_topology.edges if e.parent == "switch"] == [
            "listener",
            "client",
            "hub",
        ]

    def test_testbed_physical_addresses(self, testbed_topology):
        addresses = assign_physical_addresses(testbed_topology)
        got = {device: addr.text for device, addr in addresses.items()}
        assert got == {
            "tv": "0.0.0.0",
            "amp": "1.0.0.0",
            "chromecast": "3.0.0.0",
            "switch": "f.f.f.f",
            "listener": "f.f.f.f",
            "client": "4.0.0.0",
            "hub": "f.f.f.f",
        }

    def test_addresses_unchanged_after_edge_strip(self, testbed_topology):
        before = assign_physical_addresses(testbed_topology)
        stripped = apply_mitigation(
            testbed_topology, {"type": "strip_edge", "parent": "tv", "child": "switch"}
        )
        assert assign_physical_addresses(stripped) == before

    def test_addresses_follow_edges_replaced_in_place(self, testbed_topology):
        # a walk reads the edges of the tree it is given, not an earlier tree's
        assign_physical_addresses(testbed_topology)
        edges = tuple(Edge("tv", "chromecast", 2) if e.child == "chromecast" else e
                      for e in testbed_topology.edges)
        moved = dataclasses.replace(testbed_topology, edges=edges)
        assert assign_physical_addresses(moved)["chromecast"].text == "2.0.0.0"
        assert assign_physical_addresses(testbed_topology)["chromecast"].text == "3.0.0.0"

    def test_addressed_switch_extends_path(self):
        # A switch that does answer the address handshake: devices behind it
        # pick up a second-level address instead of inheriting the slot.
        topo = minimal(
            [
                {"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"},
                {"id": "sw", "kind": "switch", "device_type": "playback", "osd_name": "SW",
                 "cec_addressed": True, "edid_address_available": True},
                {"id": "src", "kind": "source", "device_type": "playback", "osd_name": "SRC"},
            ],
            [
                {"parent": "tv", "child": "sw", "port": 4},
                {"parent": "sw", "child": "src", "port": 2},
            ],
        )
        addresses = assign_physical_addresses(topo)
        assert addresses["sw"].text == "4.0.0.0"
        assert addresses["src"].text == "4.2.0.0"

    def test_nodes_keep_declaration_order(self, testbed_topology):
        assert list(testbed_topology.nodes)[:3] == ["tv", "listener", "client"]

    def test_listeners(self, testbed_topology):
        assert testbed_topology.listeners() == ["listener"]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_duplicate_id(self):
        with pytest.raises(TopologyError) as err:
            minimal(
                [
                    {"id": "a", "kind": "display", "device_type": "television", "osd_name": "A"},
                    {"id": "a", "kind": "source", "device_type": "playback", "osd_name": "A2"},
                ],
                [],
            )
        assert "a" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(TopologyError) as err:
            minimal(
                [{"id": "x", "kind": "toaster", "device_type": "playback", "osd_name": "X"}], []
            )
        assert "x" in str(err.value)

    def test_unknown_device_type(self):
        with pytest.raises(TopologyError):
            minimal([{"id": "x", "kind": "source", "device_type": "gizmo", "osd_name": "X"}], [])

    def test_port_collision(self):
        with pytest.raises(TopologyError) as err:
            minimal(
                [
                    {"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"},
                    {"id": "a", "kind": "source", "device_type": "playback", "osd_name": "A"},
                    {"id": "b", "kind": "source", "device_type": "playback", "osd_name": "B"},
                ],
                [
                    {"parent": "tv", "child": "a", "port": 1},
                    {"parent": "tv", "child": "b", "port": 1},
                ],
            )
        assert "port 1" in str(err.value)

    def test_port_out_of_range(self):
        with pytest.raises(TopologyError):
            minimal(
                [
                    {"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"},
                    {"id": "a", "kind": "source", "device_type": "playback", "osd_name": "A"},
                ],
                [{"parent": "tv", "child": "a", "port": 0}],
            )

    def test_multi_parent(self):
        with pytest.raises(TopologyError):
            minimal(
                [
                    {"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"},
                    {"id": "sw", "kind": "switch", "device_type": "playback", "osd_name": "SW"},
                    {"id": "a", "kind": "source", "device_type": "playback", "osd_name": "A"},
                ],
                [
                    {"parent": "tv", "child": "a", "port": 1},
                    {"parent": "sw", "child": "a", "port": 1},
                    {"parent": "tv", "child": "sw", "port": 2},
                ],
            )

    def test_two_roots(self):
        with pytest.raises(TopologyError):
            minimal(
                [
                    {"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"},
                    {"id": "tv2", "kind": "display", "device_type": "television", "osd_name": "T2"},
                ],
                [],
            )

    def test_cycle_has_no_root(self):
        with pytest.raises(TopologyError):
            minimal(
                [
                    {"id": "a", "kind": "switch", "device_type": "playback", "osd_name": "A"},
                    {"id": "b", "kind": "switch", "device_type": "playback", "osd_name": "B"},
                ],
                [
                    {"parent": "a", "child": "b", "port": 1},
                    {"parent": "b", "child": "a", "port": 1},
                ],
            )

    def test_cycle_below_the_root(self):
        with pytest.raises(TopologyError) as err:
            minimal(
                [
                    {"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"},
                    {"id": "a", "kind": "switch", "device_type": "playback", "osd_name": "A"},
                    {"id": "b", "kind": "switch", "device_type": "playback", "osd_name": "B"},
                ],
                [
                    {"parent": "a", "child": "b", "port": 1},
                    {"parent": "b", "child": "a", "port": 1},
                ],
            )
        assert "nodes unreachable from root 'tv': ['a', 'b']" in str(err.value)

    @pytest.mark.parametrize(
        "patch, fragment",
        [
            ({"edges": 5}, "edges"),
            ({"edges": None}, "edges"),
            ({"edges": [{"parent": ["tv"], "child": "box", "port": 1}]}, "parent"),
            ({"edges": [{"parent": "tv", "child": "box", "port": True}]}, "port"),
            ({"vendor_names": [1]}, "vendor_names"),
            ({"vendor_names": {"zz": "x"}}, "vendor_names"),
            ({"nodes": tv_and_box(cec_control_enabled="false")}, "cec_control_enabled"),
            ({"nodes": tv_and_box(cec_info_reporting_enabled=0)}, "cec_info_reporting_enabled"),
            ({"nodes": tv_and_box(edid_address_available="no")}, "edid_address_available"),
            ({"nodes": tv_and_box(cec_addressed=1)}, "cec_addressed"),
            ({"nodes": tv_and_box(active_source="false")}, "active_source"),
            (
                {"edges": [{"parent": "tv", "child": "box", "port": 1, "cec_propagates": "no"}]},
                "cec_propagates",
            ),
            ({"nodes": tv_and_box(vendor_id=True)}, "vendor_id"),
            ({"nodes": tv_and_box(cec_version=5)}, "cec_version"),
            ({"nodes": tv_and_box(menu_language=123)}, "menu_language"),
            # Get Menu Language answers with the code's three ASCII octets.
            ({"nodes": tv_and_box(menu_language="\u00e9t\u00e9")},
             "node 'tv' menu_language must be 3 ASCII chars"),
            ({"nodes": [{"id": "evil box", "kind": "tv", "device_type": "tv"}]},
             "node id 'evil box' holds whitespace or a comma"),
            ({"nodes": [{"id": "c,d", "kind": "tv", "device_type": "tv"}]},
             "node id 'c,d' holds whitespace or a comma"),
        ],
    )
    def test_malformed_shapes_name_the_field(self, patch, fragment):
        config = {
            "nodes": [
                {"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"},
                {"id": "box", "kind": "source", "device_type": "playback", "osd_name": "Box"},
            ],
            "edges": [{"parent": "tv", "child": "box", "port": 1}],
        }
        config.update(patch)
        with pytest.raises(TopologyError) as err:
            build_topology(config)
        assert fragment in str(err.value)

    def test_deeply_nested_file_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"nodes": [{"id": "tv", "kind": %s}]}' % ("[" * 31 + "]" * 31))
        with pytest.raises(ScenarioError, match="nests deeper than 32"):
            load_scenario({"name": "deep", "topology": str(path), "duration": 1})

    def test_unknown_edge_endpoint(self):
        with pytest.raises(TopologyError) as err:
            minimal(
                [{"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"}],
                [{"parent": "tv", "child": "ghost", "port": 1}],
            )
        assert "ghost" in str(err.value)

    def test_osd_name_truncated_to_wire_limit(self):
        topo = minimal(
            [
                {"id": "tv", "kind": "display", "device_type": "television",
                 "osd_name": "X" * 20},
            ],
            [],
        )
        assert topo.nodes["tv"].osd_name == "X" * 14

    def test_depth_overflow_names_device(self):
        # Five address-extending hops below the root cannot fit four nibbles.
        nodes = [{"id": "tv", "kind": "display", "device_type": "television", "osd_name": "TV"}]
        edges = []
        parent = "tv"
        for i in range(5):
            node_id = "sw%d" % i
            nodes.append(
                {"id": node_id, "kind": "switch", "device_type": "playback", "osd_name": node_id,
                 "cec_addressed": True, "edid_address_available": True}
            )
            edges.append({"parent": parent, "child": node_id, "port": 1})
            parent = node_id
        with pytest.raises(TopologyError) as err:
            minimal(nodes, edges)
        assert "sw4" in str(err.value)


# ---------------------------------------------------------------------------
# Propagation domains
# ---------------------------------------------------------------------------

class TestPropagation:
    def test_views_are_computed_once_per_topology(self, testbed_topology):
        assert testbed_topology.physical is testbed_topology.physical
        assert testbed_topology.domains is testbed_topology.domains
        assert testbed_topology.physical == assign_physical_addresses(testbed_topology)
        assert testbed_topology.domains == propagation_domains(testbed_topology)
        with pytest.raises(dataclasses.FrozenInstanceError):
            testbed_topology.edges = []

    def test_built_topology_cannot_be_edited(self, testbed_topology):
        with pytest.raises(TypeError):
            testbed_topology.edges[0] = testbed_topology.edges[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            testbed_topology.nodes["tv"].osd_name = "Other"
        with pytest.raises(TypeError):
            testbed_topology.physical["tv"] = testbed_topology.physical["amp"]
        with pytest.raises(TypeError):
            testbed_topology.domains["tv"] = ("tv",)
        assert testbed_topology.nodes["tv"].osd_name == "TV"
        assert testbed_topology.physical["tv"].text == "0.0.0.0"

    @pytest.mark.parametrize("made_by", ["build", "mitigation", "direct"])
    def test_nodes_and_vendor_names_are_read_only_however_made(self, testbed_topology, made_by):
        given = dict(testbed_topology.nodes)
        topology = {
            "build": lambda: testbed_topology,
            "mitigation": lambda: apply_mitigation(
                testbed_topology, {"type": "disable_control", "device": "tv"}
            ),
            "direct": lambda: Topology(given, testbed_topology.edges, "tv", {1: "Acme"}),
        }[made_by]()
        for mapping in (topology.nodes, topology.vendor_names):
            with pytest.raises(TypeError):
                mapping["amp"] = None
            with pytest.raises(TypeError):
                del mapping["amp"]
            with pytest.raises(AttributeError):
                mapping.pop("amp")
        # Not even through the dict it was made from.
        given.pop("amp")
        assert "amp" in topology.nodes and "amp" in topology.physical

    def test_strip_edge_copy_gets_its_own_domains(self, testbed_topology):
        physical, domains = testbed_topology.physical, testbed_topology.domains
        stripped = apply_mitigation(
            testbed_topology, {"type": "strip_edge", "parent": "tv", "child": "switch"}
        )
        assert stripped.domains is not domains
        assert set(stripped.domains["tv"]) == {"tv", "amp", "chromecast"}
        assert stripped.domains == propagation_domains(stripped)
        assert stripped.physical == physical
        assert testbed_topology.physical is physical and testbed_topology.domains is domains
        assert set(domains["tv"]) == set(testbed_topology.nodes)

    def test_single_domain_by_default(self, testbed_topology):
        domains = propagation_domains(testbed_topology)
        for node_id in testbed_topology.nodes:
            assert set(domains[node_id]) == set(testbed_topology.nodes)

    def test_domain_order_is_declaration_order(self, testbed_topology):
        domains = propagation_domains(testbed_topology)
        assert list(domains["hub"]) == list(testbed_topology.nodes)

    def test_blocked_edge_splits_domain(self):
        topo = apply_mitigation(make_chain(3), {"type": "strip_edge", "parent": "d1", "child": "d2"})
        domains = propagation_domains(topo)
        assert sorted(domains["d0"]) == ["d0", "d1"]
        assert domains["d2"] == ("d2",)

    def test_fully_blocked_chain(self):
        topo = make_chain(3, propagates=False)
        domains = propagation_domains(topo)
        for node_id in ("d0", "d1", "d2"):
            assert domains[node_id] == (node_id,)

    def test_leaf_first_passthrough_chain_is_one_domain_in_linear_time(self):
        # Passthrough switches add no address nibble, so the chain builds at
        # any length.  Declared leaf first, the first node climbs the whole
        # chain and every later one is already placed.
        length = 20_000
        nodes = [{"id": "s%d" % i, "kind": "switch", "device_type": "playback",
                  "edid_address_available": False} for i in range(length - 1, 0, -1)]
        nodes.append({"id": "s0", "kind": "display", "device_type": "television"})
        edges = [{"parent": "s%d" % (i - 1), "child": "s%d" % i, "port": 1}
                 for i in range(1, length)]
        topo = minimal(nodes, edges)
        started = time.perf_counter()
        domains = propagation_domains(topo)
        elapsed = time.perf_counter() - started
        assert {id(domain) for domain in domains.values()} == {id(domains["s0"])}
        assert domains["s0"] == tuple(topo.nodes)
        assert elapsed < 2.0

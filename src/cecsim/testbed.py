"""The built-in lab tree the canned scenarios run on.

Seven nodes: a TV at the root with an AV receiver on input 1, a streaming
stick on input 3, and a dumb 3-in-1 switch on input 4.  Behind the switch
sit the hidden listener (wired into a spot with no EDID feed, so it stays
at f.f.f.f), the accomplice client, and an unaddressed splitter.  The
switch passes EDID through untouched, which is why the client reads the
TV's port address 4.0.0.0 rather than one nibble deeper.
"""

TESTBED_NAME = "testbed"

TESTBED_TOPOLOGY = {
    "nodes": [
        {
            "id": "tv",
            "kind": "display",
            "device_type": "television",
            "osd_name": "TV",
            "vendor_id": "1f0008",
            "cec_version": "1.4",
            "menu_language": "eng",
            "active_input_port": 3,
            "input_count": 4,
        },
        {
            "id": "listener",
            "kind": "listener",
            "device_type": "recording",
            "osd_name": "RPI",
            "vendor_id": "000000",
            "cec_version": "1.3a",
            "menu_language": "eng",
            "edid_address_available": False,
            "active_source": True,
        },
        {
            "id": "client",
            "kind": "source",
            "device_type": "recording",
            "osd_name": "CECTestr",
            "vendor_id": "001582",
            "cec_version": "1.4",
            "menu_language": "eng",
        },
        {
            "id": "switch",
            "kind": "switch",
            "device_type": "playback",
            "osd_name": "Switch3x1",
            "edid_address_available": False,
            "input_count": 3,
        },
        {
            "id": "hub",
            "kind": "hub",
            "device_type": "playback",
            "osd_name": "Splitter1x4",
            "edid_address_available": False,
        },
        {
            "id": "amp",
            "kind": "source",
            "device_type": "playback",
            "osd_name": "STR-ZA2100",
            "vendor_id": "080046",
            "cec_version": "1.4",
            "menu_language": "unknown",
            "logical_address": 5,
            "initial_power": "standby",
        },
        {
            "id": "chromecast",
            "kind": "source",
            "device_type": "playback",
            "osd_name": "Chromecast",
            "vendor_id": "001a11",
            "cec_version": "1.4",
            "menu_language": "unknown",
        },
    ],
    "edges": [
        {"parent": "tv", "child": "amp", "port": 1},
        {"parent": "tv", "child": "chromecast", "port": 3},
        {"parent": "tv", "child": "switch", "port": 4},
        {"parent": "switch", "child": "listener", "port": 1},
        {"parent": "switch", "child": "client", "port": 2},
        {"parent": "switch", "child": "hub", "port": 3},
    ],
}

# What a census from the listener finds on the untouched tree.
EXPECTED_TESTBED_SCAN = {
    "Addr 00": {
        "P. Addr": "0.0.0.0",
        "Active": "No",
        "Vendor": "Unk",
        "OSD Str": "TV",
        "CEC Ver": "1.4",
        "Pow Status": "ON",
        "Language": "eng",
    },
    "Addr 01": {
        "P. Addr": "f.f.f.f",
        "Active": "Yes",
        "Vendor": "Unk",
        "OSD Str": "RPI",
        "CEC Ver": "1.3a",
        "Pow Status": "ON",
        "Language": "eng",
    },
    "Addr 02": {
        "P. Addr": "4.0.0.0",
        "Active": "No",
        "Vendor": "Pulse-Eight",
        "OSD Str": "CECTestr",
        "CEC Ver": "1.4",
        "Pow Status": "ON",
        "Language": "eng",
    },
    "Addr 04": {
        "P. Addr": "3.0.0.0",
        "Active": "No",
        "Vendor": "Google",
        "OSD Str": "Chromecast",
        "CEC Ver": "1.4",
        "Pow Status": "ON",
        "Language": "Unk",
    },
    "Addr 05": {
        "P. Addr": "1.0.0.0",
        "Active": "No",
        "Vendor": "Sony",
        "OSD Str": "STR-ZA2100",
        "CEC Ver": "1.4",
        "Pow Status": "Standby",
        "Language": "Unk",
    },
}

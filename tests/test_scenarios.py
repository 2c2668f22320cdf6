"""Scenario schema, runner wiring, artifact output, and the CLI."""

import copy
import dataclasses
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cecsim import cli
from cecsim import relay_http
from cecsim import scenarios as scen
from cecsim import schema
from cecsim.bus import StateChange
from cecsim.frames import PowerState
from cecsim.relay import LISTENER_PATH, LoopbackRelayClient
from cecsim.scenarios import (
    ScenarioError,
    builtin_scenario,
    builtin_scenario_names,
    evaluate_checks,
    load_scenario,
    run_scenario,
    write_artifacts,
)
from cecsim.testbed import EXPECTED_TESTBED_SCAN, TESTBED_TOPOLOGY

from conftest import rendered

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# Far deeper than the parser's recursion limit, far below any size limit.
DEEP_JSON = "[" * 100_000
# Parses, but copying or printing it would overflow the recursion limit.
NESTED_SCENARIO = (
    '{"name": "nested", "topology": "testbed", "duration": 5, '
    '"checks": [{"type": "zero_alerts", "note": %s}]}' % ("[" * 600 + "]" * 600)
)


# A display and a source: no attacker listener to run a relay poller on.
NO_LISTENER_TOPOLOGY = {
    "nodes": [
        {"id": "tv", "kind": "display", "device_type": "television"},
        {"id": "client", "kind": "source", "device_type": "recording"},
    ],
    "edges": [{"parent": "tv", "child": "client", "port": 1}],
}

# Device ids outside ASCII: they appear in every line of both logs.
NON_ASCII_TOPOLOGY = {
    "nodes": [
        {"id": "télé", "kind": "display", "device_type": "television", "osd_name": "TV",
         "initial_power": "standby"},
        {"id": "lecteur-é", "kind": "source", "device_type": "recording", "osd_name": "Player"},
    ],
    "edges": [{"parent": "télé", "child": "lecteur-é", "port": 1}],
}


def doc(**overrides):
    base = {
        "name": "probe",
        "topology": "testbed",
        "duration": 30,
        "actions": [],
    }
    base.update(overrides)
    return base


def builtin_doc(name, **overrides):
    """A builtin scenario's document with `overrides` replacing its fields."""
    return dict(scen.scenario_document(name)[0], **overrides)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_minimal_document_loads(self):
        scenario = load_scenario(doc())
        assert scenario.name == "probe"
        assert scenario.duration == 30

    @pytest.mark.parametrize(
        "patch, fragment",
        [
            ({"name": ""}, "name"),
            ({"duration": 0}, "duration"),
            ({"duration": "long"}, "duration"),
            ({"topology": "made-up-place"}, "made-up-place"),
            ({"actions": [{"tick": 1, "actor": "ghost", "action": "power_on"}]}, "ghost"),
            ({"actions": [{"tick": 1, "actor": "tv", "action": "levitate"}]}, "levitate"),
            ({"actions": [{"tick": -2, "actor": "tv", "action": "power_on"}]}, "tick"),
            (
                {"actions": [{"tick": 1, "actor": "tv", "action": "send_frame",
                              "args": {"frame": "zz"}}]},
                "send_frame",
            ),
            (
                {"actions": [{"tick": 1, "actor": "tv", "action": "select_input",
                              "args": {"port": "left"}}]},
                "select_input",
            ),
            (
                {"actions": [{"tick": 1, "actor": "tv", "action": "start_broadcast_dos"}]},
                "start_broadcast_dos",
            ),
            ({"overrides": {"ghost": {"osd_name": "X"}}}, "ghost"),
            ({"mitigations": [{"type": "strip_edge", "parent": "tv", "child": "hub"}]},
             "mitigation"),
            ({"relay": {"enabled": True, "commands": [{"command": "DOS1"}]}}, "tick"),
            ({"ids": {"config": {"nonsense": 1}}}, "detector config"),
            ({"actions": [1]}, "actions"),
            (
                {"actions": [{"tick": 1, "actor": "tv", "action": "power_on", "args": [1]}]},
                "args",
            ),
            ({"relay": {"commands": [3]}}, "relay commands"),
            ({"mitigations": [5]}, "mitigations"),
            ({"overrides": {"tv": 5}}, "overrides"),
            ({"overrides": {"tv": {"osd_name": 5}}}, "osd_name"),
            (
                {"actions": [{"tick": 1, "actor": "listener", "action": "arm_targeted_dos",
                              "args": {"target": "x"}}]},
                "arm_targeted_dos",
            ),
            (
                {"actions": [{"tick": 1, "actor": "listener", "action": "request_file"}]},
                "request_file",
            ),
            ({"listener_options": [1]}, "listener_options"),
            ({"listener_options": {"mic_bytes": "abc"}}, "mic_bytes"),
            ({"listener_options": {"capture_bytes": -1}}, "capture_bytes"),
            ({"listener_options": {"capture_bytes": 2**24 + 1}}, "capture_bytes"),
            ({"listener_options": {"targeted_target": 16}}, "targeted_target"),
            ({"listener_options": {"display_address": "0"}}, "display_address"),
            ({"seed": None}, "seed"),
            ({"seed": "7"}, "seed"),
            ({"ticks_per_second": 0}, "ticks_per_second"),
            ({"ticks_per_second": 2.5}, "ticks_per_second"),
            ({"relay": {"enabled": True, "interval_ticks": 0}}, "interval_ticks"),
            ({"relay": {"enabled": True, "interval_ticks": 2.7}}, "interval_ticks"),
            ({"relay": {"enabled": True, "interval_ticks": True}}, "interval_ticks"),
            ({"relay": {"enabled": True, "interval_ticks": "3"}}, "interval_ticks"),
            ({"relay": {"enabled": True, "interval_ticks": None}}, "interval_ticks"),
            ({"ids": {"tap": "ghost"}}, "'ghost'"),
            ({"ids": {"tap": ["tv"]}}, "tap"),
            ({"duration": True}, "duration"),
            ({"actions": [{"tick": True, "actor": "tv", "action": "power_on"}]}, "tick"),
            ({"actions": [{"tick": 1, "actor": ["tv"], "action": "power_on"}]}, "actor"),
            ({"relay": {"commands": [{"tick": -1, "command": "DOS1"}]}}, "tick"),
            (
                {"actions": [{"tick": 1, "actor": "client", "action": "request_file",
                              "args": {"peer": 3.5}}]},
                "peer",
            ),
            ({"topology": dict(TESTBED_TOPOLOGY, edges=5)}, "edges"),
            ({"topology": dict(TESTBED_TOPOLOGY, vendor_names=[1])}, "vendor_names"),
            ({"topology": dict(TESTBED_TOPOLOGY, vendor_names={"zz": "x"})}, "vendor_names"),
            (
                {"actions": [{"tick": 1, "actor": "tv", "action": "select_input",
                              "args": {"port": True}}]},
                "select_input",
            ),
            ({"ids": {"config": {"scan_window": True}}}, "scan_window"),
            (
                {"actions": [{"tick": 1, "actor": "tv", "action": "send_frame",
                              "args": {"frame": "1f:+a"}}]},
                "send_frame at tick 1: octet 1 is not hex",
            ),
            ({"relay": {"enabled": "false"}}, "relay enabled"),
            ({"checks": [{"type": "does_not_exist"}]}, "unknown check type"),
            ({"checks": [{"type": "device_remains_on", "device": "ghost"}]}, "'ghost'"),
            ({"checks": [{"type": "min_input_cycles", "device": "tv", "count": "190"}]}, "count"),
            ({"checks": [{"type": "min_input_cycles", "device": "tv", "count": 190.9}]}, "count"),
            ({"checks": [{"type": "min_input_cycles", "device": "tv", "count": True}]}, "count"),
            ({"checks": [{"type": "min_input_cycles", "device": "tv"}]}, "count"),
            ({"checks": [{"type": "device_power_at_end", "device": "tv", "power": "off"}]},
             "power"),
            (
                {"actions": [{"tick": 1, "actor": "client", "action": "request_file",
                              "args": {"peer": "hub"}}]},
                "peer 'hub' has no logical address",
            ),
            (
                {"topology": NO_LISTENER_TOPOLOGY, "relay": {"enabled": True}},
                "relay needs an attacker listener",
            ),
            ({"topology": 5}, "scenario topology must be a name, path, or object"),
            ({"listener_options": {"mic_byte": 5}}, "mic_byte"),
            ({"listner_options": {"mic_bytes": 5}}, "listner_options"),
            ({"relay": {"enabled": True, "intervall_ticks": 5}}, "intervall_ticks"),
            ({"ids": {"tapp": "tv"}}, "tapp"),
            ({"checks": [{"device": "tv"}]}, "checks[0]: check type must be a non-empty string"),
            (
                {"actions": [{"tick": 1, "actor": "client", "action": "request_file",
                              "args": {"pear": "listener"}}]},
                "unknown request_file at tick 1 args key 'pear'",
            ),
            ({"actions": [{"tick": 1, "actor": "tv", "action": "power_on", "at": 2}]},
             "unknown action key 'at'"),
            (
                {"actions": [{"tick": 1, "actor": "tv", "action": "power_on",
                              "args": {"port": 1}}]},
                "unknown power_on at tick 1 args key 'port'",
            ),
        ],
    )
    def test_rejections_name_the_problem(self, patch, fragment):
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc(**patch))
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "action", ["arm_targeted_dos", "start_broadcast_dos", "cancel_attacks", "open_settings"]
    )
    def test_removed_actions_are_refused_by_name(self, action):
        # Marker frames and relay commands arm and cancel the listener instead.
        with pytest.raises(ScenarioError, match="unknown action at tick 1 '%s'" % action):
            load_scenario(doc(actions=[{"tick": 1, "actor": "listener", "action": action}]))

    def test_missing_topology_named(self):
        with pytest.raises(ScenarioError, match="^scenario 'bare' is missing its topology$"):
            load_scenario({"name": "bare", "duration": 5})

    def test_check_fields_beyond_its_own_are_ignored(self):
        check = {"type": "zero_alerts", "note": "quiet bus", "device": "ghost"}
        assert load_scenario(doc(checks=[check])).checks == (
            ("zero_alerts", scen._check_zero_alerts, {}),
        )

    def test_actions_sorted_by_tick(self):
        scenario = load_scenario(
            doc(
                actions=[
                    {"tick": 9, "actor": "tv", "action": "power_on"},
                    {"tick": 3, "actor": "tv", "action": "power_off"},
                ]
            )
        )
        assert [a.tick for a in scenario.actions] == [3, 9]

    def test_override_reaches_topology(self):
        scenario = load_scenario(doc(overrides={"tv": {"osd_name": "Lounge"}}))
        result = run_scenario(scenario)
        assert result.sim.topology.nodes["tv"].osd_name == "Lounge"

    @pytest.mark.parametrize("inline", [False, True], ids=["testbed", "inline"])
    def test_overrides_leave_the_document(self, inline):
        document = doc(overrides={"tv": {"osd_name": "Lounge"}})
        if inline:
            document["topology"] = copy.deepcopy(TESTBED_TOPOLOGY)
        before, testbed = copy.deepcopy(document), copy.deepcopy(TESTBED_TOPOLOGY)
        scenario = load_scenario(document)
        assert scenario.topology.nodes["tv"].osd_name == "Lounge"
        assert document == before
        assert TESTBED_TOPOLOGY == testbed

    def test_override_keeps_duplicate_ids_visible(self):
        topology = copy.deepcopy(TESTBED_TOPOLOGY)
        topology["nodes"].append(dict(topology["nodes"][0]))
        with pytest.raises(ScenarioError, match="duplicate node id"):
            load_scenario(doc(topology=topology, overrides={topology["nodes"][0]["id"]: {}}))

    def test_inline_topology(self):
        scenario = load_scenario(
            doc(
                topology={
                    "nodes": [
                        {"id": "tv", "kind": "display", "device_type": "television",
                         "osd_name": "TV"},
                    ],
                    "edges": [],
                }
            )
        )
        result = run_scenario(scenario)
        assert list(result.sim.topology.nodes) == ["tv"]

    def test_topology_file(self, tmp_path):
        from cecsim.testbed import TESTBED_TOPOLOGY

        path = tmp_path / "topo.json"
        path.write_text(json.dumps(TESTBED_TOPOLOGY))
        scenario = load_scenario(doc(topology=str(path)))
        assert len(run_scenario(scenario).sim.topology.nodes) == 7


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

class TestBuiltins:
    def test_names_sorted_and_stable(self):
        names = builtin_scenario_names()
        assert names == sorted(names)
        assert "attack1-device-walk" in names
        assert len(names) == 12

    @pytest.mark.parametrize("name", scen.builtin_scenario_names())
    def test_every_builtin_passes_its_checks(self, name):
        result = run_scenario(builtin_scenario(name))
        outcomes = evaluate_checks(result)
        failed = [o for o in outcomes if not o.ok]
        assert not failed, "; ".join("%s: %s" % (o.label, o.detail) for o in failed)

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError):
            builtin_scenario("attack9-sharks")

    def test_unreadable_scenario_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="scenario file .* is not readable JSON"):
            scen.scenario_document(str(path))

    @pytest.mark.parametrize("name", scen.builtin_scenario_names())
    def test_editing_a_loaded_builtin_leaves_the_catalogue(self, name):
        # A loaded scenario is read-only: every field and every container
        # refuses an edit, so no run sees an unchecked value.
        catalogue = copy.deepcopy(scen._BUILTIN_SCENARIOS[name])
        first = builtin_scenario(name)
        for item in [first, *first.actions]:
            for field in dataclasses.fields(item):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(item, field.name, getattr(item, field.name))
        for stored in [first.relay, first.listener_options, first.ids_options,
                       *first.relay["commands"], *(kwargs for _, _, kwargs in first.checks)]:
            with pytest.raises(TypeError):
                stored["tap"] = "ghost"
        for stored in [first.actions, first.checks, first.relay["commands"], *first.checks]:
            with pytest.raises(TypeError):
                stored[0] = None
        assert scen._BUILTIN_SCENARIOS[name] == catalogue
        second = builtin_scenario(name)
        assert (second.duration, second.actions, second.relay, second.ids_options) == (
            first.duration, first.actions, first.relay, first.ids_options)

    def test_editing_expected_rows_after_loading_changes_no_result(self):
        document = builtin_doc("attack1-device-walk", checks=[
            {"type": "scan_report_equals", "expected": copy.deepcopy(EXPECTED_TESTBED_SCAN)}])
        scenario = load_scenario(document)
        expected = document["checks"][0]["expected"]
        expected["bogus"] = expected.pop("Addr 00")
        expected["Addr 01"]["OSD Str"] = "Other"
        result = run_scenario(scenario)
        assert evaluate_checks(result) == [
            scen.CheckResult("scan_report_equals", True, "5 rows match")]
        [(_, _, kwargs)] = scenario.checks
        with pytest.raises(TypeError):
            kwargs["expected"]["Addr 00"]["OSD Str"] = "Other"

    @pytest.mark.parametrize("row", [["TV"], {"OSD Str": 1}, {"OSD Str": None}, "TV"])
    def test_expected_row_that_is_not_an_object_of_strings_is_refused(self, row):
        check = {"type": "scan_report_equals", "expected": {"Addr 00": row}}
        with pytest.raises(ScenarioError) as err:
            load_scenario(builtin_doc("benign-status-query", checks=[check]))
        assert str(err.value) == (
            "checks[0]: check has a bad field: expected row 'Addr 00' must be an object of strings")

    def test_editing_a_relay_command_after_loading_changes_no_post(self):
        document = builtin_doc("attack5-remote-churn", relay={
            "enabled": True, "commands": [{"tick": 5, "command": "DOS1", "note": [1]}]})
        scenario = load_scenario(document)
        document["relay"]["commands"][0]["note"].append(object())
        document["relay"]["commands"][0]["command"] = "CANCEL"
        client = LoopbackRelayClient()
        result = run_scenario(scenario, relay_client=client)
        assert json.loads(client.get(LISTENER_PATH)) == {
            "command": "DOS1", "note": [1], "issued_at": 5}
        assert result.relay_posts == [(5, "DOS1")]
        assert all(outcome.ok for outcome in evaluate_checks(result))

    def test_relay_command_json_cannot_encode_is_refused_at_load(self):
        document = builtin_doc("attack5-remote-churn", relay={
            "enabled": True, "commands": [{"tick": 5, "command": "DOS1", "note": {1, 2}}]})
        with pytest.raises(ScenarioError, match="relay command 'DOS1' at tick 5: .*set"):
            load_scenario(document)


# ---------------------------------------------------------------------------
# Runner artifacts
# ---------------------------------------------------------------------------

class TestArtifacts:
    def test_artifact_files(self, tmp_path):
        result = run_scenario(builtin_scenario("attack1-device-walk"))
        evaluate_checks(result)
        out = tmp_path / "run"
        written = write_artifacts(result, str(out))
        for name in ("trace.log", "state.log", "alerts.jsonl", "scanreport.json",
                     "scanreport.txt", "summary.json", "transfers.manifest"):
            assert name in written
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "attack1-device-walk"
        assert summary["alerts"] == 4
        assert all(c["ok"] for c in summary["checks"])

    def test_trace_round_trips_through_detector(self, tmp_path):
        from cecsim.bus import parse_trace_line
        from cecsim.ids import detect

        result = run_scenario(builtin_scenario("attack4-targeted-standby"))
        out = tmp_path / "run"
        write_artifacts(result, str(out))
        events = [
            parse_trace_line(line)
            for line in (out / "trace.log").read_text().splitlines()
            if line
        ]
        assert [a.rule for a in detect(events, tap="tv")] == [
            a.rule for a in result.alerts
        ]

    def test_logs_written_without_a_whole_log_in_memory(self, tmp_path):
        scenario = dataclasses.replace(builtin_scenario("attack5-input-churn"), duration=3000)
        result = run_scenario(scenario)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            write_artifacts(result, str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        trace_bytes = (tmp_path / "trace.log").stat().st_size
        assert peak < trace_bytes / 4, (peak, trace_bytes)

    def test_logs_of_distinct_frames_written_without_a_whole_log_in_memory(self, tmp_path):
        # A covert transfer sends each data frame once, so no memo of frame
        # texts may grow with the trace.
        capture = 64 * 1024
        scenario = load_scenario(builtin_doc(
            "attack3-file-theft", duration=capture // 14 + 40,
            listener_options={"capture_bytes": capture},
        ))
        result = run_scenario(scenario)
        assert result.transfers[-1].status == "complete"
        assert len({e.frame for e in result.trace.events}) > capture // 14
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            write_artifacts(result, str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        trace_bytes = (tmp_path / "trace.log").stat().st_size
        assert peak < trace_bytes / 4, (peak, trace_bytes)

    def test_logs_written_as_utf8(self, tmp_path):
        scenario = load_scenario(doc(
            topology=NON_ASCII_TOPOLOGY,
            actions=[
                {"tick": 2, "actor": "lecteur-é", "action": "send_frame",
                 "args": {"frame": "10:04"}},
                {"tick": 3, "actor": "lecteur-é", "action": "send_frame",
                 "args": {"frame": "1f:82:10:00"}},
            ],
        ))
        result = run_scenario(scenario)
        write_artifacts(result, str(tmp_path))
        trace, state = rendered(result.trace.render_log), rendered(result.trace.render_state_log)
        assert "| télé |" in trace and "t=2 | télé | power=on\n" in state
        assert (tmp_path / "trace.log").read_bytes() == trace.encode("utf-8")
        assert (tmp_path / "state.log").read_bytes() == state.encode("utf-8")

    def test_transfer_bin_written(self, tmp_path):
        result = run_scenario(builtin_scenario("attack3-file-theft"))
        out = tmp_path / "run"
        written = write_artifacts(result, str(out))
        bins = [n for n in written if n.endswith(".bin")]
        assert len(bins) == 1
        payload = (out / bins[0]).read_bytes()
        assert payload == result.transfers[-1].payload

    def test_rewrite_matches_a_fresh_write(self, tmp_path):
        # A longer run, then a shorter one, into one directory: no file may
        # keep a tail of the longer run.
        churn = builtin_scenario("attack5-input-churn")
        write_artifacts(run_scenario(dataclasses.replace(churn, duration=3000)),
                        str(tmp_path / "reused"))
        short = run_scenario(churn)
        names = write_artifacts(short, str(tmp_path / "reused"))
        assert names == write_artifacts(short, str(tmp_path / "fresh"))
        assert sorted(os.listdir(tmp_path / "reused")) == sorted(names)
        for name in names:
            assert (tmp_path / "reused" / name).read_bytes() == (
                tmp_path / "fresh" / name).read_bytes(), name

    @pytest.mark.parametrize("plant", [os.symlink, os.link])
    def test_links_at_artifact_names_are_replaced_not_followed(self, tmp_path, plant):
        out = tmp_path / "run"
        out.mkdir()
        names = ("trace.log", "transfer-001.bin")
        for name in names:
            (tmp_path / name).write_bytes(b"not an artifact\n")
            plant(tmp_path / name, out / name)
        result = run_scenario(builtin_scenario("attack3-file-theft"))
        write_artifacts(result, str(out))
        for name in names:
            assert (tmp_path / name).read_bytes() == b"not an artifact\n"
            status = os.lstat(out / name)
            assert stat.S_ISREG(status.st_mode) and status.st_nlink == 1, name
        assert (out / "trace.log").read_text() == rendered(result.trace.render_log)
        assert (out / "transfer-001.bin").read_bytes() == result.transfers[-1].payload

    def test_a_name_that_reappears_before_the_create_is_refused(self, tmp_path, monkeypatch):
        # Something plants a link again between the unlink and the create.
        target = tmp_path / "target"
        target.write_text("kept")
        unlink = os.unlink

        def unlink_and_replant(path):
            unlink(path)
            os.symlink(target, path)

        (tmp_path / "trace.log").write_text("old")
        monkeypatch.setattr(os, "unlink", unlink_and_replant)
        with pytest.raises(FileExistsError):
            schema.new_file(str(tmp_path), "trace.log")
        assert target.read_text() == "kept"

    def test_payloads_are_numbered_in_request_order(self, tmp_path):
        # The listener's streams take no number: two requests are 001 and 002.
        document = builtin_doc("attack3-file-theft", duration=60,
                               listener_options={"capture_bytes": 28}, actions=[
            {"tick": t, "actor": "client", "action": "request_file", "args": {"peer": "listener"}}
            for t in (2, 20)])
        result = run_scenario(load_scenario(document))
        assert [(t.session_id, t.status, len(t.payload)) for t in result.transfers] == [
            ("transfer-001", "complete", 28), ("transfer-002", "complete", 28)]
        written = write_artifacts(result, str(tmp_path))
        assert {"transfer-001.bin", "transfer-002.bin"} <= set(written)

    def test_a_directory_at_an_artifact_name_exits_two(self, tmp_path, capsys):
        (tmp_path / "trace.log").mkdir()
        assert cli.main(["run", "--scenario", "benign-status-query", "--out", str(tmp_path)]) == 2
        assert "trace.log" in capsys.readouterr().err

    # The theft leaves a payload and a manifest, the walk also scan reports.
    @pytest.mark.parametrize("first", ["attack3-file-theft", "attack1-device-walk"])
    def test_an_earlier_runs_optional_artifacts_are_removed(self, tmp_path, first):
        write_artifacts(run_scenario(builtin_scenario(first)), str(tmp_path))
        (tmp_path / "notes.txt").write_text("mine")
        (tmp_path / "transfer-002.bin").mkdir()
        (tmp_path / "transfer-002.bin" / "transfer-003.bin").write_bytes(b"nested")
        (tmp_path / "transfer-01.bin").write_bytes(b"not a session name")
        written = write_artifacts(run_scenario(builtin_scenario("benign-status-query")),
                                  str(tmp_path))
        assert json.loads((tmp_path / "summary.json").read_text())["transfers"] == []
        assert sorted(os.listdir(tmp_path)) == sorted(
            written + ["notes.txt", "transfer-002.bin", "transfer-01.bin"])
        assert (tmp_path / "transfer-002.bin" / "transfer-003.bin").read_bytes() == b"nested"

    def test_unknown_check_type_fails_gracefully(self):
        document = builtin_doc("benign-status-query", checks=[{"type": "does_not_exist"}])
        with pytest.raises(ScenarioError, match=r"^checks\[0\]: unknown check type "):
            load_scenario(document)

    @pytest.mark.parametrize(
        "check",
        [
            {"type": "min_input_cycles", "device": "tv", "count": None},
            {"type": "powered_on_by", "device": "tv", "tick": "soon"},
        ],
    )
    def test_bad_check_field_fails_gracefully(self, check):
        with pytest.raises(ScenarioError, match=r"^checks\[0\]: check has a bad field: "):
            load_scenario(builtin_doc("benign-status-query", checks=[check]))

    @pytest.mark.parametrize(
        "check",
        [
            {"type": "scan_only_actor", "actor": "ghost"},
            {"type": "min_input_cycles", "device": "ghost", "count": 1},
            {"type": "powered_on_by", "device": "ghost", "tick": 5},
            {"type": "max_on_streak", "device": "ghost", "ticks": 3},
            {"type": "standby_follows_announcement", "device": "ghost"},
            {"type": "disable_cec_attempts_rejected", "device": "ghost"},
            {"type": "device_power_at_end", "device": "ghost", "power": "on"},
            {"type": "device_remains_on", "device": "ghost"},
            {"type": "no_control_frames_reach", "device": "ghost", "from_origin": "client"},
            {"type": "no_control_frames_reach", "device": "tv", "from_origin": "ghost"},
        ],
    )
    def test_check_naming_unknown_device_fails(self, check):
        with pytest.raises(ScenarioError) as err:
            load_scenario(builtin_doc("benign-status-query", checks=[check]))
        assert str(err.value) == "checks[0]: check names no device 'ghost'"

    @pytest.mark.parametrize(
        "name, changes, check, detail",
        [
            ("benign-status-query", {}, {"type": "scan_report_equals", "expected": "testbed"},
             "no scan report was produced"),
            ("benign-status-query", {}, {"type": "scan_only_actor", "actor": "listener"},
             "no scan report was produced"),
            ("benign-status-query", {}, {"type": "transfer_complete"}, "no transfer attempted"),
            ("attack1-device-walk", {}, {"type": "transfer_complete", "source": "capture"},
             "store has no capture payload"),
            ("attack3-file-theft", {}, {"type": "transfer_complete", "source": "mic"},
             "payload differs from mic source (2048 vs 1024 bytes)"),
            (
                "benign-input-select",
                {"actions": [{"tick": 10 + 5 * i, "actor": "tv", "action": "select_input",
                              "args": {"port": port}} for i, port in enumerate((2, 1, 2, 3, 4))]},
                {"type": "min_input_cycles", "device": "tv", "count": 2},
                "1 full input cycles (need 2)",
            ),
            ("benign-status-query", {}, {"type": "standby_follows_announcement", "device": "amp"},
             "amp never announced"),
            ("benign-status-query", {}, {"type": "relay_latency"}, "scenario ran without a relay"),
            ("attack5-remote-churn",
             {"relay": {"enabled": True, "commands": [{"tick": 5, "command": "CANCEL"}]}},
             {"type": "relay_latency"}, "no DOS1 command was posted"),
            # Posted after the last poll of the run.
            ("attack5-remote-churn",
             {"relay": {"enabled": True, "commands": [{"tick": 190, "command": "DOS1"}]}},
             {"type": "relay_latency"}, "relay command never produced bus traffic"),
        ],
    )
    def test_failing_check_says_why(self, name, changes, check, detail):
        document = {"name": name, **copy.deepcopy(scen._BUILTIN_SCENARIOS[name]), **changes}
        result = run_scenario(load_scenario(dict(document, checks=[check])))
        assert evaluate_checks(result) == [scen.CheckResult(check["type"], False, detail)]

    def test_post_to_unreachable_relay_is_logged_not_recorded(self, caplog):
        client = LoopbackRelayClient()
        client.down = True
        result = run_scenario(builtin_scenario("attack5-remote-churn"), relay_client=client)
        assert result.relay_posts == []
        assert "scenario post failed: loopback relay marked down" in caplog.messages

    def test_deterministic_trace(self):
        first = rendered(run_scenario(builtin_scenario("attack2-mic-exfil")).trace.render_log)
        second = rendered(run_scenario(builtin_scenario("attack2-mic-exfil")).trace.render_log)
        assert first == second


# ---------------------------------------------------------------------------
# Power checks against a per-tick reference
# ---------------------------------------------------------------------------

def reference_power_timeline(result, device: str) -> list[str]:
    """Per-tick power value for a device across the whole run, one entry
    per tick of the duration.  The last change logged at each tick is the
    power that tick ends with."""
    value = result.sim.topology.nodes[device].initial_power.value
    changes = {
        c.tick: c.value for c in result.trace.changes if c.device == device and c.field == "power"
    }
    timeline = []
    for tick in range(result.scenario.duration):
        value = changes.get(tick, value)
        timeline.append(value)
    return timeline


def reference_powered_on_by(result, *, device, tick):
    for at, value in enumerate(reference_power_timeline(result, device)[: tick + 1]):
        if value == "on":
            return True, "%s on at tick %d" % (device, at)
    return False, "%s not on by tick %d" % (device, tick)


def reference_max_on_streak(result, *, device, ticks, from_tick=0):
    worst = streak = 0
    for value in reference_power_timeline(result, device)[from_tick:]:
        streak = streak + 1 if value == "on" else 0
        worst = max(worst, streak)
    return worst <= ticks, "%s longest on-streak %d ticks from tick %d (limit %d)" % (
        device, worst, from_tick, ticks
    )


def reference_device_remains_on(result, *, device, from_tick=0):
    timeline = reference_power_timeline(result, device)[from_tick:]
    off_at = next((from_tick + i for i, v in enumerate(timeline) if v != "on"), None)
    if off_at is None:
        return True, "%s on from tick %d onward" % (device, from_tick)
    return False, "%s left on-state at tick %d" % (device, off_at)


_powers = st.sampled_from([p.value for p in PowerState])
# Changes to two devices' power and to a field the power checks skip, some
# logged at the same tick and some past the end of the run.
_changes = st.lists(
    st.builds(StateChange, st.integers(0, 40), st.sampled_from(["tv", "amp"]),
              st.sampled_from(["power", "power", "active_source"]), _powers),
    max_size=12,
).map(lambda changes: sorted(changes, key=lambda c: c.tick))


def _fake_result(initial: str, changes, duration: int):
    node = SimpleNamespace(initial_power=PowerState(initial))
    return SimpleNamespace(
        sim=SimpleNamespace(topology=SimpleNamespace(nodes={"tv": node, "amp": node})),
        trace=SimpleNamespace(changes=changes),
        scenario=SimpleNamespace(duration=duration),
    )


class TestPowerChecks:
    @given(_powers, _changes, st.integers(1, 40), st.integers(0, 45), st.integers(0, 45))
    @settings(deadline=None, max_examples=300)
    def test_checks_match_the_per_tick_reference(self, initial, changes, duration, tick, ticks):
        result = _fake_result(initial, changes, duration)
        for check, reference, kwargs in (
            (scen._check_powered_on_by, reference_powered_on_by, {"tick": tick}),
            (scen._check_max_on_streak, reference_max_on_streak, {"ticks": ticks}),
            (scen._check_max_on_streak, reference_max_on_streak,
             {"ticks": ticks, "from_tick": tick}),
            (scen._check_device_remains_on, reference_device_remains_on, {}),
            (scen._check_device_remains_on, reference_device_remains_on, {"from_tick": tick}),
        ):
            assert check(result, device="tv", **kwargs) == reference(
                result, device="tv", **kwargs
            )

    def test_power_checks_cost_nothing_per_quiet_tick(self):
        scenario = load_scenario(doc(
            duration=10**12,
            actions=[
                {"tick": 10, "actor": "tv", "action": "power_off"},
                {"tick": 20, "actor": "tv", "action": "power_on"},
            ],
            checks=[
                {"type": "powered_on_by", "device": "tv", "tick": 5},
                {"type": "max_on_streak", "device": "tv", "ticks": 10**12, "from_tick": 15},
                {"type": "device_remains_on", "device": "tv", "from_tick": 25},
            ],
        ))
        start = time.perf_counter()
        outcomes = evaluate_checks(run_scenario(scenario))
        assert time.perf_counter() - start < 1.0
        assert [(o.ok, o.detail) for o in outcomes] == [
            (True, "tv on at tick 0"),
            (True, "tv longest on-streak %d ticks from tick 15 (limit %d)" % (10**12 - 20, 10**12)),
            (True, "tv on from tick 25 onward"),
        ]


# ---------------------------------------------------------------------------
# Input-cycle check against the slicing reference
# ---------------------------------------------------------------------------

def reference_min_input_cycles(result, *, device, count):
    """The check as a slice compared at every index of the port sequence."""
    sequence = [
        int(c.value) for c in result.trace.changes
        if c.device == device and c.field == "active_input_port" and c.value != "None"
    ]
    cycles = 0
    i = 0
    while i + 4 <= len(sequence):
        if sequence[i:i + 4] == [1, 2, 3, 4]:
            cycles += 1
            i += 4
        else:
            i += 1
    return cycles >= count, "%d full input cycles (need %d)" % (cycles, count)


def _ports(*ports):
    return [StateChange(0, "tv", "active_input_port", str(port)) for port in ports]


_CYCLE = _ports(1, 2, 3, 4)
# Whole 1, 2, 3, 4 runs of the tv's port, which may land back to back, and
# single changes of any port (1-15 or none) to the tv or another device, or
# of another field.
_port_pieces = st.one_of(
    st.just(_CYCLE),
    st.builds(
        lambda device, field, value: [StateChange(0, device, field, value)],
        st.sampled_from(["tv", "tv", "tv", "amp"]),
        st.sampled_from(["active_input_port", "active_input_port", "power"]),
        st.sampled_from([str(port) for port in range(1, 16)] + ["None"]),
    ),
)


class TestInputCycleCheck:
    @given(st.lists(_port_pieces, max_size=30), st.integers(0, 8))
    @settings(deadline=None, max_examples=300)
    @example(pieces=[_CYCLE, _CYCLE], count=2)
    @example(pieces=[_ports(11), _CYCLE, _ports(12, 1), _CYCLE, _ports(15)], count=2)
    @example(pieces=[_ports(1, 2, 3), _CYCLE, _ports(4)], count=1)
    def test_check_matches_the_slicing_reference(self, pieces, count):
        result = SimpleNamespace(trace=SimpleNamespace(changes=[c for p in pieces for c in p]))
        assert scen._check_min_input_cycles(result, device="tv", count=count) == (
            reference_min_input_cycles(result, device="tv", count=count)
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestWiring:
    def test_receiver_only_where_requested(self):
        result = run_scenario(builtin_scenario("attack1-device-walk"))
        assert list(result.receivers) == ["client"]
        assert result.receivers["client"].device == "client"

    def test_no_receiver_without_request_file(self):
        from cecsim.transfer import FileReceiver

        result = run_scenario(builtin_scenario("attack5-input-churn"))
        assert result.receivers == {}
        assert not any(isinstance(a, FileReceiver) for a in result.sim.actors)

    def test_one_sender_per_listener(self):
        from cecsim.transfer import FileSender

        result = run_scenario(builtin_scenario("attack3-file-theft"))
        senders = [a for a in result.sim.actors if isinstance(a, FileSender)]
        assert senders == [result.controllers["listener"].sender]

    def test_runs_parse_no_frame_of_a_loaded_action(self, monkeypatch):
        # The loader parsed each send_frame's frame; every run sends that one.
        scenario = builtin_scenario("attack5-input-churn")
        parse, parsed = scen.parse_frame, []
        monkeypatch.setattr(scen, "parse_frame", lambda text: parsed.append(text) or parse(text))
        first, second = run_scenario(scenario), run_scenario(scenario)
        assert parsed == []
        sent = [next(e.frame for e in result.trace.events if e.tick == 2 and e.origin == "client")
                for result in (first, second)]
        assert sent[0] is sent[1] is scenario.actions[0].argument

    def test_run_settings_come_from_the_scenario(self):
        relay = dict(scen._BUILTIN_SCENARIOS["attack5-remote-churn"]["relay"], interval_ticks=2)
        scenario = load_scenario(builtin_doc("attack5-remote-churn", relay=relay))
        assert run_scenario(scenario).poller.interval_ticks == 2
        # client's link is stripped: only its own tap sees its census walk
        assert run_scenario(builtin_scenario("podium-strip-scan")).alerts == []
        scenario = load_scenario(builtin_doc("podium-strip-scan", ids={"tap": "client"}))
        assert [a.subject for a in run_scenario(scenario).alerts] == ["client"]


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == builtin_scenario_names()
        assert len(builtin_scenario_names()) == 12
        assert "attack1-device-walk" in out
        assert "podium-strip-scan" in out

    def test_run_ok(self, capsys):
        code = cli.main(["run", "--scenario", "benign-status-query", "--check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] zero_alerts" in out

    def test_run_check_failure_exits_three(self, tmp_path, capsys):
        document = {
            "name": "expected-to-fail",
            "topology": "testbed",
            "duration": 30,
            "actions": [
                {"tick": 2, "actor": "client", "action": "send_frame",
                 "args": {"frame": "aa:aa:aa:aa"}},
            ],
            "checks": [{"type": "zero_alerts"}],
        }
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(document))
        assert cli.main(["run", "--scenario", str(path), "--check"]) == 3
        assert "[FAIL] zero_alerts" in capsys.readouterr().out

    def test_run_without_check_flag_exits_zero(self, tmp_path, capsys):
        document = {
            "name": "soft-fail",
            "topology": "testbed",
            "duration": 20,
            "actions": [
                {"tick": 2, "actor": "client", "action": "send_frame",
                 "args": {"frame": "aa:aa:aa:aa"}},
            ],
            "checks": [{"type": "zero_alerts"}],
        }
        path = tmp_path / "soft.json"
        path.write_text(json.dumps(document))
        assert cli.main(["run", "--scenario", str(path)]) == 0
        capsys.readouterr()

    def test_run_malformed_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc(actions=[{"tick": 1, "actor": "tv",
                                                 "action": "power_on", "args": [1]}])))
        assert cli.main(["run", "--scenario", str(path)]) == 2
        assert "args must be an object" in capsys.readouterr().err

    def test_run_malformed_check_exits_two_before_running(self, tmp_path, capsys):
        path = tmp_path / "bad-check.json"
        path.write_text(json.dumps(doc(checks=[
            {"type": "min_input_cycles", "device": "tv", "count": "190"},
        ])))
        assert cli.main(["run", "--scenario", str(path), "--check"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "checks[0]" in err and "count" in err

    def test_transfer_source_without_listener_fails_the_check(self, tmp_path, capsys):
        # A transfer completes (tv sends the end marker) with no listener
        # to hold the payload the check names.
        document = doc(
            topology={
                "nodes": [
                    {"id": "tv", "kind": "display", "device_type": "television"},
                    {"id": "client", "kind": "source", "device_type": "recording"},
                ],
                "edges": [{"parent": "tv", "child": "client", "port": 1}],
            },
            actions=[
                {"tick": 1, "actor": "client", "action": "request_file"},
                {"tick": 3, "actor": "tv", "action": "send_frame",
                 "args": {"frame": "ee:ee:ee:ee"}},
            ],
            checks=[{"type": "transfer_complete", "source": "mic"}],
        )
        path = tmp_path / "no-listener.json"
        path.write_text(json.dumps(document))
        assert cli.main(["run", "--scenario", str(path), "--check"]) == 3
        assert "no listener holds a mic payload" in capsys.readouterr().out

    def test_relay_client_alone_runs_no_relay(self):
        # Only the document enables a relay; `--relay-url` enables it there.
        scenario = load_scenario(doc(topology=NO_LISTENER_TOPOLOGY))
        assert run_scenario(scenario, relay_client=LoopbackRelayClient()).poller is None

    def test_relay_url_without_listener_exits_two(self, tmp_path, capsys):
        path = tmp_path / "no-listener.json"
        path.write_text(json.dumps(doc(topology=NO_LISTENER_TOPOLOGY)))
        code = cli.main(["run", "--scenario", str(path), "--relay-url", "http://127.0.0.1:1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "relay needs an attacker listener" in err

    def test_run_non_ascii_menu_language_exits_two_before_running(self, tmp_path, capsys):
        path = tmp_path / "language.json"
        path.write_text(json.dumps(doc(
            overrides={"amp": {"menu_language": "\u00e9t\u00e9"}},
            actions=[{"tick": 1, "actor": "listener", "action": "scan"}],
        )))
        assert cli.main(["run", "--scenario", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "node 'amp' menu_language must be 3 ASCII chars" in err

    def test_run_unknown_scenario_exits_two(self, capsys):
        assert cli.main(["run", "--scenario", "no-such"]) == 2
        assert "no-such" in capsys.readouterr().err

    def test_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = cli.main(
            ["run", "--scenario", "benign-power-cycle", "--out", str(out), "--check"]
        )
        assert code == 0
        assert (out / "trace.log").exists()
        capsys.readouterr()

    def test_run_seed_override_changes_nothing_observable(self, capsys):
        # the seed steers payload generation only; benign runs stay green
        assert cli.main(["run", "--scenario", "benign-input-select", "--seed", "77",
                         "--check"]) == 0
        capsys.readouterr()

    def test_scan_table(self, capsys):
        assert cli.main(["scan", "--topology", "testbed"]) == 0
        out = capsys.readouterr().out
        assert "Addr 00" in out
        assert "STR-ZA2100" in out

    def test_scan_json(self, capsys):
        assert cli.main(["scan", "--topology", "testbed", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == EXPECTED_TESTBED_SCAN

    def test_scan_actor_override(self, capsys):
        assert cli.main(["scan", "--topology", "testbed", "--actor", "client"]) == 0
        capsys.readouterr()

    def test_scan_unknown_actor_exits_two(self, capsys):
        assert cli.main(["scan", "--topology", "testbed", "--actor", "ghost"]) == 2
        capsys.readouterr()

    def test_scan_topology_file_json(self, tmp_path, capsys):
        path = tmp_path / "testbed.json"
        path.write_text(json.dumps(TESTBED_TOPOLOGY))
        assert cli.main(["scan", "--topology", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == EXPECTED_TESTBED_SCAN

    @pytest.mark.parametrize("actor", [node["id"] for node in TESTBED_TOPOLOGY["nodes"]])
    def test_scan_table_from_each_testbed_node(self, actor, capsys):
        # Recorded from `cecsim scan --actor NODE` when scan drove its own
        # simulator; a walker without a logical address learns nothing.
        with open(os.path.join(DATA_DIR, "scan_testbed_tables.json"), encoding="utf-8") as fh:
            expected = json.load(fh)[actor]
        assert cli.main(["scan", "--actor", actor]) == 0
        assert capsys.readouterr().out == expected

    def test_scan_where_every_address_answers(self, tmp_path, capsys):
        # The longest walk: 14 responders, each asked all six queries.
        nodes = [{"id": "tv", "kind": "display", "device_type": "television",
                  "osd_name": "TV", "logical_address": 0, "input_count": 15}]
        edges = []
        for i in range(1, 15):
            nodes.append({"id": "d%d" % i, "kind": "source", "device_type": "playback",
                          "osd_name": "D%d" % i, "logical_address": i})
            edges.append({"parent": "tv", "child": "d%d" % i, "port": i})
        path = tmp_path / "full.json"
        path.write_text(json.dumps({"nodes": nodes, "edges": edges}))
        assert cli.main(["scan", "--topology", str(path), "--actor", "d7", "--json"]) == 0
        census = json.loads(capsys.readouterr().out)
        assert list(census) == ["Addr %02X" % a for a in range(15)]
        assert [row["OSD Str"] for row in census.values()] == ["TV"] + [
            "D%d" % i for i in range(1, 15)
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--actor", "ghost"], "unknown actor at tick 0 'ghost'"),
            (["--actor", ""], "actor at tick 0 must be a non-empty string, got ''"),
            (["--topology", "no-such-file.json"], "'no-such-file.json' is neither builtin nor"),
        ],
    )
    def test_scan_bad_input_exits_two(self, argv, message, capsys):
        assert cli.main(["scan"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_scan_actor_refused_as_a_scenario_action(self, tmp_path, capsys):
        path = tmp_path / "scan.json"
        path.write_text(json.dumps({"name": "scan", "topology": "testbed", "duration": 140,
                                    "actions": [{"tick": 0, "actor": "ghost", "action": "scan"}]}))
        assert cli.main(["run", "--scenario", str(path)]) == 2
        refused = capsys.readouterr().err
        assert cli.main(["scan", "--actor", "ghost"]) == 2
        assert capsys.readouterr().err == refused

    @pytest.mark.parametrize(
        "bind",
        ["8750", ":8750", "127.0.0.1:", "127.0.0.1:http", "127.0.0.1:-1", "127.0.0.1:\u00b2",
         "127.0.0.1:65536", "127.0.0.1:99999"],
    )
    def test_relay_serve_bad_bind_exits_two(self, bind, monkeypatch, capsys):
        def no_socket(*args, **kwargs):
            raise AssertionError("a bad --bind must not open a socket")

        monkeypatch.setattr(relay_http, "RelayServer", no_socket)
        assert cli.main(["relay", "serve", "--bind", bind]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "--bind expects host:port, got %r\n" % bind

    def test_relay_serve_runs_until_interrupted(self, monkeypatch, capsys):
        served = []

        def interrupted(server, *args, **kwargs):
            served.append(server)
            raise KeyboardInterrupt

        monkeypatch.setattr(relay_http.RelayServer, "serve_forever", interrupted)
        assert cli.main(["relay", "serve", "--bind", "127.0.0.1:0"]) == 0
        [server] = served
        port = server.server_address[1]
        assert capsys.readouterr().out == (
            "relay listening on http://127.0.0.1:%d (paths /cec/listener and /cec/webclient)\n"
            % port
        )
        assert port != 0 and server.socket.fileno() == -1

    def test_run_bad_relay_url_exits_two_before_running(self, capsys):
        code = cli.main(["run", "--scenario", "attack5-remote-churn", "--relay-url", "notaurl"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "relay URL must be http(s)://host[:port][/path], got 'notaurl'" in err

    def test_ids_analyze(self, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert cli.main(
            ["run", "--scenario", "attack1-device-walk", "--out", str(run_out)]
        ) == 0
        capsys.readouterr()
        assert cli.main(["ids", "analyze", str(run_out / "trace.log")]) == 0
        out = capsys.readouterr().out
        assert "ScanBurst" in out

    def test_ids_analyze_skips_blank_lines(self, tmp_path, capsys):
        lines = rendered(run_scenario(builtin_scenario("attack1-device-walk")).trace.render_log)
        plain, spaced = tmp_path / "plain.log", tmp_path / "spaced.log"
        plain.write_text(lines, encoding="utf-8")
        spaced.write_text("\n" + lines.replace("\n", "\n  \n"), encoding="utf-8")
        assert cli.main(["ids", "analyze", str(plain)]) == 0
        want = capsys.readouterr()
        assert cli.main(["ids", "analyze", str(spaced)]) == 0
        assert capsys.readouterr() == want and "ScanBurst" in want.out

    @pytest.mark.parametrize(
        "name, tap",
        [pytest.param(name, None, id=name) for name in builtin_scenario_names()]
        # A tap that sees only part of the bus: the client's domain.
        + [pytest.param("podium-strip-scan", "client", id="podium-strip-scan@client")],
    )
    def test_ids_analyze_replays_run_alerts(self, name, tap, tmp_path, capsys):
        """Replaying a run's trace.log from its tap, with its detector
        config, prints exactly the run's alerts.jsonl."""
        run_out = tmp_path / "run"
        flags = [] if tap is None else ["--ids-tap", tap]
        assert cli.main(["run", "--scenario", name, "--out", str(run_out)] + flags) == 0
        capsys.readouterr()
        scenario = builtin_scenario(name)
        argv = ["ids", "analyze", str(run_out / "trace.log"),
                "--ids-tap", tap or scenario.ids_options.get("tap") or scenario.topology.root]
        if "config" in scenario.ids_options:
            config_path = tmp_path / "ids.json"
            config_path.write_text(json.dumps(dataclasses.asdict(scenario.ids_options["config"])))
            argv += ["--ids-config", str(config_path)]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        alerts = (run_out / "alerts.jsonl").read_text().splitlines()
        assert captured.out.splitlines() == alerts
        frames = len((run_out / "trace.log").read_text().splitlines())
        assert captured.err == "%d alerts from %d frames\n" % (len(alerts), frames)

    def test_ids_analyze_missing_file_exits_two(self, capsys):
        assert cli.main(["ids", "analyze", "/nonexistent/trace.log"]) == 2
        capsys.readouterr()

    def test_ids_analyze_tap_seeing_no_frame_exits_two(self, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert cli.main(["run", "--scenario", "attack1-device-walk", "--out", str(run_out)]) == 0
        trace = str(run_out / "trace.log")
        assert cli.main(["ids", "analyze", trace, "--ids-tap", "tv"]) == 0
        capsys.readouterr()
        assert cli.main(["ids", "analyze", trace, "--ids-tap", "ghost"]) == 2
        assert "'ghost'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [DEEP_JSON, NESTED_SCENARIO])
    def test_run_deeply_nested_scenario_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert cli.main(["run", "--scenario", str(path)]) == 2
        assert "deep" in capsys.readouterr().err

    def test_run_deeply_nested_ids_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        assert cli.main(["run", "--scenario", "benign-status-query",
                         "--ids-config", str(path)]) == 2
        assert "deep.json" in capsys.readouterr().err

    def test_ids_analyze_garbage_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.log"
        path.write_text("this is not a trace\n")
        assert cli.main(["ids", "analyze", str(path)]) == 2
        capsys.readouterr()

    def test_ids_analyze_names_the_first_bad_line_and_prints_no_alert(self, tmp_path, capsys):
        lines = rendered(run_scenario(builtin_scenario("attack1-device-walk")).trace.render_log)
        path = tmp_path / "cut.log"
        path.write_text(lines + "\n  \nt=9 | cut\nworse\n", encoding="utf-8")
        assert cli.main(["ids", "analyze", str(path)]) == 2
        bad = len(lines.splitlines()) + 3
        assert capsys.readouterr() == (
            "", "%s:%d: unrecognised trace line: 't=9 | cut'\n" % (path, bad)
        )

    @pytest.mark.parametrize("trace", ["garbage.log", "missing.log"])
    def test_ids_analyze_refuses_the_config_before_the_trace(self, tmp_path, capsys, trace):
        (tmp_path / "garbage.log").write_text("this is not a trace\n")
        config_path = tmp_path / "ids.json"
        config_path.write_text("{")
        assert cli.main(["ids", "analyze", str(tmp_path / trace),
                         "--ids-config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: detector config file %s is not readable JSON" % config_path)

    def test_run_bad_listener_options_exits_two(self, tmp_path, capsys):
        path = tmp_path / "options.json"
        path.write_text(json.dumps(doc(listener_options=[1])))
        assert cli.main(["run", "--scenario", str(path)]) == 2
        assert "listener_options" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["[1]", "5"])
    def test_ids_config_not_an_object_exits_two(self, tmp_path, capsys, raw):
        config_path = tmp_path / "ids.json"
        config_path.write_text(raw)
        run_out = tmp_path / "run"
        assert cli.main(["run", "--scenario", "benign-status-query", "--out", str(run_out),
                         "--ids-config", str(config_path)]) == 2
        assert "object" in capsys.readouterr().err
        assert cli.main(["run", "--scenario", "benign-status-query", "--out", str(run_out)]) == 0
        assert cli.main(["ids", "analyze", str(run_out / "trace.log"),
                         "--ids-config", str(config_path)]) == 2
        capsys.readouterr()

    def test_scenario_interval_ticks_sets_poll_interval(self, tmp_path, capsys):
        path = tmp_path / "remote.json"
        path.write_text(json.dumps(doc(
            relay={"enabled": True, "interval_ticks": 2,
                   "commands": [{"tick": 5, "command": "DOS1"}]},
            checks=[{"type": "relay_latency"}],
        )))
        assert cli.main(["run", "--scenario", str(path), "--check"]) == 0
        assert "(budget 4)" in capsys.readouterr().out

    def test_ticks_per_second_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--scenario", "attack5-remote-churn", "--ticks-per-second", "1"])
        assert exc.value.code == 2
        assert "--ticks-per-second" in capsys.readouterr().err

    def test_ids_tap_flag_moves_the_detector(self, capsys):
        assert cli.main(["run", "--scenario", "podium-strip-scan"]) == 0
        assert ", 0 alerts," in capsys.readouterr().out
        assert cli.main(["run", "--scenario", "podium-strip-scan", "--ids-tap", "client"]) == 0
        assert ", 1 alerts," in capsys.readouterr().out

    def test_ids_tap_naming_no_device_exits_two(self, capsys):
        assert cli.main(["run", "--scenario", "attack1-device-walk", "--ids-tap", "ghost"]) == 2
        err = capsys.readouterr().err
        assert "'ghost'" in err and "tap" in err

    def test_empty_ids_tap_flag_exits_two(self, capsys):
        # As `ids.tap` "" in a scenario file: an empty tap is refused, not dropped.
        assert cli.main(["run", "--scenario", "podium-strip-scan", "--ids-tap", ""]) == 2
        assert "detector tap '' names no device" in capsys.readouterr().err

    def test_empty_ids_config_flag_exits_two(self, capsys):
        # As `ids analyze --ids-config ""`: an empty path is refused, not dropped.
        assert cli.main(["run", "--scenario", "podium-strip-scan", "--ids-config", ""]) == 2
        assert "detector config file  is not readable JSON" in capsys.readouterr().err

    def test_empty_out_flag_exits_two(self, capsys, monkeypatch):
        # As the other flags: an empty directory is refused, not dropped, and
        # before anything runs.
        def run_scenario(*args, **kwargs):
            raise AssertionError("ran a scenario with an empty --out")

        monkeypatch.setattr(scen, "run_scenario", run_scenario)
        assert cli.main(["run", "--scenario", "benign-status-query", "--out", ""]) == 2
        assert "--out must name a directory, got ''" in capsys.readouterr().err

    @pytest.mark.parametrize("link", [False, True])
    def test_out_naming_a_file_exits_two(self, tmp_path, capsys, monkeypatch, link):
        # A file, or a link to none, is refused before anything runs, by the
        # flag's name, and left as it was.
        def run_scenario(*args, **kwargs):
            raise AssertionError("ran a scenario with --out naming a file")

        monkeypatch.setattr(scen, "run_scenario", run_scenario)
        path = tmp_path / "afile"
        if link:
            path.symlink_to(tmp_path / "missing")
        else:
            path.write_text("kept")
        assert cli.main(["run", "--scenario", "benign-status-query", "--out", str(path)]) == 2
        assert "--out must name a directory, got %r" % str(path) in capsys.readouterr().err
        assert path.is_symlink() if link else path.read_text() == "kept"

    def test_out_under_a_file_exits_two(self, tmp_path, capsys, monkeypatch):
        # A directory that cannot be made is refused by the flag's name
        # before anything runs, not after the run by `write_artifacts`.
        def run_scenario(*args, **kwargs):
            raise AssertionError("ran a scenario with --out under a file")

        monkeypatch.setattr(scen, "run_scenario", run_scenario)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = str(afile / "sub")
        assert cli.main(["run", "--scenario", "benign-status-query", "--out", out]) == 2
        assert "--out must name a directory, got %r" % out in capsys.readouterr().err
        assert afile.read_text() == "kept"

    def test_empty_relay_url_flag_exits_two(self, capsys):
        assert cli.main(["run", "--scenario", "podium-strip-scan", "--relay-url", ""]) == 2
        assert "relay URL must be http(s)://host[:port][/path], got ''" in capsys.readouterr().err

    def test_ids_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "ids.json"
        config_path.write_text(json.dumps({"scan_distinct_addresses": 99}))
        code = cli.main(
            ["run", "--scenario", "attack1-device-walk", "--ids-config", str(config_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        # the raised threshold silences the scan-burst rule
        assert "[FAIL] alert_exactly" in out

    def test_ids_config_naming_an_unknown_setting_exits_two(self, tmp_path, capsys):
        config_path = tmp_path / "ids.json"
        config_path.write_text(json.dumps({"scan_window": 9, "bogus_knob": 3}))
        code = cli.main(
            ["run", "--scenario", "attack1-device-walk", "--ids-config", str(config_path)]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: detector config invalid: unknown detector settings key 'bogus_knob'\n"
        )


# ---------------------------------------------------------------------------
# Import path
# ---------------------------------------------------------------------------

# The HTTP stack and what it pulls in; only a live relay needs them.
HTTP_STACK = {"http.client", "http.server", "urllib.request", "ssl", "email"}


def _loaded_modules(*steps: str) -> list[set[str]]:
    """Run each step in one fresh interpreter; the modules loaded after each."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    report = "import sys; print('\\nmodules:', *sys.modules)"
    code = "\n".join(step + "\n" + report for step in steps)
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines() if line.startswith("modules: ")]
    return [set(line.split()[1:]) for line in lines]


class TestImportPath:
    def test_simulation_and_cli_load_no_http_stack(self):
        simulation, with_cli = _loaded_modules(
            "import cecsim.scenarios, cecsim.ids, cecsim.bus", "import cecsim.cli"
        )
        assert "cecsim.scenarios" in simulation and "cecsim.cli" in with_cli
        assert not HTTP_STACK & with_cli
        assert "cecsim.relay_http" not in with_cli

    def test_run_loads_relay_http_only_for_a_relay_url(self):
        loopback, live = _loaded_modules(
            "from cecsim import cli; assert cli.main(['run', '--scenario', "
            "'attack5-remote-churn', '--check']) == 0",
            "assert cli.main(['run', '--scenario', 'attack5-remote-churn', "
            "'--relay-url', 'notaurl']) == 2",
        )
        assert "cecsim.relay" in loopback
        assert "cecsim.relay_http" not in loopback and not HTTP_STACK & loopback
        assert "cecsim.relay_http" in live and HTTP_STACK <= live


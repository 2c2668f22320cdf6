"""Byte-exact pins of the builtin catalogue.

The digests are sha256 of `trace.log`, `state.log` and `alerts.jsonl` as
`write_artifacts` renders them.  A change that alters any of them changes
what a builtin scenario does on the wire and must say why.
"""

import hashlib

import pytest

from cecsim import scenarios
from cecsim.bus import Actor, Simulator
from cecsim.scenarios import (
    builtin_scenario,
    builtin_scenario_names,
    load_scenario,
    run_scenario,
    write_artifacts,
)

from conftest import rendered

PINNED_FILES = ("trace.log", "state.log", "alerts.jsonl")

_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

GOLDEN = {
    "attack1-device-walk": (
        "75cc6177d44dea94c844918b7c62407379168db961cfd6ceb9d516d561ef3779",
        _EMPTY,
        "1a73b4b4cfcae82b4e19d8bab13fe5c84e54f8c9ad7a9c0e783fd1f38c692460",
    ),
    "attack2-mic-exfil": (
        "2ab29293954df8fd352e14314a7cebaa116928781d9de320141f4d42c4dea705",
        _EMPTY,
        "8718fd45a2b2b4c8ff4ed8e7d804e921c2095c600aef4241a366a0325a51ae9d",
    ),
    "attack3-file-theft": (
        "e4b767e03ae62948ef1851905161a801ef312b52847a42ea2b9ad52b267782ed",
        _EMPTY,
        "58572ae33a09eb34fd28440ad5e679b2441c7412a178aaf87a61e3f351896edd",
    ),
    "attack4-disable-control-mitigated": (
        "34f43ed256c4904432852f3303a37ff8223f1a893c551576fe81437e0903b31d",
        "ae8e63dcc622dd9802fef8d0cc9287a664f0c5567ca18f7e528e4d0d22437e54",
        "0194a365ba24e263c6da76b506809c7c72548049466c95ef05af9812cf5ad59e",
    ),
    "attack4-targeted-standby": (
        "47734cad4d4da3d0e4586e5fb7e56373cf8fc6600e8154b81267a2b9e91e3730",
        "47fd2e6dfa23485941c19e6d0dd6e40d06287a3a947929418cab01db94f0edcd",
        "854d0005d94b3f2d45760c19dcc54f9fd6acc6467678a39e7fe4869b643b7552",
    ),
    "attack5-input-churn": (
        "ba451517ff3f390ee541c99f2d7c2bc1405cbcb39e809bc024525aef84dbc15a",
        "62c12160ff3af50316efeb3bc88729204a7afa410b4b76b910952a856608bc00",
        "9d4778014e81f2f38a9a29d42830e2ca642c36c89ac7f7063f851a6b50ffbd1e",
    ),
    "attack5-remote-churn": (
        "9060a3a919e54c591d68d448bb15b817a77fb74f543cf61dedc781c889e859dc",
        "4c6c64abbc6ebf1edb59a5c959c3b09bbfaa4d858330a67b50ea74002bb8b2d4",
        "693a1ef234378fe8f5680f68ed3f14aa8f15f3cf50ef0362a0200fa671374ef5",
    ),
    "attack5-strip-mitigated": (
        "0ddd07907ab719c504240b2d787e78ecc1887a282f8b0e5c354fdaca38213d80",
        "ec2278b15e0c0b89ab7e38039bc658ec699b76e369dcf06fc6bfecf057fe5102",
        _EMPTY,
    ),
    "benign-input-select": (
        "85bbd974248113da92bbbd26597c225f1a362670dd550a42222e6e1b66ae6864",
        "93cfa3a565845fb902f821a51a3153e817ef779873a5ce9a188802eb711392ca",
        _EMPTY,
    ),
    "benign-power-cycle": (
        "ab34d8df807272c0637ef2fd3f660e418a585ec0f56c4f8d8bf8e8377d96e705",
        "2b0a56cc6233b9a78bd3e5a0b03d5634d9383935b10b63a3bfe51319a9b013e4",
        _EMPTY,
    ),
    "benign-status-query": (
        "de4d900d537fe2b53ff10cf8e541c168e3f5f5dd6ab629fb2e085890d1cef950",
        _EMPTY,
        _EMPTY,
    ),
    "podium-strip-scan": (
        "6a8d0f163e098d0938eaa6ba89276780c873d3d09413a29d5d7a873d64420d05",
        _EMPTY,
        _EMPTY,
    ),
}


def test_golden_covers_every_builtin():
    assert sorted(GOLDEN) == builtin_scenario_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_artifacts_match_golden_digests(name, tmp_path):
    write_artifacts(run_scenario(builtin_scenario(name)), str(tmp_path))
    got = tuple(
        hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest()
        for file_name in PINNED_FILES
    )
    assert dict(zip(PINNED_FILES, got)) == dict(zip(PINNED_FILES, GOLDEN[name]))


@pytest.mark.parametrize("name", ["attack4-disable-control-mitigated", "attack5-remote-churn"])
def test_loaded_scenario_runs_twice_unchanged(name):
    scenario = builtin_scenario(name)
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert rendered(first.trace.render_log) == rendered(second.trace.render_log)
    assert rendered(first.trace.render_state_log) == rendered(second.trace.render_state_log)
    assert scenario.topology == builtin_scenario(name).topology


class _AlwaysAwake(Actor):
    """Does nothing on every tick; while it is awake, `run` never jumps."""

    def __init__(self, device):
        super().__init__(device)
        self.ticks = 0

    def on_tick(self, sim, tick):
        self.ticks += 1


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_idle_jump_logs_what_stepping_every_tick_logs(name, monkeypatch):
    plain = run_scenario(builtin_scenario(name))

    class SteppingSimulator(Simulator):
        def __init__(self, topology):
            super().__init__(topology)
            self.awake = _AlwaysAwake(topology.root)
            self.add_actor(self.awake)
            self.wake(self.awake)

    monkeypatch.setattr(scenarios, "Simulator", SteppingSimulator)
    stepped = run_scenario(builtin_scenario(name))
    assert stepped.sim.awake.ticks == stepped.scenario.duration
    assert rendered(stepped.trace.render_log) == rendered(plain.trace.render_log)
    assert rendered(stepped.trace.render_state_log) == rendered(plain.trace.render_state_log)


# A covert transfer with input churn armed while it streams: from tick 11 the
# listener's churn and data frames share each tick, and the churn frame goes
# first because the churn loop was added before the file sender.  No builtin
# puts two actors' frames on one tick.
SAME_TICK_SCENARIO = {
    "name": "churn-during-transfer",
    "topology": "testbed",
    "duration": 30,
    "seed": 1,
    "listener_options": {"capture_bytes": 2048},
    "actions": [
        {"tick": 2, "actor": "client", "action": "request_file", "args": {"peer": "listener"}},
        {"tick": 10, "actor": "client", "action": "send_frame", "args": {"frame": "dd:dd:dd:dd"}},
    ],
}
SAME_TICK_TRACE = "07d474754a8907b84da997586f76169928ce3e733523d25c13038b1402d7127d"


def test_same_tick_frames_keep_the_actors_add_order():
    log = rendered(run_scenario(load_scenario(SAME_TICK_SCENARIO)).trace.render_log)
    at_11 = [line.split(" | ")[2] for line in log.splitlines() if line.startswith("t=11 ")]
    assert at_11[0] == "10:04" and at_11[1].startswith("12:00:")
    assert hashlib.sha256(log.encode("utf-8")).hexdigest() == SAME_TICK_TRACE

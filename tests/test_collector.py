"""`run_scenario` pauses the cyclic garbage collector for the whole run and
puts it back as the caller had it.  The pause is safe only while a run makes
no cyclic garbage that grows with its length, which is pinned here too."""

import gc
import importlib.util
import os
import sys

import pytest

from cecsim import attacks, devices
from cecsim import scenarios as scen

# The benchmark's generator of seeded 15-ary census trees.
_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "fleet.py")
_spec = importlib.util.spec_from_file_location("fleet", _PATH)
fleet = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fleet)


def churn(ticks: int):
    """attack5-input-churn stretched to `ticks`."""
    return scen.load_scenario(
        {
            "name": "churn",
            "topology": "testbed",
            "duration": ticks,
            "overrides": {"tv": {"initial_power": "standby"}},
            "ids": {"tap": "tv"},
            "actions": [
                {"tick": 2, "actor": "client", "action": "send_frame", "args": {"frame": "dd:dd:dd:dd"}},
                {"tick": 30, "actor": "tv", "action": "disable_cec"},
            ],
        }
    )


@pytest.fixture
def collector():
    """Leaves the collector enabled or disabled, and at the thresholds, as
    the test found it."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


def cyclic_garbage(scenario) -> int:
    """What `gc.collect` finds once a run of `scenario` and its result are
    dropped, with the collector off from before the run."""
    gc.collect()
    gc.disable()
    scen.run_scenario(scenario)
    return gc.collect()


class TestCyclicGarbage:
    def test_a_churn_makes_the_same_whatever_its_length(self, collector):
        assert cyclic_garbage(churn(2_000)) == cyclic_garbage(churn(20_000))

    def test_a_census_makes_the_same_whatever_the_tree(self, collector):
        walk = cyclic_garbage(scen.builtin_scenario("attack1-device-walk"))
        fleets = [cyclic_garbage(scen.load_scenario(fleet.fleet_scenario(1, n))) for n in (63, 500)]
        assert fleets == [walk, walk]


class TestPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collector_is_left_as_the_caller_had_it(self, collector, enabled):
        (gc.enable if enabled else gc.disable)()
        scen.run_scenario(churn(200))
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "module, name, scenario",
        [
            (devices, "react", "attack5-input-churn"),
            (attacks.ScanWalk, "on_tick", "attack1-device-walk"),
            (scen.ids_mod, "detect", "attack5-input-churn"),
        ],
        ids=["react", "actor", "detect"],
    )
    def test_a_run_that_raises_leaves_it_too(self, collector, monkeypatch, enabled, module, name, scenario):
        seen = []

        def broken(*args, **kwargs):
            seen.append(gc.isenabled())
            raise RuntimeError("broken " + name)

        scenario = scen.builtin_scenario(scenario)
        monkeypatch.setattr(module, name, broken)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="broken " + name):
            scen.run_scenario(scenario)
        assert gc.isenabled() is enabled
        assert seen == [False]

    def test_no_collection_starts_inside_a_run(self, collector):
        """With a collection due at every allocation, any part of
        `run_scenario` left outside the pause starts one."""
        code = scen.run_scenario.__code__
        inside = []

        def hook(phase, info):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                inside.append(info["generation"])

        scenario = churn(2_000)
        gc.enable()
        gc.callbacks.append(hook)
        gc.set_threshold(1, 10**6, 10**6)
        try:
            scen.run_scenario(scenario)
        finally:
            gc.callbacks.remove(hook)
        assert inside == []

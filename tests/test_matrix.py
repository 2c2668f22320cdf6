"""The attack x mitigation matrix: every check must be able to fail.

Each attack builtin runs under each mitigation set, with the detector tapped
at the root (`tv`, the default) and at `switch`.  The mitigations and the
tap are appended to the builtin's own document, and its own checks are
evaluated.  `MATRIX` pins every cell: each check's verdict and the number of
alerts.  The cells are this simulator's answer to which defences stop which
attack, and from which vantage point the detector sees it.  A change that
moves a cell must declare it, as a change to a golden digest must.

`NEGATIVE` holds hand-written cells for the check types that fail in no
matrix cell, so that every one of the 15 check types is pinned failing at
least once.

Whatever the mitigations, the untapped detector raises exactly the alerts of
one detector per propagation domain put together.
"""

from collections import Counter

import pytest

from cecsim import ids
from cecsim import scenarios as scen

MITIGATION_SETS = {
    "none": [],
    "strip-tv-switch": [{"type": "strip_edge", "parent": "tv", "child": "switch"}],
    "strip-switch-client": [{"type": "strip_edge", "parent": "switch", "child": "client"}],
    "disable_control-tv": [{"type": "disable_control", "device": "tv"}],
    "disable_cec-tv": [{"type": "disable_cec", "device": "tv"}],
}
TAPS = ("tv", "switch")

# (builtin, mitigation set): for each tap in TAPS, the verdict of each of the
# builtin's checks in its order (P pass, F fail) and the number of alerts.
MATRIX = {
    ("attack1-device-walk", "none"): (("PPP", 4), ("PPP", 4)),
    ("attack1-device-walk", "strip-tv-switch"): (("FFP", 0), ("FPP", 4)),
    ("attack1-device-walk", "strip-switch-client"): (("FPF", 1), ("FPF", 1)),
    ("attack1-device-walk", "disable_control-tv"): (("PPP", 4), ("PPP", 4)),
    ("attack1-device-walk", "disable_cec-tv"): (("FPP", 4), ("FPP", 4)),
    # With tv-switch stripped, the transfer completes unseen from the root.
    ("attack2-mic-exfil", "none"): (("PPP", 4), ("PPP", 4)),
    ("attack2-mic-exfil", "strip-tv-switch"): (("PFF", 0), ("PPP", 4)),
    ("attack2-mic-exfil", "strip-switch-client"): (("FFF", 0), ("FFF", 0)),
    ("attack2-mic-exfil", "disable_control-tv"): (("PPP", 4), ("PPP", 4)),
    ("attack2-mic-exfil", "disable_cec-tv"): (("PPP", 4), ("PPP", 4)),
    ("attack3-file-theft", "none"): (("PPP", 3), ("PPP", 3)),
    ("attack3-file-theft", "strip-tv-switch"): (("PFF", 0), ("PPP", 3)),
    ("attack3-file-theft", "strip-switch-client"): (("FFF", 0), ("FFF", 0)),
    ("attack3-file-theft", "disable_control-tv"): (("PPP", 3), ("PPP", 3)),
    ("attack3-file-theft", "disable_cec-tv"): (("PPP", 3), ("PPP", 3)),
    ("attack4-targeted-standby", "none"): (("PPP", 1), ("PPP", 1)),
    ("attack4-targeted-standby", "strip-tv-switch"): (("FFF", 0), ("FFF", 0)),
    ("attack4-targeted-standby", "strip-switch-client"): (("FFF", 0), ("FFF", 0)),
    ("attack4-targeted-standby", "disable_control-tv"): (("PFP", 1), ("PFP", 1)),
    ("attack4-targeted-standby", "disable_cec-tv"): (("PFP", 1), ("PFP", 1)),
    ("attack5-input-churn", "none"): (("PPPP", 1), ("PPPP", 1)),
    ("attack5-input-churn", "strip-tv-switch"): (("FFFF", 0), ("FFFP", 1)),
    ("attack5-input-churn", "strip-switch-client"): (("FFFF", 0), ("FFFF", 0)),
    ("attack5-input-churn", "disable_control-tv"): (("FFFP", 1), ("FFFP", 1)),
    ("attack5-input-churn", "disable_cec-tv"): (("FFFP", 1), ("FFFP", 1)),
    ("attack5-remote-churn", "none"): (("PPP", 1), ("PPP", 1)),
    ("attack5-remote-churn", "strip-tv-switch"): (("PFF", 0), ("PFP", 1)),
    ("attack5-remote-churn", "strip-switch-client"): (("PPP", 1), ("PPP", 1)),
    ("attack5-remote-churn", "disable_control-tv"): (("PFP", 1), ("PFP", 1)),
    ("attack5-remote-churn", "disable_cec-tv"): (("PFP", 1), ("PFP", 1)),
}

# (builtin, the one check it runs instead of its own): each must fail.
NEGATIVE = [
    ("attack1-device-walk", {"type": "zero_alerts"}),
    ("benign-power-cycle", {"type": "device_power_at_end", "device": "tv", "power": "standby"}),
    ("attack4-targeted-standby", {"type": "device_remains_on", "device": "tv", "from_tick": 6}),
    ("attack5-input-churn",
     {"type": "no_control_frames_reach", "device": "tv", "from_origin": "listener"}),
    ("attack1-device-walk", {"type": "scan_only_actor", "actor": "client"}),
    ("attack5-remote-churn", {"type": "relay_latency", "within": 0}),
]


def _run(name: str, **changes) -> scen.RunResult:
    result = scen.run_scenario(
        scen.load_scenario({**scen._BUILTIN_SCENARIOS[name], "name": name, **changes})
    )
    scen.evaluate_checks(result)
    return result


def test_matrix_covers_every_attack_builtin_and_mitigation_set():
    attacks = [n for n in scen.builtin_scenario_names()
               if n.startswith("attack") and "mitigated" not in n]
    assert sorted(MATRIX) == sorted((n, m) for n in attacks for m in MITIGATION_SETS)


@pytest.mark.parametrize("tap", TAPS)
@pytest.mark.parametrize("name, mitigations", sorted(MATRIX))
def test_matrix_cell(name, mitigations, tap):
    result = _run(name, mitigations=MITIGATION_SETS[mitigations], ids={"tap": tap})
    verdicts = "".join("P" if c.ok else "F" for c in result.checks)
    assert (verdicts, len(result.alerts)) == MATRIX[name, mitigations][TAPS.index(tap)]


@pytest.mark.parametrize("name, mitigations", sorted(MATRIX))
def test_untapped_detector_is_the_union_of_the_domain_taps(name, mitigations):
    # A mitigation can blind the root tap (see the strip-tv-switch cells), but
    # never every tap: each alert is raised on some wire.
    result = _run(name, mitigations=MITIGATION_SETS[mitigations])
    events = result.trace.events
    taps = {members[0] for members in result.sim.topology.domains.values()}
    assert len(taps) == (2 if mitigations.startswith("strip") else 1)
    union = Counter()
    for tap in taps:
        union.update(ids.detect(events, None, tap))
    assert Counter(ids.detect(events, None, None)) == union


@pytest.mark.parametrize("name, check", NEGATIVE, ids=lambda v: v if type(v) is str else v["type"])
def test_negative_cell(name, check):
    [outcome] = _run(name, checks=[check]).checks
    assert (outcome.label, outcome.ok) == (check["type"], False), outcome.detail


def test_every_check_type_fails_in_some_cell():
    failing = {check["type"] for _, check in NEGATIVE}
    for (name, mitigations), cells in MATRIX.items():
        checks = scen._BUILTIN_SCENARIOS[name]["checks"]
        for verdicts, _ in cells:
            failing |= {c["type"] for c, v in zip(checks, verdicts, strict=True) if v == "F"}
    assert failing == set(scen._CHECKS)

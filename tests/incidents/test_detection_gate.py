"""End-to-end detection: real chaos runs with the detector attached.

These are the test-suite mirror of the BENCH_incidents.json gate: a
fault-injecting scenario must produce an incident whose top-ranked
suspect is the injected fault within the detection SLO, the no-fault
control must stay silent, and attaching the detector must not perturb
the simulation (byte-identical event hash).
"""

import json
import os
from dataclasses import replace

import pytest

from repro.chaos import ChaosRunConfig, get_scenario, run_scenario

pytestmark = [pytest.mark.incident, pytest.mark.chaos, pytest.mark.slow]

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_incidents.json"
)

#: The baseline's exact run shape: default config, seed 0.
DETECT = ChaosRunConfig(detect=True)


def _baseline(name):
    with open(BASELINE_PATH) as handle:
        return json.load(handle)["scenarios"][name]


def test_ack_loss_detection_matches_baseline():
    result = run_scenario(get_scenario("ack-loss"), DETECT)
    assert result.passed, result.report.render()
    expect = _baseline("ack-loss")
    report = result.incidents
    assert len(report.incidents) == expect["incidents"]
    assert report.alerts_total == expect["alerts"]
    top = report.incidents[0].top_suspect
    assert top.kind == expect["top_suspect"]
    assert report.mttd_ms == expect["mttd_ms"]
    assert result.report.top_suspect == expect["top_suspect"]
    assert result.report.detection_ms == expect["mttd_ms"]
    assert result.event_hash == expect["event_hash"]
    assert any("PASS detection" in c for c in result.report.checks)


def test_control_run_detects_nothing():
    result = run_scenario(get_scenario("control"), DETECT)
    assert result.passed, result.report.render()
    assert result.incidents is not None
    assert result.incidents.incidents == []
    assert "PASS detection: no faults, no incidents" in result.report.checks


def test_detector_attachment_keeps_event_hash_byte_identical():
    """The single `is None` contract: a --detect run must replay the
    exact same simulation as a detector-off run."""
    scenario = get_scenario("ack-loss")
    plain = run_scenario(scenario, replace(DETECT, detect=False))
    detected = run_scenario(scenario, DETECT)
    assert plain.event_hash == detected.event_hash
    assert plain.log_hash == detected.log_hash
    assert plain.ops_ok == detected.ops_ok
    assert plain.incidents is None
    assert detected.incidents is not None


def test_baseline_file_is_well_formed():
    with open(BASELINE_PATH) as handle:
        doc = json.load(handle)
    assert doc["version"] == 1
    assert doc["detection_window_ms"] == 4_000.0
    # Every fault-injecting PASS MATRIX scenario is present and was
    # detected with a fault-kind top suspect; the control stayed silent.
    from repro.chaos import MATRIX

    for name in MATRIX:
        entry = doc["scenarios"][name]
        assert entry["passed"], name
        assert entry["incidents"] >= 1, name
        assert entry["top_suspect"].startswith("fault:"), name
        assert entry["mttd_ms"] <= doc["detection_window_ms"], name
    control = doc["scenarios"]["control"]
    assert control["incidents"] == 0
    assert control["top_suspect"] is None

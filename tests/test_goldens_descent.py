"""Frozen output digests of runs that end or turn while a payload descends.

A released payload flies on after its ejection, and its landing ends
the run.  These runs of `altair_nominal` pin the edges of that descent:
a chute that never opens, so the payload lands in free fall at
75.121 s, before the vehicle; a chute that opens on the ejection tick,
so its event shares the ejection's time stamp; an ejection at 12.124 s
on the ascent, before `apogee_truth` at 17.646 s; a clock that ends on
the tick the chute opens, and one that ends while it hangs under it;
a battery failure under the chute at 1 ms and at 10 ms; and a smaller
chute that lands the payload on the tick after the vehicle's landing
tick, so both events carry the stamp 85.647 s and the vehicle's comes
first, as it was flown first.  Each case pins the telemetry, the
command log, the event list (and with it the order of events that
share a time stamp), and the verdict with the charge drawn.  A sweep
stops each run on its ejection tick; its verdicts are pinned too.

The digests were computed from the tree that stepped the payload and
the vehicle one tick per call, side by side, and ended the run after
the tick on which the payload landed.
"""

import hashlib

import pytest

from deploysim import (bundled_scenario, render_commands_csv,
                       render_telemetry_csv, run_mission, scenario_with,
                       sweep)

NOMINAL = bundled_scenario("altair_nominal")

CASES = {
    "free_fall_landing": (
        {"payload.parachute_open_altitude_loss": 1000.0},
        "e2d0256587a505f8fa741ff9bb0a51481d8a8ffdc04625eb0db6a2dfb6bb0846",
        "2bd6f3ffcd4dd82bd1e95a8d99fa27c049dbf7e20b124ec135491311cdced4bc",
        "6e544dae0c144d1883189f8032a81312152257a613affcaa2d91d9d7ca64aeac",
        "6689451c1384b241349c15ec13df8af572110eb2a2523bf13eef015fd34a8694"),
    "chute_on_the_ejection_tick": (
        {"payload.parachute_open_altitude_loss": 0.0},
        "1b975a9ddbf3be36c975370888d45a1619b25618d87470236e8243cf895ae733",
        "2bd6f3ffcd4dd82bd1e95a8d99fa27c049dbf7e20b124ec135491311cdced4bc",
        "7884adbee67cf2555f7d24b8e8d0e4ed02ed0967994dc6ae2085e40bfcbb4a43",
        "6689451c1384b241349c15ec13df8af572110eb2a2523bf13eef015fd34a8694"),
    "ejected_before_apogee": (
        {"trigger.arm_after_apogee": False, "trigger.deploy_ceiling": 1200.0,
         "trigger.deploy_floor": 900.0},
        "1a3c7e578af04411f0b490e73ef1291416f84374cd561705976274b292b695b5",
        "12b1c40534e23185e911b8a550969f92fec8751e88a6f454fa0a20a7668b9195",
        "5e1d10db84e2114320039c981f83de8a5308e18b0c84ac5a8e11596c3bd6fa67",
        "0363c682c107a75be6390ea4c3dfaede52485fc10a07f9bdaa1aa661393c4105"),
    "clock_ends_on_the_chute_tick": (
        {"sim.max_sim_time": 70.504},
        "dadc83b2c1704f55ca15ecfcf6a9c0ce25fc9c3119c690dbd0b0fdd389548e99",
        "2bd6f3ffcd4dd82bd1e95a8d99fa27c049dbf7e20b124ec135491311cdced4bc",
        "2afabc4170544b07be355cd2880575760e513ad38251dbe797879ccb7e9c8c76",
        "6689451c1384b241349c15ec13df8af572110eb2a2523bf13eef015fd34a8694"),
    "clock_ends_under_the_chute": (
        {"sim.max_sim_time": 80.0},
        "5aea22e7328b5409f35483321206ad43908f492e6fd48bfb51ae3761e05eb66c",
        "2bd6f3ffcd4dd82bd1e95a8d99fa27c049dbf7e20b124ec135491311cdced4bc",
        "2afabc4170544b07be355cd2880575760e513ad38251dbe797879ccb7e9c8c76",
        "6689451c1384b241349c15ec13df8af572110eb2a2523bf13eef015fd34a8694"),
    "fail_under_the_chute": (
        {"faults.battery_fail_time": 90.0},
        "4e43f5077bbc4f01f48e7d8ea2ef81848a6358ba53bb934c7390036292df6aec",
        "2bd6f3ffcd4dd82bd1e95a8d99fa27c049dbf7e20b124ec135491311cdced4bc",
        "5236b5c6a8c99098945bd7f72561a415bb3b2863721bbe20b8a363c4f71680fc",
        "6689451c1384b241349c15ec13df8af572110eb2a2523bf13eef015fd34a8694"),
    "fail_under_the_chute_10_ms": (
        {"sim.dt": 0.01, "faults.battery_fail_time": 90.0},
        "25403f6f09655e498bc33f9ade737c84defba11d9896910649a3ab5bd46bc7d0",
        "8447529422b913a66bd9d130aaa0db9a5bf9a7d620e586e5bab146aabb57b8ca",
        "a2f8a2db8c6555f0dcd1d2e40ce19bf89ee1a7cce6da8c49bfd77be1025cfe30",
        "704ed11263270f6992e52a1ff03aa8811166735de5c6fc202769d29998f85db1"),
    "landing_on_the_vehicle_landing_stamp": (
        {"payload.parachute_drag_area": 0.05431},
        "63441fb8001210b05b0d64f04025acec5a75f8dd22a53f7f73123cc00f50bf16",
        "2bd6f3ffcd4dd82bd1e95a8d99fa27c049dbf7e20b124ec135491311cdced4bc",
        "9663f94a47d926365aa79d95eb3698b05f2aa81c0874ab0416fb0cb22aae548c",
        "6689451c1384b241349c15ec13df8af572110eb2a2523bf13eef015fd34a8694"),
}

# Each case swept over its last override, one value: the run stops on
# the ejection tick.
_DEPLOYED = ("MissionVerdict(outcome=<Outcome.DEPLOYED_IN_WINDOW: "
             "'DeployedInWindow'>, safe_hold_reason=None, ")
_NOMINAL_EJECTION = (_DEPLOYED + "deploy_altitude_truth=325.6855747256391, "
                     "deploy_time=68.744, energy_used=8.210300000387194, "
                     "peak_current=0.9)")
SWEEP_VERDICTS = {
    "free_fall_landing": f"[(1000.0, {_NOMINAL_EJECTION})]",
    "chute_on_the_ejection_tick": f"[(0.0, {_NOMINAL_EJECTION})]",
    "ejected_before_apogee": (
        f"[(900.0, {_DEPLOYED}deploy_altitude_truth=1181.2181481874081, "
        "deploy_time=12.124, energy_used=8.210300000387194, "
        "peak_current=0.9))]"),
    "clock_ends_on_the_chute_tick": f"[(70.504, {_NOMINAL_EJECTION})]",
    "clock_ends_under_the_chute": f"[(80.0, {_NOMINAL_EJECTION})]",
    "fail_under_the_chute": f"[(90.0, {_NOMINAL_EJECTION})]",
    "fail_under_the_chute_10_ms": (
        f"[(90.0, {_DEPLOYED}deploy_altitude_truth=325.62818355278245, "
        "deploy_time=69.23, energy_used=8.243600000050721, "
        "peak_current=0.9))]"),
    "landing_on_the_vehicle_landing_stamp":
        f"[(0.05431, {_NOMINAL_EJECTION})]",
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_around_the_descent_matches_frozen_digest(case):
    overrides, telemetry, commands, events, verdict = CASES[case]
    result = run_mission(scenario_with(NOMINAL, overrides))
    assert sha256(render_telemetry_csv(result.telemetry)) == telemetry
    assert sha256(render_commands_csv(result.commands)) == commands
    assert sha256(repr(result.events)) == events
    assert sha256(repr((result.verdict, result.charge_drawn))) == verdict


def test_free_fall_landing_logs_no_chute_event():
    result = run_mission(scenario_with(NOMINAL,
                                       CASES["free_fall_landing"][0]))
    names = [event.name for event in result.events]
    assert "payload_chute_open" not in names
    assert names[-1] == "payload_landed" and "vehicle_landed" not in names
    assert result.events[-1].time == 75.121


def test_payload_event_follows_the_vehicle_event_of_its_stamp():
    result = run_mission(scenario_with(
        NOMINAL, CASES["landing_on_the_vehicle_landing_stamp"][0]))
    assert [(event.time, event.name) for event in result.events[-2:]] == [
        (85.647, "vehicle_landed"), (85.647, "payload_landed")]


@pytest.mark.parametrize("case", sorted(SWEEP_VERDICTS))
def test_sweep_verdict_around_the_descent_matches_frozen_repr(case):
    overrides = dict(CASES[case][0])
    key, value = overrides.popitem()
    rows = sweep(scenario_with(NOMINAL, overrides), key, [value])
    assert repr(rows) == SWEEP_VERDICTS[case]

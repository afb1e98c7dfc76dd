"""Frozen output digests at the edges of the physics-only stretch.

At dt = 1 ms a task is due on one tick in ten, and a tick on which no
task is due and nothing actuates runs only the physics.  These runs of
`altair_nominal` sit on the edges of that stretch: a battery failure
that falls on a task-free tick, with and without a jammed door; an
always-on load that keeps every tick busy; and the half- and
double-millisecond clocks, whose stretches are 19 and 4 ticks long.
`altair_battery_fail` with an always-on load rests once the pack is
dead: the load draws until the failure and nothing after it.
Each case pins the telemetry, the command log, the event list, and
the verdict with the charge drawn: an always-on load drained only on
busy ticks would show in the last alone.

A battery failure at 20.004 s falls inside a stretch: the pack is read
again only on the busy tick at 20.010 s.  The two sweep verdicts pin
where a sweep's run stops: on the busy tick that ejects, and on the one
that enters SafeHold.

The digests of the `altair_nominal` cases were computed from the tree
before the stretch existed, when every tick ran the whole loop; those
of the dead-pack case from the tree whose stretch still needed a zero
quiescent current, which kept every tick of that run busy; those of
the failure inside a stretch and the sweep verdicts from the tree that
still tested the failure, the sweep's stop and the landings on every
tick.
"""

import hashlib

import pytest

from deploysim import (bundled_scenario, render_commands_csv,
                       render_telemetry_csv, run_mission, scenario_with,
                       sweep)
from deploysim.controller import TaskSchedule

CASES = {
    "fail_on_task_free_tick": (
        {"faults.battery_fail_time": 30.0005},
        "8c246c7058b703d3eb55f2b7b2dc94fada506414d450b759b3a4d9b4f3310298",
        "68f15568a359e3cb0dff50a5a1f8cd06370ebcfec301a1d59b6bc7f4b7d3e7e3",
        "e3c4aa0beab2e9c3c66d1374ecf7cc36ea01c6edcccb46af3cb20009e462bed5",
        "4fe90ac8c68f9e6ed37a6e343dc6e3c919e52368c2a87149340c710fa4d2d5c3"),
    "quiescent_load": (
        {"battery.quiescent_current": 0.05},
        "49fd628477aea899ae85bf322be6a301ec0e3a2f7d2600ee6ba2ee75958a52d5",
        "2bd6f3ffcd4dd82bd1e95a8d99fa27c049dbf7e20b124ec135491311cdced4bc",
        "5236b5c6a8c99098945bd7f72561a415bb3b2863721bbe20b8a363c4f71680fc",
        "26d86290b5276aedb505684799f6710df275bf58614f7a9d5bbae02cf27b6c1e"),
    "door_jam_fail_on_task_free_tick": (
        {"faults.door_jam": True, "faults.battery_fail_time": 40.0031},
        "bcaf9074a7859751d905c1a6a577675ed59dcca826d0053fedce27c8a37fcbad",
        "68f15568a359e3cb0dff50a5a1f8cd06370ebcfec301a1d59b6bc7f4b7d3e7e3",
        "4bb6acb402a594bc7edeaabc44d361124ba78aba4b84f968e157bdcb6b545507",
        "4fe90ac8c68f9e6ed37a6e343dc6e3c919e52368c2a87149340c710fa4d2d5c3"),
    "dt_0.5_ms": (
        {"sim.dt": 0.0005},
        "f80a06bcec4fa9a9d5ab0c17708740ec7ddc5be3553303bea091160930344181",
        "a692f5e484e3d7a693d70048cea2c634e2906c98f392662900cebebf7777b8d6",
        "699c320fb23ecacee494d91e76d99559cd6fbb8648dbcb2eabe9ad46cab6df12",
        "3b3f78dfbbc36d5d3691255cf7371b0c2495257ba7bbb83ade612b8b3c04beb0"),
    "fail_inside_stretch": (
        {"faults.battery_fail_time": 20.004},
        "886cb3dbfb1aff350ab3713618076c6c1ebbc272cf5da3f1237a33fdcfa9a69a",
        "68f15568a359e3cb0dff50a5a1f8cd06370ebcfec301a1d59b6bc7f4b7d3e7e3",
        "699bca479a907c2396dc736f6ff030cbfc9b9f6a3aa9b787767229b92321bc77",
        "4fe90ac8c68f9e6ed37a6e343dc6e3c919e52368c2a87149340c710fa4d2d5c3"),
    "dt_2_ms": (
        {"sim.dt": 0.002},
        "aae5ef315498d3657d68ac0626aa04b64c11ac54de1b2fe943006def0dd90e00",
        "4b8fb6b9b1eb3cd83f1e158101d7b201fffa15c383e498e4070d7af0e4a63090",
        "d587b0888c745fbd4cf7e9f33aa766211d75d70485ba1848b31148dfd7d5a95a",
        "e86f111ec392dffa00f11d44a9123156365f7afbcbe9b838c4dfa1b11904b171"),
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_at_stretch_edges_matches_frozen_digest(case):
    overrides, telemetry, commands, events, verdict = CASES[case]
    result = run_mission(scenario_with(bundled_scenario("altair_nominal"),
                                       overrides))
    assert sha256(render_telemetry_csv(result.telemetry)) == telemetry
    assert sha256(render_commands_csv(result.commands)) == commands
    assert sha256(repr(result.events)) == events
    assert sha256(repr((result.verdict, result.charge_drawn))) == verdict


DEAD_PACK_LOAD = (
    {"battery.quiescent_current": 0.05},
    "38b73d2222ce7f9d2977391856be596ace76b207fe77cdfa7745d414d63d4e90",
    "68f15568a359e3cb0dff50a5a1f8cd06370ebcfec301a1d59b6bc7f4b7d3e7e3",
    "677f69cd908058a6cae58ed19585e49cc5b87ee481194cf867ef44a898897f2e",
    "045b357503c752f03a96d71e8221b81bb455d682878961a1c30eb3b181506603")


def test_dead_pack_with_a_load_rests_and_matches_frozen_digest(monkeypatch):
    busy = 0
    due_at_tick = TaskSchedule.due_at_tick

    def counted(self, tick):
        nonlocal busy
        busy += 1
        return due_at_tick(self, tick)

    monkeypatch.setattr(TaskSchedule, "due_at_tick", counted)
    overrides, telemetry, commands, events, verdict = DEAD_PACK_LOAD
    result = run_mission(scenario_with(
        bundled_scenario("altair_battery_fail"), overrides))
    assert sha256(render_telemetry_csv(result.telemetry)) == telemetry
    assert sha256(render_commands_csv(result.commands)) == commands
    assert sha256(repr(result.events)) == events
    assert sha256(repr((result.verdict, result.charge_drawn))) == verdict
    # The load keeps the 30,000 ticks before the failure at 30 s busy;
    # after it one tick in ten is, not all 85,337 ticks of the run.
    assert 30_000 < busy < 40_000


SWEEP_VERDICTS = [
    "(2.0, MissionVerdict(outcome=<Outcome.DEPLOYED_IN_WINDOW: "
    "'DeployedInWindow'>, safe_hold_reason=None, "
    "deploy_altitude_truth=323.5126259078652, deploy_time=64.004, "
    "energy_used=8.210300000387194, peak_current=0.9))",
    "(15.0, MissionVerdict(outcome=<Outcome.SAFE_HOLD: 'SafeHold'>, "
    "safe_hold_reason='push-timeout', deploy_altitude_truth=None, "
    "deploy_time=None, energy_used=86.65400001765813, peak_current=2.0))",
]


def test_sweep_stops_on_the_verdict_tick_and_matches_frozen_verdicts():
    # The rack still draws after the ejection, so the energy of the first
    # run pins the tick it stops on.
    rows = sweep(bundled_scenario("altair_nominal"), "payload.mass",
                 [2.0, 15.0])
    assert [repr(row) for row in rows] == SWEEP_VERDICTS

"""Frozen output digests at the edges of a stretch of rest ticks.

At dt = 1 ms a task is due on one tick in ten, and a tick on which no
task is due rests: it runs the physics and, while anything moves or
the pack delivers, the mechanism and the pack; while deploy logic
cannot act before its deadline, a reading that wakes it or a mechanism
event, the logic ticks rest too, up to the first of those and, while
the mechanism moves, the next telemetry tick; a stretch in which
nothing moves writes the rows between.
These runs of `altair_nominal` sit on the edges of those stretches: a
battery failure that falls on a task-free tick, with and without a
jammed door; an always-on load drained on every tick; and the half-
and double-millisecond clocks, whose stretches are 19 and 4 ticks long.
`altair_battery_fail` with an always-on load rests once the pack is
dead: the load draws until the failure and nothing after it.  Each
case pins the telemetry, the command log, the event list, and the
verdict with the charge drawn: an always-on load drained only on busy
ticks would show in the last alone.

A 15 kg payload stalls the rack, which draws stall current through
rest ticks until the push watchdog trips.  Armed on the pad, with a
10 m to 2 km window, the rod, the door and the push run during the
boost and coast, and the ejection falls on the way up.

A battery failure at 20.004 s falls inside a stretch: the stretch ends
before it, and the logic tick at 20.010 s enters SafeHold.  The two
sweep verdicts pin where a sweep's run stops: on the busy tick that
ejects, and on the one that enters SafeHold.

The 10 ms cases and the drained packs pin the logic ticks a waiting
controller may rest through.  Armed at once on the pad, it must still
unlock on the logic tick right after arming, at 0.01 s.  A battery
failure before apogee at 5.005 s (a logic-only tick) or 5.015 s, and a
pack that an always-on load drains at 20.000 s or just after it, must
enter SafeHold on the first logic tick that can see the dead pack.  A
40 Hz or 30 Hz barometer emits readings on rest ticks, and the next
sense tick must still take the newest of them.

Once the controller has settled (SafeHold or Ejected) past a sensed
apogee, a run rests through the sense ticks, and each telemetry row
prints the altitude the barometer latched on the sense tick before
it.  An 80 Hz barometer with a 35 ms delay emits between the sense
ticks of that settled stretch, so each row must still print the
reading of the sense tick before it, not a newer one.

Where each digest was computed: those of the 10 ms cases, the drained
packs and the slower barometers from the tree that ran every logic tick
and flew each rest tick with its own vehicle step; those of the 80 Hz
barometer from the tree whose settled runs still ran every sense tick;
those of the failure inside a stretch and the sweep verdicts from the
tree that still tested the failure, the sweep's stop and the landings
on every tick; those of the dead-pack case from the tree whose stretch
still needed a zero quiescent current, which kept every tick of that
run busy; those of the stalled push and the early arming from the tree
whose rests still needed the rod, the door and the carrier idle and no
charge delivered; those of the other `altair_nominal` cases from the
tree before the stretch existed, when every tick ran the whole loop.
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
    "arm_at_once_10_ms": (
        {"trigger.arm_after_apogee": False, "trigger.deploy_floor": 0.0,
         "barometer.noise_sigma": 0.0, "sim.dt": 0.01},
        "cca3d4991396dde75d7b9769a2262cf6258b4f1864d16ca6ee51655525d32d0c",
        "856782aa512be92fc496a564063ec47919e4c72f0b336ed154a35b2ce1555116",
        "3494e1283b006328206cef5359f764119b2cec407b32249a19a70016e301f3a7",
        "03ed5c906a0adc9a43e4a4d5c9c171e32bcbb7a1229cbc2ee200341d948385f4"),
    "fail_before_apogee_10_ms": (
        {"faults.battery_fail_time": 5.015, "sim.dt": 0.01},
        "ce3acbf084e94c5c32cc3da47dcca74325efb26c724c265cd8907f2cf3d7ced1",
        "68f15568a359e3cb0dff50a5a1f8cd06370ebcfec301a1d59b6bc7f4b7d3e7e3",
        "9f0d9f71ed2ab21c7ffb955f5f5d98d72f999a53c9b46ee2d6465fb5f4dea567",
        "4fe90ac8c68f9e6ed37a6e343dc6e3c919e52368c2a87149340c710fa4d2d5c3"),
    "fail_on_a_logic_only_tick_10_ms": (
        {"faults.battery_fail_time": 5.005, "sim.dt": 0.01},
        "ce3acbf084e94c5c32cc3da47dcca74325efb26c724c265cd8907f2cf3d7ced1",
        "68f15568a359e3cb0dff50a5a1f8cd06370ebcfec301a1d59b6bc7f4b7d3e7e3",
        "5d66c79156f4a5d3c7c0b60204893d490da8223e06d23492b3765ca821198ee3",
        "4fe90ac8c68f9e6ed37a6e343dc6e3c919e52368c2a87149340c710fa4d2d5c3"),
    "drain_while_awaiting_window": (
        {"battery.quiescent_current": 0.5, "battery.capacity": 10.0},
        "4bd9eaf43dc6b5323e920c5d407ba946092c625890e272c18f4614b74a3d0108",
        "68f15568a359e3cb0dff50a5a1f8cd06370ebcfec301a1d59b6bc7f4b7d3e7e3",
        "bc9a1afb6b186f45e5fb7540eed9825af6fe82ed3cbc00d8f12fb832c0680021",
        "f212bde31e9cf6e1395e912e65256a5771dd0eed9d6243ea6e31bcd0cb65a218"),
    "drain_while_awaiting_window_10_ms": (
        {"battery.quiescent_current": 0.5, "battery.capacity": 10.0,
         "sim.dt": 0.01},
        "068d4c89c16532287f83ab865675b66f35a1f2605e5f70a78d14935a2a7e9e87",
        "68f15568a359e3cb0dff50a5a1f8cd06370ebcfec301a1d59b6bc7f4b7d3e7e3",
        "471053512091d1d8e01a880270e991abc19f180c816e7b64c29fe76d3a1e7120",
        "0b203a106d1879302cfd29bcc83dbf1bf09919c81861ec7849e7b4416e570666"),
    "drain_to_a_logic_only_tick": (
        {"battery.quiescent_current": 0.5, "battery.capacity": 10.003},
        "578a97a9ba9ed9248dde5fa8a88465a4b724b012e9f868064db045a116e22c0c",
        "68f15568a359e3cb0dff50a5a1f8cd06370ebcfec301a1d59b6bc7f4b7d3e7e3",
        "699bca479a907c2396dc736f6ff030cbfc9b9f6a3aa9b787767229b92321bc77",
        "12b52f420791e324cdf4bc3fd15daa773aa74070ae29eee384a9d43770ab454b"),
    "drain_to_a_logic_only_tick_10_ms": (
        {"battery.quiescent_current": 0.5, "battery.capacity": 10.003,
         "sim.dt": 0.01},
        "a7835fafea4f8ff262318c2214b2ca10a0b73b94107b7cca2487174724265a7e",
        "68f15568a359e3cb0dff50a5a1f8cd06370ebcfec301a1d59b6bc7f4b7d3e7e3",
        "33c4f4f9aeae2c56edf1a3e957af420e788bb9568f731c89d0bfdfad72ab2a9b",
        "c7eb04288ea804cdf51bc1e891ddad3f969ba8abf2361bde8b62da8c7b578f0d"),
    "barometer_off_the_sense_ticks": (
        {"barometer.sample_rate": 40.0},
        "67666f5e367127fbb435681d6b6db02931d7002cdc2a421072c60471f0044cad",
        "529d07841b68bbcd8fd473afc6aaeb98180dc284000a57c4d9f869a10c4e9909",
        "1dd00de1c5bf6311901ab44eca6b8c9edc238c7e2c49d9bc52921d1f1560e00e",
        "6689451c1384b241349c15ec13df8af572110eb2a2523bf13eef015fd34a8694"),
    "barometer_off_the_sense_ticks_10_ms": (
        {"barometer.sample_rate": 30.0, "sim.dt": 0.01},
        "48773c4fb35c9cf4361f57c951076ff092f50d90b2aa9ac3f368975eb2da7dbd",
        "a96e149df86c8cfa09de7f81d9e94dbd096975e5b8c4ad31f6f8fa0e95a798aa",
        "e8907403973e34e3cf251ce26afa66b27e1eff3f433677499ce41f9cb28e510f",
        "b4a862468cd2f2059fda35ba293513864d41e20f41a756382b81198ccfec5a36"),
    "stalled_push": (
        {"payload.mass": 15.0, "battery.capacity": 30.0},
        "1dedf7be8b25727845baa3fd6da144a00324dd161517fe524b8979dad440eeed",
        "84b84d51468a49f5451ee4746d806173077d576458f9ef48929e7b9f87f0f9da",
        "5a2630b59979db27a679610de3afdaf0f503f14b5d23f12697de9e9479b84ee4",
        "a2d44ad1d1aa621ed7046933e784a16746b9ea20174b8145436a949fa3a444a5"),
    "armed_before_apogee": (
        {"trigger.arm_after_apogee": False, "trigger.deploy_floor": 10.0,
         "trigger.deploy_ceiling": 2000.0},
        "e2bb38c3b16a0670a3115204ca003b85e62df1c3c536db9270a96162eef710bc",
        "3c4b1514fea0936fd15b196bf659fbbc4cfc4670cd21a104133a495799e064da",
        "403e66b950b9db85ffca93fde37f04c5a75f6afaed801a0bb091ce194104331e",
        "186d60e2bf1489661a34bd9752090c2ccf9d7a8423a2b521ad1442b97da70be2"),
    "barometer_80_hz_settled": (
        {"barometer.sample_rate": 80.0, "barometer.latency": 0.035},
        "5ca270f4142740b7a33160e40e52ec7e8d72c0e020fd7212726a1b1f9020fc91",
        "9c90fc39bdc7d3ba66b3905363a176eebb645a7fcc37b38e6b22b1e726764a0d",
        "99d5f07fd3239a51731a152637b2368c35d42fded7d92f2e01bbadfb92adddc8",
        "f32280560c0c4d785a74eacff644d3a06b4827d7e9527da6c41a386cd67f89aa"),
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
    # The load keeps the 600 telemetry ticks before the failure at 30 s
    # busy, since their rows print the current it draws (the pack it
    # drains cannot die before then).  The logic tick after arming,
    # three flight phase changes and the wake that confirms apogee begin
    # a pass each, and from the failure one stretch flies to the landing
    # and writes the 1,107 rows on the way: 606 passes, not all 85,337
    # ticks of the run.
    assert 600 < busy < 610


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

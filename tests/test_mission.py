"""End-to-end mission loop tests on the bundled profiles.

Timing anchors for the default scenario (seed 42, dt 1 ms) were taken
from instrumented runs and then cross-checked by hand against the
component models: the unlock fires on the first deploy-logic tick with
the sensed altitude inside the window, the rod takes 0.5 s, the door
0.283 s, the settle delay 2.0 s and the push 0.955 s.
"""

import bisect
import collections
import functools
import importlib.util
import itertools
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from deploysim import (
    CONFIG_ERROR_EXIT,
    EXIT_CODES,
    Outcome,
    build_scenario,
    bundled_scenario,
    list_bundled,
    render_commands_csv,
    render_telemetry_csv,
    run_mission,
    scenario_with,
    sweep,
    verdict_lines,
)
from deploysim import atmosphere, mission
from deploysim.atmosphere import Barometer
from deploysim.controller import (DeployPhase, DeploymentController,
                                  TaskSchedule, task_period_ticks)
from deploysim.errors import DomainError, ScenarioError
from oracles import (DIFFERENTIAL_MISSIONS, NOMINAL_OVERRIDES, NoRestSchedule,
                     deck_run_name, fuzz_profile, mission_outputs,
                     reference_run, rest_scenario)

NOMINAL = bundled_scenario("altair_nominal")


@pytest.fixture(scope="module")
def nominal_result():
    return run_mission(NOMINAL)


def event_map(result):
    """First occurrence of each event name."""
    out = {}
    for e in result.events:
        out.setdefault(e.name, e)
    return out


def test_nominal_outcome(nominal_result):
    v = nominal_result.verdict
    assert v.outcome is Outcome.DEPLOYED_IN_WINDOW
    assert v.safe_hold_reason is None
    assert EXIT_CODES[v.outcome] == 0
    assert v.deploy_time == pytest.approx(68.744, abs=1e-9)
    assert v.deploy_altitude_truth == pytest.approx(325.69, abs=0.01)
    assert v.peak_current == pytest.approx(0.9)


def test_nominal_event_sequence(nominal_result):
    ev = event_map(nominal_result)
    names = ["apogee_truth", "apogee_sensed", "door_unlocked", "door_open",
             "ejected", "payload_chute_open", "vehicle_landed",
             "payload_landed"]
    assert all(n in ev for n in names), sorted(ev)
    times = [ev[n].time for n in names]
    assert times == sorted(times), "events out of order"

    assert ev["apogee_truth"].time == pytest.approx(17.649, abs=0.001)
    assert ev["apogee_truth"].value == pytest.approx(1331.84, abs=0.01)
    # Sensed apogee trails truth: a 5 m drop plus latency must elapse.
    assert 0.1 < ev["apogee_sensed"].time - ev["apogee_truth"].time < 3.0
    assert ev["door_unlocked"].time == pytest.approx(65.499, abs=1e-6)
    assert ev["door_open"].time == pytest.approx(65.782, abs=1e-6)
    assert ev["ejected"].time == pytest.approx(68.744, abs=1e-6)


def test_each_event_is_logged_once(nominal_result):
    # Events are logged on transitions; SafeHold lasts many logic ticks.
    jammed = run_mission(bundled_scenario("altair_door_jam"))
    for result in (nominal_result, jammed):
        names = [event.name for event in result.events]
        assert len(names) == len(set(names)), names
    assert "safe_hold" in {event.name for event in jammed.events}


def test_event_times_lie_on_the_tick_grid(nominal_result):
    # Time is derived from the tick count, never accumulated: every
    # event, the vehicle's included, is stamped k * dt for an integer k.
    coarse = scenario_with(NOMINAL, {"sim.dt": 0.01})
    for scenario, result in ((NOMINAL, nominal_result),
                             (coarse, run_mission(coarse))):
        dt = scenario.dt
        assert {e.name for e in result.events} >= {"apogee_truth",
                                                   "vehicle_landed"}
        for event in result.events:
            assert event.time == round(event.time / dt) * dt, event


def test_nominal_command_log(nominal_result):
    cmds = nominal_result.commands
    assert [(c.name, c.time) for c in cmds] == [("unlock", 65.0),
                                                ("push", 67.79)]
    unlock, push = cmds
    # The unlock's sensed trigger altitude sits inside the window; the
    # truth altitude at that instant is just under the 400 m ceiling.
    assert 150.0 <= unlock.value <= 400.0
    assert unlock.truth_altitude == pytest.approx(399.89, abs=0.01)
    assert push.value == 1.0


def test_rod_door_dwell_and_push_timing(nominal_result):
    ev = event_map(nominal_result)
    cmds = {c.name: c for c in nominal_result.commands}
    assert ev["door_unlocked"].time - cmds["unlock"].time == pytest.approx(
        0.5, abs=0.002)
    assert ev["door_open"].time - ev["door_unlocked"].time == pytest.approx(
        0.283, abs=0.002)
    dwell = cmds["push"].time - ev["door_open"].time
    assert 2.0 - 1e-9 <= dwell <= 2.010 + 1e-9
    # Single push does it: traverse time is the 60 mm stroke at rack speed.
    assert ev["ejected"].time - cmds["push"].time == pytest.approx(
        0.955, abs=0.011)
    assert ev["ejected"].time - cmds["unlock"].time <= 5.0


def test_nominal_telemetry_shape(nominal_result):
    rows = nominal_result.telemetry
    assert len(rows) == 2313
    assert rows[0].time_s == 0.0
    deltas = {round(b.time_s - a.time_s, 9)
              for a, b in zip(rows, rows[1:])}
    assert deltas == {0.05}, "telemetry must tick at exactly 20 Hz"
    # Rows capture end-of-tick state; deploy logic arms on tick zero.
    assert rows[0].deploy_phase == "AwaitWindow"
    assert rows[-1].deploy_phase == "Ejected"
    assert all(r.fault_flags == "-" for r in rows)


def test_a_record_built_from_its_fields_is_the_namedtuple(nominal_result):
    # `_make_record` skips `TelemetryRecord._make`'s length check.
    for row in nominal_result.telemetry[::500]:
        fields = tuple(row)
        record = mission._make_record(fields)
        assert type(record) is mission.TelemetryRecord
        assert record == mission.TelemetryRecord(*fields)


def test_nominal_battery_audit(nominal_result):
    res = nominal_result
    assert res.battery_final.charge == pytest.approx(
        7920.0 - res.charge_drawn, abs=1e-9)
    assert res.verdict.energy_used == pytest.approx(7.4 * res.charge_drawn,
                                                    rel=1e-12)
    assert not res.battery_final.failed


def test_payload_lands_after_deploy(nominal_result):
    ev = event_map(nominal_result)
    assert ev["payload_landed"].time > ev["vehicle_landed"].time
    assert nominal_result.telemetry[-1].time_s >= ev["payload_landed"].time - 0.05


def record_payloads(monkeypatch):
    """The payload record of every `step_payload` call."""
    bodies = []

    def step_payload(body, *args, _original=mission.step_payload):
        bodies.append(body)
        return _original(body, *args)

    monkeypatch.setattr(mission, "step_payload", step_payload)
    return bodies


def test_payload_events_are_stamped_from_its_record(monkeypatch):
    bodies = record_payloads(monkeypatch)
    result = run_mission(NOMINAL)
    [body] = bodies
    ev = event_map(result)
    assert ev["payload_chute_open"] == (body.chute_time, "payload_chute_open",
                                        body.chute_altitude)
    assert ev["payload_landed"] == (body.landing_time, "payload_landed", 0.0)
    assert round(body.chute_time / NOMINAL.dt) == 70_503
    assert round(body.landing_time / NOMINAL.dt) == 115_624


def test_a_run_stopped_at_its_ejection_records_no_landing(monkeypatch):
    bodies = record_payloads(monkeypatch)
    result = run_mission(NOMINAL, stop_at_verdict=True)
    [body] = bodies
    assert body.release_time == result.verdict.deploy_time is not None
    assert (body.chute_time, body.landing_time) == (None, None)
    assert "payload_landed" not in event_map(result)


def test_sixty_second_cap_times_out_with_1200_rows():
    sc = scenario_with(NOMINAL, {"sim.max_sim_time": 60.0})
    res = run_mission(sc)
    assert res.verdict.outcome is Outcome.TIMEOUT
    assert EXIT_CODES[res.verdict.outcome] == 4
    assert len(res.telemetry) == 1200


def test_total_timeout_before_apogee():
    sc = scenario_with(NOMINAL, {"sim.max_sim_time": 10.0})
    res = run_mission(sc)
    assert res.verdict.outcome is Outcome.TIMEOUT
    assert res.commands == []


def test_landed_undeployed_when_never_armed():
    # An absurd apogee confirmation threshold keeps the trigger unarmed,
    # so the vehicle rides its drogue to the ground with the payload.
    sc = scenario_with(NOMINAL, {"trigger.apogee_confirm_drop": 100000.0})
    res = run_mission(sc)
    assert res.verdict.outcome is Outcome.LANDED_UNDEPLOYED
    assert EXIT_CODES[res.verdict.outcome] == 3
    assert res.commands == []
    assert res.verdict.deploy_altitude_truth is None


def test_ejection_below_a_truth_floor_is_out_of_window():
    # The nominal flight ejects at 325.686 m truth.  The floor has no
    # allowance and sensed altitude lags truth on descent, so a sensed
    # floor just above that lets the protocol eject below it in truth.
    sc = scenario_with(NOMINAL, {"trigger.deploy_floor": 326.0})
    res = run_mission(sc)
    assert res.verdict.outcome is Outcome.DEPLOYED_OUT_OF_WINDOW
    assert res.verdict.safe_hold_reason is None
    assert res.verdict.deploy_altitude_truth == pytest.approx(325.686,
                                                              abs=1e-3)
    assert EXIT_CODES[res.verdict.outcome] == 3
    assert "exit_code=3" in verdict_lines(res.verdict)


def test_same_scenario_same_bytes():
    a = run_mission(NOMINAL)
    b = run_mission(NOMINAL)
    assert render_telemetry_csv(a.telemetry) == render_telemetry_csv(b.telemetry)
    assert render_commands_csv(a.commands) == render_commands_csv(b.commands)
    assert a.verdict == b.verdict


@pytest.mark.parametrize("deck", ["altair_nominal", "altair_battery_fail"])
def test_a_scenario_flies_twice_unchanged(deck):
    """The steppers advance the loop's records in place; the loop flies
    copies, so the scenario's own records never change."""
    scenario = bundled_scenario(deck)
    payload, battery = replace(scenario.payload), replace(scenario.battery)
    a = run_mission(scenario)
    b = run_mission(scenario)
    assert render_telemetry_csv(a.telemetry) == render_telemetry_csv(b.telemetry)
    assert render_commands_csv(a.commands) == render_commands_csv(b.commands)
    assert scenario.payload == payload
    assert scenario.battery == battery
    assert a.battery_final is not scenario.battery
    assert a.battery_final != battery


def ticks_flown(result, scenario):
    """Ticks of a run that ended on a landing, read from its events."""
    dt = scenario.dt
    events = event_map(result)
    if "ejected" in events:
        # The loop ends after the tick on which the payload lands.
        ticks = round(events["payload_landed"].time / dt) + 1
    else:
        # ... or after the vehicle step that lands the vehicle, whose
        # event is stamped at the end of its tick.
        ticks = round(events["vehicle_landed"].time / dt)
    assert ticks < round(scenario.max_sim_time / dt)
    return ticks


STEPPER_RUNS = (
    [(deck, {"sim.dt": 0.001}) for deck in list_bundled()]
    + [("altair_battery_fail", {"battery.quiescent_current": 0.05})])
MECHANISM = ("command_unlock", "step_door", "step_carrier", "drain_battery")
# Where each mechanism stepper takes its tick count, and each flight
# stepper its first tick: `step_vehicle` takes its row writer and row
# period after it.
TICKS_ARG = {"command_unlock": 2, "step_door": 3, "step_carrier": 3,
             "drain_battery": 3}
FIRST_TICK = {"step_vehicle": 6, "step_payload": 4}


def record_steppers(monkeypatch):
    """Wrap each stepper the loop calls through its `deploysim.mission`
    name.  Each call appends (name, tick of the pass, what it did): the
    flights their first tick and ticks flown, the mechanism's steppers
    their tick count, a copy of the record they were given and one of
    the record after the call, and `drain_battery` its current too.
    `due_at_tick` appends the tick of each pass."""
    calls, passes = [], []

    def due_at_tick(self, tick, _original=TaskSchedule.due_at_tick):
        passes.append(tick)
        return _original(self, tick)

    def counted(*args, _name, _original):
        given = replace(args[0]) if _name in MECHANISM else None
        result = _original(*args)
        found = None
        if _name in FIRST_TICK:
            found = (args[FIRST_TICK[_name]], result)   # (first, flown)
        elif _name in MECHANISM:
            at = TICKS_ARG[_name]
            found = (args[at] if len(args) > at else 1, given,
                     replace(args[0]),
                     args[1] if _name == "drain_battery" else None)
        calls.append((_name, passes[-1], found))
        return result

    monkeypatch.setattr(TaskSchedule, "due_at_tick", due_at_tick)
    for name in MECHANISM + ("step_vehicle", "step_payload", "begin_push",
                             "halt_carrier"):
        monkeypatch.setattr(mission, name, functools.partial(
            counted, _name=name, _original=getattr(mission, name)))
    return calls, passes


def check_steppers(deck, overrides):
    """The loop calls each stepper through its `deploysim.mission` name
    once per segment of ticks on which it is due; the benchmark's
    per-layer spans hook those names, so their call counts must stay
    truthful.

    Each pass of the loop asks the schedule once and makes one
    `step_vehicle` call, which flies the pass's tick and the rest ticks
    after it, up to a phase change; together its calls fly every tick
    once, in order.  A released payload's descent is flown at its
    release in one `step_payload` call, which flies every tick from the
    release up to the landing or the end of the clock once, in order.
    The rod, the door, the carrier and the pack step as they do when
    every tick is its own pass (`NoRestSchedule`), where each call steps
    one tick: expanded, the ticks each stepper's calls cover are that
    run's, each once and in order, a call covers consecutive ticks of
    its own pass, the calls come in tick order and, on a tick, in the
    loop's order, and each call is given the record that run's call on
    its first tick is given and leaves the record that run's call on
    its last tick leaves, and drains at that run's current.  There each
    call's tick is known: a stepper runs at most once a tick, the pack
    is drained on exactly the ticks that draw current from a live pack,
    and the carrier steps on each tick from a push command up to the end
    of its retraction, the SafeHold that halts it or the death of the
    pack.  The per-mission facts are decided once: the rack is halted
    once, on entering SafeHold, and a jammed door is never stepped.
    Returns the run's outcome."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return check_steppers_in(monkeypatch, deck, overrides)


def check_steppers_in(monkeypatch, deck, overrides):
    scenario = scenario_with(bundled_scenario(deck), overrides)
    dt = scenario.dt
    calls, passes = record_steppers(monkeypatch)
    result = run_mission(scenario)
    events = event_map(result)
    ticks = ticks_flown(result, scenario)
    stretches = [found for name, _, found in calls if name == "step_vehicle"]
    assert sum(flown for _, flown in stretches) == ticks
    assert [first for first, _ in stretches] == list(itertools.accumulate(
        [0] + [flown for _, flown in stretches[:-1]]))
    assert passes == [first for first, _ in stretches]
    pass_end = {first: first + flown for first, flown in stretches}
    descent = [found for name, _, found in calls if name == "step_payload"]
    if "ejected" in events:
        released = round(events["ejected"].time / dt)
        assert descent == [(released, ticks - released)]
    else:
        assert descent == []
    count = collections.Counter(name for name, _, _ in calls)
    assert count["begin_push"] == sum(
        command.name == "push" for command in result.commands)
    assert count["halt_carrier"] == (
        result.verdict.outcome is Outcome.SAFE_HOLD)
    if scenario.faults.door_jam:
        assert "door_unlocked" in events
        assert count["step_door"] == 0
    else:
        assert (count["step_door"] > 0) == ("door_unlocked" in events)
    rested = [(name, tick, found) for name, tick, found in calls
              if name in MECHANISM]

    calls.clear()
    monkeypatch.setattr(mission, "TaskSchedule", NoRestSchedule)
    run_mission(scenario)
    on = {name: [tick for called, tick, _ in calls if called == name]
          for name in MECHANISM}
    reference = {name: [found for called, _, found in calls if called == name]
                 for name in MECHANISM}
    assert all(found[0] == 1 for name, _, found in calls if name in MECHANISM)
    covered = {name: 0 for name in MECHANISM}   # reference calls matched
    order = []      # (first tick, loop order) of each rested call
    for name, pass_tick, (n, given, left, current) in rested:
        at = covered[name]
        stepped = on[name][at:at + n]
        assert n >= 1 and stepped == list(range(stepped[0], stepped[0] + n))
        assert pass_tick <= stepped[0] and stepped[-1] < pass_end[pass_tick]
        matched = reference[name][at:at + n]
        assert given == matched[0][1] and left == matched[-1][2], name
        assert all(found[3] == current for found in matched), name
        order.append((stepped[0], MECHANISM.index(name)))
        covered[name] = at + n
    assert covered == {name: len(on[name]) for name in MECHANISM}
    assert order == sorted(order)
    for name, stepped in on.items():
        assert len(set(stepped)) == len(stepped), name
    drains = [(found[1], found[3]) for name, _, found in calls
              if name == "drain_battery"]
    assert all(current > 0.0 and not battery.failed
               for battery, current in drains)
    # The pack is dead from the scheduled failure on, or from the tick
    # after the drain that empties it.
    dead = ticks
    fail_time = scenario.faults.battery_fail_time
    if fail_time is not None:
        dead = min(dead, next(tick for tick in itertools.count(
            round(fail_time / dt) - 1) if tick * dt >= fail_time))
    if result.battery_final.charge == 0.0:
        dead = min(dead, on["drain_battery"][-1] + 1)
    if scenario.quiescent_current:
        # Every tick with a live pack draws current.
        assert on["drain_battery"] == list(range(dead))
    else:
        assert on["drain_battery"] == sorted(
            on["command_unlock"] + on["step_carrier"])
    stopped = min([round(event.time / dt) for event in result.events
                   if event.name == "safe_hold"] + [dead])
    pushing_after = {tick: found[2].pushing for name, tick, found in calls
                     if name == "step_carrier"}
    expected = []
    for command in result.commands:
        tick = round(command.time / dt)
        while command.name == "push" and tick < stopped:
            expected.append(tick)
            if not pushing_after.get(tick):
                break
            tick += 1
    assert on["step_carrier"] == expected
    return result.verdict.outcome


def test_steppers_run_once_per_tick():
    """Every bundled deck at 10 ms meets `check_steppers`, and every deck
    but `altair_nominal` ends in SafeHold there, so the halt is
    exercised."""
    held = {deck for deck in list_bundled()
            if check_steppers(deck, {"sim.dt": 0.01}) is Outcome.SAFE_HOLD}
    assert held == set(list_bundled()) - {"altair_nominal"}


@pytest.mark.parametrize("deck, overrides", STEPPER_RUNS)
def test_steppers_run_once_per_tick_at_1ms_and_under_load(deck, overrides):
    """Every bundled deck at 1 ms, and a pack under an always-on load,
    meet `check_steppers`."""
    check_steppers(deck, overrides)


def mechanism_facts(scenario):
    """Facts of a run in which every tick is its own pass
    (`NoRestSchedule`): the ticks on which deploy logic changed phase,
    the ticks whose mechanism step changed what deploy logic reads (the
    rod unlocking, the door reading open, the carrier's pushing flag or
    push count, the payload at the stroke, the pack dead, which the
    scheduled failure makes it at the top of its tick, as of the tick
    before), and the ticks on which the rod, the door or the rack moved
    or the pack delivered charge.  Each pass snapshots the records as
    the tick before left them."""
    dt = scenario.dt
    stroke = scenario.mechanism.stroke
    records, read, held = {}, [], []
    changes = []

    def capture(make):
        def made(*args, **kwargs):
            record = make(*args, **kwargs)
            records[type(record).__name__] = record
            return record
        return made

    def due_at_tick(self, tick, _original=TaskSchedule.due_at_tick):
        door, carrier, battery = (records[name] for name in (
            "DoorState", "CarrierState", "BatteryState"))
        read.append((door.locked, door.open, carrier.pushing,
                     carrier.push_count,
                     carrier.payload_displacement >= stroke, battery.failed))
        held.append((door.rod_travel, door.angle, carrier.rack_extension,
                     battery.charge))
        return _original(self, tick)

    def update_phase(self, door, carrier, battery, now,
                     _original=DeploymentController.update_phase):
        before = self.phase
        commands = _original(self, door, carrier, battery, now)
        if self.phase is not before:
            changes.append(round(now / dt))
        return commands

    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in ("DoorState", "CarrierState", "replace"):
            monkeypatch.setattr(mission, name,
                                capture(getattr(mission, name)))
        monkeypatch.setattr(TaskSchedule, "due_at_tick", due_at_tick)
        monkeypatch.setattr(DeploymentController, "update_phase",
                            update_phase)
        monkeypatch.setattr(mission, "TaskSchedule", NoRestSchedule)
        run_mission(scenario)
    events = [tick for tick in range(len(read) - 1)
              if read[tick + 1] != read[tick]]
    moved = {tick for tick in range(len(read) - 1)
             if (read[tick + 1], held[tick + 1]) != (read[tick], held[tick])}
    return changes, events, moved


def logic_ticks_expected(result, scenario, absorbing):
    """The deploy-logic ticks a run must execute: the arming tick and
    the next logic tick, which first weighs the window; then, while the
    controller waits in AwaitWindow, only the sense tick whose reading
    confirms apogee and wakes it, as the rest writes the telemetry rows
    (in these runs no flight phase change ends a stretch on a sense
    tick); then, from the tick that left AwaitWindow, woken by its
    reading or by the pack, up to the absorbing one (`mechanism_facts`):
    - each phase change, which every deadline (the end of the settle
      dwell, a timeout) falls on, and the logic tick after it;
    - each tick whose mechanism step changes what deploy logic reads, if
      it is a sense tick, and the logic tick after it;
    - each sense tick that is a telemetry tick and ends a moving rest,
      that is, follows a tick on which the mechanism moved (in these
      runs no moving rest stops moving before its telemetry tick)."""
    dt = scenario.dt
    sense, logic, telemetry = task_period_ticks(dt)
    left = min([round(command.time / dt) for command in result.commands]
               + [round(event.time / dt) for event in result.events
                  if event.name == "safe_hold"])
    weighed = {logic}
    sensed = event_map(result).get("apogee_sensed")
    if sensed is not None:
        weighed.add(round(sensed.time / dt))
    expected = {0} | {tick for tick in weighed if 0 < tick < left}
    changes, events, moved = mechanism_facts(scenario)
    expected |= {tick + after for tick in changes if tick >= left
                 for after in (0, logic)}
    for tick in events:
        if left <= tick < absorbing:
            expected.add(tick + logic - tick % logic)
            if tick % sense == 0:
                expected.add(tick)
    rows = math.lcm(sense, telemetry)
    expected |= {tick for tick in range(left + rows - left % rows, absorbing,
                                        rows) if tick - 1 in moved}
    return sorted(tick for tick in expected if tick <= absorbing)


def test_task_free_ticks_still_step_and_sample(monkeypatch):
    """Rest ticks skip the tasks and actuation but still sample the
    barometer, once per tick and in order, and fly the vehicle.  Deploy
    logic runs on the ticks `logic_ticks_expected` lists, then never.
    """
    flown = 0
    sampled = []        # tick of every Barometer.sample call
    logic = []      # (tick, phase after the call) per update_phase call

    def step_vehicle(*args, _original=mission.step_vehicle):
        nonlocal flown
        ticks = _original(*args)
        flown += ticks
        return ticks

    def sample(self, altitude, tick, _original=Barometer.sample):
        sampled.append(tick)
        return _original(self, altitude, tick)

    def update_phase(self, door, carrier, battery, now,
                     _original=DeploymentController.update_phase):
        commands = _original(self, door, carrier, battery, now)
        logic.append((round(now / dt), self.phase))
        return commands

    monkeypatch.setattr(mission, "step_vehicle", step_vehicle)
    monkeypatch.setattr(Barometer, "sample", sample)
    monkeypatch.setattr(DeploymentController, "update_phase", update_phase)
    runs = [(deck, 0.001) for deck in list_bundled()]
    runs.append(("altair_nominal", 0.01))
    for deck, dt in runs:
        scenario = scenario_with(bundled_scenario(deck), {"sim.dt": dt})
        flown = 0
        sampled.clear()
        logic.clear()
        result = run_mission(scenario)
        ticks = ticks_flown(result, scenario)
        assert flown == ticks, deck
        assert sampled == list(range(ticks)), deck
        absorbing = [tick for tick, phase in logic
                     if phase in (DeployPhase.SAFE_HOLD, DeployPhase.EJECTED)]
        assert absorbing, deck
        assert [tick for tick, _ in logic] == logic_ticks_expected(
            result, scenario, absorbing[0]), deck


def record_stretches(monkeypatch):
    """(first tick, ticks flown) of every `step_vehicle` call."""
    stretches = []

    def step_vehicle(*args, _original=mission.step_vehicle):
        ticks = _original(*args)
        stretches.append((args[FIRST_TICK["step_vehicle"]], ticks))
        return ticks

    monkeypatch.setattr(mission, "step_vehicle", step_vehicle)
    return stretches


@pytest.mark.parametrize("fail_time, dt, fail_tick", [
    (20.004, 0.001, 20_004), (5.005, 0.01, 501), (30.0, 0.001, 30_000),
    # 0.07 / 0.01 rounds up past 7, so ceil overshoots the failure's tick.
    (0.07, 0.01, 7)])
def test_no_stretch_crosses_the_scheduled_battery_failure(
        monkeypatch, fail_time, dt, fail_tick):
    # The failure applies at the top of the first tick at or after it,
    # so that tick begins a stretch.
    stretches = record_stretches(monkeypatch)
    run_mission(scenario_with(NOMINAL, {"faults.battery_fail_time": fail_time,
                                        "sim.dt": dt}))
    assert fail_tick in [first for first, _ in stretches]
    assert not any(first < fail_tick < first + ticks
                   for first, ticks in stretches)


def test_idle_controller_rests_to_its_wake(monkeypatch):
    # At 10 ms deploy logic first weighs the window on tick 1 and then
    # waits, idle, on readings that cannot move it.  Only a flight phase
    # change (burnout, then the true apogee) and a wake (the reading
    # that confirms apogee, then the one at or below the ceiling that
    # unlocks) end a stretch; the stretches write the rows between.
    stretches = record_stretches(monkeypatch)
    result = run_mission(scenario_with(NOMINAL, {"sim.dt": 0.01}))
    events = event_map(result)
    apogee = round(events["apogee_truth"].time / 0.01)
    sensed = round(events["apogee_sensed"].time / 0.01)
    unlock = result.commands[0]
    assert unlock.name == "unlock"
    unlocked = round(unlock.time / 0.01)
    starts = [first for first, _ in stretches if first <= unlocked]
    assert starts[:2] == [0, 1] and len(starts) == 6
    assert starts[3:] == [apogee, sensed, unlocked]
    # The AwaitWindow stretch from the sensed apogee spans 935 rows.
    rows = [round(record.time_s / 0.01) for record in result.telemetry]
    assert len([tick for tick in rows if sensed < tick < unlocked]) == 935


def test_timed_deploy_phases_rest_to_their_next_event(monkeypatch):
    # At 10 ms, from the unlock to the ejection, a stretch starts only on
    # a telemetry tick while the rod, the door or the rack moves, on the
    # tick of a mechanism event (the rod unlocking, the door reading
    # open, the rack at the stroke), on the logic tick after an event or
    # a phase change, and on the dwell's end.  Once the door is fully
    # open nothing moves, so the settle dwell is one stretch.
    stretches = record_stretches(monkeypatch)
    result = run_mission(scenario_with(NOMINAL, {"sim.dt": 0.01}))
    events = event_map(result)
    unlock, push = (round(command.time / 0.01) for command in result.commands)
    unlocked, opened, ejected = (round(events[name].time / 0.01) for name
                                 in ("door_unlocked", "door_open", "ejected"))
    expected = {unlock, unlock + 1, push, push + 1}
    for event in (unlocked, opened, ejected):
        expected |= {event, event + 1, event + 2}
    expected |= set(range(unlock + 5 - unlock % 5, opened, 5))
    expected |= set(range(push + 5 - push % 5, ejected, 5))
    assert [first for first, _ in stretches
            if unlock <= first <= ejected + 1] == sorted(
                tick for tick in expected if tick <= ejected + 1)
    assert dict(stretches)[opened + 2] == push - opened - 2


def test_settled_controller_rests_through_its_logic_ticks(monkeypatch):
    # After SafeHold at 30 s, past the sensed apogee, the dead pack moves
    # nothing, so one stretch flies to the landing and writes every
    # telemetry row (every 50 ticks) on the way.
    stretches = record_stretches(monkeypatch)
    result = run_mission(bundled_scenario("altair_battery_fail"))
    assert event_map(result)["apogee_sensed"].time < 30.0
    landed = round(event_map(result)["vehicle_landed"].time / 0.001)
    assert [(first, first + flown) for first, flown in stretches
            if first >= 30_000] == [(30_000, landed)]
    assert [round(record.time_s / 0.001) for record in result.telemetry
            if record.time_s >= 30.0] == list(range(30_000, landed, 50))


def record_busy_rows(monkeypatch):
    """`busy(result)`, the time of every row of `result` that a busy
    pass built (`make_telemetry_record`) and appended; a stretch writes
    the others itself.  A busy pass on which nothing moved also builds
    a record when its row is not due, for the stretch after it; only the
    records appended as rows count."""
    built = []

    def make_telemetry_record(*args, _original=mission.make_telemetry_record):
        record = _original(*args)
        built.append(record)
        return record

    def busy(result):
        # `built` holds every record, so no id is reused.
        appended = {id(record) for record in built}
        return [row.time_s for row in result.telemetry
                if id(row) in appended]

    monkeypatch.setattr(mission, "make_telemetry_record",
                        make_telemetry_record)
    return busy


@pytest.mark.parametrize("overrides, tick", [
    # The reading that unlocks is latched on tick 6550, a telemetry tick.
    ({}, 6550),
    # Burnout on tick 299 ends the stretch before the row of tick 300.
    ({"vehicle.burn_time": 2.99}, 300),
    # The pack fails on tick 2000, a telemetry tick inside the wait for
    # the window.
    ({"faults.battery_fail_time": 20.0}, 2000),
], ids=["wake", "phase_change", "battery_failure"])
def test_a_stretch_ending_on_a_telemetry_tick_leaves_its_row_to_the_busy_pass(
        monkeypatch, overrides, tick):
    # At 10 ms a stretch of idle deploy logic that a wake, a flight
    # phase change or the battery failure ends on a telemetry tick
    # stops before it, and the busy pass there writes its row, once.
    # Rows every 5 ticks, each once and byte for byte as when every
    # tick is its own pass.
    scenario = scenario_with(NOMINAL, {"sim.dt": 0.01, **overrides})
    stretches = record_stretches(monkeypatch)
    busy = record_busy_rows(monkeypatch)
    result = run_mission(scenario)
    busy = busy(result)
    ends = {first + flown: first for first, flown in stretches}
    assert tick - ends[tick] > 10       # the stretch spans rows
    rows = [round(record.time_s / 0.01) for record in result.telemetry]
    assert rows == list(range(0, rows[-1] + 1, 5))
    assert [round(now / 0.01) for now in busy].count(tick) == 1
    assert len(busy) < len(rows) / 10
    monkeypatch.setattr(mission, "TaskSchedule", NoRestSchedule)
    assert mission_outputs(run_mission(scenario)) == mission_outputs(result)


RECORD_RUNS = ([(deck, 0.01) for deck in list_bundled()]
               + [("altair_nominal", 0.001), ("altair_battery_fail", 0.001)])


def test_a_busy_pass_builds_at_most_one_record(monkeypatch):
    # One on every telemetry tick, whose row it appends, and none on any
    # rest tick.
    passes = []     # (tick, telemetry due) of each pass
    built = []      # the index in `passes` of the pass that built each

    def due_at_tick(self, tick, _original=TaskSchedule.due_at_tick):
        due = _original(self, tick)
        passes.append((tick, due[2]))
        return due

    def make_telemetry_record(*args, _original=mission.make_telemetry_record):
        built.append(len(passes) - 1)
        return _original(*args)

    monkeypatch.setattr(TaskSchedule, "due_at_tick", due_at_tick)
    monkeypatch.setattr(mission, "make_telemetry_record",
                        make_telemetry_record)
    for deck, dt in RECORD_RUNS:
        passes.clear()
        built.clear()
        run_mission(scenario_with(bundled_scenario(deck), {"sim.dt": dt}))
        assert len(set(built)) == len(built), deck
        assert {index for index, (_, due) in enumerate(passes)
                if due} <= set(built), deck


def test_a_stretch_writes_the_status_of_the_record_that_began_it(
        monkeypatch):
    # Each row a stretch writes holds, from `flight_phase` on, the
    # fields of the record built on the busy tick that began the
    # stretch, also where that tick is off the telemetry grid.
    built = {}      # tick -> the record built on that busy tick
    stretches = record_stretches(monkeypatch)

    def make_telemetry_record(now, *args,
                              _original=mission.make_telemetry_record):
        record = _original(now, *args)
        built[round(now / dt)] = record
        return record

    monkeypatch.setattr(mission, "make_telemetry_record",
                        make_telemetry_record)
    off_grid = 0
    for deck, dt in RECORD_RUNS:
        built.clear()
        stretches.clear()
        result = run_mission(scenario_with(bundled_scenario(deck),
                                           {"sim.dt": dt}))
        row_period = task_period_ticks(dt)[2]
        busy = {id(record) for record in built.values()}
        starts = [first for first, _ in stretches]
        written = [row for row in result.telemetry if id(row) not in busy]
        assert written, deck
        for row in written:
            tick = round(row.time_s / dt)
            first = starts[bisect.bisect_left(starts, tick) - 1]
            assert first in built, (deck, tick)
            assert row[4:] == built[first][4:], (deck, tick)
            off_grid += first % row_period != 0
    assert off_grid


def test_leaving_the_band_deep_in_an_idle_stretch_names_that_tick(
        monkeypatch):
    # At 10 ms a 16 kN, 6 s burn coasts past 11 km at 7.88 s, 188 ticks
    # and 37 rows into the stretch that burnout began, while deploy
    # logic waits idle for apogee.  The error names that tick, as when
    # every tick is its own pass.
    high = scenario_with(NOMINAL, {"sim.dt": 0.01,
                                   "vehicle.avg_thrust": 16000.0,
                                   "vehicle.burn_time": 6.0})
    starts = []

    def step_vehicle(*args, _original=mission.step_vehicle):
        starts.append(args[FIRST_TICK["step_vehicle"]])
        return _original(*args)

    monkeypatch.setattr(mission, "step_vehicle", step_vehicle)
    with pytest.raises(DomainError) as info:
        run_mission(high)
    assert str(info.value).startswith(
        "at t=7.880 s the vehicle left the 0-11 km atmosphere model band: "
        "altitude 11010.766349276504")
    assert starts[-1] == 600
    starts.clear()
    monkeypatch.setattr(mission, "TaskSchedule", NoRestSchedule)
    with pytest.raises(DomainError) as reference:
        run_mission(high)
    assert starts == list(range(789))
    assert str(info.value) == str(reference.value)


def test_the_reference_mission_makes_one_pass_per_tick(monkeypatch):
    # Gate C12 means something only while its reference rests nowhere:
    # every tick is a pass of its own, so no stretch writes a row.
    passes = []

    def due_at_tick(self, tick, _original=TaskSchedule.due_at_tick):
        passes.append(tick)
        return _original(self, tick)

    monkeypatch.setattr(TaskSchedule, "due_at_tick", due_at_tick)
    scenario = scenario_with(NOMINAL, {"sim.dt": 0.01})
    result = reference_run(scenario)
    assert passes == list(range(ticks_flown(result, scenario)))


# Every bundled deck at 1 ms and 10 ms, and the nominal deck at 80 Hz.
SETTLED_REST_RUNS = (
    [(deck, {"sim.dt": dt}) for deck in list_bundled()
     for dt in (0.001, 0.01)]
    + [("altair_nominal", {"barometer.sample_rate": 80.0,
                           "barometer.latency": 0.035})])


@pytest.mark.parametrize("deck, overrides", SETTLED_REST_RUNS)
def test_settled_rest_changes_no_output_byte(monkeypatch, deck, overrides):
    # The rest through the sense ticks, idle or settled, alone: against a
    # run with an idle rest of 0, whose idle or settled deploy logic stops
    # on every logic tick, so on every sense tick, and weighs every
    # latched reading with no wake needed.
    scenario = scenario_with(bundled_scenario(deck), overrides)
    rested = mission_outputs(run_mission(scenario))
    monkeypatch.setattr(TaskSchedule, "idle_rest", 0)
    assert mission_outputs(run_mission(scenario)) == rested


def test_the_differential_table_holds_every_mission_once():
    # Gate C12's 135 missions, no two alike, each flying the scenario it
    # is named for: every group of the five lists the table replaced.
    table = DIFFERENTIAL_MISSIONS
    assert len(NOMINAL_OVERRIDES) == 35
    runs = list(SETTLED_REST_RUNS)
    runs += [("altair_nominal", overrides) for overrides in NOMINAL_OVERRIDES]
    runs += [(deck, {"battery.quiescent_current": 0.05})
             for deck in list_bundled() if deck != "altair_nominal"]
    runs += [("altair_gear_slip", {"sim.dt": 0.01, "battery.capacity": 1.53})]
    runs += [("altair_nominal", {"sim.dt": dt, "sim.max_sim_time": 20.0})
             for dt in (0.001, 0.01)]
    for deck, overrides in runs:
        assert table[deck_run_name(deck, overrides)].values == scenario_with(
            bundled_scenario(deck), overrides).values
    for k in range(40):
        assert table[f"C3 profile {k}"].values == fuzz_profile(k)[0].values
        assert table[f"rest scenario {k}"].values == rest_scenario(k).values
    assert len({frozenset(scenario.values.items())
                for scenario in table.values()}) == len(table) == 135


@pytest.mark.parametrize("overrides", [
    {"sim.dt": 0.01},
    {"barometer.sample_rate": 80.0, "barometer.latency": 0.035},
], ids=["10ms", "1ms_80hz_35ms"])
def test_outputs_do_not_depend_on_the_shared_reading_schedule(overrides):
    # The same bytes from a cold schedule, a warm one, one another clock
    # evicted, and one a stop_at_verdict run filled only part way.
    scenario = scenario_with(bundled_scenario("altair_nominal"), overrides)
    cached = atmosphere._reading_schedule
    clock = (scenario.dt, 1.0 / scenario.barometer.sample_rate,
             scenario.barometer.latency,
             round(scenario.max_sim_time / scenario.dt))
    cached.cache_clear()
    cold = mission_outputs(run_mission(scenario))
    schedule = cached(*clock)
    assert cached.cache_info().misses == 1      # the run's, found again
    filled = len(schedule[0])
    assert mission_outputs(run_mission(scenario)) == cold
    assert cached(*clock) is schedule
    assert cached.cache_info().misses == 1
    run_mission(scenario_with(scenario, {"barometer.latency": 0.05}))
    assert cached.cache_info().misses == 2
    assert mission_outputs(run_mission(scenario)) == cold
    assert cached.cache_info().misses == 3
    cached.cache_clear()
    run_mission(scenario, stop_at_verdict=True)
    assert len(cached(*clock)[0]) < filled
    assert cached.cache_info().misses == 1
    assert mission_outputs(run_mission(scenario)) == cold


def test_a_pack_that_dies_while_awaiting_the_window_is_seen_at_once(
        monkeypatch):
    # The always-on load empties the pack between the sense ticks at
    # 20.000 and 20.020 s.  The rests of the idle controller end on the
    # telemetry ticks, whose rows print the current, and before the tick
    # on which the pack can die, so it runs on the sense ticks among
    # them (19.900 and 20.000 s); the logic tick at 20.010 s, which it
    # would rest through, must see the dead pack.
    logic = []

    def update_phase(self, door, carrier, battery, now,
                     _original=DeploymentController.update_phase):
        logic.append(round(now / 0.001))
        return _original(self, door, carrier, battery, now)

    monkeypatch.setattr(DeploymentController, "update_phase", update_phase)
    result = run_mission(scenario_with(NOMINAL, {
        "battery.quiescent_current": 0.5, "battery.capacity": 10.003}))
    assert logic[-3:] == [19_900, 20_000, 20_010]
    assert event_map(result)["safe_hold"] == (20.01, "safe_hold",
                                              "battery-failure")


def test_no_stretch_follows_the_tick_that_stops_the_run(monkeypatch):
    # A sweep's run ends on the tick that enters SafeHold: the barometer
    # and the vehicle see the 30,001 ticks up to it and not one more.
    stretches = record_stretches(monkeypatch)
    sampled = 0

    def sample(self, *args, _original=Barometer.sample):
        nonlocal sampled
        sampled += 1
        return _original(self, *args)

    monkeypatch.setattr(Barometer, "sample", sample)
    result = run_mission(bundled_scenario("altair_battery_fail"),
                         stop_at_verdict=True)
    assert result.verdict.outcome is Outcome.SAFE_HOLD
    assert stretches[-1] == (30_000, 1)
    assert sum(ticks for _, ticks in stretches) == sampled == 30_001


def test_a_sweep_run_ends_at_its_ejection_before_a_later_battery_failure(
        monkeypatch):
    # The nominal push releases the payload on tick 68,744, between
    # logic ticks, and a sweep's run ends right after it: the pack,
    # scheduled to fail at 70 s, is still alive, and the stretch of the
    # release tick ends at the run's last tick, not at the next logic
    # tick or the failure.
    stretches = record_stretches(monkeypatch)
    result = run_mission(
        scenario_with(NOMINAL, {"faults.battery_fail_time": 70.0}),
        stop_at_verdict=True)
    ejected = round(result.verdict.deploy_time / NOMINAL.dt)
    assert ejected == 68_744
    assert not result.battery_final.failed
    assert stretches[-1] == (ejected, 1)
    assert sum(ticks for _, ticks in stretches) == ejected + 1


def test_seed_changes_noise_not_verdict():
    fast = {"sim.dt": 0.005}
    verdicts = set()
    sensed_streams = []
    for seed in range(10):
        sc = scenario_with(NOMINAL, dict(fast, **{"sim.seed": seed}))
        res = run_mission(sc, stop_at_verdict=True)
        verdicts.add(res.verdict.outcome)
        sensed_streams.append(tuple(r.sensed_alt_m for r in res.telemetry[:200]))
    assert verdicts == {Outcome.DEPLOYED_IN_WINDOW}
    assert len(set(sensed_streams)) == 10, "noise must vary with the seed"


def test_stop_at_verdict_matches_full_run(nominal_result):
    res = run_mission(NOMINAL, stop_at_verdict=True)
    assert res.verdict.outcome is nominal_result.verdict.outcome
    assert res.verdict.deploy_time == nominal_result.verdict.deploy_time
    assert res.telemetry[-1].time_s < nominal_result.telemetry[-1].time_s


# ---------------------------------------------------------------------------
# Fault profiles (detailed per-criterion checks live in test_acceptance)


@pytest.mark.parametrize("name,reason,hold_time", [
    ("altair_link_break", "pushes-exhausted", 73.52),
    ("altair_gear_slip", "pushes-exhausted", 73.52),
    ("altair_friction3x", "push-timeout", 53.26),
    ("altair_battery_fail", "battery-failure", 30.0),
    ("altair_door_jam", "door-timeout", 67.0),
])
def test_fault_scenarios_go_safe(name, reason, hold_time):
    res = run_mission(bundled_scenario(name))
    assert res.verdict.outcome is Outcome.SAFE_HOLD
    assert res.verdict.safe_hold_reason == reason
    assert EXIT_CODES[res.verdict.outcome] == 2
    hold = next(e for e in res.events if e.name == "safe_hold")
    assert hold.time == pytest.approx(hold_time, abs=1e-6)
    assert all(c.time <= hold.time for c in res.commands)
    assert "ejected" not in {e.name for e in res.events}


def test_door_jam_hold_is_unlock_plus_timeout():
    res = run_mission(bundled_scenario("altair_door_jam"))
    unlock = next(c for c in res.commands if c.name == "unlock")
    hold = next(e for e in res.events if e.name == "safe_hold")
    assert hold.time - unlock.time == pytest.approx(2.0, abs=1e-9)


def test_battery_fail_never_commands():
    res = run_mission(bundled_scenario("altair_battery_fail"))
    assert res.commands == []
    assert res.verdict.energy_used == 0.0


def test_retry_pushes_have_consistent_spacing():
    res = run_mission(bundled_scenario("altair_gear_slip"))
    pushes = [c.time for c in res.commands if c.name == "push"]
    assert pushes == pytest.approx([67.79, 69.70, 71.61], abs=1e-6)
    # One full cycle (~1.91 s) between consecutive push commands.
    for earlier, later in zip(pushes, pushes[1:]):
        assert later - earlier == pytest.approx(1.91, abs=0.02)


# ---------------------------------------------------------------------------
# Sweeps


def test_mass_sweep_brackets_the_limit():
    fast = scenario_with(NOMINAL, {"sim.dt": 0.005})
    table = sweep(fast, "payload.mass", [1.0, 13.5, 14.0, 16.0])
    assert [m for m, _ in table] == [1.0, 13.5, 14.0, 16.0]
    outcomes = {m: v.outcome for m, v in table}
    assert outcomes[1.0] is Outcome.DEPLOYED_IN_WINDOW
    assert outcomes[13.5] is Outcome.DEPLOYED_IN_WINDOW
    assert outcomes[14.0] is Outcome.SAFE_HOLD
    assert outcomes[16.0] is Outcome.SAFE_HOLD
    assert table[2][1].safe_hold_reason == "push-timeout"


def test_sweep_coerces_integer_keys():
    # The CLI parses sweep values as floats: integral ones become ints,
    # fractional ones are rejected before any run starts.
    fast = scenario_with(NOMINAL, {"sim.dt": 0.005, "sim.max_sim_time": 30.0})
    table = sweep(fast, "sim.seed", [1.0, 2])
    assert [s for s, _ in table] == [1, 2]
    assert all(type(s) is int for s, _ in table)
    with pytest.raises(ScenarioError, match="faults.gear_slip_push"):
        sweep(fast, "faults.gear_slip_push", [1.0, 2.7])


@pytest.mark.parametrize("key, values, bad", [
    ("trigger.deploy_floor", [150.0, 200.0, 500.0], "500.0"),
    ("payload.mass", [1.0, 2.0, -1.0], "-1.0"),
    ("sim.max_sim_time", [1.0, 0.0004], "0.0004"),   # no tick at 1 ms
    ("faults.gear_slip_push", [1, 2.5], "2.5"),
])
def test_sweep_builds_every_scenario_before_any_run(monkeypatch, key,
                                                    values, bad):
    runs = []

    def counting_run(*args, **kwargs):
        runs.append(args)
        return run_mission(*args, **kwargs)

    monkeypatch.setattr(mission, "run_mission", counting_run)
    with pytest.raises(ScenarioError,
                       match=rf"^sweep {re.escape(key)} = {re.escape(bad)}: "):
        sweep(NOMINAL, key, values)
    assert runs == []


def test_a_sweep_that_changes_the_clock_on_every_row_matches_fresh_runs():
    # Each row's latency is another clock than the row before it, so
    # each row replaces the reading schedule the last one left.
    values = [0.02, 0.035, 0.02]
    table = sweep(NOMINAL, "barometer.latency", values)
    assert [latency for latency, _ in table] == values
    for latency, verdict in table:
        sibling = scenario_with(NOMINAL, {"barometer.latency": latency})
        atmosphere._reading_schedule.cache_clear()
        assert verdict == run_mission(sibling, stop_at_verdict=True).verdict
    assert table[0] == table[2]


def test_sweep_rejects_unknown_key():
    with pytest.raises(ScenarioError, match="unknown sweep key"):
        sweep(NOMINAL, "payload.weight", [1.0])


def test_sweep_rejects_boolean_key():
    with pytest.raises(ScenarioError, match="not numeric"):
        sweep(NOMINAL, "faults.door_jam", [1.0])


def test_sweep_of_nothing_is_empty():
    assert sweep(NOMINAL, "payload.mass", []) == []


# ---------------------------------------------------------------------------
# Rendering


def test_telemetry_csv_shape(nominal_result):
    text = render_telemetry_csv(nominal_result.telemetry)
    lines = text.splitlines()
    assert lines[0] == "# schema=deploysim.telemetry.v1"
    assert lines[1].split(",")[:3] == ["time_s", "truth_alt_m",
                                       "truth_vel_mps"]
    assert len(lines) == 2 + len(nominal_result.telemetry)
    assert lines[2].startswith("0.000000,")
    assert text.endswith("\n")


def test_commands_csv_shape(nominal_result):
    text = render_commands_csv(nominal_result.commands)
    lines = text.splitlines()
    assert lines[0] == "# schema=deploysim.commands.v1"
    assert lines[1] == "time_s,command,value,truth_alt_m"
    assert lines[2].startswith("65.000000,unlock,")
    assert len(lines) == 4


def test_verdict_lines_round_trip(nominal_result):
    lines = verdict_lines(nominal_result.verdict)
    fields = dict(line.split("=", 1) for line in lines)
    assert fields["outcome"] == "DeployedInWindow"
    assert fields["safe_hold_reason"] == "-"
    assert fields["exit_code"] == "0"
    assert float(fields["deploy_altitude_m"]) == pytest.approx(325.69,
                                                               abs=0.01)
    assert float(fields["energy_used_j"]) > 0.0


def test_flight_above_the_model_band_raises_mid_mission():
    # The tick loop checks each altitude once; a vehicle that climbs
    # past 11 km must still stop the run with DomainError.
    high = scenario_with(NOMINAL, {"vehicle.avg_thrust": 20000.0,
                                   "vehicle.burn_time": 6.0})
    with pytest.raises(DomainError, match="outside model band") as info:
        run_mission(high)
    # The error says when the flight left the band, and chains the
    # atmosphere model's own error.
    assert str(info.value).startswith(
        "at t=6.830 s the vehicle left the 0-11 km atmosphere model band: "
        "altitude 11001.4")
    assert isinstance(info.value.__cause__, DomainError)
    assert "at t=" not in str(info.value.__cause__)


def test_flight_leaving_the_band_on_a_rest_tick_names_that_tick():
    # 6.731 s is no task's tick: it lies inside a stretch of ticks that
    # only the physics flies, so the error must name the tick that
    # left the band, not the busy tick that began the stretch.
    high = scenario_with(NOMINAL, {"vehicle.avg_thrust": 20500.0,
                                   "vehicle.burn_time": 6.0})
    with pytest.raises(DomainError) as info:
        run_mission(high)
    assert str(info.value) == (
        "at t=6.731 s the vehicle left the 0-11 km atmosphere model band: "
        "altitude 11000.25694480713 outside model band [0, 11000.0] m")
    assert isinstance(info.value.__cause__, DomainError)


def test_payload_above_the_model_band_is_named(monkeypatch):
    # No chute step climbs any more, so release the payload above the
    # band by hand: it falls drag-free to 11.95 km, where its chute
    # opens, and its first step under the chute reads the atmosphere
    # there while the vehicle descends near 300 m.
    def step_payload(body, *args, _original=mission.step_payload):
        body.altitude = body.release_altitude = 12000.0
        return _original(body, *args)

    monkeypatch.setattr(mission, "step_payload", step_payload)
    with pytest.raises(DomainError, match="outside model band") as info:
        run_mission(NOMINAL)
    assert str(info.value).startswith(
        "at t=70.504 s the payload left the 0-11 km atmosphere model band: "
        "altitude 11949.")
    assert isinstance(info.value.__cause__, DomainError)


def test_light_payload_lands_below_its_ejection_altitude(monkeypatch):
    # A 1 g payload under the nominal chute: one explicit drag step
    # would reverse its descent, so the step descends at terminal speed
    # instead (about 0.19 m/s, so the landing needs the longer clock).
    # The descent is flown one tick per call, so the peak sees every tick.
    peak = -math.inf

    def step_payload(body, dt, atmosphere, ticks, first,
                     _original=mission.step_payload):
        nonlocal peak
        for tick in range(first, first + ticks):
            _original(body, dt, atmosphere, 1, tick)
            peak = max(peak, body.altitude)
            if body.landing_time is not None:
                break
        return tick - first + 1

    monkeypatch.setattr(mission, "step_payload", step_payload)
    result = run_mission(scenario_with(NOMINAL, {
        "payload.mass": 0.001, "sim.max_sim_time": 4000.0}))
    events = {event.name: event for event in result.events}
    assert result.verdict.outcome is Outcome.DEPLOYED_IN_WINDOW
    assert "payload_chute_open" in events
    assert 1500.0 < events["payload_landed"].time < 1600.0
    assert peak <= result.verdict.deploy_altitude_truth


def test_vehicle_is_named_while_the_payload_hangs_under_its_chute():
    # Ejected on a slow ascent; the vehicle keeps burning past 11 km
    # while the payload still descends under its chute.  With no drag
    # only the barometer reads the atmosphere: its reading at 60.660 s
    # quotes the truth of 60.640 s, 0.02 s of latency before, and the
    # error names that tick.
    climbing = scenario_with(NOMINAL, {
        "vehicle.avg_thrust": 500.0, "vehicle.burn_time": 100.0,
        "vehicle.drag_area_coast": 0.0, "trigger.arm_after_apogee": False})
    names = [event.name for event in run_mission(scenario_with(
        climbing, {"sim.max_sim_time": 60.0})).events]
    assert "payload_chute_open" in names and "payload_landed" not in names
    with pytest.raises(DomainError) as info:
        run_mission(climbing)
    assert str(info.value).startswith(
        "at t=60.640 s the vehicle left the 0-11 km atmosphere model band: "
        "altitude 11006.426238685799")


def test_exit_code_table_is_total():
    assert {EXIT_CODES[o] for o in Outcome} == {0, 2, 3, 4}
    assert CONFIG_ERROR_EXIT == 64


def test_default_scenario_equals_bundled_nominal():
    assert build_scenario().values == NOMINAL.values


def test_payload_state_after_nominal(nominal_result):
    # The ejected payload must be on the ground with its chute used.
    ev = event_map(nominal_result)
    assert ev["payload_chute_open"].value < ev["ejected"].value
    final = nominal_result.telemetry[-1]
    assert final.flight_phase == "Landed"
    assert math.isfinite(final.sensed_alt_m)


def test_every_trace_hook_of_the_benchmark_resolves():
    # The benchmark's per-layer trace patches named functions; one that
    # a refactor renames or removes would silently drop out of it.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        with tracer.installed():
            pass
    finally:
        del sys.modules[spec.name]
    assert tracer.absent == {}
    assert tracer.partial == {}

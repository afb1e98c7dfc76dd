"""Deployment controller and task schedule tests.

The controller is driven open loop here: sensed altitudes are fed by
hand and the door/carrier/battery states are plain structs, so every
transition lands on an exact, assertable logic tick.
"""

import math
import tracemalloc
from copy import deepcopy
from dataclasses import replace

import pytest

from deploysim import ParameterError, build_scenario
from deploysim.actuation import (CarrierState, DoorState, begin_push,
                                 carrier_drive, command_unlock, drain_battery,
                                 step_carrier, step_door)
from deploysim.controller import (STABILIZE_DWELL_S, DeployPhase,
                                  TASK_RATES, DeploymentController,
                                  SafeHoldReason, TaskSchedule,
                                  task_period_ticks)
from deploysim.flight import FlightPhase, FlightState
from deploysim.mission import (TELEMETRY_COLUMNS, make_telemetry_record,
                               render_telemetry_csv)

NOMINAL = build_scenario()
MECH = NOMINAL.mechanism
NO_FAULTS = NOMINAL.faults

OPEN_DOOR = DoorState(locked=False, rod_travel=0.0, angle=1.5533, open=True)
UNLOCKED_DOOR = DoorState(locked=False, rod_travel=0.0)
LOCKED_DOOR = DoorState()
IDLE_CARRIER = CarrierState()
GOOD_BATTERY = NOMINAL.battery
DEAD_BATTERY = replace(GOOD_BATTERY, voltage=0.0, charge=0.0, failed=True)


def make_controller(**kwargs):
    """A controller for the nominal 150-400 m window."""
    trigger = replace(NOMINAL.trigger, **kwargs)
    assert (trigger.deploy_floor, trigger.deploy_ceiling) == (150.0, 400.0)
    return DeploymentController(trigger, MECH.stroke)


def sense(ctl, altitude):
    """Latch one reading, and the peak with it, as the barometer keeps
    it; True when it confirms apogee."""
    ctl.task_sense(altitude, max(ctl.sensed_peak, altitude))
    return ctl.task_estimate()


def arm_with_apogee(ctl, peak=500.0, now=0.0):
    """Arm the controller and confirm apogee with a clean 6 m drop."""
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, now)
    sense(ctl, peak)
    sense(ctl, peak - 6.0)
    assert ctl.apogee_seen


# ---------------------------------------------------------------------------
# Task schedule: (sense, deploy logic, telemetry) due flags, then the
# number of task-free ticks that follow.  Idle deploy logic rests through
# all of them (`TaskSchedule.idle_rest`).


def test_all_tasks_due_at_time_zero():
    schedule = TaskSchedule(0.001)
    assert schedule.due_at_tick(0) == (True, True, True, 9)


def test_dueness_at_sample_times():
    # At 1 ms the telemetry rows of a 100-tick cycle fall on ticks 0
    # and 50.
    schedule = TaskSchedule(0.001)
    assert schedule.due_at_tick(20) == (True, True, False, 9)
    assert schedule.due_at_tick(30) == (False, True, False, 9)
    assert schedule.due_at_tick(40) == (True, True, False, 9)
    assert schedule.due_at_tick(50) == (False, True, True, 9)
    assert schedule.due_at_tick(13) == (False, False, False, 6)


def test_rates_actually_hit():
    schedule = TaskSchedule(0.001)
    counts = [0, 0, 0]
    for tick in range(1000):
        for index, due in enumerate(schedule.due_at_tick(tick)[:3]):
            counts[index] += due
    assert counts == [50, 100, 20]


@pytest.mark.parametrize("dt", [0.001, 0.0005, 0.002, 0.01, 1e-5, 1e-6])
def test_free_count_is_the_run_of_task_free_ticks_that_follows(dt):
    # Each task is due on the ticks whose time is a whole number of its
    # periods.  Over 0.2 s, ten sense periods, counted back from its
    # end, on which every task is due.
    schedule = TaskSchedule(dt)
    horizon = round(0.2 / dt)
    run = 0
    for tick in reversed(range(horizon + 1)):
        due = schedule.due_at_tick(tick)
        periods = [tick * dt * rate for rate in TASK_RATES]
        assert due[:3] == tuple(abs(n - round(n)) < 1e-6
                                for n in periods), tick
        if tick < horizon:
            assert due[3] == run, tick
        run = 0 if any(due[:3]) else run + 1


def test_the_schedule_holds_no_per_tick_table():
    # At the 1 us floor of `sim.dt` one cycle of the three periods is
    # 100,000 ticks; the schedule answers from the periods alone.
    tracemalloc.start()
    try:
        TaskSchedule(1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_idle_rest_count_is_unbounded():
    # Idle deploy logic needs no tick: the barometer wakes the loop on
    # the reading that can move it, and a row reads only its own tick
    # (the altitude it prints is the one the barometer latched,
    # `Barometer.latched`), so the rest writes it.
    assert TaskSchedule.idle_rest == math.inf


def test_every_sense_tick_is_a_logic_tick():
    # A controller waiting on unchanged inputs may skip the logic ticks
    # between sense ticks only because every input change lands on one,
    # and the ticks up to the next logic tick are free only because
    # every telemetry tick is one too.  Every dt that divides the task
    # periods is 0.01 s / n; down to 10 us, the sense and telemetry
    # periods are 2 and 5 logic periods.
    for n in range(1, 1001):
        schedule = TaskSchedule(0.01 / n)
        sense, logic, telemetry = schedule.period_ticks
        assert (sense, telemetry) == (2 * logic, 5 * logic), n
        for period in (sense, telemetry):
            assert all(schedule.due_at_tick(tick)[1]
                       for tick in range(0, 20 * logic, period)), (n, period)


def test_no_tick_is_free_at_10_ms():
    # Deploy logic runs at 100 Hz, so at dt = 10 ms every slot is due.
    schedule = TaskSchedule(0.01)
    assert not any(schedule.due_at_tick(tick)[3] for tick in range(100))


def test_dt_must_divide_every_period():
    assert task_period_ticks(0.001) == (20, 10, 50)
    assert task_period_ticks(0.01) == (2, 1, 5)
    with pytest.raises(ParameterError):
        task_period_ticks(0.0003)
    with pytest.raises(ParameterError):
        TaskSchedule(0.0003)


# ---------------------------------------------------------------------------
# Phase machine


def test_first_tick_arms():
    ctl = make_controller()
    assert ctl.phase is DeployPhase.LOCKED
    out = ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.0)
    assert out == []
    assert ctl.phase is DeployPhase.AWAIT_WINDOW


def test_no_commands_before_any_sample():
    ctl = make_controller()
    # No reading yet: the sensed altitude is NaN, which confirms no
    # apogee, fires no command and renders as nan in telemetry.
    assert math.isnan(ctl.sensed_altitude)
    row = telemetry_row(ctl)
    assert math.isnan(row.sensed_alt_m)
    assert render_telemetry_csv([row]).splitlines()[2].split(",")[
        TELEMETRY_COLUMNS.index("sensed_alt_m")] == "nan"
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.0)
    for k in range(1, 50):
        assert ctl.task_estimate() is False
        assert ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY,
                                k * 0.01) == []
    assert ctl.phase is DeployPhase.AWAIT_WINDOW
    assert not ctl.apogee_seen


def test_in_window_without_apogee_never_fires():
    ctl = make_controller()
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.0)
    # Rising through the window on ascent: armed-after-apogee says wait.
    for k, altitude in enumerate((100.0, 200.0, 300.0, 390.0)):
        now = 0.01 + k * 0.01
        sense(ctl, altitude)
        assert ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY,
                                now) == []
    assert ctl.phase is DeployPhase.AWAIT_WINDOW


def test_unlock_fires_inside_window_after_apogee():
    ctl = make_controller()
    arm_with_apogee(ctl)
    sense(ctl, 399.5)
    out = ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.03)
    assert out == [("unlock", 399.5)]
    assert ctl.phase is DeployPhase.UNLOCKING
    # Unlocking emits nothing more while the rod retracts.
    assert ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY,
                            0.04) == []


def test_window_bounds_are_inclusive():
    for boundary in (400.0, 150.0):
        ctl = make_controller()
        arm_with_apogee(ctl)
        sense(ctl, boundary)
        out = ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.03)
        assert [c.name for c in out] == ["unlock"], boundary


def test_arm_after_apogee_disabled_fires_on_first_window_entry():
    ctl = make_controller(arm_after_apogee=False)
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.0)
    sense(ctl, 399.0)
    out = ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.01)
    assert [c.name for c in out] == ["unlock"]


def test_window_missed_goes_safe():
    ctl = make_controller()
    arm_with_apogee(ctl)
    # The window flashes past between samples; next reading is below floor.
    sense(ctl, 140.0)
    out = ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.03)
    assert out == []
    assert ctl.phase is DeployPhase.SAFE_HOLD
    assert ctl.safe_hold_reason is SafeHoldReason.WINDOW_MISSED


def test_apogee_confirm_drop_threshold():
    ctl = make_controller()
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.0)
    assert not sense(ctl, 500.0)
    assert not sense(ctl, 495.1)    # 4.9 m drop: not confirmed yet
    assert not ctl.apogee_seen
    assert sense(ctl, 495.0)        # 5.0 m drop: confirmed on this call
    assert ctl.apogee_seen
    assert not sense(ctl, 480.0)    # reported once only


def _idle_controllers():
    """Controllers whose deploy logic rests idle, each with the peak of
    its latched readings at 600 m or 500 m."""
    pre = make_controller()
    pre.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.0)
    sense(pre, 600.0)
    armed = make_controller(arm_after_apogee=False)
    armed.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.0)
    sense(armed, 600.0)
    post = make_controller()
    arm_with_apogee(post)
    held_pre = make_controller()
    held_pre.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.0)
    sense(held_pre, 600.0)
    held_pre.update_phase(LOCKED_DOOR, IDLE_CARRIER, DEAD_BATTERY, 0.01)
    held_post = make_controller()
    arm_with_apogee(held_post)
    held_post.update_phase(LOCKED_DOOR, IDLE_CARRIER, DEAD_BATTERY, 0.03)
    return {"awaiting": pre, "armed_before_apogee": armed,
            "awaiting_after_apogee": post, "held_before_apogee": held_pre,
            "held_after_apogee": held_post}


@pytest.mark.parametrize("name", sorted(_idle_controllers()))
def test_wakes_on_names_exactly_the_readings_that_move_it(name):
    # A sense tick latches the reading and the peak, estimates, then
    # runs deploy logic: the controller moves (confirms apogee, changes
    # phase or commands) on exactly the readings `wakes_on` names.
    ctl = _idle_controllers()[name]
    wake = ctl.wakes_on()
    assert (wake is None) == (name == "held_after_apogee")
    low, high, drop = wake or (math.inf, -math.inf, math.inf)
    readings = [0.0, 100.0, 149.9, 150.0, 150.1, 300.0, 399.9, 400.0,
                400.1, 494.9, 495.0, 495.1, 500.0, 594.9, 595.0, 595.1,
                600.0, 700.0]
    moved = []
    for altitude in readings:
        probe = deepcopy(ctl)
        before = (probe.phase, probe.apogee_seen)
        peak = max(probe.sensed_peak, altitude)
        confirmed = sense(probe, altitude)
        out = probe.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 1.0)
        assert confirmed == (probe.apogee_seen and not before[1])
        if out or (probe.phase, probe.apogee_seen) != before:
            moved.append(altitude)
        assert (altitude in moved) == (low <= altitude <= high
                                       or peak - altitude >= drop), altitude
    assert (moved == []) == (name == "held_after_apogee")


def test_reads_changes_on_each_input_deploy_logic_branches_on():
    # The mission loop skips deploy logic up to its deadline while
    # `reads` is what it was when deploy logic last ran, so each input
    # `update_phase` branches on must change it.
    ctl = make_controller()
    door, carrier, battery = DoorState(), CarrierState(), replace(GOOD_BATTERY)
    drive = carrier_drive(NOMINAL.servo, MECH, NO_FAULTS, NOMINAL.payload.mass)

    def sense_apogee():
        ctl.task_sense(494.0, 500.0)    # the same reading, a higher peak
        assert ctl.task_estimate()

    def reach_stroke():
        step_carrier(carrier, MECH.stroke, drive)
        assert carrier.payload_displacement >= MECH.stroke

    def end_retract():
        step_carrier(carrier, MECH.stroke, drive)
        assert not carrier.pushing

    changes = [
        ("phase", lambda: ctl.update_phase(door, carrier, battery, 0.0)),
        ("sensed altitude", lambda: ctl.task_sense(494.0, 494.0)),
        ("apogee sensed", sense_apogee),
        ("rod unlocked", lambda: command_unlock(door, 1.0)),
        ("door open", lambda: step_door(door, NOMINAL.door,
                                        NOMINAL.door.max_open)),
        ("push begun", lambda: begin_push(carrier, door.open)),
        ("push at the stroke", reach_stroke),
        ("retract ended", end_retract),
        ("pack failed", lambda: drain_battery(battery, battery.charge, 2.0, 1,
                                              [0.0, 0.0, 0.0])),
    ]
    for name, change in changes:
        before = ctl.reads(door, carrier, battery)
        change()
        assert ctl.reads(door, carrier, battery) != before, name
    assert battery.failed


# The mechanism state that holds each phase from Unlocking to Push(3),
# and the state that moves it on (the end of the dwell does that).
HOLDING = {
    DeployPhase.UNLOCKING: (LOCKED_DOOR, IDLE_CARRIER),
    DeployPhase.DOOR_OPEN_WAIT: (UNLOCKED_DOOR, IDLE_CARRIER),
    DeployPhase.STABILIZE_DELAY: (OPEN_DOOR, IDLE_CARRIER),
    DeployPhase.PUSH_1: (OPEN_DOOR, CarrierState(pushing=True)),
    DeployPhase.PUSH_2: (OPEN_DOOR, CarrierState(pushing=True,
                                                 push_count=1)),
    DeployPhase.PUSH_3: (OPEN_DOOR, CarrierState(pushing=True,
                                                 push_count=2)),
}
ADVANCING = {
    DeployPhase.UNLOCKING: (UNLOCKED_DOOR, IDLE_CARRIER),
    DeployPhase.DOOR_OPEN_WAIT: (OPEN_DOOR, IDLE_CARRIER),
    DeployPhase.STABILIZE_DELAY: (OPEN_DOOR, IDLE_CARRIER),
    DeployPhase.PUSH_1: (OPEN_DOOR, CarrierState(push_count=1)),
    DeployPhase.PUSH_2: (OPEN_DOOR, CarrierState(push_count=2)),
    DeployPhase.PUSH_3: (OPEN_DOOR, CarrierState(push_count=3)),
}


def deploying(dt):
    """{phase: (controller, tick)}: a copy of the controller as it
    enters each phase from Unlocking to Push(3) on a logic tick of `dt`
    s, and that tick.  It unlocks on logic tick 6,500, and each phase
    moves on 37 logic ticks after it began, the dwell at its end."""
    logic = task_period_ticks(dt)[1]
    ctl = make_controller()
    arm_with_apogee(ctl)
    sense(ctl, 399.0)
    tick = 6_500 * logic
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, tick * dt)
    entered = {}
    while ctl.phase in HOLDING:
        phase = ctl.phase
        entered[phase] = (deepcopy(ctl), tick)
        tick += 37 * logic
        while True:
            ctl.update_phase(*ADVANCING[phase], GOOD_BATTERY, tick * dt)
            if ctl.phase is not phase:
                break
            tick += logic
    assert ctl.safe_hold_reason is SafeHoldReason.PUSHES_EXHAUSTED
    assert list(entered) == list(HOLDING)
    return entered


def test_wakes_on_a_reading_below_the_floor_from_unlocking_to_the_ejection():
    # Past AwaitWindow a latched reading below the floor aborts: the
    # float just below it wakes the loop and holds, the floor itself
    # does neither.
    for phase, (ctl, tick) in deploying(0.01).items():
        low, high, drop = ctl.wakes_on()
        floor = ctl.trigger.deploy_floor
        below = math.nextafter(floor, -math.inf)
        assert low <= below <= high, phase
        assert not low <= floor <= high, phase
        assert drop == math.inf, phase      # apogee is sensed
        for altitude in (below, floor):
            probe = deepcopy(ctl)
            sense(probe, altitude)
            probe.update_phase(*HOLDING[phase], GOOD_BATTERY,
                               (tick + 1) * 0.01)
            held = probe.safe_hold_reason is SafeHoldReason.FLOOR_BREACHED
            assert held == (altitude == below), (phase, altitude)


def test_wakes_on_nothing_once_ejected_or_held():
    # After a sensed apogee no reading moves an absorbing phase.
    for phase, (ctl, tick) in deploying(0.01).items():
        held = deepcopy(ctl)
        held.update_phase(*HOLDING[phase], DEAD_BATTERY, (tick + 1) * 0.01)
        assert held.phase is DeployPhase.SAFE_HOLD
        assert held.wakes_on() is None, phase
        if phase in (DeployPhase.PUSH_1, DeployPhase.PUSH_2,
                     DeployPhase.PUSH_3):
            ejected = CarrierState(pushing=True,
                                   payload_displacement=MECH.stroke)
            ctl.update_phase(OPEN_DOOR, ejected, GOOD_BATTERY,
                             (tick + 1) * 0.01)
            assert ctl.phase is DeployPhase.EJECTED
            assert ctl.wakes_on() is None, phase


# 0.01 / 3 is a clock off the decimal grid, where the search walks.
@pytest.mark.parametrize("dt", [0.001, 0.00125, 0.01, 0.01 / 3])
def test_deadline_tick_is_the_logic_tick_update_phase_first_acts_on(dt):
    # Held by the mechanism, each timed phase acts first when its
    # timeout fires: the door timeout (from the unlock, in both door
    # phases), the end of the settle dwell, the push timeout.
    logic = task_period_ticks(dt)[1]
    ticks = round(400.0 / dt)
    for phase, (ctl, tick) in deploying(dt).items():
        deadline = ctl.deadline_tick(tick, dt, logic, ticks)
        assert deadline % logic == 0 and tick < deadline < ticks, phase
        # A run that ends before it gets its tick count.
        for end in (deadline - 1, deadline + 1):
            assert ctl.deadline_tick(tick, dt, logic, end) == min(
                deadline, end), phase
        # Asked after it, the next logic tick.
        late = deadline + logic + 1
        assert ctl.deadline_tick(late, dt, logic, ticks) == (
            late + logic - late % logic), phase
        while ctl.phase is phase:
            tick += logic
            ctl.update_phase(*HOLDING[phase], GOOD_BATTERY, tick * dt)
        assert tick == deadline, phase


def test_deadline_tick_without_a_running_timeout_is_the_tick_count():
    ctl = make_controller()
    assert ctl.deadline_tick(0, 0.001, 10, 400_000) == 400_000
    arm_with_apogee(ctl)
    assert ctl.phase is DeployPhase.AWAIT_WINDOW
    assert ctl.deadline_tick(10, 0.001, 10, 400_000) == 400_000


def test_door_timeout_from_unlock_command():
    ctl = make_controller()
    arm_with_apogee(ctl)
    sense(ctl, 399.0)
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.03)
    now = 0.03
    while now < 0.03 + 2.0 - 0.011:
        now = round(now + 0.01, 6)
        assert ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY,
                                now) == []
        assert ctl.phase is DeployPhase.UNLOCKING
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 2.03)
    assert ctl.phase is DeployPhase.SAFE_HOLD
    assert ctl.safe_hold_reason is SafeHoldReason.DOOR_TIMEOUT


def test_door_open_timeout_also_counts_from_unlock():
    ctl = make_controller()
    arm_with_apogee(ctl)
    sense(ctl, 399.0)
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.03)
    # Rod finishes quickly, but the hinge never swings to open.
    ctl.update_phase(UNLOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.53)
    assert ctl.phase is DeployPhase.DOOR_OPEN_WAIT
    ctl.update_phase(UNLOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 2.02)
    assert ctl.phase is DeployPhase.DOOR_OPEN_WAIT
    ctl.update_phase(UNLOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 2.03)
    assert ctl.phase is DeployPhase.SAFE_HOLD
    assert ctl.safe_hold_reason is SafeHoldReason.DOOR_TIMEOUT


def test_stabilize_dwell_is_exactly_two_seconds():
    ctl = make_controller()
    arm_with_apogee(ctl)
    sense(ctl, 399.0)
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.03)
    ctl.update_phase(OPEN_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.56)
    assert ctl.phase is DeployPhase.DOOR_OPEN_WAIT
    ctl.update_phase(OPEN_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.57)
    assert ctl.phase is DeployPhase.STABILIZE_DELAY

    hold_until = 0.57 + STABILIZE_DWELL_S
    now = 0.57
    while now < hold_until - 0.011:
        now = round(now + 0.01, 6)
        assert ctl.update_phase(OPEN_DOOR, IDLE_CARRIER, GOOD_BATTERY,
                                now) == []
    out = ctl.update_phase(OPEN_DOOR, IDLE_CARRIER, GOOD_BATTERY, hold_until)
    assert [(c.name, c.value) for c in out] == [("push", 1.0)]
    assert ctl.phase is DeployPhase.PUSH_1


def walk_to_first_push(ctl):
    arm_with_apogee(ctl)
    sense(ctl, 399.0)
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.03)
    ctl.update_phase(OPEN_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.56)
    ctl.update_phase(OPEN_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.57)
    out = ctl.update_phase(OPEN_DOOR, IDLE_CARRIER, GOOD_BATTERY, 2.57)
    assert [c.name for c in out] == ["push"]
    return 2.57


def test_push_retry_sequence_then_exhaustion():
    ctl = make_controller()
    t = walk_to_first_push(ctl)

    # Cycle 1 completes without ejection: retry.
    done_1 = CarrierState(push_count=1, payload_displacement=0.0)
    out = ctl.update_phase(OPEN_DOOR, done_1, GOOD_BATTERY, t + 2.0)
    assert [(c.name, c.value) for c in out] == [("push", 2.0)]
    assert ctl.phase is DeployPhase.PUSH_2

    done_2 = CarrierState(push_count=2, payload_displacement=0.0)
    out = ctl.update_phase(OPEN_DOOR, done_2, GOOD_BATTERY, t + 4.0)
    assert [(c.name, c.value) for c in out] == [("push", 3.0)]
    assert ctl.phase is DeployPhase.PUSH_3

    done_3 = CarrierState(push_count=3, payload_displacement=0.0)
    out = ctl.update_phase(OPEN_DOOR, done_3, GOOD_BATTERY, t + 6.0)
    assert out == []
    assert ctl.phase is DeployPhase.SAFE_HOLD
    assert ctl.safe_hold_reason is SafeHoldReason.PUSHES_EXHAUSTED


def test_ejection_ends_the_sequence():
    ctl = make_controller()
    t = walk_to_first_push(ctl)
    ejected = CarrierState(push_count=1, payload_displacement=MECH.stroke)
    out = ctl.update_phase(OPEN_DOOR, ejected, GOOD_BATTERY, t + 2.0)
    assert out == []
    assert ctl.phase is DeployPhase.EJECTED
    # Absorbing: nothing further, ever.
    assert ctl.update_phase(OPEN_DOOR, ejected, GOOD_BATTERY, t + 3.0) == []
    assert ctl.phase is DeployPhase.EJECTED


def test_push_timeout_default_is_three_cycles():
    # Resolved in the scenario: 3 * (2 * 0.060 m / 0.0628 m/s) = 5.7296 s.
    assert NOMINAL.trigger.push_timeout == pytest.approx(5.72957795,
                                                         rel=1e-8)
    ctl = make_controller()
    t = walk_to_first_push(ctl)
    stuck = CarrierState(pushing=True, stalled=True)
    ctl.update_phase(OPEN_DOOR, stuck, GOOD_BATTERY, t + 5.72)
    assert ctl.phase is DeployPhase.PUSH_1
    ctl.update_phase(OPEN_DOOR, stuck, GOOD_BATTERY, t + 5.73)
    assert ctl.safe_hold_reason is SafeHoldReason.PUSH_TIMEOUT


def test_push_timeout_goes_safe():
    ctl = make_controller(push_timeout=1.0)
    t = walk_to_first_push(ctl)
    stuck = CarrierState(pushing=True, stalled=True)
    out = ctl.update_phase(OPEN_DOOR, stuck, GOOD_BATTERY, t + 0.99)
    assert out == []
    assert ctl.phase is DeployPhase.PUSH_1
    ctl.update_phase(OPEN_DOOR, stuck, GOOD_BATTERY, t + 1.0)
    assert ctl.phase is DeployPhase.SAFE_HOLD
    assert ctl.safe_hold_reason is SafeHoldReason.PUSH_TIMEOUT


def test_floor_breach_aborts_mid_sequence():
    ctl = make_controller()
    walk_to_first_push(ctl)
    sense(ctl, 149.0)
    out = ctl.update_phase(OPEN_DOOR, CarrierState(pushing=True),
                           GOOD_BATTERY, 2.58)
    assert out == []
    assert ctl.phase is DeployPhase.SAFE_HOLD
    assert ctl.safe_hold_reason is SafeHoldReason.FLOOR_BREACHED


def test_battery_failure_aborts_any_active_phase():
    ctl = make_controller()
    walk_to_first_push(ctl)
    # Below the floor too; the power check must win.
    sense(ctl, 10.0)
    ctl.update_phase(OPEN_DOOR, CarrierState(pushing=True), DEAD_BATTERY, 2.58)
    assert ctl.safe_hold_reason is SafeHoldReason.BATTERY_FAILURE


def test_safe_hold_is_absorbing_and_silent():
    ctl = make_controller()
    arm_with_apogee(ctl)
    sense(ctl, 140.0)
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, 0.03)
    assert ctl.phase is DeployPhase.SAFE_HOLD
    # Feed perfect in-window conditions afterwards: it must never act.
    for k in range(200):
        now = 0.04 + k * 0.01
        sense(ctl, 300.0)
        assert ctl.update_phase(OPEN_DOOR, IDLE_CARRIER, GOOD_BATTERY,
                                now) == []
    assert ctl.phase is DeployPhase.SAFE_HOLD
    assert ctl.safe_hold_reason is SafeHoldReason.WINDOW_MISSED


def telemetry_row(ctl, carrier=IDLE_CARRIER, battery=GOOD_BATTERY,
                  faults=NO_FAULTS):
    vehicle = FlightState(altitude=321.0, velocity=-12.0, mass=26.0,
                          phase=FlightPhase.DROGUE_DESCENT)
    return make_telemetry_record(1.0, vehicle, ctl, OPEN_DOOR, carrier,
                                 battery, ctl.sensed_altitude, 0.9, faults)


def test_phase_labels():
    ctl = make_controller()
    assert telemetry_row(ctl).deploy_phase == "Locked"
    walk_to_first_push(ctl)
    assert telemetry_row(ctl).deploy_phase == "Push(1)"
    sense(ctl, 10.0)
    ctl.update_phase(OPEN_DOOR, CarrierState(pushing=True), GOOD_BATTERY, 2.58)
    assert telemetry_row(ctl).deploy_phase == "SafeHold(floor-breached)"


def test_trigger_config_validation():
    with pytest.raises(ParameterError):
        replace(NOMINAL.trigger, deploy_ceiling=100.0, deploy_floor=100.0)
    with pytest.raises(ParameterError):
        replace(NOMINAL.trigger, deploy_ceiling=100.0, deploy_floor=200.0)


def test_telemetry_record_snapshot():
    ctl = make_controller()
    record = telemetry_row(ctl, CarrierState(rack_extension=0.01,
                                             push_count=1))
    assert record.time_s == 1.0
    assert record.truth_alt_m == 321.0
    assert record.truth_vel_mps == -12.0
    assert record.flight_phase == "DrogueDescent"
    assert record.deploy_phase == "Locked"
    assert record.rack_ext_m == 0.01
    assert record.push_count == 1
    assert record.current_a == 0.9
    assert record.battery_v == 7.4
    assert record.fault_flags == "-"
    # No sample latched yet: sensed altitude is NaN.
    assert record.sensed_alt_m != record.sensed_alt_m


def test_telemetry_fault_flags_in_fixed_order():
    ctl = make_controller()
    carrier = CarrierState(link_broken=True, slipped=True, stalled=True)
    faults = replace(NO_FAULTS, door_jam=True, surface_friction_scale=3.0)
    record = telemetry_row(ctl, carrier, DEAD_BATTERY, faults)
    assert record.fault_flags == (
        "power+door_jam+link_break+gear_slip+stall+friction_scaled")
    stalled = telemetry_row(ctl, CarrierState(stalled=True))
    assert stalled.fault_flags == "stall"

"""Deployment controller and task schedule tests.

The controller is driven open loop here: sensed altitudes are fed by
hand and the door/carrier/battery states are plain structs, so every
transition lands on an exact, assertable logic tick.
"""

import math
from dataclasses import replace

import pytest

from deploysim import ParameterError, build_scenario
from deploysim.actuation import CarrierState, DoorState
from deploysim.controller import (STABILIZE_DWELL_S, DeployPhase,
                                  DeploymentController, SafeHoldReason,
                                  TaskSchedule, task_period_ticks)
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
    """Feed one reading; True when it confirms apogee."""
    ctl.task_sense(altitude)
    return ctl.task_estimate()


def arm_with_apogee(ctl, peak=500.0, now=0.0):
    """Arm the controller and confirm apogee with a clean 6 m drop."""
    ctl.update_phase(LOCKED_DOOR, IDLE_CARRIER, GOOD_BATTERY, now)
    sense(ctl, peak)
    sense(ctl, peak - 6.0)
    assert ctl.apogee_seen


# ---------------------------------------------------------------------------
# Task schedule: (sense, deploy logic, telemetry) due flags, then the
# number of task-free ticks that follow, and the number that follow with
# no task but deploy logic due.


def test_all_tasks_due_at_time_zero():
    schedule = TaskSchedule(0.001)
    assert schedule.due_at_tick(0) == (True, True, True, 9, 19)


def test_dueness_at_sample_times():
    schedule = TaskSchedule(0.001)
    assert schedule.due_at_tick(20) == (True, True, False, 9, 19)
    assert schedule.due_at_tick(30) == (False, True, False, 9, 9)
    assert schedule.due_at_tick(40) == (True, True, False, 9, 9)
    assert schedule.due_at_tick(50) == (False, True, True, 9, 9)
    assert schedule.due_at_tick(13) == (False, False, False, 6, 6)


def test_rates_actually_hit():
    schedule = TaskSchedule(0.001)
    counts = [0, 0, 0]
    for tick in range(1000):
        for index, due in enumerate(schedule.due_at_tick(tick)[:3]):
            counts[index] += due
    assert counts == [50, 100, 20]


@pytest.mark.parametrize("dt", [0.001, 0.0005, 0.002, 0.01])
def test_free_count_is_the_run_of_task_free_ticks_that_follows(dt):
    schedule = TaskSchedule(dt)
    horizon = 1000
    busy = [any(schedule.due_at_tick(tick)[:3]) for tick in range(horizon)]
    for tick in range(horizon - 100):
        run = 0
        while not busy[tick + 1 + run]:
            run += 1
        assert schedule.due_at_tick(tick)[3] == run, tick


@pytest.mark.parametrize("dt", [0.001, 0.0005, 0.002, 0.01])
def test_quiet_count_is_the_run_of_ticks_without_sense_or_telemetry(dt):
    schedule = TaskSchedule(dt)
    horizon = 1000
    loud = [any(schedule.due_at_tick(tick)[0:3:2]) for tick in range(horizon)]
    for tick in range(horizon - 100):
        run = 0
        while not loud[tick + 1 + run]:
            run += 1
        assert schedule.due_at_tick(tick)[4] == run, tick


def test_every_sense_tick_is_a_logic_tick():
    # A controller waiting on unchanged inputs may skip the logic ticks
    # between sense ticks only because every input change lands on one.
    for dt in (0.001, 0.0005, 0.002, 0.01):
        schedule = TaskSchedule(dt)
        assert all(schedule.due_at_tick(tick)[1] for tick in range(1000)
                   if schedule.due_at_tick(tick)[0]), dt


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
                                 battery, 0.9, faults)


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

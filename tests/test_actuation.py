"""Door, carrier and battery model tests.

Key frozen numbers: no-load rack speed 1 rev/s * pi * 0.020 m =
0.062832 m/s, so a 60 mm stroke takes 0.9549 s one way; the nominal
drive force is 83.3 N against 5.9889 N/kg of payload load.
"""

import collections
import math
import random
from dataclasses import replace

import pytest

from deploysim import (
    ContractViolationError,
    MechanismParams,
    ParameterError,
    build_scenario,
    bundled_scenario,
    list_bundled,
    run_mission,
    scenario_with,
    sizing_report,
)
from deploysim.actuation import (BatteryState, CarrierDrive, CarrierState,
                                 DoorState, begin_push, carrier_drive,
                                 command_unlock, drain_battery, halt_carrier,
                                 rack_speed, step_carrier, step_door)
from deploysim.mechanism import max_payload_mass

NOMINAL = build_scenario()
SERVO = NOMINAL.servo
DOOR = NOMINAL.door
MECH = NOMINAL.mechanism
NO_FAULTS = NOMINAL.faults
FULL_BATTERY = NOMINAL.battery
DEAD_BATTERY = replace(FULL_BATTERY, voltage=0.0, charge=0.0, failed=True)
DRIVE = carrier_drive(SERVO, MECH, NO_FAULTS, 1.0)
DT = 0.001
# The one-tick steps run_mission hands the steppers at 1 ms.
ROD_STEP = DT / DOOR.rod_travel_time
SWING = DOOR.max_open / DOOR.open_time * DT
TRAVEL = DRIVE.rack_speed * DT


def run_push_cycle(mass, faults=NO_FAULTS, carrier=None, max_steps=5000):
    """Drive one full cycle in place; returns (carrier, steps, moved,
    currents), where `moved` is the payload displacement it gained."""
    if carrier is None:
        carrier = CarrierState()
    begin_push(carrier, door_open=True)
    drive = carrier_drive(SERVO, MECH, faults, mass)
    start = carrier.payload_displacement
    currents = []
    for step in range(1, max_steps + 1):
        stepped, current = step_carrier(carrier, TRAVEL, drive)
        assert stepped is carrier
        currents.append(current)
        if not carrier.pushing:
            break
    return carrier, step, carrier.payload_displacement - start, currents


def test_rack_speed_frozen():
    assert rack_speed(SERVO, 0.020) == pytest.approx(0.06283185307179587)


def test_full_stroke_takes_expected_time():
    carrier = CarrierState()
    begin_push(carrier, door_open=True)
    steps = 0
    while carrier.rack_extension < MECH.stroke:
        step_carrier(carrier, TRAVEL, DRIVE)
        steps += 1
    # 0.060 / 0.062832 = 0.9549 s, quantized up to the next millisecond.
    assert steps == 955
    assert carrier.push_count == 1
    assert carrier.retracting


def test_push_cycle_moves_payload_full_stroke():
    carrier, steps, moved, currents = run_push_cycle(1.0)
    assert moved == pytest.approx(MECH.stroke)
    assert carrier.payload_displacement == pytest.approx(MECH.stroke)
    assert carrier.rack_extension == 0.0
    assert not carrier.pushing
    # Extend plus retract at the same speed: just under 1.91 s.
    assert steps == pytest.approx(2 * 955, abs=1)
    assert set(currents) == {SERVO.running_current_max}
    assert carrier.payload_displacement >= MECH.stroke


def test_heavy_payload_stalls_at_stall_current():
    # 20 kg of load is 119.8 N against 83.3 N of drive.
    carrier, steps, moved, currents = run_push_cycle(20.0, max_steps=500)
    assert carrier.pushing
    assert carrier.stalled
    assert moved == 0.0
    assert carrier.rack_extension == 0.0
    assert set(currents) == {SERVO.stall_current}


def test_stall_boundary_matches_sizing_chain():
    """The go/no-go threshold is the sizing-chain mass limit exactly."""
    limit = sizing_report(MECH).max_payload_mass
    just_below = limit * (1 - 1e-9)
    just_above = limit * (1 + 1e-9)
    below, _, below_moved, _ = run_push_cycle(just_below)
    above, _, above_moved, _ = run_push_cycle(just_above, max_steps=200)
    assert below_moved == pytest.approx(MECH.stroke)
    assert not below.stalled
    assert above.stalled
    assert above_moved == 0.0


def test_stall_boundary_brute_force():
    rng = random.Random(77)
    limit = sizing_report(MECH).max_payload_mass
    for _ in range(40):
        mass = rng.uniform(0.2, 20.0)
        if abs(mass - limit) < 1e-6:
            continue
        carrier, _, moved, _ = run_push_cycle(mass, max_steps=60)
        if mass < limit:
            assert moved > 0.0, f"{mass} kg should move"
        else:
            assert carrier.stalled and moved == 0.0, f"{mass} kg should stall"


def test_friction_scale_shrinks_the_limit():
    faults = replace(NO_FAULTS, surface_friction_scale=3.0)
    # 6 kg clears the nominal limit but not the tripled-friction one.
    nominal_limit = sizing_report(MECH).max_payload_mass
    scaled_limit = max_payload_mass(
        sizing_report(MECH).effective_tangential_force,
        3.0 * MECH.friction_coefficient,
        sizing_report(MECH).required_acceleration)
    assert scaled_limit < 6.0 < nominal_limit
    carrier, _, moved, currents = run_push_cycle(6.0, faults=faults,
                                                 max_steps=200)
    assert carrier.stalled
    assert moved == 0.0
    assert set(currents) == {SERVO.stall_current}


def test_stall_boundary_is_the_sizing_limit_to_the_float():
    # A payload of exactly the limit the sizing chain reports moves and
    # one float above it stalls, on any drivetrain and surface.
    rng = random.Random(26)
    for _ in range(2000):
        params = MechanismParams(
            servo_stall_torque=rng.uniform(0.1, 3.0),
            pinion_pitch_diameter=rng.uniform(0.005, 0.05),
            drivetrain_efficiency=rng.uniform(0.3, 1.0),
            friction_coefficient=rng.uniform(0.0, 1.5),
            stroke=rng.uniform(0.01, 0.2),
            deployment_time_budget=rng.uniform(0.5, 10.0))
        scale = rng.choice((1.0, rng.uniform(0.0, 4.0)))
        faults = replace(NO_FAULTS, surface_friction_scale=scale)
        limit = sizing_report(replace(
            params, friction_coefficient=params.friction_coefficient * scale)
        ).max_payload_mass
        above = math.nextafter(limit, math.inf)
        assert not carrier_drive(SERVO, params, faults, limit).stalls, (
            params, scale)
        assert carrier_drive(SERVO, params, faults, above).stalls, (
            params, scale)


def test_gear_slip_completes_cycle_without_motion():
    faults = replace(NO_FAULTS, gear_slip_push=1)
    carrier, _, moved, _ = run_push_cycle(1.0, faults=faults)
    assert carrier.push_count == 1
    assert carrier.slipped
    assert moved == 0.0
    assert carrier.payload_displacement == 0.0


def test_gear_slip_from_second_push_only():
    faults = replace(NO_FAULTS, gear_slip_push=2)
    carrier, _, first, _ = run_push_cycle(1.0, faults=faults)
    assert first == pytest.approx(MECH.stroke)
    carrier, _, second, _ = run_push_cycle(1.0, faults=faults, carrier=carrier)
    assert second == 0.0
    assert carrier.slipped
    carrier, _, third, _ = run_push_cycle(1.0, faults=faults, carrier=carrier)
    assert third == 0.0, "slip persists once it has started"


def test_link_break_stops_transmission_permanently():
    # 1 kg loads the link at about 6 N; a 3 N fuse snaps immediately.
    faults = replace(NO_FAULTS, link_break_force=3.0)
    carrier, _, moved, _ = run_push_cycle(1.0, faults=faults)
    assert carrier.link_broken
    assert moved == 0.0
    assert carrier.push_count == 1, "the rack itself still cycles"
    carrier, _, again, _ = run_push_cycle(1.0, faults=faults, carrier=carrier)
    assert again == 0.0


def test_link_survives_below_threshold():
    faults = replace(NO_FAULTS, link_break_force=50.0)
    carrier, _, moved, _ = run_push_cycle(1.0, faults=faults)
    assert not carrier.link_broken
    assert moved == pytest.approx(MECH.stroke)


def test_halt_carrier_freezes_cycle():
    carrier = CarrierState()
    begin_push(carrier, door_open=True)
    for _ in range(100):
        step_carrier(carrier, TRAVEL, DRIVE)
    moving = replace(carrier)
    assert halt_carrier(carrier) is None
    assert carrier == replace(moving, pushing=False, retracting=False)
    assert carrier.rack_extension > 0.0
    frozen = replace(carrier)
    halt_carrier(carrier)
    assert carrier == frozen
    # A stalled drive lets go too.
    stalled, _, _, _ = run_push_cycle(20.0, max_steps=5)
    assert stalled.stalled and stalled.pushing
    halt_carrier(stalled)
    assert stalled == CarrierState()


def test_begin_push_requires_open_door():
    with pytest.raises(ContractViolationError):
        begin_push(CarrierState(), door_open=False)


def test_begin_push_is_idempotent_while_cycling():
    carrier = CarrierState()
    assert begin_push(carrier, door_open=True) is None
    started = replace(carrier)
    assert started == CarrierState(pushing=True)
    begin_push(carrier, door_open=True)
    assert carrier == started
    # Halfway back, a second push leaves the retraction running.
    while not carrier.retracting:
        step_carrier(carrier, TRAVEL, DRIVE)
    for _ in range(400):
        step_carrier(carrier, TRAVEL, DRIVE)
    retracting = replace(carrier)
    assert retracting.pushing and retracting.retracting
    assert 0.0 < retracting.rack_extension < MECH.stroke
    begin_push(carrier, door_open=True)
    assert carrier == retracting


def test_second_cycle_transmits_nothing_after_full_stroke():
    # Payload contact is lost at full stroke; extra pushes are free runs.
    carrier, _, first, _ = run_push_cycle(1.0)
    assert first == pytest.approx(MECH.stroke)
    carrier, _, second, _ = run_push_cycle(1.0, carrier=carrier)
    assert second == 0.0
    assert carrier.push_count == 2


# ---------------------------------------------------------------------------
# Door


def test_unlock_takes_rod_travel_time():
    door = DoorState()
    steps = 0
    while door.locked:
        assert command_unlock(door, ROD_STEP) is None
        steps += 1
    assert steps == 500  # 0.5 s at 1 ms
    assert door.rod_travel == 0.0


def test_door_swings_open_after_unlock():
    door = DoorState(locked=False, rod_travel=0.0)
    steps = 0
    while not door.open:
        assert step_door(door, DOOR, SWING) is None
        steps += 1
    # 85 deg of a 90 deg swing at 0.3 s full travel: 283.3 ms.
    assert steps == 284
    for _ in range(100):
        step_door(door, DOOR, SWING)
    assert door.angle == DOOR.max_open


# ---------------------------------------------------------------------------
# Battery


def test_constant_draw_coulomb_count():
    battery = replace(FULL_BATTERY)
    for _ in range(5000):
        drain_battery(battery, 0.9, DT, 1, [0.0, 0.0, 0.0])
    assert FULL_BATTERY.charge - battery.charge == pytest.approx(4.5)
    assert not battery.failed


def test_drain_audit_matches_fsum():
    """Tick-by-tick drain equals the compensated sum of i*dt to 1e-9."""
    rng = random.Random(55)
    currents = [rng.uniform(0.0, 2.0) for _ in range(20000)]
    battery = replace(FULL_BATTERY)
    drawn = []
    for i in currents:
        before = battery.charge
        delivered = drain_battery(battery, i, DT, 1, [0.0, 0.0, 0.0])
        assert delivered == before - battery.charge
        drawn.append(delivered)
    assert math.fsum(drawn) == pytest.approx(
        math.fsum(i * DT for i in currents), abs=1e-9)


def test_exhaustion_zeroes_voltage():
    battery = replace(FULL_BATTERY, charge=0.05)
    assert drain_battery(battery, 2.0, 0.1, 1, [0.0, 0.0, 0.0]) == 0.05
    assert battery.failed
    assert battery.voltage == 0.0
    assert battery.charge == 0.0


def test_failed_battery_is_absorbing():
    battery = replace(DEAD_BATTERY, charge=100.0)
    before = replace(battery)
    assert drain_battery(battery, 1.0, DT, 1, [0.0, 0.0, 0.0]) == 0.0
    assert battery == before


def test_zero_draw_is_free():
    battery = replace(FULL_BATTERY)
    assert drain_battery(battery, 0.0, DT, 1, [0.0, 0.0, 0.0]) == 0.0
    assert battery == FULL_BATTERY


def test_servo_current_ordering_enforced():
    with pytest.raises(ParameterError):
        replace(SERVO, running_current_max=2.5, stall_current=2.0)
    with pytest.raises(ParameterError):
        replace(SERVO, stall_current=0.1)


# ---------------------------------------------------------------------------
# Segments: the mission loop steps the ticks of a rest on which nothing
# can change in one call per stepper.


def one_call_and_tick_calls(step, record, ticks):
    """Step one copy of `record` `ticks` ticks in one call of
    `step(record, ticks)` and another in `ticks` one-tick calls, and
    check that both leave the same floats, bit for bit.  Returns the
    results of the one call and of the last one-tick call, and the
    record the one-tick calls left."""
    segment, each = replace(record), replace(record)
    got = step(segment, ticks)
    for _ in range(ticks):
        want = step(each, 1)
    assert repr(segment) == repr(each)
    return got, want, each


def test_one_call_of_n_ticks_is_n_one_tick_calls():
    rng = random.Random(40)
    seen = collections.Counter()
    for _ in range(400):
        ticks = rng.randint(1, 60)

        rod_step = rng.uniform(1e-3, 0.05)
        _, _, door = one_call_and_tick_calls(
            lambda door, n: command_unlock(door, rod_step, n),
            DoorState(rod_travel=rng.uniform(1e-3, 1.0)), ticks)
        seen["unlocked"] += not door.locked

        max_open = rng.uniform(0.5, 2.0)
        spec = replace(DOOR, max_open=max_open,
                       open_threshold=rng.uniform(0.1, max_open))
        swing = rng.uniform(1e-3, 0.1)
        _, _, door = one_call_and_tick_calls(
            lambda door, n: step_door(door, spec, swing, n),
            DoorState(locked=False, rod_travel=0.0,
                      angle=rng.uniform(0.0, spec.max_open)), ticks)
        seen["max_open"] += door.angle == spec.max_open

        stroke = rng.uniform(0.01, 0.1)
        drive = CarrierDrive(
            rack_speed=rng.uniform(0.01, 0.1), stroke=stroke,
            stalls=rng.random() < 0.2, breaks_link=rng.random() < 0.3,
            slips_from=rng.choice((0, 1, 2, math.inf)),
            running_current=rng.uniform(0.1, 1.0),
            stall_current=rng.uniform(1.0, 2.0))
        travel = rng.uniform(1e-4, stroke / 10)
        carrier = CarrierState(
            rack_extension=rng.uniform(0.0, stroke), pushing=True,
            retracting=rng.random() < 0.5, push_count=rng.randint(0, 2),
            payload_displacement=rng.uniform(0.0, stroke))
        got, want, stepped = one_call_and_tick_calls(
            lambda carrier, n: step_carrier(carrier, travel, drive, n),
            carrier, ticks)
        assert repr(got[1]) == repr(want[1])
        seen["stroke"] += stepped.push_count > carrier.push_count
        seen["zero"] += not stepped.pushing
        seen["slipped"] += stepped.slipped
        seen["link_broken"] += stepped.link_broken
        seen["stalled"] += stepped.stalled

        # Packs that die before, on or after the n-th tick, and drains
        # that do not move a 1 kC charge.
        current = rng.choice((rng.uniform(0.1, 3.0), 1e-13))
        step = current * DT
        charge = rng.choice((step * (ticks - 0.5), rng.uniform(0.0, 0.2),
                             1000.0))
        pack = BatteryState(voltage=7.4, charge=charge)
        battery, each = replace(pack), replace(pack)
        audit = [0.0, 0.5, rng.choice((0.0, 2.0))]
        audit_each, audit_before = list(audit), list(audit)
        got = drain_battery(battery, current, DT, ticks, audit)
        for _ in range(ticks):
            want = drain_battery(each, current, DT, 1, audit_each)
        assert repr((battery, got, audit)) == repr((each, want, audit_each))
        seen["dies_on_nth"] += (charge == step * (ticks - 0.5)
                                and battery.failed and want > 0.0)
        if battery.charge == charge == 1000.0:
            # A tick that delivers 0.0 C leaves the audit, peak included,
            # as it was.
            assert want == 0.0 and audit == audit_before
            seen["unmoved"] += 1
    assert len(seen) == 9 and min(seen.values()) > 0, seen


# ---------------------------------------------------------------------------
# What the mission loop owns: it drives the lock rod and the rack only
# from a live pack, steps only a pushing carrier and swings only an
# unlocked door that is not jammed, so the steppers above need not check.


def _first(result, name):
    """Time of the first event or command called `name`."""
    return next(entry.time for entry in (*result.events, *result.commands)
                if entry.name == name)


@pytest.fixture(scope="module")
def jammed():
    return run_mission(bundled_scenario("altair_door_jam"))


def test_jammed_door_never_swings(jammed):
    # Every row, those after SafeHold included, reads the door shut.
    assert jammed.verdict.safe_hold_reason == "door-timeout"
    assert {row.door_angle_rad for row in jammed.telemetry} == {0.0}
    assert "door_open" not in {event.name for event in jammed.events}


def test_jam_does_not_stop_the_rod(jammed):
    # The jam is in the hinge, not the lock: the rod retracts on time.
    unlocked = _first(jammed, "door_unlocked")
    assert unlocked - _first(jammed, "unlock") == pytest.approx(0.499,
                                                                abs=1e-9)


def test_unlock_noop_on_dead_battery():
    # The pack dies 6 ms before the rod would be fully retracted, between
    # two logic ticks: the rod must not move on the ticks in between.
    unlocked = _first(run_mission(NOMINAL, stop_at_verdict=True),
                      "door_unlocked")
    result = run_mission(scenario_with(
        NOMINAL, {"faults.battery_fail_time": unlocked - 0.006}))
    assert result.verdict.safe_hold_reason == "battery-failure"
    assert [c.name for c in result.commands] == ["unlock"]
    assert "door_unlocked" not in {event.name for event in result.events}
    assert {row.door_angle_rad for row in result.telemetry} == {0.0}


def test_unpowered_carrier_holds_still():
    # The pack dies 503 steps into the first stroke, between two logic
    # ticks: the rack must not move on the ticks in between.
    push = _first(run_mission(NOMINAL, stop_at_verdict=True), "push")
    fail = push + 0.503
    result = run_mission(scenario_with(
        NOMINAL, {"faults.battery_fail_time": fail}))
    assert result.verdict.safe_hold_reason == "battery-failure"
    after = [row for row in result.telemetry if row.time_s >= fail]
    assert after[0].rack_ext_m == pytest.approx(503 * DRIVE.rack_speed * DT,
                                                abs=DRIVE.rack_speed * DT / 2)
    assert {row.rack_ext_m for row in after} == {after[0].rack_ext_m}
    assert {row.current_a for row in after} == {0.0}


def test_idle_carrier_draws_nothing():
    result = run_mission(NOMINAL, stop_at_verdict=True)
    unlock, unlocked, push = (_first(result, name) for name in
                              ("unlock", "door_unlocked", "push"))
    before = [row for row in result.telemetry if row.time_s < push]
    assert {row.rack_ext_m for row in before} == {0.0}
    for row in before:
        rod_moving = unlock <= row.time_s <= unlocked
        assert row.current_a == (pytest.approx(DOOR.actuator_current)
                                 if rod_moving else 0.0), row.time_s


def test_locked_door_does_not_swing():
    for name in list_bundled():
        result = run_mission(bundled_scenario(name), stop_at_verdict=True)
        unlocked = next((event.time for event in result.events
                         if event.name == "door_unlocked"), math.inf)
        angles = {row.door_angle_rad for row in result.telemetry
                  if row.time_s < unlocked}
        assert angles == {0.0}, name

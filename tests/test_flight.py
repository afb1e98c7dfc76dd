"""Vehicle and payload dynamics tests.

The drag-free apogee oracle is the ballistic closed form h = v^2/2g,
t = v/g (509.6839 m, 10.1937 s for v0 = 100 m/s with g = 9.81); the
integrator at dt = 1 ms must land within 0.1% of it.
"""

import math
import random
from dataclasses import replace

import pytest

from deploysim import DomainError, ParameterError, build_scenario
from deploysim.atmosphere import AtmosphereModel, density_at_altitude
from deploysim.flight import (FlightPhase, FlightState, PayloadBody,
                              VehicleSpec, initial_state, release_payload,
                              step_payload, step_vehicle)
from oracles import (no_row, reference_payload_step, reference_vehicle_step,
                     step_once, terminal_speed)

MODEL = build_scenario().atmosphere
G = 9.81
# A row period longer than any call here: no tick of it is a row tick,
# so every tick takes the row-free path of a stretch.
ROWLESS = 10**9

DRAG_FREE = VehicleSpec(dry_mass=10.0, propellant_mass=0.0, avg_thrust=0.0,
                        burn_time=0.0, drag_area_coast=0.0,
                        drogue_drag_area=0.0)


def coast_from(velocity, dt=0.001, spec=DRAG_FREE, altitude=0.0):
    """States from the start up to and including apogee, the first
    state with velocity <= 0."""
    state = FlightState(altitude=altitude, velocity=velocity, mass=spec.dry_mass,
                        propellant=0.0, phase=FlightPhase.COAST)
    history = [replace(state)]
    while state.velocity > 0.0:
        step_once(spec, state, dt, MODEL)
        history.append(replace(state))
    return history


def test_ballistic_apogee_matches_closed_form():
    history = coast_from(100.0)
    # One step per state after the first, 1 ms each.
    t, h = (len(history) - 1) * 0.001, history[-1].altitude
    assert h == pytest.approx(100.0**2 / (2 * G), rel=1e-3)
    assert t == pytest.approx(100.0 / G, rel=1e-3)


def test_apogee_refines_with_smaller_steps():
    # Error must shrink as dt shrinks; first order at worst.
    def apogee(dt):
        return coast_from(100.0, dt=dt)[-1].altitude

    a4, a2, a1 = apogee(0.004), apogee(0.002), apogee(0.001)
    c1 = abs(a4 - a2)
    c2 = abs(a2 - a1)
    assert c2 < c1
    assert c2 < 4 * c1


def test_drag_free_energy_drift_small():
    """Specific energy v^2/2 + g*h drifts < 0.1% over a full coast."""
    e0 = 0.5 * 100.0**2
    worst = 0.0
    for state in coast_from(100.0):
        e = 0.5 * state.velocity**2 + G * state.altitude
        worst = max(worst, abs(e - e0))
    assert worst / e0 < 1e-3


def test_boost_accelerates_and_burns_mass():
    spec = VehicleSpec(dry_mass=25.0, propellant_mass=8.0, avg_thrust=1900.0,
                       burn_time=3.0, drag_area_coast=0.006,
                       drogue_drag_area=1.1)
    state = initial_state(spec, payload_mass=1.0)
    assert state.phase is FlightPhase.PRELAUNCH
    assert state.mass == pytest.approx(34.0)

    step_once(spec, state, 0.001, MODEL)
    assert state.phase is FlightPhase.BOOST
    assert state.velocity > 0.0

    steps = 1
    while state.phase is FlightPhase.BOOST:
        step_once(spec, state, 0.001, MODEL)
        steps += 1
    assert state.phase is FlightPhase.COAST
    assert state.propellant == 0.0
    assert state.mass == pytest.approx(26.0)
    assert steps * 0.001 == pytest.approx(3.0, abs=0.002)


def test_phase_sequence_is_monotonic():
    spec = VehicleSpec(dry_mass=25.0, propellant_mass=8.0, avg_thrust=1900.0,
                       burn_time=3.0, drag_area_coast=0.006,
                       drogue_drag_area=1.1)
    order = [FlightPhase.PRELAUNCH, FlightPhase.BOOST, FlightPhase.COAST,
             FlightPhase.DROGUE_DESCENT, FlightPhase.LANDED]
    state = initial_state(spec, payload_mass=1.0)
    seen = [state.phase]
    while state.phase is not FlightPhase.LANDED:
        step_once(spec, state, 0.001, MODEL)
        if state.phase is not seen[-1]:
            seen.append(state.phase)
    assert seen == order


def test_descent_switches_to_drogue_area():
    spec = VehicleSpec(dry_mass=25.0, propellant_mass=8.0, avg_thrust=1900.0,
                       burn_time=3.0, drag_area_coast=0.006,
                       drogue_drag_area=1.1)
    state = initial_state(spec, payload_mass=0.0)
    while state.phase is not FlightPhase.DROGUE_DESCENT:
        step_once(spec, state, 0.001, MODEL)
    # Give the drogue a few seconds to settle on terminal speed.
    for _ in range(8000):
        step_once(spec, state, 0.001, MODEL)
        if state.phase is FlightPhase.LANDED:
            break
    assert state.phase is not FlightPhase.LANDED, "drogue failed to slow it"
    rho = density_at_altitude(MODEL, state.altitude)
    expected = terminal_speed(state.mass, spec.drogue_drag_area, rho)
    assert -state.velocity == pytest.approx(expected, rel=5e-3)


def test_landed_is_absorbing():
    state = FlightState(altitude=0.0, velocity=0.0, mass=10.0,
                        phase=FlightPhase.LANDED)
    before = replace(state)
    sampled = []
    # It samples each later tick of the call on the ground, and keeps
    # the state as it was.
    assert step_vehicle(DRAG_FREE, state, 0.001, MODEL, 5,
                        lambda altitude, tick: sampled.append(
                            (tick, altitude)), 0, no_row, ROWLESS) == 5
    assert sampled == [(1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0)]
    assert state == before
    assert math.copysign(1.0, state.altitude) == 1.0
    assert math.copysign(1.0, state.velocity) == 1.0


def test_landing_clamps_altitude_and_velocity():
    state = FlightState(altitude=0.05, velocity=-30.0, mass=10.0,
                        phase=FlightPhase.DROGUE_DESCENT)
    step_once(DRAG_FREE, state, 0.01, MODEL)
    assert state.phase is FlightPhase.LANDED
    assert state.altitude == 0.0
    assert state.velocity == 0.0


def test_unpowered_spec_skips_boost():
    state = FlightState(altitude=100.0, velocity=10.0, mass=10.0,
                        phase=FlightPhase.PRELAUNCH)
    step_once(DRAG_FREE, state, 0.001, MODEL)
    assert state.phase is FlightPhase.COAST


def test_thrust_burn_pairing_enforced():
    with pytest.raises(ParameterError):
        VehicleSpec(dry_mass=10.0, propellant_mass=1.0, avg_thrust=100.0,
                    burn_time=0.0, drag_area_coast=0.0, drogue_drag_area=0.0)
    with pytest.raises(ParameterError):
        VehicleSpec(dry_mass=10.0, propellant_mass=1.0, avg_thrust=0.0,
                    burn_time=2.0, drag_area_coast=0.0, drogue_drag_area=0.0)


# ---------------------------------------------------------------------------
# Payload


def tumbling(mass=1.0, chute=0.45, loss=50.0):
    return PayloadBody(mass=mass, parachute_drag_area=chute,
                       parachute_open_altitude_loss=loss)


def release(body, altitude, velocity, time=0.0):
    """Release `body` from a vehicle flying at `altitude`, `velocity`."""
    vehicle = FlightState(altitude=altitude, velocity=velocity,
                          mass=10.0 + body.mass)
    release_payload(body, vehicle, time)
    return vehicle


def open_chute(body):
    """Open the chute of a released `body` where it is, as on tick 0."""
    body.chute_altitude, body.chute_time = body.altitude, 0.0


def test_release_takes_the_payload_mass_off_the_vehicle():
    spec = VehicleSpec(dry_mass=25.0, propellant_mass=8.0, avg_thrust=1900.0,
                       burn_time=3.0, drag_area_coast=0.006,
                       drogue_drag_area=1.1)
    body = tumbling(mass=2.5)
    vehicle = initial_state(spec, body.mass)
    for _ in range(500):
        step_once(spec, vehicle, 0.001, MODEL)
    assert 0.0 < vehicle.propellant < spec.propellant_mass
    altitude, velocity = vehicle.altitude, vehicle.velocity
    assert release_payload(body, vehicle, 0.5) is None
    assert vehicle.mass == pytest.approx(
        spec.dry_mass + vehicle.propellant, rel=1e-12)
    assert (vehicle.altitude, vehicle.velocity) == (altitude, velocity)
    assert body == replace(tumbling(mass=2.5), altitude=altitude,
                           velocity=velocity, release_altitude=altitude,
                           release_time=0.5)


def test_chute_opens_after_configured_fall():
    body = tumbling(loss=50.0)
    release(body, 400.0, -5.0, time=12.0)
    assert (body.release_altitude, body.release_time) == (400.0, 12.0)
    assert (body.chute_altitude, body.chute_time) == (None, None)
    # One call flies the whole descent and records the opening on the way.
    flown = step_payload(body, 0.001, MODEL, 600000, 3)
    assert body.landing_time == (3 + flown - 1) * 0.001
    # One step of overshoot at most.
    assert body.release_altitude - body.chute_altitude == pytest.approx(
        50.0, abs=0.05)
    # Stamped with the tick of the step that opened it.
    opened = round(body.chute_time / 0.001)
    assert body.chute_time == opened * 0.001
    assert 3 < opened < 3 + flown - 1
    probe = tumbling(loss=50.0)
    release(probe, 400.0, -5.0, time=12.0)
    assert step_payload(probe, 0.001, MODEL, opened - 3, 3) == opened - 3
    assert (probe.chute_altitude, probe.chute_time,
            probe.landing_time) == (None, None, None)
    assert step_payload(probe, 0.001, MODEL, 1, opened) == 1
    assert probe.landing_time is None
    assert (probe.chute_altitude, probe.chute_time) == (
        body.chute_altitude, body.chute_time)


def test_chute_descent_reaches_sized_speed():
    """A chute sized for 5 m/s at 300 m settles within 2% of it there."""
    rho = density_at_altitude(MODEL, 300.0)
    sized = 2 * 1.0 * G / (rho * 5.0**2)
    body = tumbling(chute=sized, loss=50.0)
    release(body, 400.0, -15.0)
    checked = False
    for tick in range(120000):
        step_payload(body, 0.001, MODEL, 1, tick)
        if body.landing_time is not None:
            break
        if body.chute_time is not None and body.altitude <= 300.0:
            assert -body.velocity == pytest.approx(5.0, rel=0.02)
            checked = True
            break
    assert checked


def test_payload_lands_and_stays_landed():
    """The landing step clamps the body to rest on the ground.  The
    mission loop then stops stepping it, which
    `test_mission::test_steppers_run_once_per_tick` pins."""
    body = tumbling()
    release(body, 30.0, -20.0, time=7.0)
    # A fall too short to open the chute lands in one stretch.
    flown = step_payload(body, 0.001, MODEL, 60000, 0)
    assert flown < 60000
    assert body.altitude == 0.0
    assert body == replace(tumbling(), release_altitude=30.0,
                           release_time=7.0,
                           landing_time=(flown - 1) * 0.001)


def test_step_payload_moves_only_the_motion_fields():
    body = tumbling(chute=0.45, loss=5.0)
    release(body, 400.0, -20.0, time=3.0)
    assert body == replace(tumbling(chute=0.45, loss=5.0), altitude=400.0,
                           velocity=-20.0, release_altitude=400.0,
                           release_time=3.0)
    opened = None
    for tick in range(2000):
        before = replace(body)
        assert step_payload(body, 0.001, MODEL, 1, tick) == 1
        assert body.altitude < before.altitude
        if body.chute_time != before.chute_time:
            # The opening step records the chute and nothing else.
            assert opened is None
            opened = tick
            assert body == replace(
                before, altitude=body.altitude, velocity=body.velocity,
                chute_altitude=body.altitude, chute_time=tick * 0.001)
        else:
            assert body == replace(before, altitude=body.altitude,
                                   velocity=body.velocity)
    assert body.landing_time is None
    assert 0 < opened < 1999
    # The landing step records its tick and nothing else.
    landing = replace(body, altitude=0.0)
    assert step_payload(landing, 0.001, MODEL, 5, 9) == 1
    assert landing == replace(body, altitude=0.0, velocity=0.0,
                              landing_time=9 * 0.001)


def test_free_fall_is_drag_free():
    body = tumbling(loss=1000.0)
    release(body, 5000.0, 0.0)
    assert step_payload(body, 0.001, MODEL, 1000, 0) == 1000
    assert (body.chute_time, body.landing_time) == (None, None)
    assert body.velocity == pytest.approx(-G * 1.0, rel=1e-6)


def test_terminal_speed_formula():
    assert terminal_speed(1.0, 0.45, 1.225) == pytest.approx(
        math.sqrt(2 * 1.0 * G / (1.225 * 0.45)))


# ---------------------------------------------------------------------------
# Stretch loops against the per-tick references

# Every constant off its default, so the inlined density cannot lean on
# a default the goldens happen to fly.
OFF_DEFAULT = AtmosphereModel(sea_level_pressure=98000.0,
                              sea_level_temperature=296.5,
                              lapse_rate=0.0071)
CARRIER = VehicleSpec(dry_mass=25.0, propellant_mass=8.0, avg_thrust=1900.0,
                      burn_time=3.0, drag_area_coast=0.006,
                      drogue_drag_area=1.1)


def bits(*values):
    return tuple(value.hex() for value in values)


@pytest.mark.parametrize("phase, altitude, velocity", [
    (FlightPhase.COAST, 1500.0, 260.0),
    (FlightPhase.DROGUE_DESCENT, 3200.0, -45.0)])
def test_vehicle_stretch_matches_the_per_tick_reference(phase, altitude,
                                                        velocity):
    # With no row tick in the call, and with a row every 100 ticks.
    for row_period, row_count in ((ROWLESS, 0), (100, 20)):
        state = FlightState(altitude=altitude, velocity=velocity, mass=26.0,
                            phase=phase)
        sampled, rows = [], []
        assert step_vehicle(CARRIER, state, 0.001, OFF_DEFAULT, 2000,
                            lambda altitude, tick: sampled.append(
                                (tick, altitude.hex())), 7,
                            lambda tick, altitude, velocity: rows.append(
                                (tick, altitude.hex(), velocity.hex())),
                            row_period) == 2000
        assert state.phase is phase
        reference = FlightState(altitude=altitude, velocity=velocity,
                                mass=26.0, phase=phase)
        expected, expected_rows = [], []
        for tick in range(8, 7 + 2000):
            reference_vehicle_step(CARRIER, reference, 0.001, OFF_DEFAULT)
            expected.append((tick, reference.altitude.hex()))
            if tick % row_period == 0:
                expected_rows.append((tick, reference.altitude.hex(),
                                      reference.velocity.hex()))
        reference_vehicle_step(CARRIER, reference, 0.001, OFF_DEFAULT)
        assert sampled == expected
        assert rows == expected_rows and len(rows) == row_count
        assert bits(state.altitude, state.velocity) == bits(
            reference.altitude, reference.velocity)


def test_landed_stretch_matches_the_per_tick_reference():
    # A landed stretch flies no step; its samples and its rows, one
    # every 7 ticks, are those of a per-tick reference that does.
    landed = dict(altitude=0.0, velocity=0.0, mass=26.0,
                  phase=FlightPhase.LANDED)
    state = FlightState(**landed)
    sampled, rows = [], []
    assert step_vehicle(CARRIER, state, 0.001, OFF_DEFAULT, 1000,
                        lambda altitude, tick: sampled.append(
                            (tick, altitude.hex())), 3,
                        lambda tick, altitude, velocity: rows.append(
                            (tick, altitude.hex(), velocity.hex())),
                        7) == 1000
    assert state == FlightState(**landed)
    assert bits(state.altitude, state.velocity) == bits(0.0, 0.0)
    reference = FlightState(**landed)
    expected, expected_rows = [], []
    for tick in range(4, 3 + 1000):
        reference_vehicle_step(CARRIER, reference, 0.001, OFF_DEFAULT)
        expected.append((tick, reference.altitude.hex()))
        if tick % 7 == 0:
            expected_rows.append((tick, reference.altitude.hex(),
                                  reference.velocity.hex()))
    assert sampled == expected
    assert rows == expected_rows and len(rows) == 143
    # A wake on tick 500 leaves it sampled, and unflown: no row there.
    sampled.clear()
    rows.clear()
    assert step_vehicle(CARRIER, state, 0.001, OFF_DEFAULT, 1000,
                        lambda altitude, tick: sampled.append(tick)
                        or tick == 500, 3,
                        lambda tick, altitude, velocity: rows.append(tick),
                        7) == 500 - 3
    assert sampled == list(range(4, 501))
    assert rows == list(range(7, 500, 7))
    assert state == FlightState(**landed)


def test_chute_descent_matches_the_per_tick_reference():
    # Opened on the way up, so the drag acts on both signs of velocity.
    body = tumbling(mass=2.0, chute=0.8)
    release(body, 2500.0, 30.0)
    open_chute(body)
    reference = replace(body)
    assert step_payload(body, 0.001, OFF_DEFAULT, 2000, 0) == 2000
    for tick in range(2000):
        reference_payload_step(reference, 0.001, OFF_DEFAULT, tick)
    assert body.landing_time is reference.landing_time is None
    assert bits(body.altitude, body.velocity) == bits(reference.altitude,
                                                      reference.velocity)
    # The rest of the descent is one stretch up to the landing tick.
    flown = step_payload(body, 0.001, OFF_DEFAULT, 1_000_000, 2000)
    assert body.landing_time is not None
    for tick in range(2000, 2000 + flown - 1):
        reference_payload_step(reference, 0.001, OFF_DEFAULT, tick)
        assert reference.landing_time is None
    reference_payload_step(reference, 0.001, OFF_DEFAULT, 2000 + flown - 1)
    assert reference == body


def test_one_call_opens_the_chute_and_lands_as_the_per_tick_reference():
    # Released on the way up: the free fall climbs, turns and falls
    # 120 m below the release, then the chute flies it to the ground.
    body = tumbling(mass=2.0, chute=0.8, loss=120.0)
    release(body, 2500.0, 30.0, time=4.0)
    reference = replace(body)
    flown = step_payload(body, 0.001, OFF_DEFAULT, 10_000_000, 4000)
    opened = None
    for tick in range(4000, 4000 + flown):
        assert reference.landing_time is None
        closed = reference.chute_time is None
        reference_payload_step(reference, 0.001, OFF_DEFAULT, tick)
        if closed and reference.chute_time is not None:
            opened = tick
    assert 4000 < opened < 4000 + flown - 1
    assert bits(body.chute_altitude, body.chute_time,
                body.landing_time) == bits(reference.chute_altitude,
                                           reference.chute_time,
                                           reference.landing_time)
    assert reference == body


@pytest.mark.parametrize("dt, first, altitude", [
    (0.01, 6874, 325.69),       # under its chute, at the 10 ms clock
    (0.001, 68744, 30.0)])      # before its chute opens
def test_landing_time_is_the_landing_tick_of_the_per_tick_reference(
        dt, first, altitude):
    body = tumbling(mass=2.0, chute=0.8)
    release(body, altitude, -19.5, time=first * dt)
    reference = replace(body)
    flown = step_payload(body, dt, OFF_DEFAULT, 10_000_000, first)
    tick = first
    while reference.landing_time is None:
        reference_payload_step(reference, dt, OFF_DEFAULT, tick)
        tick += 1
    assert tick == first + flown
    assert (body.chute_time is None) == (altitude < 50.0)
    assert bits(body.landing_time) == bits(reference.landing_time) == bits(
        (tick - 1) * dt)


def test_single_steps_match_the_reference_where_one_ulp_of_density_shows():
    # At 1 ms the drag of one step is far below one ulp of the velocity,
    # so a density off by an ulp rarely moves a stretch by a bit.  Coarse
    # steps from varied states make it show in the velocity: each state
    # is flown one tick by the stretch loop and by the reference.
    rng = random.Random(19)
    for _ in range(500):
        dt = rng.uniform(0.05, 0.5)
        altitude = rng.uniform(500.0, 10000.0)
        phase = rng.choice([FlightPhase.COAST, FlightPhase.DROGUE_DESCENT])
        velocity = (rng.uniform(20.0, 300.0) if phase is FlightPhase.COAST
                    else rng.uniform(-80.0, -20.0))
        state = FlightState(altitude=altitude, velocity=velocity, mass=26.0,
                            phase=phase)
        reference = replace(state)
        step_vehicle(CARRIER, state, dt, OFF_DEFAULT, 1, None, 0, no_row, 1)
        reference_vehicle_step(CARRIER, reference, dt, OFF_DEFAULT)
        assert bits(state.altitude, state.velocity) == bits(
            reference.altitude, reference.velocity)

        body = tumbling()
        release(body, altitude, rng.uniform(-40.0, 40.0))
        open_chute(body)
        reference = replace(body)
        step_payload(body, dt, OFF_DEFAULT, 1, 0)
        reference_payload_step(reference, dt, OFF_DEFAULT, 0)
        assert bits(body.altitude, body.velocity) == bits(
            reference.altitude, reference.velocity)


def test_chute_stretch_names_the_tick_that_leaves_the_band():
    above = tumbling()
    release(above, 12000.0, -5.0)
    open_chute(above)
    with pytest.raises(DomainError, match="outside model band") as info:
        step_payload(above, 0.001, MODEL, 100, 17)
    assert (info.value.tick, info.value.body) == (17, "payload")

    # Thrown upwards under its chute from just below the ceiling: the
    # first tick that reads the air above it raises.
    leaving = tumbling()
    release(leaving, 10999.9, 8.0)
    open_chute(leaving)
    reference = replace(leaving)
    completed = 0
    with pytest.raises(DomainError):
        while True:
            reference_payload_step(reference, 0.001, MODEL, 17 + completed)
            completed += 1
    assert completed > 1
    with pytest.raises(DomainError, match="outside model band") as info:
        step_payload(leaving, 0.001, MODEL, 100, 17)
    assert (info.value.tick, info.value.body) == (17 + completed, "payload")

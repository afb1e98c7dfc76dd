"""Vehicle and payload dynamics tests.

The drag-free apogee oracle is the ballistic closed form h = v^2/2g,
t = v/g (509.6839 m, 10.1937 s for v0 = 100 m/s with g = 9.81); the
integrator at dt = 1 ms must land within 0.1% of it.
"""

import math
from dataclasses import replace

import pytest

from deploysim import ParameterError, build_scenario
from deploysim.atmosphere import density_at_altitude
from deploysim.flight import (FlightPhase, FlightState, PayloadBody,
                              PayloadState, VehicleSpec, initial_state,
                              release_payload, step_payload, step_vehicle)
from oracles import step_once, terminal_speed

MODEL = build_scenario().atmosphere
G = 9.81

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
    # It flies every tick of the call, sampling each later one on the
    # ground, and the landing clamp keeps the state as it was.
    assert step_vehicle(DRAG_FREE, state, 0.001, MODEL, 5,
                        lambda altitude, tick: sampled.append(
                            (tick, altitude)), 0) == 5
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
    assert body == replace(tumbling(mass=2.5), state=PayloadState.FREE_FALL,
                           altitude=altitude, velocity=velocity,
                           release_altitude=altitude, release_time=0.5)


def test_chute_opens_after_configured_fall():
    body = tumbling(loss=50.0)
    release(body, 400.0, -5.0, time=12.0)
    assert (body.release_altitude, body.release_time) == (400.0, 12.0)
    opened_at = None
    for _ in range(60000):
        step_payload(body, 0.001, MODEL)
        if body.state is PayloadState.PARACHUTE_DESCENT:
            opened_at = body.altitude
            break
    assert opened_at is not None
    # One step of overshoot at most.
    assert body.release_altitude - opened_at == pytest.approx(50.0, abs=0.05)


def test_chute_descent_reaches_sized_speed():
    """A chute sized for 5 m/s at 300 m settles within 2% of it there."""
    rho = density_at_altitude(MODEL, 300.0)
    sized = 2 * 1.0 * G / (rho * 5.0**2)
    body = tumbling(chute=sized, loss=50.0)
    release(body, 400.0, -15.0)
    checked = False
    for _ in range(120000):
        step_payload(body, 0.001, MODEL)
        if body.state is PayloadState.LANDED:
            break
        if body.state is PayloadState.PARACHUTE_DESCENT and body.altitude <= 300.0:
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
    for _ in range(60000):
        step_payload(body, 0.001, MODEL)
        if body.state is PayloadState.LANDED:
            break
    assert body.state is PayloadState.LANDED
    assert body.altitude == 0.0
    assert body == replace(tumbling(), state=PayloadState.LANDED,
                           release_altitude=30.0, release_time=7.0)


def test_step_payload_moves_only_the_motion_fields():
    body = tumbling(chute=0.45, loss=5.0)
    release(body, 400.0, -20.0, time=3.0)
    assert body == replace(tumbling(chute=0.45, loss=5.0),
                           state=PayloadState.FREE_FALL, altitude=400.0,
                           velocity=-20.0, release_altitude=400.0,
                           release_time=3.0)
    for _ in range(2000):
        before = replace(body)
        assert step_payload(body, 0.001, MODEL) is None
        assert body.altitude < before.altitude
        assert body == replace(before, state=body.state,
                               altitude=body.altitude,
                               velocity=body.velocity)
    assert body.state is PayloadState.PARACHUTE_DESCENT
    landing = replace(body, altitude=0.0)
    step_payload(landing, 0.001, MODEL)
    assert landing == replace(body, state=PayloadState.LANDED, altitude=0.0,
                              velocity=0.0)


def test_free_fall_is_drag_free():
    body = tumbling(loss=1000.0)
    release(body, 5000.0, 0.0)
    for _ in range(1000):
        step_payload(body, 0.001, MODEL)
    assert body.state is PayloadState.FREE_FALL
    assert body.velocity == pytest.approx(-G * 1.0, rel=1e-6)


def test_terminal_speed_formula():
    assert terminal_speed(1.0, 0.45, 1.225) == pytest.approx(
        math.sqrt(2 * 1.0 * G / (1.225 * 0.45)))

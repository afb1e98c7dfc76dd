"""Closed-form oracles the tests check the package against.

Each is the textbook formula with its constants written out here rather
than imported, so a wrong constant or derived factor in the package
shows up as a mismatch.  Call them inside their domain only: they do no
range checks.  `DequeBarometer` is a reference of another kind: the
straightforward implementation that the package's barometer replaced.
`reference_vehicle_step` and `reference_payload_step` are the flight
steppers one tick at a time, with the air density from the package's
`density_at_altitude`: the references for the stretch loops, which
inline it.  `NoRestSchedule` is the task schedule with no rest after
any tick, so the mission loop runs every tick as its own pass: the
reference for the rests.  `reference_run` flies a whole mission with
all of these in place of the package's shortcuts, and `rest_scenario`
draws the seeded random missions it is checked on, compared on
`mission_outputs`.  `live_run` is the reference for when deploy logic
runs: it runs on every logic tick.  `step_once` and `no_row` are
plumbing, for tests that fly the vehicle directly.
"""

import math
import random
from collections import deque
from unittest import mock

from deploysim import (ScenarioError, build_scenario, mission,
                       render_commands_csv, render_telemetry_csv)
from deploysim.atmosphere import (TIME_EPS, _altitude_in_band,
                                  density_at_altitude, pressure_at_altitude)
from deploysim.controller import DeploymentController, TaskSchedule
from deploysim.flight import FlightPhase, step_vehicle

G = 9.81                        # m/s^2, flight and sizing gravity
STANDARD_GRAVITY = 9.80665      # m/s^2, g0 of the barometric formula
MOLAR_MASS_AIR = 0.0289644      # kg/mol
GAS_CONSTANT = 8.31432          # J/(mol*K)


def temperature_at_altitude(model, altitude):
    """Linear-lapse air temperature in K at `altitude` metres."""
    return model.sea_level_temperature - model.lapse_rate * altitude


def altitude_from_pressure(model, pressure):
    """Altitude in m where the barometric formula gives `pressure` Pa."""
    exponent = (GAS_CONSTANT * model.lapse_rate
                / (STANDARD_GRAVITY * MOLAR_MASS_AIR))
    ratio = pressure / model.sea_level_pressure
    return model.sea_level_temperature / model.lapse_rate * (
        1.0 - ratio ** exponent)


def no_row(tick, altitude, velocity):
    """A `step_vehicle` row writer that writes nothing."""


def step_once(spec, state, dt, model):
    """Fly the vehicle one tick with a no-op sampler and row writer,
    which a single tick never calls."""
    return step_vehicle(spec, state, dt, model, 1,
                        lambda altitude, tick: None, 0, no_row, 1)


class NoRestSchedule(TaskSchedule):
    """The package's task schedule with both rest counts 0: the same
    due flags, and no tick after any tick rests."""

    def due_at_tick(self, tick):
        sense, logic, telemetry, *_ = super().due_at_tick(tick)
        return sense, logic, telemetry, 0, 0


def reference_vehicle_step(spec, state, dt, model):
    """Fly the vehicle one tick, in place, with rho from
    `density_at_altitude` and the drag as 0.5*rho*v*|v|*CdA."""
    phase = state.phase
    if phase is FlightPhase.PRELAUNCH:
        phase = (FlightPhase.BOOST if spec.avg_thrust > 0.0
                 else FlightPhase.COAST)
    area = (spec.drogue_drag_area if phase is FlightPhase.DROGUE_DESCENT
            else spec.drag_area_coast)
    thrust = 0.0
    if phase is FlightPhase.BOOST:
        thrust = spec.avg_thrust
        burned = min(spec.propellant_mass / spec.burn_time * dt,
                     state.propellant)
        state.mass -= burned
        state.propellant -= burned
        if state.propellant <= 0.0:
            state.propellant = 0.0
            phase = FlightPhase.COAST
    drag = 0.0
    if area > 0.0 and state.velocity != 0.0:
        rho = density_at_altitude(model, state.altitude)
        drag = 0.5 * rho * state.velocity * abs(state.velocity) * area
    velocity = state.velocity + ((thrust - drag) / state.mass - G) * dt
    altitude = state.altitude + velocity * dt
    if phase is FlightPhase.COAST and velocity <= 0.0:
        phase = FlightPhase.DROGUE_DESCENT
    if altitude <= 0.0:
        altitude = velocity = 0.0
        phase = FlightPhase.LANDED
    state.altitude, state.velocity, state.phase = altitude, velocity, phase


def reference_payload_step(body, dt, model, tick):
    """Fly a released payload that has not landed through tick `tick`,
    in place, with rho from `density_at_altitude`; a chute step that
    would turn the descent into a climb descends at terminal speed
    instead.  The step that opens the chute records its altitude and
    tick*dt, and the landing step records tick*dt, as the package does."""
    accel = -G
    if body.chute_time is not None and body.velocity != 0.0:
        rho = density_at_altitude(model, body.altitude)
        accel -= (0.5 * rho * body.velocity * abs(body.velocity)
                  * body.parachute_drag_area) / body.mass
    velocity = body.velocity + accel * dt
    if body.velocity < 0.0 < velocity:
        velocity = -terminal_speed(body.mass, body.parachute_drag_area, rho)
    altitude = body.altitude + velocity * dt
    if altitude <= 0.0:
        body.landing_time = tick * dt
        altitude = velocity = 0.0
    elif (body.chute_time is None
          and body.release_altitude - altitude
          >= body.parachute_open_altitude_loss):
        body.chute_altitude, body.chute_time = altitude, tick * dt
    body.altitude, body.velocity = altitude, velocity


def terminal_speed(mass, drag_area, rho):
    """Steady descent speed sqrt(2*m*g / (rho*Cd*A)) in m/s."""
    return math.sqrt(2.0 * mass * G / (rho * drag_area))


class DequeBarometer:
    """The barometer as it was before it ran on the tick grid: fed the
    tick time, it keeps (time, altitude) pairs in a deque and trims it
    on each reading.  The reference for `deploysim.atmosphere.Barometer`;
    `peak` is the most pairs it has held at once.  The pressure path
    (noise, quantization, clamp, inverse) is the package's own, since
    only the choice of reading tick and truth tick is under test.
    """

    def __init__(self, spec, model):
        self.spec = spec
        self.model = model
        self._rng = random.Random(spec.seed)
        self._period = 1.0 / spec.sample_rate
        self._latency = spec.latency
        self._next_index = 0
        self._next_time = 0.0
        self._truth = deque()
        self.peak = 0

    def sample(self, true_altitude, tick_time):
        truth = self._truth
        truth.append((tick_time, true_altitude))
        self.peak = max(self.peak, len(truth))
        if tick_time + TIME_EPS < self._next_time:
            return None
        self._next_index += 1
        self._next_time = self._next_index * self._period
        target = tick_time - self._latency + TIME_EPS
        while len(truth) > 1 and truth[1][0] <= target:
            truth.popleft()
        delayed_altitude = truth[0][1]
        model = self.model
        pressure = pressure_at_altitude(model, delayed_altitude)
        sigma = self.spec.noise_sigma
        if sigma > 0.0:
            pressure += self._rng.normalvariate(0.0, sigma)
        quantum = self.spec.quantization
        if quantum > 0.0:
            steps = pressure / quantum
            if math.isfinite(steps):
                pressure = round(steps) * quantum
        if pressure > model.sea_level_pressure:
            pressure = model.sea_level_pressure
        elif pressure < model.min_pressure:
            pressure = model.min_pressure
        return pressure, _altitude_in_band(model, pressure)


class LatchingBarometer:
    """`DequeBarometer` fed the tick time, with a plain latch in the
    package barometer's place: every sense tick latches the newest
    reading into `latched` and raises `peak` to it.  It never wakes the
    loop; a loop that runs every tick as its own pass needs no wake."""

    def __init__(self, spec, model, dt, ticks, sense_period):
        self._reference = DequeBarometer(spec, model)
        self._dt = dt
        self._sense_period = sense_period
        self._newest = math.nan
        self.latched = math.nan
        self.peak = -math.inf
        self.wake = None

    def sample(self, true_altitude, tick):
        reading = self._reference.sample(true_altitude, tick * self._dt)
        if reading is not None:
            self._newest = reading[1]
        if tick % self._sense_period == 0:
            self.latched = self._newest
            self.peak = max(self.peak, self.latched)
        return reading


def _reference_vehicle_steps(spec, state, dt, model, ticks, sample, first,
                             row, row_period):
    """`step_vehicle` as one `reference_vehicle_step`: without rests
    every stretch is the one busy tick, which samples nothing more and
    has no tick inside it to write a row on."""
    assert ticks == 1
    reference_vehicle_step(spec, state, dt, model)
    return 1


def _reference_payload_steps(body, dt, model, ticks, first):
    """`step_payload` as `reference_payload_step` tick by tick, up to
    the landing."""
    for tick in range(first, first + ticks):
        reference_payload_step(body, dt, model, tick)
        if body.landing_time is not None:
            return tick - first + 1
    return ticks


def reference_run(scenario):
    """`run_mission(scenario)` with every shortcut replaced by its
    reference: `NoRestSchedule` for the rests, the per-tick flight
    steppers for the stretches and their inlined density, and
    `LatchingBarometer` for the barometer's shared schedule, one-frame
    reading, vendored noise, latch and wake.  The loop body (the task
    order, the mechanism and the telemetry) is the package's own."""
    with mock.patch.multiple(mission, TaskSchedule=NoRestSchedule,
                             Barometer=LatchingBarometer,
                             step_vehicle=_reference_vehicle_steps,
                             step_payload=_reference_payload_steps):
        return mission.run_mission(scenario)


def live_run(scenario):
    """`run_mission(scenario)` with deploy logic live on every logic
    tick until it settles: `DeploymentController.reads` returns a fresh
    object on every call, so what it reads always differs from what it
    last read.  The rests and the steppers are the package's own."""
    with mock.patch.object(DeploymentController, "reads",
                           lambda self, door, carrier, battery: object()):
        return mission.run_mission(scenario)


OUTPUT_FIELDS = ("telemetry", "commands", "events", "verdict",
                 "charge_drawn", "battery_final")


def mission_outputs(result):
    """The outputs a mission is compared on against `reference_run`, in
    `OUTPUT_FIELDS` order, as text."""
    return (render_telemetry_csv(result.telemetry),
            render_commands_csv(result.commands), repr(result.events),
            repr(result.verdict), repr(result.charge_drawn),
            repr(result.battery_final))


REST_DTS = (0.001, 0.002, 0.0025, 0.005, 0.01, 0.01 / 3)


def rest_scenario(k):
    """Mission `k` of a seeded random family that drives the rests
    through the timed deploy phases.  It draws the tick, the rod and
    door times and the open threshold, the door and push timeouts, the
    window's floor, always-on loads, small packs and scheduled
    failures, the barometer's rate and latency, the stroke, the rack
    speed, the payload mass and whether deploy logic arms on the pad,
    under a motor that keeps the flight short.  A draw the schema
    refuses is drawn again from the same stream, so the family is
    deterministic in k."""
    rng = random.Random(32_000 + k)
    while True:
        overrides = {
            "sim.dt": rng.choice(REST_DTS),
            "sim.seed": k,
            "vehicle.avg_thrust": rng.uniform(1000.0, 1600.0),
            "door.rod_travel_time": rng.uniform(0.01, 1.0),
            "door.open_time": rng.uniform(0.01, 1.0),
            # Above door.max_open, pi/2, is refused.
            "door.open_threshold": rng.uniform(0.1, 1.7),
            "trigger.door_open_timeout": rng.uniform(0.1, 3.0),
            "trigger.deploy_floor": rng.uniform(0.0, 300.0),
            "trigger.arm_after_apogee": rng.random() < 0.7,
            "barometer.sample_rate": rng.choice((20.0, 50.0, 80.0, 200.0)),
            "barometer.latency": rng.uniform(0.0, 0.06),
            "mechanism.stroke": rng.uniform(0.005, 0.12),
            "servo.rated_speed": rng.uniform(0.3, 3.0),
            # Above the 13.9 kg limit the carrier stalls.
            "payload.mass": rng.uniform(0.3, 16.0),
        }
        if rng.random() < 0.5:
            overrides["trigger.push_timeout"] = rng.uniform(0.2, 6.0)
        if rng.random() < 0.4:
            overrides["battery.quiescent_current"] = rng.uniform(0.01, 1.0)
        if rng.random() < 0.4:
            overrides["battery.capacity"] = rng.uniform(0.05, 5.0)
        if rng.random() < 0.3:
            overrides["faults.battery_fail_time"] = rng.uniform(5.0, 25.0)
        try:
            return build_scenario(overrides)
        except ScenarioError:
            continue

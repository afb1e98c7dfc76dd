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
all of these in place of the package's shortcuts.  `live_run` is the
reference for when deploy logic runs: it runs on every logic tick.
`differential` compares the package with both on a mission, and
`DIFFERENTIAL_MISSIONS` is the one table of missions it is run on.
`step_once` and `no_row` are plumbing, for tests that fly the vehicle
directly.
"""

import math
import random
from collections import deque
from unittest import mock

from deploysim import (ScenarioError, build_scenario, bundled_scenario,
                       list_bundled, mission, render_commands_csv,
                       render_telemetry_csv, scenario_with)
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
    """The package's task schedule with a free count of 0 and an idle
    rest of 0: the same due flags, and no tick after any tick rests."""

    idle_rest = 0

    def due_at_tick(self, tick):
        return *super().due_at_tick(tick)[:3], 0


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


def fuzz_profile(k):
    """One randomized vehicle/window/fault profile; deterministic in k."""
    rng = random.Random(20_000 + k)
    heavy = rng.random() < 0.18
    payload = rng.uniform(14.5, 20.0) if heavy else rng.uniform(0.5, 3.0)
    dry = rng.uniform(15.0, 30.0)
    prop = rng.uniform(2.0, 8.0)
    thrust_to_weight = rng.uniform(4.0, 7.0)
    stack = dry + prop + payload
    thrust = thrust_to_weight * stack * 9.81
    burn = rng.uniform(2.0, 3.5)
    accel = thrust / (stack - 0.5 * prop) - 9.81
    burnout_speed = accel * burn
    apogee_estimate = 0.72 * (0.5 * accel * burn**2
                              + burnout_speed**2 / (2 * 9.81))
    if k % 17 == 3:
        # Window entirely above reach: the only correct move is refusal.
        ceiling = apogee_estimate * 1.6
        floor = apogee_estimate * 1.25
    else:
        ceiling = apogee_estimate * rng.uniform(0.30, 0.65)
        floor = max(50.0, ceiling - rng.uniform(0.35, 0.6) * ceiling)
    sigma = 0.0 if k % 2 == 0 else rng.uniform(1.0, 5.0)
    overrides = {
        "vehicle.dry_mass": dry,
        "vehicle.propellant_mass": prop,
        "vehicle.avg_thrust": thrust,
        "vehicle.burn_time": burn,
        "vehicle.drag_area_coast": rng.uniform(0.004, 0.012),
        "vehicle.drogue_drag_area": rng.uniform(0.6, 1.6),
        "payload.mass": payload,
        "payload.parachute_drag_area": rng.uniform(0.2, 0.8),
        "payload.parachute_open_altitude_loss": rng.uniform(20.0, 80.0),
        "trigger.deploy_ceiling": ceiling,
        "trigger.deploy_floor": floor,
        "barometer.noise_sigma": sigma,
        "sim.dt": 0.01,
        "sim.seed": k,
        "sim.max_sim_time": 300.0,
    }
    if rng.random() < 0.08:
        overrides["faults.door_jam"] = True
    if rng.random() < 0.10:
        overrides["faults.gear_slip_push"] = rng.randint(1, 3)
    if rng.random() < 0.10:
        overrides["faults.link_break_force"] = rng.uniform(2.0, 8.0)
    if rng.random() < 0.10:
        overrides["faults.surface_friction_scale"] = float(rng.choice([2, 3]))
    if rng.random() < 0.10:
        overrides["faults.battery_fail_time"] = rng.uniform(15.0, 90.0)
    return build_scenario(overrides), sigma


# The nominal deck's overrides among the differential missions.
NOMINAL_OVERRIDES = (
    # An always-on load empties the pack while awaiting the window.
    {"battery.quiescent_current": 0.5, "battery.capacity": 10.003},
    # A stalled push; with the smaller pack it dies in the stall.
    {"payload.mass": 15.0, "battery.capacity": 30.0},
    {"payload.mass": 15.0, "battery.capacity": 8.0},
    # The pack dies while the rod retracts, and during the push.
    {"battery.capacity": 0.2},
    {"battery.capacity": 0.7},
    # Armed on the pad: the push ejects on the way up.
    {"trigger.arm_after_apogee": False, "trigger.deploy_floor": 10.0,
     "trigger.deploy_ceiling": 2000.0},
    # The vehicle lands with the payload aboard while the rod
    # retracts (5 m), the door swings (20 m), the settle delay runs
    # (40 m) and the carrier pushes (62 m).
    *({"trigger.deploy_floor": 0.0, "trigger.deploy_ceiling": ceiling}
      for ceiling in (5.0, 20.0, 40.0, 62.0)),
    # The ejection falls on other ticks of the rest cycle.
    *({"mechanism.stroke": stroke}
      for stroke in (0.0301, 0.0457, 0.0613, 0.0799, 0.1003)),
    {"barometer.sample_rate": 80.0, "barometer.latency": 0.035},
    # Readings that no sense tick latches, and wakes on a sense tick
    # after their reading: at 1 ms with the window crossed on the
    # way up and met on the way down, and at 1.25 ms.
    {"barometer.sample_rate": 80.0, "barometer.latency": 0.035,
     "trigger.arm_after_apogee": False, "trigger.deploy_floor": 300.0,
     "trigger.deploy_ceiling": 300.5},
    {"sim.dt": 0.00125, "barometer.sample_rate": 80.0},
    # The least confirming drop the schema allows, the smallest
    # positive float: apogee on the first latched reading below the
    # peak, and none on one equal to it (with the default noise, a
    # reading on the pad).  And a 50 m drop.
    {"trigger.apogee_confirm_drop": 5e-324},
    {"trigger.apogee_confirm_drop": 5e-324, "barometer.noise_sigma": 0.0},
    {"trigger.apogee_confirm_drop": 50.0},
    # A ceiling above apogee: the apogee wake also unlocks.
    {"trigger.deploy_ceiling": 5000.0},
    # Armed on the pad, the window woken on the way up, and a window
    # of 1 m crossed on the way up between sense ticks.
    {"trigger.arm_after_apogee": False},
    {"trigger.arm_after_apogee": False, "trigger.deploy_floor": 300.0,
     "trigger.deploy_ceiling": 301.0},
    {"barometer.noise_sigma": 5.0, "barometer.quantization": 0.0},
    # A window of 0.1 m that no latched reading falls in: the first
    # one below it, off the telemetry ticks, misses the window.
    {"trigger.deploy_floor": 300.0, "trigger.deploy_ceiling": 300.1},
    # The floor breached at 1 ms during the settle dwell (67.02 s),
    # and during the push (68.30 s): the floor wake ends the rest.
    {"trigger.deploy_floor": 360.0},
    {"trigger.deploy_floor": 335.0},
    # The door timeout while the door still swings (rod 0.5 s, door
    # 0.3 s), at 1 ms and 10 ms.
    {"trigger.door_open_timeout": 0.6},
    {"trigger.door_open_timeout": 0.6, "sim.dt": 0.01},
    # At 10 ms the rod unlocks on the tick after a telemetry tick,
    # and the door timeout fires two ticks later, in DoorOpenWait.
    {"sim.dt": 0.01, "door.rod_travel_time": 0.47,
     "trigger.door_open_timeout": 0.48},
    # An always-on load that the pack outlasts, through the whole
    # deploy sequence.
    {"battery.quiescent_current": 0.05},
    # At 10 ms, a pack that a load empties during the settle dwell
    # (67.30 s), and one the push empties while the rack retracts
    # after the ejection.
    {"sim.dt": 0.01, "battery.quiescent_current": 0.1,
     "battery.capacity": 6.98},
    {"sim.dt": 0.01, "battery.capacity": 1.53},
    # An always-on load too small to move the charge: on a tick that
    # draws nothing else the pack delivers 0.0 C, beside the rod or the
    # rack it delivers more than their draw alone.
    {"battery.quiescent_current": 1e-13},
)

# The bundled decks' differential missions, as (deck, overrides).
DECK_RUNS = (
    [(deck, {"sim.dt": dt}) for deck in list_bundled()
     for dt in (0.001, 0.01)]
    + [("altair_nominal", overrides) for overrides in NOMINAL_OVERRIDES]
    # The fault decks with an always-on load: their rests deliver charge
    # in the stall and in SafeHold.
    + [(deck, {"battery.quiescent_current": 0.05}) for deck in list_bundled()
       if deck != "altair_nominal"]
    # At 10 ms, a pack the push empties while the slipping rack retracts,
    # before deploy logic settles (SafeHold at 69.71 s).
    + [("altair_gear_slip", {"sim.dt": 0.01, "battery.capacity": 1.53})]
    # The nominal deck cut short by the clock: the only way a run reads
    # the barometer's last reading.
    + [("altair_nominal", {"sim.dt": dt, "sim.max_sim_time": 20.0})
       for dt in (0.001, 0.01)])


def deck_run_name(deck, overrides):
    """The name of `DIFFERENTIAL_MISSIONS` for a row of `DECK_RUNS`."""
    return f"{deck} with " + ", ".join(f"{key}={value!r}"
                                       for key, value in overrides.items())


# Every mission each shortcut of the tick loop is checked on, by name:
# `DECK_RUNS`, the first 40 C3 profiles and the first 40 rest scenarios.
DIFFERENTIAL_MISSIONS = {
    **{deck_run_name(deck, overrides):
       scenario_with(bundled_scenario(deck), overrides)
       for deck, overrides in DECK_RUNS},
    **{f"C3 profile {k}": fuzz_profile(k)[0] for k in range(40)},
    **{f"rest scenario {k}": rest_scenario(k) for k in range(40)},
}


def differential(scenario):
    """Fly `scenario` with `run_mission`, `reference_run` and `live_run`
    and name each field of `mission_outputs` that a reference does not
    match byte for byte, and the `update_phase` calls if `live_run`
    makes no more than the package, so it tested no skipped tick."""
    calls = []      # update_phase calls per run

    def update_phase(self, *args, _original=DeploymentController.update_phase):
        calls[-1] += 1
        return _original(self, *args)

    differ = []
    with mock.patch.object(DeploymentController, "update_phase",
                           update_phase):
        calls.append(0)
        package = mission_outputs(mission.run_mission(scenario))
        for reference in (reference_run, live_run):
            calls.append(0)
            outputs = mission_outputs(reference(scenario))
            differ += [f"{field} ({reference.__name__})" for field, got, want
                       in zip(OUTPUT_FIELDS, package, outputs) if got != want]
    if calls[2] <= calls[0]:
        differ.append("update_phase calls (live_run)")
    return differ

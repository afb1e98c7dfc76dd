"""One-dimensional vertical flight dynamics for carrier and payload.

Integration is semi-implicit Euler on a fixed step: velocity first,
then position with the new velocity.  That keeps the drag-free energy
drift second order in dt, which the test suite audits.

A payload's record is its flight state: its release, chute opening
and landing each set their own fields.

Each stepper flies a stretch of ticks in one loop, the vehicle's up to
a phase change and the payload's up to its landing, with the air
density of `density_at_altitude` inlined: the same float operations in
the same order, so a stretch is bit for bit a run of single steps.  An
altitude outside the model band calls `density_at_altitude` for its error.
A stretch that starts landed flies no step at all: the landing clamp
would keep its state bit for bit, so it only samples and writes rows.
"""

import enum
import math
from dataclasses import dataclass

from .atmosphere import (GAS_CONSTANT, MODEL_CEILING, MOLAR_MASS_AIR,
                         AtmosphereModel, density_at_altitude)
from .errors import DomainError, ParameterError
from .mechanism import GRAVITY


class FlightPhase(enum.Enum):
    PRELAUNCH = "PreLaunch"
    BOOST = "Boost"
    COAST = "Coast"
    DROGUE_DESCENT = "DrogueDescent"
    LANDED = "Landed"


# Members compared on every tick, bound once.  On Python 3.11 an
# attribute of an Enum class is looked up through the slow path that
# EnumType.__getattr__ imposes, about ten times the cost of a global.
_PRELAUNCH = FlightPhase.PRELAUNCH
_BOOST = FlightPhase.BOOST
_COAST = FlightPhase.COAST
_DROGUE_DESCENT = FlightPhase.DROGUE_DESCENT
_LANDED = FlightPhase.LANDED


@dataclass(frozen=True, slots=True)
class VehicleSpec:
    """Carrier rocket masses, motor and drag areas.  Drag areas are
    Cd*A products in m^2; the drogue area replaces the coast area once
    the vehicle is past apogee."""

    dry_mass: float                 # kg, structure without propellant/payload
    propellant_mass: float          # kg
    avg_thrust: float               # N, constant over the burn
    burn_time: float                # s
    drag_area_coast: float          # Cd*A, m^2, boost and coast
    drogue_drag_area: float         # Cd*A, m^2, descent

    def __post_init__(self) -> None:
        # Either a real burn (both positive) or none at all.
        if (self.avg_thrust > 0.0) != (self.burn_time > 0.0):
            raise ParameterError("avg_thrust and burn_time must both be "
                                 "positive or both zero")


@dataclass(slots=True)
class FlightState:
    """Vehicle truth state.  `mass` is the full stack currently flying
    (structure + remaining propellant + stowed payload).  It carries
    no clock: the mission loop derives time from its tick count."""

    altitude: float = 0.0
    velocity: float = 0.0
    mass: float = 0.0
    propellant: float = 0.0
    phase: FlightPhase = FlightPhase.PRELAUNCH


def initial_state(spec: VehicleSpec, payload_mass: float = 0.0) -> FlightState:
    """On-pad state with the payload stowed aboard."""
    return FlightState(
        mass=spec.dry_mass + spec.propellant_mass + payload_mass,
        propellant=spec.propellant_mass,
    )


def step_vehicle(spec: VehicleSpec, state: FlightState, dt: float,
                 atmosphere: AtmosphereModel, ticks: int, sample,
                 first: int, row, row_period: int) -> int:
    """Fly the vehicle up to `ticks` ticks from tick `first`, in place;
    return how many it flew.  The caller has sampled tick `first`; each
    later tick k first calls `sample(altitude, k)`.  It stops after the
    first step that changes the phase, and before tick k when that call
    returns True: a barometer's wake, which leaves tick k sampled and
    unflown.  Each multiple k of `row_period` after `first` and before
    the end, once sampled without a wake, calls `row(k, altitude,
    velocity)` with the state at the start of tick k: the telemetry rows
    of a stretch in which nothing else changes.  The landing clamp keeps
    a landed state bit for bit as it is.  A DomainError raised on tick k
    carries k as `tick`, unless the barometer set the tick of its truth
    there.
    """
    phase = start = state.phase
    if phase is _PRELAUNCH:
        # Ignition on the first step; unpowered specs go straight to coast.
        phase = _BOOST if spec.avg_thrust > 0.0 else _COAST
    boost, coast, landed = _BOOST, _COAST, _LANDED
    thrust = 0.0
    if phase is boost:
        burn = spec.propellant_mass / spec.burn_time * dt
        thrust = spec.avg_thrust
    # A step that changes the phase ends the call, and burnout keeps the
    # boost area, so one drag area serves every step.
    drag_area = (spec.drogue_drag_area if phase is _DROGUE_DESCENT
                 else spec.drag_area_coast)
    dragged = drag_area > 0.0
    lapse_rate = atmosphere.lapse_rate
    sea_level_temperature = atmosphere.sea_level_temperature
    sea_level_pressure = atmosphere.sea_level_pressure
    exponent = atmosphere.exponent
    molar_mass, gas_constant = MOLAR_MASS_AIR, GAS_CONSTANT
    ceiling, gravity = MODEL_CEILING, GRAVITY
    altitude, velocity = state.altitude, state.velocity
    mass, propellant = state.mass, state.propellant
    tick, end = first, first + ticks
    # The next tick that ends the stretch or writes a row: one compare
    # serves both, so a tick with neither pays for no row.
    stop = min(end, first + row_period - first % row_period)
    try:
        if start is landed:
            for tick in range(first + 1, end):
                if sample(altitude, tick) is True:
                    return tick - first
                if tick % row_period == 0:
                    row(tick, altitude, velocity)
            return ticks
        while True:
            if phase is boost:
                burned = min(burn, propellant)
                mass -= burned
                propellant -= burned
                if propellant <= 0.0:
                    propellant = 0.0
                    phase = coast

            drag = 0.0
            if dragged and velocity != 0.0:
                if 0.0 <= altitude <= ceiling:
                    drop = lapse_rate * altitude
                    base = 1.0 - drop / sea_level_temperature
                    rho = (sea_level_pressure * base ** exponent * molar_mass
                           / (gas_constant * (sea_level_temperature - drop)))
                else:
                    rho = density_at_altitude(atmosphere, altitude)
                if velocity > 0.0:
                    drag = 0.5 * rho * velocity * velocity * drag_area
                else:
                    drag = 0.5 * rho * velocity * -velocity * drag_area

            accel = (thrust - drag) / mass - gravity
            velocity = velocity + accel * dt
            altitude = altitude + velocity * dt

            if phase is coast and velocity <= 0.0:
                phase = _DROGUE_DESCENT
            if altitude <= 0.0:
                altitude = 0.0
                velocity = 0.0
                phase = landed
            tick += 1
            if phase is not start or tick == stop:
                if (phase is not start or tick == end
                        or sample(altitude, tick) is True):
                    break
                row(tick, altitude, velocity)
                stop = min(end, tick + row_period)
            elif sample(altitude, tick) is True:
                break
    except DomainError as exc:
        exc.tick = getattr(exc, "tick", tick)
        raise

    state.altitude, state.velocity = altitude, velocity
    state.mass, state.propellant = mass, propellant
    state.phase = phase
    return tick - first


@dataclass(slots=True)
class PayloadBody:
    """A stowed payload until released: ballistic fall, then parachute.

    The parachute opens once the body has fallen
    `parachute_open_altitude_loss` metres below its release altitude.
    The record says where the payload is: stowed while `release_time`
    is None, under its chute once `chute_time` is set, landed once
    `landing_time` is set.
    """

    mass: float                             # kg
    parachute_drag_area: float              # Cd*A, m^2
    parachute_open_altitude_loss: float     # m of fall before the chute opens
    altitude: float = 0.0
    velocity: float = 0.0
    release_altitude: float | None = None   # m, None while stowed
    release_time: float | None = None       # s, None while stowed
    chute_altitude: float | None = None     # m, None until the chute opens
    chute_time: float | None = None         # s, None until the chute opens
    landing_time: float | None = None       # s, None until it lands


def release_payload(body: PayloadBody, vehicle: FlightState,
                    time: float) -> None:
    """Free a stowed payload in place at `time` with the vehicle's state
    vector, and take its mass off the vehicle (see `initial_state`)."""
    body.altitude = body.release_altitude = vehicle.altitude
    body.velocity = vehicle.velocity
    body.release_time = time
    vehicle.mass -= body.mass


def step_payload(body: PayloadBody, dt: float, atmosphere: AtmosphereModel,
                 ticks: int, first: int) -> int:
    """Fly a released payload that has not landed up to `ticks` ticks
    from tick `first`, in place; return how many it flew.  It stops
    after the landing step on tick k, which records k*dt as
    `landing_time`.  The step on tick k that opens the chute records its
    altitude and k*dt on the body; the steps after it fly under the
    chute.  A DomainError raised on tick k carries k as `tick` and
    "payload" as `body`.

    The chute drag is explicit, so for a light payload under a large
    chute one step of it can overshoot through zero speed.  A step that
    would turn a descent into a climb descends at the terminal speed of
    the current altitude instead.
    """
    mass = body.mass
    chute_area = body.parachute_drag_area
    under_chute = body.chute_time is not None
    lapse_rate = atmosphere.lapse_rate
    sea_level_temperature = atmosphere.sea_level_temperature
    sea_level_pressure = atmosphere.sea_level_pressure
    exponent = atmosphere.exponent
    molar_mass, gas_constant = MOLAR_MASS_AIR, GAS_CONSTANT
    ceiling, gravity = MODEL_CEILING, GRAVITY
    release_altitude = body.release_altitude
    open_loss = body.parachute_open_altitude_loss
    altitude, velocity = body.altitude, body.velocity
    tick, last = first, first + ticks - 1
    try:
        while True:
            accel = -gravity
            if under_chute and velocity != 0.0:
                if 0.0 <= altitude <= ceiling:
                    drop = lapse_rate * altitude
                    base = 1.0 - drop / sea_level_temperature
                    rho = (sea_level_pressure * base ** exponent * molar_mass
                           / (gas_constant * (sea_level_temperature - drop)))
                else:
                    rho = density_at_altitude(atmosphere, altitude)
                if velocity > 0.0:
                    drag = 0.5 * rho * velocity * velocity * chute_area
                else:
                    drag = 0.5 * rho * velocity * -velocity * chute_area
                accel -= drag / mass
            previous = velocity
            velocity = velocity + accel * dt
            if previous < 0.0 < velocity:   # only the chute drag does that
                velocity = -math.sqrt(2.0 * mass * gravity
                                      / (rho * chute_area))
            altitude = altitude + velocity * dt

            if altitude <= 0.0:
                body.landing_time = tick * dt
                altitude = velocity = 0.0
                break
            if (not under_chute
                    and release_altitude - altitude >= open_loss):
                under_chute = True
                body.chute_altitude, body.chute_time = altitude, tick * dt
            if tick == last:
                break
            tick += 1
    except DomainError as exc:
        exc.tick, exc.body = tick, "payload"
        raise

    body.altitude, body.velocity = altitude, velocity
    return tick - first + 1

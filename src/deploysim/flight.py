"""One-dimensional vertical flight dynamics for carrier and payload.

Integration is semi-implicit Euler on a fixed step: velocity first,
then position with the new velocity.  That keeps the drag-free energy
drift second order in dt, which the test suite audits.
"""

import enum
import math
from dataclasses import dataclass

from .atmosphere import AtmosphereModel, density_at_altitude
from .errors import DomainError, ParameterError
from .mechanism import GRAVITY


class FlightPhase(enum.Enum):
    PRELAUNCH = "PreLaunch"
    BOOST = "Boost"
    COAST = "Coast"
    DROGUE_DESCENT = "DrogueDescent"
    LANDED = "Landed"


class PayloadState(enum.Enum):
    STOWED = "Stowed"
    FREE_FALL = "FreeFall"
    PARACHUTE_DESCENT = "ParachuteDescent"
    LANDED = "Landed"


# Members compared on every tick, bound once.  On Python 3.11 an
# attribute of an Enum class is looked up through the slow path that
# EnumType.__getattr__ imposes, about ten times the cost of a global.
_PRELAUNCH = FlightPhase.PRELAUNCH
_BOOST = FlightPhase.BOOST
_COAST = FlightPhase.COAST
_DROGUE_DESCENT = FlightPhase.DROGUE_DESCENT
_LANDED = FlightPhase.LANDED
_FREE_FALL = PayloadState.FREE_FALL
_PARACHUTE_DESCENT = PayloadState.PARACHUTE_DESCENT
_PAYLOAD_LANDED = PayloadState.LANDED


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
                 atmosphere: AtmosphereModel, ticks: int = 1,
                 sample=None, first: int = 0) -> int:
    """Fly the vehicle up to `ticks` ticks from tick `first`, in place;
    return how many it flew.  The caller has sampled tick `first`; each
    later tick k first calls `sample(altitude, k)`.  It stops after the
    first step that changes the phase; the landing clamp keeps a landed
    state bit for bit as it is.  A DomainError raised on tick k carries
    k as `tick`, unless the barometer set the tick of its truth there.
    """
    phase = start = state.phase
    if phase is _PRELAUNCH:
        # Ignition on the first step; unpowered specs go straight to coast.
        phase = _BOOST if spec.avg_thrust > 0.0 else _COAST
    thrust = 0.0
    if phase is _BOOST:
        burn = spec.propellant_mass / spec.burn_time * dt
        thrust = spec.avg_thrust
    # A step that changes the phase ends the call, and burnout keeps the
    # boost area, so one drag area serves every step.
    drag_area = (spec.drogue_drag_area if phase is _DROGUE_DESCENT
                 else spec.drag_area_coast)
    altitude, velocity = state.altitude, state.velocity
    mass, propellant = state.mass, state.propellant
    tick, last = first, first + ticks - 1
    try:
        while True:
            if phase is _BOOST:
                burned = min(burn, propellant)
                mass -= burned
                propellant -= burned
                if propellant <= 0.0:
                    propellant = 0.0
                    phase = _COAST

            drag = 0.0
            if drag_area > 0.0 and velocity != 0.0:
                rho = density_at_altitude(atmosphere, altitude)
                drag = 0.5 * rho * velocity * abs(velocity) * drag_area

            accel = (thrust - drag) / mass - GRAVITY
            velocity = velocity + accel * dt
            altitude = altitude + velocity * dt

            if phase is _COAST and velocity <= 0.0:
                phase = _DROGUE_DESCENT
            if altitude <= 0.0:
                altitude = 0.0
                velocity = 0.0
                phase = _LANDED
            if phase is not start or tick == last:
                break
            tick += 1
            sample(altitude, tick)
    except DomainError as exc:
        exc.tick = getattr(exc, "tick", tick)
        raise

    state.altitude, state.velocity = altitude, velocity
    state.mass, state.propellant = mass, propellant
    state.phase = phase
    return tick - first + 1


@dataclass(slots=True)
class PayloadBody:
    """Free payload after ejection: ballistic fall, then parachute.

    The parachute opens once the body has fallen
    `parachute_open_altitude_loss` metres below its ejection altitude.
    """

    mass: float                             # kg
    parachute_drag_area: float              # Cd*A, m^2
    parachute_open_altitude_loss: float     # m of fall before the chute opens
    state: PayloadState = PayloadState.STOWED
    altitude: float = 0.0
    velocity: float = 0.0


def release_payload(body: PayloadBody, altitude: float,
                    velocity: float) -> None:
    """Free a stowed payload in place with its state vector at ejection."""
    body.state = _FREE_FALL
    body.altitude = altitude
    body.velocity = velocity


def step_payload(body: PayloadBody, dt: float, ejection_altitude: float,
                 atmosphere: AtmosphereModel) -> None:
    """Advance a released payload that has not landed one step, in place.

    The chute drag is explicit, so for a light payload under a large
    chute one step of it can overshoot through zero speed.  A step that
    would turn a descent into a climb descends at the terminal speed of
    the current altitude instead.
    """
    state = body.state
    velocity = body.velocity
    accel = -GRAVITY
    if state is _PARACHUTE_DESCENT and velocity != 0.0:
        rho = density_at_altitude(atmosphere, body.altitude)
        drag = 0.5 * rho * velocity * abs(velocity) * body.parachute_drag_area
        accel -= drag / body.mass
    previous = velocity
    velocity = velocity + accel * dt
    if previous < 0.0 < velocity:       # only the chute drag does that
        velocity = -math.sqrt(2.0 * body.mass * GRAVITY
                              / (rho * body.parachute_drag_area))
    altitude = body.altitude + velocity * dt

    if altitude <= 0.0:
        body.state = _PAYLOAD_LANDED
        body.altitude = 0.0
        body.velocity = 0.0
        return
    if (state is _FREE_FALL
            and ejection_altitude - altitude >= body.parachute_open_altitude_loss):
        body.state = _PARACHUTE_DESCENT
    body.altitude = altitude
    body.velocity = velocity

"""One-dimensional vertical flight dynamics for carrier and payload.

Integration is semi-implicit Euler on a fixed step: velocity first,
then position with the new velocity.  That keeps the drag-free energy
drift second order in dt, which the test suite audits.
"""

import enum
import math
from dataclasses import dataclass

from .atmosphere import AtmosphereModel, density_at_altitude
from .errors import ParameterError
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
                 atmosphere: AtmosphereModel) -> FlightState:
    """Advance the vehicle one step.  Landed states pass through."""
    phase = state.phase
    if phase is _LANDED:
        return state

    if phase is _PRELAUNCH:
        # Ignition on the first step; unpowered specs go straight to coast.
        phase = _BOOST if spec.avg_thrust > 0.0 else _COAST

    mass = state.mass
    propellant = state.propellant
    thrust = 0.0
    if phase is _BOOST:
        burned = min(spec.propellant_mass / spec.burn_time * dt, propellant)
        mass -= burned
        propellant -= burned
        thrust = spec.avg_thrust

    drag_area = (spec.drogue_drag_area
                 if phase is _DROGUE_DESCENT
                 else spec.drag_area_coast)
    velocity = state.velocity
    drag = 0.0
    if drag_area > 0.0 and velocity != 0.0:
        rho = density_at_altitude(atmosphere, state.altitude)
        drag = math.copysign(
            0.5 * rho * velocity * velocity * drag_area, velocity)

    accel = (thrust - drag) / mass - GRAVITY
    velocity = velocity + accel * dt
    altitude = state.altitude + velocity * dt

    if phase is _BOOST and propellant <= 0.0:
        propellant = 0.0
        phase = _COAST
    if phase is _COAST and velocity <= 0.0:
        phase = _DROGUE_DESCENT
    if altitude <= 0.0 and phase is not _PRELAUNCH:
        altitude = 0.0
        velocity = 0.0
        phase = _LANDED

    return FlightState(altitude, velocity, mass, propellant, phase)


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


def _moved(body: PayloadBody, state: PayloadState, altitude: float,
           velocity: float) -> PayloadBody:
    """A copy of `body` with a new motion state.

    Runs on every tick of a released payload.  Filling the slots of a
    bare instance is cheaper than a call through the generated
    `__init__`: about 0.22 against 0.28 us on CPython 3.11.
    """
    moved = object.__new__(PayloadBody)
    moved.mass = body.mass
    moved.parachute_drag_area = body.parachute_drag_area
    moved.parachute_open_altitude_loss = body.parachute_open_altitude_loss
    moved.state = state
    moved.altitude = altitude
    moved.velocity = velocity
    return moved


def release_payload(body: PayloadBody, altitude: float,
                    velocity: float) -> PayloadBody:
    """Hand the stowed payload its own state vector at ejection."""
    return _moved(body, _FREE_FALL, altitude, velocity)


def step_payload(body: PayloadBody, dt: float, ejection_altitude: float,
                 atmosphere: AtmosphereModel) -> PayloadBody:
    """Advance a released payload that has not landed one step."""
    state = body.state
    if body.altitude <= 0.0:
        return _moved(body, _PAYLOAD_LANDED, 0.0, 0.0)

    velocity = body.velocity
    accel = -GRAVITY
    if state is _PARACHUTE_DESCENT and velocity != 0.0:
        rho = density_at_altitude(atmosphere, body.altitude)
        drag = 0.5 * rho * velocity * velocity * body.parachute_drag_area
        accel -= math.copysign(drag, velocity) / body.mass
    velocity = velocity + accel * dt
    altitude = body.altitude + velocity * dt

    if altitude <= 0.0:
        return _moved(body, _PAYLOAD_LANDED, 0.0, 0.0)
    if (state is _FREE_FALL
            and ejection_altitude - altitude >= body.parachute_open_altitude_loss):
        state = _PARACHUTE_DESCENT
    return _moved(body, state, altitude, velocity)

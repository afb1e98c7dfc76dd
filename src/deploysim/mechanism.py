"""Sizing math for the rack-and-pinion payload pusher.

Everything is SI: newton-metres, metres, seconds, kilograms.  The servo
datasheet rates stall torque as 10 kgf*cm at 6 V; that is stored here as
0.98 N*m.  Drivetrain losses are applied as a multiplier on the ideal
tangential force, which is how the ~84 N working figure falls out of the
98 N ideal one.

The sizing chain is:

    ideal force        F0 = 2*torque / pitch_diameter
    effective force    F  = efficiency * F0
    needed accel       a  = 2*(stroke - v0*t) / t^2
    friction per kg    f  = mu * g
    payload limit      m  = F / (mu*g + a)

The payload limit is where the carrier transitions from moving the
payload to stalling against it: the actuation model's carrier reads
`max_payload_mass` for its go/no-go threshold.

`check_number` is the one rule for a number: `MechanismParams` and the
scenario schema both call it, so they accept, store and reject alike.

The flight hardware cuts a module-2, 10-tooth pinion against a 66.48 mm
rack at a 14.5 degree pressure angle; only the pitch diameter and the
stroke enter the model.
"""

import math
from dataclasses import dataclass

from .errors import ParameterError, SingularConfigurationError

# m/s^2, the one gravity of sizing, the carrier load and flight.
GRAVITY = 9.81

# field -> (low, high, low_open): the one range of each drivetrain
# parameter, read by `MechanismParams` and by the scenario schema.  The
# int 0 bounds print as the schema's other `> 0` / `>= 0` bounds do.
# The time budget is bounded as the clock is: outside [1e-6, 86400] s
# the t^2 of the sizing chain overflows or divides by zero.
LIMITS = {
    "servo_stall_torque": (0, None, True),
    "pinion_pitch_diameter": (0, None, True),
    "drivetrain_efficiency": (0, 1.0, True),
    "friction_coefficient": (0, None, False),
    "stroke": (0, None, True),
    "deployment_time_budget": (1e-6, 86400.0, False),
}


def check_number(name: str, value, kind: type, low, high, low_open: bool):
    """`value` as a checked `kind`, int or float: the one number rule.

    A float takes an int or a float, an int only an int, and neither a
    bool; a float must be finite, and both must lie at or above `low`
    (above it if `low_open`) and at or below `high`.  Raises
    ParameterError naming `name` otherwise.
    """
    if type(value) is not kind:
        # bool is a subclass of int, and no number key means True.
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if kind is float else int):
            expects = "a number" if kind is float else "an integer"
            raise ParameterError(f"{name} expects {expects}, got {value!r}")
        try:
            value = kind(value)
        except OverflowError:   # an int beyond the float range
            value = math.inf
    if kind is float and not math.isfinite(value):
        raise ParameterError(f"{name}: value must be finite, got {value!r}")
    if low is not None and (value <= low if low_open else value < low):
        raise ParameterError(f"{name}: must be {'>' if low_open else '>='} "
                             f"{low}, got {value}")
    if high is not None and value > high:
        raise ParameterError(f"{name}: must be <= {high}, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class MechanismParams:
    """Physical parameters of the deployment drivetrain.

    Defaults describe the flight unit: a 6 V hobby servo driving a
    module-2 pinion, pushing the payload across an aluminium bulkhead.
    """

    servo_stall_torque: float = 0.98        # N*m (10 kgf*cm at 6 V)
    pinion_pitch_diameter: float = 0.020    # m
    drivetrain_efficiency: float = 0.85     # fraction in (0, 1]
    friction_coefficient: float = 0.61      # payload on bulkhead, dry sliding
    stroke: float = 0.060                   # m of travel to clear the bay
    deployment_time_budget: float = 5.0     # s allowed for the push

    def __post_init__(self) -> None:
        # Stored back as the checked floats: the sizing chain trusts them.
        for name, limits in LIMITS.items():
            object.__setattr__(self, name, check_number(
                name, getattr(self, name), float, *limits))


@dataclass(frozen=True, slots=True)
class SizingReport:
    """Unrounded sizing results; presentation layers do any rounding."""

    ideal_tangential_force: float       # N, lossless drivetrain
    effective_tangential_force: float   # N, after efficiency
    required_acceleration: float        # m/s^2 to finish inside the budget
    friction_force_per_kg: float        # N per kg of payload
    max_payload_mass: float             # kg


def tangential_force(torque: float, pitch_diameter: float,
                     efficiency: float) -> float:
    """Tangential force at the pinion pitch circle, derated by efficiency.

    F = efficiency * 2*torque / pitch_diameter.  An efficiency of 1.0
    gives the ideal (lossless) force.
    """
    return efficiency * (2.0 * torque / pitch_diameter)


def required_acceleration(stroke: float, initial_velocity: float,
                          time_budget: float) -> float:
    """Constant acceleration that covers `stroke` in `time_budget`.

    Solves stroke = v0*t + a*t^2/2 for a.  A negative result is legal:
    it means the initial velocity alone overshoots the stroke.
    """
    return 2.0 * (stroke - initial_velocity * time_budget) / time_budget ** 2


def max_payload_mass(effective_force: float, mu: float, accel: float) -> float:
    """Heaviest payload the pusher can move: F / (mu*g + a).

    Raises SingularConfigurationError when mu*g + a is not positive,
    since the limit is then unbounded or meaningless.
    """
    denominator = mu * GRAVITY + accel
    if denominator <= 0.0:
        raise SingularConfigurationError(
            "mu*gravity + accel must be > 0 for a finite payload limit, "
            f"got {denominator}")
    return effective_force / denominator


def sizing_report(params: MechanismParams) -> SizingReport:
    """Run the full sizing chain for one parameter set."""
    ideal = tangential_force(params.servo_stall_torque,
                             params.pinion_pitch_diameter, 1.0)
    effective = tangential_force(params.servo_stall_torque,
                                 params.pinion_pitch_diameter,
                                 params.drivetrain_efficiency)
    accel = required_acceleration(params.stroke, 0.0,
                                  params.deployment_time_budget)
    mass_limit = max_payload_mass(effective, params.friction_coefficient,
                                  accel)
    return SizingReport(
        ideal_tangential_force=ideal,
        effective_tangential_force=effective,
        required_acceleration=accel,
        friction_force_per_kg=params.friction_coefficient * GRAVITY,
        max_payload_mass=mass_limit,
    )

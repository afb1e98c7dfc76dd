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
payload to stalling against it, so the same expression doubles as the
go/no-go threshold in the actuation model.

The flight hardware cuts a module-2, 10-tooth pinion against a 66.48 mm
rack at a 14.5 degree pressure angle; only the pitch diameter and the
stroke enter the model.
"""

import math
from dataclasses import dataclass

from .errors import ParameterError, SingularConfigurationError

# m/s^2, the one gravity of sizing, the carrier load and flight.
GRAVITY = 9.81

# s, the bounds of `deployment_time_budget`, as of the clock: outside
# them the t^2 of the sizing chain overflows or divides by zero.
MIN_TIME_BUDGET, MAX_TIME_BUDGET = 1e-6, 86400.0


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def _positive(name: str, value: float) -> float:
    value = _finite(name, value)
    if value <= 0.0:
        raise ParameterError(f"{name} must be > 0, got {value}")
    return value


def _non_negative(name: str, value: float) -> float:
    value = _finite(name, value)
    if value < 0.0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
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
        for name in ("servo_stall_torque", "pinion_pitch_diameter", "stroke",
                     "deployment_time_budget"):
            value = _positive(name, getattr(self, name))
            object.__setattr__(self, name, value)
        budget = self.deployment_time_budget
        if not MIN_TIME_BUDGET <= budget <= MAX_TIME_BUDGET:
            raise ParameterError(
                f"deployment_time_budget must be in [{MIN_TIME_BUDGET}, "
                f"{MAX_TIME_BUDGET}] s, got {budget}")
        eff = _finite("drivetrain_efficiency", self.drivetrain_efficiency)
        if not 0.0 < eff <= 1.0:
            raise ParameterError(
                f"drivetrain_efficiency must be in (0, 1], got {eff}")
        object.__setattr__(self, "drivetrain_efficiency", eff)
        object.__setattr__(self, "friction_coefficient", _non_negative(
            "friction_coefficient", self.friction_coefficient))


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

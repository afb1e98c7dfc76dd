"""Door, push-carrier and battery models plus the fault catalog.

The carrier is a servo-speed-limited kinematic stage: the rack moves at
the no-load rack speed whenever the effective tangential force covers
the payload load (friction plus the sizing acceleration), and stalls at
stall current otherwise.  Matching the go/no-go threshold to the sizing
chain keeps the stall boundary exactly at the computed payload limit.

The bay door is passive once unlocked: a linear actuator retracts the
lock rod over a fixed travel time, then the door swings open at a
constant rate.  A jammed door keeps the rod motion but never swings.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import ContractViolationError, ParameterError
from .mechanism import (GRAVITY, MechanismParams, required_acceleration,
                        tangential_force)


@dataclass(frozen=True, slots=True)
class ServoSpec:
    """Drive servo datasheet figures (6 V column).  The stall torque
    that sets the drive force is `MechanismParams.servo_stall_torque`."""

    rated_speed: float                  # rev/s
    running_current_max: float          # A
    stall_current: float                # A

    def __post_init__(self) -> None:
        if self.running_current_max > self.stall_current:
            raise ParameterError("running_current_max cannot exceed "
                                 "stall_current")


def rack_speed(servo: ServoSpec, pitch_diameter: float) -> float:
    """No-load linear rack speed: rev/s times pitch circumference."""
    return servo.rated_speed * math.pi * pitch_diameter


@dataclass(frozen=True, slots=True)
class DoorSpec:
    """Bay door geometry and actuator timing."""

    rod_travel_time: float          # s to retract the lock rod
    open_time: float                # s from closed to fully open
    max_open: float                 # rad
    open_threshold: float           # rad counted as "open"
    actuator_current: float         # A while the rod moves

    def __post_init__(self) -> None:
        if self.open_threshold > self.max_open:
            raise ParameterError("open_threshold cannot exceed max_open")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Injected failures; at most one of each kind per mission.

    gear_slip_push models a misassembled gear mesh: from push number
    `gear_slip_push` onward the rack still cycles but transmits nothing.
    link_break_force breaks the pusher linkage permanently the first
    time its load exceeds the threshold.
    """

    gear_slip_push: int | None          # 1-based push number
    link_break_force: float | None      # N
    surface_friction_scale: float       # multiplier on mu
    battery_fail_time: float | None     # s, mission clock
    door_jam: bool


@dataclass(slots=True)
class DoorState:
    locked: bool = True         # the lock rod is extended
    rod_travel: float = 1.0     # fraction of lock-rod travel remaining
    angle: float = 0.0          # rad
    open: bool = False


@dataclass(slots=True)
class CarrierState:
    rack_extension: float = 0.0         # m, 0 = retracted
    pushing: bool = False               # a push cycle is in progress
    retracting: bool = False            # second half of the cycle
    push_count: int = 0                 # completed extensions
    payload_displacement: float = 0.0   # m, cumulative motion transmitted
    link_broken: bool = False
    slipped: bool = False               # a gear slip has occurred
    stalled: bool = False               # currently force-limited


@dataclass(slots=True)
class BatteryState:
    voltage: float              # V
    charge: float               # C
    failed: bool = False


def command_unlock(door: DoorState, spec: DoorSpec, dt: float) -> DoorState:
    """Step the retraction of a locked door's rod, which the loop drives
    only while powered.  A door jam does not stop the rod."""
    travel = door.rod_travel - dt / spec.rod_travel_time
    if travel <= 0.0:
        return replace(door, rod_travel=0.0, locked=False)
    return replace(door, rod_travel=travel)


def step_door(door: DoorState, spec: DoorSpec, dt: float,
              faults: FaultPlan) -> DoorState:
    """Swing an unlocked door toward full open at a constant rate.

    The door is unpowered, so it keeps opening even after a battery
    failure.
    """
    if faults.door_jam:
        return door
    angle = min(door.angle + spec.max_open / spec.open_time * dt,
                spec.max_open)
    return replace(door, angle=angle, open=angle >= spec.open_threshold)


def begin_push(carrier: CarrierState, door_open: bool) -> CarrierState:
    """Start one extend-retract push cycle.

    Raises ContractViolationError if the door is not open: the carrier
    must never drive the payload into a closed door.
    """
    if not door_open:
        raise ContractViolationError("push commanded while the door is not "
                                     "open")
    if carrier.pushing:
        return carrier
    return replace(carrier, pushing=True, retracting=False)


def halt_carrier(carrier: CarrierState) -> CarrierState:
    """De-energize the drive: the rack holds position, the cycle aborts."""
    if not (carrier.pushing or carrier.retracting or carrier.stalled):
        return carrier
    return replace(carrier, pushing=False, retracting=False, stalled=False)


class CarrierDrive(NamedTuple):
    """Carrier figures that stay fixed for a whole mission."""

    rack_speed: float       # m/s, no-load
    load_per_kg: float      # N/kg: friction plus the sizing acceleration
    drive_force: float      # N, effective tangential force at the pinion


def carrier_drive(servo: ServoSpec, params: MechanismParams,
                  faults: FaultPlan) -> CarrierDrive:
    """The go/no-go figures of `step_carrier`, computed once.

    The load includes the sizing acceleration so the stall boundary
    sits exactly at the computed payload limit.
    """
    mu_eff = params.friction_coefficient * faults.surface_friction_scale
    accel = required_acceleration(params.stroke, 0.0,
                                  params.deployment_time_budget)
    return CarrierDrive(
        rack_speed=rack_speed(servo, params.pinion_pitch_diameter),
        load_per_kg=mu_eff * GRAVITY + accel,
        drive_force=tangential_force(params.servo_stall_torque,
                                     params.pinion_pitch_diameter,
                                     params.drivetrain_efficiency))


def step_carrier(carrier: CarrierState, servo: ServoSpec, payload_mass: float,
                 params: MechanismParams, faults: FaultPlan, dt: float,
                 drive: CarrierDrive) -> tuple[CarrierState, float, float]:
    """Advance a pushing, powered carrier one step.

    Returns (state, payload displacement gained this step in m, current
    draw in A).  Extension against a load the servo cannot overcome
    holds the rack still at stall current.  `drive` is
    `carrier_drive(servo, params, faults)`, computed once per mission.
    """
    speed = drive.rack_speed

    if carrier.retracting:
        extension = carrier.rack_extension - speed * dt
        if extension <= 0.0:
            new = replace(carrier, rack_extension=0.0, pushing=False,
                          retracting=False)
        else:
            new = replace(carrier, rack_extension=extension)
        return new, 0.0, servo.running_current_max

    # Extending against the payload: static go/no-go force check.
    load = payload_mass * drive.load_per_kg
    if drive.drive_force < load:
        if not carrier.stalled:
            carrier = replace(carrier, stalled=True)
        return carrier, 0.0, servo.stall_current

    link_broken = carrier.link_broken
    if (not link_broken and faults.link_break_force is not None
            and load > faults.link_break_force):
        link_broken = True

    push_number = carrier.push_count + 1
    slipping = (faults.gear_slip_push is not None
                and push_number >= faults.gear_slip_push)

    advance = min(speed * dt, params.stroke - carrier.rack_extension)
    extension = carrier.rack_extension + advance
    transmitted = 0.0
    if not link_broken and not slipping:
        # Contact is lost once the payload has travelled the full stroke.
        transmitted = min(advance,
                          params.stroke - carrier.payload_displacement)
        if transmitted < 0.0:
            transmitted = 0.0

    displacement = carrier.payload_displacement + transmitted
    if extension >= params.stroke:
        new = replace(carrier, rack_extension=params.stroke,
                      push_count=carrier.push_count + 1, retracting=True,
                      payload_displacement=displacement,
                      link_broken=link_broken,
                      slipped=carrier.slipped or slipping, stalled=False)
    else:
        new = replace(carrier, rack_extension=extension,
                      payload_displacement=displacement,
                      link_broken=link_broken,
                      slipped=carrier.slipped or slipping, stalled=False)
    return new, transmitted, servo.running_current_max


def drain_battery(battery: BatteryState, current: float,
                  dt: float) -> BatteryState:
    """Coulomb-count the pack.

    Voltage steps to zero when the charge runs out; a failed pack stays
    failed.  The scheduled failure of the fault plan is applied by the
    mission loop.
    """
    if battery.failed or current == 0.0:
        return battery
    charge = battery.charge - current * dt
    if charge <= 0.0:
        return BatteryState(0.0, 0.0, True)
    return BatteryState(battery.voltage, charge, False)

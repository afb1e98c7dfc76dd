"""Door, push-carrier and battery models plus the fault catalog.

The carrier is a servo-speed-limited kinematic stage: the rack moves at
the no-load rack speed whenever the payload is no heavier than the
sizing chain's `max_payload_mass` for the surface's friction, and
stalls at stall current otherwise.  Reading the limit itself, not a
restated load inequality, keeps the stall boundary exactly at the
computed payload limit, to the last float.

The bay door is passive once unlocked: a linear actuator retracts the
lock rod over a fixed travel time, then the door swings open at a
constant rate.  A jammed door keeps the rod motion but never swings.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (ContractViolationError, ParameterError,
                     SingularConfigurationError)
from .mechanism import (GRAVITY, MechanismParams, max_payload_mass,
                        required_acceleration, tangential_force)


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


def command_unlock(door: DoorState, step: float, ticks: int = 1) -> None:
    """Retract the rod of a locked door `ticks` ticks, in place: `step`
    is the fraction of its travel one tick retracts, dt over the door's
    `rod_travel_time`.  One call gives the floats of `ticks` one-tick
    calls.  The loop drives it only while powered.  A door jam does not
    stop the rod."""
    travel = door.rod_travel
    for _ in range(ticks):
        travel -= step
        if travel <= 0.0:
            travel = 0.0
            break
    door.locked = travel > 0.0
    door.rod_travel = travel


def _tick_steps(door: DoorSpec, speed: float,
                dt: float) -> tuple[float, float, float]:
    """What one tick of `dt` s moves the lock rod, the door and a rack
    at `speed` m/s: the fraction of the rod's travel, the door's swing
    in rad and the rack's travel in m.  `run_mission` hands these to the
    steppers and bounds its rests with them; the scenario checks that
    each is finite and > 0."""
    return (dt / door.rod_travel_time, door.max_open / door.open_time * dt,
            speed * dt)


def step_door(door: DoorState, spec: DoorSpec, step: float,
              ticks: int = 1) -> None:
    """Swing an unlocked, unjammed door toward full open `ticks` ticks
    of `step` rad, in place: one tick of the constant rate is
    `max_open / open_time * dt`, and the door stops at `max_open`.  One
    call gives the floats of `ticks` one-tick calls.

    The door is unpowered, so it keeps opening even after a battery
    failure.
    """
    angle = door.angle
    max_open = spec.max_open
    for _ in range(ticks):
        angle += step
        if angle >= max_open:
            angle = max_open
            break
    door.angle = angle
    door.open = angle >= spec.open_threshold


def begin_push(carrier: CarrierState, door_open: bool) -> None:
    """Start one extend-retract push cycle; a cycle already running is
    left as it is.

    Raises ContractViolationError if the door is not open: the carrier
    must never drive the payload into a closed door.
    """
    if not door_open:
        raise ContractViolationError("push commanded while the door is not "
                                     "open")
    if not carrier.pushing:
        carrier.pushing = True
        carrier.retracting = False


def halt_carrier(carrier: CarrierState) -> None:
    """De-energize the drive: the rack holds position, the cycle aborts."""
    carrier.pushing = carrier.retracting = carrier.stalled = False


class CarrierDrive(NamedTuple):
    """Carrier figures and behaviour that stay fixed for a whole
    mission: the rack speed its travel comes from and everything else
    `step_carrier` reads."""

    rack_speed: float       # m/s, no-load
    stroke: float           # m
    stalls: bool            # the drive force cannot move the load
    breaks_link: bool       # the load exceeds the link-break force
    slips_from: float       # push_count from which the gear slips
    running_current: float  # A
    stall_current: float    # A


def carrier_drive(servo: ServoSpec, params: MechanismParams,
                  faults: FaultPlan, payload_mass: float) -> CarrierDrive:
    """The carrier's figures and go/no-go decisions, computed once.

    The carrier stalls on a payload heavier than `max_payload_mass` at
    the surface's friction, so the stall boundary is the sizing chain's
    payload limit exactly.  A drivetrain with no finite limit moves any
    payload.  The load, friction plus the sizing acceleration, decides
    the link break.  Deciding both once per mission is sound: the
    stowed payload's mass is fixed, and after the release the carrier
    only retracts, which ignores the load.
    """
    mu_eff = params.friction_coefficient * faults.surface_friction_scale
    accel = required_acceleration(params.stroke, 0.0,
                                  params.deployment_time_budget)
    force = tangential_force(params.servo_stall_torque,
                             params.pinion_pitch_diameter,
                             params.drivetrain_efficiency)
    try:
        stalls = payload_mass > max_payload_mass(force, mu_eff, accel)
    except SingularConfigurationError:
        stalls = False
    load = payload_mass * (mu_eff * GRAVITY + accel)
    link_limit = faults.link_break_force
    slip_push = faults.gear_slip_push
    return CarrierDrive(
        rack_speed=rack_speed(servo, params.pinion_pitch_diameter),
        stroke=params.stroke,
        stalls=stalls,
        breaks_link=link_limit is not None and load > link_limit,
        slips_from=math.inf if slip_push is None else slip_push - 1,
        running_current=servo.running_current_max,
        stall_current=servo.stall_current)


def step_carrier(carrier: CarrierState, travel: float, drive: CarrierDrive,
                 ticks: int = 1) -> tuple[CarrierState, float]:
    """Advance a pushing, powered carrier `ticks` ticks, in place;
    `travel` is the rack's one-tick travel, `drive.rack_speed * dt`.
    One call gives the floats of `ticks` one-tick calls.

    Returns (carrier, current draw in A on the last tick).  Extension
    against a load the servo cannot overcome holds the rack still at
    stall current.  `drive` is `carrier_drive(...)`, computed once per
    mission.
    """
    stroke = drive.stroke
    for _ in range(ticks):
        if carrier.retracting:
            extension = carrier.rack_extension - travel
            if extension <= 0.0:
                extension = 0.0
                carrier.pushing = carrier.retracting = False
            carrier.rack_extension = extension
            continue

        if drive.stalls:
            # Every later tick holds the rack still as this one does.
            carrier.stalled = True
            return carrier, drive.stall_current

        slipping = carrier.push_count >= drive.slips_from
        if slipping:
            carrier.slipped = True
        advance = min(travel, stroke - carrier.rack_extension)
        if drive.breaks_link:
            carrier.link_broken = True
        elif not slipping:
            # Contact is lost once the payload has travelled the full
            # stroke.
            transmitted = min(advance, stroke - carrier.payload_displacement)
            if transmitted > 0.0:
                carrier.payload_displacement += transmitted

        extension = carrier.rack_extension + advance
        if extension >= stroke:
            extension = stroke
            carrier.push_count += 1
            carrier.retracting = True
        carrier.rack_extension = extension
    return carrier, drive.running_current


def drain_battery(battery: BatteryState, current: float, dt: float,
                  ticks: int, audit: list) -> float:
    """Coulomb-count the pack in place over `ticks` ticks of `dt` s at
    `current` A; return the charge delivered on the last tick, C.  One
    call gives the floats of `ticks` one-tick calls.

    Voltage steps to zero when the charge runs out, and the pack then
    delivers what it had left; a failed pack stays failed.  The
    scheduled failure of the fault plan is applied by the mission loop.
    `audit` is the run's list [charge C, energy J, peak current A],
    which each tick delivering charge updates in tick order: it adds its
    charge, and that charge times the voltage before the tick, and
    raises the peak to `current`.
    """
    delivered = 0.0
    if battery.failed or current == 0.0:
        return delivered
    step = current * dt
    voltage = battery.voltage
    charge = battery.charge
    drawn, energy, peak = audit
    for tick in range(ticks):
        remaining = charge - step
        empty = remaining <= 0.0
        if empty:
            remaining = 0.0
        delivered = charge - remaining
        charge = remaining
        if delivered > 0.0:
            drawn += delivered
            energy += voltage * delivered
            if current > peak:
                peak = current
        if empty:
            battery.voltage = 0.0
            battery.failed = True
            if tick < ticks - 1:
                delivered = 0.0     # the dead pack's later ticks
            break
    battery.charge = charge
    audit[:] = drawn, energy, peak
    return delivered

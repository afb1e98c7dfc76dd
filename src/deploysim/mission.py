"""Whole-mission simulation loop, verdicts, sweeps and CSV rendering.

Each tick advances the shared logical clock by dt and runs, in order:
barometer sampling, the cooperative task set (sense, estimate, deploy
logic), actuation stepping, battery drain, payload stepping, telemetry,
then the vehicle truth step.  Everything downstream of the scenario and
seed is deterministic, so equal inputs give byte-identical telemetry.
"""

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .actuation import (BatteryState, CarrierState, DoorState, FaultPlan,
                        begin_push, carrier_drive, command_unlock,
                        drain_battery, halt_carrier, step_carrier, step_door)
from .atmosphere import Barometer
from .controller import DeploymentController, DeployPhase, TaskSchedule
from .errors import DomainError, ScenarioError
from .flight import (FlightPhase, FlightState, PayloadState, initial_state,
                     release_payload, step_payload, step_vehicle)
from .scenario import SCHEMA, Scenario, scenario_with

TELEMETRY_SCHEMA = "deploysim.telemetry.v1"
COMMANDS_SCHEMA = "deploysim.commands.v1"
COMMAND_COLUMNS = ("time_s", "command", "value", "truth_alt_m")


class Outcome(enum.Enum):
    DEPLOYED_IN_WINDOW = "DeployedInWindow"
    SAFE_HOLD = "SafeHold"
    LANDED_UNDEPLOYED = "LandedUndeployed"
    TIMEOUT = "Timeout"
    # Defensive: an ejection whose truth altitude fell outside the
    # window plus allowance.  Should be unreachable under the protocol.
    DEPLOYED_OUT_OF_WINDOW = "DeployedOutOfWindow"


# Process exit codes for the CLI; config errors use 64 (EX_USAGE).
EXIT_CODES = {
    Outcome.DEPLOYED_IN_WINDOW: 0,
    Outcome.SAFE_HOLD: 2,
    Outcome.LANDED_UNDEPLOYED: 3,
    Outcome.DEPLOYED_OUT_OF_WINDOW: 3,
    Outcome.TIMEOUT: 4,
}
CONFIG_ERROR_EXIT = 64


class CommandLogEntry(NamedTuple):
    time: float
    name: str
    value: float
    truth_altitude: float


class Event(NamedTuple):
    time: float
    name: str
    value: object


class TelemetryRecord(NamedTuple):
    time_s: float
    truth_alt_m: float
    truth_vel_mps: float
    sensed_alt_m: float
    flight_phase: str
    deploy_phase: str
    door_angle_rad: float
    rack_ext_m: float
    push_count: int
    current_a: float
    battery_v: float
    fault_flags: str


TELEMETRY_COLUMNS = TelemetryRecord._fields

_SAFE_HOLD = DeployPhase.SAFE_HOLD


def make_telemetry_record(now: float, vehicle: FlightState,
                          controller: DeploymentController, door: DoorState,
                          carrier: CarrierState, battery: BatteryState,
                          current: float,
                          faults: FaultPlan) -> TelemetryRecord:
    """One telemetry row.  SafeHold carries its reason in `deploy_phase`;
    `fault_flags` joins the active faults with "+", or is "-".

    Labels are read with `_value_`: on Python 3.11 `Enum.value` is a
    Python-level property that costs about ten times as much.
    """
    sensed = controller.sensed_altitude
    phase = controller.phase
    reason = controller.safe_hold_reason
    if phase is _SAFE_HOLD and reason is not None:
        deploy_phase = f"SafeHold({reason._value_})"
    else:
        deploy_phase = phase._value_
    flags = []
    if battery.failed:
        flags.append("power")
    if faults.door_jam:
        flags.append("door_jam")
    if carrier.link_broken:
        flags.append("link_break")
    if carrier.slipped:
        flags.append("gear_slip")
    if carrier.stalled:
        flags.append("stall")
    if faults.surface_friction_scale != 1.0:
        flags.append("friction_scaled")
    # Positional, in `TELEMETRY_COLUMNS` order: a NamedTuple built from
    # keywords costs about twice as much.
    return TelemetryRecord(
        now,                                            # time_s
        vehicle.altitude,                               # truth_alt_m
        vehicle.velocity,                               # truth_vel_mps
        sensed if sensed is not None else math.nan,     # sensed_alt_m
        vehicle.phase._value_,                          # flight_phase
        deploy_phase,                                   # deploy_phase
        door.angle,                                     # door_angle_rad
        carrier.rack_extension,                         # rack_ext_m
        carrier.push_count,                             # push_count
        current,                                        # current_a
        battery.voltage,                                # battery_v
        "+".join(flags) if flags else "-",              # fault_flags
    )


@dataclass(frozen=True, slots=True)
class MissionVerdict:
    outcome: Outcome
    safe_hold_reason: str | None
    deploy_altitude_truth: float | None    # m, at the ejection instant
    deploy_time: float | None              # s
    energy_used: float                     # J drawn from the pack
    peak_current: float                    # A


@dataclass(frozen=True, slots=True)
class MissionResult:
    verdict: MissionVerdict
    telemetry: list[TelemetryRecord]
    commands: list[CommandLogEntry]
    events: list[Event]
    battery_final: BatteryState
    charge_drawn: float                    # C, for the charge audit


def run_mission(scenario: Scenario,
                stop_at_verdict: bool = False) -> MissionResult:
    """Fly one mission.  `stop_at_verdict` ends the run as soon as the
    outcome is decided (used by sweeps, which only need verdicts)."""
    dt = scenario.dt
    n_ticks = round(scenario.max_sim_time / dt)
    atmosphere = scenario.atmosphere
    faults = scenario.faults
    vehicle_spec = scenario.vehicle
    door_spec = scenario.door
    servo = scenario.servo
    mechanism = scenario.mechanism
    trigger = scenario.trigger
    quiescent = scenario.quiescent_current
    stroke = mechanism.stroke
    fail_time = faults.battery_fail_time

    schedule = TaskSchedule(dt)
    drive = carrier_drive(servo, mechanism, faults)
    controller = DeploymentController(trigger, mechanism, servo)
    barometer = Barometer(scenario.barometer, atmosphere)
    vehicle = initial_state(vehicle_spec, scenario.payload.mass)
    door = DoorState()
    carrier = CarrierState()
    battery = replace(scenario.battery)
    payload = scenario.payload
    aboard_mass = payload.mass

    telemetry: list[TelemetryRecord] = []
    commands: list[CommandLogEntry] = []
    events: list[Event] = []

    pending_sample = None
    phase = controller.phase    # as of the last tick; update_phase moves it
    payload_released = False
    eject_altitude: float | None = None
    eject_time: float | None = None
    energy = 0.0
    peak_current = 0.0
    charge_drawn = 0.0
    # Members compared on every tick, bound once: attribute access on an
    # Enum class is slow on Python 3.11 (see flight.py).
    safe_hold = _SAFE_HOLD
    unlocking = DeployPhase.UNLOCKING
    payload_landed = PayloadState.LANDED
    vehicle_landed = FlightPhase.LANDED

    # Only the flight can leave the atmosphere band; say when it did.
    try:
        for tick in range(n_ticks):
            now = tick * dt

            # Scheduled battery failure applies from the top of the tick, so
            # the controller sees it on this tick.
            if (fail_time is not None and not battery.failed
                    and now >= fail_time):
                battery = replace(battery, voltage=0.0, failed=True)

            sample = barometer.sample(vehicle.altitude, now)
            if sample is not None:
                pending_sample = sample

            telemetry_due = False
            for task in schedule.due_at_tick(tick):
                if task == "sense_barometer":
                    if pending_sample is not None:
                        controller.task_sense(pending_sample)
                        pending_sample = None
                elif task == "estimate_state":
                    if controller.task_estimate():
                        events.append(Event(now, "apogee_sensed",
                                            controller.sensed_altitude))
                elif task == "deploy_logic":
                    for cmd in controller.update_phase(door, carrier, battery,
                                                       now):
                        commands.append(CommandLogEntry(
                            now, cmd.name, cmd.value, vehicle.altitude))
                        if cmd.name == "push":
                            carrier = begin_push(carrier, door.open)
                    if (controller.phase is safe_hold
                            and phase is not safe_hold):
                        events.append(Event(now, "safe_hold",
                                            controller.safe_hold_reason.value))
                else:  # telemetry, lowest priority; recorded at end of tick
                    telemetry_due = True

            # Safing de-energizes the actuators: the lock rod and the rack
            # hold position.  The door itself is passive and keeps swinging.
            phase = controller.phase
            if phase is safe_hold:
                carrier = halt_carrier(carrier)

            # Actuation over [now, now + dt).  A dead pack drives neither
            # the lock rod nor the rack; the door swings unpowered.
            powered = not battery.failed
            current = 0.0
            if powered and phase is unlocking and door.locked:
                door = command_unlock(door, door_spec, dt)
                current += door_spec.actuator_current
                if not door.locked:
                    events.append(Event(now, "door_unlocked", 0.0))
            if not door.locked and door.angle < door_spec.max_open:
                was_open = door.open
                door = step_door(door, door_spec, dt, faults)
                if door.open and not was_open:
                    events.append(Event(now, "door_open", door.angle))
            if powered and carrier.pushing:
                carrier, _, servo_current = step_carrier(
                    carrier, servo, aboard_mass, mechanism, faults, dt, drive)
                current += servo_current
                if (not payload_released
                        and carrier.payload_displacement >= stroke):
                    payload_released = True
                    eject_altitude = vehicle.altitude
                    eject_time = now
                    payload = release_payload(payload, vehicle.altitude,
                                              vehicle.velocity)
                    vehicle = replace(vehicle, mass=vehicle.mass - aboard_mass)
                    aboard_mass = 0.0
                    events.append(Event(now, "ejected", eject_altitude))

            # Battery: account by delivered charge so the audit is exact.
            total_current = current + quiescent
            pre_charge = battery.charge
            pre_voltage = battery.voltage
            battery = drain_battery(battery, total_current, dt)
            delivered = pre_charge - battery.charge
            if delivered > 0.0:
                charge_drawn += delivered
                energy += pre_voltage * delivered
                if total_current > peak_current:
                    peak_current = total_current

            if payload_released and payload.state is not payload_landed:
                previous = payload.state
                payload = step_payload(payload, dt, eject_altitude, atmosphere)
                if payload.state is not previous:
                    if payload.state is PayloadState.PARACHUTE_DESCENT:
                        events.append(Event(now, "payload_chute_open",
                                            payload.altitude))
                    else:
                        events.append(Event(now, "payload_landed", 0.0))

            if telemetry_due:
                telemetry.append(make_telemetry_record(
                    now, vehicle, controller, door, carrier, battery,
                    delivered / dt, faults))

            # The vehicle step ends the tick: stamp its events (tick + 1) * dt.
            previous_phase = vehicle.phase
            vehicle = step_vehicle(vehicle_spec, vehicle, dt, atmosphere)
            if vehicle.phase is not previous_phase:
                if vehicle.phase is FlightPhase.DROGUE_DESCENT:
                    events.append(Event((tick + 1) * dt, "apogee_truth",
                                        vehicle.altitude))
                elif vehicle.phase is vehicle_landed:
                    events.append(Event((tick + 1) * dt, "vehicle_landed",
                                        0.0))

            # Terminal conditions.
            if payload.state is payload_landed:
                break
            if vehicle.phase is vehicle_landed and not payload_released:
                break
            if stop_at_verdict and (payload_released or phase is safe_hold):
                break
    except DomainError as exc:
        raise DomainError(
            f"at t={now:.3f} s the vehicle left the 0-11 km atmosphere "
            f"model band: {exc}") from exc

    if payload_released:
        in_window = (trigger.deploy_floor <= eject_altitude
                     <= trigger.deploy_ceiling + trigger.window_allowance)
        outcome = (Outcome.DEPLOYED_IN_WINDOW if in_window
                   else Outcome.DEPLOYED_OUT_OF_WINDOW)
    elif controller.phase is DeployPhase.SAFE_HOLD:
        outcome = Outcome.SAFE_HOLD
    elif vehicle.phase is FlightPhase.LANDED:
        outcome = Outcome.LANDED_UNDEPLOYED
    else:
        outcome = Outcome.TIMEOUT

    reason = controller.safe_hold_reason
    verdict = MissionVerdict(
        outcome=outcome,
        safe_hold_reason=reason.value if reason is not None else None,
        deploy_altitude_truth=eject_altitude,
        deploy_time=eject_time,
        energy_used=energy,
        peak_current=peak_current,
    )
    return MissionResult(verdict=verdict, telemetry=telemetry,
                         commands=commands, events=events,
                         battery_final=battery, charge_drawn=charge_drawn)


def sweep(base: Scenario, key: str, values) -> list[tuple[float, MissionVerdict]]:
    """One independent run per value, same seed, rows in input order.

    The swept key must exist in the schema and be numeric.  Every
    scenario is built before the first run, so a bad value fails before
    any run, naming the value.  An int key takes integral floats, which
    is how the CLI parses values.  Each run stops as soon as its verdict
    is decided, since the sweep output is just the table.
    """
    entry = SCHEMA.get(key)
    if entry is None:
        raise ScenarioError(f"unknown sweep key {key!r}")
    if entry.kind is bool:
        raise ScenarioError(f"sweep key {key!r} is not numeric")
    siblings = []
    for value in values:
        if entry.kind is int and isinstance(value, float):
            if not value.is_integer():
                raise ScenarioError(f"sweep key {key!r} expects integers, "
                                    f"got {value!r}")
            value = int(value)
        try:
            siblings.append(scenario_with(base, {key: value}))
        except ScenarioError as exc:
            raise ScenarioError(f"sweep {key} = {value!r}: {exc}") from exc
    return [(scenario.values[key],
             run_mission(scenario, stop_at_verdict=True).verdict)
            for scenario in siblings]


# ---------------------------------------------------------------------------
# Deterministic text rendering (CLI output files)


def render_telemetry_csv(records) -> str:
    """Schema-tagged CSV; floats use repr so replays diff byte-for-byte."""
    lines = [f"# schema={TELEMETRY_SCHEMA}", ",".join(TELEMETRY_COLUMNS)]
    for r in records:
        lines.append(
            f"{r.time_s:.6f},{r.truth_alt_m!r},{r.truth_vel_mps!r},"
            f"{r.sensed_alt_m!r},{r.flight_phase},{r.deploy_phase},"
            f"{r.door_angle_rad!r},{r.rack_ext_m!r},{r.push_count},"
            f"{r.current_a!r},{r.battery_v!r},{r.fault_flags}")
    return "\n".join(lines) + "\n"


def render_commands_csv(commands) -> str:
    lines = [f"# schema={COMMANDS_SCHEMA}", ",".join(COMMAND_COLUMNS)]
    for c in commands:
        lines.append(f"{c.time:.6f},{c.name},{c.value!r},"
                     f"{c.truth_altitude!r}")
    return "\n".join(lines) + "\n"


def verdict_lines(verdict: MissionVerdict) -> list[str]:
    """Machine-readable key=value lines for stdout and verdict files."""
    def fmt(value):
        return "-" if value is None else repr(value)

    return [
        f"outcome={verdict.outcome.value}",
        f"safe_hold_reason={verdict.safe_hold_reason or '-'}",
        f"deploy_altitude_m={fmt(verdict.deploy_altitude_truth)}",
        f"deploy_time_s={fmt(verdict.deploy_time)}",
        f"energy_used_j={verdict.energy_used!r}",
        f"peak_current_a={verdict.peak_current!r}",
        f"exit_code={EXIT_CODES[verdict.outcome]}",
    ]

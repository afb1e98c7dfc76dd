"""Whole-mission simulation loop, verdicts, sweeps and CSV rendering.

A busy tick runs, in order: barometer sampling (fed the tick index),
the scheduled battery failure, the cooperative tasks that are due (sense
and estimate at 50 Hz, deploy logic at 100 Hz), actuation, battery
drain and telemetry (20 Hz), then the vehicle step.  The push that
releases the payload records the release on the payload, where the
verdict reads it, and flies the whole descent there; the landing sets
the run's last tick.  If nothing moves and the pack delivered no
charge, the ticks up to the next task that can act rest: one
`step_vehicle` call per phase samples the barometer and flies them.
Deploy logic cannot act while the phase is absorbing, nor between sense
ticks while it waits in AwaitWindow on inputs it has weighed.
Everything downstream of the scenario and seed is deterministic, so
equal inputs give byte-identical telemetry.
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
    # An ejection whose truth altitude fell outside the window plus
    # allowance.  The floor has no allowance and sensed altitude lags
    # truth on descent, so an ejection just above a sensed floor can
    # land below it in truth.
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
_STOWED = PayloadState.STOWED


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
        controller.sensed_altitude,                     # sensed_alt_m
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
    trigger = scenario.trigger
    quiescent = scenario.quiescent_current
    fail_time = faults.battery_fail_time
    door_jam = faults.door_jam

    schedule = TaskSchedule(dt)
    drive = carrier_drive(scenario.servo, scenario.mechanism, faults,
                          scenario.payload.mass)
    stroke = drive.stroke
    controller = DeploymentController(trigger, stroke)
    barometer = Barometer(scenario.barometer, atmosphere, dt, n_ticks)
    vehicle = initial_state(vehicle_spec, scenario.payload.mass)
    door = DoorState()
    carrier = CarrierState()
    # The steppers advance their records in place, so the loop flies
    # copies of the scenario's own.
    battery = replace(scenario.battery)
    payload = replace(scenario.payload)

    telemetry: list[TelemetryRecord] = []
    commands: list[CommandLogEntry] = []
    events: list[Event] = []
    descent: list[Event] = []   # the payload's, merged in after the loop

    # The first tick at or after the scheduled battery failure still due.
    fail_tick = n_ticks
    if fail_time is not None and fail_time < n_ticks * dt:
        fail_tick = max(0, math.ceil(fail_time / dt) - 1)
        while fail_tick * dt < fail_time:
            fail_tick += 1

    sample = barometer.sample
    phase = controller.phase    # as of the last tick; update_phase moves it
    settled = False             # phase is SafeHold or Ejected, both absorbing
    # Deploy logic cannot act before the next sense tick: the phase is
    # absorbing, or it stayed in AwaitWindow on the inputs it has.
    logic_idle = False
    energy = 0.0
    peak_current = 0.0
    charge_drawn = 0.0
    # Members compared on every tick, bound once: attribute access on an
    # Enum class is slow on Python 3.11 (see flight.py).
    safe_hold = _SAFE_HOLD
    await_window = DeployPhase.AWAIT_WINDOW
    unlocking = DeployPhase.UNLOCKING
    ejected = DeployPhase.EJECTED

    # Each iteration runs one busy tick, then flies it and the rest
    # ticks after it.  Only the flight can leave the atmosphere band; say
    # when, and which body.
    tick = 0
    try:
        while tick < n_ticks:
            sample(vehicle.altitude, tick)
            now = tick * dt
            if tick == fail_tick:       # no stretch crosses it
                battery.voltage = 0.0
                battery.failed = True
                logic_idle = settled
                fail_tick = n_ticks

            (sense_due, logic_due, telemetry_due, free,
             quiet) = schedule.due_at_tick(tick)
            if sense_due:
                controller.task_sense(barometer.latest)
                if controller.task_estimate():
                    events.append(Event(now, "apogee_sensed",
                                        controller.sensed_altitude))
            # Idle in AwaitWindow, deploy logic runs again on a sense tick,
            # the only one with a new input; the pack resets the idle flag.
            if logic_due and (not logic_idle or sense_due and not settled):
                for cmd in controller.update_phase(door, carrier, battery,
                                                   now):
                    commands.append(CommandLogEntry(
                        now, cmd.name, cmd.value, vehicle.altitude))
                    if cmd.name == "push":
                        begin_push(carrier, door.open)
                logic_idle = phase is await_window
                if controller.phase is not phase:
                    phase = controller.phase
                    settled = phase is safe_hold or phase is ejected
                    logic_idle = settled
                    if phase is safe_hold:
                        # Safing de-energizes the rack once; SafeHold never
                        # drives the lock rod or commands a push again.
                        halt_carrier(carrier)
                        events.append(Event(now, "safe_hold",
                                            controller.safe_hold_reason.value))
                        if stop_at_verdict:
                            n_ticks = fail_tick = tick + 1

            # Actuation over [now, now + dt).  A dead pack drives
            # neither the lock rod nor the rack; the door swings
            # unpowered, unless it is jammed.
            powered = not battery.failed
            current = 0.0
            rod = powered and phase is unlocking and door.locked
            if rod:
                command_unlock(door, door_spec, dt)
                current += door_spec.actuator_current
                if not door.locked:
                    events.append(Event(now, "door_unlocked", 0.0))
            swing = (not door_jam and not door.locked
                     and door.angle < door_spec.max_open)
            if swing:
                was_open = door.open
                step_door(door, door_spec, dt)
                if door.open and not was_open:
                    events.append(Event(now, "door_open", door.angle))
            push = powered and carrier.pushing
            if push:
                current += step_carrier(carrier, dt, drive)[1]
                if (payload.state is _STOWED
                        and carrier.payload_displacement >= stroke):
                    release_payload(payload, vehicle, now)
                    events.append(Event(now, "ejected",
                                        payload.release_altitude))
                    if stop_at_verdict:
                        n_ticks = tick + 1
                    # Fly the whole descent now; its landing ends the run.
                    try:
                        for p in range(tick, n_ticks):
                            previous = payload.state
                            step_payload(payload, dt, atmosphere)
                            if payload.state is previous:
                                continue
                            landed = payload.state is PayloadState.LANDED
                            descent.append(Event(
                                p * dt, "payload_landed" if landed
                                else "payload_chute_open", payload.altitude))
                            if landed:
                                n_ticks = p + 1
                                break
                    except DomainError as exc:
                        exc.tick, exc.body = p, "payload"
                        raise
                    fail_tick = min(fail_tick, n_ticks)

            # Battery: account by delivered charge, so the audit is exact.
            total_current = current + quiescent
            pre_voltage = battery.voltage
            delivered = drain_battery(battery, total_current, dt)
            if delivered > 0.0:
                charge_drawn += delivered
                energy += pre_voltage * delivered
                if total_current > peak_current:
                    peak_current = total_current
                if battery.failed:      # the pack died on this tick
                    logic_idle = settled

            # Telemetry (lowest priority) reads no payload field.
            if telemetry_due:
                telemetry.append(make_telemetry_record(
                    now, vehicle, controller, door, carrier, battery,
                    delivered / dt, faults))

            # Only a task starts the rod, the door or a push: if none moved
            # and the pack delivered nothing, the ticks up to the next task
            # that can act rest.
            end = tick + 1
            rest = quiet if logic_idle else free
            if rest and not (delivered or rod or swing or push):
                end = (tick + rest + 1 if tick + rest < fail_tick
                       else fail_tick)

            # Fly the ticks [tick, end), one call from each phase change to
            # the next.  Vehicle events are stamped at the end of their tick.
            while True:
                previous_phase = vehicle.phase
                tick += step_vehicle(vehicle_spec, vehicle, dt, atmosphere,
                                     end - tick, sample, tick)
                if vehicle.phase is not previous_phase:
                    if vehicle.phase is FlightPhase.DROGUE_DESCENT:
                        events.append(Event(tick * dt, "apogee_truth",
                                            vehicle.altitude))
                    elif vehicle.phase is FlightPhase.LANDED:
                        events.append(Event(tick * dt, "vehicle_landed", 0.0))
                        if payload.state is _STOWED:
                            n_ticks = end = tick
                if tick == end:
                    break
                sample(vehicle.altitude, tick)
    except DomainError as exc:
        # The tick, and the body if not the vehicle, as the raiser names.
        tick = getattr(exc, "tick", tick)
        body = getattr(exc, "body", "vehicle")
        raise DomainError(
            f"at t={tick * dt:.3f} s the {body} left the 0-11 km atmosphere "
            f"model band: {exc}") from exc
    # Stable: a payload event follows the loop's events of its stamp.
    events += descent
    events.sort(key=lambda event: event.time)

    if payload.state is not _STOWED:
        in_window = (trigger.deploy_floor <= payload.release_altitude
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
        deploy_altitude_truth=payload.release_altitude,
        deploy_time=payload.release_time,
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

"""Whole-mission simulation loop, verdicts, sweeps and CSV rendering.

Each pass of the tick loop runs one busy tick and the rest ticks after
it, straight down: barometer sampling (fed the tick index), the
scheduled battery failure, the cooperative tasks that are due (sense
and estimate at 50 Hz, deploy logic at 100 Hz), one actuation step of
the busy tick, telemetry (20 Hz) and the rest rule; then one
`step_vehicle` call samples the barometer and flies the busy tick and
its rest, and stops sooner at a flight phase change or a wake, from
which the next pass carries on; then, if the rod, the door or the
carrier moved or the pack delivered charge on the busy tick, actuation
steps over the rest ticks the vehicle flew, so a landing with the
payload aboard ends those too.

One actuation step steps the rod, the door and the carrier and drains
the pack (only of current drawn from a live pack): over the busy tick,
or over a segment of a rest, the ticks on which the rest rule's bounds
on the rod, the swing, the rack and the charge show that no flag, draw
or event of the mechanism can change, each stepper taking them in one
call; a tick on which something may change steps alone, so each such
change keeps its own tick.  The push that releases the payload flies
its whole descent there in one `step_payload` call; the release, the
chute opening and the landing are recorded on the payload, and the
landing sets the run's last tick.

Deploy logic runs on a logic tick when what it reads
(`DeploymentController.reads`) changed since it last ran, or on its
deadline (`DeploymentController.deadline_tick`: the door timeout, the
end of the settle dwell or the push timeout).  A latched reading that
can move it (`DeploymentController.wakes_on`) makes the barometer wake
the loop on its sense tick.  One rule sets each rest: it runs up to
the earliest of the schedule's bound (up to the next logic tick while
what deploy logic reads changed since it last ran), the deadline, the
scheduled battery failure and the run's last tick; and, while the
mechanism moves or the pack delivers, the next telemetry tick, whose
row prints them, and, unless deploy logic has settled, the first tick
whose step could change what it reads, from closed-form bounds on the
rod, the swing, the rack and the charge (under the load, plus the rod's
current while it retracts and stall current while the carrier pushes),
so such a change, the release among them, falls on a busy tick.  The
loop computes the rod's, the swing's and the rack's step once per run,
with `actuation._tick_steps`, whose floats the scenario checked finite
and > 0, and hands each to its stepper, so the bounds and the steps are
the same floats.  A rest
in which nothing moves writes the telemetry rows inside it: there only
the time, the vehicle's state and the latched altitude change from row
to row, and the other fields are those of the record built on the busy
tick.  Everything downstream of the scenario and seed is
deterministic, so equal inputs give byte-identical telemetry.
"""

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .actuation import (BatteryState, CarrierState, DoorState, FaultPlan,
                        _tick_steps, begin_push, carrier_drive, command_unlock,
                        drain_battery, halt_carrier, step_carrier, step_door)
from .atmosphere import MODEL_CEILING, Barometer, first_tick
from .controller import DeploymentController, DeployPhase, TaskSchedule
from .errors import DomainError, ScenarioError
from .flight import (FlightPhase, FlightState, initial_state, release_payload,
                     step_payload, step_vehicle)
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
# A record from a tuple of its 12 fields in `TELEMETRY_COLUMNS` order:
# `TelemetryRecord._make` without its Python frame and its length check
# (every caller passes 12), under 60 % of the NamedTuple constructor's cost.
_make_record = functools.partial(tuple.__new__, TelemetryRecord)

_SAFE_HOLD = DeployPhase.SAFE_HOLD


def make_telemetry_record(now: float, vehicle: FlightState,
                          controller: DeploymentController, door: DoorState,
                          carrier: CarrierState, battery: BatteryState,
                          sensed_altitude: float, current: float,
                          faults: FaultPlan) -> TelemetryRecord:
    """One telemetry row.  `sensed_altitude` is the altitude the
    barometer latched (`Barometer.latched`), `current` the pack's
    current on the tick.  SafeHold carries its reason in
    `deploy_phase`; `fault_flags` joins the active faults with "+", or
    is "-".  The fields from `flight_phase` on are those a stretch in
    which nothing moves holds fixed.

    Labels are read with `_value_`: on Python 3.11 `Enum.value` is a
    Python-level property that costs about ten times as much.
    """
    phase = controller.phase
    if phase is _SAFE_HOLD:
        deploy_phase = f"SafeHold({controller.safe_hold_reason._value_})"
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
    return _make_record((
        now,                                            # time_s
        vehicle.altitude,                               # truth_alt_m
        vehicle.velocity,                               # truth_vel_mps
        sensed_altitude,                                # sensed_alt_m
        vehicle.phase._value_,                          # flight_phase
        deploy_phase,                                   # deploy_phase
        door.angle,                                     # door_angle_rad
        carrier.rack_extension,                         # rack_ext_m
        carrier.push_count,                             # push_count
        current,                                        # current_a
        battery.voltage,                                # battery_v
        "+".join(flags) if flags else "-",              # fault_flags
    ))


def _quiet(rest, distance: float, step: float, scale: float):
    """The smaller of `rest` and the number of ticks that surely keep a
    running sum short of `distance` when each tick moves it by at most
    `step`.  The distance is cut, and the step grown, by 1e-12 of
    `scale`, the largest magnitude the sum takes, which covers the
    rounding of its floats."""
    slack = 1e-12 * scale
    ticks = (distance - slack) / (step + slack)
    return max(0, int(ticks)) if ticks < rest else rest


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
    sense_period, logic_period, row_period = schedule.period_ticks
    idle_rest = schedule.idle_rest
    barometer = Barometer(scenario.barometer, atmosphere, dt, n_ticks,
                          sense_period)
    barometer.wake = controller.wakes_on()
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

    # The rows of a stretch in which deploy logic is idle and nothing
    # moves: only the time, the vehicle's state and the latched altitude
    # change there, so the rest of each row is `status`, the fields from
    # `flight_phase` on of the record built on the busy tick that begins
    # the stretch.
    status = ()

    def write_row(k, altitude, velocity):
        telemetry.append(_make_record(
            (k * dt, altitude, velocity, barometer.latched) + status))

    # The first tick at or after the scheduled battery failure still due.
    fail_tick = n_ticks
    if fail_time is not None and fail_time < n_ticks * dt:
        fail_tick = first_tick(lambda k: k * dt >= fail_time,
                               math.ceil(fail_time / dt))

    sample = barometer.sample
    actuator_current = door_spec.actuator_current
    max_open = door_spec.max_open
    open_threshold = door_spec.open_threshold
    # What one tick moves the rod, the door and the rack, by the formulas
    # the scenario checked finite and > 0: the steppers take these
    # steps, and the rest rule bounds with them.
    rod_step, swing_step, travel = _tick_steps(door_spec, drive.rack_speed, dt)

    def quiet(rest, rod, push):
        """The smaller of `rest` and the number of ticks from now that
        surely change no flag of the mechanism while the rod retracts
        if `rod` and the rack moves if `push`: the rod stays locked, an
        unjammed, unlocked door short of open, the rack short of the
        stroke or of 0 and the pack alive under the load, the rod's
        current and, the most a pushing carrier draws, stall current,
        by the closed-form bounds of `_quiet`."""
        if rod and door.locked:
            rest = _quiet(rest, door.rod_travel, rod_step, 1.0)
        if not door_jam and not door.locked and not door.open:
            rest = _quiet(rest, open_threshold - door.angle, swing_step,
                          max_open)
        # A push carries the payload the whole stroke with the rack or
        # not at all (a slipped gear, a broken link), and a halted push
        # is the last, so the payload reaches the stroke no sooner than
        # the rack.
        if push and carrier.pushing:
            extension = carrier.rack_extension
            if carrier.retracting:
                rest = _quiet(rest, extension, travel, stroke)
            elif not drive.stalls:
                rest = _quiet(rest, stroke - extension, travel, stroke)
        draw = ((actuator_current if rod else 0.0)
                + (drive.stall_current if push else 0.0) + quiescent)
        if draw and not battery.failed:
            rest = _quiet(rest, battery.charge, draw * dt, battery.charge)
        return rest

    def actuate(k, limit):
        """Step the rod, the door and the carrier from tick `k`, and drain
        the pack, over one tick if `limit` is 1, else over the ticks up
        to `limit` that `quiet` allows, or the first alone.  A dead pack
        drives neither the lock rod nor the rack; the door swings
        unpowered, unless it is jammed.  Returns the ticks stepped,
        whether the rod, the door and the rack moved, and the charge
        delivered on the last tick."""
        nonlocal n_ticks
        powered = not battery.failed
        rod = powered and phase is unlocking and door.locked
        push = powered and carrier.pushing
        n = (quiet(limit, rod, push) or 1) if limit > 1 else 1
        current = 0.0
        if rod:
            command_unlock(door, rod_step, n)
            current += actuator_current
            if not door.locked:
                events.append(Event(k * dt, "door_unlocked", 0.0))
        swing = not door_jam and not door.locked and door.angle < max_open
        if swing:
            was_open = door.open
            step_door(door, door_spec, swing_step, n)
            if door.open and not was_open:
                events.append(Event(k * dt, "door_open", door.angle))
        if push:
            current += step_carrier(carrier, travel, drive, n)[1]
            if (payload.release_time is None
                    and carrier.payload_displacement >= stroke):
                release_payload(payload, vehicle, k * dt)
                events.append(Event(k * dt, "ejected",
                                    payload.release_altitude))
                if stop_at_verdict:
                    n_ticks = k + 1
                # Fly the whole descent now; its landing ends the run.
                descent = step_payload(payload, dt, atmosphere, n_ticks - k,
                                       k)
                if payload.landing_time is not None:
                    n_ticks = k + descent
        # Drained only of current drawn from a live pack, and accounted
        # by delivered charge, so the audit is exact.
        delivered = 0.0
        if powered and current + quiescent:
            delivered = drain_battery(battery, current + quiescent, dt, n,
                                      audit)
        return n, rod, swing, push, delivered

    phase = controller.phase    # as of the last tick; update_phase moves it
    settled = False             # phase is SafeHold or Ejected, both absorbing
    reads = controller.reads
    seen = None         # what deploy logic read when it last ran
    deadline = n_ticks  # the logic tick on which the running timeout fires
    woke = False        # the last stretch stopped on a wake at `tick`
    # The charge (C) and energy (J) the pack delivered and its peak
    # current (A), which `drain_battery` adds to tick by tick.
    audit = [0.0, 0.0, 0.0]
    # Members compared on every tick, bound once: attribute access on an
    # Enum class is slow on Python 3.11 (see flight.py).
    safe_hold = _SAFE_HOLD
    unlocking = DeployPhase.UNLOCKING
    ejected = DeployPhase.EJECTED

    # Each pass runs one busy tick, then flies it and the rest ticks
    # after it, up to a phase change.  Only the flight can leave the
    # atmosphere band; say when, and which body.
    tick = 0
    try:
        while tick < n_ticks:
            if not woke:        # a wake has sampled its tick
                sample(vehicle.altitude, tick)
            now = tick * dt
            if tick == fail_tick:       # no stretch crosses it
                battery.voltage = 0.0
                battery.failed = True
                fail_tick = n_ticks

            (sense_due, logic_due, telemetry_due,
             free) = schedule.due_at_tick(tick)
            if sense_due:
                controller.task_sense(barometer.latched, barometer.peak)
                if controller.task_estimate():
                    events.append(Event(now, "apogee_sensed",
                                        controller.sensed_altitude))
                    barometer.wake = controller.wakes_on()
            # Deploy logic runs when what it reads changed since it last
            # ran, or on its deadline.
            if logic_due and (tick >= deadline or not settled and reads(
                    door, carrier, battery) != seen):
                seen = reads(door, carrier, battery)
                for cmd in controller.update_phase(door, carrier, battery,
                                                   now):
                    commands.append(CommandLogEntry(
                        now, cmd.name, cmd.value, vehicle.altitude))
                    if cmd.name == "push":
                        begin_push(carrier, door.open)
                if controller.phase is not phase:
                    phase = controller.phase
                    settled = phase is safe_hold or phase is ejected
                    deadline = controller.deadline_tick(tick, dt,
                                                        logic_period, n_ticks)
                    barometer.wake = controller.wakes_on()
                    if phase is safe_hold:
                        # Safing de-energizes the rack once; SafeHold never
                        # drives the lock rod or commands a push again.
                        halt_carrier(carrier)
                        events.append(Event(now, "safe_hold",
                                            controller.safe_hold_reason.value))
                        if stop_at_verdict:
                            n_ticks = tick + 1

            _, rod, swing, push, delivered = actuate(tick, 1)
            moving = delivered or rod or swing or push

            # Telemetry (lowest priority) reads no payload field.  A rest
            # in which nothing moves writes the rows inside it from this
            # tick's record.
            if telemetry_due or not moving:
                record = make_telemetry_record(
                    now, vehicle, controller, door, carrier, battery,
                    barometer.latched, delivered / dt, faults)
                if telemetry_due:
                    telemetry.append(record)
                status = record[4:]

            # The rest rule (see the module docstring).
            rest = (idle_rest if settled or reads(door, carrier, battery)
                    == seen else free)
            if moving:
                rest = min(rest, -(tick + 1) % row_period)
                if not settled:
                    rest = quiet(rest, rod, push)
            end = min(tick + rest + 1, deadline, fail_tick, n_ticks)

            # Fly the ticks [tick, end) up to a phase change.  The next
            # pass carries on from there inside the rest, where no task
            # that can act is due.  Vehicle events are stamped at the end
            # of their tick.
            previous_phase = vehicle.phase
            flown = step_vehicle(vehicle_spec, vehicle, dt, atmosphere,
                                 end - tick, sample, tick, write_row,
                                 row_period)
            # Short of `end` with the phase unchanged: a wake.
            woke = tick + flown < end and vehicle.phase is previous_phase
            end = tick + flown
            if vehicle.phase is not previous_phase:
                if vehicle.phase is FlightPhase.DROGUE_DESCENT:
                    events.append(Event(end * dt, "apogee_truth",
                                        vehicle.altitude))
                elif vehicle.phase is FlightPhase.LANDED:
                    events.append(Event(end * dt, "vehicle_landed", 0.0))
                    if payload.release_time is None:
                        n_ticks = end

            # The mechanism steps the rest ticks the vehicle flew; only a
            # task starts the rod, the door or a push.
            k = tick + 1
            while moving and k < end:
                k += actuate(k, end - k)[0]
            tick = end
    except DomainError as exc:
        # The tick, and the body if not the vehicle, as the raiser names.
        tick = getattr(exc, "tick", tick)
        body = getattr(exc, "body", "vehicle")
        raise DomainError(
            f"at t={tick * dt:.3f} s the {body} left the "
            f"0-{MODEL_CEILING / 1000:g} km atmosphere model band: {exc}"
        ) from exc
    # The payload's events follow the loop's events of their stamp (the
    # sort is stable).
    if payload.chute_time is not None:
        events.append(Event(payload.chute_time, "payload_chute_open",
                            payload.chute_altitude))
    if payload.landing_time is not None:
        events.append(Event(payload.landing_time, "payload_landed", 0.0))
    events.sort(key=lambda event: event.time)

    if payload.release_time is not None:
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
        energy_used=audit[1],
        peak_current=audit[2],
    )
    return MissionResult(verdict=verdict, telemetry=telemetry,
                         commands=commands, events=events,
                         battery_final=battery, charge_drawn=audit[0])


def sweep(base: Scenario, key: str, values) -> list[tuple[float, MissionVerdict]]:
    """One independent run per value, same seed, rows in input order.

    The swept key must exist in the schema and be numeric.  Every
    scenario is built before the first run, so a bad value fails before
    any run, naming the value.  An int key takes integral floats, which
    is how the CLI parses values; the schema rejects any other float.
    Each run stops as soon as its verdict is decided, since the sweep
    output is just the table.
    """
    entry = SCHEMA.get(key)
    if entry is None:
        raise ScenarioError(f"unknown sweep key {key!r}")
    if entry.kind is bool:
        raise ScenarioError(f"sweep key {key!r} is not numeric")
    siblings = []
    for value in values:
        if (entry.kind is int and isinstance(value, float)
                and value.is_integer()):
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

"""Deployment sequencing: trigger logic, state machine, task schedule.

The controller sees only sensed altitude (with whatever noise, latency
and quantization the barometer added); ground truth never enters a
decision.  It runs as cooperative tasks on the shared logical clock, so
every decision lands on a deploy-logic tick and replays identically for
a given scenario and seed.

Sequence: Locked -> AwaitWindow -> Unlocking -> DoorOpenWait ->
StabilizeDelay -> Push(1..3) -> Ejected, with SafeHold as the absorbing
abort state.  SafeHold never retries and never commands anything.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .actuation import BatteryState, CarrierState, DoorState
from .atmosphere import TIME_EPS
from .errors import ParameterError

# Settle time between the door reading open and the first push.
STABILIZE_DWELL_S = 2.0


class DeployPhase(enum.Enum):
    LOCKED = "Locked"
    AWAIT_WINDOW = "AwaitWindow"
    UNLOCKING = "Unlocking"
    DOOR_OPEN_WAIT = "DoorOpenWait"
    STABILIZE_DELAY = "StabilizeDelay"
    PUSH_1 = "Push(1)"
    PUSH_2 = "Push(2)"
    PUSH_3 = "Push(3)"
    EJECTED = "Ejected"
    SAFE_HOLD = "SafeHold"


_PUSH_INDEX = {DeployPhase.PUSH_1: 1, DeployPhase.PUSH_2: 2,
               DeployPhase.PUSH_3: 3}
_NEXT_PUSH = {1: DeployPhase.PUSH_2, 2: DeployPhase.PUSH_3}

# Phases compared on every logic tick, bound once: attribute access on
# an Enum class is slow on Python 3.11 (see flight.py).
_SAFE_HOLD = DeployPhase.SAFE_HOLD
_EJECTED = DeployPhase.EJECTED
_LOCKED = DeployPhase.LOCKED
_AWAIT_WINDOW = DeployPhase.AWAIT_WINDOW
_UNLOCKING = DeployPhase.UNLOCKING
_DOOR_OPEN_WAIT = DeployPhase.DOOR_OPEN_WAIT
_STABILIZE_DELAY = DeployPhase.STABILIZE_DELAY

MAX_PUSHES = 3


class SafeHoldReason(enum.Enum):
    WINDOW_MISSED = "window-missed"
    DOOR_TIMEOUT = "door-timeout"
    PUSH_TIMEOUT = "push-timeout"
    PUSHES_EXHAUSTED = "pushes-exhausted"
    BATTERY_FAILURE = "battery-failure"
    FLOOR_BREACHED = "floor-breached"


@dataclass(frozen=True, slots=True)
class TriggerConfig:
    """Deployment window and watchdog settings.

    push_timeout None means three push cycles at the no-load rack
    speed; `build_scenario` resolves it into the scenario's trigger.
    """

    deploy_ceiling: float               # m, sensed
    deploy_floor: float                 # m, sensed
    arm_after_apogee: bool
    door_open_timeout: float            # s from the unlock command
    push_timeout: float | None          # s per push phase
    apogee_confirm_drop: float          # m of sensed descent = apogee seen
    window_allowance: float             # m of verdict slack above the ceiling

    def __post_init__(self) -> None:
        if self.deploy_floor >= self.deploy_ceiling:
            raise ParameterError(
                f"deploy_floor ({self.deploy_floor}) must be below "
                f"deploy_ceiling ({self.deploy_ceiling})")


class Command(NamedTuple):
    """One actuation command emitted by deploy logic."""

    name: str       # "unlock" | "push"
    value: float    # sensed altitude for unlock, push number for push


# ---------------------------------------------------------------------------
# Cooperative task schedule


# Rates in Hz, in priority order: sense (read the barometer, then
# estimate the state), deploy logic, telemetry.
TASK_RATES = (50.0, 100.0, 20.0)


def task_period_ticks(dt: float) -> tuple[int, int, int]:
    """The period of each task of `TASK_RATES` in ticks of `dt`.

    Raises ParameterError unless dt divides every period exactly, which
    keeps due-ness pure integer arithmetic.
    """
    period_ticks = []
    for rate in TASK_RATES:
        period = 1.0 / rate
        ticks = round(period / dt)
        if ticks < 1 or abs(ticks * dt - period) > 1e-9 * max(period, dt):
            raise ParameterError(
                f"dt={dt} does not divide the task period {period} s")
        period_ticks.append(ticks)
    return tuple(period_ticks)


class TaskSchedule:
    """The fixed-priority rate table `TASK_RATES` on the logical clock.

    Tasks due on the same tick run in priority order, each to
    completion.  dt must divide every task period (`task_period_ticks`).
    """

    def __init__(self, dt: float) -> None:
        period_ticks = task_period_ticks(dt)
        # Due-ness repeats with the period lcm; precompute one cycle.
        cycle = math.lcm(*period_ticks)
        self._cycle = cycle
        pattern = []
        free = quiet = 0    # slot 0, which follows the last, is always due
        for tick in reversed(range(cycle)):
            due = tuple(tick % p == 0 for p in period_ticks)
            pattern.append((*due, free, quiet))
            free = 0 if any(due) else free + 1
            quiet = 0 if due[0] or due[2] else quiet + 1
        self._pattern = tuple(reversed(pattern))

    def due_at_tick(self, tick: int) -> tuple[bool, bool, bool, int, int]:
        """Due flags (sense, logic, telemetry), then the task-free ticks
        after, and the ticks after on which no task but logic is due."""
        return self._pattern[tick % self._cycle]


# ---------------------------------------------------------------------------
# Controller


class DeploymentController:
    """Runs the deployment protocol from sensed altitude alone."""

    def __init__(self, trigger: TriggerConfig, stroke: float) -> None:
        """`stroke` in m ejects the payload.  `trigger.push_timeout`
        must be resolved, as in every scenario's trigger."""
        self.trigger = trigger
        self.stroke = stroke
        self.phase = DeployPhase.LOCKED
        self.safe_hold_reason: SafeHoldReason | None = None
        # NaN before the first reading: it fails every comparison, so
        # no apogee is confirmed and deploy logic waits in AwaitWindow.
        self.sensed_altitude = math.nan
        self.apogee_seen = False
        self._max_sensed = -math.inf
        # Start of the running timeout: the unlock command (door
        # timeout), the door reading open (settle dwell), the last push.
        self._since: float | None = None

    # -- tasks, in schedule priority order ---------------------------------

    def task_sense(self, altitude: float) -> None:
        """Latch the newest sensed altitude (`Barometer.latest`)."""
        self.sensed_altitude = altitude

    def task_estimate(self) -> bool:
        """Track peak sensed altitude; True on the call that confirms
        apogee, a drop of `apogee_confirm_drop` below the peak."""
        altitude = self.sensed_altitude
        if altitude > self._max_sensed:
            self._max_sensed = altitude
        elif (not self.apogee_seen
              and self._max_sensed - altitude
              >= self.trigger.apogee_confirm_drop):
            self.apogee_seen = True
            return True
        return False

    def _hold(self, reason: SafeHoldReason) -> list[Command]:
        self.phase = DeployPhase.SAFE_HOLD
        self.safe_hold_reason = reason
        return []

    def update_phase(self, door: DoorState, carrier: CarrierState,
                     battery: BatteryState, now: float) -> list[Command]:
        """One deploy-logic tick: advance the phase, emit commands.

        SafeHold and Ejected are absorbing; neither ever emits.
        """
        phase = self.phase
        if phase is _SAFE_HOLD or phase is _EJECTED:
            return []

        if phase is _LOCKED:
            # Arming happens on the first logic tick after power-up.
            self.phase = _AWAIT_WINDOW
            return []

        if battery.failed:
            return self._hold(SafeHoldReason.BATTERY_FAILURE)

        altitude = self.sensed_altitude
        trigger = self.trigger

        if phase is _AWAIT_WINDOW:
            armed = self.apogee_seen or not trigger.arm_after_apogee
            if self.apogee_seen and altitude < trigger.deploy_floor:
                return self._hold(SafeHoldReason.WINDOW_MISSED)
            if armed and trigger.deploy_floor <= altitude <= trigger.deploy_ceiling:
                self.phase = _UNLOCKING
                self._since = now
                return [Command("unlock", altitude)]
            return []

        # Past AwaitWindow the floor is a hard abort until ejection.
        if altitude < trigger.deploy_floor:
            return self._hold(SafeHoldReason.FLOOR_BREACHED)

        if phase is _UNLOCKING:
            if not door.locked:
                self.phase = _DOOR_OPEN_WAIT
            elif now - self._since >= trigger.door_open_timeout - TIME_EPS:
                return self._hold(SafeHoldReason.DOOR_TIMEOUT)
            return []

        if phase is _DOOR_OPEN_WAIT:
            if door.open:
                self.phase = _STABILIZE_DELAY
                self._since = now
            elif now - self._since >= trigger.door_open_timeout - TIME_EPS:
                return self._hold(SafeHoldReason.DOOR_TIMEOUT)
            return []

        if phase is _STABILIZE_DELAY:
            if now - self._since >= STABILIZE_DWELL_S - TIME_EPS:
                self.phase = DeployPhase.PUSH_1
                self._since = now
                return [Command("push", 1.0)]
            return []

        # Push phases.
        push_index = _PUSH_INDEX[phase]
        if carrier.payload_displacement >= self.stroke:
            self.phase = _EJECTED
            return []
        if carrier.push_count >= push_index and not carrier.pushing:
            if push_index < MAX_PUSHES:
                self.phase = _NEXT_PUSH[push_index]
                self._since = now
                return [Command("push", float(push_index + 1))]
            # All pushes spent without ejection: give up, stay safe.
            return self._hold(SafeHoldReason.PUSHES_EXHAUSTED)
        if now - self._since >= trigger.push_timeout - TIME_EPS:
            return self._hold(SafeHoldReason.PUSH_TIMEOUT)
        return []

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

from .actuation import (BatteryState, CarrierState, DoorState, ServoSpec,
                        rack_speed)
from .atmosphere import TIME_EPS
from .errors import ParameterError
from .mechanism import MechanismParams

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

    push_timeout None means three times one full push cycle, computed
    from the mechanism once the controller is built.
    """

    deploy_ceiling: float               # m, sensed
    deploy_floor: float                 # m, sensed
    arm_after_apogee: bool
    door_open_timeout: float            # s from the unlock command
    push_timeout: float | None          # s per push phase
    apogee_confirm_drop: float          # m of sensed descent = apogee seen
    window_allowance: float             # m sensed-vs-truth slack for verdicts

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


DEFAULT_TASKS = (
    ("sense_barometer", 50.0),
    ("estimate_state", 50.0),
    ("deploy_logic", 100.0),
    ("telemetry", 20.0),
)


def task_period_ticks(dt: float) -> tuple[int, ...]:
    """The period of each task of `DEFAULT_TASKS` in ticks of `dt`.

    Raises ParameterError unless dt divides every period exactly, which
    keeps due-ness pure integer arithmetic.
    """
    period_ticks = []
    for name, rate in DEFAULT_TASKS:
        period = 1.0 / rate
        ticks = round(period / dt)
        if ticks < 1 or abs(ticks * dt - period) > 1e-9 * max(period, dt):
            raise ParameterError(
                f"dt={dt} does not divide the period of task {name!r} "
                f"({period} s)")
        period_ticks.append(ticks)
    return tuple(period_ticks)


class TaskSchedule:
    """The fixed-priority rate table `DEFAULT_TASKS` on the logical clock.

    Priority is listed order; tasks due on the same tick run in that
    order, each to completion.  dt must divide every task period
    (`task_period_ticks`).
    """

    def __init__(self, dt: float) -> None:
        period_ticks = task_period_ticks(dt)
        # Due-ness repeats with the period lcm; precompute one cycle.
        cycle = math.lcm(*period_ticks)
        self._cycle = cycle
        self._pattern = tuple(
            tuple(name for (name, _), p in zip(DEFAULT_TASKS, period_ticks)
                  if tick % p == 0)
            for tick in range(cycle))

    def due_at_tick(self, tick: int) -> tuple[str, ...]:
        """Tasks due on tick `tick`, in priority order."""
        return self._pattern[tick % self._cycle]


# ---------------------------------------------------------------------------
# Controller


class DeploymentController:
    """Runs the deployment protocol from sensed altitude alone."""

    def __init__(self, trigger: TriggerConfig, mechanism: MechanismParams,
                 servo: ServoSpec) -> None:
        self.trigger = trigger
        self.mechanism = mechanism
        if trigger.push_timeout is not None:
            self.push_timeout = trigger.push_timeout
        else:
            cycle = 2.0 * mechanism.stroke / rack_speed(
                servo, mechanism.pinion_pitch_diameter)
            self.push_timeout = 3.0 * cycle
        self.phase = DeployPhase.LOCKED
        self.safe_hold_reason: SafeHoldReason | None = None
        self.sensed_altitude: float | None = None
        self.apogee_seen = False
        self.unlock_time: float | None = None
        self.door_open_seen: float | None = None
        self._max_sensed = -math.inf
        self._push_phase_start: float | None = None

    # -- tasks, in schedule priority order ---------------------------------

    def task_sense(self, sample) -> None:
        """Latch the newest barometer reading."""
        self.sensed_altitude = sample[1]

    def task_estimate(self) -> bool:
        """Track peak sensed altitude; True on the call that confirms
        apogee, a drop of `apogee_confirm_drop` below the peak."""
        altitude = self.sensed_altitude
        if altitude is None:
            return False
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
        if altitude is None:
            return []
        trigger = self.trigger

        if phase is _AWAIT_WINDOW:
            armed = self.apogee_seen or not trigger.arm_after_apogee
            if self.apogee_seen and altitude < trigger.deploy_floor:
                return self._hold(SafeHoldReason.WINDOW_MISSED)
            if armed and trigger.deploy_floor <= altitude <= trigger.deploy_ceiling:
                self.phase = _UNLOCKING
                self.unlock_time = now
                return [Command("unlock", altitude)]
            return []

        # Past AwaitWindow the floor is a hard abort until ejection.
        if altitude < trigger.deploy_floor:
            return self._hold(SafeHoldReason.FLOOR_BREACHED)

        if phase is _UNLOCKING:
            if not door.locked:
                self.phase = _DOOR_OPEN_WAIT
            elif now - self.unlock_time >= trigger.door_open_timeout - TIME_EPS:
                return self._hold(SafeHoldReason.DOOR_TIMEOUT)
            return []

        if phase is _DOOR_OPEN_WAIT:
            if door.open:
                self.phase = _STABILIZE_DELAY
                self.door_open_seen = now
            elif now - self.unlock_time >= trigger.door_open_timeout - TIME_EPS:
                return self._hold(SafeHoldReason.DOOR_TIMEOUT)
            return []

        if phase is _STABILIZE_DELAY:
            if now - self.door_open_seen >= STABILIZE_DWELL_S - TIME_EPS:
                self.phase = DeployPhase.PUSH_1
                self._push_phase_start = now
                return [Command("push", 1.0)]
            return []

        # Push phases.
        push_index = _PUSH_INDEX[phase]
        if carrier.payload_displacement >= self.mechanism.stroke:
            self.phase = _EJECTED
            return []
        if carrier.push_count >= push_index and not carrier.pushing:
            if push_index < MAX_PUSHES:
                self.phase = _NEXT_PUSH[push_index]
                self._push_phase_start = now
                return [Command("push", float(push_index + 1))]
            # All pushes spent without ejection: give up, stay safe.
            return self._hold(SafeHoldReason.PUSHES_EXHAUSTED)
        if now - self._push_phase_start >= self.push_timeout - TIME_EPS:
            return self._hold(SafeHoldReason.PUSH_TIMEOUT)
        return []

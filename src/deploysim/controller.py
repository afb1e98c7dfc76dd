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
from .atmosphere import TIME_EPS, first_tick
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
    completion.  dt must divide every task period (`task_period_ticks`);
    the sense and telemetry periods are then multiples of the logic
    period, so every tick a task is due on is a logic tick.
    """

    # The ticks after a busy tick that idle deploy logic rests through:
    # all of them.
    idle_rest = math.inf

    def __init__(self, dt: float) -> None:
        self.period_ticks = task_period_ticks(dt)

    def due_at_tick(self, tick: int) -> tuple[bool, bool, bool, int]:
        """Due flags (sense, logic, telemetry), then the count of the
        ticks after on which no task is due."""
        sense, logic, telemetry = self.period_ticks
        if tick % logic:
            return False, False, False, -(tick + 1) % logic
        return tick % sense == 0, True, tick % telemetry == 0, logic - 1


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
        self.sensed_peak = -math.inf
        self.apogee_seen = False
        # Start of the running timeout: the unlock command (door
        # timeout), the door reading open (settle dwell), the last push.
        self._since: float | None = None
        # The limit of the timeout that runs in each timed phase, s.
        door = trigger.door_open_timeout
        self._limits = {_UNLOCKING: door, _DOOR_OPEN_WAIT: door,
                        _STABILIZE_DELAY: STABILIZE_DWELL_S,
                        **dict.fromkeys(_PUSH_INDEX, trigger.push_timeout)}

    # -- tasks, in schedule priority order ---------------------------------

    def task_sense(self, altitude: float, peak: float) -> None:
        """Take the altitude the barometer latched on this sense tick
        and the highest latched one (`Barometer.latched` and
        `Barometer.peak`)."""
        self.sensed_altitude = altitude
        self.sensed_peak = peak

    def task_estimate(self) -> bool:
        """True on the call that confirms apogee: the latched altitude
        is `apogee_confirm_drop` (positive) or more below the peak."""
        if (not self.apogee_seen
                and self.sensed_peak - self.sensed_altitude
                >= self.trigger.apogee_confirm_drop):
            self.apogee_seen = True
            return True
        return False

    def wakes_on(self) -> tuple[float, float, float] | None:
        """`(low, high, drop)`, the latched readings r that can move
        deploy logic while it is idle (`Barometer.wake`): `low <= r <=
        high`, or r `drop` or more below the peak.  Until apogee is
        sensed, the drop that confirms it; in AwaitWindow, the window
        once armed, with no floor after apogee, when a reading below it
        misses the window; from Unlocking up to the ejection, a reading
        below the floor, which aborts (r < floor is r <= the float just
        below it).  None once apogee is sensed in any other phase: no
        reading can move it, and the peak is not read again."""
        trigger = self.trigger
        seen = self.apogee_seen
        drop = math.inf if seen else trigger.apogee_confirm_drop
        phase = self.phase
        if phase is _AWAIT_WINDOW and (
                seen or not trigger.arm_after_apogee):
            return (-math.inf if seen else trigger.deploy_floor,
                    trigger.deploy_ceiling, drop)
        if phase in self._limits:
            return (-math.inf,
                    math.nextafter(trigger.deploy_floor, -math.inf), drop)
        return None if seen else (math.inf, -math.inf, drop)

    def reads(self, door: DoorState, carrier: CarrierState,
              battery: BatteryState) -> tuple:
        """What `update_phase` branches on, other than the time: while
        this is unchanged since the last `update_phase` call, another
        call cannot act before the deadline (`deadline_tick`).  The
        payload reaching the stroke is left out: that happens only on
        the tick `push_count` rises."""
        return (self.phase, self.sensed_altitude, self.apogee_seen,
                battery.failed, door.locked, door.open, carrier.pushing,
                carrier.push_count)

    def _timed_out(self, now: float) -> bool:
        """The running timeout of a timed phase has expired at `now`."""
        return now - self._since >= self._limits[self.phase] - TIME_EPS

    def deadline_tick(self, tick: int, dt: float, logic: int,
                      ticks: int) -> int:
        """The first logic tick after `tick` (ticks of `dt` s, logic
        every `logic` ticks) on which the running timeout fires by
        `update_phase`'s own test: the door timeout, the end of the
        settle dwell or the push timeout.  `ticks`, the run's tick
        count, if no timeout runs or none fires before it."""
        # A timeout that fires within the run keeps the estimate finite
        # (a limit of 1e300 never does) and bounds the walk forward.
        if self.phase not in self._limits or not self._timed_out(
                (ticks - 1) * dt):
            return ticks
        return min(ticks, first_tick(
            lambda k: k > tick and self._timed_out(k * dt),
            math.ceil((self._since + self._limits[self.phase])
                      / dt / logic) * logic, logic))

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
            elif self._timed_out(now):
                return self._hold(SafeHoldReason.DOOR_TIMEOUT)
            return []

        if phase is _DOOR_OPEN_WAIT:
            if door.open:
                self.phase = _STABILIZE_DELAY
                self._since = now
            elif self._timed_out(now):
                return self._hold(SafeHoldReason.DOOR_TIMEOUT)
            return []

        if phase is _STABILIZE_DELAY:
            if self._timed_out(now):
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
        if self._timed_out(now):
            return self._hold(SafeHoldReason.PUSH_TIMEOUT)
        return []

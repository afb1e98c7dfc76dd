"""Troposphere pressure model and a simulated barometric altimeter.

The pressure model is the standard-atmosphere barometric formula with a
linear temperature lapse, valid from sea level to 11 km.  Its inverse is
closed-form, so pressure -> altitude round-trips to machine precision.
"""

import functools
import math
import random
from array import array
from dataclasses import dataclass, field
from math import log as _log

from .errors import DomainError, ParameterError

# Standard-atmosphere physical constants.  Single source for every
# module that needs air properties.
GAS_CONSTANT = 8.31432          # J/(mol*K)
MOLAR_MASS_AIR = 0.0289644      # kg/mol
# m/s^2, g0 of the barometric formula.  Flight and sizing use
# mechanism.GRAVITY = 9.81; the two are kept apart because either
# change would move every output byte.
STANDARD_GRAVITY = 9.80665
MODEL_CEILING = 11000.0         # m, top of the linear-lapse band

# s, slack for float arithmetic on the shared logical clock.  Single
# source for every module that compares tick times.
TIME_EPS = 1e-9


def first_tick(reached, guess: int, step: int = 1) -> int:
    """The first tick on the grid `guess + n*step` where `reached`
    holds.  Its one precondition: along the grid `reached` stays true
    once it holds, and is false somewhere below `guess` and true
    somewhere above.  Walks back from `guess` while the tick before
    also holds, then forward until the test holds, so a guess a tick
    or two off, as a float quotient gives, costs a tick or two.
    """
    tick = guess
    while reached(tick - step):
        tick -= step
    while not reached(tick):
        tick += step
    return tick


@dataclass(frozen=True, slots=True)
class AtmosphereModel:
    """Linear-lapse troposphere, queryable between 0 and 11 km.

    The derived constants are slots filled once in `__post_init__`, so
    `dataclasses.replace` recomputes them.  They are not cached
    properties: on CPython 3.11 filling one writes the instance
    `__dict__`, which makes every later attribute read on the model
    two to three times slower, and the tick loop reads it on every tick.
    """

    sea_level_pressure: float       # Pa
    sea_level_temperature: float    # K
    lapse_rate: float               # K/m
    # g*M / (R*L), the exponent of the barometric formula.
    exponent: float = field(init=False, repr=False, compare=False)
    # Pressure at the top of the model band; lower is out of range.
    min_pressure: float = field(init=False, repr=False, compare=False)
    # Factors of the inverse formula, `_altitude_in_band`.
    _temperature_scale: float = field(init=False, repr=False, compare=False)
    _inverse_exponent: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Lapse must leave positive temperature across the whole band.
        if self.sea_level_temperature - self.lapse_rate * MODEL_CEILING <= 0.0:
            raise ParameterError("lapse_rate drives temperature below zero "
                                 "inside the model band")
        # And it must be steep enough for the formula to resolve
        # altitude: a step of 2**-53 in `1 - L*h/T` is 2**-53 * T/L
        # metres, 0.1 mm at this bound, where a noise-free run at 10 ms
        # still senses the truth to within 1 mm of its sample lag.
        if self.lapse_rate < 1e-12 * self.sea_level_temperature:
            raise ParameterError("lapse_rate / sea_level_temperature below "
                                 "1e-12 per metre cannot resolve altitude")
        object.__setattr__(self, "exponent", (
            STANDARD_GRAVITY * MOLAR_MASS_AIR
            / (GAS_CONSTANT * self.lapse_rate)))
        object.__setattr__(self, "min_pressure",
                           pressure_at_altitude(self, MODEL_CEILING))
        object.__setattr__(self, "_temperature_scale",
                           self.sea_level_temperature / self.lapse_rate)
        object.__setattr__(self, "_inverse_exponent", 1.0 / self.exponent)


def pressure_at_altitude(model: AtmosphereModel, altitude: float) -> float:
    """Static pressure in Pa at `altitude` metres above sea level."""
    altitude = float(altitude)
    if not 0.0 <= altitude <= MODEL_CEILING:    # also rejects NaN
        raise DomainError(f"altitude {altitude!r} outside model band "
                          f"[0, {MODEL_CEILING}] m")
    base = 1.0 - model.lapse_rate * altitude / model.sea_level_temperature
    return model.sea_level_pressure * base ** model.exponent


def density_at_altitude(model: AtmosphereModel, altitude: float) -> float:
    """Air density in kg/m^3 from the ideal gas law: the pressure of
    `pressure_at_altitude` over the linear temperature profile.

    The reference formula, and the source of the flight steppers' band
    error: they inline it with the same float operations in the same
    order and call it only for an altitude outside the band.
    """
    return (pressure_at_altitude(model, altitude) * MOLAR_MASS_AIR
            / (GAS_CONSTANT * (model.sea_level_temperature
                               - model.lapse_rate * altitude)))


def _altitude_in_band(model: AtmosphereModel, pressure: float) -> float:
    """The inverse for a pressure already inside the model band.

    The reference inverse: `Barometer.sample` inlines it with the same
    float operations in the same order.
    """
    ratio = pressure / model.sea_level_pressure
    return model._temperature_scale * (
        1.0 - ratio ** model._inverse_exponent)


@dataclass(frozen=True, slots=True)
class BarometerSpec:
    """Sampling and noise figures for the flight barometer."""

    sample_rate: float      # Hz
    noise_sigma: float      # Pa, gaussian on pressure
    quantization: float     # Pa, 0 disables
    latency: float          # s, fixed transport delay
    seed: int               # of the noise stream


@functools.lru_cache(maxsize=1)
def _reading_schedule(dt: float, period: float, latency: float, run: int):
    """Where the readings of a run of `run` ticks of `dt` seconds fall:
    reading n is due on tick `ticks[n]` and reports the truth of tick
    `truths[n]`.  A tick equal to `run` marks that no reading is left.

    Returns `(ticks, truths, extend)`.  The arrays start with reading 0
    (tick 0, truth of tick 0) and `extend()` appends the next reading,
    so they are filled only as far as some barometer has read, at 8
    bytes a reading (16 in a run of 2**31 ticks or more).  They depend
    on the clock alone, so every barometer on the newest clock shares
    them; one on another clock replaces them in the cache, while one
    still flying keeps its own.  The cache is process-local and not
    locked, like the single-threaded tick loop.
    """
    # A reading due later than this falls outside the run.
    end = (run - 1) * dt + TIME_EPS
    # Ticks between readings when dt divides the period; a guess.
    stride = max(1, round(min(period / dt, run)))
    # 4 bytes a tick while every tick of the run fits, else 8.
    code = "i" if run < 2 ** 31 else "q"
    ticks = array(code, (0,))
    truths = array(code, (0,))

    def extend() -> None:
        # The next reading and its truth tick lie one period after the
        # last reading's: `first_tick` starts there and walks where dt
        # does not divide the period or the delay is still filling.
        # Each test below holds from some tick on, and its `> tick` or
        # `> truth` clause bounds the walk back.
        tick = ticks[-1]
        truth = truths[-1]
        due = len(ticks) * period
        # None left in the run.  Checked before the walk: the stride is
        # capped at the run, so such a reading may lie far past its guess.
        if due > end:
            ticks.append(run)
            truths.append(truth)
            return
        # The first later tick whose time reaches `due`.
        k = first_tick(lambda k: k > tick and k * dt + TIME_EPS >= due,
                       tick + stride)
        # The newest tick that is `latency` old, unless that is older
        # than the last truth tick, which is then held: one before the
        # first later tick that is too young.
        target = k * dt - latency + TIME_EPS
        ticks.append(k)
        truths.append(first_tick(lambda j: j > truth and j * dt > target,
                                 truth + k - tick) - 1)

    return ticks, truths, extend


class Barometer:
    """Simulated pressure altimeter with noise, quantization and latency.

    Built for one run of `ticks` ticks of `dt` seconds, read by a
    controller that senses every `sense_period` ticks.  Call
    `sample(altitude, tick)` on every tick, in order from tick 0; it
    returns a reading (pressure, altitude) on sample-rate boundaries and
    None otherwise, or True on the tick the armed wake falls on.
    `latched` is the newest reading that a sense tick at or before the
    current tick has latched, NaN before the first.  A reading is due on
    the first tick k with `k*dt + TIME_EPS >= index*period`, at most one
    per tick.  Latency is
    a fixed delay: the reading reports the truth of the newest tick
    j <= k with `j*dt <= k*dt - latency + TIME_EPS`, or of the tick the
    last reading reported while no tick is that old (tick 0 at first).
    Noise is gaussian on pressure: the Kinderman-Monahan loop of the
    stdlib `random.normalvariate`, vendored here over
    `random.Random(seed).random()`, the Mersenne Twister, so a given
    seed reproduces the same stream whatever `random.py` ships.  It
    makes the same draws and accept decisions: `normalvariate` accepts
    when `z*z/4 <= -log(u2)`, with `u2 = 1 - r2` exact for the second
    draw r2, and as -log(1 - r2) >= r2 + r2*r2/2 the loop first tries
    `z*z/4 <= r2`, without `log`, where r2 >= 2**-40 makes the margin
    r2*r2/2 at least 2**10 units in the last place of the `log`.
    Quantization gives `round(steps) * quantum`, steps = pressure /
    quantum: below 2**51 in magnitude, `steps + 1.5 * 2**52` lies where
    floats are one apart, so that sum rounds half to even as `round`
    does, and taking 1.5 * 2**52 off again is exact.

    The altitudes live in a ring of ceil(latency/dt) + 1 floats (never
    more than `ticks`), indexed by tick, so a tick without a reading
    stores one float and compares one int.  The ticks of the readings
    and of their truth depend only on the clock, so they come from the
    cached `_reading_schedule(dt, 1/sample_rate, latency, ticks)`, and
    barometers are for one thread.  An in-band reading runs in this one
    frame: the pressure formula and the inverse are inlined, with the
    same float operations in the same order as `pressure_at_altitude`
    and `_altitude_in_band`, and so is the noise.  The reference
    `pressure_at_altitude` raises the band error.

    A sense tick, a multiple of `sense_period`, latches the newest
    reading, so a reading is latched by the first sense tick at or after
    it unless the next reading comes first; that too depends on the
    clock alone.  The barometer owns the latch: `sample` sets `latched`
    on the latching tick itself, at once for a reading on a sense tick,
    else from the pending reading when its latch tick comes, and the
    controller and telemetry read it there.  `wake` is None, disarmed,
    or `(low, high, drop)`, as `DeploymentController.wakes_on()` gives
    it.  While it is armed, `peak` is the highest latched reading (-inf
    before the first), and a latched reading r with `low <= r <= high`
    or `peak - r >= drop` wakes the loop: `sample` returns True, in
    place of the reading or None, on the sense tick that latches it.
    The wake test runs where a reading is latched, and only there.
    """

    def __init__(self, spec: BarometerSpec, model: AtmosphereModel,
                 dt: float, ticks: int, sense_period: int = 1) -> None:
        self.model = model
        self._random = random.Random(spec.seed).random
        # The model's figures that a reading uses, in unpacking order.
        self._air = (model.sea_level_pressure, model.sea_level_temperature,
                     model.lapse_rate, model.exponent, model.min_pressure,
                     model._temperature_scale, model._inverse_exponent)
        self._sigma = spec.noise_sigma
        self._quantum = spec.quantization
        self._reading_ticks, self._truths, self._extend = _reading_schedule(
            dt, 1.0 / spec.sample_rate, spec.latency, ticks)
        self._next_index = 0            # index of the next reading
        self._next_tick = 0             # its tick
        # Truth is at most ceil(latency/dt) ticks older than its reading.
        self._size = max(1, min(ticks, math.ceil(
            min(spec.latency / dt, ticks)) + 1))
        self._ring = [0.0] * self._size
        self._sense_period = sense_period
        # NaN until a reading is latched; `_pending` is a reading that
        # awaits its latch tick.
        self.latched = self._pending = math.nan
        self.peak = -math.inf
        self.wake = None

    def sample(self, true_altitude: float, tick: int):
        """Feed the truth of `tick`; get (pressure, altitude), None, or
        True on a wake."""
        self._ring[tick % self._size] = true_altitude
        if tick < self._next_tick:
            return None
        index = self._next_index
        reading_ticks = self._reading_ticks
        if tick < reading_ticks[index]:     # a pending reading's latch
            self._next_tick = reading_ticks[index]
            reading, altitude = None, self._pending
        else:
            # This reading's truth tick and the next reading's tick, from
            # the shared schedule; the first barometer to need them finds
            # them.
            truth = self._truths[index]
            delayed_altitude = self._ring[truth % self._size]
            index += 1
            self._next_index = index
            if index == len(reading_ticks):
                self._extend()
            self._next_tick = next_tick = reading_ticks[index]

            if not 0.0 <= delayed_altitude <= MODEL_CEILING:  # and NaN
                try:
                    pressure_at_altitude(self.model, delayed_altitude)
                except DomainError as exc:
                    exc.tick = truth    # the tick whose altitude it quotes
                    raise
            (sea_level_pressure, sea_level_temperature, lapse_rate, exponent,
             min_pressure, temperature_scale, inverse_exponent) = self._air
            pressure = sea_level_pressure * (
                1.0 - lapse_rate * delayed_altitude / sea_level_temperature
            ) ** exponent
            sigma = self._sigma
            if sigma > 0.0:
                # random.normalvariate(0.0, sigma), whose constant
                # NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0) is written
                # out.  Its `0.0 + z * sigma` drops the `0.0 +`, which
                # only turns -0.0 into 0.0, and a pressure in the band is
                # never zero.
                # The squeeze `zz <= r2` spares most `log` calls (see the
                # class docstring).
                random = self._random
                while True:
                    u1 = random()
                    r2 = random()
                    u2 = 1.0 - r2
                    z = 1.7155277699214135 * (u1 - 0.5) / u2
                    zz = z * z / 4.0
                    if zz <= r2 and r2 >= 2.0 ** -40 or zz <= -_log(u2):
                        break
                pressure += z * sigma
            quantum = self._quantum
            if quantum > 0.0:
                steps = pressure / quantum
                # round(steps) * quantum (see the class docstring), but
                # NaN and inf are skipped.
                if -2.0 ** 51 < steps < 2.0 ** 51:
                    pressure = (steps + 1.5 * 2.0 ** 52
                                - 1.5 * 2.0 ** 52) * quantum
                elif math.isfinite(steps):
                    pressure = round(steps) * quantum
            # Clamp into the invertible band, which makes a range check
            # on the inverse redundant and bounds an infinite reading.
            if pressure > sea_level_pressure:
                pressure = sea_level_pressure
            elif pressure < min_pressure:
                pressure = min_pressure
            altitude = temperature_scale * (
                1.0 - (pressure / sea_level_pressure) ** inverse_exponent)
            reading = pressure, altitude
            # The first sense tick from here latches it, unless the next
            # reading comes first.
            latch = tick + -tick % self._sense_period
            if latch != tick:
                if latch < next_tick:
                    self._pending = altitude
                    self._next_tick = latch
                return reading
        self.latched = altitude
        wake = self.wake
        if wake is not None:
            low, high, drop = wake
            peak = self.peak
            if altitude > peak:
                self.peak = peak = altitude
            if low <= altitude <= high or peak - altitude >= drop:
                return True
        return reading

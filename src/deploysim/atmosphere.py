"""Troposphere pressure model and a simulated barometric altimeter.

The pressure model is the standard-atmosphere barometric formula with a
linear temperature lapse, valid from sea level to 11 km.  Its inverse is
closed-form, so pressure -> altitude round-trips to machine precision.
"""

import math
import random
from dataclasses import dataclass, field

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
    """Air density in kg/m^3 from the ideal gas law.

    Called on every tick of a mission, so it inlines the band check and
    the formula of `pressure_at_altitude`, with the same operations in
    the same order, and the linear temperature profile.  Every caller
    passes a float, so unlike `pressure_at_altitude` it converts nothing.
    """
    if not 0.0 <= altitude <= MODEL_CEILING:    # also rejects NaN
        raise DomainError(f"altitude {altitude!r} outside model band "
                          f"[0, {MODEL_CEILING}] m")
    drop = model.lapse_rate * altitude
    base = 1.0 - drop / model.sea_level_temperature
    pressure = model.sea_level_pressure * base ** model.exponent
    temperature = model.sea_level_temperature - drop
    return pressure * MOLAR_MASS_AIR / (GAS_CONSTANT * temperature)


def _altitude_in_band(model: AtmosphereModel, pressure: float) -> float:
    """The inverse for a pressure already inside the model band."""
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


class Barometer:
    """Simulated pressure altimeter with noise, quantization and latency.

    Built for one run of `ticks` ticks of `dt` seconds.  Call
    `sample(altitude, tick)` on every tick, in order from tick 0; it
    returns a reading (pressure, altitude) on sample-rate boundaries and
    None otherwise.  `latest` is the newest sensed altitude, NaN before
    the first reading.  A reading is due on the first tick k with
    `k*dt + TIME_EPS >= index*period`, at most one per tick.  Latency is
    a fixed delay: the reading reports the truth of the newest tick
    j <= k with `j*dt <= k*dt - latency + TIME_EPS`, or of the tick the
    last reading reported while no tick is that old (tick 0 at first).
    Noise is gaussian on pressure, drawn from the stdlib Mersenne
    Twister (`random.Random`, `normalvariate`), so a given seed
    reproduces the same stream on any platform.

    The altitudes live in a ring of ceil(latency/dt) + 1 floats (never
    more than `ticks`), indexed by tick, so a tick without a reading
    stores one float and compares one int.  Each reading finds the next
    one and its truth tick, one period later on both, and walks from
    there where dt does not divide the period or the delay is still
    filling.
    """

    def __init__(self, spec: BarometerSpec, model: AtmosphereModel,
                 dt: float, ticks: int) -> None:
        self.model = model
        self._rng = random.Random(spec.seed)
        self._dt = dt
        self._ticks = ticks
        # A reading due later than this falls outside the run.
        self._end = (ticks - 1) * dt + TIME_EPS
        self._period = 1.0 / spec.sample_rate
        self._latency = spec.latency
        self._sigma = spec.noise_sigma
        self._quantum = spec.quantization
        # Ticks between readings when dt divides the period; a guess.
        self._stride = max(1, round(min(self._period / dt, ticks)))
        self._next_index = 0            # index of the next reading
        self._next_tick = 0             # its tick
        self._truth_tick = 0            # the tick whose altitude it reports
        # Truth is at most ceil(latency/dt) ticks older than its reading.
        self._size = max(1, min(ticks, math.ceil(
            min(spec.latency / dt, ticks)) + 1))
        self._ring = [0.0] * self._size
        self.latest = math.nan

    def sample(self, true_altitude: float, tick: int):
        """Feed the truth of `tick`; get (pressure, altitude) or None."""
        self._ring[tick % self._size] = true_altitude
        if tick < self._next_tick:
            return None
        truth = self._truth_tick
        delayed_altitude = self._ring[truth % self._size]

        # Find the next reading and its truth tick, inline: at 10 ms this
        # runs on every other tick.
        index = self._next_index + 1
        self._next_index = index
        due = index * self._period
        if due > self._end:
            self._next_tick = self._ticks       # none left in the run
        else:
            dt = self._dt
            # The first later tick whose time reaches `due`.
            k = tick + self._stride
            while k > tick + 1 and (k - 1) * dt + TIME_EPS >= due:
                k -= 1
            now = k * dt
            while now + TIME_EPS < due:
                k += 1
                now = k * dt
            self._next_tick = k
            # The newest tick up to k that is `latency` old, unless that
            # is older than this truth tick; guess this reading's lag.
            target = now - self._latency + TIME_EPS
            held = truth
            j = held + k - tick
            while j > held and j * dt > target:
                j -= 1
            if j > held:
                while j < k and (j + 1) * dt <= target:
                    j += 1
                self._truth_tick = j

        model = self.model
        try:
            pressure = pressure_at_altitude(model, delayed_altitude)
        except DomainError as exc:
            exc.tick = truth    # the tick whose altitude it quotes
            raise
        sigma = self._sigma
        if sigma > 0.0:
            pressure += self._rng.normalvariate(0.0, sigma)
        quantum = self._quantum
        if quantum > 0.0:
            steps = pressure / quantum
            if math.isfinite(steps):
                pressure = round(steps) * quantum
        # Clamp into the invertible band, which makes a range check on
        # the inverse redundant and bounds an infinite reading.
        if pressure > model.sea_level_pressure:
            pressure = model.sea_level_pressure
        elif pressure < model.min_pressure:
            pressure = model.min_pressure
        self.latest = altitude = _altitude_in_band(model, pressure)
        return pressure, altitude

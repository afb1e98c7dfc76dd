"""Troposphere pressure model and a simulated barometric altimeter.

The pressure model is the standard-atmosphere barometric formula with a
linear temperature lapse, valid from sea level to 11 km.  Its inverse is
closed-form, so pressure -> altitude round-trips to machine precision.
"""

import math
import random
from collections import deque
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
    lapse = model.lapse_rate
    base = 1.0 - lapse * altitude / model.sea_level_temperature
    pressure = model.sea_level_pressure * base ** model.exponent
    temperature = model.sea_level_temperature - lapse * altitude
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

    Call `sample()` every simulation tick; it returns a reading only on
    sample-rate boundaries and None otherwise.  Noise is gaussian on
    pressure, drawn from the stdlib Mersenne Twister (`random.Random`,
    `normalvariate`), so a given seed reproduces the same stream on any
    platform.  Latency is a fixed delay: a reading emitted at time t
    reflects the true altitude at t - latency.  The truth buffer holds
    the ticks of one sample period plus the latency.
    """

    def __init__(self, spec: BarometerSpec, model: AtmosphereModel) -> None:
        self.spec = spec
        self.model = model
        self._rng = random.Random(spec.seed)
        self._period = 1.0 / spec.sample_rate
        self._latency = spec.latency
        self._next_index = 0            # index of the next sample to emit
        self._next_time = 0.0           # _next_index * _period
        # (time, altitude) since the last reading, back to t - latency
        self._truth: deque = deque()

    def sample(self, true_altitude: float, tick_time: float):
        """Feed one tick of truth; get (pressure, altitude) or None.

        `tick_time` must not go backwards between calls.
        """
        truth = self._truth
        truth.append((tick_time, true_altitude))
        if tick_time + TIME_EPS < self._next_time:
            return None
        self._next_index += 1
        self._next_time = self._next_index * self._period

        # Keep truth[0] as the newest entry at or before t - latency.
        # Times only grow, so trimming here, once per reading, leaves
        # what trimming on every tick would.
        target = tick_time - self._latency + TIME_EPS
        while len(truth) > 1 and truth[1][0] <= target:
            truth.popleft()

        # Oldest retained entry is the truth from `latency` seconds ago
        # (or the earliest available while the buffer is still filling).
        delayed_altitude = truth[0][1]
        model = self.model
        pressure = pressure_at_altitude(model, delayed_altitude)
        sigma = self.spec.noise_sigma
        if sigma > 0.0:
            pressure += self._rng.normalvariate(0.0, sigma)
        quantum = self.spec.quantization
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
        return pressure, _altitude_in_band(model, pressure)

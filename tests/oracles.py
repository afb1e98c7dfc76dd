"""Closed-form oracles the tests check the package against.

Each is the textbook formula with its constants written out here rather
than imported, so a wrong constant or derived factor in the package
shows up as a mismatch.  Call them inside their domain only: they do no
range checks.  `DequeBarometer` is a reference of another kind: the
straightforward implementation that the package's barometer replaced.
`step_once` is plumbing, for tests that fly the vehicle tick by tick.
"""

import math
import random
from collections import deque

from deploysim.atmosphere import (TIME_EPS, _altitude_in_band,
                                  pressure_at_altitude)
from deploysim.flight import step_vehicle

G = 9.81                        # m/s^2, flight and sizing gravity
STANDARD_GRAVITY = 9.80665      # m/s^2, g0 of the barometric formula
MOLAR_MASS_AIR = 0.0289644      # kg/mol
GAS_CONSTANT = 8.31432          # J/(mol*K)


def temperature_at_altitude(model, altitude):
    """Linear-lapse air temperature in K at `altitude` metres."""
    return model.sea_level_temperature - model.lapse_rate * altitude


def altitude_from_pressure(model, pressure):
    """Altitude in m where the barometric formula gives `pressure` Pa."""
    exponent = (GAS_CONSTANT * model.lapse_rate
                / (STANDARD_GRAVITY * MOLAR_MASS_AIR))
    ratio = pressure / model.sea_level_pressure
    return model.sea_level_temperature / model.lapse_rate * (
        1.0 - ratio ** exponent)


def step_once(spec, state, dt, model):
    """Fly the vehicle one tick with a no-op sampler, which a single
    tick never calls."""
    return step_vehicle(spec, state, dt, model, 1,
                        lambda altitude, tick: None, 0)


def terminal_speed(mass, drag_area, rho):
    """Steady descent speed sqrt(2*m*g / (rho*Cd*A)) in m/s."""
    return math.sqrt(2.0 * mass * G / (rho * drag_area))


class DequeBarometer:
    """The barometer as it was before it ran on the tick grid: fed the
    tick time, it keeps (time, altitude) pairs in a deque and trims it
    on each reading.  The reference for `deploysim.atmosphere.Barometer`;
    `peak` is the most pairs it has held at once.  The pressure path
    (noise, quantization, clamp, inverse) is the package's own, since
    only the choice of reading tick and truth tick is under test.
    """

    def __init__(self, spec, model):
        self.spec = spec
        self.model = model
        self._rng = random.Random(spec.seed)
        self._period = 1.0 / spec.sample_rate
        self._latency = spec.latency
        self._next_index = 0
        self._next_time = 0.0
        self._truth = deque()
        self.peak = 0

    def sample(self, true_altitude, tick_time):
        truth = self._truth
        truth.append((tick_time, true_altitude))
        self.peak = max(self.peak, len(truth))
        if tick_time + TIME_EPS < self._next_time:
            return None
        self._next_index += 1
        self._next_time = self._next_index * self._period
        target = tick_time - self._latency + TIME_EPS
        while len(truth) > 1 and truth[1][0] <= target:
            truth.popleft()
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
        if pressure > model.sea_level_pressure:
            pressure = model.sea_level_pressure
        elif pressure < model.min_pressure:
            pressure = model.min_pressure
        return pressure, _altitude_in_band(model, pressure)

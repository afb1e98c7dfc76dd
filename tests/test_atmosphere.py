"""Standard-atmosphere and barometer tests.

89874.57050221064 Pa at 1000 m was recomputed independently from the
troposphere closed form with the standard constants (g0 = 9.80665,
M = 0.0289644, R = 8.31432, L = 0.0065, T0 = 288.15, p0 = 101325)
before being frozen here.
"""

import math
import random
import statistics
from dataclasses import replace

import pytest

from deploysim import DomainError, build_scenario
from deploysim.atmosphere import (Barometer, _altitude_in_band,
                                  density_at_altitude, pressure_at_altitude)
from oracles import (DequeBarometer, altitude_from_pressure,
                     temperature_at_altitude)

NOMINAL = build_scenario()
MODEL = NOMINAL.atmosphere


def test_sea_level_pressure():
    assert pressure_at_altitude(MODEL, 0.0) == 101325.0


def test_pressure_at_1000m_frozen():
    assert pressure_at_altitude(MODEL, 1000.0) == pytest.approx(
        89874.57050221064, abs=1e-6)


def test_pressure_near_model_ceiling():
    # Tropopause value of the standard tables, to the pascal.
    assert pressure_at_altitude(MODEL, 11000.0) == pytest.approx(
        22632.06, abs=0.01)


def test_temperature_profile_is_linear():
    assert temperature_at_altitude(MODEL, 0.0) == 288.15
    assert temperature_at_altitude(MODEL, 1000.0) == pytest.approx(281.65)
    assert temperature_at_altitude(MODEL, 11000.0) == pytest.approx(216.65)


def test_density_follows_ideal_gas():
    rho = density_at_altitude(MODEL, 0.0)
    assert rho == pytest.approx(101325.0 * 0.0289644 / (8.31432 * 288.15))
    assert rho == pytest.approx(1.225, abs=1e-3)


def test_density_is_bit_identical_to_the_component_formulas():
    # density_at_altitude inlines pressure and temperature; it must
    # reproduce their composition exactly, band edges included.
    grid = [0.0, 11000.0, 1e-9, 10999.999999]
    grid += [h * 137.5 for h in range(81)]
    for h in grid:
        expected = (pressure_at_altitude(MODEL, h) * 0.0289644
                    / (8.31432 * temperature_at_altitude(MODEL, h)))
        assert density_at_altitude(MODEL, h) == expected, h
    other = replace(MODEL, sea_level_pressure=95000.0,
                    sea_level_temperature=300.0, lapse_rate=0.008)
    for h in grid:
        expected = (pressure_at_altitude(other, h) * 0.0289644
                    / (8.31432 * temperature_at_altitude(other, h)))
        assert density_at_altitude(other, h) == expected, h


def test_density_rejects_what_pressure_rejects():
    for bad in (-1.0, 11000.1, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            density_at_altitude(MODEL, bad)
    assert density_at_altitude(MODEL, 300) == density_at_altitude(MODEL,
                                                                  300.0)


def test_pressure_is_strictly_decreasing():
    rng = random.Random(11)
    for _ in range(300):
        h1 = rng.uniform(0.0, 10999.0)
        h2 = h1 + rng.uniform(0.01, 10999.0 - h1 + 1.0)
        h2 = min(h2, 11000.0)
        assert pressure_at_altitude(MODEL, h1) > pressure_at_altitude(MODEL, h2)


def test_altitude_pressure_round_trip():
    rng = random.Random(12)
    for _ in range(500):
        h = rng.uniform(0.0, 11000.0)
        p = pressure_at_altitude(MODEL, h)
        back = _altitude_in_band(MODEL, p)
        assert back == pytest.approx(h, abs=1e-9 * max(1.0, h) + 1e-9)


def test_round_trip_other_direction():
    rng = random.Random(13)
    lo = MODEL.min_pressure
    assert lo == pressure_at_altitude(MODEL, 11000.0)
    for _ in range(200):
        p = rng.uniform(lo, 101325.0)
        h = _altitude_in_band(MODEL, p)
        assert h == pytest.approx(altitude_from_pressure(MODEL, p),
                                  abs=1e-9 * max(1.0, h) + 1e-9)
        assert pressure_at_altitude(MODEL, h) == pytest.approx(p, rel=1e-12)


def test_altitude_outside_band_rejected():
    with pytest.raises(DomainError):
        pressure_at_altitude(MODEL, -1.0)
    with pytest.raises(DomainError):
        pressure_at_altitude(MODEL, 11000.1)


# ---------------------------------------------------------------------------
# Barometer


def _quiet_spec(**kwargs):
    """The nominal 50 Hz barometer, noise-free and without delay unless
    `kwargs` say otherwise."""
    quiet = dict(noise_sigma=0.0, quantization=0.0, latency=0.0, seed=0)
    quiet.update(kwargs)
    return replace(NOMINAL.barometer, **quiet)


def test_sample_cadence_50hz():
    dt = 0.001
    baro = Barometer(_quiet_spec(), MODEL, dt, 100)
    emitted = []
    for tick in range(100):
        s = baro.sample(500.0, tick)
        if s is not None:
            emitted.append(tick)
    # 50 Hz on a 1 ms grid: every 20th tick starting at 0.
    assert emitted == [0, 20, 40, 60, 80]


def test_latest_is_the_newest_sensed_altitude():
    baro = Barometer(_quiet_spec(noise_sigma=3.0, seed=7), MODEL, 0.001, 40)
    assert math.isnan(baro.latest)
    _, altitude = baro.sample(500.0, 0)
    assert type(altitude) is float
    assert baro.latest == altitude
    # Held through the ticks without a reading, then replaced.
    for tick in range(1, 20):
        assert baro.sample(510.0, tick) is None
        assert baro.latest == altitude
    _, newer = baro.sample(520.0, 20)
    assert newer != altitude
    assert baro.latest == newer


def test_noise_free_sample_reports_truth():
    baro = Barometer(_quiet_spec(), MODEL, 0.02, 1)
    pressure, altitude = baro.sample(1000.0, 0)
    assert pressure == pytest.approx(89874.57050221064, abs=1e-6)
    assert altitude == pytest.approx(1000.0, abs=1e-9)


def test_noise_mean_within_statistical_bound():
    """Seed 42, 1000 samples at 1000 m: mean error under 3 sigma/sqrt(n)."""
    spec = _quiet_spec(noise_sigma=3.0, seed=42)
    baro = Barometer(spec, MODEL, 0.02, 1000)
    truth = pressure_at_altitude(MODEL, 1000.0)
    values = []
    for k in range(1000):
        s = baro.sample(1000.0, k)
        assert s is not None
        values.append(s[0])
    mean = statistics.fmean(values)
    assert abs(mean - truth) < 3 * 3.0 / math.sqrt(1000)
    assert statistics.pstdev(values) == pytest.approx(3.0, rel=0.15)


def test_same_seed_same_stream():
    a = Barometer(_quiet_spec(noise_sigma=3.0, seed=7), MODEL, 0.02, 200)
    b = Barometer(_quiet_spec(noise_sigma=3.0, seed=7), MODEL, 0.02, 200)
    for k in range(200):
        assert a.sample(800.0, k) == b.sample(800.0, k)


def test_different_seed_different_stream():
    a = Barometer(_quiet_spec(noise_sigma=3.0, seed=7), MODEL, 0.02, 50)
    b = Barometer(_quiet_spec(noise_sigma=3.0, seed=8), MODEL, 0.02, 50)
    seen_different = False
    for k in range(50):
        if a.sample(800.0, k) != b.sample(800.0, k):
            seen_different = True
    assert seen_different


def test_quantization_snaps_to_grid():
    spec = _quiet_spec(noise_sigma=3.0, quantization=1.0, seed=3)
    baro = Barometer(spec, MODEL, 0.02, 100)
    for k in range(100):
        pressure, _ = baro.sample(1200.0, k)
        assert pressure == round(pressure)


def test_latency_reports_stale_truth():
    """With a 20 ms delay the sensed altitude matches truth 20 ms ago."""
    spec = _quiet_spec(latency=0.02)
    dt = 0.001
    baro = Barometer(spec, MODEL, dt, 200)
    climb_rate = 50.0  # m/s
    truth = {}
    got = []
    for tick in range(200):
        t = tick * dt
        h = 100.0 + climb_rate * t
        truth[tick] = h
        s = baro.sample(h, tick)
        if s is not None and tick >= 20:
            got.append((tick, s[1]))
    assert got, "no delayed samples emitted"
    for tick, sensed in got:
        assert sensed == pytest.approx(truth[tick - 20], abs=1e-6)


def test_sensed_altitude_monotone_when_noise_free():
    baro = Barometer(_quiet_spec(quantization=1.0), MODEL, 0.02, 200)
    previous = None
    for k in range(200):
        h = 50.0 + 5.0 * k
        s = baro.sample(h, k)
        assert s is not None
        if previous is not None:
            assert s[1] >= previous
        previous = s[1]


def test_clamp_keeps_altitude_in_band():
    # Huge noise would otherwise push pressure above sea level or
    # below the model ceiling; the clamp keeps the inverse legal.
    spec = _quiet_spec(noise_sigma=5000.0, seed=1)
    baro = Barometer(spec, MODEL, 0.02, 500)
    for k in range(500):
        pressure, altitude = baro.sample(2.0, k)
        assert MODEL.min_pressure <= pressure <= 101325.0
        assert 0.0 <= altitude <= 11000.0


@pytest.mark.parametrize("kwargs", [
    dict(quantization=5e-324),                      # pressure / quantum = inf
    dict(noise_sigma=1e308, quantization=1.0, seed=1),  # noise reaches +-inf
])
def test_overflowing_reading_is_clamped_not_raised(kwargs):
    baro = Barometer(_quiet_spec(**kwargs), MODEL, 0.02, 200)
    for k in range(200):
        pressure, altitude = baro.sample(300.0, k)
        assert MODEL.min_pressure <= pressure <= 101325.0
        assert 0.0 <= altitude <= 11000.0


@pytest.mark.parametrize("dt", [0.001, 0.01, 0.0003])
@pytest.mark.parametrize("rate", [50.0, 30.0, 7.0, 333.0])
def test_tick_grid_barometer_matches_the_deque_reference(dt, rate):
    """Fed the same altitudes, the barometer on the tick grid emits on
    the same ticks and returns the same floats, bit for bit, as the
    deque barometer fed the tick time, and never holds more truth than
    the deque did at its peak.  The altitudes are random per tick, so
    reporting any other truth tick shows in the pressure.
    """
    period = 1.0 / rate
    ticks = round(1.5 / dt)
    rng = random.Random(20)
    stream = [rng.uniform(0.0, 11000.0) for _ in range(ticks)]
    for latency in (0.0, period, 3 * period, 1e300):
        spec = _quiet_spec(sample_rate=rate, latency=latency,
                           noise_sigma=3.0, seed=5)
        baro = Barometer(spec, MODEL, dt, ticks)
        reference = DequeBarometer(spec, MODEL)
        emitted = 0
        for tick, altitude in enumerate(stream):
            got = baro.sample(altitude, tick)
            want = reference.sample(altitude, tick * dt)
            if want is None:
                assert got is None, (latency, tick)
                continue
            emitted += 1
            assert got is not None, (latency, tick)
            assert [x.hex() for x in got] == [x.hex() for x in want], (
                latency, tick)
        assert emitted >= 10, latency
        assert len(baro._ring) <= reference.peak, latency

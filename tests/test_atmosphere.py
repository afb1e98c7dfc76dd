"""Standard-atmosphere and barometer tests.

89874.57050221064 Pa at 1000 m was recomputed independently from the
troposphere closed form with the standard constants (g0 = 9.80665,
M = 0.0289644, R = 8.31432, L = 0.0065, T0 = 288.15, p0 = 101325)
before being frozen here.
"""

import hashlib
import itertools
import math
import random
import statistics
from dataclasses import replace

import pytest

from deploysim import DomainError, atmosphere, build_scenario
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
    # density_at_altitude is the composition of pressure and
    # temperature, exactly, band edges included.
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


# Each formula's floats over a fixed grid, bit for bit, for the default
# model and two off it.  At 1 ms the goldens barely see a one-ulp drift
# in the air density (one step's drag is far below an ulp of the
# velocity), so the reference formulas are pinned here directly.
_PINNED_MODELS = {
    "default": MODEL,
    "warm_low_pressure": replace(MODEL, sea_level_pressure=98000.0,
                                 sea_level_temperature=296.5,
                                 lapse_rate=0.0071),
    "cold_shallow_lapse": replace(MODEL, sea_level_pressure=103000.0,
                                  sea_level_temperature=268.0,
                                  lapse_rate=0.005),
}
_PINNED_DIGESTS = {
    "default": (
        "cfd6ebfe9e5acb7c7099daaf76393c84713103a74a87b17f7fb63287168fe908",
        "0798f2e76bc9b9443437c21e02324f5744cf0c6508f67dd31e19ece2b31ee271",
        "6d490b99bf4ee153ec0924923ff4efd3eab002090cc25159d3599dc186ffa9d2"),
    "warm_low_pressure": (
        "dc817eb020654457f49c316e554fd4093f8c28f0412ee422e1bf1a473eced883",
        "a84f56aed339c5eb95bee89a96eefb1b7007dca840f25468fbcd1d4e3b0cc365",
        "1b91f6236fdccccf82447b602fa97ee069e97fbf2d374018a472d8c0d4d6c7cc"),
    "cold_shallow_lapse": (
        "798a7407513297e4471a902b60103fa314574a6d550d21ee90f82c59ab92374d",
        "42060755abfe0c5e0690cd944a57c152ff506ba43500a14a29adf21a5661ae75",
        "b852d0541ffcd25eec9e859559cc284a8d51ece7a83452dcb2aa615d2954cedb"),
}


def _pinned_grid():
    """4,004 altitudes in the band, its edges included, and 4,000
    pressures inside the band of every pinned model."""
    rng = random.Random(41)
    altitudes = [0.0, 5e-324, math.nextafter(11000.0, 0.0), 11000.0]
    altitudes += [rng.uniform(0.0, 11000.0) for _ in range(4000)]
    pressures = [rng.uniform(24000.0, 98000.0) for _ in range(4000)]
    return altitudes, pressures


def _digest(values):
    return hashlib.sha256(
        "\n".join(value.hex() for value in values).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_PINNED_MODELS))
def test_reference_formulas_are_pinned_bit_for_bit(name):
    model = _PINNED_MODELS[name]
    altitudes, pressures = _pinned_grid()
    assert (
        _digest(density_at_altitude(model, h) for h in altitudes),
        _digest(pressure_at_altitude(model, h) for h in altitudes),
        _digest(_altitude_in_band(model, p) for p in
                [model.min_pressure, model.sea_level_pressure, *pressures]),
    ) == _PINNED_DIGESTS[name]


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


def test_latched_is_the_newest_sensed_altitude():
    # Sensed on every tick (the default sense period), each reading is
    # latched on its own tick.
    baro = Barometer(_quiet_spec(noise_sigma=3.0, seed=7), MODEL, 0.001, 40)
    assert math.isnan(baro.latched)
    _, altitude = baro.sample(500.0, 0)
    assert type(altitude) is float
    assert baro.latched == altitude
    # Held through the ticks without a reading, then replaced.
    for tick in range(1, 20):
        assert baro.sample(510.0, tick) is None
        assert baro.latched == altitude
    _, newer = baro.sample(520.0, 20)
    assert newer != altitude
    assert baro.latched == newer


@pytest.mark.parametrize("dt, rate, sense_period", [
    (0.001, 50.0, 20), (0.01, 50.0, 2), (0.001, 80.0, 20),
    (0.00125, 80.0, 16), (0.001, 30.0, 20)],
    ids=["1ms_50hz", "10ms_50hz", "1ms_80hz", "1.25ms_80hz", "1ms_30hz"])
def test_peak_and_wake_follow_the_latched_readings(dt, rate, sense_period):
    """A reading is latched by the first sense tick at or after it
    unless the next reading comes first.  `latched` is the reading the
    last sense tick at or before the current tick latched, and `peak`
    the highest latched reading; an armed wake returns True, in place of
    the reading or None, on the sense tick that latches a reading it
    names."""
    ticks = 3_000
    rng = random.Random(11)
    stream = [rng.uniform(0.0, 11000.0) for _ in range(ticks)]
    spec = _quiet_spec(sample_rate=rate, latency=0.035, noise_sigma=3.0,
                       seed=5)
    plain = Barometer(spec, MODEL, dt, ticks)
    readings = {}
    for tick, altitude in enumerate(stream):
        reading = plain.sample(altitude, tick)
        if reading is not None:
            readings[tick] = reading
    reading_ticks = sorted(readings) + [ticks]
    latched = {}        # latching sense tick -> reading tick
    for tick, after in zip(reading_ticks, reading_ticks[1:]):
        latch = -(-tick // sense_period) * sense_period
        if latch < after:
            latched[latch] = tick
    low, high, drop = wake = (4000.0, 6000.0, 3000.0)
    expected_wakes, peak = [], -math.inf
    for latch, tick in sorted(latched.items()):
        altitude = readings[tick][1]
        peak = max(peak, altitude)
        if low <= altitude <= high or peak - altitude >= drop:
            expected_wakes.append(latch)

    baro = Barometer(spec, MODEL, dt, ticks, sense_period)
    baro.wake = wake
    assert math.isnan(baro.latched)
    wakes, peak, newest = [], -math.inf, math.nan
    for tick, altitude in enumerate(stream):
        got = baro.sample(altitude, tick)
        if got is True:
            wakes.append(tick)
        else:
            assert got == readings.get(tick), tick
        if tick in latched:
            newest = readings[latched[tick]][1]
            peak = max(peak, newest)
        assert baro.latched == newest, tick
        if tick % sense_period == 0:
            assert baro.peak == peak, tick
    assert wakes == expected_wakes
    assert len(wakes) > 10
    # At 80 Hz some readings are never latched; at 80 and 30 Hz some
    # are latched on a later tick than their own.
    assert (len(latched) < len(readings)) == (rate == 80.0)
    assert any(tick not in readings for tick in wakes) == (
        rate in (80.0, 30.0))


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


def test_vendored_noise_stream_is_pinned_bit_for_bit():
    # The first 10,000 readings of seed 42 at 3 Pa, one per tick over a
    # climb through the band.  Without quantization the digest sees every
    # bit of the noise, so an edit to the loop `Barometer.sample` vendors
    # from `random.normalvariate` shows here; `DequeBarometer` checks it
    # against the interpreter's own `random`.
    spec = _quiet_spec(noise_sigma=3.0, seed=42)
    baro = Barometer(spec, MODEL, 0.02, 10_000)
    lines = []
    for tick in range(10_000):
        pressure, altitude = baro.sample(tick * 1.1, tick)
        lines.append(f"{pressure.hex()} {altitude.hex()}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "29b2e2c4338405fc22d6fa569c5bd40f843c7d6fa7960d72ed2f27c14b0b489f")


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


def _reading_pressure(altitude, quantum, sea_level=1.0):
    """The pressure a reading at `altitude` reports, quantized by
    `quantum`, from air whose pressure formula gives exactly
    `sea_level * (1 - altitude)` and whose clamp leaves every pressure
    up to `sea_level` as it is, so that the quantization of any steps,
    negative ones too, shows in the reading."""
    baro = Barometer(_quiet_spec(quantization=quantum), MODEL, 0.02, 1)
    # Sea-level pressure and temperature, lapse rate, exponent, minimum
    # pressure, and the inverse's temperature scale and exponent.
    baro._air = (sea_level, 1.0, 1.0, 1.0, -math.inf, 1.0, 1.0)
    return baro.sample(altitude, 0)[0]


def test_quantization_is_round_times_the_quantum():
    # The fast path below 2**51 in magnitude (the half-integers from
    # -1000.5 to 1000.5, and 2**51 - 0.5), the fallback to `round` above
    # it (2**51 + 1 is where the fast path would round wrongly), and the
    # skipped non-finite steps.
    edges = [2.0 ** 51 - 0.5, 2.0 ** 51, 2.0 ** 51 + 1.0]
    for steps in ([n + 0.5 for n in range(-1001, 1001)]
                  + edges + [-x for x in edges] + [2.0 ** 53 + 2.0]):
        quantum = 2.0 ** -math.frexp(steps)[1]  # |steps * quantum| < 1
        altitude = 1.0 - steps * quantum
        assert 1.0 - altitude == steps * quantum    # the pressure, exactly
        got = _reading_pressure(altitude, quantum)
        # `hex` tells -0.0 from the +0.0 that -0.5 and 0.5 must give.
        assert got.hex() == (round(steps) * quantum).hex(), steps
    # Over the smallest subnormal quantum, +-0.5 Pa is +-inf steps, and
    # inf Pa over an infinite quantum NaN steps: all left as they are.
    assert _reading_pressure(0.5, 5e-324) == 0.5
    assert _reading_pressure(1.5, 5e-324) == -0.5
    assert _reading_pressure(0.5, math.inf, sea_level=math.inf) == math.inf


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


@pytest.fixture
def cold_schedule():
    """Start the test from no cached reading schedule, so the walk that
    fills it runs here whatever ran before."""
    atmosphere._reading_schedule.cache_clear()


def _fly_against_the_deque(spec, dt, stream):
    """Feed the barometer on the tick grid and the deque reference the
    same altitudes, one per tick, and assert that they emit on the same
    ticks the same floats, bit for bit.  Return how many readings they
    emitted, and the most truth each held at once."""
    baro = Barometer(spec, MODEL, dt, len(stream))
    reference = DequeBarometer(spec, MODEL)
    emitted = 0
    for tick, altitude in enumerate(stream):
        got = baro.sample(altitude, tick)
        want = reference.sample(altitude, tick * dt)
        if want is None:
            assert got is None, tick
            continue
        emitted += 1
        assert got is not None, tick
        assert [x.hex() for x in got] == [x.hex() for x in want], tick
    return emitted, len(baro._ring), reference.peak


@pytest.mark.parametrize("dt", [0.001, 0.01, 0.0003])
@pytest.mark.parametrize("rate", [50.0, 30.0, 7.0, 333.0])
def test_tick_grid_barometer_matches_the_deque_reference(cold_schedule, dt,
                                                         rate):
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
        emitted, ring, peak = _fly_against_the_deque(spec, dt, stream)
        assert emitted >= 10, latency
        assert ring <= peak, latency


def test_forward_truth_walk_matches_the_deque_reference(cold_schedule):
    """Each reading guesses its truth tick one period after the last
    one's and walks from there.  With a latency a hair over 50 ticks of
    1.25 ms, the guess falls one tick short once in 100,000 ticks: for
    the reading on tick 51,232 it is tick 51,181, and the walk forward
    moves it to 51,182, as the deque reference reports."""
    dt = 0.00125
    spec = _quiet_spec(sample_rate=50.0, latency=0.06250000099999443,
                       noise_sigma=3.0, seed=5)
    rng = random.Random(20)
    stream = [rng.uniform(0.0, 11000.0) for _ in range(100_000)]
    assert _fly_against_the_deque(spec, dt, stream)[0] == 6250
    reference = DequeBarometer(spec, MODEL)
    for tick, altitude in enumerate(stream[:51_233]):
        reading = reference.sample(altitude, tick * dt)
    assert reading is not None
    assert reference._truth[0][0] == 51_182 * dt


def test_fine_quantization_matches_the_deque_reference(cold_schedule):
    # At 1e-10 Pa a reading is about 1e15 steps, on the fast path below
    # 2**51; at 1e-11 Pa about 1e16, on the fallback to `round`.  100 Pa
    # covers the noise.
    assert (MODEL.sea_level_pressure + 100.0) / 1e-10 < 2.0 ** 51
    assert (MODEL.min_pressure - 100.0) / 1e-11 > 2.0 ** 51
    rng = random.Random(20)
    stream = [rng.uniform(0.0, 11000.0) for _ in range(3000)]
    for quantization in (1e-10, 1e-11):
        spec = _quiet_spec(noise_sigma=3.0, quantization=quantization,
                           seed=5)
        assert _fly_against_the_deque(spec, 0.01, stream)[0] == 1500


def test_squeezed_noise_matches_normalvariate(cold_schedule):
    """Over 200 seeds of 1,000 readings each, the barometer's noise is
    `random.normalvariate`'s to the bit, at sigma 1, 3 and 5000 Pa.  A
    replay of each seed's draws shows that the readings took all three
    ways through the loop: accepted by the squeeze, accepted by `log`,
    and rejected."""
    rng = random.Random(21)
    stream = [rng.uniform(0.0, 11000.0) for _ in range(1000)]
    outcomes = dict.fromkeys(("squeeze", "log", "rejected"), 0)
    for seed in range(200):
        for sigma in (1.0, 3.0, 5000.0):
            spec = _quiet_spec(noise_sigma=sigma, seed=seed)
            assert _fly_against_the_deque(spec, 0.02, stream)[0] == 1000
        draw = random.Random(seed).random
        for _ in range(1000):
            while True:
                u1, r2 = draw(), draw()
                z = random.NV_MAGICCONST * (u1 - 0.5) / (1.0 - r2)
                if z * z / 4.0 <= r2 and r2 >= 2.0 ** -40:
                    outcomes["squeeze"] += 1
                    break
                if z * z / 4.0 <= -math.log(1.0 - r2):
                    outcomes["log"] += 1
                    break
                outcomes["rejected"] += 1
    assert all(outcomes.values()), outcomes


def _schedule_by_definition(dt, rate, latency, ticks):
    """(tick, truth tick) of each reading of a run, read off the
    definition by plain scans: reading n is due on the first tick k
    after the last reading's with `k*dt + 1e-9 >= n * (1/rate)`, and
    reports the newest tick j with `j*dt <= k*dt - latency + 1e-9`, or
    the last reading's truth tick (tick 0 at first) while none is."""
    period = 1.0 / rate
    readings = []
    k = -1
    truth = 0
    for n in itertools.count():
        k += 1
        while k < ticks and k * dt + 1e-9 < n * period:
            k += 1
        if k == ticks:
            return readings
        target = k * dt - latency + 1e-9
        j = k
        while j >= 0 and j * dt > target:
            j -= 1
        if j >= 0:
            truth = j
        readings.append((k, truth))


def _altitude_of(tick):
    """A truth that names its tick to a noise-free reading: 0.1 m a
    tick, within the band up to 110,000 ticks."""
    return tick * 0.1


def _fly_schedule(dt, rate, latency, ticks):
    """Fly a noise-free barometer for a run and return the (tick, truth
    tick) of each reading, the truth tick read back from the altitude."""
    barometer = _flying(dt, rate, latency, ticks)
    return list(itertools.chain.from_iterable(barometer))


def _flying(dt, rate, latency, ticks):
    """A barometer's run as a generator: each step feeds one tick and
    yields [(tick, truth tick)] on a reading, [] otherwise."""
    baro = Barometer(_quiet_spec(sample_rate=rate, latency=latency), MODEL,
                     dt, ticks)
    for tick in range(ticks):
        reading = baro.sample(_altitude_of(tick), tick)
        yield [] if reading is None else [(tick, round(reading[1] * 10.0))]


SCHEDULE_CLOCKS = {
    "10ms_50hz_20ms": (0.01, 50.0, 0.02, 4_000),
    "1ms_defaults": (0.001, 50.0, 0.02, 20_000),
    "1ms_80hz_35ms": (0.001, 80.0, 0.035, 20_000),
    "1.25ms_80hz_62.5ms": (0.00125, 80.0, 0.06250000099999443, 100_000),
    "1.25ms_50hz_62.5ms": (0.00125, 50.0, 0.06250000099999443, 100_000),
    "no_latency": (0.001, 30.0, 0.0, 5_000),
    "latency_past_the_run": (0.01, 7.0, 12.0, 1_000),
    # Reading 2 is due at 0.9995 s, between the last tick and the end.
    "last_reading_past_the_run": (0.001, 2.0 / 0.9995, 0.0, 1_000),
}


@pytest.mark.parametrize("clock", sorted(SCHEDULE_CLOCKS))
def test_reading_schedule_matches_its_definition(cold_schedule, clock):
    """Each reading's tick and truth tick match the definition when the
    schedule is cold, when it is warm, and after another clock evicted
    it; a cold schedule is filled only as far as the run read."""
    dt, rate, latency, ticks = SCHEDULE_CLOCKS[clock]
    cached = atmosphere._reading_schedule
    key = (dt, 1.0 / rate, latency, ticks)
    want = _schedule_by_definition(dt, rate, latency, ticks)
    assert _fly_schedule(dt, rate, latency, ticks) == want      # cold
    schedule = cached(*key)
    assert cached.cache_info().misses == 1      # the run's, found again
    reading_ticks, truths, _ = schedule
    assert list(reading_ticks) == [k for k, _ in want] + [ticks]
    assert list(truths) == [j for _, j in want] + [want[-1][1]]
    assert reading_ticks.itemsize == truths.itemsize == 4
    assert _fly_schedule(dt, rate, latency, ticks) == want      # warm
    assert cached(*key) is schedule
    assert cached.cache_info().misses == 1
    # A clock that differs in latency alone is another clock.
    other = (dt, rate, latency + 0.01, ticks)
    assert _fly_schedule(*other) == _schedule_by_definition(*other)
    assert cached.cache_info().misses == 2
    assert _fly_schedule(dt, rate, latency, ticks) == want      # evicted
    assert cached.cache_info().misses == 3


def test_a_barometer_keeps_its_schedule_when_another_clock_evicts_it(
        cold_schedule):
    """Barometers of two clocks flown in turn, some built while others
    fly, all read the schedule of their own clock."""
    clock = SCHEDULE_CLOCKS["1ms_80hz_35ms"]
    other = SCHEDULE_CLOCKS["10ms_50hz_20ms"]
    runs = {"first": _flying(*clock), "evictor": _flying(*other),
            "ahead": _flying(*clock), "later": _flying(*clock)}
    got = {name: [] for name in runs}

    def fly(name, steps):
        for step in itertools.islice(runs[name], steps):
            got[name] += step

    fly("first", 10_000)    # fills a schedule half way
    fly("evictor", 4_000)   # replaces it
    fly("ahead", 1_000)     # replaces that with a new one of `clock`
    assert atmosphere._reading_schedule.cache_info().misses == 3
    for _ in range(10_000):
        # `later` reads what `ahead` filled, and `first` flies on in the
        # schedule it was built with.
        fly("later", 1)
        fly("ahead", 1)
        fly("first", 1)
    for name in runs:
        fly(name, None)
    want = _schedule_by_definition(*clock)
    assert got["first"] == got["ahead"] == got["later"] == want
    assert got["evictor"] == _schedule_by_definition(*other)
    # `later` found the schedule of `ahead`; nothing else was built.
    assert atmosphere._reading_schedule.cache_info()[:2] == (1, 3)


def test_a_schedule_past_32_bit_ticks_stores_8_bytes_a_tick():
    # Ticks of a run of 2**31 ticks or more do not fit in 4 bytes; its
    # schedule holds the same readings as a shorter run's at 8 bytes.
    # The function is called uncached, so the cache is left as it was.
    walk = atmosphere._reading_schedule.__wrapped__
    short_ticks, short_truths, short_extend = walk(0.001, 0.02, 0.035,
                                                   2 ** 31 - 1)
    long_ticks, long_truths, long_extend = walk(0.001, 0.02, 0.035, 2 ** 31)
    for _ in range(100):
        short_extend()
        long_extend()
    assert (short_ticks.itemsize, long_ticks.itemsize) == (4, 8)
    assert (short_truths.itemsize, long_truths.itemsize) == (4, 8)
    assert list(long_ticks) == list(short_ticks)
    assert list(long_truths) == list(short_truths)
    assert long_ticks[-1] == 2_000 and long_truths[-1] == 1_965

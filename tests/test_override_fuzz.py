"""Seeded fuzz over scenario overrides.

Every override set must end in a verdict or a `ScenarioError`, never in
a traceback.  The one documented exception is the `DomainError` raised
when the flight leaves the 0-11 km atmosphere band.

Random keys take values at, just inside and just outside their schema
bounds, extreme magnitudes, and values of the wrong type.  The clock is
not fuzzed: every set flies at `sim.dt = 0.01` for at most `FLIGHT_S`
simulated seconds, half of them with the window armed on ascent so the
door and the carrier run inside that time.
"""

import math
import random

import pytest

from deploysim import DomainError, ScenarioError, build_scenario, run_mission
from deploysim.scenario import SCHEMA

SEED = 8
SETS = 160
FLIGHT_S = 20.0
CLOCK = {"sim.dt": 0.01, "sim.max_sim_time": FLIGHT_S}
EARLY = {**CLOCK, "trigger.arm_after_apogee": False}
FUZZED_KEYS = sorted(key for key in SCHEMA if key not in CLOCK)
EXTREMES = (0.0, -1.0, 5e-324, 1e-300, 1e-9, 1e9, 1e300,
            1.7976931348623157e308, -1e308, math.inf, -math.inf, math.nan)
WRONG_TYPES = ("1.0", None, [], True, 1.5)

# Values that passed the schema and then crashed the run.
REPRODUCERS = [
    ({"barometer.quantization": 5e-324}, None),
    ({"barometer.noise_sigma": 1e308}, None),
    ({"servo.rated_speed": 5e-324}, "servo.rated_speed"),
    # A rack speed of inf m/s, whose default push timeout was 0 s.
    ({"servo.rated_speed": 1e308}, "servo.rated_speed"),
    ({"mechanism.time_budget": 1e-300}, "mechanism.time_budget"),
    ({"mechanism.time_budget": 1e300}, "mechanism.time_budget"),
    # No finite payload limit: mu*g + a is 0, and the carrier moves any
    # payload rather than asking the sizing chain for one.
    ({"mechanism.friction": 0.0, "mechanism.stroke": 5e-324}, None),
    # Every noise-free reading rounded to 0 Pa, and the run flew to a
    # verdict on a sensed 11 km.
    ({"barometer.quantization": 1e6}, "atmosphere.sea_level_pressure"),
]


def _candidates(key):
    """At, inside and outside the bounds of `key`, plus extremes."""
    entry = SCHEMA[key]
    if entry.kind is bool:
        return [True, False, 0, 1, "yes", None]
    values = list(WRONG_TYPES)
    default = entry.default if entry.default is not None else 1.0
    for bound in (entry.low, entry.high):
        if bound is not None:
            bound = float(bound)
            values += [bound, math.nextafter(bound, math.inf),
                       math.nextafter(bound, -math.inf)]
    if entry.kind is int:
        return values + [-1, 0, 1, 2, 3, 4, 10**30]
    return values + list(EXTREMES) + [default * 10.0 ** k
                                      for k in range(-6, 7, 2)]


def _override_sets():
    rng = random.Random(SEED)
    for index in range(SETS):
        keys = rng.sample(FUZZED_KEYS, rng.randint(1, 4))
        overrides = {key: rng.choice(_candidates(key)) for key in keys}
        yield {**(EARLY if index % 2 else CLOCK), **overrides}


def _fly(overrides):
    """'verdict', or the ScenarioError message; re-raises anything else
    except the band DomainError of a running flight."""
    try:
        scenario = build_scenario(overrides)
    except ScenarioError as exc:
        return str(exc)
    # A resolved default keeps the schema's rule for a written timeout.
    assert 0.0 < scenario.trigger.push_timeout < math.inf, overrides
    try:
        run_mission(scenario)
    except DomainError as exc:
        assert "atmosphere model band" in str(exc), overrides
    return "verdict"


@pytest.mark.parametrize("overrides,key", REPRODUCERS,
                         ids=[",".join(f"{key}={value!r}"
                                       for key, value in case[0].items())
                              for case in REPRODUCERS])
def test_reproducers_end_in_a_verdict_or_name_their_key(overrides, key):
    outcome = _fly({**CLOCK, **overrides})
    if key is None:
        assert outcome == "verdict"
    else:
        assert key in outcome


def test_every_override_set_ends_in_a_verdict_or_a_scenario_error():
    outcomes = {"verdict": 0, "error": 0}
    for overrides in _override_sets():
        try:
            outcome = _fly(overrides)
        except Exception as exc:
            pytest.fail(f"{overrides!r} raised {exc!r}")
        outcomes["verdict" if outcome == "verdict" else "error"] += 1
    # Both ends of the contract are exercised.
    assert min(outcomes.values()) >= SETS // 10, outcomes

"""Sizing chain unit tests.

The frozen numbers were recomputed by hand from the closed-form chain
(force from torque, budget acceleration, friction load, mass limit)
before being asserted here; the formulas live in deploysim.mechanism.
"""

import dataclasses
import math
import random

import pytest

from deploysim import (
    MechanismParams,
    ParameterError,
    ScenarioError,
    SingularConfigurationError,
    build_scenario,
    sizing_report,
)
from deploysim.mechanism import (max_payload_mass, required_acceleration,
                                 tangential_force)
from deploysim.scenario import _MECHANISM_FIELDS
from test_override_fuzz import _candidates

NOMINAL = MechanismParams()


def test_ideal_tangential_force_is_exact():
    # 2 * 0.98 / 0.020 is exactly representable: 98 N.
    assert tangential_force(0.98, 0.020, 1.0) == 98.0


def test_effective_tangential_force():
    assert tangential_force(0.98, 0.020, 0.85) == pytest.approx(83.3)


def test_required_acceleration_nominal():
    a = required_acceleration(0.060, 0.0, 5.0)
    assert a == pytest.approx(4.8e-3, rel=1e-12)


def test_required_acceleration_with_initial_velocity():
    # u*t covers 0.05 m of the 0.06 m stroke; the rest needs acceleration.
    a = required_acceleration(0.060, 0.010, 5.0)
    assert a == pytest.approx(2 * (0.060 - 0.05) / 25.0)


def test_max_payload_mass_nominal():
    m = max_payload_mass(83.3, 0.61, 4.8e-3)
    assert m == pytest.approx(13.909065103775317, rel=1e-15)


def test_max_payload_mass_high_friction():
    # Double the nominal friction coefficient: limit drops below 7 kg.
    m = max_payload_mass(83.3, 2 * 0.61, 4.8e-3)
    assert m == pytest.approx(6.9573, rel=1e-4)


def test_max_payload_mass_frictionless():
    # Only the budget acceleration remains; the limit explodes.
    m = max_payload_mass(83.3, 0.0, 4.8e-3)
    assert m == pytest.approx(17354.17, rel=1e-6)


def test_sizing_report_nominal():
    report = sizing_report(NOMINAL)
    assert report.ideal_tangential_force == 98.0
    assert report.effective_tangential_force == pytest.approx(83.3)
    assert report.required_acceleration == pytest.approx(4.8e-3)
    assert report.friction_force_per_kg == pytest.approx(5.9841)
    assert report.max_payload_mass == pytest.approx(13.909065103775317)


def test_force_scales_linearly_in_torque_and_inverse_in_diameter():
    rng = random.Random(101)
    for _ in range(200):
        torque = rng.uniform(0.05, 5.0)
        diameter = rng.uniform(0.005, 0.1)
        eta = rng.uniform(0.1, 1.0)
        k = rng.uniform(0.5, 4.0)
        f = tangential_force(torque, diameter, eta)
        assert tangential_force(k * torque, diameter, eta) == pytest.approx(k * f)
        assert tangential_force(torque, k * diameter, eta) == pytest.approx(f / k)
        assert tangential_force(torque, diameter, 1.0) * eta == pytest.approx(f)


def test_mass_limit_is_monotonic():
    """More force, less friction or a looser budget never shrink the limit."""
    rng = random.Random(202)
    for _ in range(200):
        force = rng.uniform(10.0, 200.0)
        mu = rng.uniform(0.05, 2.0)
        accel = rng.uniform(1e-4, 0.5)
        base = max_payload_mass(force, mu, accel)
        assert max_payload_mass(force * 1.1, mu, accel) >= base
        assert max_payload_mass(force, mu * 0.9, accel) >= base
        assert max_payload_mass(force, mu, accel * 0.9) >= base


def test_mass_limit_inverts_the_load():
    # At the limit the load equals the drive force, by construction.
    rng = random.Random(303)
    for _ in range(200):
        force = rng.uniform(10.0, 200.0)
        mu = rng.uniform(0.05, 2.0)
        accel = rng.uniform(1e-4, 0.5)
        m = max_payload_mass(force, mu, accel)
        assert m * (mu * 9.81 + accel) == pytest.approx(force, rel=1e-12)


def test_acceleration_doubles_when_budget_halves_squared():
    rng = random.Random(404)
    for _ in range(100):
        stroke = rng.uniform(0.01, 0.5)
        t = rng.uniform(0.5, 20.0)
        a = required_acceleration(stroke, 0.0, t)
        assert required_acceleration(stroke, 0.0, t / 2) == pytest.approx(4 * a)
        assert a == pytest.approx(2 * stroke / t**2)


def test_singular_when_nothing_resists():
    with pytest.raises(SingularConfigurationError):
        max_payload_mass(83.3, 0.0, 0.0)


def test_negative_acceleration_can_cancel_friction():
    # Descending budget exactly cancels friction: denominator hits zero.
    mu, g = 0.61, 9.81
    with pytest.raises(SingularConfigurationError):
        max_payload_mass(83.3, mu, -mu * g)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"servo_stall_torque": 0.0},
        {"servo_stall_torque": -1.0},
        {"pinion_pitch_diameter": 0.0},
        {"drivetrain_efficiency": 0.0},
        {"drivetrain_efficiency": 1.2},
        {"friction_coefficient": -0.1},
        {"stroke": 0.0},
        {"deployment_time_budget": 0.0},
        {"stroke": math.nan},
        {"servo_stall_torque": math.inf},
    ],
)
def test_bad_parameters_rejected(kwargs):
    with pytest.raises(ParameterError):
        MechanismParams(**kwargs)


def _gate(build, error, name):
    """('stored', value) or ('rejected', the reason after `name`)."""
    try:
        return "stored", build()
    except error as exc:
        message = str(exc)
        assert message.startswith(name), message
        return "rejected", message[len(name):]


@pytest.mark.parametrize("key", sorted(_MECHANISM_FIELDS))
def test_schema_and_params_gates_agree(key):
    # Both gates call `check_number` with the `LIMITS` row: they accept
    # the same values, store the same float, and give the same reason
    # after the name for the rest.  The values are the override fuzz's,
    # plus a bool and the ints beyond the float range.  The scenario
    # sets its push timeout, whose default from the stroke and the pitch
    # diameter the scenario checks across keys, and a servo fast enough
    # that the least pitch diameter still moves the rack in a tick and
    # slow enough that the greatest gives a finite rack speed, which it
    # checks across keys too.
    field = _MECHANISM_FIELDS[key]

    def schema_value(value):
        speed = 1000.0
        if (field == "pinion_pitch_diameter" and type(value) is float
                and value > 0.0):
            speed = min(speed, 1.0 / value)
        scenario = build_scenario({key: value, "trigger.push_timeout": 1.0,
                                   "servo.rated_speed": speed})
        assert getattr(scenario.mechanism, field) == scenario.values[key]
        return scenario.values[key]

    for value in _candidates(key) + [False, 10**400, -10**400]:
        params = _gate(lambda: getattr(MechanismParams(**{field: value}),
                                       field), ParameterError, field)
        schema = _gate(lambda: schema_value(value), ScenarioError, key)
        assert params == schema, (key, value)
        if params[0] == "stored":
            assert type(params[1]) is float and type(schema[1]) is float


def test_time_budget_is_bounded_like_the_clock():
    # Outside [1e-6, 86400] s the t^2 of the sizing chain divides by
    # zero or overflows.
    for budget in (1e-300, math.nextafter(1e-6, 0.0),
                   math.nextafter(86400.0, math.inf), 1e300):
        with pytest.raises(ParameterError, match="deployment_time_budget"):
            MechanismParams(deployment_time_budget=budget)
    for budget in (1e-6, 86400.0):
        report = sizing_report(MechanismParams(deployment_time_budget=budget))
        assert 0.0 < report.max_payload_mass < math.inf


def test_params_are_stored_as_checked_floats():
    # The sizing chain does no conversion of its own.
    params = MechanismParams(servo_stall_torque=1, pinion_pitch_diameter=1,
                             drivetrain_efficiency=1, friction_coefficient=0,
                             stroke=1, deployment_time_budget=2)
    for field in dataclasses.fields(params):
        assert type(getattr(params, field.name)) is float, field.name
    assert sizing_report(params).max_payload_mass == 4.0


def test_efficiency_of_one_is_legal():
    params = MechanismParams(drivetrain_efficiency=1.0)
    report = sizing_report(params)
    assert report.effective_tangential_force == report.ideal_tangential_force


def test_report_fields_are_frozen():
    report = sizing_report(NOMINAL)
    with pytest.raises(AttributeError):
        report.max_payload_mass = 0.0

"""Scenario file parsing, validation and bundled profile tests."""

import math
import re
from pathlib import Path

import pytest

from deploysim import (
    Scenario,
    ScenarioError,
    build_scenario,
    bundled_scenario,
    list_bundled,
    load_scenario,
    scenario_with,
)
from deploysim.scenario import SCHEMA, parse_scenario_text

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_empty_text_is_all_defaults():
    assert parse_scenario_text("") == {}
    assert parse_scenario_text("\n# only a comment\n\n") == {}


def test_defaults_build_a_valid_scenario():
    sc = build_scenario()
    assert isinstance(sc, Scenario)
    assert sc.dt == 0.001
    assert sc.seed == 42
    assert sc.trigger.deploy_ceiling == 400.0
    assert sc.trigger.deploy_floor == 150.0
    assert sc.payload.mass == 1.0
    assert sc.values["vehicle.dry_mass"] == sc.vehicle.dry_mass


def test_every_schema_key_has_a_workable_default():
    sc = build_scenario()
    assert set(sc.values) == set(SCHEMA)


def test_parse_key_values_with_comments():
    text = """
    # mission tweak
    payload.mass = 2.5      # kg
    trigger.deploy_floor = 120
    faults.door_jam = true
    sim.seed = 7
    """
    overrides = parse_scenario_text(text)
    assert overrides == {
        "payload.mass": 2.5,
        "trigger.deploy_floor": 120.0,
        "faults.door_jam": True,
        "sim.seed": 7,
    }


def test_unknown_key_reports_line():
    with pytest.raises(ScenarioError, match=r"deck:2: unknown key 'vehicle\.wings'"):
        parse_scenario_text("payload.mass = 1\nvehicle.wings = 4\n",
                            source="deck")


def test_duplicate_key_reports_line():
    with pytest.raises(ScenarioError, match=r"deck:3: duplicate key"):
        parse_scenario_text("payload.mass = 1\n\npayload.mass = 2\n",
                            source="deck")


def test_missing_equals_sign_rejected():
    with pytest.raises(ScenarioError, match="expected 'key = value'"):
        parse_scenario_text("payload.mass 1\n")


def test_missing_value_rejected():
    with pytest.raises(ScenarioError, match="has no value"):
        parse_scenario_text("payload.mass =\n")


def test_non_numeric_value_rejected():
    with pytest.raises(ScenarioError, match="payload.mass expects a number"):
        parse_scenario_text("payload.mass = heavy\n")


def test_bad_boolean_rejected():
    with pytest.raises(ScenarioError, match="expects true/false"):
        parse_scenario_text("faults.door_jam = maybe\n")


def test_boolean_synonyms():
    assert parse_scenario_text("faults.door_jam = YES")["faults.door_jam"]
    assert not parse_scenario_text("faults.door_jam = off")["faults.door_jam"]


def test_integer_key_rejects_fraction():
    with pytest.raises(ScenarioError, match="sim.seed expects an integer"):
        parse_scenario_text("sim.seed = 1.5\n")


def test_build_rejects_out_of_range_named_key():
    with pytest.raises(ScenarioError, match="mechanism.efficiency"):
        build_scenario({"mechanism.efficiency": 1.5})
    with pytest.raises(ScenarioError, match="payload.mass"):
        build_scenario({"payload.mass": 0.0})
    with pytest.raises(ScenarioError, match="barometer.noise_sigma"):
        build_scenario({"barometer.noise_sigma": -3.0})


def test_build_rejects_unknown_override():
    with pytest.raises(ScenarioError, match="unknown key"):
        build_scenario({"payload.color": 1.0})


def test_build_rejects_cross_field_violations():
    # Individually legal values that violate a rule spanning two keys.
    for overrides, message in [
            ({"trigger.deploy_floor": 500.0}, "deploy_floor"),
            ({"trigger.deploy_floor": 400.0}, "deploy_floor"),
            ({"vehicle.burn_time": 0.0}, "avg_thrust and burn_time"),
            ({"vehicle.avg_thrust": 0.0}, "avg_thrust and burn_time"),
            ({"servo.running_current_max": 2.5}, "running_current_max"),
            ({"door.open_threshold": 1.6}, "open_threshold"),
            ({"atmosphere.lapse_rate": 0.03}, "below zero")]:
        with pytest.raises(ScenarioError, match=message):
            build_scenario(overrides)


POSITIVE = (0, -1.0, math.nan, math.inf, -math.inf)
NON_NEGATIVE = (-1.0, math.nan, math.inf, -math.inf)

# Every per-key range that a record, stepper or formula helper used to
# check again after the schema, with the values those checks rejected
# (plus NaN and infinity where they let them through).  The schema is
# now the only gate for these keys, so loosening any of its bounds
# must fail here.
REJECTED = {
    "vehicle.dry_mass": POSITIVE,
    "vehicle.propellant_mass": NON_NEGATIVE,
    "vehicle.avg_thrust": NON_NEGATIVE,
    "vehicle.burn_time": NON_NEGATIVE,
    "vehicle.drag_area_coast": NON_NEGATIVE,
    "vehicle.drogue_drag_area": NON_NEGATIVE,
    "payload.mass": POSITIVE,
    "payload.parachute_drag_area": NON_NEGATIVE,
    "payload.parachute_open_altitude_loss": NON_NEGATIVE,
    "mechanism.stall_torque": POSITIVE,
    "mechanism.pitch_diameter": POSITIVE,
    "mechanism.efficiency": POSITIVE + (1.5,),
    "mechanism.friction": NON_NEGATIVE,
    "mechanism.stroke": POSITIVE,
    "mechanism.time_budget": POSITIVE + (1e-300, 1e300),
    "servo.rated_speed": POSITIVE,
    "servo.running_current_max": NON_NEGATIVE,
    "servo.stall_current": POSITIVE,
    "door.rod_travel_time": POSITIVE,
    "door.open_time": POSITIVE,
    "door.max_open": POSITIVE,
    "door.open_threshold": POSITIVE,
    "door.actuator_current": NON_NEGATIVE,
    "barometer.sample_rate": POSITIVE,
    "barometer.noise_sigma": NON_NEGATIVE,
    "barometer.quantization": NON_NEGATIVE,
    "barometer.latency": NON_NEGATIVE,
    "trigger.deploy_ceiling": NON_NEGATIVE,
    "trigger.deploy_floor": NON_NEGATIVE,
    "trigger.door_open_timeout": POSITIVE,
    "trigger.push_timeout": POSITIVE,
    "trigger.apogee_confirm_drop": POSITIVE,
    "trigger.window_allowance": NON_NEGATIVE,
    "battery.quiescent_current": NON_NEGATIVE,
    "atmosphere.sea_level_pressure": POSITIVE,
    "atmosphere.sea_level_temperature": POSITIVE,
    "atmosphere.lapse_rate": POSITIVE,
    "faults.gear_slip_push": (0, -1),
    "faults.link_break_force": NON_NEGATIVE,
    "faults.surface_friction_scale": NON_NEGATIVE,
    "faults.battery_fail_time": NON_NEGATIVE,
    "sim.dt": POSITIVE,
}


@pytest.mark.parametrize("key", REJECTED)
def test_schema_is_the_one_range_gate(key):
    for value in REJECTED[key]:
        with pytest.raises(ScenarioError, match=re.escape(key)):
            build_scenario({key: value})


def test_build_rejects_dt_that_misses_task_periods():
    with pytest.raises(ScenarioError, match="dt"):
        build_scenario({"sim.dt": 0.0003})


def test_build_bounds_the_clock():
    # A tiny dt used to build an lcm-long task table until memory ran
    # out; a huge time limit overflowed the tick count in run_mission.
    with pytest.raises(ScenarioError, match="sim.dt: must be >= 1e-06"):
        build_scenario({"sim.dt": 1e-300})
    with pytest.raises(ScenarioError, match="sim.max_sim_time: must be <= "):
        build_scenario({"sim.dt": 0.0001, "sim.max_sim_time": 1e308})
    assert build_scenario({"sim.dt": 1e-6}).dt == 1e-6
    longest = build_scenario({"sim.max_sim_time": 86400.0})
    assert longest.max_sim_time == 86400.0


def test_build_rejects_a_rack_speed_that_underflows():
    # Each factor passes its own check; their product is 0 m/s.
    for overrides in ({"servo.rated_speed": 5e-324},
                      {"servo.rated_speed": 1e-200,
                       "mechanism.pitch_diameter": 1e-200}):
        with pytest.raises(ScenarioError, match=r"servo\.rated_speed and "
                           r"mechanism\.pitch_diameter give a rack speed"):
            build_scenario(overrides)
    assert build_scenario({"servo.rated_speed": 1e-100}).servo.rated_speed


def test_scenario_with_changes_one_key():
    base = build_scenario()
    heavier = scenario_with(base, {"payload.mass": 14.0})
    assert heavier.payload.mass == 14.0
    assert heavier.vehicle == base.vehicle
    assert base.payload.mass == 1.0, "the base scenario is untouched"


def test_scenario_with_rejects_unknown_key():
    with pytest.raises(ScenarioError, match="unknown key"):
        scenario_with(build_scenario(), {"nope": 1.0})


def test_load_scenario_from_file(tmp_path):
    deck = tmp_path / "mission.scn"
    deck.write_text("payload.mass = 3.0\nsim.seed = 5\n", encoding="utf-8")
    sc = load_scenario(deck)
    assert sc.payload.mass == 3.0
    assert sc.seed == 5


def test_load_scenario_error_names_file_and_line(tmp_path):
    deck = tmp_path / "broken.scn"
    deck.write_text("payload.mass = 1.0\nbogus.key = 2\n", encoding="utf-8")
    with pytest.raises(ScenarioError, match=r"broken\.scn:2"):
        load_scenario(deck)


def test_load_scenario_range_error_names_file_and_line(tmp_path):
    deck = tmp_path / "bad.scn"
    deck.write_text("# heavier\nsim.seed = 3\npayload.mass = 0\n",
                    encoding="utf-8")
    with pytest.raises(ScenarioError,
                       match=r"bad\.scn:3: payload\.mass: must be > 0"):
        load_scenario(deck)


def test_load_scenario_cross_field_error_names_file(tmp_path):
    deck = tmp_path / "window.scn"
    deck.write_text("trigger.deploy_floor = 400\n", encoding="utf-8")
    with pytest.raises(ScenarioError, match=r"window\.scn: deploy_floor"):
        load_scenario(deck)


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError, match="cannot read scenario"):
        load_scenario("/nonexistent/path.scn")


def test_bundled_list_is_complete():
    names = list_bundled()
    assert names == sorted(names)
    assert set(names) == {
        "altair_nominal", "altair_link_break", "altair_gear_slip",
        "altair_friction3x", "altair_battery_fail", "altair_door_jam",
    }


def test_bundled_nominal_equals_defaults():
    assert bundled_scenario("altair_nominal").values == build_scenario().values


def test_bundled_fault_decks_set_their_fault():
    assert bundled_scenario("altair_link_break").faults.link_break_force == 3.0
    assert bundled_scenario("altair_gear_slip").faults.gear_slip_push == 1
    fr = bundled_scenario("altair_friction3x")
    assert fr.faults.surface_friction_scale == 3.0
    assert fr.payload.mass == 6.0
    assert bundled_scenario("altair_battery_fail").faults.battery_fail_time == 30.0
    assert bundled_scenario("altair_door_jam").faults.door_jam is True


def test_unknown_bundled_name():
    with pytest.raises(ScenarioError, match="no bundled scenario"):
        bundled_scenario("altair_missing")


# Keys that were accepted and then ignored, or that made sizing and
# flight disagree; they must now fail like any other unknown key.
REMOVED_KEYS = ("servo.stall_torque", "servo.voltage",
                "servo.running_current_min", "mechanism.gravity")


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_keys_are_unknown(key, tmp_path):
    with pytest.raises(ScenarioError, match="unknown key"):
        scenario_with(build_scenario(), {key: 1.0})
    deck = tmp_path / "old.scn"
    deck.write_text(f"payload.mass = 1.0\n{key} = 1.0\n", encoding="utf-8")
    with pytest.raises(ScenarioError,
                       match=rf"old\.scn:2: unknown key '{re.escape(key)}'"):
        load_scenario(deck)


@pytest.mark.parametrize("key, value, stored", [
    ("payload.mass", 2, 2.0),
    ("payload.mass", 2.5, 2.5),
    ("sim.seed", 7, 7),
    ("faults.gear_slip_push", 2, 2),
    ("faults.link_break_force", None, None),
    ("faults.door_jam", True, True),
    ("trigger.arm_after_apogee", False, False),
    ("faults.door_jam", "no", ScenarioError),
    ("faults.door_jam", 0, ScenarioError),
    ("trigger.arm_after_apogee", "false", ScenarioError),
    ("sim.seed", 1.5, ScenarioError),
    ("sim.seed", 2.0, ScenarioError),
    ("sim.seed", True, ScenarioError),
    ("sim.seed", None, ScenarioError),
    ("faults.gear_slip_push", 2.7, ScenarioError),
    ("payload.mass", True, ScenarioError),
    ("payload.mass", "2", ScenarioError),
    ("payload.mass", None, ScenarioError),
    ("payload.mass", 10 ** 400, ScenarioError),
])
def test_override_type_contract(key, value, stored):
    # Bool keys take only bools, int keys only ints (not bools), float
    # keys ints or floats stored as float, None only where it is the
    # default.  Anything else names the key.
    base = build_scenario()
    if stored is ScenarioError:
        with pytest.raises(ScenarioError, match=re.escape(key)):
            scenario_with(base, {key: value})
    else:
        got = scenario_with(base, {key: value}).values[key]
        assert got == stored and type(got) is type(stored)


def test_readme_names_every_schema_section():
    section = README.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    paragraph = section.strip().split("\n\n", 1)[0]
    for name in sorted({key.partition(".")[0] for key in SCHEMA}):
        assert f"`{name}.*`" in paragraph, name

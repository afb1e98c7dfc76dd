"""Scenario file parsing, validation and bundled profile tests."""

import dataclasses
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
    run_mission,
    scenario_with,
    sweep,
)
from deploysim.actuation import rack_speed
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
    assert sc.barometer.seed == 42
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
    # The error names the scenario keys, not the record's fields.
    floor = (r"^trigger\.deploy_floor \(\S+\) must be below "
             r"trigger\.deploy_ceiling \(")
    thrust = (r"^vehicle\.avg_thrust and vehicle\.burn_time must both be "
              r"positive or both zero$")
    for overrides, message in [
            ({"trigger.deploy_floor": 500.0}, floor),
            ({"trigger.deploy_floor": 400.0}, floor),
            ({"vehicle.burn_time": 0.0}, thrust),
            ({"vehicle.avg_thrust": 0.0}, thrust),
            ({"servo.running_current_max": 2.5},
             r"^servo\.running_current_max cannot exceed "
             r"servo\.stall_current$"),
            ({"door.open_threshold": 1.6},
             r"^door\.open_threshold cannot exceed door\.max_open$"),
            ({"atmosphere.lapse_rate": 0.03},
             r"^atmosphere\.lapse_rate drives temperature below zero"),
            ({"sim.dt": 0.003}, r"^sim\.dt=0\.003 does not divide")]:
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


def test_build_rejects_a_run_of_half_a_tick_or_less():
    # run_mission flies round(max_sim_time / dt) ticks, and 0.5 rounds
    # to even, so half a tick is no tick either.
    for max_sim_time in (0.004, 0.005):
        with pytest.raises(ScenarioError, match=r"sim\.max_sim_time .* "
                           r"at most half a tick of sim\.dt "):
            build_scenario({"sim.dt": 0.01, "sim.max_sim_time": max_sim_time})
    shortest = build_scenario({"sim.dt": 0.01, "sim.max_sim_time": 0.006})
    assert len(run_mission(shortest).telemetry) == 1


def test_build_rejects_a_rack_speed_that_underflows():
    # Each factor passes its own check; their product is 0 m/s.
    for overrides in ({"servo.rated_speed": 5e-324},
                      {"servo.rated_speed": 1e-200,
                       "mechanism.pitch_diameter": 1e-200}):
        with pytest.raises(ScenarioError, match=r"servo\.rated_speed and "
                           r"mechanism\.pitch_diameter give a rack speed"):
            build_scenario(overrides)
    assert build_scenario({"servo.rated_speed": 1e-100}).servo.rated_speed


@pytest.mark.parametrize("overrides, message", [
    # A door of 1e-320 rad that takes 1e10 s to open, at 1 ms and 10 ms.
    *(({"door.max_open": 1e-320, "door.open_threshold": 1e-320,
        "door.open_time": 1e10, "sim.dt": dt},
       r"^door\.max_open, door\.open_time and sim\.dt give a door swing of "
       r"0\.0 rad a tick; it must be finite and > 0$")
      for dt in (0.001, 0.01)),
    # A rack of 3e-323 m/s over a 1e-320 m stroke at 10 ms, and the
    # slowest rack at 1 ms with an explicit push timeout.
    ({"mechanism.stroke": 1e-320, "servo.rated_speed": 1e-300,
      "mechanism.pitch_diameter": 1e-23, "sim.dt": 0.01},
     r"^servo\.rated_speed, mechanism\.pitch_diameter and sim\.dt give a "
     r"rack travel of 0\.0 m a tick; it must be finite and > 0$"),
    ({"mechanism.pitch_diameter": 5e-324, "trigger.push_timeout": 2.0},
     r"^servo\.rated_speed, mechanism\.pitch_diameter and sim\.dt give a "
     r"rack travel of 0\.0 m a tick; it must be finite and > 0$"),
])
def test_build_rejects_a_step_that_underflows(overrides, message):
    # Each factor passes its own check, but one tick's swing of the door
    # or travel of the rack is 0: the door would never open, the rack
    # never push, and the rest rule would divide by 0.
    with pytest.raises(ScenarioError, match=message):
        build_scenario(overrides)
    with pytest.raises(ScenarioError, match=message):
        scenario_with(build_scenario(), overrides)


@pytest.mark.parametrize("overrides, message", [
    # A rack speed of 1e308 rev/s times pi * 0.02 m overflows to inf, and
    # its default push timeout would be 0 s, which the schema refuses
    # when written; an explicit timeout does not hide the speed.
    ({"servo.rated_speed": 1e308},
     r"^servo\.rated_speed and mechanism\.pitch_diameter give a rack speed "
     r"of inf m/s; it must be finite and > 0$"),
    ({"servo.rated_speed": 1e308, "trigger.push_timeout": 1.0},
     r"^servo\.rated_speed and mechanism\.pitch_diameter give a rack speed "
     r"of inf m/s; it must be finite and > 0$"),
    # A finite rack speed whose default timeout over a tiny stroke is 0 s.
    ({"mechanism.stroke": 1e-300, "servo.rated_speed": 1e300},
     r"^mechanism\.stroke, servo\.rated_speed and mechanism\.pitch_diameter "
     r"give a default trigger\.push_timeout of 0\.0 s; it must be finite "
     r"and > 0$"),
    # What one tick moves the rod or the door overflows to inf.
    ({"door.rod_travel_time": 5e-324},
     r"^door\.rod_travel_time and sim\.dt give a lock-rod step of inf "),
    ({"door.max_open": 1e308, "door.open_time": 1e-300},
     r"^door\.max_open, door\.open_time and sim\.dt give a door swing of "
     r"inf rad a tick; it must be finite and > 0$"),
], ids=["speed", "speed-with-timeout", "timeout", "rod-step", "swing"])
def test_build_rejects_a_derived_value_that_overflows(overrides, message):
    # Each key passes its own check, but a value the run derives from
    # several is inf, or a timeout divided by an overflowing speed is 0.
    with pytest.raises(ScenarioError, match=message):
        build_scenario(overrides)
    with pytest.raises(ScenarioError, match=message):
        scenario_with(build_scenario(), overrides)


def test_the_seed_is_kept_once_in_the_barometer():
    assert "seed" not in {f.name for f in dataclasses.fields(Scenario)}
    sc = build_scenario({"sim.seed": 9})
    assert (sc.barometer.seed, sc.values["sim.seed"]) == (9, 9)


def test_default_push_timeout_is_resolved_at_build():
    # Three push cycles at the no-load rack speed: 3 * 2 * 0.060 m over
    # 1 rev/s times pi * 0.020 m.
    sc = build_scenario()
    speed = rack_speed(sc.servo, sc.mechanism.pinion_pitch_diameter)
    assert sc.trigger.push_timeout == 3.0 * (2.0 * 0.060 / speed)
    assert sc.trigger.push_timeout == pytest.approx(5.72957795, rel=1e-8)
    assert sc.values["trigger.push_timeout"] is None


def test_default_push_timeout_ignores_the_payload_load():
    base = build_scenario()
    for overrides in ({"payload.mass": 13.0},
                      {"faults.surface_friction_scale": 3.0}):
        loaded = scenario_with(base, overrides)
        assert loaded.trigger.push_timeout == base.trigger.push_timeout


def test_explicit_push_timeout_wins():
    sc = build_scenario({"trigger.push_timeout": 1.5})
    assert sc.trigger.push_timeout == 1.5
    assert sc.values["trigger.push_timeout"] == 1.5


def test_a_default_push_timeout_that_is_not_finite_is_refused():
    # A legal pitch diameter whose rack speed is 1.5e-323 m/s, or a legal
    # stroke of 1e308 m, would give an infinite default timeout: a push
    # watchdog that never fires.
    message = (r"^mechanism\.stroke, servo\.rated_speed and "
               r"mechanism\.pitch_diameter give a default "
               r"trigger\.push_timeout of inf s; it must be finite and > 0$")
    for overflow in ({"mechanism.pitch_diameter": 5e-324},
                     {"mechanism.stroke": 1e308}):
        with pytest.raises(ScenarioError, match=message):
            build_scenario(overflow)
        with pytest.raises(ScenarioError, match=message):
            scenario_with(build_scenario(), overflow)
    # An explicit timeout still builds, where a tick moves the rack (see
    # test_build_rejects_a_step_that_underflows).
    explicit = build_scenario({"mechanism.stroke": 1e308,
                               "trigger.push_timeout": 2.0})
    assert explicit.trigger.push_timeout == 2.0
    # A slow rack whose default stays finite.
    slow = build_scenario({"mechanism.pitch_diameter": 1e-300})
    assert math.isfinite(slow.trigger.push_timeout)


def test_an_atmosphere_too_flat_to_resolve_altitude_is_refused():
    # A legal lapse rate of 1e-20 K/m, or a legal sea-level temperature
    # of 1e20 K, rounds `1 - L*h/T` to 1 at every altitude in the band:
    # the barometer would sense sea level for the whole flight.
    message = (r"^atmosphere\.lapse_rate / atmosphere\.sea_level_temperature "
               r"below 1e-12 per metre")
    for flat in ({"atmosphere.lapse_rate": 1e-20},
                 {"atmosphere.sea_level_temperature": 1e20}):
        with pytest.raises(ScenarioError, match=message):
            build_scenario(flat)
        with pytest.raises(ScenarioError, match=message):
            scenario_with(build_scenario(), flat)
    # At the bound a noise-free run at 10 ms still senses the truth as
    # the standard atmosphere does: to within 1 mm of its sample lag.
    worst = []
    for lapse in (0.0065, 1e-12 * 288.15):
        result = run_mission(build_scenario({
            "atmosphere.lapse_rate": lapse, "barometer.noise_sigma": 0.0,
            "barometer.quantization": 0.0, "barometer.latency": 0.0,
            "sim.dt": 0.01, "sim.max_sim_time": 10.0}))
        worst.append(max(abs(row.sensed_alt_m - row.truth_alt_m)
                         for row in result.telemetry))
    assert worst[0] > 1.0
    assert worst[1] == pytest.approx(worst[0], abs=1e-3)


def test_a_quantum_that_rounds_the_whole_band_to_0_pa_is_refused():
    # From twice the sea-level pressure on, the noise-free readings at
    # sea level and at 11 km both round to 0 Pa, which the clamp reads
    # as 11 km: the nominal deck would land undeployed with no error.
    # Just below it sea level reads p0 again, and the run flies.
    with pytest.raises(ScenarioError, match=(
            r"^barometer\.quantization 202650\.0 Pa is at least twice "
            r"atmosphere\.sea_level_pressure 101325\.0 Pa")):
        build_scenario({"barometer.quantization": 202650.0})
    below = build_scenario({"barometer.quantization":
                            math.nextafter(202650.0, 0.0)})
    assert run_mission(below).verdict.safe_hold_reason == "window-missed"


def test_sibling_resolves_the_push_timeout_again():
    base = build_scenario()
    longer = scenario_with(base, {"mechanism.stroke": 0.090})
    assert longer.values["trigger.push_timeout"] is None
    assert longer.trigger.push_timeout == 3.0 * (
        2.0 * 0.090 / rack_speed(longer.servo, 0.020))
    assert longer.trigger.push_timeout == pytest.approx(
        1.5 * base.trigger.push_timeout)


def test_scenario_with_changes_one_key():
    base = build_scenario()
    heavier = scenario_with(base, {"payload.mass": 14.0})
    assert heavier.payload.mass == 14.0
    assert heavier.vehicle == base.vehicle
    assert base.payload.mass == 1.0, "the base scenario is untouched"


def test_scenario_with_rejects_unknown_key():
    with pytest.raises(ScenarioError, match="unknown key"):
        scenario_with(build_scenario(), {"nope": 1.0})


@pytest.mark.parametrize("deck", ["altair_nominal", "altair_door_jam"])
@pytest.mark.parametrize("overrides", [
    {}, {"payload.mass": 14.0}, {"mechanism.stroke": 0.090},
    {"sim.dt": 0.01, "sim.seed": 7}, {"trigger.push_timeout": 2.5},
    {"atmosphere.lapse_rate": 0.007, "faults.gear_slip_push": 2}])
def test_scenario_with_equals_a_full_rebuild(deck, overrides):
    base = bundled_scenario(deck)
    sibling = scenario_with(base, overrides)
    rebuilt = build_scenario({**base.values, **overrides})
    for field in dataclasses.fields(Scenario):
        assert getattr(sibling, field.name) == getattr(rebuilt, field.name), (
            field.name)


def test_scenario_with_checks_only_its_overrides(monkeypatch):
    checked = []

    def check(self, key, value, _original=SCHEMA["sim.dt"].check.__func__):
        checked.append(key)
        return _original(self, key, value)

    base = build_scenario()
    monkeypatch.setattr(type(SCHEMA["sim.dt"]), "check", check)
    scenario_with(base, {"payload.mass": 2.0, "sim.seed": 3})
    assert checked == ["payload.mass", "sim.seed"]


def test_scenario_with_still_rejects_a_bad_override():
    base = bundled_scenario("altair_nominal")
    for overrides, message in [
            ({"payload.mass": -1.0}, "payload.mass: must be > 0"),
            ({"sim.seed": 1.5}, "sim.seed expects an integer"),
            ({"trigger.deploy_floor": 500.0}, "deploy_floor"),
            ({"sim.dt": 0.0007}, "dt"),
            ({"servo.rated_speed": 5e-324}, "give a rack speed of 0")]:
        with pytest.raises(ScenarioError, match=message):
            scenario_with(base, overrides)


def test_load_scenario_from_file(tmp_path):
    deck = tmp_path / "mission.scn"
    deck.write_text("payload.mass = 3.0\nsim.seed = 5\n", encoding="utf-8")
    sc = load_scenario(deck)
    assert sc.payload.mass == 3.0
    assert sc.barometer.seed == 5


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


def test_a_negative_seed_is_refused_at_every_entry(tmp_path):
    # random.Random seeds with the absolute value of an int, so a
    # negative seed would fly the noise of its positive twin.
    deck = tmp_path / "twin.scn"
    deck.write_text("sim.seed = -7\n", encoding="utf-8")
    with pytest.raises(ScenarioError,
                       match=r"twin\.scn:1: sim\.seed: must be >= 0, got -7"):
        load_scenario(deck)
    with pytest.raises(ScenarioError,
                       match=r"^sim\.seed: must be >= 0, got -7$"):
        build_scenario({"sim.seed": -7})
    with pytest.raises(ScenarioError,
                       match=r"^sweep sim\.seed = -7: sim\.seed: must be >= 0"):
        sweep(build_scenario(), "sim.seed", [7, -7])
    assert build_scenario({"sim.seed": 0}).barometer.seed == 0


def test_load_scenario_cross_field_error_names_file(tmp_path):
    deck = tmp_path / "window.scn"
    deck.write_text("trigger.deploy_floor = 400\n", encoding="utf-8")
    with pytest.raises(ScenarioError,
                       match=r"window\.scn: trigger\.deploy_floor \("):
        load_scenario(deck)


@pytest.mark.parametrize("text", [
    "# heavier payload\npayload.mass = 2.5\n",
    "payload.mass = 2.5\nsim.seed = 7\n",
])
def test_load_scenario_skips_a_utf8_bom(tmp_path, text):
    # Some editors save UTF-8 with a byte-order mark; it is not part of
    # the first line, whether that line is a comment or a key.
    plain = tmp_path / "plain.scn"
    plain.write_text(text, encoding="utf-8")
    bom = tmp_path / "bom.scn"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_scenario(bom).values == load_scenario(plain).values
    assert load_scenario(bom).payload.mass == 2.5


@pytest.mark.parametrize("text", [
    "\ufeffpayload.mass = 2",
    "\ufeff# heavier payload\npayload.mass = 2",
])
def test_parse_scenario_text_skips_a_leading_bom(text):
    # A caller who decodes a BOM file as plain UTF-8 gets the same map.
    assert parse_scenario_text(text, "x") == {"payload.mass": 2.0}


def test_parse_scenario_text_skips_only_a_leading_bom():
    with pytest.raises(ScenarioError, match=r"x:2: unknown key"):
        parse_scenario_text("payload.mass = 2\n\ufeffsim.seed = 3", "x")


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError, match="cannot read scenario"):
        load_scenario("/nonexistent/path.scn")


def test_load_scenario_non_utf8_file(tmp_path):
    deck = tmp_path / "latin.scn"
    deck.write_bytes(b"payload.mass = 2.0 \xff\n")
    with pytest.raises(ScenarioError, match=r"cannot read scenario .*latin\.scn.*can't decode"):
        load_scenario(deck)


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
    ("sim.seed", -1, ScenarioError),
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

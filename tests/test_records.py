"""The frozen records the tick loop reads are slotted, with no `__dict__`.

On CPython 3.11 an instance `__dict__` that has been written to (which
is what `functools.cached_property` does on first read) takes every
later attribute read on that object off the fast path, and the tick
loop reads these records several times per tick.  `AtmosphereModel`
therefore computes its derived constants once, when it is built.

Each scenario quantity has one default, in `scenario.SCHEMA`: the
records a scenario builds carry none of their own.
"""

import dataclasses
import functools
import importlib
import pkgutil

import deploysim
from deploysim import (MechanismParams, build_scenario, run_mission,
                       sizing_report)
from deploysim.atmosphere import (GAS_CONSTANT, MODEL_CEILING, MOLAR_MASS_AIR,
                                  STANDARD_GRAVITY, AtmosphereModel,
                                  BarometerSpec, pressure_at_altitude)
from deploysim.scenario import SCHEMA

NOMINAL_MODEL = build_scenario().atmosphere

MODULES = [importlib.import_module(f"deploysim.{info.name}")
           for info in pkgutil.iter_modules(deploysim.__path__)]


def _frozen_dataclasses():
    found = {}
    for module in MODULES:
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)
                    and obj.__dataclass_params__.frozen):
                found[name] = obj
    return found


def _sample_instances():
    scenario = build_scenario({"sim.max_sim_time": 1.0})
    result = run_mission(scenario)
    return [scenario, *(getattr(scenario, f.name)
                        for f in dataclasses.fields(scenario)),
            sizing_report(MechanismParams()), result, result.verdict]


def test_every_frozen_dataclass_is_slotted():
    classes = _frozen_dataclasses()
    assert sorted(classes) == sorted([
        "ServoSpec", "DoorSpec", "FaultPlan", "TriggerConfig",
        "MechanismParams", "SizingReport", "VehicleSpec", "AtmosphereModel",
        "BarometerSpec", "Scenario", "MissionVerdict", "MissionResult"])
    for name, cls in classes.items():
        assert "__slots__" in vars(cls), name
    instances = {type(obj).__name__: obj for obj in _sample_instances()
                 if type(obj).__name__ in classes}
    assert sorted(instances) == sorted(classes)
    for name, obj in instances.items():
        assert not hasattr(obj, "__dict__"), name


def test_no_cached_property_in_the_package():
    for module in MODULES:
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr, value in vars(obj).items():
                    assert not isinstance(value, functools.cached_property), (
                        f"{obj.__name__}.{attr}")


def _assert_derived_match_formulas(model):
    exponent = (STANDARD_GRAVITY * MOLAR_MASS_AIR
                / (GAS_CONSTANT * model.lapse_rate))
    assert model.exponent.hex() == exponent.hex()
    assert (model.min_pressure.hex()
            == pressure_at_altitude(model, MODEL_CEILING).hex())
    assert (model._temperature_scale.hex()
            == (model.sea_level_temperature / model.lapse_rate).hex())
    assert model._inverse_exponent.hex() == (1.0 / exponent).hex()


def test_atmosphere_derived_fields_equal_their_formulas():
    for model in (NOMINAL_MODEL,
                  AtmosphereModel(sea_level_pressure=98000.0,
                                  sea_level_temperature=300.0,
                                  lapse_rate=0.0071),
                  AtmosphereModel(101325.0, 288.15, 0.001)):
        _assert_derived_match_formulas(model)


def test_replace_recomputes_atmosphere_derived_fields():
    base = NOMINAL_MODEL
    changed = dataclasses.replace(base, lapse_rate=0.005)
    _assert_derived_match_formulas(changed)
    assert changed.exponent != base.exponent
    assert changed.min_pressure != base.min_pressure
    fresh = AtmosphereModel(101325.0, 288.15, 0.005)
    for name in ("exponent", "min_pressure", "_temperature_scale",
                 "_inverse_exponent"):
        assert getattr(changed, name) == getattr(fresh, name), name


def test_atmosphere_identity_is_its_three_inputs():
    model = NOMINAL_MODEL
    assert model == AtmosphereModel(101325.0, 288.15, 0.0065)
    assert hash(model) == hash((101325.0, 288.15, 0.0065))
    assert repr(model) == ("AtmosphereModel(sea_level_pressure=101325.0, "
                           "sea_level_temperature=288.15, lapse_rate=0.0065)")
    assert model != AtmosphereModel(101325.0, 288.15, 0.005)


# ---------------------------------------------------------------------------
# One default per quantity


# Motion and health state that every mission starts from.
STATE_FIELDS = {("BatteryState", "failed"),
                ("PayloadBody", "altitude"), ("PayloadBody", "velocity"),
                ("PayloadBody", "release_altitude"),
                ("PayloadBody", "release_time"),
                ("PayloadBody", "chute_altitude"),
                ("PayloadBody", "chute_time"),
                ("PayloadBody", "landing_time")}


def test_no_record_default_repeats_a_schema_default():
    scenario = build_scenario()
    records = [(f.name, getattr(scenario, f.name))
               for f in dataclasses.fields(scenario)
               if dataclasses.is_dataclass(getattr(scenario, f.name))]
    assert len(records) == 10
    for section, record in records:
        # MechanismParams() is the public drivetrain default; the
        # schema reads its `mechanism.*` defaults from it instead.
        if isinstance(record, MechanismParams):
            assert record == MechanismParams()
            continue
        keys = {key.partition(".")[2] for key in SCHEMA
                if key.startswith(section + ".")}
        assert keys, section
        for f in dataclasses.fields(record):
            if (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING):
                continue
            name = f"{type(record).__name__}.{f.name}"
            assert (type(record).__name__, f.name) in STATE_FIELDS, name
            assert f.name not in keys, name


def test_barometer_seed_is_the_scenario_seed():
    seed = next(f for f in dataclasses.fields(BarometerSpec)
                if f.name == "seed")
    assert seed.default is dataclasses.MISSING
    assert build_scenario().barometer.seed == SCHEMA["sim.seed"].default
    assert build_scenario({"sim.seed": 7}).barometer.seed == 7


def test_schema_defaults_pass_their_own_checks():
    # build_scenario checks only the overrides it is given, so the
    # defaults must already be the values a check would store.
    for key, entry in SCHEMA.items():
        checked = entry.check(key, entry.default)
        assert checked == entry.default, key
        assert type(checked) is type(entry.default), key


def test_defaults_build_what_explicit_defaults_build():
    explicit = {key: entry.default for key, entry in SCHEMA.items()}
    assert build_scenario() == build_scenario(explicit)

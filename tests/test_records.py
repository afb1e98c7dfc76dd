"""The frozen records the tick loop reads are slotted, with no `__dict__`.

On CPython 3.11 an instance `__dict__` that has been written to (which
is what `functools.cached_property` does on first read) takes every
later attribute read on that object off the fast path, and the tick
loop reads these records several times per tick.  `AtmosphereModel`
therefore computes its derived constants once, when it is built.
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
                                  pressure_at_altitude)

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
    for model in (AtmosphereModel(),
                  AtmosphereModel(sea_level_pressure=98000.0,
                                  sea_level_temperature=300.0,
                                  lapse_rate=0.0071),
                  AtmosphereModel(lapse_rate=0.001)):
        _assert_derived_match_formulas(model)


def test_replace_recomputes_atmosphere_derived_fields():
    base = AtmosphereModel()
    changed = dataclasses.replace(base, lapse_rate=0.005)
    _assert_derived_match_formulas(changed)
    assert changed.exponent != base.exponent
    assert changed.min_pressure != base.min_pressure
    fresh = AtmosphereModel(lapse_rate=0.005)
    for name in ("exponent", "min_pressure", "_temperature_scale",
                 "_inverse_exponent"):
        assert getattr(changed, name) == getattr(fresh, name), name


def test_atmosphere_identity_is_its_three_inputs():
    model = AtmosphereModel()
    assert model == AtmosphereModel()
    assert hash(model) == hash((101325.0, 288.15, 0.0065))
    assert repr(model) == ("AtmosphereModel(sea_level_pressure=101325.0, "
                           "sea_level_temperature=288.15, lapse_rate=0.0065)")
    assert model != AtmosphereModel(lapse_rate=0.005)

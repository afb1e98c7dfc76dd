"""Scenario files: flat `section.key = value` pairs, SI units.

Unknown keys are rejected, missing keys take the documented defaults,
and an empty file is exactly the nominal mission.  The schema table
below is the single source of truth for keys, types, ranges and
defaults; the README points users at it.  The `mechanism.*` entries
read their defaults from the public `MechanismParams` and their ranges
from `mechanism.LIMITS`; the other records a scenario builds carry no
defaults.  Every number key is checked by `mechanism.check_number`,
the rule `MechanismParams` applies too.
"""

import math
import re
from dataclasses import dataclass, replace
from importlib import resources
from typing import NamedTuple

from .actuation import (BatteryState, DoorSpec, FaultPlan, ServoSpec,
                        _tick_steps, rack_speed)
from .atmosphere import AtmosphereModel, BarometerSpec
from .controller import TriggerConfig, task_period_ticks
from .errors import ParameterError, ScenarioError
from .flight import PayloadBody, VehicleSpec
from .mechanism import LIMITS, MechanismParams, check_number


class _Key(NamedTuple):
    """One schema entry: type, default, allowed range, documentation."""

    kind: type
    default: object
    low: float | None = None
    high: float | None = None
    low_open: bool = False
    doc: str = ""

    def check(self, key: str, value):
        """The value as stored: a bool for bool keys, None only where
        that is the default, else what `check_number` makes of it.
        Raises ScenarioError naming the key otherwise."""
        if self.kind is bool:
            if type(value) is bool:
                return value
            raise ScenarioError(f"{key} expects true/false, got {value!r}")
        if value is None and self.default is None:
            return None
        try:
            return check_number(key, value, self.kind, self.low, self.high,
                                self.low_open)
        except ParameterError as exc:
            raise ScenarioError(str(exc)) from None


def _pos(kind, default, doc=""):
    return _Key(kind, default, low=0, low_open=True, doc=doc)


def _nonneg(kind, default, doc=""):
    return _Key(kind, default, low=0, doc=doc)


_DRIVE = MechanismParams()

SCHEMA: dict[str, _Key] = {
    # Carrier vehicle
    "vehicle.dry_mass": _pos(float, 25.0, "kg, structure w/o propellant"),
    "vehicle.propellant_mass": _nonneg(float, 8.0, "kg"),
    "vehicle.avg_thrust": _nonneg(float, 1900.0, "N, constant over burn"),
    "vehicle.burn_time": _nonneg(float, 3.0, "s"),
    "vehicle.drag_area_coast": _nonneg(float, 0.006, "Cd*A, m^2"),
    "vehicle.drogue_drag_area": _nonneg(float, 1.1, "Cd*A, m^2"),
    # Payload
    "payload.mass": _pos(float, 1.0, "kg"),
    "payload.parachute_drag_area": _nonneg(float, 0.45, "Cd*A, m^2"),
    "payload.parachute_open_altitude_loss": _nonneg(float, 50.0, "m"),
    # Deployment drivetrain (sizing + carrier force model)
    "mechanism.stall_torque": _Key(float, _DRIVE.servo_stall_torque,
                                   *LIMITS["servo_stall_torque"], "N*m"),
    "mechanism.pitch_diameter": _Key(float, _DRIVE.pinion_pitch_diameter,
                                     *LIMITS["pinion_pitch_diameter"], "m"),
    "mechanism.efficiency": _Key(float, _DRIVE.drivetrain_efficiency,
                                 *LIMITS["drivetrain_efficiency"],
                                 "fraction of ideal force delivered"),
    "mechanism.friction": _Key(float, _DRIVE.friction_coefficient,
                               *LIMITS["friction_coefficient"],
                               "payload-on-bulkhead mu"),
    "mechanism.stroke": _Key(float, _DRIVE.stroke, *LIMITS["stroke"], "m"),
    "mechanism.time_budget": _Key(float, _DRIVE.deployment_time_budget,
                                  *LIMITS["deployment_time_budget"], "s"),
    # Drive servo (speed and current model)
    "servo.rated_speed": _pos(float, 1.0, "rev/s"),
    "servo.running_current_max": _nonneg(float, 0.9, "A"),
    "servo.stall_current": _pos(float, 2.0, "A"),
    # Bay door
    "door.rod_travel_time": _pos(float, 0.5, "s"),
    "door.open_time": _pos(float, 0.3, "s"),
    "door.max_open": _pos(float, math.pi / 2, "rad"),
    "door.open_threshold": _pos(float, math.radians(85.0), "rad"),
    "door.actuator_current": _nonneg(float, 0.5, "A while rod moves"),
    # Barometer
    "barometer.sample_rate": _pos(float, 50.0, "Hz"),
    "barometer.noise_sigma": _nonneg(float, 3.0, "Pa"),
    "barometer.quantization": _nonneg(float, 1.0, "Pa, 0 disables"),
    "barometer.latency": _nonneg(float, 0.02, "s"),
    # Trigger / watchdogs
    "trigger.deploy_ceiling": _nonneg(float, 400.0, "m sensed"),
    "trigger.deploy_floor": _nonneg(float, 150.0, "m sensed"),
    "trigger.arm_after_apogee": _Key(bool, True),
    "trigger.door_open_timeout": _pos(float, 2.0, "s from unlock"),
    "trigger.push_timeout": _pos(float, None, "s; omit for 3x a push cycle"),
    "trigger.apogee_confirm_drop": _pos(float, 5.0, "m"),
    "trigger.window_allowance": _nonneg(float, 5.0,
                                        "m, verdict slack above the ceiling"),
    # Battery
    "battery.voltage": _pos(float, 7.4, "V"),
    "battery.capacity": _pos(float, 7920.0, "C (2.2 Ah)"),
    "battery.quiescent_current": _nonneg(float, 0.0, "A, always-on load"),
    # Atmosphere
    "atmosphere.sea_level_pressure": _pos(float, 101325.0, "Pa"),
    "atmosphere.sea_level_temperature": _pos(float, 288.15, "K"),
    "atmosphere.lapse_rate": _pos(float, 0.0065, "K/m"),
    # Fault injection (at most one of each kind)
    "faults.gear_slip_push": _Key(int, None, low=1,
                                  doc="pushes >= this number slip"),
    "faults.link_break_force": _nonneg(float, None, "N load that breaks it"),
    "faults.surface_friction_scale": _nonneg(float, 1.0, "multiplier on mu"),
    "faults.battery_fail_time": _nonneg(float, None, "s"),
    "faults.door_jam": _Key(bool, False),
    # Simulation
    # Bounded so the tick count stays a finite int: at most 8.64e10
    # ticks over the longest run, 86,400 s.
    "sim.dt": _Key(float, 0.001, low=1e-6, doc="s"),
    # random.Random seeds with the absolute value of an int, so a
    # negative seed would repeat the noise stream of its positive twin.
    "sim.seed": _nonneg(int, 42),
    "sim.max_sim_time": _Key(float, 400.0, low=0, low_open=True,
                             high=86400.0, doc="s"),
}

_DEFAULTS = {key: entry.default for key, entry in SCHEMA.items()}

# The record each section builds.  `battery.*` and `sim.*` are mapped
# in `build_scenario`: they split between a record and `Scenario`.
_RECORDS = {"vehicle": VehicleSpec, "payload": PayloadBody,
            "mechanism": MechanismParams, "servo": ServoSpec,
            "door": DoorSpec, "barometer": BarometerSpec,
            "trigger": TriggerConfig, "atmosphere": AtmosphereModel,
            "faults": FaultPlan}

# `MechanismParams` keeps its public field names.
_MECHANISM_FIELDS = {"mechanism.stall_torque": "servo_stall_torque",
                     "mechanism.pitch_diameter": "pinion_pitch_diameter",
                     "mechanism.efficiency": "drivetrain_efficiency",
                     "mechanism.friction": "friction_coefficient",
                     "mechanism.stroke": "stroke",
                     "mechanism.time_budget": "deployment_time_budget"}

# key -> (section, record field)
_FIELDS = {key: (key.partition(".")[0],
                 _MECHANISM_FIELDS.get(key, key.partition(".")[2]))
           for key in SCHEMA}
# (section, record field) -> key
_KEYS = {field: key for key, field in _FIELDS.items()}


def _keyed_error(exc: ParameterError, section: str) -> ScenarioError:
    """The error a record of `section` raised on a rule spanning its
    fields, with each field it names written as the scenario key the
    user sets it with: `lapse_rate` becomes `atmosphere.lapse_rate`."""
    return ScenarioError(re.sub(
        r"(?<![.\w])\w+",
        lambda word: _KEYS.get((section, word[0]), word[0]), str(exc)))


_TRUE_WORDS = {"true", "yes", "on", "1"}
_FALSE_WORDS = {"false", "no", "off", "0"}


@dataclass(frozen=True, slots=True)
class Scenario:
    """A fully validated mission definition.

    `values` keeps the flat key map the scenario was built from so
    sweeps and overrides can rebuild a sibling scenario cheaply.
    """

    vehicle: VehicleSpec
    payload: PayloadBody
    mechanism: MechanismParams
    servo: ServoSpec
    door: DoorSpec
    barometer: BarometerSpec
    trigger: TriggerConfig
    battery: BatteryState
    quiescent_current: float
    atmosphere: AtmosphereModel
    faults: FaultPlan
    dt: float
    max_sim_time: float
    values: dict


def _parse_value(key: str, raw: str, where: str):
    """The checked value of one `key = raw` line; errors name `where`."""
    entry = SCHEMA[key]
    if entry.kind is bool:
        word = raw.lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ScenarioError(f"{where}: {key} expects true/false, got {raw!r}")
    try:
        value = int(raw, 10) if entry.kind is int else float(raw)
    except ValueError:
        value = raw     # the check names the key and the type it expects
    try:
        return entry.check(key, value)
    except ScenarioError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def parse_scenario_text(text: str, source: str = "<string>") -> dict:
    """Parse flat key-value text into a typed override map, skipping a BOM."""
    overrides: dict = {}
    for lineno, line in enumerate(
            text.removeprefix("\ufeff").splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        where = f"{source}:{lineno}"
        if "=" not in body:
            raise ScenarioError(f"{where}: expected 'key = value', "
                                f"got {line.strip()!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in SCHEMA:
            raise ScenarioError(f"{where}: unknown key {key!r}")
        if key in overrides:
            raise ScenarioError(f"{where}: duplicate key {key!r}")
        if not raw:
            raise ScenarioError(f"{where}: {key} has no value")
        overrides[key] = _parse_value(key, raw, where)
    return overrides


def build_scenario(overrides: dict | None = None) -> Scenario:
    """Merge overrides onto defaults and construct every component.

    Only the overrides are checked: the defaults pass their own checks.
    """
    return _assemble(_DEFAULTS, overrides)


def scenario_with(base: Scenario, overrides: dict) -> Scenario:
    """Sibling scenario with a handful of keys replaced.

    Only the overrides are checked, since the base's values passed
    theirs; the checks that span keys run again on the whole.
    """
    return _assemble(base.values, overrides)


# What one tick moves, in the order `actuation._tick_steps` returns it.
_STEP_MESSAGES = (
    "door.rod_travel_time and sim.dt give a lock-rod step of {!r} (a "
    "fraction of its travel) a tick",
    "door.max_open, door.open_time and sim.dt give a door swing of {!r} rad "
    "a tick",
    "servo.rated_speed, mechanism.pitch_diameter and sim.dt give a rack "
    "travel of {!r} m a tick")


def _derived(value: float, message: str) -> float:
    """`value`, derived from several scenario keys, if it is finite and
    > 0.  Raises ScenarioError otherwise, with `message`, which names
    those keys, formatted with the value."""
    if 0.0 < value < math.inf:
        return value
    raise ScenarioError(f"{message.format(value)}; it must be finite and > 0")


def _assemble(checked: dict, overrides: dict | None) -> Scenario:
    """Check each override onto a copy of the `checked` values, then
    construct every component and run the checks that span keys.

    What the run derives from several keys must be finite and > 0: the
    rack speed, the default push timeout (only when it is defaulted)
    and what one tick moves the lock rod, the door and the rack, by the
    formulas `run_mission` uses.  Each is checked in the order the next
    derives from it, so the speed comes before the timeout that divides
    by it, and an error names every key that feeds its value."""
    values = dict(checked)
    if overrides:
        for key, value in overrides.items():
            entry = SCHEMA.get(key)
            if entry is None:
                raise ScenarioError(f"unknown key {key!r}")
            values[key] = entry.check(key, value)

    sections = {section: {} for section in (*_RECORDS, "battery", "sim")}
    for key, value in values.items():
        section, name = _FIELDS[key]
        sections[section][name] = value
    battery = sections.pop("battery")
    sim = sections.pop("sim")
    sections["barometer"]["seed"] = sim["seed"]

    records = {}
    for section, fields in sections.items():
        try:
            records[section] = _RECORDS[section](**fields)
        except ParameterError as exc:
            raise _keyed_error(exc, section) from exc
    try:
        # dt must land every scheduled task on an exact tick.
        task_period_ticks(sim["dt"])
    except ParameterError as exc:
        raise _keyed_error(exc, "sim") from exc
    # run_mission flies round(max_sim_time / dt) ticks.
    if round(sim["max_sim_time"] / sim["dt"]) == 0:
        raise ScenarioError(f"sim.max_sim_time {sim['max_sim_time']!r} s is "
                            f"at most half a tick of sim.dt {sim['dt']!r} s, "
                            f"so the run would fly no tick")
    # From twice the sea-level pressure on, the noise-free readings at
    # sea level and at the band's 11 km top both round to 0 Pa.
    quantum = records["barometer"].quantization
    sea_level = records["atmosphere"].sea_level_pressure
    if quantum >= 2.0 * sea_level:
        raise ScenarioError(
            f"barometer.quantization {quantum!r} Pa is at least twice "
            f"atmosphere.sea_level_pressure {sea_level!r} Pa, so a "
            f"noise-free reading rounds to 0 Pa across the model band")
    # Each key passes its own check, but a product or a quotient of
    # several can still underflow to 0 or overflow to inf.
    mechanism = records["mechanism"]
    speed = _derived(
        rack_speed(records["servo"], mechanism.pinion_pitch_diameter),
        "servo.rated_speed and mechanism.pitch_diameter give a rack speed "
        "of {!r} m/s")
    # Three push cycles at the no-load speed; `values` keeps the None.
    if records["trigger"].push_timeout is None:
        records["trigger"] = replace(records["trigger"], push_timeout=_derived(
            3.0 * (2.0 * mechanism.stroke / speed),
            "mechanism.stroke, servo.rated_speed and mechanism.pitch_diameter "
            "give a default trigger.push_timeout of {!r} s"))
    # A part that a tick moves by 0 never moves; the rest rule divides
    # by these steps.
    for step, message in zip(_tick_steps(records["door"], speed, sim["dt"]),
                             _STEP_MESSAGES):
        _derived(step, message)

    return Scenario(
        **records, battery=BatteryState(battery["voltage"],
                                        battery["capacity"]),
        quiescent_current=battery["quiescent_current"], dt=sim["dt"],
        max_sim_time=sim["max_sim_time"], values=values)


def _build_from_text(text: str, source: str) -> Scenario:
    # Each value was checked on its line; what build_scenario can still
    # reject spans several keys, so the error names the file.
    overrides = parse_scenario_text(text, source)
    try:
        return build_scenario(overrides)
    except ScenarioError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {str(path)!r}: "
                            f"{exc}") from exc
    return _build_from_text(text, str(path))


def list_bundled() -> list[str]:
    """Names of scenarios shipped inside the package."""
    root = resources.files(__package__) / "scenarios"
    return sorted(entry.name[:-len(".scn")] for entry in root.iterdir()
                  if entry.name.endswith(".scn"))


def bundled_scenario(name: str) -> Scenario:
    """Load a shipped scenario by bare name, e.g. 'altair_nominal'."""
    candidate = resources.files(__package__) / "scenarios" / f"{name}.scn"
    if not candidate.is_file():
        raise ScenarioError(f"no bundled scenario {name!r}; "
                            f"available: {', '.join(list_bundled())}")
    return _build_from_text(candidate.read_text(encoding="utf-8"),
                            f"{name}.scn")

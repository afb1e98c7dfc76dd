"""Scenario files: flat `section.key = value` pairs, SI units.

Unknown keys are rejected, missing keys take the documented defaults,
and an empty file is exactly the nominal mission.  The schema table
below is the single source of truth for keys, types, ranges and
defaults; the README points users at it.  Apart from the public
`MechanismParams`, whose defaults the schema reads, the records a
scenario builds carry no defaults.
"""

import math
from dataclasses import dataclass
from importlib import resources

from .actuation import (BatteryState, DoorSpec, FaultPlan, ServoSpec,
                        rack_speed)
from .atmosphere import AtmosphereModel, BarometerSpec
from .controller import TriggerConfig, task_period_ticks
from .errors import ParameterError, ScenarioError
from .flight import PayloadBody, VehicleSpec
from .mechanism import MAX_TIME_BUDGET, MIN_TIME_BUDGET, MechanismParams


_EXPECTS = {bool: "true/false", int: "an integer", float: "a number"}


class _Key:
    """One schema entry: type, default, allowed range, documentation."""

    __slots__ = ("kind", "default", "low", "low_open", "high", "doc")

    def __init__(self, kind, default, low=None, high=None, low_open=False,
                 doc=""):
        self.kind = kind
        self.default = default
        self.low = low
        self.low_open = low_open
        self.high = high
        self.doc = doc

    def check(self, key: str, value):
        """The value as stored: a bool for bool keys, an int for int
        keys, a float for float keys, None only where that is the
        default.  Raises ScenarioError naming the key otherwise."""
        kind = self.kind
        if type(value) is not kind:
            if value is None and self.default is None:
                return None
            # bool is a subclass of int, and no number key means True.
            if (kind is bool or isinstance(value, bool)
                    or not isinstance(value, (int, float) if kind is float
                                      else int)):
                raise ScenarioError(f"{key} expects {_EXPECTS[kind]}, "
                                    f"got {value!r}")
            if kind is float:
                try:
                    value = float(value)
                except OverflowError:   # an int beyond the float range
                    value = math.inf
        if kind is bool:
            return value
        if kind is float and not math.isfinite(value):
            raise ScenarioError(f"{key}: value must be finite, got {value!r}")
        if self.low is not None:
            if self.low_open and value <= self.low:
                raise ScenarioError(f"{key}: must be > {self.low}, "
                                    f"got {value}")
            if not self.low_open and value < self.low:
                raise ScenarioError(f"{key}: must be >= {self.low}, "
                                    f"got {value}")
        if self.high is not None and value > self.high:
            raise ScenarioError(f"{key}: must be <= {self.high}, got {value}")
        return value


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
    "mechanism.stall_torque": _pos(float, _DRIVE.servo_stall_torque, "N*m"),
    "mechanism.pitch_diameter": _pos(float, _DRIVE.pinion_pitch_diameter, "m"),
    "mechanism.efficiency": _Key(float, _DRIVE.drivetrain_efficiency, low=0,
                                 low_open=True, high=1.0,
                                 doc="fraction of ideal force delivered"),
    "mechanism.friction": _nonneg(float, _DRIVE.friction_coefficient,
                                  "payload-on-bulkhead mu"),
    "mechanism.stroke": _pos(float, _DRIVE.stroke, "m"),
    "mechanism.time_budget": _Key(float, _DRIVE.deployment_time_budget,
                                  low=MIN_TIME_BUDGET, high=MAX_TIME_BUDGET,
                                  doc="s"),
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
    "trigger.window_allowance": _nonneg(float, 5.0, "m"),
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
    # Bounded so the task pattern table stays small (at most 100,000
    # entries at 1 us) and the tick count stays a finite int.
    "sim.dt": _Key(float, 0.001, low=1e-6, doc="s"),
    "sim.seed": _Key(int, 42),
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
    seed: int
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
        raise ScenarioError(f"{where}: {key} expects {_EXPECTS[entry.kind]}, "
                            f"got {raw!r}") from None
    try:
        return entry.check(key, value)
    except ScenarioError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def parse_scenario_text(text: str, source: str = "<string>") -> dict:
    """Parse flat key-value text into a typed override map."""
    overrides: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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
    values = dict(_DEFAULTS)
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

    try:
        records = {section: _RECORDS[section](**fields)
                   for section, fields in sections.items()}
        # dt must land every scheduled task on an exact tick.
        task_period_ticks(sim["dt"])
    except ParameterError as exc:
        raise ScenarioError(str(exc)) from exc
    # Each factor passes its own check, but their product can underflow.
    if not rack_speed(records["servo"],
                      records["mechanism"].pinion_pitch_diameter) > 0.0:
        raise ScenarioError("servo.rated_speed and mechanism.pitch_diameter "
                            "give a rack speed of 0 m/s")

    return Scenario(
        **records, battery=BatteryState(battery["voltage"],
                                        battery["capacity"]),
        quiescent_current=battery["quiescent_current"], dt=sim["dt"],
        seed=sim["seed"], max_sim_time=sim["max_sim_time"], values=values)


def scenario_with(base: Scenario, overrides: dict) -> Scenario:
    """Sibling scenario with a handful of keys replaced."""
    return build_scenario({**base.values, **overrides})


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
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
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

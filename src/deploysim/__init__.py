"""Deterministic mission simulator for a radial payload deployer.

Sizes a servo rack-and-pinion pusher, then flies the full concept of
operations on a fixed-step logical clock: ascent, apogee, a sensed
altitude window, door unlock, a settle delay, up to three push cycles,
and the payload's independent descent.  Equal scenario bytes and seed
reproduce byte-identical telemetry.
"""

from .actuation import (BatteryState, CarrierState, DoorSpec, DoorState,
                        FaultPlan, NO_FAULTS, ServoSpec, begin_push,
                        command_unlock, drain_battery, halt_carrier,
                        rack_speed, step_carrier, step_door)
from .atmosphere import (AtmosphereModel, Barometer, BarometerSpec,
                         altitude_from_pressure, density_at_altitude,
                         pressure_at_altitude, temperature_at_altitude)
from .controller import (Command, DeploymentController, DeployPhase,
                         STABILIZE_DWELL_S, SafeHoldReason, TELEMETRY_COLUMNS,
                         TELEMETRY_SCHEMA, TaskSchedule, TelemetryRecord,
                         TriggerConfig, make_telemetry_record)
from .errors import (ContractViolationError, DeploySimError, DomainError,
                     ParameterError, ScenarioError,
                     SingularConfigurationError)
from .flight import (FlightPhase, FlightState, PayloadBody, PayloadState,
                     VehicleSpec, initial_state, release_payload,
                     step_payload, step_vehicle, terminal_speed)
from .mechanism import (MechanismParams, SizingReport, friction_force,
                        max_payload_mass, required_acceleration,
                        sizing_report, tangential_force)
from .mission import (COMMANDS_SCHEMA, COMMAND_COLUMNS, CONFIG_ERROR_EXIT,
                      CommandLogEntry, EXIT_CODES, Event, MissionResult,
                      MissionVerdict, Outcome, render_commands_csv,
                      render_telemetry_csv, run_mission, sweep, verdict_lines)
from .scenario import (Scenario, build_scenario, bundled_scenario,
                       list_bundled, load_scenario, parse_scenario_text,
                       scenario_with)

__version__ = "1.0.0"

__all__ = [
    "AtmosphereModel", "Barometer", "BarometerSpec",
    "BatteryState", "COMMANDS_SCHEMA", "COMMAND_COLUMNS", "CONFIG_ERROR_EXIT",
    "CarrierState", "Command", "CommandLogEntry", "ContractViolationError",
    "DeploySimError", "DeployPhase", "DeploymentController", "DomainError",
    "DoorSpec", "DoorState", "EXIT_CODES", "Event", "FaultPlan",
    "FlightPhase", "FlightState", "MechanismParams", "MissionResult",
    "MissionVerdict", "NO_FAULTS", "Outcome", "ParameterError", "PayloadBody",
    "PayloadState", "STABILIZE_DWELL_S", "SafeHoldReason", "Scenario",
    "ScenarioError", "ServoSpec", "SingularConfigurationError", "SizingReport",
    "TELEMETRY_COLUMNS", "TELEMETRY_SCHEMA", "TaskSchedule", "TelemetryRecord",
    "TriggerConfig", "VehicleSpec", "altitude_from_pressure", "begin_push",
    "build_scenario", "bundled_scenario", "command_unlock",
    "density_at_altitude", "drain_battery", "halt_carrier",
    "friction_force", "initial_state", "list_bundled",
    "load_scenario", "make_telemetry_record", "max_payload_mass",
    "parse_scenario_text", "pressure_at_altitude",
    "rack_speed", "release_payload", "render_commands_csv",
    "render_telemetry_csv", "required_acceleration", "run_mission",
    "scenario_with", "sizing_report", "step_carrier",
    "step_door", "step_payload", "step_vehicle", "sweep", "tangential_force",
    "temperature_at_altitude", "terminal_speed", "verdict_lines",
]

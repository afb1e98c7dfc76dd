"""Deterministic mission simulator for a radial payload deployer.

Sizes a servo rack-and-pinion pusher, then flies the full concept of
operations on a fixed-step logical clock: ascent, apogee, a sensed
altitude window, door unlock, a settle delay, up to three push cycles,
and the payload's independent descent.  Equal scenario bytes and seed
reproduce byte-identical telemetry.

The names below are the public API.  Everything else lives in the
submodules (`deploysim.flight`, `deploysim.controller`, ...) and is
internal: it may change without notice.
"""

from .errors import (ContractViolationError, DeploySimError, DomainError,
                     ParameterError, ScenarioError,
                     SingularConfigurationError)
from .mechanism import MechanismParams, SizingReport, sizing_report
from .mission import (CONFIG_ERROR_EXIT, EXIT_CODES, MissionResult,
                      MissionVerdict, Outcome, render_commands_csv,
                      render_telemetry_csv, run_mission, sweep, verdict_lines)
from .scenario import (Scenario, build_scenario, bundled_scenario,
                       list_bundled, load_scenario, scenario_with)

__version__ = "1.0.0"

__all__ = [
    # Sizing
    "MechanismParams", "SizingReport", "sizing_report",
    # Scenarios
    "Scenario", "build_scenario", "scenario_with", "load_scenario",
    "bundled_scenario", "list_bundled",
    # Missions
    "run_mission", "sweep", "MissionResult", "MissionVerdict", "Outcome",
    "EXIT_CODES", "CONFIG_ERROR_EXIT", "verdict_lines",
    "render_telemetry_csv", "render_commands_csv",
    # Errors
    "DeploySimError", "ScenarioError", "ParameterError", "DomainError",
    "ContractViolationError", "SingularConfigurationError",
]

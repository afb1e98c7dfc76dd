"""The package's public surface: exactly the names README documents."""

from pathlib import Path

import deploysim

PUBLIC_API = [
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

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_all_is_exactly_the_public_api():
    assert sorted(deploysim.__all__) == sorted(PUBLIC_API)


def test_every_public_name_resolves():
    missing = [name for name in PUBLIC_API if not hasattr(deploysim, name)]
    assert missing == []


def test_every_public_name_is_in_the_readme():
    missing = [name for name in PUBLIC_API if f"`{name}`" not in README]
    assert missing == []

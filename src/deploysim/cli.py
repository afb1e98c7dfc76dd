"""Command line front end: sizing, run, sweep.

Exit codes: 0 deployed in window, 2 safe hold, 3 landed undeployed,
4 timeout, 64 bad configuration or arguments.
"""

import argparse
import os
import sys
from pathlib import Path

from .errors import DeploySimError, ScenarioError
from .mechanism import MechanismParams, sizing_report
from .mission import (CONFIG_ERROR_EXIT, EXIT_CODES, render_commands_csv,
                      render_telemetry_csv, run_mission, sweep, verdict_lines)
from .scenario import (_MECHANISM_FIELDS, SCHEMA, Scenario, _parse_value,
                       bundled_scenario, list_bundled, load_scenario,
                       scenario_with)

OUT_DIR_ENV = "DEPLOYSIM_OUT"


class _Parser(argparse.ArgumentParser):
    """Routes argparse failures to the config-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ScenarioError(message)

# --fault NAME[:param=value] shorthands mapped onto scenario keys; the
# value is parsed like the same key in a scenario file.
_FAULT_KEYS = {
    "gear_slip": ("push", "faults.gear_slip_push"),
    "link_break": ("force", "faults.link_break_force"),
    "friction_scale": ("factor", "faults.surface_friction_scale"),
    "battery_fail": ("time", "faults.battery_fail_time"),
    "door_jam": (None, "faults.door_jam"),
}


def _parse_fault(text: str) -> tuple[str, object]:
    name, _, argtext = text.partition(":")
    name = name.strip()
    if name not in _FAULT_KEYS:
        raise ScenarioError(
            f"unknown fault {name!r}; one of: {', '.join(sorted(_FAULT_KEYS))}")
    param, key = _FAULT_KEYS[name]
    if param is None:
        if argtext:
            raise ScenarioError(f"fault {name!r} takes no parameters")
        return key, True
    if not argtext:
        raise ScenarioError(f"fault {name!r} needs {param}=VALUE")
    left, _, right = argtext.partition("=")
    if left.strip() != param or not right.strip():
        raise ScenarioError(f"fault {name!r} expects {param}=VALUE, "
                            f"got {argtext!r}")
    return key, _parse_value(key, right.strip(), f"--fault {text}")


def _load(scenario_arg: str) -> Scenario:
    """Accept either a file path or a bundled scenario name."""
    path = Path(scenario_arg)
    if path.is_file():
        return load_scenario(path)
    if "/" not in scenario_arg and "." not in scenario_arg:
        return bundled_scenario(scenario_arg)
    raise ScenarioError(f"scenario file not found: {scenario_arg}")


def _apply_run_options(scenario: Scenario, args) -> Scenario:
    overrides: dict = {}
    if args.seed is not None:
        overrides["sim.seed"] = args.seed
    for fault in args.fault or ():
        key, value = _parse_fault(fault)
        overrides[key] = value
    return scenario_with(scenario, overrides) if overrides else scenario


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def _cmd_sizing(args) -> int:
    overrides = {name: getattr(args, name)
                 for name in _MECHANISM_FIELDS.values()
                 if getattr(args, name) is not None}
    report = sizing_report(MechanismParams(**overrides))
    rows = (
        ("ideal_tangential_force_n", "ideal tangential force",
         report.ideal_tangential_force, ".1f", "N"),
        ("effective_tangential_force_n", "effective tangential force",
         report.effective_tangential_force, ".1f", "N"),
        ("required_acceleration_mps2", "required acceleration",
         report.required_acceleration, ".6f", "m/s^2"),
        ("friction_force_per_kg_n", "friction force per kg",
         report.friction_force_per_kg, ".4f", "N/kg"),
        ("max_payload_mass_kg", "max payload mass",
         report.max_payload_mass, ".2f", "kg"),
    )
    for key, label, value, spec, unit in rows:
        if args.machine:
            print(f"{key}={value!r}")
        else:
            print(f"{label:<27} {value:{spec}} {unit}")
    return 0


def _cmd_run(args) -> int:
    scenario = _apply_run_options(_load(args.scenario), args)
    result = run_mission(scenario)
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "telemetry.csv").write_text(
        render_telemetry_csv(result.telemetry), encoding="utf-8")
    (out_dir / "commands.csv").write_text(
        render_commands_csv(result.commands), encoding="utf-8")
    lines = verdict_lines(result.verdict)
    (out_dir / "verdict.txt").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    for line in lines:
        print(line)
    return EXIT_CODES[result.verdict.outcome]


def _cmd_sweep(args) -> int:
    scenario = _apply_run_options(_load(args.scenario), args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ScenarioError(f"bad sweep values {args.values!r}") from None
    table = sweep(scenario, args.key, values)
    lines = [f"{args.key},outcome,safe_hold_reason,deploy_altitude_m"]
    for value, verdict in table:
        lines.append(f"{value!r},{verdict.outcome.value},"
                     f"{verdict.safe_hold_reason or '-'},"
                     f"{'-' if verdict.deploy_altitude_truth is None else repr(verdict.deploy_altitude_truth)}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "sweep.csv").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deploysim",
        description="Deterministic mission simulator and sizing tool for a "
                    "rack-and-pinion radial payload deployer.")
    sub = parser.add_subparsers(dest="command", required=True)

    sizing = sub.add_parser("sizing", help="print the sizing chain")
    for key, name in _MECHANISM_FIELDS.items():
        flag = "--" + key.partition(".")[2].replace("_", "-")
        sizing.add_argument(flag, dest=name, type=float, help=SCHEMA[key].doc)
    sizing.add_argument("--machine", action="store_true",
                        help="key=value output only")
    sizing.set_defaults(func=_cmd_sizing)

    def add_common(p):
        p.add_argument("--scenario", required=True,
                       help="scenario file path or bundled name "
                            f"({', '.join(list_bundled())})")
        p.add_argument("--seed", type=int, help="override sim.seed")
        p.add_argument("--fault", action="append", metavar="NAME[:p=v]",
                       help="inject a fault, e.g. gear_slip:push=1, "
                            "link_break:force=3, friction_scale:factor=3, "
                            "battery_fail:time=20, door_jam")
        p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} "
                                     "or current directory)")

    run = sub.add_parser("run", help="fly one mission")
    add_common(run)
    run.set_defaults(func=_cmd_run)

    swp = sub.add_parser("sweep", help="rerun one scenario over a value list")
    add_common(swp)
    swp.add_argument("--key", required=True, help="scenario key to vary")
    swp.add_argument("--values", required=True,
                     help="comma-separated numbers")
    swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DeploySimError as exc:
        print(f"deploysim: error: {exc}", file=sys.stderr)
        return CONFIG_ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface tests: argument handling, files, exit codes."""

import pytest

from deploysim.cli import build_parser, main

pytestmark = pytest.mark.usefixtures("isolated_out")


@pytest.fixture
def isolated_out(tmp_path, monkeypatch):
    # Keep run artifacts out of the working tree no matter what.
    monkeypatch.setenv("DEPLOYSIM_OUT", str(tmp_path / "fallback"))
    return tmp_path


def test_sizing_default_table(capsys):
    assert main(["sizing"]) == 0
    out = capsys.readouterr().out
    assert "ideal tangential force" in out
    assert "98.0 N" in out
    assert "83.3 N" in out
    assert "13.91 kg" in out


def test_sizing_machine_format(capsys):
    assert main(["sizing", "--machine"]) == 0
    fields = dict(line.split("=", 1)
                  for line in capsys.readouterr().out.splitlines())
    assert float(fields["ideal_tangential_force_n"]) == 98.0
    assert float(fields["max_payload_mass_kg"]) == pytest.approx(
        13.909065103775317)
    assert float(fields["required_acceleration_mps2"]) == pytest.approx(
        4.8e-3)


def test_sizing_with_overrides(capsys):
    assert main(["sizing", "--machine", "--friction", "1.22"]) == 0
    fields = dict(line.split("=", 1)
                  for line in capsys.readouterr().out.splitlines())
    assert float(fields["max_payload_mass_kg"]) == pytest.approx(6.9573,
                                                                 rel=1e-4)


def test_sizing_rejects_bad_value(capsys):
    assert main(["sizing", "--efficiency", "1.5"]) == 64


@pytest.mark.parametrize("budget", ["1e-300", "1e300"])
def test_sizing_rejects_unbounded_time_budget(capsys, budget):
    assert main(["sizing", "--time-budget", budget]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "deployment_time_budget" in captured.err


def test_sizing_flags_are_the_mechanism_keys():
    # Built from the `mechanism.*` schema keys, `_` spelled `-`.
    flags = {"--stall-torque": "servo_stall_torque",
             "--pitch-diameter": "pinion_pitch_diameter",
             "--efficiency": "drivetrain_efficiency",
             "--friction": "friction_coefficient",
             "--stroke": "stroke",
             "--time-budget": "deployment_time_budget"}
    argv = ["sizing"]
    for value, flag in enumerate(flags, start=1):
        argv += [flag, str(value)]
    args = build_parser().parse_args(argv)
    for value, name in enumerate(flags.values(), start=1):
        assert getattr(args, name) == float(value)


def test_sizing_has_no_gravity_option(capsys):
    # Gravity is the fixed 9.81 m/s^2 that flight uses too.
    assert main(["sizing", "--gravity", "9.8"]) == 64


def test_run_rejects_removed_scenario_key(tmp_path, capsys):
    deck = tmp_path / "old.scn"
    deck.write_text("mechanism.gravity = 20.0\n", encoding="utf-8")
    assert main(["run", "--scenario", str(deck),
                 "--out", str(tmp_path / "o")]) == 64
    assert "old.scn:1: unknown key 'mechanism.gravity'" in (
        capsys.readouterr().err)


def test_run_range_error_names_file_and_line(tmp_path, capsys):
    deck = tmp_path / "bad.scn"
    deck.write_text("sim.seed = 3\n\npayload.mass = 0\n", encoding="utf-8")
    assert main(["run", "--scenario", str(deck),
                 "--out", str(tmp_path / "o")]) == 64
    assert "bad.scn:3: payload.mass: must be > 0, got 0.0" in (
        capsys.readouterr().err)


def test_run_nominal_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run1"
    code = main(["run", "--scenario", "altair_nominal", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "outcome=DeployedInWindow" in stdout
    assert (out / "telemetry.csv").exists()
    assert (out / "commands.csv").exists()
    verdict = (out / "verdict.txt").read_text(encoding="utf-8")
    assert verdict.strip().splitlines() == stdout.strip().splitlines()
    telemetry = (out / "telemetry.csv").read_text(encoding="utf-8")
    assert telemetry.startswith("# schema=deploysim.telemetry.v1\n")


def test_run_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    target = tmp_path / "env-out"
    monkeypatch.setenv("DEPLOYSIM_OUT", str(target))
    assert main(["run", "--scenario", "altair_nominal"]) == 0
    assert (target / "verdict.txt").exists()


def test_run_scenario_file(tmp_path, capsys):
    deck = tmp_path / "short.scn"
    deck.write_text("sim.max_sim_time = 10.0\n", encoding="utf-8")
    code = main(["run", "--scenario", str(deck),
                 "--out", str(tmp_path / "o")])
    assert code == 4  # times out long before apogee
    assert "outcome=Timeout" in capsys.readouterr().out


def test_run_flight_above_model_band_is_config_error(tmp_path, capsys):
    deck = tmp_path / "high.scn"
    deck.write_text("vehicle.avg_thrust = 20000.0\nvehicle.burn_time = 6.0\n",
                    encoding="utf-8")
    code = main(["run", "--scenario", str(deck),
                 "--out", str(tmp_path / "o")])
    assert code == 64
    err = capsys.readouterr().err
    assert "the vehicle left the 0-11 km atmosphere model band" in err
    assert "outside model band" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, key", [
    ("sim.dt = 1e-300\n", "sim.dt"),
    ("sim.dt = 0.0001\nsim.max_sim_time = 1e308\n", "sim.max_sim_time"),
])
def test_run_rejects_unbounded_clock(tmp_path, capsys, text, key):
    deck = tmp_path / "clock.scn"
    deck.write_text(text, encoding="utf-8")
    code = main(["run", "--scenario", str(deck),
                 "--out", str(tmp_path / "o")])
    assert code == 64
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_fault_injection_exit_code(tmp_path, capsys):
    code = main(["run", "--scenario", "altair_nominal",
                 "--fault", "door_jam", "--out", str(tmp_path / "o")])
    assert code == 2
    out = capsys.readouterr().out
    assert "outcome=SafeHold" in out
    assert "safe_hold_reason=door-timeout" in out


def test_run_fault_with_parameter(tmp_path, capsys):
    code = main(["run", "--scenario", "altair_nominal",
                 "--fault", "battery_fail:time=30",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "battery-failure" in capsys.readouterr().out


def test_run_seed_override_still_deploys(tmp_path, capsys):
    code = main(["run", "--scenario", "altair_nominal", "--seed", "7",
                 "--out", str(tmp_path / "o")])
    assert code == 0


def test_run_rejects_unknown_scenario(capsys):
    assert main(["run", "--scenario", "altair_wrong"]) == 64
    assert "no bundled scenario" in capsys.readouterr().err


def test_run_rejects_unknown_fault(capsys):
    assert main(["run", "--scenario", "altair_nominal",
                 "--fault", "thermal"]) == 64
    assert "unknown fault" in capsys.readouterr().err


def test_run_rejects_malformed_fault(capsys):
    assert main(["run", "--scenario", "altair_nominal",
                 "--fault", "link_break:force=lots"]) == 64


def test_run_fault_value_parsed_as_its_scenario_key(capsys):
    # --fault values follow the scenario-file rules, and errors name the key.
    assert main(["run", "--scenario", "altair_nominal",
                 "--fault", "gear_slip:push=1.5"]) == 64
    assert "faults.gear_slip_push" in capsys.readouterr().err


def test_sweep_prints_table(tmp_path, capsys):
    deck = tmp_path / "fast.scn"
    deck.write_text("sim.dt = 0.005\n", encoding="utf-8")
    code = main(["sweep", "--scenario", str(deck), "--key", "payload.mass",
                 "--values", "1.0,16.0", "--out", str(tmp_path / "sw")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "payload.mass,outcome,safe_hold_reason,deploy_altitude_m"
    assert lines[1].startswith("1.0,DeployedInWindow,-")
    assert lines[2].startswith("16.0,SafeHold,push-timeout")
    assert (tmp_path / "sw" / "sweep.csv").read_text(
        encoding="utf-8").splitlines() == lines


def test_sweep_rejects_bad_key(tmp_path, capsys):
    assert main(["sweep", "--scenario", "altair_nominal",
                 "--key", "nope", "--values", "1"]) == 64


def test_sweep_rejects_bad_values(capsys):
    assert main(["sweep", "--scenario", "altair_nominal",
                 "--key", "payload.mass", "--values", "a,b"]) == 64


def test_sweep_rejects_a_cross_field_value_before_any_row(tmp_path, capsys):
    assert main(["sweep", "--scenario", "altair_nominal",
                 "--key", "trigger.deploy_floor", "--values", "150,200,500",
                 "--out", str(tmp_path / "sw")]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "500.0" in captured.err
    assert not (tmp_path / "sw").exists()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 64
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", "--scenario", "altair_nominal", "--warp", "9"]) == 64


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0

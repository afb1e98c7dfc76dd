"""End-to-end mission loop tests on the bundled profiles.

Timing anchors for the default scenario (seed 42, dt 1 ms) were taken
from instrumented runs and then cross-checked by hand against the
component models: the unlock fires on the first deploy-logic tick with
the sensed altitude inside the window, the rod takes 0.5 s, the door
0.283 s, the settle delay 2.0 s and the push 0.955 s.
"""

import importlib.util
import math
import re
import sys
from pathlib import Path

import pytest

from deploysim import (
    CONFIG_ERROR_EXIT,
    EXIT_CODES,
    Outcome,
    build_scenario,
    bundled_scenario,
    render_commands_csv,
    render_telemetry_csv,
    run_mission,
    scenario_with,
    sweep,
    verdict_lines,
)
from deploysim import mission
from deploysim.errors import DomainError, ScenarioError

NOMINAL = bundled_scenario("altair_nominal")


@pytest.fixture(scope="module")
def nominal_result():
    return run_mission(NOMINAL)


def event_map(result):
    """First occurrence of each event name."""
    out = {}
    for e in result.events:
        out.setdefault(e.name, e)
    return out


def test_nominal_outcome(nominal_result):
    v = nominal_result.verdict
    assert v.outcome is Outcome.DEPLOYED_IN_WINDOW
    assert v.safe_hold_reason is None
    assert EXIT_CODES[v.outcome] == 0
    assert v.deploy_time == pytest.approx(68.744, abs=1e-9)
    assert v.deploy_altitude_truth == pytest.approx(325.69, abs=0.01)
    assert v.peak_current == pytest.approx(0.9)


def test_nominal_event_sequence(nominal_result):
    ev = event_map(nominal_result)
    names = ["apogee_truth", "apogee_sensed", "door_unlocked", "door_open",
             "ejected", "payload_chute_open", "vehicle_landed",
             "payload_landed"]
    assert all(n in ev for n in names), sorted(ev)
    times = [ev[n].time for n in names]
    assert times == sorted(times), "events out of order"

    assert ev["apogee_truth"].time == pytest.approx(17.649, abs=0.001)
    assert ev["apogee_truth"].value == pytest.approx(1331.84, abs=0.01)
    # Sensed apogee trails truth: a 5 m drop plus latency must elapse.
    assert 0.1 < ev["apogee_sensed"].time - ev["apogee_truth"].time < 3.0
    assert ev["door_unlocked"].time == pytest.approx(65.499, abs=1e-6)
    assert ev["door_open"].time == pytest.approx(65.782, abs=1e-6)
    assert ev["ejected"].time == pytest.approx(68.744, abs=1e-6)


def test_each_event_is_logged_once(nominal_result):
    # Events are logged on transitions; SafeHold lasts many logic ticks.
    jammed = run_mission(bundled_scenario("altair_door_jam"))
    for result in (nominal_result, jammed):
        names = [event.name for event in result.events]
        assert len(names) == len(set(names)), names
    assert "safe_hold" in {event.name for event in jammed.events}


def test_event_times_lie_on_the_tick_grid(nominal_result):
    # Time is derived from the tick count, never accumulated: every
    # event, the vehicle's included, is stamped k * dt for an integer k.
    coarse = scenario_with(NOMINAL, {"sim.dt": 0.01})
    for scenario, result in ((NOMINAL, nominal_result),
                             (coarse, run_mission(coarse))):
        dt = scenario.dt
        assert {e.name for e in result.events} >= {"apogee_truth",
                                                   "vehicle_landed"}
        for event in result.events:
            assert event.time == round(event.time / dt) * dt, event


def test_nominal_command_log(nominal_result):
    cmds = nominal_result.commands
    assert [(c.name, c.time) for c in cmds] == [("unlock", 65.0),
                                                ("push", 67.79)]
    unlock, push = cmds
    # The unlock's sensed trigger altitude sits inside the window; the
    # truth altitude at that instant is just under the 400 m ceiling.
    assert 150.0 <= unlock.value <= 400.0
    assert unlock.truth_altitude == pytest.approx(399.89, abs=0.01)
    assert push.value == 1.0


def test_rod_door_dwell_and_push_timing(nominal_result):
    ev = event_map(nominal_result)
    cmds = {c.name: c for c in nominal_result.commands}
    assert ev["door_unlocked"].time - cmds["unlock"].time == pytest.approx(
        0.5, abs=0.002)
    assert ev["door_open"].time - ev["door_unlocked"].time == pytest.approx(
        0.283, abs=0.002)
    dwell = cmds["push"].time - ev["door_open"].time
    assert 2.0 - 1e-9 <= dwell <= 2.010 + 1e-9
    # Single push does it: traverse time is the 60 mm stroke at rack speed.
    assert ev["ejected"].time - cmds["push"].time == pytest.approx(
        0.955, abs=0.011)
    assert ev["ejected"].time - cmds["unlock"].time <= 5.0


def test_nominal_telemetry_shape(nominal_result):
    rows = nominal_result.telemetry
    assert len(rows) == 2313
    assert rows[0].time_s == 0.0
    deltas = {round(b.time_s - a.time_s, 9)
              for a, b in zip(rows, rows[1:])}
    assert deltas == {0.05}, "telemetry must tick at exactly 20 Hz"
    # Rows capture end-of-tick state; deploy logic arms on tick zero.
    assert rows[0].deploy_phase == "AwaitWindow"
    assert rows[-1].deploy_phase == "Ejected"
    assert all(r.fault_flags == "-" for r in rows)


def test_nominal_battery_audit(nominal_result):
    res = nominal_result
    assert res.battery_final.charge == pytest.approx(
        7920.0 - res.charge_drawn, abs=1e-9)
    assert res.verdict.energy_used == pytest.approx(7.4 * res.charge_drawn,
                                                    rel=1e-12)
    assert not res.battery_final.failed


def test_payload_lands_after_deploy(nominal_result):
    ev = event_map(nominal_result)
    assert ev["payload_landed"].time > ev["vehicle_landed"].time
    assert nominal_result.telemetry[-1].time_s >= ev["payload_landed"].time - 0.05


def test_sixty_second_cap_times_out_with_1200_rows():
    sc = scenario_with(NOMINAL, {"sim.max_sim_time": 60.0})
    res = run_mission(sc)
    assert res.verdict.outcome is Outcome.TIMEOUT
    assert EXIT_CODES[res.verdict.outcome] == 4
    assert len(res.telemetry) == 1200


def test_total_timeout_before_apogee():
    sc = scenario_with(NOMINAL, {"sim.max_sim_time": 10.0})
    res = run_mission(sc)
    assert res.verdict.outcome is Outcome.TIMEOUT
    assert res.commands == []


def test_landed_undeployed_when_never_armed():
    # An absurd apogee confirmation threshold keeps the trigger unarmed,
    # so the vehicle rides its drogue to the ground with the payload.
    sc = scenario_with(NOMINAL, {"trigger.apogee_confirm_drop": 100000.0})
    res = run_mission(sc)
    assert res.verdict.outcome is Outcome.LANDED_UNDEPLOYED
    assert EXIT_CODES[res.verdict.outcome] == 3
    assert res.commands == []
    assert res.verdict.deploy_altitude_truth is None


def test_same_scenario_same_bytes():
    a = run_mission(NOMINAL)
    b = run_mission(NOMINAL)
    assert render_telemetry_csv(a.telemetry) == render_telemetry_csv(b.telemetry)
    assert render_commands_csv(a.commands) == render_commands_csv(b.commands)
    assert a.verdict == b.verdict


def test_seed_changes_noise_not_verdict():
    fast = {"sim.dt": 0.005}
    verdicts = set()
    sensed_streams = []
    for seed in range(10):
        sc = scenario_with(NOMINAL, dict(fast, **{"sim.seed": seed}))
        res = run_mission(sc, stop_at_verdict=True)
        verdicts.add(res.verdict.outcome)
        sensed_streams.append(tuple(r.sensed_alt_m for r in res.telemetry[:200]))
    assert verdicts == {Outcome.DEPLOYED_IN_WINDOW}
    assert len(set(sensed_streams)) == 10, "noise must vary with the seed"


def test_stop_at_verdict_matches_full_run(nominal_result):
    res = run_mission(NOMINAL, stop_at_verdict=True)
    assert res.verdict.outcome is nominal_result.verdict.outcome
    assert res.verdict.deploy_time == nominal_result.verdict.deploy_time
    assert res.telemetry[-1].time_s < nominal_result.telemetry[-1].time_s


# ---------------------------------------------------------------------------
# Fault profiles (detailed per-criterion checks live in test_acceptance)


@pytest.mark.parametrize("name,reason,hold_time", [
    ("altair_link_break", "pushes-exhausted", 73.52),
    ("altair_gear_slip", "pushes-exhausted", 73.52),
    ("altair_friction3x", "push-timeout", 53.26),
    ("altair_battery_fail", "battery-failure", 30.0),
    ("altair_door_jam", "door-timeout", 67.0),
])
def test_fault_scenarios_go_safe(name, reason, hold_time):
    res = run_mission(bundled_scenario(name))
    assert res.verdict.outcome is Outcome.SAFE_HOLD
    assert res.verdict.safe_hold_reason == reason
    assert EXIT_CODES[res.verdict.outcome] == 2
    hold = next(e for e in res.events if e.name == "safe_hold")
    assert hold.time == pytest.approx(hold_time, abs=1e-6)
    assert all(c.time <= hold.time for c in res.commands)
    assert "ejected" not in {e.name for e in res.events}


def test_door_jam_hold_is_unlock_plus_timeout():
    res = run_mission(bundled_scenario("altair_door_jam"))
    unlock = next(c for c in res.commands if c.name == "unlock")
    hold = next(e for e in res.events if e.name == "safe_hold")
    assert hold.time - unlock.time == pytest.approx(2.0, abs=1e-9)


def test_battery_fail_never_commands():
    res = run_mission(bundled_scenario("altair_battery_fail"))
    assert res.commands == []
    assert res.verdict.energy_used == 0.0


def test_retry_pushes_have_consistent_spacing():
    res = run_mission(bundled_scenario("altair_gear_slip"))
    pushes = [c.time for c in res.commands if c.name == "push"]
    assert pushes == pytest.approx([67.79, 69.70, 71.61], abs=1e-6)
    # One full cycle (~1.91 s) between consecutive push commands.
    for earlier, later in zip(pushes, pushes[1:]):
        assert later - earlier == pytest.approx(1.91, abs=0.02)


# ---------------------------------------------------------------------------
# Sweeps


def test_mass_sweep_brackets_the_limit():
    fast = scenario_with(NOMINAL, {"sim.dt": 0.005})
    table = sweep(fast, "payload.mass", [1.0, 13.5, 14.0, 16.0])
    assert [m for m, _ in table] == [1.0, 13.5, 14.0, 16.0]
    outcomes = {m: v.outcome for m, v in table}
    assert outcomes[1.0] is Outcome.DEPLOYED_IN_WINDOW
    assert outcomes[13.5] is Outcome.DEPLOYED_IN_WINDOW
    assert outcomes[14.0] is Outcome.SAFE_HOLD
    assert outcomes[16.0] is Outcome.SAFE_HOLD
    assert table[2][1].safe_hold_reason == "push-timeout"


def test_sweep_coerces_integer_keys():
    # The CLI parses sweep values as floats: integral ones become ints,
    # fractional ones are rejected before any run starts.
    fast = scenario_with(NOMINAL, {"sim.dt": 0.005, "sim.max_sim_time": 30.0})
    table = sweep(fast, "sim.seed", [1.0, 2])
    assert [s for s, _ in table] == [1, 2]
    assert all(type(s) is int for s, _ in table)
    with pytest.raises(ScenarioError, match="faults.gear_slip_push"):
        sweep(fast, "faults.gear_slip_push", [1.0, 2.7])


@pytest.mark.parametrize("key, values, bad", [
    ("trigger.deploy_floor", [150.0, 200.0, 500.0], "500.0"),
    ("payload.mass", [1.0, 2.0, -1.0], "-1.0"),
])
def test_sweep_builds_every_scenario_before_any_run(monkeypatch, key,
                                                    values, bad):
    runs = []

    def counting_run(*args, **kwargs):
        runs.append(args)
        return run_mission(*args, **kwargs)

    monkeypatch.setattr(mission, "run_mission", counting_run)
    with pytest.raises(ScenarioError,
                       match=rf"^sweep {re.escape(key)} = {re.escape(bad)}: "):
        sweep(NOMINAL, key, values)
    assert runs == []


def test_sweep_rejects_unknown_key():
    with pytest.raises(ScenarioError, match="unknown sweep key"):
        sweep(NOMINAL, "payload.weight", [1.0])


def test_sweep_rejects_boolean_key():
    with pytest.raises(ScenarioError, match="not numeric"):
        sweep(NOMINAL, "faults.door_jam", [1.0])


def test_sweep_of_nothing_is_empty():
    assert sweep(NOMINAL, "payload.mass", []) == []


# ---------------------------------------------------------------------------
# Rendering


def test_telemetry_csv_shape(nominal_result):
    text = render_telemetry_csv(nominal_result.telemetry)
    lines = text.splitlines()
    assert lines[0] == "# schema=deploysim.telemetry.v1"
    assert lines[1].split(",")[:3] == ["time_s", "truth_alt_m",
                                       "truth_vel_mps"]
    assert len(lines) == 2 + len(nominal_result.telemetry)
    assert lines[2].startswith("0.000000,")
    assert text.endswith("\n")


def test_commands_csv_shape(nominal_result):
    text = render_commands_csv(nominal_result.commands)
    lines = text.splitlines()
    assert lines[0] == "# schema=deploysim.commands.v1"
    assert lines[1] == "time_s,command,value,truth_alt_m"
    assert lines[2].startswith("65.000000,unlock,")
    assert len(lines) == 4


def test_verdict_lines_round_trip(nominal_result):
    lines = verdict_lines(nominal_result.verdict)
    fields = dict(line.split("=", 1) for line in lines)
    assert fields["outcome"] == "DeployedInWindow"
    assert fields["safe_hold_reason"] == "-"
    assert fields["exit_code"] == "0"
    assert float(fields["deploy_altitude_m"]) == pytest.approx(325.69,
                                                               abs=0.01)
    assert float(fields["energy_used_j"]) > 0.0


def test_flight_above_the_model_band_raises_mid_mission():
    # The tick loop checks each altitude once; a vehicle that climbs
    # past 11 km must still stop the run with DomainError.
    high = scenario_with(NOMINAL, {"vehicle.avg_thrust": 20000.0,
                                   "vehicle.burn_time": 6.0})
    with pytest.raises(DomainError, match="outside model band") as info:
        run_mission(high)
    # The error says when the flight left the band, and chains the
    # atmosphere model's own error.
    assert str(info.value).startswith(
        "at t=6.830 s the vehicle left the 0-11 km atmosphere model band: "
        "altitude 11001.4")
    assert isinstance(info.value.__cause__, DomainError)
    assert "at t=" not in str(info.value.__cause__)


def test_exit_code_table_is_total():
    assert {EXIT_CODES[o] for o in Outcome} == {0, 2, 3, 4}
    assert CONFIG_ERROR_EXIT == 64


def test_default_scenario_equals_bundled_nominal():
    assert build_scenario().values == NOMINAL.values


def test_payload_state_after_nominal(nominal_result):
    # The ejected payload must be on the ground with its chute used.
    ev = event_map(nominal_result)
    assert ev["payload_chute_open"].value < ev["ejected"].value
    final = nominal_result.telemetry[-1]
    assert final.flight_phase == "Landed"
    assert math.isfinite(final.sensed_alt_m)


def test_every_trace_hook_of_the_benchmark_resolves():
    # The benchmark's per-layer trace patches named functions; one that
    # a refactor renames or removes would silently drop out of it.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        with tracer.installed():
            pass
    finally:
        del sys.modules[spec.name]
    assert tracer.absent == {}
    assert tracer.partial == {}

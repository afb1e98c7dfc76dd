"""Acceptance gate: one test per shipping criterion.

Each test drives the public API only, computes its verdict, records a
PASS/FAIL line for the end-of-run summary (see conftest) and then
asserts.  Criteria:

  C1  sizing chain reproduces the design-point numbers
  C2  payload mass sweep flips exactly at the computed limit, under 30 s
  C3  protocol properties hold over 200 randomized profiles
  C4  physics against closed-form oracles
  C5  every fault deck ends in SafeHold, silent from entry on
  C6  nominal mission deploys in window with the budgeted timings
  C7  same scenario and seed reproduce byte-identical telemetry
  C12 every shortcut of the tick loop matches the reference mission
"""

import importlib.util
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from deploysim import (
    MechanismParams,
    Outcome,
    bundled_scenario,
    render_commands_csv,
    render_telemetry_csv,
    run_mission,
    scenario_with,
    sizing_report,
    sweep,
)
from deploysim.actuation import drain_battery
from deploysim.atmosphere import (_altitude_in_band, density_at_altitude,
                                  pressure_at_altitude)
from deploysim.flight import (FlightPhase, FlightState, PayloadBody,
                              VehicleSpec, release_payload, step_payload)
from conftest import record_criterion
from oracles import (DIFFERENTIAL_MISSIONS, differential, fuzz_profile,
                     step_once, terminal_speed)

NOMINAL = bundled_scenario("altair_nominal")
MODEL = NOMINAL.atmosphere


def conclude(label, failures, detail_ok):
    """Record one summary line, then fail the test if anything broke."""
    passed = not failures
    record_criterion(label, passed,
                     detail_ok if passed else "; ".join(failures))
    assert passed, f"{label}: " + "; ".join(failures)


# ---------------------------------------------------------------------------
# C1


def test_c1_sizing_chain_reproduction():
    report = sizing_report(MechanismParams())
    failures = []
    if report.ideal_tangential_force != 98.0:
        failures.append(f"ideal force {report.ideal_tangential_force} != 98.0")
    if abs(report.effective_tangential_force - 84.0) > 1.0:
        failures.append(f"effective force {report.effective_tangential_force}"
                        " not within 1 N of 84")
    if report.effective_tangential_force != pytest.approx(83.3):
        failures.append("effective force drifted from 83.3")
    if abs(report.required_acceleration - 4.8e-3) > 1e-6:
        failures.append(f"acceleration {report.required_acceleration}")
    if abs(report.max_payload_mass - 14.0) > 0.15:
        failures.append(f"mass limit {report.max_payload_mass}"
                        " not within 0.15 kg of 14")
    if report.max_payload_mass != pytest.approx(13.909065103775317):
        failures.append("mass limit drifted from 13.909")
    conclude("C1 sizing chain reproduction", failures,
             "98.0 N / 83.3 N / 4.8e-3 m/s^2 / 13.91 kg")


# ---------------------------------------------------------------------------
# C2


def test_c2_mass_sweep_flips_at_the_limit():
    limit = sizing_report(NOMINAL.mechanism).max_payload_mass
    masses = [1.0 + 0.5 * k for k in range(39)]   # 1.0 .. 20.0
    started = time.perf_counter()
    table = sweep(NOMINAL, "payload.mass", masses)
    elapsed = time.perf_counter() - started

    failures = []
    if [m for m, _ in table] != masses:
        failures.append("sweep rows out of order")
    for mass, verdict in table:
        expected = (Outcome.DEPLOYED_IN_WINDOW if mass <= limit
                    else Outcome.SAFE_HOLD)
        if verdict.outcome is not expected:
            failures.append(f"{mass} kg -> {verdict.outcome.value}")
    flip = next(m for m, v in table if v.outcome is Outcome.SAFE_HOLD)
    if flip != 14.0:
        failures.append(f"first refusal at {flip} kg, wanted 14.0")
    if elapsed >= 30.0:
        failures.append(f"sweep took {elapsed:.1f} s (budget 30 s)")
    # The limit itself deploys and one float above it stalls, at the
    # nominal friction and at one where a restated load inequality put
    # the boundary a float low.
    for base in (NOMINAL, scenario_with(NOMINAL, {"mechanism.friction": 0.9})):
        edge = sizing_report(base.mechanism).max_payload_mass
        above = math.nextafter(edge, math.inf)
        for mass, verdict in sweep(base, "payload.mass", [edge, above]):
            got = (verdict.outcome, verdict.safe_hold_reason)
            expected = ((Outcome.DEPLOYED_IN_WINDOW, None) if mass == edge
                        else (Outcome.SAFE_HOLD, "push-timeout"))
            if got != expected:
                failures.append(f"{mass!r} kg at the limit {edge!r} -> "
                                f"{verdict.outcome.value}")
    conclude("C2 mass sweep flips at the computed limit", failures,
             f"39 runs, flip at {flip} kg, {elapsed:.1f} s; the limit "
             f"exact to the float at mu 0.61 and 0.9")


# ---------------------------------------------------------------------------
# C3


SENSE_PERIOD = 0.02
LOGIC_PERIOD = 0.01


def _bench_fuzz():
    """`bench/fuzz.py`, the profiles and protocol properties of the
    benchmark's `fuzz_corpus` workload."""
    path = Path(__file__).resolve().parents[1] / "bench" / "fuzz.py"
    spec = importlib.util.spec_from_file_location("bench_fuzz", path)
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    return fuzz


protocol_problems = _bench_fuzz().protocol_problems


def protocol_violations(scenario, sigma, result):
    """The problems the benchmark's `protocol_problems` finds, and the
    checks it lacks: the unlock after truth apogee, the noise-free floor
    and never leaving SafeHold."""
    bad = protocol_problems(scenario, result, Outcome.DEPLOYED_IN_WINDOW)
    commands = result.commands
    unlocks = [c for c in commands if c.name == "unlock"]
    events = {}
    for e in result.events:
        events.setdefault(e.name, e)

    if unlocks:
        if "apogee_truth" not in events:
            bad.append("unlock before the vehicle ever reached apogee")
        elif unlocks[0].time < events["apogee_truth"].time:
            bad.append("unlock earlier than truth apogee")
    if sigma == 0.0 and commands:
        # Noise-free subset: commands never fire below the floor beyond
        # the sensing budget (latency + sample age + logic period).
        floor = scenario.trigger.deploy_floor
        stale = scenario.barometer.latency + SENSE_PERIOD + LOGIC_PERIOD
        for c in commands:
            row = min(result.telemetry, key=lambda r: abs(r.time_s - c.time))
            allowance = (abs(row.truth_vel_mps) + 2.0) * stale + 0.3
            if c.truth_altitude < floor - allowance:
                bad.append(f"{c.name} at {c.truth_altitude:.1f} m, floor "
                           f"{floor:.1f} m")
    if "safe_hold" in events:
        hold_time = events["safe_hold"].time
        for row in result.telemetry:
            if row.time_s > hold_time and not row.deploy_phase.startswith(
                    "SafeHold"):
                bad.append("left SafeHold")
                break
    return bad


def test_c3_protocol_properties_under_fuzz():
    runs = 200
    failures = []
    outcomes = set()
    reasons = set()
    for k in range(runs):
        scenario, sigma = fuzz_profile(k)
        result = run_mission(scenario)
        outcomes.add(result.verdict.outcome)
        if result.verdict.safe_hold_reason:
            reasons.add(result.verdict.safe_hold_reason)
        for problem in protocol_violations(scenario, sigma, result):
            failures.append(f"profile {k}: {problem}")
    # Coverage sanity: the corpus must actually exercise both sides.
    if Outcome.DEPLOYED_IN_WINDOW not in outcomes:
        failures.append("no profile deployed")
    if len(reasons) < 3:
        failures.append(f"only {sorted(reasons)} hold reasons seen")
    conclude("C3 protocol properties over randomized profiles", failures,
             f"{runs} runs, {len(reasons)} hold reasons exercised")


# ---------------------------------------------------------------------------
# C4


def test_c4_physics_oracles():
    failures = []

    # Ballistic apogee vs v^2/2g at dt = 1 ms.
    spec = VehicleSpec(dry_mass=10.0, propellant_mass=0.0, avg_thrust=0.0,
                       burn_time=0.0, drag_area_coast=0.0,
                       drogue_drag_area=0.0)
    state = FlightState(altitude=0.0, velocity=100.0, mass=10.0,
                        phase=FlightPhase.COAST)
    while state.velocity > 0.0:
        step_once(spec, state, 0.001, MODEL)
    expected = 100.0**2 / (2 * 9.81)
    if abs(state.altitude - expected) / expected > 1e-3:
        failures.append(f"apogee {state.altitude:.2f} vs {expected:.2f}")

    # Parachute descent vs sqrt(2mg / rho Cd A), checked at altitude.
    body = PayloadBody(mass=1.0, parachute_drag_area=0.45,
                       parachute_open_altitude_loss=40.0)
    release_payload(body, FlightState(altitude=500.0, velocity=-10.0,
                                      mass=10.0), 0.0)
    settled = False
    for tick in range(200000):
        step_payload(body, 0.001, MODEL, 1, tick)
        if body.landing_time is not None:
            break
        if body.chute_time is not None and body.altitude < 380.0:
            rho = density_at_altitude(MODEL, body.altitude)
            target = terminal_speed(1.0, 0.45, rho)
            if abs(-body.velocity - target) / target > 5e-3:
                failures.append(f"terminal {-body.velocity:.3f}"
                                f" vs {target:.3f}")
            settled = True
            break
    if not settled:
        failures.append("payload never settled under parachute")

    # The barometer's pressure/altitude inversion to 1e-9 across the band.
    rng = random.Random(9001)
    worst = 0.0
    for _ in range(300):
        h = rng.uniform(0.0, 11000.0)
        back = _altitude_in_band(MODEL, pressure_at_altitude(MODEL, h))
        worst = max(worst, abs(back - h))
    if worst > 1e-9 * 11000.0:
        failures.append(f"round-trip error {worst:.2e} m")

    # Battery coulomb audit to 1e-9 against a compensated sum.
    rng = random.Random(9002)
    currents = [rng.uniform(0.0, 2.0) for _ in range(10000)]
    battery = replace(NOMINAL.battery)
    steps = []
    for amps in currents:
        before = battery.charge
        drain_battery(battery, amps, 0.001, 1, [0.0, 0.0, 0.0])
        steps.append(before - battery.charge)
    audit_gap = abs(math.fsum(steps)
                    - math.fsum(a * 0.001 for a in currents))
    if audit_gap > 1e-9:
        failures.append(f"charge audit gap {audit_gap:.2e} C")

    conclude("C4 physics against closed-form oracles", failures,
             "apogee 0.1% / terminal 0.5% / inversion 1e-9 / charge 1e-9")


# ---------------------------------------------------------------------------
# C5


def test_c5_fault_decks_go_safe_and_stay_silent():
    expected = {
        "altair_link_break": "pushes-exhausted",
        "altair_gear_slip": "pushes-exhausted",
        "altair_friction3x": "push-timeout",
        "altair_battery_fail": "battery-failure",
        "altair_door_jam": "door-timeout",
    }
    failures = []
    for name, reason in expected.items():
        result = run_mission(bundled_scenario(name))
        verdict = result.verdict
        if verdict.outcome is not Outcome.SAFE_HOLD:
            failures.append(f"{name}: {verdict.outcome.value}")
            continue
        if verdict.safe_hold_reason != reason:
            failures.append(f"{name}: reason {verdict.safe_hold_reason}, "
                            f"wanted {reason}")
        hold = next(e for e in result.events if e.name == "safe_hold")
        late = [c for c in result.commands if c.time > hold.time]
        if late:
            failures.append(f"{name}: {len(late)} commands after SafeHold")
        if any(e.name == "ejected" for e in result.events):
            failures.append(f"{name}: payload left the bay")
    conclude("C5 fault decks end in silent SafeHold", failures,
             f"{len(expected)} decks, documented reasons")


# ---------------------------------------------------------------------------
# C6


def test_c6_nominal_mission_deploys_in_window():
    result = run_mission(NOMINAL)
    verdict = result.verdict
    events = {e.name: e for e in result.events}
    commands = {c.name: c for c in result.commands}
    failures = []
    if verdict.outcome is not Outcome.DEPLOYED_IN_WINDOW:
        failures.append(f"outcome {verdict.outcome.value}")
    else:
        low = NOMINAL.trigger.deploy_floor
        high = NOMINAL.trigger.deploy_ceiling + NOMINAL.trigger.window_allowance
        if not (low <= verdict.deploy_altitude_truth <= high):
            failures.append(f"eject at {verdict.deploy_altitude_truth:.1f} m")
        traverse = events["ejected"].time - commands["push"].time
        if abs(traverse - 0.955) > 0.010:
            failures.append(f"traverse {traverse:.3f} s, wanted 0.955")
        sequence = events["ejected"].time - commands["unlock"].time
        if sequence > 5.0:
            failures.append(f"unlock-to-eject {sequence:.2f} s > 5 s budget")
    conclude("C6 nominal mission deploys in window", failures,
             f"eject {verdict.deploy_altitude_truth:.1f} m, "
             f"{events['ejected'].time - commands['unlock'].time:.2f} s "
             "unlock-to-eject")


# ---------------------------------------------------------------------------
# C7


def test_c7_reruns_are_byte_identical():
    first = run_mission(NOMINAL)
    second = run_mission(NOMINAL)
    telemetry_a = render_telemetry_csv(first.telemetry).encode()
    telemetry_b = render_telemetry_csv(second.telemetry).encode()
    commands_a = render_commands_csv(first.commands).encode()
    commands_b = render_commands_csv(second.commands).encode()
    failures = []
    if telemetry_a != telemetry_b:
        failures.append("telemetry bytes differ")
    if commands_a != commands_b:
        failures.append("command bytes differ")
    # A different seed must not reproduce the same sensor stream.
    other = run_mission(scenario_with(NOMINAL, {"sim.seed": 43}))
    if render_telemetry_csv(other.telemetry).encode() == telemetry_a:
        failures.append("seed change left telemetry identical")
    conclude("C7 byte-identical replays per seed", failures,
             f"{len(telemetry_a)} telemetry bytes compared")


# ---------------------------------------------------------------------------
# C12

def test_c12_shortcuts_match_the_reference_mission():
    # Each mission of `oracles.DIFFERENTIAL_MISSIONS` against
    # `oracles.reference_run`, which flies each tick as its own pass with
    # the per-tick steppers and the deque barometer, and `oracles.live_run`,
    # whose deploy logic runs on every logic tick.
    failures = [f"{name}: {', '.join(differ)} differ"
                for name, scenario in DIFFERENTIAL_MISSIONS.items()
                if (differ := differential(scenario))]
    conclude("C12 shortcuts match the reference mission", failures,
             f"{len(DIFFERENTIAL_MISSIONS)} missions byte-equal to both "
             f"references")

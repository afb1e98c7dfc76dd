"""Tests of the benchmark's own checks, inputs and tracer.

Run from the root of a source checkout:

    python3 -m pytest -q bench/tests
"""

import io
import math
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import deploysim  # noqa: E402
import deploysim.cli  # noqa: E402
import deploysim.mission  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from fuzz import KINDS, corpus  # noqa: E402
from spans import Hook, Tracer  # noqa: E402
from workloads import (DECK_FILES, MassSweep, MissionProbe,  # noqa: E402
                       PassOutcome, deck_problems, load_goldens,
                       mission_ticks)


def _run_deck(deck, seed, out):
    printed = io.StringIO()
    with redirect_stdout(printed):
        code = deploysim.cli.main(["run", "--scenario", deck, "--seed",
                                   str(seed), "--out", str(out)])
    files = {name: (out / name).read_bytes()
             for name in DECK_FILES + ("verdict.txt",)}
    return files, code, printed.getvalue()


def test_flipped_telemetry_float_fails_the_deck_check(tmp_path):
    goldens = load_goldens()
    files, code, printed = _run_deck("altair_door_jam", 42, tmp_path)
    assert deck_problems("altair_door_jam", 42, files, code, printed,
                         goldens) == []

    lines = files["telemetry.csv"].decode().splitlines(keepends=True)
    fields = lines[100].split(",")
    fields[1] = repr(math.nextafter(float(fields[1]), math.inf))
    lines[100] = ",".join(fields)
    flipped = dict(files, **{"telemetry.csv": "".join(lines).encode()})
    problems = deck_problems("altair_door_jam", 42, flipped, code, printed,
                             goldens)
    assert problems == ["altair_door_jam: telemetry.csv at seed 42 differs "
                        "from its frozen digest"]


def test_wrong_outcome_fails_the_deck_check(tmp_path):
    files, code, printed = _run_deck("altair_door_jam", 3, tmp_path)
    problems = deck_problems("altair_gear_slip", 3, files, code, printed, {})
    assert problems == ["altair_gear_slip: SafeHold(door-timeout), expected "
                        "SafeHold(pushes-exhausted)"]


def test_fuzz_seed_changes_profiles_deterministically():
    assert corpus(5, 22) == corpus(5, 22)
    assert corpus(6, 22) != corpus(5, 22)
    first = corpus(5, 22)
    assert first[:11] != first[11:]
    jammed = [p for p in first if p.get("faults.door_jam")]
    assert len(jammed) == 22 // len(KINDS) * KINDS.count("door_jam")


def test_sweep_grid_straddles_the_limit_by_seed():
    grid = MassSweep(4, None, {}).grid
    assert grid == MassSweep(4, None, {}).grid
    assert grid != MassSweep(5, None, {}).grid
    limit = deploysim.sizing_report(deploysim.MechanismParams()).max_payload_mass
    assert sum(m < limit - 0.5 for m in grid) == MassSweep.per_side
    assert sum(m > limit + 0.5 for m in grid) == MassSweep.per_side


def test_tracer_restores_every_target_even_on_exceptions():
    originals = (deploysim.mission.step_vehicle, deploysim.run_mission,
                 deploysim.atmosphere.Barometer.sample)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert deploysim.mission.step_vehicle is not originals[0]
            raise RuntimeError("boom")
    assert (deploysim.mission.step_vehicle, deploysim.run_mission,
            deploysim.atmosphere.Barometer.sample) == originals


def test_missing_hook_target_is_reported_absent():
    tracer = Tracer(hooks=(
        Hook("gone.entirely", (("deploysim.mission", "no_such_name"),)),
        Hook("gone.partly", (("deploysim.mission", "step_vehicle"),
                             ("deploysim.no_such_module", "f"))),
    ))
    with tracer.installed():
        pass
    assert "no_such_name" in tracer.absent["gone.entirely"]
    assert "gone.partly" not in tracer.absent
    assert "no_such_module" in tracer.partial["gone.partly"]


@pytest.mark.parametrize("stop_at_verdict", [False, True])
def test_traced_mission_counts_and_times_add_up(stop_at_verdict):
    scenario = deploysim.build_scenario(corpus(1, 1)[0])
    untraced = deploysim.run_mission(scenario, stop_at_verdict)
    probe = MissionProbe()
    tracer = Tracer()
    with tracer.installed():
        traced = probe.wrap(deploysim.mission.run_mission)(scenario,
                                                          stop_at_verdict)
    for render, rows in ((deploysim.render_telemetry_csv, "telemetry"),
                         (deploysim.render_commands_csv, "commands")):
        assert (render(getattr(traced, rows))
                == render(getattr(untraced, rows)))
    stats = tracer.stats
    assert stats["atmosphere.baro_sample"].calls == probe.ticks[0]
    assert probe.ticks[0] == mission_ticks(scenario, stop_at_verdict, traced)
    self_sum = sum(s.self_ns for s in stats.values())
    assert self_sum == tracer.top_level_ns() > 0


def test_end_to_end_times_are_normalised_by_the_reference_loop():
    passes = []
    # CPU s of a pass and the factor of its one mission: on the nominal
    # host the three passes would take 1 s, 3 s and 2 s.
    for cpu_s, scale in ((2, 0.5), (3, 1.0), (1, 2.0)):
        outcome = PassOutcome(key=1, cpu_ns=cpu_s * 10**9)
        outcome.mission_ns, outcome.mission_scales = [cpu_s * 10**9], [scale]
        outcome.ticks = 1000
        passes.append(outcome)
    metrics = run.end_to_end_metrics(passes, [3e7, 5e7, 4e7])
    assert metrics["pass_norm_s"]["value"] == pytest.approx(2.0)
    assert metrics["mission_norm_ms_p50"]["value"] == pytest.approx(2000.0)
    assert metrics["ticks_per_norm_s"]["value"] == pytest.approx(3000 / 6)
    assert metrics["setup_s"]["value"] == pytest.approx(0.04)


def test_normalised_samples_the_host_during_the_work(monkeypatch):
    samples = []

    def slow_host_loop():
        samples.append(1)
        return 2 * hostspeed.NOMINAL_NS

    def work():
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * hostspeed.INTERVAL_S:
            pass
        return "done"

    monkeypatch.setattr(hostspeed, "reference_loop", slow_host_loop)
    previous = signal.getsignal(signal.SIGALRM)
    result, elapsed, scale = hostspeed.normalised(work)
    assert (result, scale) == ("done", 0.5)
    assert len(samples) >= 4          # before, after and during the work
    assert 0 < elapsed
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous

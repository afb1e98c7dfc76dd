"""deploysim benchmark: one workload, timed passes, checked outputs.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload decks_full --seed 1 --seconds 25 --trace 0

It imports the package from `src/` of the checkout, measures set-up,
runs the workload's warm-up passes, then runs passes of the workload
until `--seconds` have passed and prints every metric by name and unit.
With `--trace 0` the metrics are the end-to-end ones, measured untraced
in CPU time and scaled to normalised time (see hostspeed.py); with
`--trace 1` passes alternate untraced and traced and the metrics are per
layer.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
See bench/README.md for the workloads and metrics.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed
from spans import LAYERS, Tracer, patched
from workloads import (RUN_MISSION_TARGETS, WORKLOADS, MissionProbe,
                       load_goldens)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPS = 15


def fresh_import():
    """Import deploysim and its CLI anew, as a new process would."""
    for name in [name for name in sys.modules
                 if name == "deploysim" or name.startswith("deploysim.")]:
        del sys.modules[name]
    ds = importlib.import_module("deploysim")
    importlib.import_module("deploysim.cli")
    return ds


def measure_setup(workload):
    """Normalised ns (see hostspeed.py) of each of SETUP_REPS repetitions
    of importing the package and building every scenario a pass flies.
    The last import is the one the passes use."""
    def set_up():
        ds = fresh_import()
        workload.setup(ds)
        return ds

    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        ds, elapsed, scale = hostspeed.normalised(set_up)
        times.append(elapsed * scale)
    return ds, times


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def environment(ds, args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "deploysim_version": ds.__version__,
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "pass_seeds": sorted({workload.pass_key(i) for i in range(3)}),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(workload, ds, index, probe):
    probe.clear()
    gc.collect()
    outcome = workload.run_pass(ds, index, probe)
    outcome.cpu_ns -= probe.overhead_ns
    outcome.mission_ns = list(probe.cpu_ns)
    outcome.mission_scales = list(probe.scales)
    outcome.ticks = sum(probe.ticks)
    return outcome


def run_warmup(workload, ds, probe):
    return [run_one(workload, ds, index, probe)
            for index in range(workload.warmup_passes)]


def run_untraced(workload, ds, seconds, probe):
    """Timed passes; each flies the inputs of the first, so each must
    repeat its outputs exactly."""
    passes = []
    begin = perf_counter()
    while not passes or perf_counter() - begin < seconds:
        index = workload.warmup_passes + len(passes)
        outcome = run_one(workload, ds, index, probe)
        if passes and (outcome.digest, outcome.ticks) != (passes[0].digest,
                                                          passes[0].ticks):
            outcome.pass_problems.append("outputs differ from the first "
                                         "timed pass on the same inputs")
        passes.append(outcome)
    return passes


def run_traced(workload, ds, seconds, probe, tracer):
    """Untraced and traced passes in pairs on the same inputs.

    Returns the passes, untraced and traced alternating, and one
    SpanStats snapshot per traced pass.  What the pairing finds wrong
    fails the traced pass.
    """
    passes, snapshots = [], []
    begin = perf_counter()
    pair = 0
    while not pair or perf_counter() - begin < seconds:
        index = workload.warmup_passes + pair
        plain = run_one(workload, ds, index, probe)
        tracer.reset()
        with tracer.installed():
            traced = run_one(workload, ds, index, probe)
        snapshot = tracer.snapshot()
        top = tracer.top_level_ns()
        passes += [plain, traced]
        snapshots.append(snapshot)
        pair += 1

        found = traced.pass_problems
        for what in ("digest", "ticks", "telemetry_rows", "telemetry_bytes"):
            if getattr(plain, what) != getattr(traced, what):
                found.append(f"traced pass changed {what}")
        self_sum = sum(stats.self_ns for stats in snapshot.values())
        if self_sum != top or top > traced.wall_ns:
            found.append(f"span self times {self_sum} ns do not add up to "
                         f"the traced time {top} ns (wall {traced.wall_ns})")
        samples = snapshot["atmosphere.baro_sample"].calls
        if ("atmosphere.baro_sample" not in tracer.absent
                and samples != traced.ticks):
            found.append(f"{samples} barometer samples, but events give "
                         f"{traced.ticks} ticks")
    return passes, snapshots


def _metric(value, unit):
    return {"value": value, "unit": unit}


def pass_scale(outcome) -> float:
    """The factor to normalised time of a pass: its missions' factors,
    weighted by their CPU time."""
    return (sum(ns * scale for ns, scale
                in zip(outcome.mission_ns, outcome.mission_scales))
            / sum(outcome.mission_ns))


def end_to_end_metrics(passes, setup_times) -> dict:
    """Medians over the timed passes, in normalised time: CPU time scaled
    mission by mission by the reference loop (see hostspeed.py)."""
    mission_ns = [ns * scale for p in passes
                  for ns, scale in zip(p.mission_ns, p.mission_scales)]
    return {
        "pass_norm_s": _metric(statistics.median(
            p.cpu_ns * pass_scale(p) for p in passes) / 1e9, "s"),
        "ticks_per_norm_s": _metric(sum(p.ticks for p in passes)
                                    / (sum(mission_ns) / 1e9), "1/s"),
        "mission_norm_ms_p50": _metric(statistics.median(mission_ns) / 1e6,
                                       "ms"),
        "setup_s": _metric(statistics.median(setup_times) / 1e9, "s"),
        "peak_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def _per(numerator, denominator, scale=1.0):
    return numerator / denominator * scale if denominator else 0.0


def per_layer_metrics(passes, snapshots, tracer):
    """Per-layer metrics and the reasons for those that could not be measured.

    Times are summed over every traced pass; counts and ratios come from
    the first traced pass, so they are exact for the workload and seed.
    """
    traced = passes[1::2]
    plain = passes[0::2]
    total = {span: type(stats)() for span, stats in snapshots[0].items()}
    for snapshot in snapshots:
        for span, stats in snapshot.items():
            total[span].add(stats)
    first = snapshots[0]
    ticks = sum(p.ticks for p in traced)
    top = sum(sum(s.self_ns for s in snapshot.values()) for snapshot in snapshots)
    wall = sum(p.wall_ns for p in traced)

    def us_per_call(span):
        return _per(total[span].total_ns, total[span].calls, 1e-3)

    table = [
        # (name, unit, spans it needs, value)
        ("flight.step_vehicle.us_per_call", "us", ("flight.step_vehicle",),
         lambda: us_per_call("flight.step_vehicle")),
        ("flight.step_vehicle.calls", "count", ("flight.step_vehicle",),
         lambda: first["flight.step_vehicle"].calls),
        ("flight.step_payload.us_per_call", "us", ("flight.step_payload",),
         lambda: us_per_call("flight.step_payload")),
        ("flight.step_payload.calls", "count", ("flight.step_payload",),
         lambda: first["flight.step_payload"].calls),
        ("atmosphere.density.us_per_call", "us", ("atmosphere.density",),
         lambda: us_per_call("atmosphere.density")),
        ("atmosphere.density.calls", "count", ("atmosphere.density",),
         lambda: first["atmosphere.density"].calls),
        ("atmosphere.baro_sample.us_per_call", "us",
         ("atmosphere.baro_sample",),
         lambda: us_per_call("atmosphere.baro_sample")),
        ("atmosphere.baro_emit_ratio", "ratio", ("atmosphere.baro_sample",),
         lambda: _per(first["atmosphere.baro_sample"].extra,
                      first["atmosphere.baro_sample"].calls)),
        ("controller.due_at_tick.us_per_call", "us",
         ("controller.due_at_tick",),
         lambda: us_per_call("controller.due_at_tick")),
        ("controller.update_phase.us_per_call", "us",
         ("controller.update_phase",),
         lambda: us_per_call("controller.update_phase")),
        ("controller.update_phase.calls", "count",
         ("controller.update_phase",),
         lambda: first["controller.update_phase"].calls),
        ("controller.command_ratio", "ratio", ("controller.update_phase",),
         lambda: _per(first["controller.update_phase"].extra,
                      first["controller.update_phase"].calls)),
        ("controller.tasks.us_per_tick", "us", ("controller.tasks",),
         lambda: _per(total["controller.tasks"].total_ns, ticks, 1e-3)),
        ("controller.telemetry_record.us_per_call", "us",
         ("controller.telemetry_record",),
         lambda: us_per_call("controller.telemetry_record")),
        ("actuation.drain_battery.us_per_call", "us",
         ("actuation.drain_battery",),
         lambda: us_per_call("actuation.drain_battery")),
        ("actuation.step_carrier.us_per_call", "us",
         ("actuation.step_carrier",),
         lambda: us_per_call("actuation.step_carrier")),
        ("actuation.step_carrier.calls", "count", ("actuation.step_carrier",),
         lambda: first["actuation.step_carrier"].calls),
        ("actuation.carrier_stall_ratio", "ratio", ("actuation.step_carrier",),
         lambda: _per(first["actuation.step_carrier"].extra,
                      first["actuation.step_carrier"].calls)),
        ("mechanism.calls_per_carrier_step", "ratio",
         ("actuation.step_carrier", "mechanism.required_acceleration",
          "mechanism.tangential_force"),
         lambda: _per(first["mechanism.required_acceleration"].calls
                      + first["mechanism.tangential_force"].calls,
                      first["actuation.step_carrier"].calls)),
        ("scenario.build.calls", "count", ("scenario.build",),
         lambda: first["scenario.build"].calls),
        ("scenario.build.ms_per_call", "ms", ("scenario.build",),
         lambda: _per(total["scenario.build"].total_ns,
                      total["scenario.build"].calls, 1e-6)),
        ("mission.loop.us_per_tick", "us", ("mission.run",),
         lambda: _per(total["mission.run"].self_ns, ticks, 1e-3)),
        ("mission.render.us_per_row", "us", ("mission.render",),
         lambda: _per(total["mission.render"].total_ns,
                      total["mission.render"].extra, 1e-3)),
        ("mission.render.bytes", "bytes", ("mission.render",),
         lambda: traced[0].render_bytes),
        ("mission.sweep.ms_per_value", "ms", ("mission.sweep",),
         lambda: _per(total["mission.sweep"].total_ns,
                      total["mission.sweep"].extra, 1e-6)),
        ("cli.run.io_ms", "ms", ("cli.main",),
         lambda: _per(total["cli.main"].self_ns, total["cli.main"].calls,
                      1e-6)),
        ("trace.overhead_ratio", "ratio", (),
         lambda: statistics.median(t.wall_ns / p.wall_ns
                                   for p, t in zip(plain, traced))),
        ("trace.unattributed_ratio", "ratio", (),
         lambda: _per(wall - top, wall)),
        ("sim.ticks", "count", (), lambda: traced[0].ticks),
        ("sim.telemetry_rows", "count", (), lambda: traced[0].telemetry_rows),
        ("sim.telemetry_bytes", "bytes", (),
         lambda: traced[0].telemetry_bytes),
    ]
    for layer in LAYERS:
        spans = tuple(span for span in total if span.split(".")[0] == layer)
        table.append((f"layer.{layer}.self_share", "ratio", (),
                      lambda spans=spans: _per(
                          sum(total[s].self_ns for s in spans), top)))

    metrics, absent = {}, {}
    for name, unit, needs, value in table:
        missing = [span for span in needs if span in tracer.absent]
        if missing:
            absent[name] = "; ".join(f"{span}: {tracer.absent[span]}"
                                     for span in missing)
        else:
            metrics[name] = _metric(value(), unit)
    return metrics, absent


def report(args, env, passes, metrics, absent, notes):
    attempted = sum(p.missions for p in passes)
    failed = sum(p.failed_count for p in passes)
    problems = [f"seed {p.key}: {problem}" for p in passes
                for problem in p.problems + p.pass_problems]
    print(f"deploysim benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:>16.6f} {metric['unit']}")
    for name, reason in absent.items():
        print(f"  {name:<42} absent: {reason}")
    print(f"failed_ratio = {failed}/{attempted} missions")
    for problem in problems[:50]:
        print(f"FAILED CHECK: {problem}")
    correct = failed == 0 and not problems
    print("record: " + json.dumps({"environment": env, "metrics": metrics,
                                   "absent": absent, "problems": problems},
                                  sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deploysim" / "__init__.py").is_file():
        print(f"bench: no deploysim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, out_dir, load_goldens())
        ds, setup_times = measure_setup(workload)
        if Path(ds.__file__).resolve().parent != SRC / "deploysim":
            print(f"bench: imported deploysim from {ds.__file__}, "
                  f"not from {SRC}", file=sys.stderr)
            return 2
        env = environment(ds, args, workload)
        # Traced passes run without the reference loops, which the
        # mission span would otherwise count.
        probe = MissionProbe(reference=not args.trace)
        with patched(RUN_MISSION_TARGETS, probe.wrap) as missing:
            if len(missing) == len(RUN_MISSION_TARGETS):
                print("bench: run_mission not found: " + "; ".join(missing),
                      file=sys.stderr)
                return 2
            warmup = run_warmup(workload, ds, probe)
            if args.trace:
                tracer = Tracer()
                passes, snapshots = run_traced(
                    workload, ds, args.seconds, probe, tracer)
                metrics, absent = per_layer_metrics(passes, snapshots, tracer)
                for span, reason in tracer.partial.items():
                    print(f"note: span {span} lost some targets: {reason}")
            else:
                passes = run_untraced(workload, ds, args.seconds, probe)
                metrics = end_to_end_metrics(passes, setup_times)
                absent = {}
        notes = [
            f"passes: {len(warmup)} warm-up (seeds "
            f"{','.join(str(p.key) for p in warmup)}), {len(passes)} timed "
            f"(seeds {','.join(str(p.key) for p in passes)})",
            f"setup: {SETUP_REPS} imports+builds, normalised ms "
            f"{', '.join(f'{t / 1e6:.2f}' for t in setup_times)}",
            "pass reference loop CPU ms (mean): " + ", ".join(
                f"{hostspeed.NOMINAL_NS / pass_scale(p) / 1e6:.3f}"
                for p in passes if p.mission_ns),
            "pass CPU s: " + ", ".join(f"{p.cpu_ns / 1e9:.3f}"
                                       for p in passes),
            "pass wall s: " + ", ".join(f"{p.wall_ns / 1e9:.3f}"
                                        for p in passes),
            "wall_s (median pass wall time, not gated): "
            f"{statistics.median(p.wall_ns for p in passes) / 1e9:.6f}",
            f"missions timed: {sum(len(p.mission_ns) for p in passes)}",
        ]
        report(args, env, warmup + passes, metrics, absent, notes)
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs made from the seed, one timed pass
each, and the checks every pass applies to the program's outputs.

Each workload is closed loop and single-threaded: one mission after the
other, the next starting when the previous one returned.  The timed
region of a pass covers only calls into the package; output checks run
between those calls.  A workload's first `warmup_passes` passes are
checked like every other but not timed.

Times are kept as wall time and as CPU time; the gated metrics use CPU
time scaled to normalised time, mission by mission (see hostspeed.py).
"""

import hashlib
import io
import json
import random
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from fuzz import KINDS, corpus, protocol_problems
from hostspeed import cpu_ns, normalised

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# End state of each bundled deck, as the README's deck table gives it:
# (outcome, SafeHold reason or "-", CLI exit code).
DECK_EXPECTED = {
    "altair_nominal": ("DeployedInWindow", "-", 0),
    "altair_link_break": ("SafeHold", "pushes-exhausted", 2),
    "altair_gear_slip": ("SafeHold", "pushes-exhausted", 2),
    "altair_friction3x": ("SafeHold", "push-timeout", 2),
    "altair_battery_fail": ("SafeHold", "battery-failure", 2),
    "altair_door_jam": ("SafeHold", "door-timeout", 2),
}
DECK_FILES = ("telemetry.csv", "commands.csv")
# Seeds whose output digests are frozen in goldens.json.
FROZEN_SEEDS = (42, 7)

# The run_mission bindings that the CLI, the sweep and library callers
# look up.  The probe on them is one wrapper call per mission.
RUN_MISSION_TARGETS = (("deploysim", "run_mission"),
                       ("deploysim.mission", "run_mission"),
                       ("deploysim.cli", "run_mission"))


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class MissionProbe:
    """Times every run_mission call in CPU time and counts its ticks.

    With `reference`, each call also runs the host-speed reference loop
    on both sides and records in `scales` the factor that turns the
    call's CPU time into normalised time (see hostspeed.py).  Every call
    falls inside a pass's timed region; the probe's own CPU time, which
    the pass must leave out, adds up in `overhead_ns`.  Results wait in `results` until the workload has
    checked them and clears the list, so a pass never holds more of them
    than it needs.
    """

    def __init__(self, reference: bool = True) -> None:
        self.reference = reference
        self.clear()

    def clear(self) -> None:
        self.cpu_ns: list[int] = []
        self.scales: list[float] = []
        self.ticks: list[int] = []
        self.results: list = []
        self.overhead_ns = 0

    def wrap(self, run_mission):
        def probed(*args, **kwargs):
            entered = cpu_ns()
            call = lambda: run_mission(*args, **kwargs)  # noqa: E731
            if self.reference:
                result, elapsed, scale = normalised(call)
            else:
                start = cpu_ns()
                result = call()
                elapsed, scale = cpu_ns() - start, 1.0
            self.cpu_ns.append(elapsed)
            self.scales.append(scale)
            scenario = args[0] if args else kwargs["scenario"]
            stop = (args[1] if len(args) > 1
                    else kwargs.get("stop_at_verdict", False))
            self.ticks.append(mission_ticks(scenario, stop, result))
            self.results.append(result)
            self.overhead_ns += cpu_ns() - entered - elapsed
            return result

        return probed


def mission_ticks(scenario, stop_at_verdict: bool, result) -> int:
    """Ticks the mission loop ran, read back from the mission's events.

    The loop ends after the tick on which the payload lands, the vehicle
    lands with the payload aboard, or (with stop_at_verdict) the payload
    is ejected or SafeHold is entered; otherwise at max_sim_time.
    Events carry the time of their tick, except the vehicle's, which are
    stamped after that tick's vehicle step.
    """
    dt = scenario.dt
    first = {}
    for event in result.events:
        first.setdefault(event.name, event.time)
    ends = [round(scenario.max_sim_time / dt)]
    if "payload_landed" in first:
        ends.append(round(first["payload_landed"] / dt) + 1)
    if "vehicle_landed" in first and "ejected" not in first:
        ends.append(round(first["vehicle_landed"] / dt))
    if stop_at_verdict:
        for name in ("ejected", "safe_hold"):
            if name in first:
                ends.append(round(first[name] / dt) + 1)
    return min(ends)


@dataclass
class PassOutcome:
    """What one pass did and whether its outputs were right."""

    key: int                    # seed flown; equal keys must agree exactly
    missions: int = 0
    wall_ns: int = 0            # host time inside calls into the package
    cpu_ns: int = 0             # CPU time of the same calls
    failed: set = field(default_factory=set)       # failed mission indices
    problems: list = field(default_factory=list)
    pass_problems: list = field(default_factory=list)  # fail every mission
    telemetry_rows: int = 0
    telemetry_bytes: int = 0
    render_bytes: int = 0       # CSV bytes the CLI rendered
    digest: str = ""            # SHA-256 over every output of the pass

    def fail(self, mission: int, problem: str) -> None:
        self.failed.add(mission)
        self.problems.append(problem)

    @property
    def failed_count(self) -> int:
        return self.missions if self.pass_problems else len(self.failed)

    @contextmanager
    def timed(self):
        """Add the wall and CPU time of the block, if it completes."""
        wall, cpu = perf_counter_ns(), cpu_ns()
        yield
        self.cpu_ns += cpu_ns() - cpu
        self.wall_ns += perf_counter_ns() - wall


def _account_result(ds, outcome: PassOutcome, digest, result) -> None:
    """Fold one in-memory mission result into the pass digest and counts."""
    telemetry = ds.render_telemetry_csv(result.telemetry).encode()
    commands = ds.render_commands_csv(result.commands).encode()
    digest.update(hashlib.sha256(telemetry).digest())
    digest.update(hashlib.sha256(commands).digest())
    digest.update(repr(result.verdict).encode())
    outcome.telemetry_rows += len(result.telemetry)
    outcome.telemetry_bytes += len(telemetry)


def deck_problems(deck: str, seed: int, files: dict, exit_code: int,
                  printed: str, goldens: dict) -> list[str]:
    """Check one `deploysim run` of a bundled deck from its output files.

    `files` maps telemetry.csv, commands.csv and verdict.txt to their
    bytes.  At the frozen seeds both CSV files must match their digests.
    """
    problems = []
    verdict_text = files["verdict.txt"].decode()
    verdict = dict(line.split("=", 1) for line in verdict_text.splitlines())
    outcome, reason, code = DECK_EXPECTED[deck]
    got = (verdict.get("outcome"), verdict.get("safe_hold_reason"))
    if got != (outcome, reason):
        problems.append(f"{deck}: {got[0]}({got[1]}), expected "
                        f"{outcome}({reason})")
    if exit_code != code:
        problems.append(f"{deck}: exit code {exit_code}, expected {code}")
    if printed != verdict_text:
        problems.append(f"{deck}: stdout differs from verdict.txt")
    frozen = goldens.get(deck, {}).get(str(seed))
    if seed in FROZEN_SEEDS and frozen is None:
        problems.append(f"{deck}: no frozen digests for seed {seed}")
    for name in DECK_FILES if frozen else ():
        if hashlib.sha256(files[name]).hexdigest() != frozen[name]:
            problems.append(f"{deck}: {name} at seed {seed} differs from "
                            "its frozen digest")
    return problems


class DecksFull:
    """All six bundled decks flown to the end through `deploysim run`.

    The two warm-up passes fly every deck at seeds 42 and 7, so each run
    checks the frozen digests; the timed passes fly the run's seed.
    """

    name = "decks_full"
    warmup_passes = len(FROZEN_SEEDS)

    def __init__(self, seed: int, out_dir: Path, goldens: dict) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.goldens = goldens

    def setup(self, ds) -> None:
        for deck in DECK_EXPECTED:
            ds.scenario_with(ds.bundled_scenario(deck), {"sim.seed": self.seed})

    def pass_key(self, index: int) -> int:
        return FROZEN_SEEDS[index] if index < self.warmup_passes else self.seed

    def run_pass(self, ds, index: int, probe: MissionProbe) -> PassOutcome:
        seed = self.pass_key(index)
        outcome = PassOutcome(key=seed)
        digest = hashlib.sha256()
        for mission, deck in enumerate(DECK_EXPECTED):
            out = self.out_dir / deck
            argv = ["run", "--scenario", deck, "--seed", str(seed),
                    "--out", str(out)]
            printed = io.StringIO()
            outcome.missions += 1
            try:
                with redirect_stdout(printed), outcome.timed():
                    code = ds.cli.main(argv)
                files = {name: (out / name).read_bytes()
                         for name in DECK_FILES + ("verdict.txt",)}
            except Exception as exc:  # a crash fails the mission, not the run
                outcome.fail(mission, f"{deck}: {type(exc).__name__}: {exc}")
                continue
            for problem in deck_problems(deck, seed, files, code,
                                         printed.getvalue(), self.goldens):
                outcome.fail(mission, problem)
            for name in DECK_FILES:
                digest.update(hashlib.sha256(files[name]).digest())
            telemetry = files["telemetry.csv"]
            outcome.telemetry_rows += telemetry.count(b"\n") - 2
            outcome.telemetry_bytes += len(telemetry)
            outcome.render_bytes += len(telemetry) + len(files["commands.csv"])
            probe.results.clear()
        outcome.digest = digest.hexdigest()
        return outcome


class MassSweep:
    """`deploysim.sweep` over payload masses on both sides of the sizing
    limit, in shuffled order.

    Masses keep 0.5 kg away from the limit (13.909 kg), so rounding at
    the boundary cannot decide an outcome.  Each side is cut into equal
    strata with one random mass in each: the mass sets the flight, so
    this keeps the work of a pass nearly the same for every seed.
    """

    name = "mass_sweep"
    warmup_passes = 1
    swept = "payload.mass"
    sides = ((1.0, 13.4), (14.4, 20.0))    # kg, below and above the limit
    per_side = 5

    def __init__(self, seed: int, out_dir: Path, goldens: dict) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.grid = []
        for low, high in self.sides:
            width = (high - low) / self.per_side
            self.grid += [round(low + width * (k + rng.random()), 3)
                          for k in range(self.per_side)]
        rng.shuffle(self.grid)

    def setup(self, ds) -> None:
        self.base = ds.scenario_with(ds.bundled_scenario("altair_nominal"),
                                     {"sim.seed": self.seed})
        self.limit = ds.sizing_report(self.base.mechanism).max_payload_mass
        for mass in self.grid:
            ds.scenario_with(self.base, {self.swept: mass})

    def pass_key(self, index: int) -> int:
        return self.seed

    def run_pass(self, ds, index: int, probe: MissionProbe) -> PassOutcome:
        outcome = PassOutcome(key=self.seed, missions=len(self.grid))
        try:
            with outcome.timed():
                table = ds.sweep(self.base, self.swept, self.grid)
        except Exception as exc:
            outcome.pass_problems.append(f"sweep: {type(exc).__name__}: {exc}")
            return outcome
        if [value for value, _ in table] != self.grid:
            outcome.pass_problems.append("sweep rows out of input order")
        digest = hashlib.sha256()
        for mission, (mass, verdict) in enumerate(table):
            expected = ("DeployedInWindow" if mass <= self.limit
                        else "SafeHold")
            if verdict.outcome.value != expected:
                outcome.fail(mission, f"{mass} kg -> {verdict.outcome.value},"
                                      f" expected {expected}")
            digest.update(repr((mass, verdict)).encode())
        for result in probe.results:
            _account_result(ds, outcome, digest, result)
        probe.results.clear()
        outcome.digest = digest.hexdigest()
        return outcome


class FuzzCorpus:
    """Randomized profiles (see fuzz.py) flown to the end at dt = 10 ms
    through `build_scenario` and `run_mission`.

    The corpus is large so that its total work and its median mission
    change little from seed to seed; the warm-up pass flies only its
    first rotation of profile kinds, with every per-profile check.
    """

    name = "fuzz_corpus"
    warmup_passes = 1
    size = 10 * len(KINDS)
    min_hold_reasons = 3

    def __init__(self, seed: int, out_dir: Path, goldens: dict) -> None:
        self.seed = seed
        self.profiles = corpus(seed, self.size)

    def setup(self, ds) -> None:
        for overrides in self.profiles:
            ds.build_scenario(overrides)

    def pass_key(self, index: int) -> int:
        return self.seed

    def run_pass(self, ds, index: int, probe: MissionProbe) -> PassOutcome:
        outcome = PassOutcome(key=self.seed)
        digest = hashlib.sha256()
        deployed_in_window = ds.Outcome.DEPLOYED_IN_WINDOW
        deployed = 0
        reasons = set()
        profiles = (self.profiles if index >= self.warmup_passes
                    else self.profiles[:len(KINDS)])
        for mission, overrides in enumerate(profiles):
            outcome.missions += 1
            try:
                with outcome.timed():
                    scenario = ds.build_scenario(overrides)
                    result = ds.run_mission(scenario)
            except Exception as exc:
                outcome.fail(mission, f"profile {mission}: "
                                      f"{type(exc).__name__}: {exc}")
                continue
            for problem in protocol_problems(scenario, result,
                                             deployed_in_window):
                outcome.fail(mission, f"profile {mission}: {problem}")
            deployed += result.verdict.outcome is deployed_in_window
            if result.verdict.safe_hold_reason:
                reasons.add(result.verdict.safe_hold_reason)
            _account_result(ds, outcome, digest, result)
            probe.results.clear()
        # What the corpus as a whole must exercise; the warm-up's single
        # rotation of kinds need not.
        if profiles is self.profiles and not deployed:
            outcome.pass_problems.append("no profile deployed")
        if profiles is self.profiles and len(reasons) < self.min_hold_reasons:
            outcome.pass_problems.append(
                f"only hold reasons {sorted(reasons)} exercised")
        outcome.digest = digest.hexdigest()
        return outcome


WORKLOADS = {cls.name: cls for cls in (DecksFull, MassSweep, FuzzCorpus)}

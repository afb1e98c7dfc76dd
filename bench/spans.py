"""Outside-in span tracer for the deploysim benchmark.

The tracer replaces the public names that the mission loop, the sweep
and the CLI look up at run time with timing wrappers, and puts the
originals back when the `installed()` block ends, also on exceptions.
No file of the package is changed.  A hook whose target no longer
exists (a later refactor renamed or removed it) is reported as absent
with a reason instead of failing the run.

Each wrapper is a span.  Spans nest on one stack, so a span's self time
is its duration minus the durations of the spans it called; summed over
all spans, self times add up exactly to the time of the outermost spans.
"""

import copy
import importlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from time import perf_counter_ns


def _emitted(args, result):
    return result is not None


def _command_count(args, result):
    return len(result)


def _stalled(args, result):
    return bool(result[0].stalled)


def _rows(args, result):
    return len(args[0])


def _values(args, result):
    return len(args[2])


@dataclass(frozen=True)
class Hook:
    """One span: where to install it and what to count per call.

    `targets` are (owner, attribute) pairs; an owner is a module path,
    or `module:Class` for a method.  `count(args, result)` adds to the
    span's `extra` counter.
    """

    span: str
    targets: tuple
    count: object = None


# Every public name `deploysim.mission` calls per tick or per mission,
# bound where the caller looks it up, plus the per-run entry points.
HOOKS = (
    Hook("cli.main", (("deploysim.cli", "main"),)),
    Hook("mission.sweep", (("deploysim", "sweep"),), _values),
    Hook("mission.run", (("deploysim", "run_mission"),
                         ("deploysim.mission", "run_mission"),
                         ("deploysim.cli", "run_mission"))),
    Hook("mission.render", (("deploysim.cli", "render_telemetry_csv"),
                            ("deploysim.cli", "render_commands_csv")), _rows),
    Hook("scenario.with", (("deploysim.mission", "scenario_with"),
                           ("deploysim.cli", "scenario_with"))),
    Hook("scenario.bundled", (("deploysim.cli", "bundled_scenario"),)),
    Hook("scenario.build", (("deploysim", "build_scenario"),
                            ("deploysim.scenario", "build_scenario"))),
    Hook("atmosphere.baro_sample",
         (("deploysim.atmosphere:Barometer", "sample"),), _emitted),
    Hook("atmosphere.density", (("deploysim.flight", "density_at_altitude"),)),
    Hook("controller.due_at_tick",
         (("deploysim.controller:TaskSchedule", "due_at_tick"),)),
    Hook("controller.tasks",
         (("deploysim.controller:DeploymentController", "task_sense"),
          ("deploysim.controller:DeploymentController", "task_estimate"))),
    Hook("controller.update_phase",
         (("deploysim.controller:DeploymentController", "update_phase"),),
         _command_count),
    Hook("controller.telemetry_record",
         (("deploysim.mission", "make_telemetry_record"),)),
    Hook("actuation.step_carrier", (("deploysim.mission", "step_carrier"),),
         _stalled),
    Hook("actuation.drain_battery", (("deploysim.mission", "drain_battery"),)),
    Hook("actuation.door", (("deploysim.mission", "command_unlock"),
                            ("deploysim.mission", "step_door"))),
    Hook("actuation.carrier_control", (("deploysim.mission", "begin_push"),
                                       ("deploysim.mission", "halt_carrier"))),
    Hook("mechanism.required_acceleration",
         (("deploysim.actuation", "required_acceleration"),)),
    Hook("mechanism.tangential_force",
         (("deploysim.actuation", "tangential_force"),)),
    Hook("flight.step_vehicle", (("deploysim.mission", "step_vehicle"),)),
    Hook("flight.step_payload", (("deploysim.mission", "step_payload"),)),
    Hook("flight.setup", (("deploysim.mission", "initial_state"),
                          ("deploysim.mission", "release_payload"))),
)

LAYERS = ("scenario", "flight", "atmosphere", "controller", "actuation",
          "mechanism", "mission", "cli")


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"cannot import {module_name}: {exc}") from None
    if not class_name:
        return module
    cls = getattr(module, class_name, None)
    if cls is None:
        raise LookupError(f"{module_name} has no class {class_name}")
    return cls


@contextmanager
def patched(targets, wrap):
    """Replace each existing (owner, attribute) target with `wrap(original)`.

    Yields the reasons for the targets that do not exist.  Every
    replaced attribute is restored on exit, also on exceptions.
    """
    restore = []
    missing = []
    try:
        for owner_name, attr in targets:
            try:
                owner = _resolve_owner(owner_name)
            except LookupError as exc:
                missing.append(str(exc))
                continue
            if attr not in vars(owner):
                missing.append(f"{owner_name} has no attribute {attr}")
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, wrap(original))
            restore.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


class SpanStats:
    """Counters of one span, summed over every call since the last reset."""

    __slots__ = ("calls", "total_ns", "self_ns", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.extra = 0

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        self.extra += other.extra


class Tracer:
    """Span accumulators plus the hook table that feeds them."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self.stats = {hook.span: SpanStats() for hook in hooks}
        self.absent: dict[str, str] = {}
        self.partial: dict[str, str] = {}
        # Children time of each open span; slot 0 is the untraced caller.
        self._stack = [0]

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.__init__()
        self._stack[:] = [0]

    def snapshot(self) -> dict:
        return {span: copy.copy(stats) for span, stats in self.stats.items()}

    def top_level_ns(self) -> int:
        """Time spent inside outermost spans since the last reset."""
        return self._stack[0]

    def _wrap(self, fn, stats: SpanStats, count):
        stack = self._stack
        clock = perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children
            if count is not None:
                stats.extra += count(args, result)
            return result

        span.__wrapped__ = fn
        return span

    @contextmanager
    def installed(self):
        """Install every hook target that exists; restore all on exit.

        A span none of whose targets exists is recorded in `absent`; a
        span that lost only some of its targets is recorded in
        `partial`.
        """
        self.absent.clear()
        self.partial.clear()
        with ExitStack() as stack:
            for hook in self.hooks:
                stats = self.stats[hook.span]
                missing = stack.enter_context(patched(
                    hook.targets,
                    lambda fn, stats=stats, count=hook.count:
                        self._wrap(fn, stats, count)))
                if len(missing) == len(hook.targets):
                    self.absent[hook.span] = "; ".join(missing)
                elif missing:
                    self.partial[hook.span] = "; ".join(missing)
            yield self

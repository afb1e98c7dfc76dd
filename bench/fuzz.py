"""Seeded mission profiles for the `fuzz_corpus` workload and the
protocol properties every flown profile must satisfy.

The profiles follow the recipe of the randomized acceptance corpus:
random vehicles and windows at dt = 10 ms, heavy payloads beyond the
sizing limit, windows above the vehicle's reach and every kind of
injected fault.  The kinds are dealt in a fixed rotation, so any corpus
of at least `len(KINDS)` profiles holds every kind, whatever the seed.
"""

import random

# One entry per profile slot, repeated over the corpus.  "plain" takes
# the largest share, as nominal flights do in the acceptance corpus.
KINDS = ("plain", "heavy", "plain", "above_reach", "door_jam", "plain",
         "gear_slip", "link_break", "plain", "friction", "battery_fail")

DT = 0.01
MAX_SIM_TIME = 300.0
SETTLE_MIN_S = 2.0      # controller settle dwell after the door opens
SETTLE_MAX_S = 2.010    # ... plus one deploy-logic period
MAX_PUSHES = 3


# Uniform draws per profile.  Each draw is stratified (a Latin hypercube)
# over the profiles of one kind, so every seed's corpus covers each
# parameter range evenly for every kind and the total work of a corpus
# varies little from seed to seed.
DRAWS = 16


def unit_draws(seed: int, size: int) -> list[list[float]]:
    """`size` rows of DRAWS numbers in [0, 1), one row per profile."""
    rng = random.Random(seed)
    slots = {}
    for index in range(size):
        slots.setdefault(KINDS[index % len(KINDS)], []).append(index)
    rows = [None] * size
    for indices in slots.values():
        columns = []
        for _ in range(DRAWS):
            strata = list(range(len(indices)))
            rng.shuffle(strata)
            columns.append([(stratum + rng.random()) / len(indices)
                            for stratum in strata])
        for index, row in zip(indices, zip(*columns)):
            rows[index] = list(row)
    return rows


def _between(u: float, low: float, high: float) -> float:
    return low + (high - low) * u


def profile_overrides(index: int, draws: list[float]) -> dict:
    """Scenario overrides of profile `index` from its unit draws."""
    u = iter(draws)
    kind = KINDS[index % len(KINDS)]
    payload = (_between(next(u), 14.5, 20.0) if kind == "heavy"
               else _between(next(u), 0.5, 3.0))
    dry = _between(next(u), 15.0, 30.0)
    propellant = _between(next(u), 2.0, 8.0)
    stack = dry + propellant + payload
    thrust = _between(next(u), 4.0, 7.0) * stack * 9.81
    burn = _between(next(u), 2.0, 3.5)
    accel = thrust / (stack - 0.5 * propellant) - 9.81
    burnout_speed = accel * burn
    # Drag-free apogee, derated for drag.
    reach = 0.72 * (0.5 * accel * burn ** 2 + burnout_speed ** 2 / 19.62)
    ceiling_u, floor_u, fault_u = next(u), next(u), next(u)
    if kind == "above_reach":
        ceiling = 1.6 * reach
        floor = 1.25 * reach
    else:
        ceiling = _between(ceiling_u, 0.30, 0.65) * reach
        floor = max(50.0, ceiling * _between(floor_u, 0.4, 0.65))
    overrides = {
        "vehicle.dry_mass": dry,
        "vehicle.propellant_mass": propellant,
        "vehicle.avg_thrust": thrust,
        "vehicle.burn_time": burn,
        "vehicle.drag_area_coast": _between(next(u), 0.004, 0.012),
        "vehicle.drogue_drag_area": _between(next(u), 0.6, 1.6),
        "payload.mass": payload,
        "payload.parachute_drag_area": _between(next(u), 0.2, 0.8),
        "payload.parachute_open_altitude_loss": _between(next(u), 20.0, 80.0),
        "trigger.deploy_ceiling": ceiling,
        "trigger.deploy_floor": floor,
        "barometer.noise_sigma": (0.0 if index % 2 == 0
                                  else _between(next(u), 1.0, 5.0)),
        "sim.dt": DT,
        "sim.seed": int(next(u) * 2 ** 31),
        "sim.max_sim_time": MAX_SIM_TIME,
    }
    if kind == "door_jam":
        overrides["faults.door_jam"] = True
    elif kind == "gear_slip":
        overrides["faults.gear_slip_push"] = 1 + int(fault_u * 3)
    elif kind == "link_break":
        overrides["faults.link_break_force"] = _between(fault_u, 2.0, 8.0)
    elif kind == "friction":
        overrides["faults.surface_friction_scale"] = 2.0 if fault_u < 0.5 else 3.0
    elif kind == "battery_fail":
        overrides["faults.battery_fail_time"] = _between(fault_u, 15.0, 90.0)
    return overrides


def corpus(seed: int, size: int) -> list[dict]:
    """The `size` profiles of the corpus of `seed`."""
    return [profile_overrides(index, draws)
            for index, draws in enumerate(unit_draws(seed, size))]


def protocol_problems(scenario, result, deployed_in_window) -> list[str]:
    """Deployment-protocol properties of one flown mission.

    `deployed_in_window` is the package's `Outcome.DEPLOYED_IN_WINDOW`.
    """
    problems = []
    commands = result.commands
    unlocks = [c for c in commands if c.name == "unlock"]
    pushes = [c for c in commands if c.name == "push"]
    first = {}
    for event in result.events:
        first.setdefault(event.name, event.time)

    if len(unlocks) > 1:
        problems.append(f"{len(unlocks)} unlock commands")
    if len(pushes) > MAX_PUSHES:
        problems.append(f"{len(pushes)} push commands")
    hold = first.get("safe_hold")
    if hold is not None:
        if any(c.time > hold for c in commands):
            problems.append("command after SafeHold")
        if first.get("ejected", -1.0) > hold:
            problems.append("ejection after SafeHold")
    if pushes:
        opened = first.get("door_open")
        if opened is None:
            problems.append("push before the door opened")
        else:
            delay = pushes[0].time - opened
            if not SETTLE_MIN_S - 1e-9 <= delay <= SETTLE_MAX_S + 1e-9:
                problems.append(f"settle delay {delay:.4f} s")
    verdict = result.verdict
    if verdict.outcome is deployed_in_window:
        trigger = scenario.trigger
        high = trigger.deploy_ceiling + trigger.window_allowance
        if not trigger.deploy_floor <= verdict.deploy_altitude_truth <= high:
            problems.append("in-window verdict with out-of-window truth "
                            f"{verdict.deploy_altitude_truth!r} m")
    return problems

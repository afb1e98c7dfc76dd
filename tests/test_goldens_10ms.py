"""Frozen output digests at dt = 10 ms, seed 42.

The digests in `test_goldens.py` pin 1 ms runs only.  At 10 ms the
barometer emits on every other tick, so its inverse formula and the
controller tasks weigh far more per tick than at 1 ms; these three
decks (a deployment, a stalled carrier, a jammed door) guard those
paths byte for byte.  The digests were frozen from an earlier tree.
"""

import hashlib

import pytest

from deploysim import (bundled_scenario, render_commands_csv,
                       render_telemetry_csv, run_mission, scenario_with)

DIGESTS = {
    "altair_nominal": {
        "telemetry.csv":
            "1667e1906a9370d3f2e181cd08ccb4cb90d76c810fb9233900845cbd40d2cc9f",
        "commands.csv":
            "8447529422b913a66bd9d130aaa0db9a5bf9a7d620e586e5bab146aabb57b8ca",
    },
    "altair_friction3x": {
        "telemetry.csv":
            "d182ca006ac7d72312fcb988957836d677c5e08e889f5894ec35c3b25bd99198",
        "commands.csv":
            "70737bbf1aae19d86d13e060e1ea95fbcc5953422ef6ca2f3623dc149f9ffe9e",
    },
    "altair_door_jam": {
        "telemetry.csv":
            "ed0873a36cde3356709a6dd40ddfdbc549cfd16eb3d7e666adea92153492e2ce",
        "commands.csv":
            "2460f86cbd3f407a8714d534318f9c582706ef000fb1950b308f736a09b2039c",
    },
}


@pytest.mark.parametrize("deck", sorted(DIGESTS))
def test_output_at_10_ms_matches_frozen_digest(deck):
    scenario = scenario_with(bundled_scenario(deck),
                             {"sim.dt": 0.01, "sim.seed": 42})
    result = run_mission(scenario)
    rendered = {"telemetry.csv": render_telemetry_csv(result.telemetry),
                "commands.csv": render_commands_csv(result.commands)}
    for name, text in rendered.items():
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == DIGESTS[deck][name], name

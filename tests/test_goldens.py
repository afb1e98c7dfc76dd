"""Frozen output digests: every bundled deck at two seeds, byte for byte.

C7 only compares two runs of the same tree with each other, so a change
that shifts one float the same way on every run would still pass it.
These digests were frozen from an earlier tree; a change to the
simulation or to the CSV rendering that alters any output byte fails
here.  The digests live with the benchmark, which checks them too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from deploysim import list_bundled
from deploysim.cli import main

GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "goldens.json")
    .read_text(encoding="utf-8"))
SEEDS = (42, 7)
FILES = ("telemetry.csv", "commands.csv")


def test_every_bundled_deck_is_frozen():
    assert sorted(GOLDENS) == sorted(list_bundled())
    for deck in GOLDENS:
        assert sorted(GOLDENS[deck]) == sorted(str(s) for s in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("deck", sorted(GOLDENS))
def test_output_matches_frozen_digest(deck, seed, tmp_path, capsys):
    main(["run", "--scenario", deck, "--seed", str(seed),
          "--out", str(tmp_path)])
    capsys.readouterr()
    for name in FILES:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == GOLDENS[deck][str(seed)][name], name

"""The rests and the deploy-logic gate against their references.

    PYTHONPATH=src python tests/rest_differential.py 400

Flies `oracles.rest_scenario(k)` for k = 0 .. N-1 with `run_mission`,
with `oracles.reference_run`, which runs every tick as its own pass, and
with `oracles.live_run`, which runs deploy logic on every logic tick,
and compares their `oracles.mission_outputs` byte for byte.  Gate C12
runs the first 20 against `reference_run`, and `test_mission` the first
40 against `live_run`; this runs as many as asked.  It needs only the
package and the standard library, not pytest.  Prints each scenario whose
outputs differ and exits 1 if any does.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from deploysim import run_mission  # noqa: E402
from oracles import (OUTPUT_FIELDS, live_run, mission_outputs,  # noqa: E402
                     reference_run, rest_scenario)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", type=int,
                        help="how many scenarios to fly, from k = 0")
    count = parser.parse_args(argv).count
    differing = 0
    for k in range(count):
        scenario = rest_scenario(k)
        package = mission_outputs(run_mission(scenario))
        differ = []
        for reference in (reference_run, live_run):
            outputs = mission_outputs(reference(scenario))
            differ += [f"{field} ({reference.__name__})" for field, got, want
                       in zip(OUTPUT_FIELDS, package, outputs) if got != want]
        if differ:
            differing += 1
            print(f"rest scenario {k}: {', '.join(differ)} differ")
    print(f"{count - differing} of {count} rest scenarios byte-equal")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

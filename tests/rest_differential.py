"""The shortcuts of the tick loop against their references.

    PYTHONPATH=src python tests/rest_differential.py 400

Runs `oracles.differential` (the package against `reference_run` and
`live_run`) on each mission of `oracles.DIFFERENTIAL_MISSIONS`, as gate
C12 does, then on `oracles.rest_scenario(k)` for each k = 0 .. N-1 that
the table does not hold.  It needs only the package and the standard
library, not pytest.  Prints each mission that differs and exits 1 if
any does.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import (DIFFERENTIAL_MISSIONS, differential,  # noqa: E402
                     rest_scenario)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", type=int,
                        help="how many rest scenarios to fly, from k = 0")
    count = parser.parse_args(argv).count
    missions = dict(DIFFERENTIAL_MISSIONS)
    for k in range(count):
        if f"rest scenario {k}" not in missions:
            missions[f"rest scenario {k}"] = rest_scenario(k)
    differing = 0
    for name, scenario in missions.items():
        differ = differential(scenario)
        if differ:
            differing += 1
            print(f"{name}: {', '.join(differ)} differ")
    print(f"{len(missions) - differing} of {len(missions)} missions "
          f"byte-equal")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

"""Microbenchmark of the geodesic field (layers L1 and L3): one call of the
Zoll right-hand side V1 and one first return on the round sphere.

    python3 bench/zoll_micro.py

Imports engellab from the ``src/`` next to this directory, so the same file
copied into another checkout measures that checkout.  The right-hand side is
``SphereAtlas.field("north")`` called at a fixed state, as the integrator
calls it; the return starts at chart point (0.4, -0.3) with fiber angle 1.1
and integrates at tol 1e-10.  Each item is timed like ``jets_micro.py``: 11
samples of a batch sized to take about 50 ms, median and quartiles of the
time per call in microseconds.  A separate, untimed return counts the field
evaluations it makes.
"""

import json
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jets_micro import SAMPLES, per_call_us  # noqa: E402

from engellab.zoll import SphereAtlas, first_return  # noqa: E402

STATE = np.array([0.4, -0.3, 1.1])
TOL = 1e-10


class CountingAtlas(SphereAtlas):
    """The sphere atlas with a count of geodesic-field evaluations."""

    evals = 0

    def field(self, chart):
        X = super().field(chart)

        def counted(state):
            self.evals += 1
            return X(state)

        return counted


def main():
    atlas = SphereAtlas()
    X = atlas.field("north")
    items = {"v1_rhs_call": per_call_us(lambda: X(STATE)),
             "first_return_sphere": per_call_us(
                 lambda: first_return(atlas, STATE.copy(), "north", tol=TOL))}
    counting = CountingAtlas()
    returned, arclength, defect, _, _ = first_return(counting, STATE.copy(), "north", tol=TOL)
    print(json.dumps({"python": platform.python_version(), "samples": SAMPLES, "tol": TOL,
                      "items": items,
                      "first_return": {"returned": returned, "arclength": arclength,
                                       "defect": defect, "field_evals": counting.evals}},
                     indent=1, sort_keys=True))


if __name__ == "__main__":
    main()

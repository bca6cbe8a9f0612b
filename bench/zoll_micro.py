"""Microbenchmark of the trajectory layer (L3, with the L1 field call under
it): one call of the Zoll right-hand side V1, one first return on the round
sphere, one full-circle slice transport and one development angle.  The
printed JSON holds the L3 rows of the ROADMAP baseline table.

    python3 bench/zoll_micro.py

Imports engellab from the ``src/`` next to this directory, so the same file
copied into another checkout measures that checkout.

- ``v1_rhs_call``: ``SphereAtlas.field("north")`` called at a fixed state,
  as the integrator calls it.
- ``first_return_sphere``: the return from chart point (0.4, -0.3) with
  fiber angle 1.1 at tol 1e-10.
- ``slice_transport_full_circle``: the full-circle Poincare return of the
  standard prolongation from m = (0.2, -0.1, 0.3) on the bottom slice, at
  tol 1e-11 (acceptance criterion 7's call).
- ``development_angle``: the developed angle at q = (0.1, -0.2, 0.3, 1.0)
  on the standard prolongation, at tol 1e-11 (criterion 8's inclusion call).

Each item is timed like ``jets_micro.py``: 11 samples of a batch sized to
take about 50 ms, median and quartiles of the time per call in
microseconds.  Separate, untimed calls count the right-hand-side
evaluations of each trajectory item: geodesic-field evaluations for the
return, and evaluations of the variational right-hand side (state plus
transported vectors), event location included, for the other two.
"""

import json
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jets_micro import SAMPLES, per_call_us  # noqa: E402

from engellab import flow  # noqa: E402
from engellab.calculus import Chart  # noqa: E402
from engellab.expressions import vector_field_from_exprs  # noqa: E402
from engellab.prolongation import (ParallelizedContact, development_angle,  # noqa: E402
                                   prolong, slice_transport)
from engellab.zoll import SphereAtlas, first_return  # noqa: E402

STATE = np.array([0.4, -0.3, 1.1])
TOL = 1e-10
TRAJECTORY_TOL = 1e-11
M = np.array([0.2, -0.1, 0.3])
Q = np.array([0.1, -0.2, 0.3, 1.0])


class CountingAtlas(SphereAtlas):
    """The sphere atlas with a count of geodesic-field evaluations."""

    evals = 0

    def field(self, chart):
        X = super().field(chart)

        def counted(state):
            self.evals += 1
            return X(state)

        return counted


def rhs_evals(fn):
    """Call ``fn`` once and count the evaluations of the variational
    right-hand sides that ``flow`` builds meanwhile."""
    count = [0]
    build = flow._augmented_rhs

    def counting_build(*args):
        f = build(*args)

        def counted(t, y):
            count[0] += 1
            return f(t, y)

        return counted

    flow._augmented_rhs = counting_build
    try:
        fn()
    finally:
        flow._augmented_rhs = build
    return count[0]


def main():
    atlas = SphereAtlas()
    X = atlas.field("north")
    chart = Chart("standard_contact", ("x", "y", "z"))
    contact = ParallelizedContact(chart, vector_field_from_exprs(chart, ["0", "1", "0"]),
                                  vector_field_from_exprs(chart, ["1", "0", "y"]))
    full = prolong(contact, full_circle=True)
    bottom = full.theta_slice(0.0)
    std = prolong(contact)

    def transport():
        return slice_transport(full, bottom, bottom, M, tol=TRAJECTORY_TOL)

    def develop():
        return development_angle(std, Q, tol=TRAJECTORY_TOL)

    items = {"v1_rhs_call": per_call_us(lambda: X(STATE)),
             "first_return_sphere": per_call_us(
                 lambda: first_return(atlas, STATE.copy(), "north", tol=TOL)),
             "slice_transport_full_circle": per_call_us(transport),
             "development_angle": per_call_us(develop)}
    counting = CountingAtlas()
    returned, arclength, defect, _, _ = first_return(counting, STATE.copy(), "north", tol=TOL)
    res = transport()
    print(json.dumps({"python": platform.python_version(), "samples": SAMPLES, "tol": TOL,
                      "trajectory_tol": TRAJECTORY_TOL, "items": items,
                      "first_return": {"returned": returned, "arclength": arclength,
                                       "defect": defect, "field_evals": counting.evals},
                      "slice_transport_full_circle": {
                          "rhs_evals": rhs_evals(transport),
                          "return_point_error": float(np.max(np.abs(res.image - M))),
                          "crossing_time": res.crossing_time},
                      "development_angle": {
                          "rhs_evals": rhs_evals(develop),
                          "angle_error": abs(develop() - Q[3])}},
                     indent=1, sort_keys=True))


if __name__ == "__main__":
    main()

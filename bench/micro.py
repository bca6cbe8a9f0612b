"""Microbenchmark of the layers under the CLI suites: the L0-L3 rows of the
ROADMAP baseline table.

    python3 bench/micro.py

L0, the jet kernel: Jet mul, add and sin, ``jet_compose`` and ``jet_invert``
at 4 variables order 3 and 3 variables order 4, ``jet_pushforward`` of a
dense field at 3 variables order 4, and mul at order 0 and 1 in 3 variables.
Operands are dense random jets from a fixed seed; the change for compose,
invert and pushforward is an origin-preserving tuple with a diagonally
dominant linear part.  The batch product of two dense batch jets: 3
variables at orders 0, 1 and 2 over 3 rows (a stack of lanes), and 4
variables at order 2 over 200 rows (a flag batch).

L1, composite fields: the contact isotopy generator X of the ``realize``
suite (its default Hamiltonian and support) at order 0 on a three-lane
stack, the shape of the stacked integrations that dominate that suite.  Its
``counts`` are the field evaluations (``_FieldBase._evaluate`` calls) and the
Jet products (``Jet.__mul__`` and ``__rmul__`` with two jet operands) of the
first call of a new generator and of the second call, which may reuse what
the first recorded.

L2, pointwise geometry: ``flag_ranks`` at one point of the standard
prolongation and of the deformed frame of the ``realize`` suite (its default
Hamiltonian and support), the cost per point of one 200-point batch of that
deformed frame, and ``normalize_pair`` / ``verify`` on a random order-4 pair
of the ``normal-form`` suite.

L3, trajectories: one call of the Zoll right-hand side V1
(``SphereAtlas.field("north")`` at a fixed state) and one of its order-1
jets at that state (the jet path of brackets and of the Hamiltonian
alignment check), the first return on the round sphere from chart point
(0.4, -0.3) with fiber angle 1.1 at tol 1e-10, one arc of
``central_projection_check`` (its first arc at seed 1: 40 samples over
arclength 1.2 at tol 1e-11), the full-circle ``slice_transport`` of the
standard prolongation from m = (0.2, -0.1, 0.3) at tol 1e-11 (acceptance
criterion 7's call), and
``development_angle`` at q = (0.1, -0.2, 0.3, 1.0) at tol 1e-11 (criterion
8's inclusion call).

Each item is timed in 11 samples of a batch sized to take about 50 ms; the
JSON printed holds the median and quartiles of the time per call in
microseconds (per point for the batch item).  The ``counts`` block holds
untimed counts: the field evaluations (``_FieldBase.taylor`` calls) of one
deformed flag point, of the 200-point batch and of the arc, the
geodesic-field evaluations of the return, the evaluations of the
variational right-hand side (state plus transported vectors, event location
included) of the transport and the development, and the calls of the jet
product kernel ``jets._product`` in one ``normalize_pair`` and one
``verify``.  The timings cannot resolve a change at L0 below about 2x on a
shared machine; the counts are exact.

Imports engellab from the ``src/`` next to this directory and builds jets
only through ``Jet(n, order, {multi_index: value})``, so the same file copied
into another checkout measures that checkout.
"""

import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from engellab import calculus, cli, flow, jets  # noqa: E402
from engellab.deformation import ContactIsotopyGenerator, realize_isotopy  # noqa: E402
from engellab.distributions import flag_ranks  # noqa: E402
from engellab.expressions import scalar_field_from_expr  # noqa: E402
from engellab.jets import (Jet, jet_compose, jet_invert, jet_pushforward,  # noqa: E402
                           multi_indices)
from engellab.normal_form import normalize_pair  # noqa: E402
from engellab.prolongation import development_angle, prolong, slice_transport  # noqa: E402
from engellab.zoll import SphereAtlas, central_projection_check, first_return  # noqa: E402

SIZES = ((4, 3), (3, 4))
LOW_ORDERS = ((3, 0), (3, 1))
BATCH = 200
LANES = 3
BATCH_PRODUCTS = ((3, 0, LANES), (3, 1, LANES), (3, 2, LANES), (4, 2, BATCH))
REALIZE_H = "0.05*sin(x) + 0.04*z*cos(y) + 0.03*y"
REALIZE_SUPPORT = (0.25, 1.3)
STATE = np.array([0.4, -0.3, 1.1])
RETURN_TOL = 1e-10
ARC_SEED = 1
TRAJECTORY_TOL = 1e-11
M = np.array([0.2, -0.1, 0.3])
Q = np.array([0.1, -0.2, 0.3, 1.0])
SAMPLES = 11
SAMPLE_S = 0.05


def per_call_us(fn):
    reps, elapsed = 1, 0.0
    while elapsed < SAMPLE_S / 4:
        reps *= 2
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - t0
    reps = max(1, int(reps * SAMPLE_S / elapsed))
    samples = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps * 1e6)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "calls_per_sample": reps}


def taylor_calls(fn):
    """Field evaluations (``_FieldBase.taylor`` calls) made by ``fn()``."""
    orig, count = calculus._FieldBase.taylor, [0]

    def counting(self, point, order):
        count[0] += 1
        return orig(self, point, order)

    calculus._FieldBase.taylor = counting
    try:
        fn()
    finally:
        calculus._FieldBase.taylor = orig
    return count[0]


def rhs_evals(fn):
    """Call ``fn`` once and count the evaluations of the variational
    right-hand sides that ``flow`` builds meanwhile."""
    build, count = flow._augmented_rhs, [0]

    def counting_build(*args):
        f = build(*args)

        def counting(t, y):
            count[0] += 1
            return f(t, y)

        return counting

    flow._augmented_rhs = counting_build
    try:
        fn()
    finally:
        flow._augmented_rhs = build
    return count[0]


def kernel_products(fn):
    """Calls of the jet product kernel ``jets._product`` made by ``fn()``."""
    orig, count = jets._product, [0]

    def counting(*args):
        count[0] += 1
        return orig(*args)

    jets._product = counting
    try:
        fn()
    finally:
        jets._product = orig
    return count[0]


def evaluations_and_products(fn):
    """Field evaluations (``_FieldBase._evaluate`` calls) and products of two
    jets made by ``fn()``."""
    saved = {name: getattr(cls, name) for cls, name in (
        (calculus._FieldBase, "_evaluate"), (Jet, "__mul__"), (Jet, "__rmul__"))}
    count = {"evaluate": 0, "products": 0}

    def evaluate(self, coords, order):
        count["evaluate"] += 1
        return saved["_evaluate"](self, coords, order)

    def product(name):
        def counting(a, b):
            count["products"] += isinstance(b, Jet)
            return saved[name](a, b)
        return counting

    calculus._FieldBase._evaluate = evaluate
    Jet.__mul__, Jet.__rmul__ = product("__mul__"), product("__rmul__")
    try:
        fn()
    finally:
        calculus._FieldBase._evaluate = saved["_evaluate"]
        Jet.__mul__, Jet.__rmul__ = saved["__mul__"], saved["__rmul__"]
    return count["evaluate"], count["products"]


def dense_jet(rng, n, order, const):
    return Jet(n, order, {k: const if sum(k) == 0 else rng.uniform(-1.0, 1.0)
                          for k in multi_indices(n, order)})


def origin_change(rng, n, order):
    change = []
    for i in range(n):
        coeffs = {}
        for k in multi_indices(n, order):
            if sum(k) == 1:
                coeffs[k] = (3.0 if k[i] else 0.0) + rng.uniform(-1.0, 1.0)
            elif sum(k) >= 2:
                coeffs[k] = rng.uniform(-0.3, 0.3)
        change.append(Jet(n, order, coeffs))
    return change


def l0_items(items):
    rng = random.Random(4)
    for n, order in SIZES:
        a, b = dense_jet(rng, n, order, 0.7), dense_jet(rng, n, order, -0.4)
        outer, change = origin_change(rng, n, order), origin_change(rng, n, order)
        size = f"n{n}_o{order}"
        items[f"mul_{size}"] = per_call_us(lambda: a * b)
        items[f"add_{size}"] = per_call_us(lambda: a + b)
        items[f"sin_{size}"] = per_call_us(a.sin)
        items[f"compose_{size}"] = per_call_us(lambda: jet_compose(outer, change))
        items[f"invert_{size}"] = per_call_us(lambda: jet_invert(change))
        if (n, order) == (3, 4):
            # its own draws, so the other rows keep their operands
            field_rng = random.Random(5)
            field = [dense_jet(field_rng, n, order, 0.5) for _ in range(n)]
            items[f"pushforward_{size}"] = per_call_us(lambda: jet_pushforward(change, field))
    for n, order in LOW_ORDERS:
        a, b = dense_jet(rng, n, order, 0.7), dense_jet(rng, n, order, -0.4)
        items[f"mul_n{n}_o{order}"] = per_call_us(lambda: a * b)
    rows_rng = np.random.default_rng(4)
    for n, order, rows in BATCH_PRODUCTS:
        a, b = (Jet(n, order, {k: rows_rng.uniform(-1.0, 1.0, rows)
                               for k in multi_indices(n, order)}) for _ in range(2))
        items[f"mul_n{n}_o{order}_batch{rows}"] = per_call_us(lambda: a * b)


def realize_generator():
    domain = prolong(cli._base_contact({})[0])
    h = scalar_field_from_expr(domain.chart, REALIZE_H, name="h")
    return domain, ContactIsotopyGenerator(domain, h, REALIZE_SUPPORT)


def l1_items(items, counts):
    _, gen = realize_generator()
    rng = np.random.default_rng(4)
    stack = np.column_stack([rng.uniform(-0.5, 0.5, (LANES, 3)),
                             rng.uniform(*REALIZE_SUPPORT, LANES)]).T.copy()
    for call in ("", "_second_call"):
        evaluations, products = evaluations_and_products(lambda: gen.X(stack))
        counts[f"generator_x_{LANES}_lanes{call}_evaluations"] = evaluations
        counts[f"generator_x_{LANES}_lanes{call}_jet_products"] = products
    items[f"generator_x_{LANES}_lanes"] = per_call_us(lambda: gen.X(stack))


def l2_items(items, counts):
    domain, gen = realize_generator()
    deformed = realize_isotopy(domain, gen, validate=False).frame()
    pts = cli._domain_points(np.random.default_rng(4), BATCH, domain.theta_max)
    q = pts[0]
    items["flag_ranks_prolonged_point"] = per_call_us(lambda: flag_ranks(domain.frame(), q))
    items["flag_ranks_deformed_point"] = per_call_us(lambda: flag_ranks(deformed, q))
    batch = per_call_us(lambda: flag_ranks(deformed, pts))
    items[f"flag_ranks_deformed_batch{BATCH}_per_point"] = {
        k: v / BATCH if k.endswith("_us") else v for k, v in batch.items()}
    counts["taylor_deformed_point"] = taylor_calls(lambda: flag_ranks(deformed, q))
    counts[f"taylor_deformed_batch{BATCH}"] = taylor_calls(lambda: flag_ranks(deformed, pts))

    pair = cli._random_pair(np.random.default_rng(4))
    res = normalize_pair(pair)
    items["normalize_pair_o4"] = per_call_us(lambda: normalize_pair(pair))
    items["verify_o4"] = per_call_us(lambda: res.verify(pair))
    counts["normalize_pair_o4_kernel_products"] = kernel_products(lambda: normalize_pair(pair))
    counts["verify_o4_kernel_products"] = kernel_products(lambda: res.verify(pair))


class CountingAtlas(SphereAtlas):
    """The sphere atlas with a count of geodesic-field evaluations."""

    evals = 0

    def field(self, chart):
        X = super().field(chart)

        def counting(state):
            self.evals += 1
            return X(state)

        return counting


def l3_items(items, counts):
    atlas = SphereAtlas()
    X = atlas.field("north")
    contact = cli._base_contact({})[0]
    full = prolong(contact, full_circle=True)
    bottom = full.theta_slice(0.0)
    std = prolong(contact)

    def transport():
        return slice_transport(full, bottom, bottom, M, tol=TRAJECTORY_TOL)

    def develop():
        return development_angle(std, Q, tol=TRAJECTORY_TOL)

    def arc():
        return central_projection_check(n_geodesics=1, seed=ARC_SEED)

    items["v1_rhs_call"] = per_call_us(lambda: X(STATE))
    items["v1_jets_order1"] = per_call_us(lambda: X.taylor(STATE, 1))
    items["first_return_sphere"] = per_call_us(
        lambda: first_return(atlas, STATE.copy(), "north", tol=RETURN_TOL))
    items["central_projection_arc"] = per_call_us(arc)
    items["slice_transport_full_circle"] = per_call_us(transport)
    items["development_angle"] = per_call_us(develop)
    counting = CountingAtlas()
    first_return(counting, STATE.copy(), "north", tol=RETURN_TOL)
    counts["first_return_field_evals"] = counting.evals
    counts["central_projection_field_evals"] = taylor_calls(arc)
    counts["slice_transport_rhs_evals"] = rhs_evals(transport)
    counts["development_angle_rhs_evals"] = rhs_evals(develop)


def main():
    items, counts = {}, {}
    l0_items(items)
    l1_items(items, counts)
    l2_items(items, counts)
    l3_items(items, counts)
    print(json.dumps({"python": platform.python_version(), "samples": SAMPLES,
                      "items": items, "counts": counts}, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()

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
variables at order 2 over 200 rows (a flag batch).  The order-0 operands are
built by ``Jet.constant``, so in a checkout where order 0 is values the
order-0 items time the product of two floats or two arrays.

L1, composite fields: the contact isotopy generator X of the ``realize``
suite (its default Hamiltonian and support) at order 0 on a three-lane
stack, the shape of the stacked integrations that dominate that suite.  Its
``counts`` are the field evaluations (``_FieldBase._evaluate`` calls, and
``_values`` calls, the value reads of an outermost call) and the
Jet products (``Jet.__mul__`` and ``__rmul__`` with two jet operands) of the
first call of a new generator and of the second call, which may reuse what
the first recorded; ``generator_x_3_lanes_jets_built`` counts the jets built
by one call (``jets._jet`` calls, wherever a module binds it, and ``Jet``
constructions), and ``generator_x_3_lanes_order0_jets`` and
``flag_ranks_prolonged_point_order0_jets`` the jets of order 0 among those
built by that call and by one ``flag_ranks`` point of the standard
prolongation (a flags-workload point).  For one call after the first (a
call under the plan the first recorded) and for one deformation round at
seed 1 (the ``realize`` and ``gray`` suites at the samples, tolerances and
config the benchmark's ``deformation`` workload runs them with, each
building its own fields), ``*_kernel_products`` counts
the calls of the jet product kernel ``jets._product``, ``*_jet_allocations``
the ``jets._jet`` calls and ``*_number_outputs`` the field outputs above
order 0 that are numbers, not jets (of ``_FieldBase._evaluate``).

L2, pointwise geometry: ``flag_ranks`` at one point of the standard
prolongation and of the deformed frame of the ``realize`` suite (its default
Hamiltonian and support), the cost per point of one 200-point batch of that
deformed frame, ``normalize_pair`` / ``verify`` on a random order-4 pair
of the ``normal-form`` suite, and the ``plane_basis`` of the frame that
``contactify`` induces on the slice theta = 0.7 of the standard
prolongation, at one point and per point of a 60-point batch (the
``contactify`` suite's points per slice; the batch row needs a
``plane_basis`` that takes an ``(N, 3)`` array of points).

L3, trajectories: one call of the Zoll right-hand side V1
(``SphereAtlas.field("north")`` at a fixed state), the same call as a
single-lane ``integrate`` makes it (through ``flow._field_rhs`` on a one-row
state, the right-hand side of every Zoll and central-projection
integration), one of its order-1 jets at that state (the jet path of
brackets and of the Hamiltonian alignment check), the first return on the
round sphere from chart point (0.4, -0.3) with fiber angle 1.1 at tol 1e-10,
one arc of ``central_projection_check`` (its first arc at seed 1: 40 samples
over arclength 1.2 at tol 1e-11), the full-circle ``slice_transport`` of the
standard prolongation from m = (0.2, -0.1, 0.3) at tol 1e-11 (acceptance
criterion 7's call), and ``development_angle`` at q = (0.1, -0.2, 0.3, 1.0)
at tol 1e-11 (criterion 8's inclusion call).

Each item is timed in 11 samples of a batch sized to take about 50 ms; the
JSON printed holds the median and quartiles of the time per call in
microseconds (per point for the batch item).  The ``counts`` block holds
untimed counts: the field evaluations (``_FieldBase.taylor`` calls and
lone-point value reads) of one deformed flag point, of the 200-point batch
and of the arc, the geodesic-field evaluations of the return, the
evaluations of the variational right-hand side (state plus transported
vectors, event location included) of the transport and the development, the
calls of the jet product kernel ``jets._product`` in one ``normalize_pair``
and one ``verify``, with the term pairs that those calls multiply and the
monomial tables (``jet_composer`` calls) that they set up, by the kind that
the inner map's coefficients allow (``full``, ``origin``: constant terms
zero and every coefficient finite, ``linear``: that and nothing above degree
1; see :func:`composer_tables`), the field evaluations
(``_FieldBase._evaluate`` and ``_values`` calls) per point of the induced
``plane_basis`` at one point and in the 60-point batch, the calls of the
contact-form path's rule (the ``gray`` suite's default path) in one Moser
right-hand side, at t = 0.15 and state (M, 0) with L = d/dy, and in one ``gray`` run at the suite's defaults, and the jets
built (``jets._jet`` calls) by one single-lane right-hand side of V1 at the
fixed state and by one variational right-hand side of d/dtheta (the
characteristic field of the standard prolongation, with three transported
vectors) at (M, 1), both called as ``integrate`` calls them, and the
function calls (Python and built-in, as ``cProfile`` counts them, after one
warm call) of that single-lane right-hand side of V1 and of that Moser
right-hand side.  The timings cannot resolve a change at L0 below about 2x
on a shared machine; the counts are exact, and the jet and call counts
resolve the per-call work of the right-hand sides that the timings cannot.

Imports engellab from the ``src/`` next to this directory and builds jets
only through ``Jet(n, order, {multi_index: value})``, so the same file copied
into another checkout measures that checkout.
"""

import cProfile
import json
import math
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from engellab import calculus, cli, flow, jets  # noqa: E402
from engellab.deformation import (ContactIsotopyGenerator, gray_solve,  # noqa: E402
                                  realize_isotopy)
from engellab.distributions import flag_ranks  # noqa: E402
from engellab.expressions import scalar_field_from_expr  # noqa: E402
from engellab.jets import (Jet, jet_compose, jet_invert, jet_pushforward,  # noqa: E402
                           multi_indices)
from engellab.normal_form import normalize_pair  # noqa: E402
from engellab.prolongation import (contactify, development_angle, prolong,  # noqa: E402
                                   slice_transport)
from engellab.zoll import SphereAtlas, central_projection_check, first_return  # noqa: E402

SIZES = ((4, 3), (3, 4))
LOW_ORDERS = ((3, 0), (3, 1))
BATCH = 200
SLICE_POINTS = 60
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
    """Field evaluations made by ``fn()``: ``_FieldBase.taylor`` calls, and
    the lone-point value reads of ``taylor_fn`` fields (their calls, which
    read the values through the memo without calling ``taylor``)."""
    base, count = calculus._FieldBase, [0]
    taylor, call = base.taylor, base.__call__

    def counted_taylor(self, point, order):
        count[0] += 1
        return taylor(self, point, order)

    def counted_call(self, point):
        count[0] += self.taylor_fn is not None
        return call(self, point)

    base.taylor, base.__call__ = counted_taylor, counted_call
    try:
        fn()
    finally:
        base.taylor, base.__call__ = taylor, call
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


def product_terms(fn):
    """Term pairs that the jet product kernel ``jets._product`` multiplies
    in ``fn()``: the pairs of each call's table times the rows of its
    operands."""
    orig, count = jets._product, [0]

    def counting(a, b, table):
        count[0] += len(table[0]) * math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        return orig(a, b, table)

    jets._product = counting
    try:
        fn()
    finally:
        jets._product = orig
    return count[0]


def composer_tables(fn):
    """Monomial tables that ``fn()`` sets up (``jet_composer`` calls,
    wherever an engellab module binds it), by the kind that the
    coefficients of the inner map allow: ``linear`` when every constant term
    is 0.0 or -0.0, every coefficient finite and nothing above degree 1
    nonzero, ``origin`` for the first two alone, and ``full`` otherwise.
    The kinds are read off the coefficients, so a checkout that builds every
    table in full counts them alike."""
    orig, kinds = jets.jet_composer, dict.fromkeys(("full", "origin", "linear"), 0)
    bound = [m for m in sys.modules.values()
             if getattr(m, "__name__", "").startswith("engellab")
             and getattr(m, "jet_composer", None) is orig]

    def counting(inner, order=jets.MAX_ORDER):
        maps = inner if isinstance(inner, (list, tuple)) else [inner]
        n = maps[0].n
        width = len(multi_indices(n, min([order] + [g.order for g in maps])))
        c = np.stack(np.broadcast_arrays(*[g.c[..., :width] for g in maps]))
        if np.any(c[..., 0] != 0.0) or not np.isfinite(c).all():
            kinds["full"] += 1
        else:
            kinds["origin" if np.any(c[..., n + 1:] != 0.0) else "linear"] += 1
        return orig(inner, order)

    for module in bound:
        module.jet_composer = counting
    try:
        fn()
    finally:
        for module in bound:
            module.jet_composer = orig
    return kinds


def normal_form_counts(pair):
    """The kernel products, the product terms and the composer tables by
    kind of one ``normalize_pair`` of ``pair`` and of one ``verify`` of its
    result."""
    res = normalize_pair(pair)
    counts = {}
    for name, fn in (("normalize_pair_o4", lambda: normalize_pair(pair)),
                     ("verify_o4", lambda: res.verify(pair))):
        counts[f"{name}_kernel_products"] = kernel_products(fn)
        counts[f"{name}_product_terms"] = product_terms(fn)
        counts[f"{name}_composer_tables"] = composer_tables(fn)
    return counts


def jets_built(fn, order=None):
    """Jets built by ``fn()``: ``jets._jet`` calls, which every constructor
    and operation makes (wherever an engellab module binds ``_jet``), and
    ``Jet(n, order, coeffs)`` constructions; with ``order``, those of that
    order only."""
    orig, init, count = jets._jet, Jet.__init__, [0]
    bound = [m for m in sys.modules.values()
             if getattr(m, "__name__", "").startswith("engellab") and getattr(m, "_jet", None) is orig]

    def counting(n, order_, c):
        count[0] += order is None or order_ == order
        return orig(n, order_, c)

    def constructing(self, n, order_, coeffs=None):
        count[0] += order is None or order_ == order
        return init(self, n, order_, coeffs)

    for module in bound:
        module._jet = counting
    Jet.__init__ = constructing
    try:
        fn()
    finally:
        for module in bound:
            module._jet = orig
        Jet.__init__ = init
    return count[0]


def number_outputs(fn):
    """Field outputs above order 0 that are numbers, not jets, among those
    of every ``_FieldBase._evaluate`` call made by ``fn()``."""
    evaluate, count = calculus._FieldBase._evaluate, [0]

    def counting(self, coords, order):
        out = evaluate(self, coords, order)
        count[0] += sum(not isinstance(j, Jet) for j in out) if order else 0
        return out

    calculus._FieldBase._evaluate = counting
    try:
        fn()
    finally:
        calculus._FieldBase._evaluate = evaluate
    return count[0]


def layer_counts(counts, name, fn):
    """The kernel products, jet allocations and number outputs of ``fn()``,
    each from a run of its own."""
    counts[f"{name}_kernel_products"] = kernel_products(fn)
    counts[f"{name}_jet_allocations"] = jets_built(fn)
    counts[f"{name}_number_outputs"] = number_outputs(fn)


def python_calls(fn):
    """Function calls, Python and built-in, that ``cProfile`` counts in one
    ``fn()`` made after a warm call.  They are summed over the profiler's
    entries, one per code object: ``pstats`` keys its table by file, line
    and name, so comprehensions nested on one line overwrite each other
    there in an order that varies from run to run."""
    fn()
    profile = cProfile.Profile()
    profile.runcall(fn)
    return sum(entry.callcount for entry in profile.getstats())


def single_lane(f):
    """``f`` as a single-lane ``integrate`` calls it: on a one-row state."""
    return lambda t, s: f(t, s[0])[None]


def path_rule_calls(fn):
    """Calls of the rules of the contact-form paths that the CLI builds
    while ``fn()`` runs, counted by wrapping each rule as it is passed to
    ``ContactFormPath``."""
    build, count = cli.ContactFormPath, [0]

    def counting_build(chart, rule):
        def counting(xs):
            count[0] += 1
            return rule(xs)

        return build(chart, counting)

    cli.ContactFormPath = counting_build
    try:
        fn()
    finally:
        cli.ContactFormPath = build
    return count[0]


def evaluations_and_products(fn):
    """Field evaluations (``_FieldBase._evaluate`` calls, and ``_values``
    calls in a checkout that reads lone-point values there) and products of
    two jets made by ``fn()``."""
    names = [name for name in ("_evaluate", "_values") if hasattr(calculus._FieldBase, name)]
    saved = {name: getattr(calculus._FieldBase, name) for name in names}
    saved.update({name: getattr(Jet, name) for name in ("__mul__", "__rmul__")})
    count = {"evaluate": 0, "products": 0}

    def evaluation(name):
        def counting(self, *args):
            count["evaluate"] += 1
            return saved[name](self, *args)
        return counting

    def product(name):
        def counting(a, b):
            count["products"] += isinstance(b, Jet)
            return saved[name](a, b)
        return counting

    for name in names:
        setattr(calculus._FieldBase, name, evaluation(name))
    Jet.__mul__, Jet.__rmul__ = product("__mul__"), product("__rmul__")
    try:
        fn()
    finally:
        for name in names:
            setattr(calculus._FieldBase, name, saved[name])
        Jet.__mul__, Jet.__rmul__ = saved["__mul__"], saved["__rmul__"]
    return count["evaluate"], count["products"]


def dense_jet(rng, n, order, const):
    if order == 0:
        return Jet.constant(const, n, 0)
    return Jet(n, order, {k: const if sum(k) == 0 else rng.uniform(-1.0, 1.0)
                          for k in multi_indices(n, order)})


def batch_jet(n, order, coeffs):
    return Jet(n, order, coeffs) if order else Jet.constant(coeffs[(0,) * n], n, 0)


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
        a, b = (batch_jet(n, order, {k: rows_rng.uniform(-1.0, 1.0, rows)
                                     for k in multi_indices(n, order)}) for _ in range(2))
        items[f"mul_n{n}_o{order}_batch{rows}"] = per_call_us(lambda: a * b)


def deformation_round(seed):
    """The suites of one ``deformation`` workload round, as it runs them."""
    cli.run("realize", {"h": REALIZE_H, "support": list(REALIZE_SUPPORT)}, seed, 200, 1e-6)
    cli.run("gray", {}, seed, 20, 1e-6)


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
    counts[f"generator_x_{LANES}_lanes_jets_built"] = jets_built(lambda: gen.X(stack))
    counts[f"generator_x_{LANES}_lanes_order0_jets"] = jets_built(lambda: gen.X(stack), 0)
    layer_counts(counts, f"generator_x_{LANES}_lanes_planned", lambda: gen.X(stack))
    layer_counts(counts, "deformation_round", lambda: deformation_round(1))
    items[f"generator_x_{LANES}_lanes"] = per_call_us(lambda: gen.X(stack))


def l2_items(items, counts):
    domain, gen = realize_generator()
    deformed = realize_isotopy(domain, gen, validate=False).frame()
    pts = cli._domain_points(np.random.default_rng(4), BATCH, domain.theta_max)
    q = pts[0]
    items["flag_ranks_prolonged_point"] = per_call_us(lambda: flag_ranks(domain.frame(), q))
    counts["flag_ranks_prolonged_point_order0_jets"] = jets_built(
        lambda: flag_ranks(domain.frame(), q), 0)
    items["flag_ranks_deformed_point"] = per_call_us(lambda: flag_ranks(deformed, q))
    batch = per_call_us(lambda: flag_ranks(deformed, pts))
    items[f"flag_ranks_deformed_batch{BATCH}_per_point"] = {
        k: v / BATCH if k.endswith("_us") else v for k, v in batch.items()}
    counts["taylor_deformed_point"] = taylor_calls(lambda: flag_ranks(deformed, q))
    counts[f"taylor_deformed_batch{BATCH}"] = taylor_calls(lambda: flag_ranks(deformed, pts))

    std = prolong(cli._base_contact({})[0])
    induced = contactify(std.frame(), std.theta_slice(0.7))
    ms = np.random.default_rng(4).uniform(-1.0, 1.0, (SLICE_POINTS, 3))

    def bases():
        return induced.plane_basis(ms)

    items["contactify_plane_basis_point"] = per_call_us(lambda: induced.plane_basis(ms[0]))
    batch = per_call_us(bases)
    items[f"contactify_plane_basis_batch{SLICE_POINTS}_per_point"] = {
        k: v / SLICE_POINTS if k.endswith("_us") else v for k, v in batch.items()}
    counts["contactify_plane_basis_point_evaluations"] = evaluations_and_products(
        lambda: induced.plane_basis(ms[0]))[0]
    counts[f"contactify_plane_basis_batch{SLICE_POINTS}_evaluations_per_point"] = \
        evaluations_and_products(bases)[0] / SLICE_POINTS

    pair = cli._random_pair(np.random.default_rng(4))
    res = normalize_pair(pair)
    items["normalize_pair_o4"] = per_call_us(lambda: normalize_pair(pair))
    items["verify_o4"] = per_call_us(lambda: res.verify(pair))
    counts.update(normal_form_counts(pair))


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

    v1_rhs, state = single_lane(flow._field_rhs(X)), STATE[None]
    items["v1_rhs_call"] = per_call_us(lambda: X(STATE))
    items["v1_single_lane_rhs"] = per_call_us(lambda: v1_rhs(0.0, state))
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
    variational = single_lane(flow._augmented_rhs(std.vertical, 4, 3))
    y = np.concatenate([M, [1.0], np.eye(4)[:, :3].ravel()])[None]
    counts["v1_rhs_jets_built"] = jets_built(lambda: v1_rhs(0.0, state))
    counts["v1_single_lane_rhs_calls"] = python_calls(lambda: v1_rhs(0.0, state))
    counts["vertical_variational_rhs_jets_built"] = jets_built(lambda: variational(0.0, y))

    def moser_rhs():
        L = calculus.constant_field(cli.CONTACT_CHART, [0.0, 1.0, 0.0])
        return gray_solve(cli._gray_path({})[0], L, np.linspace(0.0, 0.3, 5))._rhs(0)

    _, samples, tol = cli.SUITES["gray"]
    y_moser = np.append(M, 0.0)
    counts["gray_moser_rhs_path_rule_calls"] = path_rule_calls(lambda: moser_rhs()(0.15, y_moser))
    rhs = moser_rhs()
    counts["gray_moser_rhs_calls"] = python_calls(lambda: rhs(0.15, y_moser))
    counts["gray_run_path_rule_calls"] = path_rule_calls(
        lambda: cli.run("gray", {}, 0, samples, tol))


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

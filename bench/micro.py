"""Microbenchmark of the layers under the CLI suites: the L0-L3 rows of the
ROADMAP baseline table.

    python3 bench/micro.py

Prints JSON: per item, the median and quartiles of 11 timed samples, each a
batch of calls sized to take about 50 ms, in microseconds per call (per
point or per pair for a batch item); and a ``counts`` block of untimed,
exact counts, each described by the function that takes it.  The timings
cannot resolve a change at L0 below about 2x on a shared machine; the
counts resolve the per-call work that the timings cannot.

L0, the jet kernel: Jet mul, add and sin, ``jet_compose`` and ``jet_invert``
at 4 variables order 3 and 3 variables order 4, ``jet_pushforward`` of a
dense field at 3 variables order 4, mul at order 1 in 3 variables, and the
product of two dense batch jets: 3 variables at orders 1 and 2 over 3 rows
(a stack of lanes) and 4 variables at order 2 over 200 rows (a flag batch).
Operands are dense random jets from a fixed seed; the change for compose,
invert and pushforward is origin-preserving with a diagonally dominant
linear part.

L1, composite fields: the contact isotopy generator X of the ``realize``
suite (its default Hamiltonian and support) on a three-lane stack, the
shape of the stacked integrations that dominate that suite.  Counts: the
field evaluations and jet products of a new generator's first call and of
its second, which may reuse what the first recorded; the jets built by one
call; and the kernel products, jet allocations and number outputs of a
later call and of one ``deformation`` workload round at seed 1.

L2, pointwise geometry: ``flag_ranks`` at one point and per point of a
200-point batch, of the standard prolongation and of the ``realize``
suite's deformed frame; the characteristic lines of the standard batch and
their angles to d/dtheta; the ``plane_basis`` that ``contactify`` induces on
the slice theta = 0.7, at one point and per point of 60, and the principal
angles per pair between those 60 bases and the base's; ``normalize_pair``
and ``verify`` on one random order-4 pair of the ``normal-form`` suite and
per pair of a stack of 10.  Counts: field evaluations of the deformed flag
point and batch and of the induced bases, and the kernel products, product
terms and composer tables of one normal form of generator 4's pair and of
the second pair of the ``normal-form`` round at seed 1 (``round_pair_``).

L3, trajectories: the Zoll field V1 (``SphereAtlas.field("north")``) at a
fixed state, as a single-lane ``integrate`` calls it, on a stack of 4 lanes
and as order-1 jets; the first return on the round sphere at tol 1e-10;
the 4-sample ``closedness_report`` at seed 1; one ``central_projection_check``
arc at seed 1; the full-circle ``slice_transport`` of the standard
prolongation (acceptance criterion 7's call) and ``development_angle``
(criterion 8's), at tol 1e-11.  Counts: the geodesic-field calls of the
return, the report and the arcs, the variational right-hand-side
evaluations of the transport and the development, the jets built and the
function calls of one right-hand side, and the path-rule calls of the
``gray`` suite.

Imports engellab from the ``src/`` next to this directory.
"""

import cProfile
import json
import math
import platform
import random
import statistics
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from engellab import calculus, cli, flow, jets, zoll  # noqa: E402
from engellab.deformation import (ContactIsotopyGenerator, gray_solve,  # noqa: E402
                                  realize_isotopy)
from engellab.distributions import (characteristic_line, flag_ranks,  # noqa: E402
                                    line_angles, principal_angles)
from engellab.expressions import scalar_field_from_expr  # noqa: E402
from engellab.jets import (Jet, jet_compose, jet_invert, jet_pushforward,  # noqa: E402
                           multi_indices)
from engellab.normal_form import LegendrianPairJet, normalize_pair  # noqa: E402
from engellab.prolongation import (contactify, development_angle, prolong,  # noqa: E402
                                   slice_transport)
from engellab.zoll import (SphereAtlas, central_projection_check,  # noqa: E402
                           closedness_report, first_return)

SIZES = ((4, 3), (3, 4))
BATCH = 200
SLICE_POINTS = 60
PAIRS = 10
LANES = 3
BATCH_PRODUCTS = ((3, 1, LANES), (3, 2, LANES), (4, 2, BATCH))
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


@contextmanager
def wrapped(owner, name, wrap):
    """Bind ``wrap(original)`` under ``name`` in ``owner`` and in every
    engellab module that binds the same object under that name, for the
    block; every original is bound again on exit, also when the block
    raises."""
    original = getattr(owner, name)
    owners = [owner] + [m for m in list(sys.modules.values())
                        if m is not owner and getattr(m, "__name__", "").startswith("engellab")
                        and getattr(m, name, None) is original]
    wrapper = wrap(original)
    try:
        for o in owners:
            setattr(o, name, wrapper)
        yield
    finally:
        for o in owners:
            setattr(o, name, original)


def once(*_, **__):
    """The weight of a call that counts once."""
    return 1


def tally(fn, *targets):
    """Run ``fn()`` once with each ``(owner, name, weigh)`` target wrapped
    (see :func:`wrapped`) and return one total per target: the sum over the
    calls of ``owner.name`` of ``weigh(out, *args, **kwargs)``, where ``out``
    is what the call returned.  Targets of one name nest."""
    totals = [0] * len(targets)

    def weighing(i, weigh):
        def wrap(original):
            def call(*args, **kwargs):
                out = original(*args, **kwargs)
                totals[i] += weigh(out, *args, **kwargs)
                return out
            return call
        return wrap

    with ExitStack() as stack:
        for i, (owner, name, weigh) in enumerate(targets):
            stack.enter_context(wrapped(owner, name, weighing(i, weigh)))
        fn()
    return totals


def counting(f, count):
    """``f``, adding each of its calls to ``count[0]``."""
    def call(*args):
        count[0] += 1
        return f(*args)
    return call


def taylor_calls(fn):
    """Field evaluations made by ``fn()``: ``_FieldBase.taylor`` calls, and
    the lone-point value reads of ``taylor_fn`` fields (their calls, which
    read the values through the memo without calling ``taylor``)."""
    base = calculus._FieldBase
    return sum(tally(fn, (base, "taylor", once),
                     (base, "__call__", lambda out, field, point: field.taylor_fn is not None)))


def rhs_evals(fn):
    """Evaluations of the variational right-hand sides that ``flow`` builds
    while ``fn()`` runs."""
    count = [0]
    with wrapped(flow, "_augmented_rhs",
                 lambda build: lambda *args: counting(build(*args), count)):
        fn()
    return count[0]


def kernel_products(fn):
    """Calls of the jet product kernel ``jets._product`` made by ``fn()``."""
    return tally(fn, (jets, "_product", once))[0]


def product_terms(fn):
    """Term pairs that the jet product kernel ``jets._product`` multiplies
    in ``fn()``: the pairs of each call's table times the rows of its
    operands."""
    def terms(out, a, b, table):
        return len(table[0]) * math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    return tally(fn, (jets, "_product", terms))[0]


TABLE_KINDS = ("full", "near_origin", "origin", "linear")


def table_kind(inner, order=jets.MAX_ORDER):
    """The kind of monomial table that the coefficients of the inner map of
    ``jet_composer(inner, order)`` allow: ``linear`` when every constant term
    is 0.0 or -0.0, every coefficient finite and nothing above degree 1
    nonzero, ``origin`` for the first two alone, ``near_origin`` when every
    coefficient is finite and every constant term within 1e-13 of zero, not
    all of them zero, and ``full`` otherwise.  Read off the coefficients, so
    a checkout that builds every table in full counts them alike; one with a
    single composition path builds no table in full, and composes a
    ``near_origin`` inner's constants as 0.0 through the structured
    tables."""
    maps = inner if isinstance(inner, (list, tuple)) else [inner]
    n = maps[0].n
    width = len(multi_indices(n, min([order] + [g.order for g in maps])))
    c = np.stack(np.broadcast_arrays(*[g.c[..., :width] for g in maps]))
    if not np.isfinite(c).all() or np.any(np.abs(c[..., 0]) > 1e-13):
        return "full"
    if np.any(c[..., 0] != 0.0):
        return "near_origin"
    return "origin" if np.any(c[..., n + 1:] != 0.0) else "linear"


def composer_tables(fn):
    """Monomial tables that ``fn()`` sets up (``jet_composer`` calls), by
    :func:`table_kind`."""
    def of_kind(kind):
        return lambda out, *args, **kwargs: table_kind(*args, **kwargs) == kind
    return dict(zip(TABLE_KINDS, tally(fn, *[(jets, "jet_composer", of_kind(kind))
                                             for kind in TABLE_KINDS])))


def normal_form_counts(pair, prefix=""):
    """The kernel products, the product terms and the composer tables by
    kind of one ``normalize_pair`` of ``pair`` and of one ``verify`` of its
    result, each name led by ``prefix``."""
    res = normalize_pair(pair)
    counts = {}
    for name, fn in (("normalize_pair_o4", lambda: normalize_pair(pair)),
                     ("verify_o4", lambda: res.verify(pair))):
        counts[f"{prefix}{name}_kernel_products"] = kernel_products(fn)
        counts[f"{prefix}{name}_product_terms"] = product_terms(fn)
        counts[f"{prefix}{name}_composer_tables"] = composer_tables(fn)
    return counts


def round_pair(seed=1, index=1):
    """Pair ``index`` of those the ``normal-form`` suite draws at ``seed``."""
    rng = np.random.default_rng(seed)
    return [cli._random_pair(rng) for _ in range(index + 1)][index]


def jets_built(fn):
    """Jets built by ``fn()``: ``jets._jet`` calls, which every constructor
    and operation makes, and ``Jet(n, order, coeffs)`` constructions."""
    return sum(tally(fn, (jets, "_jet", once), (Jet, "__init__", once)))


def number_outputs(fn):
    """Field outputs above order 0 that are numbers, not jets, among those
    of every ``_FieldBase._evaluate`` call made by ``fn()``."""
    def numbers(out, field, coords, order):
        return sum(not isinstance(j, Jet) for j in out) if order else 0
    return tally(fn, (calculus._FieldBase, "_evaluate", numbers))[0]


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
    count = [0]
    with wrapped(cli, "ContactFormPath",
                 lambda build: lambda chart, rule: build(chart, counting(rule, count))):
        fn()
    return count[0]


def evaluations_and_products(fn):
    """Field evaluations (``_FieldBase._evaluate`` calls) and products of
    two jets made by one run of ``fn()``."""
    def of_jets(out, a, b):
        return isinstance(b, Jet)
    evaluations, *products = tally(fn, (calculus._FieldBase, "_evaluate", once),
                                   (Jet, "__mul__", of_jets), (Jet, "__rmul__", of_jets))
    return evaluations, sum(products)


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
    a, b = dense_jet(rng, 3, 1, 0.7), dense_jet(rng, 3, 1, -0.4)
    items["mul_n3_o1"] = per_call_us(lambda: a * b)
    rows_rng = np.random.default_rng(4)
    for n, order, rows in BATCH_PRODUCTS:
        a, b = (Jet(n, order, {k: rows_rng.uniform(-1.0, 1.0, rows)
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
    layer_counts(counts, f"generator_x_{LANES}_lanes_planned", lambda: gen.X(stack))
    layer_counts(counts, "deformation_round", lambda: deformation_round(1))
    items[f"generator_x_{LANES}_lanes"] = per_call_us(lambda: gen.X(stack))


def per_point(timing, n):
    return {k: v / n if k.endswith("_us") else v for k, v in timing.items()}


def l2_items(items, counts):
    domain, gen = realize_generator()
    deformed = realize_isotopy(domain, gen, validate=False).frame()
    pts = cli._domain_points(np.random.default_rng(4), BATCH, domain.theta_max)
    q = pts[0]
    vertical = np.array([0.0, 0.0, 0.0, 1.0])
    items[f"flag_ranks_prolonged_batch{BATCH}_per_point"] = per_point(
        per_call_us(lambda: flag_ranks(domain.frame(), pts)), BATCH)
    items[f"characteristic_lines_angles_prolonged_batch{BATCH}_per_point"] = per_point(
        per_call_us(lambda: line_angles(characteristic_line(domain.frame(), pts), vertical)),
        BATCH)
    items["flag_ranks_prolonged_point"] = per_call_us(lambda: flag_ranks(domain.frame(), q))
    items["flag_ranks_deformed_point"] = per_call_us(lambda: flag_ranks(deformed, q))
    items[f"flag_ranks_deformed_batch{BATCH}_per_point"] = per_point(
        per_call_us(lambda: flag_ranks(deformed, pts)), BATCH)
    counts["taylor_deformed_point"] = taylor_calls(lambda: flag_ranks(deformed, q))
    counts[f"taylor_deformed_batch{BATCH}"] = taylor_calls(lambda: flag_ranks(deformed, pts))

    std = prolong(cli._base_contact({})[0])
    induced = contactify(std.frame(), std.theta_slice(0.7))
    ms = np.random.default_rng(4).uniform(-1.0, 1.0, (SLICE_POINTS, 3))

    def bases():
        return induced.plane_basis(ms)

    items["contactify_plane_basis_point"] = per_call_us(lambda: induced.plane_basis(ms[0]))
    items[f"contactify_plane_basis_batch{SLICE_POINTS}_per_point"] = per_point(
        per_call_us(bases), SLICE_POINTS)
    induced_bases, contact_bases = bases(), std.base.plane_basis(ms)
    items[f"contactify_principal_angles_batch{SLICE_POINTS}_per_pair"] = per_point(
        per_call_us(lambda: principal_angles(induced_bases, contact_bases)), SLICE_POINTS)
    counts["contactify_plane_basis_point_evaluations"] = evaluations_and_products(
        lambda: induced.plane_basis(ms[0]))[0]
    counts[f"contactify_plane_basis_batch{SLICE_POINTS}_evaluations_per_point"] = \
        evaluations_and_products(bases)[0] / SLICE_POINTS

    pair = cli._random_pair(np.random.default_rng(4))
    res = normalize_pair(pair)
    items["normalize_pair_o4"] = per_call_us(lambda: normalize_pair(pair))
    items["verify_o4"] = per_call_us(lambda: res.verify(pair))
    rng = np.random.default_rng(1)
    pairs = LegendrianPairJet.stack([cli._random_pair(rng) for _ in range(PAIRS)])
    results = normalize_pair(pairs)
    items[f"normalize_pair_o4_batch{PAIRS}_per_pair"] = per_point(
        per_call_us(lambda: normalize_pair(pairs)), PAIRS)
    items[f"verify_o4_batch{PAIRS}_per_pair"] = per_point(
        per_call_us(lambda: results.verify(pairs)), PAIRS)
    counts.update(normal_form_counts(pair))
    counts.update(normal_form_counts(round_pair(), "round_pair_"))


class CountedField:
    """A field whose calls are counted in ``owner.evals``; every other
    attribute is the field's."""

    def __init__(self, owner, field):
        self.owner, self.field = owner, field

    def __call__(self, point):
        self.owner.evals += 1
        return self.field(point)

    def __getattr__(self, name):
        return getattr(self.field, name)


class CountingAtlas(SphereAtlas):
    """The sphere atlas with a count of geodesic-field calls: one counted
    wrapper per underlying field, so charts that share a field share it."""

    def __init__(self, radius=1.0):
        super().__init__(radius)
        self.evals, self.counted = 0, {}

    def field(self, chart):
        field = super().field(chart)
        if id(field) not in self.counted:
            self.counted[id(field)] = CountedField(self, field)
        return self.counted[id(field)]


def arc_field_calls(n_arcs):
    """Geodesic-field calls of ``central_projection_check`` over ``n_arcs``
    arcs at seed ``ARC_SEED``, on a counting atlas in place of its own."""
    made = []
    with wrapped(zoll, "SphereAtlas",
                 lambda _: lambda *args: made.append(CountingAtlas(*args)) or made[-1]):
        central_projection_check(n_geodesics=n_arcs, seed=ARC_SEED)
    return sum(a.evals for a in made)


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
    stack = np.column_stack([STATE, np.random.default_rng(4).uniform(-1.0, 1.0, (3, 3))])
    items["v1_rhs_call"] = per_call_us(lambda: X(STATE))
    items["v1_single_lane_rhs"] = per_call_us(lambda: v1_rhs(0.0, state))
    items["v1_stack_4_lanes"] = per_call_us(lambda: X(stack))
    items["v1_jets_order1"] = per_call_us(lambda: X.taylor(STATE, 1))
    items["first_return_sphere"] = per_call_us(
        lambda: first_return(atlas, STATE.copy(), "north", tol=RETURN_TOL))
    items["closedness_4_samples"] = per_call_us(
        lambda: closedness_report(atlas, n_samples=4, seed=ARC_SEED))
    items["central_projection_arc"] = per_call_us(arc)
    items["slice_transport_full_circle"] = per_call_us(transport)
    items["development_angle"] = per_call_us(develop)
    counting = CountingAtlas()
    first_return(counting, STATE.copy(), "north", tol=RETURN_TOL)
    counts["first_return_field_evals"] = counting.evals
    counting = CountingAtlas()
    closedness_report(counting, n_samples=4, seed=ARC_SEED)
    counts["closedness_4_samples_field_calls"] = counting.evals
    counts["central_projection_field_evals"] = taylor_calls(arc)
    counts["central_projection_4_arcs_field_calls"] = arc_field_calls(4)
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

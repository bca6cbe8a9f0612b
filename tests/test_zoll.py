"""Geodesic fields on unit tangent bundles, the SO(3) frame, closedness
measurements, central projection, and the Legendre ray map."""

import math

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import solve_ivp

from engellab import flow, zoll
from engellab.calculus import Chart, lie_bracket
from engellab.distributions import flag_ranks, is_contact
from engellab.errors import EngelLabError, GeometryError
from engellab.flow import integrate
from engellab.jets import Jet, gradient, sin
from engellab.zoll import (SingleChartSpace, SphereAtlas, SurfaceMetric, UnitTangentChart,
                           central_projection, central_projection_check,
                           closedness_report, euclidean_metric, first_return,
                           geodesic_pair, hamiltonian_alignment,
                           kinetic_hamiltonian_field, legendre_ray_map,
                           legendre_ray_map_inverse, line_fit_residual,
                           revolution_metric, so3_base_point,
                           so3_engel_frame, so3_frame_fields,
                           stereographic_sphere_metric)


def fd_christoffel(metric, p, h=1e-6):
    """Central-difference Christoffel symbols from the metric matrix."""
    p = np.asarray(p, dtype=float)
    dG = np.zeros((2, 2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        dG[:, :, k] = (metric.matrix(p + e) - metric.matrix(p - e)) / (2 * h)
    Ginv = np.linalg.inv(metric.matrix(p))
    Gam = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                Gam[i, j, k] = 0.5 * sum(
                    Ginv[i, l] * (dG[l, j, k] + dG[l, k, j] - dG[j, k, l])
                    for l in range(2))
    return Gam


def sine_revolution_metric():
    return revolution_metric(lambda u: 2.0 + sin(u))


def skew_metric():
    """Neither diagonal nor conformal: g01 != 0 reaches every w0 term of the
    Gram-Schmidt frame, which the sphere and revolution metrics never do."""
    def rule(xs):
        x, y = xs
        g01 = 0.2 * x * y + 0.1 * y
        return [[1.0 + 0.3 * x * x, g01], [g01, 2.0 + 0.5 * y * y + 0.1 * x]]

    return SurfaceMetric(Chart("skew", ("x", "y")), rule, name="skew")


METRICS = (stereographic_sphere_metric, sine_revolution_metric, skew_metric)


def test_christoffel_against_finite_differences():
    for metric in (m() for m in METRICS):
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = rng.uniform(-0.8, 0.8, 2)
            got = metric.christoffel(p)
            want = fd_christoffel(metric, p)
            assert np.max(np.abs(got - want)) < 1e-7, metric.name


def test_metric_jets_values_and_batches_equal_the_rule():
    # a metric is the field of g's four entries: its jets are the rule's on
    # seed jets, bit for bit; a number entry stays a number, the value of its
    # constant jet, with derivatives 0.0 (order 0 is values, the rule's on
    # the coordinates, each 0.0 + v); value_and_gradient
    # reads the values and gradients of the rule on order-1 seeds; a batch's
    # values are each point's matrix, bit for bit
    rng = np.random.default_rng(3)
    for metric in [m() for m in METRICS] + [euclidean_metric()]:
        pts = rng.uniform(-0.8, 0.8, (6, 2))
        for x in pts:
            for k in range(4):
                rule = [e for row in metric.g_rule(Jet.seeds(x, k)) for e in row]
                for got, e in zip(metric.taylor(x, k), rule, strict=True):
                    if k == 0:
                        got, want = np.float64(got), np.float64(0.0 + e)
                    elif isinstance(e, Jet):
                        got, want = got.c, e.c
                    else:
                        assert not isinstance(got, Jet) and gradient(got, 2) == [0.0, 0.0]
                        got = Jet(2, k, {(0, 0): got}).c
                        want = np.zeros(got.shape)
                        want[0] = 0.0 + e
                    assert got.tobytes() == want.tobytes(), (metric.name, k)
            rule = [e for row in metric.g_rule(Jet.seeds(x, 1)) for e in row]
            g, dg = metric.value_and_gradient(x)
            assert np.array(g).tobytes() == np.array(
                [e.value if isinstance(e, Jet) else 0.0 + e for e in rule]).reshape(2, 2).tobytes()
            assert np.array(dg).tobytes() == np.array(
                [e.gradient() if isinstance(e, Jet) else [0.0, 0.0] for e in rule]
            ).reshape(2, 2, 2).tobytes()
        batch = metric(pts.T)
        assert batch.shape == (4, len(pts))
        for column, x in zip(batch.T, pts):
            assert column.reshape(2, 2).tobytes() == metric.matrix(x).tobytes(), metric.name


def test_metric_arithmetic_keeps_the_metric_type():
    # a metric combines like any field: g * 2.0 is a SurfaceMetric whose
    # matrix is 2 g bit for bit, and whose Christoffel symbols are g's bit for
    # bit (scaling by a power of two is exact)
    rng = np.random.default_rng(24)
    for metric in [m() for m in METRICS] + [euclidean_metric()]:
        doubled = metric * 2.0
        assert isinstance(doubled, SurfaceMetric)
        for x in rng.uniform(-0.8, 0.8, (5, 2)):
            assert doubled.matrix(x).tobytes() == (2 * metric.matrix(x)).tobytes()
            assert doubled.christoffel(x).tobytes() == metric.christoffel(x).tobytes()


def test_nan_or_misshapen_metric_fails_loudly():
    # a NaN entry is not positive definite, where it passed the det and g00
    # tests and gave a NaN covector; a rule of the wrong shape is named as
    # such, not an IndexError
    chart = Chart("bad", ("x", "y"))
    nan_metric = SurfaceMetric(chart, lambda xs: [[math.nan, 0.0], [0.0, 1.0]])
    for call in (lambda: nan_metric.matrix([0.1, 0.2]),
                 lambda: legendre_ray_map(nan_metric, [0.1, 0.2], [1.0, 0.0])):
        with pytest.raises(GeometryError, match="not positive definite"):
            call()
    wide = SurfaceMetric(chart, lambda xs: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for call in (lambda: wide.matrix([0.1, 0.2]), lambda: wide.value_and_gradient([0.1, 0.2]),
                 lambda: wide.taylor([0.1, 0.2], 2)):
        with pytest.raises(EngelLabError, match="rule returned 9 components, expected 4"):
            call()


def test_geodesic_field_jets_solve_the_geodesic_equation():
    # along V1 the base point moves with velocity u(x, psi), so its
    # acceleration is du/dt = d_x u . u + d_psi u . psidot, read from V1's
    # order-1 jets; it must equal -Gamma(u, u) with the Christoffel symbols
    # of the metric matrix by finite differences.  alpha's order-1 jets pair
    # to zero with V0 and V1, as functions and not only at the point.  A
    # batch of the states gives each state's jets bit for bit.
    for ut in (UnitTangentChart(m()) for m in METRICS):
        rng = np.random.default_rng(1)
        states = np.column_stack([rng.uniform(-1.5, 1.5, (10, 2)), rng.uniform(0, 2 * math.pi, 10)])
        def coeffs(j, order):  # order 0 is values: one coefficient each; a
            # number above order 0 (alpha's dpsi component) is its constant jet
            if isinstance(j, Jet):
                return j.c
            return Jet(3, order, {(0, 0, 0): j}).c if order else np.asarray(j)[..., None]

        for field, order in ((ut.V1, 0), (ut.V1, 1), (ut.alpha, 0), (ut.alpha, 1)):
            rows = np.array([[coeffs(j, order) for j in field.taylor(q, order)] for q in states])
            batch = np.array([np.broadcast_to(coeffs(j, order), rows[:, 0].shape)
                              for j in field.taylor(states.T, order)])
            assert np.array_equal(batch.transpose(1, 0, 2), rows), (ut.metric.name, order)
        for q in states:
            v1 = ut.V1.taylor(q, 1)
            speed = np.array([j.value for j in v1])
            u = speed[:2]
            accel = np.array([np.dot(j.gradient(), speed) for j in v1[:2]])
            Gam = fd_christoffel(ut.metric, q[:2])
            assert np.max(np.abs(accel + np.einsum("ijk,j,k->i", Gam, u, u))) < 1e-7, \
                ut.metric.name
            alpha = ut.alpha.taylor(q, 1)
            for V in (ut.V0.taylor(q, 1), v1):
                pairing = sum((a * v for a, v in zip(alpha, V)), Jet(3, 1))
                assert np.max(np.abs(pairing.c)) < 1e-12, ut.metric.name


def test_contact_element_builds_each_reciprocal_once(monkeypatch):
    # one order-1 V1 evaluation on the round sphere: the square roots of g00
    # and of n2 = g11 - g01^2/g00, the reciprocals of those two, of g00, of n2
    # and of det g, and sin and cos of psi make 9 series, where each division
    # used to build its own reciprocal (19); the metric rule's own division
    # is the tenth.  A division by a jet stays the product x * (1/d) that
    # Jet.__truediv__ forms, bit for bit
    ut = SphereAtlas().north
    calls, in_rule = [], []
    analytic, rule = Jet._analytic, ut.metric.g_rule

    def counted_rule(xs):
        before = len(calls)
        out = rule(xs)
        in_rule.append(len(calls) - before)
        return out

    monkeypatch.setattr(Jet, "_analytic", lambda j, series: calls.append(1) or analytic(j, series))
    monkeypatch.setattr(ut.metric, "g_rule", counted_rule)
    ut.V1.taylor(np.array([0.4, -0.3, 1.1]), 1)
    assert in_rule == [1] and len(calls) == 10
    monkeypatch.undo()
    x, d = Jet.seeds([0.4, -0.3, 1.1], 2)[0].sin(), Jet.seeds([0.4, -0.3, 1.1], 2)[1].exp()
    assert zoll._over(d)(x).c.tobytes() == (x / d).c.tobytes()
    assert zoll._over(d)(-0.5).c.tobytes() == (-0.5 / d).c.tobytes()
    assert zoll._over(2.5)(0.7) == 0.7 / 2.5


def test_unit_speed_and_contact():
    ut = UnitTangentChart(stereographic_sphere_metric())
    pair = ut.pair()
    rng = np.random.default_rng(2)
    for _ in range(10):
        q = np.append(rng.uniform(-1.5, 1.5, 2), rng.uniform(0, 2 * math.pi))
        u = ut.unit_vector(q)
        G = ut.metric.matrix(q[:2])
        assert abs(u @ G @ u - 1.0) < 1e-12
        assert is_contact(pair.frame(), q)
        a = pair.alpha(q)
        assert abs(a @ ut.V0(q)) < 1e-12
        assert abs(a @ ut.V1(q)) < 1e-12


def test_great_circle_through_chart_origin():
    # from the chart origin (south pole of the north chart) any direction
    # follows a great circle; the equator of the unit sphere is reached at
    # arclength pi/2 where the chart radius is 1
    atlas = SphereAtlas()
    y = np.array([0.0, 0.0, 0.3])
    ch = "north"
    X = atlas.field(ch)
    res, _, _ = integrate(lambda t, s: X(s), y, 0.0, 0.5 * math.pi, tol=1e-12)
    assert abs(np.hypot(res[0], res[1]) - 1.0) < 1e-9


def test_sphere_first_return_period():
    atlas = SphereAtlas()
    state, ch = atlas.start_state([0.4, -0.3], 1.1)
    ok, s, defect, _, _ = first_return(atlas, state, ch, tol=1e-11)
    assert ok
    assert defect < 1e-7
    assert abs(s - 2.0 * math.pi) < 1e-7


def test_return_is_one_integration_restarted_at_each_transition(monkeypatch):
    # a return is one integrate run from arclength 0 at the opening step
    # 1/64, whatever its transitions: the lane restarts in place in the other
    # chart wherever it passes the switch radius (no second run, no probes).
    # The return is located on the step that makes it, so the section value
    # f = (e - e(start)) . T0 is at its rounding floor there
    calls, stops = [], []
    inner = zoll.integrate

    def logged(f, y0, t0, t1, **kw):
        calls.append((t0, kw.get("h0")))
        return inner(f, y0, t0, t1, **kw)

    monkeypatch.setattr(zoll, "integrate", logged)
    atlas = SphereAtlas()
    transition = atlas.transition
    monkeypatch.setattr(atlas, "transition", lambda y, ch: stops.append(y) or transition(y, ch))
    state, ch = atlas.start_state([0.4, -0.3], 1.1)
    ok, s, defect, y, ych = first_return(atlas, state, ch, tol=1e-10)
    assert ok and defect < 1e-7 and abs(s - 2.0 * math.pi) < 1e-7
    assert len(stops) >= 1 and calls == [(0.0, 1.0 / 64.0)]
    assert all(np.hypot(*stop[:2]) > atlas.switch_radius for stop in stops)
    start = atlas.embed(state, ch)
    T0 = np.concatenate([start[3:], -start[:3]]) / math.sqrt(2.0)  # see the embed test
    assert abs(float((atlas.embed(y, ych) - start) @ T0)) <= 1e-15


def lane_by_lane(monkeypatch):
    """Make zoll run its stacks as the loop over their lanes."""
    monkeypatch.setattr(zoll, "over_points", lambda points, batch, one: [one(p) for p in points])


def sample_bits(rep):
    return [(s.returned, bits(s.arclength), bits(s.defect), s.note, s.chart, bits(s.state))
            for s in rep.samples]


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_stacked_returns_equal_lone_returns_bit_for_bit(monkeypatch):
    # lanes that transition at different times, and finish at different
    # arclengths, take the steps of their returns alone; so do lanes that
    # escape the plane's bound at different times
    atlas = SphereAtlas()
    transition, moves = atlas.transition, []
    monkeypatch.setattr(atlas, "transition", lambda y, ch: moves.append(ch) or transition(y, ch))
    stacked = [closedness_report(atlas, n_samples=n, tol=1e-10, seed=seed)
               for seed in (1, 2, 3) for n in (4, 12)]
    assert moves and all(rep.n_returned == rep.n_samples for rep in stacked)
    assert all(len({s.arclength for s in rep.samples}) > 1 for rep in stacked)
    # the plane's steps grow fourfold, so its lanes pass the bound mid-step
    # and end on it, each at its own arclength
    plane = SingleChartSpace(euclidean_metric(), bound=4.0)
    rng = np.random.default_rng(4)
    starts = [plane.start_state(rng.uniform(-2.0, 2.0, 2), psi)
              for psi in rng.uniform(0.0, 2.0 * math.pi, 5)]
    escapes = zoll._returns(plane, starts, 20.0, 1e-10)
    assert len({s for _, s, _, _, _ in escapes}) > 1
    lane_by_lane(monkeypatch)
    alone = [closedness_report(atlas, n_samples=n, tol=1e-10, seed=seed)
             for seed in (1, 2, 3) for n in (4, 12)]
    assert [sample_bits(r) for r in stacked] == [sample_bits(r) for r in alone]
    assert [r.max_defect for r in stacked] == [r.max_defect for r in alone]
    for got, start in zip(escapes, starts):
        want = first_return(plane, *start, max_arclength=20.0, tol=1e-10)
        assert got[:3] == want[:3] and got[4] == want[4] and bits(got[3]) == bits(want[3])
        assert not got[0] and abs(np.hypot(*got[3][:2]) - 4.0) < 1e-12


def test_a_raising_lane_gives_the_report_of_the_lone_loop(monkeypatch):
    # one lane's transition fails: the report reruns its samples one by one,
    # so the failing sample carries its own note and the others return.  The
    # failing lane is told by its great circle, whose normal p x t the flow
    # keeps
    atlas = SphereAtlas()
    rng = np.random.default_rng(5)
    starts = [atlas.start_state(rng.uniform(-1.0, 1.0, 2), psi)
              for psi in rng.uniform(0.0, 2.0 * math.pi, 4)]

    def normal(y, ch):
        return np.cross(*np.split(atlas.embed(y, ch), 2))

    target, transition = normal(*starts[2]), atlas.transition

    def failing(y, ch):
        if np.linalg.norm(normal(y, ch) - target) < 1e-6:
            raise GeometryError("forced transition failure", point=y)
        return transition(y, ch)

    monkeypatch.setattr(atlas, "transition", failing)
    monkeypatch.setattr(atlas, "start_state", lambda x, psi, it=iter(starts): next(it))
    rep = closedness_report(atlas, n_samples=4, tol=1e-10, seed=0)
    assert [s.returned for s in rep.samples] == [True, True, False, True]
    assert rep.samples[2].note.startswith("forced transition failure")
    lane_by_lane(monkeypatch)
    monkeypatch.setattr(atlas, "start_state", lambda x, psi, it=iter(starts): next(it))
    assert sample_bits(rep) == sample_bits(closedness_report(atlas, n_samples=4, tol=1e-10, seed=0))


def test_stacked_arcs_equal_lone_arcs_bit_for_bit(monkeypatch):
    stacked = central_projection_check(n_geodesics=12, seed=3)
    lane_by_lane(monkeypatch)
    alone = central_projection_check(n_geodesics=12, seed=3)
    assert stacked["n_arcs"] == alone["n_arcs"] > 1
    assert bits(stacked["residuals"]) == bits(alone["residuals"])


def test_return_locator_seeks_the_interpolant_root_to_the_section_rounding(monkeypatch):
    # the interpolant root is sought no closer than the section's rounding,
    # which a few trials reach (Illinois on a target of 1e-17 took 6 to 9
    # here), and the fresh steps then meet tol 1e-15
    trials = []
    illinois = flow._illinois

    def counted(trial, *args):
        count = [0]

        def counting(x):
            count[0] += 1
            return trial(x)

        out = illinois(counting, *args)
        trials.append(count[0])
        return out

    monkeypatch.setattr(flow, "_illinois", counted)
    atlas = SphereAtlas()
    rng = np.random.default_rng(1)
    for _ in range(4):
        trials.clear()
        state, ch = atlas.start_state(rng.uniform(-1.0, 1.0, 2), rng.uniform(0.0, 2.0 * math.pi))
        ok, s, defect, _, _ = first_return(atlas, state, ch, tol=1e-10)
        assert ok and defect < 1e-7 and abs(s - 2.0 * math.pi) < 1e-7
        assert len(trials) == 2 and trials[0] <= 4 and trials[1] <= 4


def test_return_gates_read_the_unit_vector_from_the_end_slopes(monkeypatch):
    # the gates embed a step's ends with the unit vector of the integrator's
    # end slopes, so a return embeds afresh only the start, its jets, the
    # locator's trials and the return point; the result is bit for bit that
    # of gates that embed every end afresh
    atlas = SphereAtlas()
    state, ch = atlas.start_state([0.4, -0.3], 1.1)
    embeds = []
    embed = atlas.embed
    monkeypatch.setattr(atlas, "embed", lambda *a, **kw: embeds.append(a) or embed(*a, **kw))
    got = first_return(atlas, state, ch, tol=1e-10)
    assert got[0] and len(embeds) <= 15
    fresh = SphereAtlas()
    with_slope = fresh.embed_with_slope

    def fresh_gates(y, slope, chart):
        # the gates pass V1(y) = (u, psidot); embed passes u alone
        return with_slope(y, getattr(fresh, chart).unit_vector(y) if len(slope) == 3 else slope,
                          chart)

    monkeypatch.setattr(fresh, "embed_with_slope", fresh_gates)
    want = first_return(fresh, state, ch, tol=1e-10)
    assert got[1:3] == want[1:3] and got[4] == want[4]
    assert got[3].tobytes() == want[3].tobytes()


def test_embed_and_its_jets_match_sympy():
    # the embedded tangent is the differential of inverse stereographic
    # projection applied to the g-unit vector at fiber angle psi, which for
    # the conformal round metric is (cos psi, sin psi) (|x|^2 + 1) / 2;
    # embed's six entries and their order-1 jets must match sympy's, and
    # the jets applied to V1 give d/ds (p, t) = (t, -p) along great circles,
    # the normal of the return's section
    x1, x2, psi = sp.symbols("x1 x2 psi")
    den = x1 ** 2 + x2 ** 2 + 1
    p = sp.Matrix([2 * x1 / den, 2 * x2 / den, (x1 ** 2 + x2 ** 2 - 1) / den])
    t = p.jacobian([x1, x2]) * sp.Matrix([sp.cos(psi), sp.sin(psi)]) * den / 2
    t = t / sp.sqrt(t.dot(t))
    atlas = SphereAtlas()
    rng = np.random.default_rng(12)
    for chart, flip in (("north", 1), ("south", -1)):
        e = sp.Matrix([p[0], p[1], flip * p[2], t[0], t[1], flip * t[2]])
        value = sp.lambdify((x1, x2, psi), e)
        partials = sp.lambdify((x1, x2, psi), e.jacobian([x1, x2, psi]))
        for _ in range(5):
            q = np.append(rng.uniform(-1.8, 1.8, 2), rng.uniform(0, 2 * math.pi))
            want = np.array(value(*q), dtype=float).ravel()
            assert np.max(np.abs(atlas.embed(q, chart) - want)) < 1e-14
            jets = atlas.embed(q, chart, order=1)
            assert np.max(np.abs([j.value for j in jets] - want)) < 1e-14
            got = np.array([j.gradient() for j in jets])
            assert np.max(np.abs(got - np.array(partials(*q), dtype=float))) < 1e-13
            along = got @ atlas.field(chart)(q)
            assert np.max(np.abs(along - np.concatenate([want[3:], -want[:3]]))) < 1e-13


def test_arc_samples_match_scipy(monkeypatch):
    # sample k of an arc is the integrator state at arclength k * arc /
    # n_points; on the unit sphere a geodesic solves p'' = -p in R^3, here
    # integrated by scipy from each arc's embedded start with t_eval at the
    # sample arclengths.  The arcs run as lanes: each lane's observer tags
    # the samples it takes, the first of them the start
    starts, points, lane = [], [], [None]
    geodesics, project = zoll._geodesics, zoll.central_projection

    def tagged(i, on_step):
        def observe(*args):
            lane[0] = i
            return on_step(*args)
        return observe

    def logged_geodesics(space, lanes, length, tol, on_steps):
        starts.extend(space.embed(state, chart) for state, chart in lanes)
        return geodesics(space, lanes, length, tol, [tagged(i, o) for i, o in enumerate(on_steps)])

    monkeypatch.setattr(zoll, "_geodesics", logged_geodesics)
    monkeypatch.setattr(zoll, "central_projection", lambda p: points.append((lane[0], p)) or project(p))
    arc, n_points = 1.2, 40
    central_projection_check(n_geodesics=6, seed=6, arc=arc, n_points=n_points)
    arcs = [[p for i, p in points if i == k] for k in range(len(starts))]
    assert len(starts) == 6 and max(map(len, arcs)) == n_points
    assert all(np.array_equal(samples[0], e0[:3]) for e0, samples in zip(starts, arcs))
    for e0, samples in zip(starts, arcs):
        s = np.arange(len(samples)) * (arc / n_points)
        sol = solve_ivp(lambda _, z: np.concatenate([z[3:], -z[:3]]), (0.0, s[-1]), e0,
                        method="DOP853", t_eval=s, rtol=1e-13, atol=1e-13)
        assert np.max(np.abs(np.array(samples) - sol.y[:3].T)) < 1e-9


def test_central_projection_keeps_a_nan_residual(monkeypatch):
    # a NaN line-fit residual on one arc must not vanish from the maximum
    fits, inner = [], zoll.line_fit_residual
    monkeypatch.setattr(zoll, "line_fit_residual",
                        lambda pts: math.nan if fits.append(pts) or len(fits) == 2 else inner(pts))
    rep = central_projection_check(n_geodesics=4, seed=1)
    assert len(fits) == 4 and math.isnan(rep["max_residual"])


def test_closedness_report_sphere_and_plane():
    atlas = SphereAtlas()
    rep = closedness_report(atlas, n_samples=6, tol=1e-10, seed=3)
    assert rep.n_returned == rep.n_samples
    assert rep.max_defect < 1e-6
    for s in rep.samples:
        assert abs(s.arclength - 2.0 * math.pi) < 1e-6
    plane = SingleChartSpace(euclidean_metric(), bound=12.0)
    rep = closedness_report(plane, n_samples=4, max_arclength=20.0, seed=4)
    assert rep.n_returned == 0


def test_an_escaping_lane_ends_where_its_line_crosses_the_bound():
    # on the plane a geodesic is the line x + s u, which leaves |x| < R at
    # s = -x.u + sqrt((x.u)^2 - |x|^2 + R^2); the lane ends there, on the
    # step that crosses, not at a later step end, and its note says so.  A
    # start beyond the bound ends at arclength 0
    plane = SingleChartSpace(euclidean_metric(), bound=12.0)
    x, psi = np.array([1.0, 0.5]), 0.3
    u = np.array([math.cos(psi), math.sin(psi)])
    s = -(x @ u) + math.sqrt((x @ u) ** 2 - x @ x + 144.0)
    ok, got, defect, y, chart = first_return(plane, *plane.start_state(x, psi), max_arclength=20.0)
    assert not ok and defect == math.inf and chart == "main"
    assert abs(got - s) < 1e-9 and np.max(np.abs(y[:2] - (x + s * u))) < 1e-9
    start = plane.start_state([12.5, -1.0], psi)
    ok, got, _, y, _ = first_return(plane, *start, max_arclength=20.0)
    assert not ok and got == 0.0 and bits(y) == bits(start[0])
    rep = closedness_report(plane, n_samples=4, max_arclength=20.0, seed=4)
    assert all(smp.note == "escaped beyond the bound" and smp.arclength < 20.0
               for smp in rep.samples)
    short = closedness_report(plane, n_samples=4, max_arclength=5.0, seed=4)
    assert all(smp.note == "no return within budget" for smp in short.samples)


def test_round_atlas_stack_makes_one_v1_call_per_stage(monkeypatch):
    # the inversion is an isometry of the stereographic round metric, so the
    # atlas's charts share one geodesic field, and lanes in both charts
    # share each V1 call; each lane still steps as it does alone
    atlas = SphereAtlas()
    assert atlas.north is atlas.south and atlas.field("north") is atlas.field("south")
    V1, v1_calls, stages = atlas.field("north"), [], []
    monkeypatch.setattr(atlas, "field", lambda chart: counted)

    def counted(p):
        v1_calls.append(np.shape(p))
        return V1(p)

    inner = zoll.integrate

    def logged(f, *args, **kw):
        return inner(lambda t, y: stages.append(len(y)) or f(t, y), *args, **kw)

    monkeypatch.setattr(zoll, "integrate", logged)
    rng = np.random.default_rng(8)
    starts = [(np.append(rng.uniform(-1.0, 1.0, 2), psi), chart)
              for psi, chart in zip(rng.uniform(0.0, 2.0 * math.pi, 4), ["north", "south"] * 2)]
    ends = zoll._geodesics(atlas, starts, 1.0, 1e-10, [lambda *step: False] * 4)
    assert stages[0] == 4 and len(v1_calls) == len(stages) and v1_calls[0] == (3, 4)
    monkeypatch.undo()
    for (s, y, chart), start in zip(ends, starts):
        alone = zoll._geodesics(atlas, [start], 1.0, 1e-10, [lambda *step: False])
        assert (s, chart) == alone[0][::2] and bits(y) == bits(alone[0][1])


def test_atlas_transition_consistency():
    # the embedded contact element is chart-independent across a transition
    atlas = SphereAtlas()
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = rng.uniform(2.1, 3.0)
        ang = rng.uniform(0, 2 * math.pi)
        y = np.array([r * math.cos(ang), r * math.sin(ang), rng.uniform(0, 2 * math.pi)])
        e0 = atlas.embed(y, "north")
        y2, ch2 = atlas.transition(y, "north")
        assert ch2 == "south"
        e1 = atlas.embed(y2, ch2)
        assert np.max(np.abs(e0 - e1)) < 1e-9


def test_central_projection_lines():
    assert np.allclose(central_projection([0.2, 0.4, 0.5]), [0.4, 0.8])
    with pytest.raises(GeometryError):
        central_projection([0.1, 0.2, -0.3])
    pts = [(t, 2.0 * t + 1.0) for t in np.linspace(0, 1, 7)]
    assert line_fit_residual(pts) < 1e-14
    rep = central_projection_check(n_geodesics=8, seed=6)
    assert rep["max_residual"] < 1e-8
    assert rep["n_arcs"] >= 5


def test_legendre_roundtrip_and_hamiltonian():
    rng = np.random.default_rng(7)
    metric = stereographic_sphere_metric()
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, 2)
        ray = rng.normal(size=2)
        p = legendre_ray_map(metric, x, ray)
        u = legendre_ray_map_inverse(metric, x, p)
        assert np.max(np.abs(u - ray / math.sqrt(ray @ metric.matrix(x) @ ray))) < 1e-12
        G = metric.matrix(x)
        # unit covector: g^ij p_i p_j = 1
        assert abs(p @ np.linalg.solve(G, p) - 1.0) < 1e-12
    # the Hamiltonian field projects to the ray direction
    x = np.array([0.3, -0.2])
    p = legendre_ray_map(metric, x, [1.0, 0.5])
    XH = kinetic_hamiltonian_field(metric, x, p)
    u = legendre_ray_map_inverse(metric, x, p)
    assert np.max(np.abs(XH[:2] - u)) < 1e-12


def test_geodesic_field_aligns_with_hamiltonian_field():
    metric = stereographic_sphere_metric()
    rng = np.random.default_rng(8)
    for _ in range(10):
        state = np.append(rng.uniform(-1.0, 1.0, 2), rng.uniform(0, 2 * math.pi))
        assert hamiltonian_alignment(metric, state) < 1e-6


def test_so3_bracket_table():
    K, I, J = so3_frame_fields()
    rng = np.random.default_rng(9)
    table = [(K, I, J), (I, J, K), (J, K, I)]
    for _ in range(10):
        p = rng.uniform(-0.4, 0.4, 3)
        for A, B, C in table:
            assert np.max(np.abs(lie_bracket(A, B)(p) - C(p))) < 1e-12


def test_so3_engel_frame():
    dom = so3_engel_frame()
    frame = dom.frame()
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = rng.uniform(-0.4, 0.4, 3)
        q = np.append(p, rng.uniform(0, 0.5 * math.pi))
        assert flag_ranks(frame, q).is_engel


def test_so3_base_point_on_sphere():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.uniform(-0.4, 0.4, 3)
        v = so3_base_point(p)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.allclose(so3_base_point([0.0, 0.0, 0.0]), [0, 0, 1])


def test_revolution_metric_meridians_close():
    # meridians (v = const through psi = 0) of a surface of revolution are
    # geodesics; on a torus-like profile they are closed in u only if the
    # profile is periodic, so instead check the geodesic equation directly
    metric = revolution_metric(lambda u: 2.0 + 0.0 * u)
    ut = UnitTangentChart(metric)
    # cylinder rho = 2: the circle u = const, psi = pi/2 has psidot = 0
    v = ut.V1([0.3, 0.1, 0.5 * math.pi])
    assert abs(v[0]) < 1e-14
    assert abs(v[2]) < 1e-14
    assert abs(v[1] - 0.5) < 1e-14  # coordinate speed 1/rho

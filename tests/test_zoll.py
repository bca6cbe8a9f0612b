"""Geodesic fields on unit tangent bundles, the SO(3) frame, closedness
measurements, central projection, and the Legendre ray map."""

import math

import numpy as np
import pytest

from engellab import zoll
from engellab.calculus import Chart, lie_bracket
from engellab.distributions import flag_ranks, is_contact
from engellab.errors import GeometryError
from engellab.flow import integrate
from engellab.jets import Jet
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
    return revolution_metric(lambda u: 2.0 + u.sin() if hasattr(u, "sin") else 2.0 + math.sin(u))


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
        for field, order in ((ut.V1, 0), (ut.V1, 1), (ut.alpha, 0), (ut.alpha, 1)):
            rows = np.array([[j.c for j in field.taylor(q, order)] for q in states])
            batch = np.array([np.broadcast_to(j.c, rows[:, 0].shape)
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


def test_return_refinement_stops_at_the_noise_floor(monkeypatch):
    # the Newton refinement of the return stops at the first step that does
    # not halve the section value f = (e - e(start)) . T0: below that, f is
    # rounding noise and further steps only walk on it
    calls = []
    inner = zoll._integrate_chunk

    def logged(space, state, chart, ds, tol):
        out = inner(space, state, chart, ds, tol)
        calls.append((ds, out))
        return out

    monkeypatch.setattr(zoll, "_integrate_chunk", logged)
    atlas = SphereAtlas()
    state, ch = atlas.start_state([0.4, -0.3], 1.1)
    ok, s, defect, _, _ = first_return(atlas, state, ch, tol=1e-10)
    assert ok and defect < 1e-7
    # calls: the two tangent probes at the start, the chunks, the two slope
    # probes at the capture, then one call per Newton step
    start = atlas.embed(state, ch)
    (_, plus), (_, minus) = calls[:2]
    T0 = atlas.embed(*plus) - atlas.embed(*minus)
    T0 /= np.linalg.norm(T0)
    last_chunk = max(i for i, (ds, _) in enumerate(calls) if ds == 0.25)
    states = [calls[last_chunk][1]] + [out for _, out in calls[last_chunk + 3:]]
    f = [abs(float((atlas.embed(*st) - start) @ T0)) for st in states]
    assert len(f) >= 2
    not_halved = [i for i in range(1, len(f)) if f[i] > 0.5 * f[i - 1]]
    assert not not_halved or not_halved[0] == len(f) - 1


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

"""Charts, fields, brackets, and flows against finite-difference and
scipy oracles."""

import math

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from engellab import calculus
from engellab.calculus import (Chart, OneForm, Point, ScalarField, VectorField,
                               constant_field, coordinate_field, evaluation_scope,
                               lie_bracket, lie_derivative_scalar)
from engellab.distributions import DistributionFrame, flag_ranks
from engellab.errors import ChartMismatchError, DerivativeOrderError, EngelLabError
from engellab.errors import IntegrationError
from engellab.jets import Jet, jet_bracket, multi_indices
from engellab.expressions import (one_form_from_exprs, scalar_field_from_expr,
                                  vector_field_from_exprs)
from engellab.flow import flow, flow_to_section, flow_transported, integrate

CH3 = Chart("c3", ("x", "y", "z"))
CH4 = Chart("c4", ("x", "y", "z", "w"))


def fd_bracket(X, Y, p, h=1e-6):
    """Central finite-difference Lie bracket [X, Y] at p."""
    p = np.asarray(p, dtype=float)
    n = len(p)
    DX = np.zeros((n, n))
    DY = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        DX[:, j] = (X(p + e) - X(p - e)) / (2 * h)
        DY[:, j] = (Y(p + e) - Y(p - e)) / (2 * h)
    return DY @ X(p) - DX @ Y(p)


def random_poly_field(chart, rng, degree=3):
    n = chart.dim
    coeffs = rng.uniform(-1, 1, (n, n + 1 + n))

    def comp(xs):
        out = []
        for i in range(n):
            acc = coeffs[i][0]
            for j in range(n):
                acc = acc + coeffs[i][1 + j] * xs[j] + coeffs[i][1 + n + j] * xs[j] * xs[(j + 1) % n]
            out.append(acc)
        return out

    return VectorField(chart, components=comp)


def test_point_validation():
    with pytest.raises(EngelLabError):
        Point(CH3, [1.0, 2.0])
    with pytest.raises(EngelLabError):
        Point(CH3, [1.0, np.inf, 0.0])


def test_bracket_matches_finite_differences():
    rng = np.random.default_rng(0)
    for chart in (CH3, CH4):
        for _ in range(50):
            X = random_poly_field(chart, rng)
            Y = random_poly_field(chart, rng)
            p = rng.uniform(-1, 1, chart.dim)
            got = lie_bracket(X, Y)(p)
            want = fd_bracket(X, Y, p)
            assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


def test_bracket_antisymmetry_and_self():
    rng = np.random.default_rng(1)
    X = random_poly_field(CH4, rng)
    p = [0.3, -0.2, 0.5, 0.1]
    assert np.max(np.abs(lie_bracket(X, X)(p))) == 0.0


def test_bracket_chart_mismatch():
    X = constant_field(CH3, [1, 0, 0])
    Y = constant_field(CH4, [1, 0, 0, 0])
    with pytest.raises(ChartMismatchError):
        lie_bracket(X, Y)


def test_jacobi_identity():
    rng = np.random.default_rng(2)
    X, Y, Z = (random_poly_field(CH3, rng) for _ in range(3))
    s = lie_bracket(X, lie_bracket(Y, Z)) + lie_bracket(Y, lie_bracket(Z, X)) \
        + lie_bracket(Z, lie_bracket(X, Y))
    for _ in range(10):
        p = rng.uniform(-1, 1, 3)
        assert np.max(np.abs(s(p))) < 1e-8


def test_known_brackets():
    # [d/dw, d/dx + w d/dy + y d/dz] = d/dy
    W = vector_field_from_exprs(CH4, ["0", "0", "0", "1"])
    Xf = vector_field_from_exprs(CH4, ["1", "w", "y", "0"])
    p = [0.4, -0.7, 0.2, 0.9]
    assert np.allclose(lie_bracket(W, Xf)(p), [0, 1, 0, 0])
    # [x d/dy, d/dx] = -d/dy
    A = vector_field_from_exprs(CH3, ["0", "x", "0"])
    B = vector_field_from_exprs(CH3, ["1", "0", "0"])
    assert np.allclose(lie_bracket(A, B)([0.5, 0.1, 0.0]), [0, -1, 0])


def test_field_taylor_value_consistency():
    rng = np.random.default_rng(3)
    X = random_poly_field(CH3, rng)
    p = [0.2, 0.3, -0.1]
    j2 = X.taylor(p, 2)
    assert np.allclose([j.value for j in j2], X(p))
    # mixed partials symmetric: coefficient storage makes this structural,
    # check through the jacobian against finite differences
    J = X.jacobian(p)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        assert np.max(np.abs(J[:, j] - (X(p + e) - X(p - e)) / (2 * h))) < 1e-6


def test_derivative_order_cap():
    X = VectorField(CH3, components=lambda xs: [xs[0], xs[1], xs[2]], max_order=1)
    with pytest.raises(DerivativeOrderError):
        X.taylor([0, 0, 0], 2)


def test_scalar_field_arithmetic():
    f = scalar_field_from_expr(CH3, "x*y + z")
    g = scalar_field_from_expr(CH3, "1 + x^2")
    p = [0.3, -0.5, 0.7]
    assert abs((f * g)(p) - f(p) * g(p)) < 1e-14
    assert abs((f + g)(p) - (f(p) + g(p))) < 1e-14
    assert abs((f - 2.0)(p) - (f(p) - 2.0)) < 1e-14
    assert abs((-f)(p) + f(p)) < 1e-14
    assert abs(g.reciprocal()(p) - 1.0 / g(p)) < 1e-14
    X = vector_field_from_exprs(CH3, ["y", "0", "x"])
    assert np.allclose((f * X)(p), f(p) * np.asarray(X(p)))
    assert abs(lie_derivative_scalar(X, f)(p) - (p[1] * p[1] + p[0])) < 1e-13

    # order-2 combinators against componentwise jet arithmetic, bit for bit
    # (Jet products are not commutative in the low bits: the scalar goes first)
    def same(field, want):
        got = field.taylor(p, 2)
        assert len(got) == len(want)
        assert all(a.order == 2 and a.max_coeff_diff(b) == 0.0 for a, b in zip(got, want))

    Y = vector_field_from_exprs(CH3, ["x*z", "sin(y)", "1 + y^2"])
    a = one_form_from_exprs(CH3, ["z", "x*y", "cos(x)"])
    b = one_form_from_exprs(CH3, ["1", "y^2", "exp(x)"])
    fj, gj = f.jet(p, 2), g.jet(p, 2)
    Xj, Yj, aj, bj = (F.taylor(p, 2) for F in (X, Y, a, b))
    same(X + Y, [x + y for x, y in zip(Xj, Yj)])
    same(X - Y, [x - y for x, y in zip(Xj, Yj)])
    same(X * 2.5, [x * 2.5 for x in Xj])
    same(2.5 * X, [x * 2.5 for x in Xj])
    same(X * f, [fj * x for x in Xj])
    same(f * X, [fj * x for x in Xj])
    same(a + b, [x + y for x, y in zip(aj, bj)])
    same(a * 2.5, [x * 2.5 for x in aj])
    same(a * f, [fj * x for x in aj])
    same(f * a, [fj * x for x in aj])
    same(f * g, [fj * gj])
    same(g * f, [gj * fj])
    same(f + 1.5, [fj + 1.5])
    same(1.5 + f, [fj + 1.5])
    same(f - 1.5, [fj - 1.5])
    same(g.reciprocal(), [gj.reciprocal()])
    assert isinstance(a + b, OneForm) and isinstance(f * a, OneForm)
    assert isinstance(f * X, VectorField) and isinstance(f * g, ScalarField)

    # the result is evaluable to the smallest operand cap
    X3 = VectorField(CH3, components=X.components, max_order=3)
    a3 = OneForm(CH3, components=a.components, max_order=3)
    f2 = ScalarField(CH3, components=f.components, max_order=2)
    assert (X3 + Y).max_order == 3 and (Y - X3).max_order == 3
    assert (X3 * 2.0).max_order == 3 and (X3 * f2).max_order == 2
    assert (a3 + b).max_order == 3 and (f2 * a3).max_order == 2
    assert (f2 * g).max_order == 2 and (g + f2).max_order == 2
    assert (f2 + 1.0).max_order == 2 and f2.reciprocal().max_order == 2
    with pytest.raises(DerivativeOrderError):
        (X3 * f2).taylor(p, 3)

    other = Chart("other", ("x", "y", "z"))
    Xo = vector_field_from_exprs(other, ["1", "0", "0"])
    ao = one_form_from_exprs(other, ["1", "0", "0"])
    fo = scalar_field_from_expr(other, "x")
    for combine in (lambda: X + Xo, lambda: X - Xo, lambda: X * fo, lambda: fo * X,
                    lambda: a + ao, lambda: a * fo, lambda: f * fo, lambda: f + fo):
        with pytest.raises(ChartMismatchError):
            combine()


def counting_field(chart, calls, rule):
    """A taylor_fn field computing ``rule`` on jet seeds that records each
    (order, point) it is evaluated at."""

    def tfn(coords, order):
        calls[(order, tuple(coords))] += 1
        return rule(Jet.seeds(coords, order))

    return VectorField(chart, taylor_fn=tfn, name="leaf")


def test_memo_evaluates_shared_leaf_once_per_taylor_call():
    calls = Counter()
    L = counting_field(CH4, calls, lambda s: [1.0 + 0.0 * s[0], s[3], s[1], 0.0 * s[0]])
    W = coordinate_field(CH4, 3)
    s = scalar_field_from_expr(CH4, "1 + x*w")
    C = (W + L) + L * s - L * 0.5
    p = [0.3, -0.2, 0.5, 0.1]
    got = C.taylor(p, 2)
    assert calls == {(2, tuple(p)): 1}
    # the same jets as the composite evaluated from its parts, bit for bit
    w, l, sj = W.taylor(p, 2), L.taylor(p, 2), s.jet(p, 2)
    want = [(a + b) + sj * b - b * 0.5 for a, b in zip(w, l)]
    assert [g.c for g in got] == [v.c for v in want]


def test_memo_evaluates_shared_leaf_once_per_flag_point():
    # frame {W + L, L} spans the standard Engel plane; L is the leaf of the
    # composite field, of both frame slots and of every bracket
    calls = Counter()
    L = counting_field(CH4, calls, lambda s: [1.0 + 0.0 * s[0], s[3], s[1], 0.0 * s[0]])
    W = coordinate_field(CH4, 3)
    frame = DistributionFrame([W + L, L])
    p = [0.3, -0.2, 0.5, 0.1]
    assert flag_ranks(frame, p).ranks == (2, 3, 4)
    assert calls == {(k, tuple(p)): 1 for k in (0, 1, 2)}
    calls.clear()
    q = [0.1, 0.4, -0.3, 0.7]
    flag_ranks(frame, p)
    flag_ranks(frame, q)
    assert calls == {(k, tuple(x)): 1 for k in (0, 1, 2) for x in (p, q)}


def test_memo_separates_points_in_one_scope():
    calls = Counter()
    L = counting_field(CH3, calls, lambda s: [s[0] * s[1], s[2], s[0] + 1.0])
    p, q = [0.2, 0.3, -0.1], [0.2, 0.3, 0.4]
    alone = [[j.c for j in L.taylor(x, 1)] for x in (p, q)]
    calls.clear()
    with evaluation_scope():
        shared = [[j.c for j in L.taylor(x, 1)] for x in (p, q, p, q)]
    assert shared == alone + alone
    assert calls == {(1, tuple(p)): 1, (1, tuple(q)): 1}


def test_memo_scope_closes_on_return_and_on_error():
    L = counting_field(CH3, Counter(), lambda s: [s[0], s[1], s[2]])
    lie_bracket(L, L * 2.0).taylor([0.1, 0.2, 0.3], 1)
    assert calculus._MEMO.get() is None

    def failing(coords, order):
        raise EngelLabError("rule failed")

    bad = L + VectorField(CH3, taylor_fn=failing)
    with pytest.raises(EngelLabError):
        bad.taylor([0.1, 0.2, 0.3], 1)
    assert calculus._MEMO.get() is None
    with pytest.raises(EngelLabError):
        with evaluation_scope():
            L.taylor([0.1, 0.2, 0.3], 1)
            bad([0.1, 0.2, 0.3])
    assert calculus._MEMO.get() is None


def _jet_fields(n, order):
    """Strategy: tuples of n random polynomial jets (one vector field)."""
    idx = multi_indices(n, order)
    coeffs = st.lists(st.floats(-1.0, 1.0), min_size=len(idx), max_size=len(idx))
    return st.lists(coeffs, min_size=n, max_size=n).map(
        lambda rows: [Jet(n, order, dict(zip(idx, row))) for row in rows])


def _max_coeff(jets):
    return max((abs(v) for j in jets for v in j.c.values()), default=0.0)


@settings(max_examples=40, deadline=None)
@given(_jet_fields(3, 3), _jet_fields(3, 3), _jet_fields(3, 3))
def test_jet_bracket_antisymmetry_and_jacobi(X, Y, Z):
    B = jet_bracket(X, Y)
    assert _max_coeff([a + b for a, b in zip(B, jet_bracket(Y, X))]) < 1e-12
    assert _max_coeff(jet_bracket(X, X)) == 0.0
    cyc = [jet_bracket(X, jet_bracket(Y, Z)), jet_bracket(Y, jet_bracket(Z, X)),
           jet_bracket(Z, jet_bracket(X, Y))]
    total = [a + b + c for a, b, c in zip(*cyc)]
    assert all(j.order == 1 for j in total)
    assert _max_coeff(total) < 1e-10


def test_flow_constant_and_rotation():
    X = constant_field(CH4, [1, 0, 0, 0])
    res = flow(X, [0, 0, 0, 0], 1.0)
    assert np.allclose(res.endpoint.coords, [1, 0, 0, 0], atol=1e-12)
    ch2 = Chart("plane", ("x", "y"))
    R = vector_field_from_exprs(ch2, ["-y", "x"])
    res = flow(R, [1.0, 0.0], math.pi / 2, tol=1e-11)
    assert np.allclose(res.endpoint.coords, [0.0, 1.0], atol=1e-9)


def test_flow_composition():
    rng = np.random.default_rng(4)
    X = random_poly_field(CH3, rng)
    p = [0.1, 0.2, 0.0]
    tol = 1e-10
    a = flow(X, flow(X, p, 0.3, tol=tol).endpoint, 0.45, tol=tol).endpoint.coords
    b = flow(X, p, 0.75, tol=tol).endpoint.coords
    assert np.max(np.abs(a - b)) < 10 * tol * 100


def test_flow_against_scipy():
    rng = np.random.default_rng(5)
    X = random_poly_field(CH3, rng)
    p = np.array([0.1, -0.2, 0.3])
    t = 0.8
    got = flow(X, p, t, tol=1e-11).endpoint.coords
    ref = solve_ivp(lambda s, y: X(y), (0, t), p, rtol=1e-11, atol=1e-12).y[:, -1]
    assert np.max(np.abs(got - ref)) < 1e-8


def test_flow_bounds_enforced():
    ch = Chart("bounded", ("x",), bounds=((-1.0, 1.0),))
    X = constant_field(ch, [1.0])
    with pytest.raises(IntegrationError):
        flow(X, [0.0], 5.0)


def test_integrate_rejects_nonfinite_rhs():
    # a NaN error estimate compares false against every tolerance; the step
    # controller must stop instead of growing the step forever
    with pytest.raises(IntegrationError):
        integrate(lambda t, y: np.array([np.nan]), [0.0], 0.0, 1.0)


def test_transport_matches_analytic_jacobian():
    # linear field: transport is the matrix exponential
    ch2 = Chart("plane", ("x", "y"))
    A = np.array([[0.3, -1.0], [1.0, 0.2]])
    X = VectorField(ch2, components=lambda xs: [A[0, 0] * xs[0] + A[0, 1] * xs[1],
                                                A[1, 0] * xs[0] + A[1, 1] * xs[1]])
    res = flow_transported(X, [0.5, 0.2], 0.7, np.eye(2), tol=1e-11)
    from scipy.linalg import expm
    assert np.max(np.abs(res.transport - expm(0.7 * A))) < 1e-8


def test_flow_to_section_circle():
    ch2 = Chart("plane", ("x", "y"))
    R = vector_field_from_exprs(ch2, ["-y", "x"])
    res = flow_to_section(R, [1.0, -0.3], lambda y: float(y[1]), tol=1e-11,
                          min_time=1e-3, max_time=10.0)
    assert abs(res.endpoint.coords[1]) < 1e-9
    assert res.time < math.pi  # first crossing, not a later one

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
from engellab.calculus import (Chart, OneForm, ScalarField, VectorField,
                               constant_field, coordinate_field, evaluation_scope,
                               lie_bracket, lie_derivative_scalar)
from engellab.distributions import DistributionFrame, flag_ranks, reeb_field
from engellab.errors import ChartMismatchError, DerivativeOrderError, EngelLabError
from engellab.errors import IntegrationError
from engellab import jets
from engellab.jets import Jet, gradient, jet_bracket, multi_indices, sin, value
from engellab.expressions import (one_form_from_exprs, scalar_field_from_expr,
                                  vector_field_from_exprs)
from engellab.cli import _base_contact
from engellab.flow import _augmented_rhs, _field_rhs, flow, flow_to_section, integrate
from engellab.prolongation import contactify, lift, prolong
from engellab.zoll import SphereAtlas

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


def test_fields_reject_coordinates_of_the_wrong_shape():
    # an (N, dim) stack of points is not a (dim, N) batch: read as N
    # coordinates it would seed jets in N variables
    X = vector_field_from_exprs(CH3, ["y*z", "-x", "1"])
    for coords in (np.arange(15.0).reshape(5, 3), np.zeros((3, 2, 2)), np.zeros(4), 1.0):
        for call in (X, lambda c: X.taylor(c, 1)):
            with pytest.raises(EngelLabError, match=r"need \(3,\) for a point or \(3, N\)"):
                call(coords)
    assert X(np.zeros(3)).shape == (3,)
    assert X(np.arange(15.0).reshape(5, 3).T).shape == (3, 5)


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
    # jets.MAX_ORDER is the one order cap: a component rule asked above it
    # raises, at a point and over a batch, and so does a bracket at it, since
    # it reads its arguments one order higher
    X = VectorField(CH3, components=lambda xs: [xs[0], xs[1], xs[2]])
    Y = VectorField(CH3, components=lambda xs: [xs[1] * xs[2], -xs[0], 1.0])
    top = jets.MAX_ORDER
    for coords in ([0.1, 0.2, 0.3], np.arange(12.0).reshape(3, 4) / 10.0):
        assert X.taylor(coords, top)[0].order == top
        with pytest.raises(DerivativeOrderError):
            X.taylor(coords, top + 1)
        assert lie_bracket(X, Y).taylor(coords, top - 1)[0].order == top - 1
        with pytest.raises(DerivativeOrderError):
            lie_bracket(X, Y).taylor(coords, top)


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
    # (Jet products are not commutative in the low bits: the scalar goes
    # first); a component that stays a number (X's "0") is compared as the
    # constant jet it stands for, with its derivatives 0.0
    def same(field, want):
        got = field.taylor(p, 2)
        assert len(got) == len(want)
        assert all(_constant_jet(a, 2).order == 2
                   and _constant_jet(a, 2).max_coeff_diff(_constant_jet(b, 2)) == 0.0
                   for a, b in zip(got, want))
        assert all(isinstance(a, Jet) or gradient(a, 3) == [0.0] * 3 for a in got)

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
    assert _bits(got) == _bits(want)
    # a value at a lone point shares the leaf too, and reads no jets of C
    calls.clear()
    values = C(p)
    assert calls == {(0, tuple(p)): 1}
    assert [float(v).hex() for v in values] == [j[(0,) * 4].hex() for j in want]


def test_memo_evaluates_shared_leaf_once_per_flag_point():
    # frame {W + L, L} spans the standard Engel plane; L is the leaf of the
    # composite field, of both frame slots and of every bracket
    calls = Counter()
    L = counting_field(CH4, calls, lambda s: [1.0 + 0.0 * s[0], s[3], s[1], 0.0 * s[0]])
    W = coordinate_field(CH4, 3)
    frame = DistributionFrame([W + L, L])
    p = [0.3, -0.2, 0.5, 0.1]
    assert flag_ranks(frame, p).ranks == (2, 3, 4)
    assert calls == {(2, tuple(p)): 1}
    calls.clear()
    q = [0.1, 0.4, -0.3, 0.7]
    flag_ranks(frame, p)
    flag_ranks(frame, q)
    assert calls == {(2, tuple(x)): 1 for x in (p, q)}


def test_memo_separates_points_in_one_scope():
    calls = Counter()
    L = counting_field(CH3, calls, lambda s: [s[0] * s[1], s[2], s[0] + 1.0])
    p, q = [0.2, 0.3, -0.1], [0.2, 0.3, 0.4]
    alone = [[j.c.tolist() for j in L.taylor(x, 1)] for x in (p, q)]
    calls.clear()
    with evaluation_scope():
        shared = [[j.c.tolist() for j in L.taylor(x, 1)] for x in (p, q, p, q)]
    assert shared == alone + alone
    assert calls == {(1, tuple(p)): 1, (1, tuple(q)): 1}


def test_memo_separates_a_point_from_a_one_point_batch():
    # (4,) and (4, 1) coordinates have the same bytes; they are different
    # evaluations, one on floats and one on arrays
    calls = Counter()

    def tfn(coords, order):
        calls[(order, coords.shape)] += 1
        return Jet.seeds(coords, order)

    L = VectorField(CH4, taylor_fn=tfn)
    p = np.array([0.3, -0.2, 0.5, 0.1])
    with evaluation_scope():
        one, batch = L.taylor(p, 1), L.taylor(p[:, None], 1)
        assert L.taylor(p, 1)[0].c is one[0].c
        assert L.taylor(p[:, None], 1)[0].c is batch[0].c
    assert calls == {(1, (4,)): 1, (1, (4, 1)): 1}
    assert isinstance(one[2].value, float)
    assert batch[2].value.shape == (1,) and batch[2].value[0] == one[2].value
    assert L(p[:, None]).shape == (4, 1)


def test_flag_batch_evaluates_shared_leaf_once_per_order():
    # the frame of test_memo_evaluates_shared_leaf_once_per_flag_point at five
    # points: one batch evaluation at order 2, no point-by-point re-run
    calls = Counter()

    def tfn(coords, order):
        calls[(order, coords.shape)] += 1
        s = Jet.seeds(coords, order)
        return [1.0 + 0.0 * s[0], s[3], s[1], 0.0 * s[0]]

    L = VectorField(CH4, taylor_fn=tfn)
    frame = DistributionFrame([coordinate_field(CH4, 3) + L, L])
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, (5, 4))
    assert [r.ranks for r in flag_ranks(frame, pts)] == [(2, 3, 4)] * 5
    assert calls == {(2, (4, 5)): 1}


def test_memo_serves_lower_orders_as_slices_of_the_highest():
    # within a scope a field is evaluated at the highest order asked so far;
    # a lower order is a truncation of those jets, bit for bit the jets a
    # fresh evaluation at that order gives (at order 0, the values)
    calls = Counter()
    L = counting_field(CH3, calls, lambda s: [s[0] * s[1], sin(s[2] + 0.5),
                                              s[0] / (2.0 + s[1])])
    p = [0.2, 0.3, -0.1]
    fresh = {k: _bits(L.taylor(p, k)) for k in (0, 1, 2, 3)}
    calls.clear()
    with evaluation_scope():
        got = [L.taylor(p, k) for k in (2, 0, 1, 2)]
        assert calls == {(2, tuple(p)): 1}
        # a higher order evaluates again and replaces the entry
        got += [L.taylor(p, k) for k in (3, 1, 3)]
    assert calls == {(2, tuple(p)): 1, (3, tuple(p)): 1}
    assert [_bits(j) for j in got] == [fresh[k] for k in (2, 0, 1, 2, 3, 1, 3)]


def test_d_matrix_is_antisymmetric_and_batch_rows_equal_points():
    alpha = one_form_from_exprs(CH3, ["-y*exp(x) + z^2", "sin(x*z)", "exp(x) + x*y/(2 + z)"])
    pts = np.random.default_rng(14).uniform(-1.0, 1.0, (4, 3))
    def coeffs(j):  # order 0 is values: one coefficient, the value
        return j.c if isinstance(j, Jet) else np.asarray(j)[..., None]

    for order in (0, 1, 2):
        batch = alpha.d_matrix(np.ascontiguousarray(pts.T), order)
        for r, p in enumerate(pts):
            M, a = alpha.d_matrix(p, order), alpha.taylor(p, order + 1)
            for i in range(3):
                # the diagonal is the number +0.0, the zero constant jet's
                # value, whose derivatives read 0.0 as that jet's terms do
                diagonal = _constant_jet(M[i][i], order)
                assert getattr(diagonal, "order", 0) == order and not np.any(coeffs(diagonal))
                assert isinstance(M[i][i], float) and M[i][i].hex() == "0x0.0p+0"
                assert gradient(M[i][i], 3) == [0.0] * 3
                for j in range(3):
                    want = coeffs(_constant_jet(M[i][j], order))
                    got = np.broadcast_to(coeffs(_constant_jet(batch[i][j], order)),
                                          (len(pts), want.shape[-1]))
                    assert got[r].tobytes() == want.tobytes()
                    if i < j:
                        assert coeffs(M[j][i]).tobytes() == (-coeffs(M[i][j])).tobytes()
                        assert _bits([M[i][j]]) == _bits([a[j].derivative(i) - a[i].derivative(j)])


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
    return max((abs(v) for j in jets for _, v in j.items()), default=0.0)


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


def _constant_jet(x, order, n=3):
    """A jet as it is; a number as the constant jet that it stands for at
    ``order`` (at order 0, as it is): its value the number's bits, its other
    terms +0.0."""
    return x if isinstance(x, Jet) or order == 0 else Jet(n, order, {(0,) * n: x})


def _bits(jets):
    """Order and every term's bits; order 0 is values, one term each."""
    return [(j.order, [(k, float(v).hex()) for k, v in j.items()]) if isinstance(j, Jet)
            else (0, [((0,) * 3, float(j).hex())]) for j in jets]


def _former_evaluation(raw, n, order):
    """The former ``_FieldBase._evaluate`` loop: every component through
    ``Jet.constant`` (floats) and one more ``truncated(order)`` copy; order 0
    is values, each ``0.0 + value``."""
    if order == 0:
        return [0.0 + value(j) for j in raw]
    return [(j if isinstance(j, Jet) else Jet.constant(float(j), n, order)).truncated(order)
            for j in raw]


_CONSTANTS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 3, 1e-300])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), st.integers(0, 2),
       st.lists(_CONSTANTS, min_size=3, max_size=3), st.integers(0, 1))
def test_field_evaluation_bit_for_bit(coords, order, consts, extra):
    # constant fields, rule fields mixing jets and floats, and taylor_fn
    # fields returning jets above, at and below the requested order: values,
    # signs of zeros and key order equal the former evaluation's, which
    # wrapped a number as a constant jet; a number now stays a number, the
    # value of that jet bit for bit, with derivatives 0.0
    a, b, c = consts

    def rule(xs):
        return [xs[0] * xs[1] + a, b, sin(xs[2] * 0.5 + c)]

    def tfn(coords_, order_):
        seeds = Jet.seeds(coords_, order_ + extra)
        return [seeds[0] * seeds[2], c, Jet.constant(a, 3, max(order_ - extra, 0))]

    cases = [(constant_field(CH3, consts), lambda o: list(consts)),
             (VectorField(CH3, components=rule), lambda o: rule(Jet.seeds(coords, o))),
             (VectorField(CH3, taylor_fn=tfn), lambda o: tfn(np.asarray(coords), o))]
    for field, raw in cases:
        got = field.taylor(coords, order)
        former = _former_evaluation(raw(order), 3, order)
        assert _bits([_constant_jet(j, order) for j in got]) == _bits(former)
        assert [isinstance(j, Jet) for j in got] == [
            isinstance(j, Jet) and order > 0 for j in raw(order)]
        assert all(gradient(j, 3) == [0.0] * 3 for j in got if not isinstance(j, Jet))
        assert all(getattr(j, "order", 0) <= order for j in got)
        if field.taylor_fn is not None:  # a component rule runs on floats at a point
            want = _former_evaluation(raw(0), 3, 0)
            assert _hex(field(coords)) == _hex(want)


def _hex(values):
    return [float(v).hex() for v in values]


def test_lone_point_values_equal_jet_values_bit_for_bit():
    # at a point, a field's values come from its rule's outputs with no jets
    # around them; they are its order-0 evaluation (values) and the batch
    # rows, signs of zeros included (a number v reads as 0.0 + v).  A
    # component rule that divides and takes powers runs on floats at order 0
    # as at a point (x / 3 is not x * (1/3) in every bit), at the first point,
    # where y = -0.0 (a call and order 0 alike run the rule on 0.0 + y), and
    # at 2000 points more
    def numbers(coords, order):
        return [-0.0, 3, np.float64(-2.5)]

    def seeded(coords, order):
        x, y, z = Jet.seeds(coords, order)
        return [x * y, -z, x * 0.0 - 0.0 * y]

    def mixed(coords, order):
        x, y, z = Jet.seeds(coords, order)
        return [-0.0, sin(x * z), 0.5 * coords[1] - 0.0]

    atlas = SphereAtlas()
    rng = np.random.default_rng(19)
    pts = np.column_stack([rng.uniform(-1.5, 1.5, (5, 2)), rng.uniform(-3.0, 3.0, 5)])
    # the first point is where mixed's 0.5 * y - 0.0 is -0.0, which reads
    # +0.0 at the point and in its batch row alike
    pts = np.vstack([[0.0, -0.0, 0.7], pts])
    dividing = vector_field_from_exprs(CH3, ["x/3", "y/(1+z*z)", "z^3"])
    fields = [atlas.field("north"), atlas.field("south"),
              constant_field(CH3, [-0.0, 0.0, 2.0])] + [
        VectorField(CH3, taylor_fn=tfn) for tfn in (numbers, seeded, mixed)] + [dividing]
    many = np.column_stack([rng.uniform(-1.5, 1.5, (2000, 2)), rng.uniform(-3.0, 3.0, 2000)])
    for field, points in [(f, pts) for f in fields] + [(dividing, many)]:
        batch = field(np.ascontiguousarray(points.T))
        jets = field.taylor(np.ascontiguousarray(points.T), 0)
        for k, (p, row) in enumerate(zip(points, batch.T)):
            got = field(p)
            assert isinstance(got, np.ndarray) and got.shape == (3,)
            assert _hex(got) == _hex(field.taylor(p, 0)) == _hex(row)
            assert _hex(row) == _hex([np.broadcast_to(j, len(points))[k] for j in jets])
    assert _hex(fields[2](pts[1])) == _hex([0.0, 0.0, 2.0])
    assert _hex(fields[3](pts[1])) == _hex([0.0, 3.0, -2.5])
    s = ScalarField(CH3, taylor_fn=lambda c, o: [-0.0])
    assert _hex([s(pts[1])]) == _hex([0.0]) and isinstance(s(pts[1]), float)


def _order_zero_fields():
    """A component rule, a taylor_fn field, a combinator, a lift, a bracket
    and a Reeb field, with the lift's chart."""
    rule = vector_field_from_exprs(CH3, ["x*y + z", "sin(z) - x", "x/(2 + y)"], name="rule")

    def tfn(coords, order):
        x, y, z = Jet.seeds(coords, order)
        return [x * y - z, jets.exp(0.5 * x) + y, z * z - x]

    seeded = VectorField(CH3, taylor_fn=tfn, name="seeded")
    f = scalar_field_from_expr(CH3, "1 + 0.1*x*z", name="f")
    alpha = one_form_from_exprs(CH3, ["-y + 0.1*z*z", "0.2*x", "1 + 0.1*x*y"], name="alpha")
    chart4 = Chart("c3_x_S1", CH3.coords + ("theta",))
    return [rule, seeded, f * rule + seeded, lie_bracket(rule, seeded), reeb_field(alpha),
            lift(chart4, seeded)], chart4


def test_order_zero_is_values():
    # taylor(p, 0) gives the components' values and no jets: floats at a
    # point, (N,) arrays over a batch, bit for bit the field's call there; a
    # number in every row (the lift's vertical 0.0) stays a float
    fields, chart4 = _order_zero_fields()
    rng = np.random.default_rng(22)
    pts = rng.uniform(-0.5, 0.5, (5, 3))
    for field in fields:
        dim = field.chart.dim
        ps = pts if dim == 3 else np.column_stack([pts, rng.uniform(0, 1, 5)])
        batch = field.taylor(np.ascontiguousarray(ps.T), 0)
        constant = [0.0] if field.chart is chart4 else []
        assert [v for v in batch if not isinstance(v, np.ndarray)] == constant, field.name
        assert all(v.shape == (5,) for v in batch if isinstance(v, np.ndarray)), field.name
        for k, p in enumerate(ps):
            got = field.taylor(p, 0)
            assert all(isinstance(v, float) for v in got), field.name
            assert _hex(got) == _hex(field(p)) == _hex([np.broadcast_to(v, 5)[k] for v in batch])


def test_no_code_path_builds_a_jet_of_order_zero(monkeypatch):
    # every kernel result and constructor is counted: order-0 evaluations,
    # brackets of order-1 jets, flag points and batches, the contactified
    # frame, the deformation generator, a Moser right-hand side and the
    # geodesic field build no order-0 jet; and none can be built
    from engellab import cli, deformation, prolongation

    built = Counter()
    make, init = jets._jet, Jet.__init__

    def counted(n, order, c):
        built[order] += 1
        return make(n, order, c)

    def constructed(self, n, order, coeffs=None):
        built[order] += 1
        return init(self, n, order, coeffs)

    for module in (jets, prolongation, deformation):
        monkeypatch.setattr(module, "_jet", counted)
    monkeypatch.setattr(Jet, "__init__", constructed)
    fields, _ = _order_zero_fields()
    pts = np.random.default_rng(23).uniform(-0.5, 0.5, (4, 3))
    for field in fields:
        ps = pts if field.chart.dim == 3 else np.column_stack([pts, np.full(4, 0.3)])
        field.taylor(ps[0], 0)
        field(ps[0])
        field.taylor(np.ascontiguousarray(ps.T), 0)
        field(np.ascontiguousarray(ps.T))
    dom = prolong(_base_contact({})[0])
    qs = np.column_stack([pts, np.linspace(0.2, 1.2, 4)])
    flag_ranks(dom.frame(), qs[0])
    flag_ranks(dom.frame(), qs)
    induced = contactify(dom.frame(), dom.theta_slice(0.7))
    induced.plane_basis(pts[0])
    induced.plane_basis(pts)
    h = scalar_field_from_expr(dom.chart, "0.05*sin(x) + 0.04*z*cos(y) + 0.03*y", name="h")
    gen = deformation.ContactIsotopyGenerator(dom, h, (0.25, 1.3))
    gen.X(qs[0])
    gen.X(np.ascontiguousarray(qs.T))
    L = constant_field(cli.CONTACT_CHART, [0.0, 1.0, 0.0])
    sol = deformation.gray_solve(cli._gray_path({})[0], L, np.linspace(0.0, 0.3, 5), pts)
    sol._rhs(0)(0.15, np.append(pts[0], 0.0))
    SphereAtlas().field("north")(np.array([0.4, -0.3, 1.1]))
    assert built[0] == 0 and built[1] > 0
    with pytest.raises(DerivativeOrderError):
        Jet(3, 0)


def test_lone_point_call_closes_its_scope_on_return_and_on_error():
    L = counting_field(CH3, Counter(), lambda s: [s[0], s[1], s[2]])
    (L * 2.0)([0.1, 0.2, 0.3])
    assert calculus._MEMO.get() is None

    def failing(coords, order):
        raise EngelLabError("rule failed")

    bad = L + VectorField(CH3, taylor_fn=failing)
    with pytest.raises(EngelLabError):
        bad([0.1, 0.2, 0.3])
    assert calculus._MEMO.get() is None
    assert bad._plans == {}  # a failed call records no plan
    wrong = VectorField(CH3, taylor_fn=lambda c, o: [1.0, 2.0])
    with pytest.raises(EngelLabError, match="2 components, expected 3"):
        wrong([0.1, 0.2, 0.3])
    assert calculus._MEMO.get() is None


def test_single_lane_right_hand_sides_build_few_jets(monkeypatch):
    # the jets one right-hand side builds as integrate calls it: the geodesic
    # field V1 reads the metric's order-1 jets and computes on floats; the
    # variational equation of d/dtheta needs only its four constant jets
    from engellab import jets

    built, calls = [0], [0]
    make = jets._jet

    def counted_jet(*args):
        built[0] += 1
        return make(*args)

    def counted(f):
        def rhs(t, y):
            calls[0] += 1
            return f(t, y)
        return rhs

    vertical = prolong(_base_contact({})[0]).vertical
    y0 = np.concatenate([[0.2, -0.1, 0.3, 0.5], np.eye(4)[:, :2].ravel()])
    for f, y, cap in ((_field_rhs(SphereAtlas().field("north")), [0.4, -0.3, 1.1], 12),
                      (_augmented_rhs(vertical, 4, 2), y0, 4)):
        built[0] = calls[0] = 0
        monkeypatch.setattr(jets, "_jet", counted_jet)
        integrate(counted(f), np.asarray(y, dtype=float), 0.0, 0.5, tol=1e-9)
        monkeypatch.undo()
        assert calls[0] > 6 and built[0] <= cap * calls[0]


def test_flow_constant_and_rotation():
    X = constant_field(CH4, [1, 0, 0, 0])
    res = flow(X, [0, 0, 0, 0], 1.0)
    assert np.allclose(res.endpoint, [1, 0, 0, 0], atol=1e-12)
    ch2 = Chart("plane", ("x", "y"))
    R = vector_field_from_exprs(ch2, ["-y", "x"])
    res = flow(R, [1.0, 0.0], math.pi / 2, tol=1e-11)
    assert np.allclose(res.endpoint, [0.0, 1.0], atol=1e-9)


def test_flow_composition():
    rng = np.random.default_rng(4)
    X = random_poly_field(CH3, rng)
    p = [0.1, 0.2, 0.0]
    tol = 1e-10
    a = flow(X, flow(X, p, 0.3, tol=tol).endpoint, 0.45, tol=tol).endpoint
    b = flow(X, p, 0.75, tol=tol).endpoint
    assert np.max(np.abs(a - b)) < 10 * tol * 100


def test_flow_against_scipy():
    rng = np.random.default_rng(5)
    X = random_poly_field(CH3, rng)
    p = np.array([0.1, -0.2, 0.3])
    t = 0.8
    got = flow(X, p, t, tol=1e-11).endpoint
    ref = solve_ivp(lambda s, y: X(y), (0, t), p, rtol=1e-11, atol=1e-12).y[:, -1]
    assert np.max(np.abs(got - ref)) < 1e-8


def test_integrate_rejects_nonfinite_rhs():
    # a NaN error estimate compares false against every tolerance; the step
    # controller must stop instead of growing the step forever
    with pytest.raises(IntegrationError):
        integrate(lambda t, y: np.array([np.nan]), [0.0], 0.0, 1.0)


def test_integrate_budget_counts_rejected_steps():
    # the opening step is far too long for this oscillation, so the
    # controller rejects some attempts: fewer than 50 steps are accepted,
    # but more than 50 are attempted (45 accepted steps take 55 attempts),
    # and the rejected ones count too
    def f(t, y):
        return np.array([math.cos(400.0 * t)])

    accepted = []
    integrate(f, [0.0], 0.0, 0.056, tol=1e-9, observer=lambda *args: accepted.append(args))
    assert len(accepted) < 50
    with pytest.raises(IntegrationError, match="step budget"):
        integrate(f, [0.0], 0.0, 0.056, tol=1e-9, max_steps=50)


def test_integrate_observer_sees_slopes_and_stops():
    R = vector_field_from_exprs(Chart("plane", ("x", "y")), ["-y", "x"])
    seen = []

    def obs(t0, y0, t1, y1, h, k0, k1):
        seen.append((t1, y1))
        assert np.array_equal(k0, R(y0)) and np.array_equal(k1, R(y1))
        return t1 > 0.5

    y, _, steps = integrate(lambda t, y: R(y), [1.0, 0.0], 0.0, 3.0, tol=1e-10, observer=obs)
    assert steps == len(seen) and seen[-1][0] > 0.5 >= seen[-2][0]
    assert np.array_equal(y, seen[-1][1])


def test_rotation_flow_achieved_error_tracks_tol():
    # the full circle of the rotation field: the error actually achieved
    # stays within ten times the requested tolerance
    R = vector_field_from_exprs(Chart("plane", ("x", "y")), ["-y", "x"])
    for tol in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12):
        got = flow(R, [1.0, 0.0], 2.0 * math.pi, tol=tol).endpoint
        assert np.max(np.abs(got - [1.0, 0.0])) < 10.0 * tol


def test_transport_matches_analytic_jacobian():
    # linear field on the plane, with a clock s' = 1 so that the section
    # s = 0.7 is crossed at time 0.7: the transport of the plane's vectors
    # is the matrix exponential, and their clock components stay zero
    ch3 = Chart("plane_clock", ("x", "y", "s"))
    A = np.array([[0.3, -1.0], [1.0, 0.2]])
    X = VectorField(ch3, components=lambda xs: [A[0, 0] * xs[0] + A[0, 1] * xs[1],
                                                A[1, 0] * xs[0] + A[1, 1] * xs[1], 1.0])
    res = flow_to_section(X, [0.5, 0.2, 0.0], lambda y: float(y[2] - 0.7), tol=1e-11,
                          max_time=2.0, vectors=np.eye(3)[:, :2])
    from scipy.linalg import expm
    assert abs(res.time - 0.7) < 1e-9
    assert np.max(np.abs(res.transport[:2] - expm(0.7 * A))) < 1e-8
    assert not np.any(res.transport[2])


def test_flow_to_section_circle():
    ch2 = Chart("plane", ("x", "y"))
    R = vector_field_from_exprs(ch2, ["-y", "x"])
    res = flow_to_section(R, [1.0, -0.3], lambda y: float(y[1]), tol=1e-11,
                          min_time=1e-3, max_time=10.0)
    assert abs(res.endpoint[1]) < 1e-9
    assert res.time < math.pi  # first crossing, not a later one


def test_flow_to_section_event_time_against_scipy():
    R = vector_field_from_exprs(Chart("plane", ("x", "y")), ["-y", "x"])

    def section(y):
        return float(y[0] * y[0] + 2.0 * y[1] - 1.2)

    res = flow_to_section(R, [1.0, -0.3], section, tol=1e-11, max_time=10.0)

    def event(t, y):
        return section(y)

    event.terminal = True
    ref = solve_ivp(lambda t, y: R(y), (0.0, 10.0), [1.0, -0.3], events=event,
                    rtol=1e-12, atol=1e-13)
    assert abs(res.time - ref.t_events[0][0]) < 1e-9
    assert np.max(np.abs(res.endpoint - ref.y_events[0][0])) < 1e-9
    assert abs(section(res.endpoint)) < 1e-10


def test_flow_to_section_stops_at_the_crossing():
    # a constant field crosses x = 1 at time 1; integrating on to a far
    # larger time budget must not cost more than one extra step
    count = [0]

    def rule(xs):
        count[0] += 1
        return [1.0, 0.5]

    X = VectorField(Chart("plane", ("x", "y")), components=rule)
    evals = {}
    for budget in (1.5, 100.0):
        count[0] = 0
        res = flow_to_section(X, [0.0, 0.0], lambda y: float(y[0] - 1.0), max_time=budget)
        assert abs(res.time - 1.0) < 1e-10
        assert np.allclose(res.endpoint, [1.0, 0.5], atol=1e-10)
        evals[budget] = count[0]
    assert evals[100.0] <= evals[1.5] + 6

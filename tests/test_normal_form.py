"""Jet normal form for Legendrian pairs and the hidden second-order
equation."""

import math

import numpy as np
import pytest

from engellab.calculus import Chart
from engellab.errors import EngelLabError, GeometryError
from engellab.expressions import vector_field_from_exprs
from engellab.jets import (Jet, jet_compose, jet_identity, jet_invert,
                           jet_pushforward, multi_indices)
from engellab.normal_form import (ODE_CHART, LegendrianPairJet, ODE2,
                                  _linear_pushforward, extract_ode,
                                  jet_bracket, normalize_pair, pair_from_ode,
                                  prolong_point_map, straighten)

CH3 = Chart("c3", ("x", "y", "z"))


def field_jets(exprs, point=(0.0, 0.0, 0.0), order=4):
    X = vector_field_from_exprs(CH3, exprs)
    return X.taylor(point, order)


def normal_pair(f_jet, order=4):
    """The pair (d/dy, d/dx + f d/dy + y d/dz) already in normal form."""
    Y = [Jet(3, order), Jet.constant(1.0, 3, order), Jet(3, order)]
    X = [Jet.constant(1.0, 3, order), f_jet.truncated(order), Jet.variable(1, 3, order)]
    return LegendrianPairJet(Y, X, order)


def random_f(rng, order=4, amp=0.3):
    f = Jet(3, order)
    for k in multi_indices(3, order):
        if sum(k) == 0:
            continue
        f[k] = rng.uniform(-amp, amp) / (1.0 + sum(k)) ** 2
    return f


def random_pair(rng, order=4):
    """Bounded perturbation of a normal pair pushed through a rotation."""
    while True:
        f = random_f(rng, order)
        Y = [random_f(rng, order, 0.2), Jet.constant(1.0, 3, order) + random_f(rng, order, 0.2),
             random_f(rng, order, 0.2)]
        X = [Jet.constant(1.0, 3, order) + random_f(rng, order, 0.2),
             f, Jet.variable(1, 3, order) + random_f(rng, order, 0.2)]
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        try:
            return LegendrianPairJet(_linear_pushforward(Q, Y),
                                     _linear_pushforward(Q, X), order)
        except GeometryError:
            continue


def test_straighten_shear_field():
    # Y = d/dy + x d/dz straightens with z-change z - xy
    Y = field_jets(["0", "1", "x"])
    st = straighten(Y)
    pushed = jet_pushforward(st.change, [st.scale * j for j in Y])
    want = [Jet(3, 3), Jet.constant(1.0, 3, 3), Jet(3, 3)]
    for g, w in zip(pushed, want):
        assert g.max_coeff_diff(w) < 1e-13
    # the z target coordinate is z - x y
    zc = st.change[2]
    assert abs(zc[(1, 1, 0)] + 1.0) < 1e-13


def test_straighten_scaled_field():
    # Y = (1 + x) d/dy needs the reciprocal scale
    Y = field_jets(["0", "1 + x", "0"])
    st = straighten(Y)
    assert abs(st.scale.value - 1.0) < 1e-13
    assert abs(st.scale[(1, 0, 0)] + 1.0) < 1e-13
    pushed = jet_pushforward(st.change, [st.scale * j for j in Y])
    assert pushed[1].max_coeff_diff(Jet.constant(1.0, 3, 3)) < 1e-13


def test_straighten_constant_field_at_an_order():
    # d/dy is its own flow box; its components are all numbers, so the
    # order to read them at is given
    Y = field_jets(["0", "1", "0"])
    assert not any(isinstance(j, Jet) for j in Y)
    with pytest.raises(EngelLabError, match="needs an order"):
        straighten(Y)
    st = straighten(Y, order=4)
    ident = jet_identity(3, 5)
    for got, want in zip(st.change, ident):
        assert got.order == 5 and got.max_coeff_diff(want) == 0.0
    assert st.scale.max_coeff_diff(Jet.constant(1.0, 3, 5)) == 0.0
    pushed = jet_pushforward(st.change, [st.scale * Jet.constant(v, 3, 4) for v in Y])
    for g, w in zip(pushed, [Jet(3, 4), Jet.constant(1.0, 3, 4), Jet(3, 4)]):
        assert g.max_coeff_diff(w) == 0.0


def test_straighten_vanishing_field_raises():
    Y = field_jets(["x", "y", "z"])
    with pytest.raises(GeometryError):
        straighten(Y)


def test_normal_form_residuals_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pair = random_pair(rng)
        res = normalize_pair(pair)
        assert res.verify(pair) < 1e-10
        assert res.f_jet[(0, 0, 0)] == 0.0


def test_normal_form_idempotent():
    # a pair already in normal form yields the identity change and the same f
    rng = np.random.default_rng(1)
    f = random_f(rng)
    f[(0, 0, 0)] = 0.0
    f[(0, 1, 0)] = 0.0
    pair = normal_pair(f)
    res = normalize_pair(pair)
    ident = jet_identity(3, min(j.order for j in res.change))
    for c, i in zip(res.change, ident):
        assert c.max_coeff_diff(i) < 1e-12
    assert res.f_jet.max_coeff_diff(f.truncated(res.f_jet.order)) < 1e-12


def test_normal_form_rejects_integrable_pair():
    Y = field_jets(["0", "1", "0"])
    X = field_jets(["1", "0", "0"])
    with pytest.raises(GeometryError):
        LegendrianPairJet(Y, X, 4)


def test_substitution_coefficient_is_derivative_along_x():
    # after the affine normalizations, renaming the d/dz component of X to
    # the new y makes the new d/dy component of X equal the derivative of
    # that component along X; check the recorded f against a direct
    # pushforward computation on a pair where the chain stops early
    order = 5
    f3 = Jet.variable(1, 3, order) + 0.2 * Jet.variable(0, 3, order) * Jet.variable(2, 3, order)
    Y = [Jet(3, order), Jet.constant(1.0, 3, order), Jet(3, order)]
    X = [Jet.constant(1.0, 3, order), Jet(3, order), f3]
    pair = LegendrianPairJet(Y, X, order)
    res = normalize_pair(pair)
    assert res.verify(pair) < 1e-11
    # L_X f3 with X = d/dx + f3 d/dz here
    lxf3 = f3.derivative(0) + f3 * f3.derivative(2)
    sub = [jet_identity(3, order)[0], f3, jet_identity(3, order)[2]]
    pushed = jet_compose(lxf3, jet_invert(sub))
    got = jet_pushforward(res.change, [res.X_scale * j for j in pair.X_jet])[1]
    assert got.max_coeff_diff(pushed.truncated(got.order)) < 1e-11


def test_normal_form_scale_equivariance():
    # rescaling the input fields leaves the normal form f unchanged
    rng = np.random.default_rng(2)
    pair = random_pair(rng)
    order = pair.order
    u = Jet.constant(1.3, 3, order) + 0.2 * Jet.variable(0, 3, order)
    v = Jet.constant(0.8, 3, order) - 0.1 * Jet.variable(2, 3, order)
    scaled = LegendrianPairJet([u * j for j in pair.Y_jet],
                               [v * j for j in pair.X_jet], order)
    fa = normalize_pair(pair).f_jet
    fb = normalize_pair(scaled).f_jet
    k = min(fa.order, fb.order)
    assert fa.truncated(k).max_coeff_diff(fb.truncated(k)) < 1e-9


def test_ode_roundtrip_exact():
    rng = np.random.default_rng(3)
    f = random_f(rng, order=4)
    f[(0, 0, 0)] = 0.0
    # build the pair of y'' = f(x, y, p), normalize, and extract the equation
    V0, V1 = pair_from_ode(f)
    pair = LegendrianPairJet.from_fields(V0, V1, [0.0, 0.0, 0.0], order=4)
    res = normalize_pair(pair)
    ode = extract_ode(res)
    k = ode.f_jet.order
    assert ode.f_jet.max_coeff_diff(f.truncated(k)) < 1e-11


def test_ode_pair_batch_equals_points_bit_for_bit():
    # V1 of a polynomial equation runs its rule on the coordinates: a batch
    # row is its point's values, the powers of the monomials included
    _, V1 = pair_from_ode(random_f(np.random.default_rng(21), order=4, amp=3.0))
    pts = np.random.default_rng(22).uniform(-1.5, 1.5, (500, 3))
    batch = V1(np.ascontiguousarray(pts.T))
    for k, p in enumerate(pts):
        assert np.array_equal(batch[:, k].view(np.int64), V1(p).view(np.int64))


def test_ode_rhs_matches_polynomial():
    f = Jet(3, 3)
    f[(1, 1, 0)] = 2.0   # f = 2 x y + p^2
    f[(0, 0, 2)] = 1.0
    ode = ODE2(f_jet=f)
    assert abs(ode.f(0.5, 0.3, 0.2) - (2 * 0.5 * 0.3 + 0.04)) < 1e-14
    assert np.allclose(ode.rhs(0.5, [0.3, 0.2]), [0.2, 0.34])


def test_prolonged_shear_shifts_slope():
    # (x, y) -> (x, y + 0.7 x) lifts to p -> p + 0.7
    order = 4
    x2 = Jet.variable(0, 2, order)
    y2 = Jet.variable(1, 2, order)
    lift = prolong_point_map([x2, y2 + 0.7 * x2])
    p = Jet.variable(2, 3, order)
    assert lift[2].max_coeff_diff(p + 0.7) < 1e-13
    # and the lift preserves the contact form dy - p dx up to scale:
    # d(Y)/dt - P d(X)/dt along any direction annihilated by dy - p dx
    # reduces to a jet identity: Y_x + p Y_y - P (X_x + p X_y) = 0
    X, Y, P = lift
    expr = Y.derivative(0) + p * Y.derivative(1) - P * (X.derivative(0) + p * X.derivative(1))
    assert expr.max_coeff_diff(Jet(3, expr.order)) < 1e-13


def test_prolonged_rotation_on_trivial_equation():
    # y'' = 0 is preserved by rotations: normalizing the transformed pair
    # returns f = 0
    order = 5
    t = 0.4
    c, s = math.cos(t), math.sin(t)
    x2 = Jet.variable(0, 2, order)
    y2 = Jet.variable(1, 2, order)
    lift = prolong_point_map([c * x2 - s * y2, s * x2 + c * y2])
    # the lift moves slope 0 to tan(t); recenter the target slope coordinate
    # so the composite fixes the origin (an affine translation downstream)
    lift[2] = lift[2] - lift[2].value
    # push the pair of y'' = 0 through the lift
    V0 = [Jet(3, order - 1), Jet(3, order - 1), Jet.constant(1.0, 3, order - 1)]
    V1 = [Jet.constant(1.0, 3, order - 1), Jet.variable(2, 3, order - 1), Jet(3, order - 1)]
    lift = [j.truncated(order - 1) for j in lift]
    W0 = jet_pushforward(lift, V0)
    W1 = jet_pushforward(lift, V1)
    pair = LegendrianPairJet(W0, W1, order - 2)
    res = normalize_pair(pair)
    # relabeled back, the equation must still be y'' = 0
    assert extract_ode(res).f_jet.max_coeff_diff(Jet(3, res.f_jet.order)) < 1e-10


def test_vertical_image_direction_raises():
    order = 3
    x2 = Jet.variable(0, 2, order)
    y2 = Jet.variable(1, 2, order)
    with pytest.raises(GeometryError):
        prolong_point_map([y2, x2 + y2 * y2])  # X_x + p X_y = p at p = 0


def test_pair_of_order_one_fails_loudly():
    # f is read one order below the pushforwards: an order-1 pair would give
    # its value alone, zero by construction, so the normal form refuses it
    pair = LegendrianPairJet(field_jets(["0", "1", "0"], order=1),
                             field_jets(["1", "0", "y"], order=1), 1)
    with pytest.raises(EngelLabError, match="order 2 or more"):
        normalize_pair(pair)
    assert normalize_pair(random_pair(np.random.default_rng(4), order=2)).f_jet.order == 1


def test_steps_audit_trail():
    rng = np.random.default_rng(4)
    res = normalize_pair(random_pair(rng))
    names = [s["step"] for s in res.steps]
    assert names[0] == "straighten"
    assert "divide-X" in names and "substitute-ybar" in names

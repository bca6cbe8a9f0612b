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


# -- stacks of pairs --------------------------------------------------------------


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _defects(pair):
    """What the normal-form suite reads of a pair: the verify residual,
    |f(0)|, the idempotence defect, and f."""
    res = normalize_pair(pair)
    res2 = normalize_pair(normal_pair(res.f_jet))
    idem = res2.f_jet.max_coeff_diff(res.f_jet.truncated(res2.f_jet.order))
    return res.verify(pair), abs(res.f_jet.value), idem, res.f_jet


def test_stacked_normal_forms_equal_lone_bit_for_bit():
    # the random pairs of the normal-form suite, 10 per seed over seeds 0-39,
    # and stacks of 2 and 4 of them: each row is its lone pair's, bit for bit
    from engellab.cli import _random_pair
    for seed in range(40):
        rng = np.random.default_rng(seed)
        pairs = [_random_pair(rng) for _ in range(10)]
        lone = [_defects(p) for p in pairs]
        for rows in [slice(0, 10)] + ([slice(0, 2), slice(3, 7)] if seed < 3 else []):
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                got = _defects(LegendrianPairJet.stack(pairs[rows]))
            for r, want in enumerate(lone[rows]):
                for g, w in zip(got[:3], want[:3]):
                    assert _bits(g[r]) == _bits(w)
                assert got[3].c[r].tobytes() == want[3].c.tobytes()


def test_stacked_rows_that_skip_a_step_equal_lone_bit_for_bit():
    # pairs already in normal form skip the flips and the quadratic shear
    # that random pairs take; in a stack, those rows get the identity, and
    # every row's change, scales and f are its lone pair's bit for bit
    rng = np.random.default_rng(4)
    f = random_f(rng)
    f[(0, 0, 0)] = f[(0, 1, 0)] = 0.0
    pairs = [random_pair(rng), normal_pair(f), random_pair(rng), random_pair(rng), normal_pair(f)]
    results = [normalize_pair(p) for p in pairs]
    res = normalize_pair(LegendrianPairJet.stack(pairs))
    for r, lone in enumerate(results):
        for got, want in zip(res.change + [res.Y_scale, res.X_scale, res.f_jet],
                             lone.change + [lone.Y_scale, lone.X_scale, lone.f_jet]):
            assert got.c[r].tobytes() == want.c.tobytes()
    # each step records the rows it changed, with their data
    lone, steps = [r.steps for r in results], res.steps
    for step in steps:
        changed = [r for r, s in enumerate(lone) if step["step"] in [t["step"] for t in s]]
        assert step["rows"] == changed
        for key, values in step.items():
            if key not in ("step", "rows"):
                assert values == [next(t[key] for t in lone[r] if t["step"] == step["step"])
                                  for r in changed]
    assert {s["step"] for s in steps} == {t["step"] for s in lone for t in s}
    assert any(0 < len(step["rows"]) < len(pairs) for step in steps)


ODE_TEXT = "0.3*x*p + y^2 - 0.2*sin(p) + 0.1*x^3"


def test_pair_from_fields_at_points_is_the_stack_of_their_pairs():
    # one batch taylor of the ODE pair at 5 points gives each point's pair
    # jets, bit for bit, and its normal form, residual and equation
    from engellab.expressions import scalar_field_from_expr
    V0, V1 = pair_from_ode(scalar_field_from_expr(ODE_CHART, ODE_TEXT, name="f"))
    pts = np.random.default_rng(5).uniform(-0.5, 0.5, (5, 3))
    stack = LegendrianPairJet.from_fields(V0, V1, np.ascontiguousarray(pts.T))
    res = normalize_pair(stack)
    residuals, ode = res.verify(stack), extract_ode(res)
    assert residuals.shape == (5,)
    for r, p in enumerate(pts):
        pair = LegendrianPairJet.from_fields(V0, V1, p)
        for got, want in zip(stack.Y_jet + stack.X_jet, pair.Y_jet + pair.X_jet):
            assert got.c[r].tobytes() == want.c.tobytes()
        lone = normalize_pair(pair)
        assert res.f_jet.c[r].tobytes() == lone.f_jet.c.tobytes()
        assert _bits(residuals[r]) == _bits(lone.verify(pair))
        assert ode.f_jet.c[r].tobytes() == extract_ode(lone).f_jet.c.tobytes()
        assert residuals[r] < 1e-10


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_pair_jet_is_a_domain_error(bad):
    from engellab.errors import JetDomainError
    f = random_f(np.random.default_rng(6))
    f[(0, 0, 0)] = 0.0
    Y = [Jet(3, 4), Jet.constant(1.0, 3, 4), Jet(3, 4)]
    X = [Jet.constant(1.0, 3, 4), f, Jet.variable(1, 3, 4)]
    broken = f.copy()
    broken[(0, 0, 0)] = bad
    with pytest.raises(JetDomainError, match=r"pair jet X\[1\] .*not finite$"):
        LegendrianPairJet(Y, [X[0], broken, X[2]], 4)
    # in a stack, the error names the row
    rows = Jet(3, 4, {k: np.array([v, v, v]) for k, v in f.items()})
    rows[(0, 1, 0)] = np.array([0.1, bad, 0.2])
    with pytest.raises(JetDomainError, match=r"pair jet X\[1\] .*not finite in row 1"):
        LegendrianPairJet(Y, [X[0], rows, X[2]], 4)
    # straighten, given the field alone
    Ybad = [Jet(3, 4), Jet.constant(1.0, 3, 4) + Jet.constant(bad, 3, 4), Jet(3, 4)]
    with pytest.raises(JetDomainError, match=r"pair jet Y\[1\]"):
        straighten(Ybad)

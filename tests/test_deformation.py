"""Contact-isotopy deformations of Engel domains and the Gray/Moser
solver."""

import math
from collections import Counter

import numpy as np
import pytest

from engellab import calculus, cli
from engellab.calculus import Chart, VectorField, evaluation_scope, lie_bracket
from engellab.distributions import flag_ranks
from engellab.errors import EngelLabError, GeometryError, IntegrationError
from engellab.expressions import scalar_field_from_expr, vector_field_from_exprs
from engellab.flow import integrate
from engellab.prolongation import ParallelizedContact, prolong
from engellab.deformation import (ContactFormPath, ContactIsotopyGenerator,
                                  bottom_to_top, bump_window, gray_solve,
                                  realize_isotopy)

CH3 = Chart("base", ("x", "y", "z"))
SUPPORT = (0.25, 1.3)


def standard_contact():
    v0 = vector_field_from_exprs(CH3, ["0", "1", "0"])
    v1 = vector_field_from_exprs(CH3, ["1", "0", "y"])
    return ParallelizedContact(CH3, v0, v1)


def make_deformed(h_expr, support=SUPPORT):
    dom = prolong(standard_contact())
    h = scalar_field_from_expr(dom.chart, h_expr)
    gen = ContactIsotopyGenerator(dom, h, support)
    return dom, gen, realize_isotopy(dom, gen)


def test_bump_window_support():
    dom = prolong(standard_contact())
    w = bump_window(dom.chart, 0.25, 1.3)
    assert w([0, 0, 0, 0.1]) == 0.0
    assert w([0, 0, 0, 1.4]) == 0.0
    assert w([0, 0, 0, 0.775]) == pytest.approx(1.0)
    assert 0.0 < w([0, 0, 0, 0.5]) < 1.0
    with pytest.raises(EngelLabError):
        bump_window(dom.chart, 1.0, 0.5)


def test_constant_hamiltonian_gives_reeb_translation():
    # h = 1 (inside the window) gives X = Z = d/dz for alpha_hat = dz - y dx;
    # the base form has d alpha(V0, V1) = -1, so alpha_hat = -(dz - y dx)
    # and the Reeb field is -d/dz
    dom, gen, _ = make_deformed("1")
    q = [0.2, -0.1, 0.3, 0.775]  # window center: bump is exactly 1
    Z = gen.Z(q)
    X = gen.X(q)
    assert abs(abs(Z[2]) - 1.0) < 1e-12 and np.allclose(Z[:2], 0.0) and Z[3] == 0.0
    assert np.allclose(X, Z, atol=1e-12)


def test_generator_is_contact_automorphism():
    dom, gen, _ = make_deformed("0.05*sin(x) + 0.04*z*cos(y) + 0.03*y")
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = np.append(rng.uniform(-0.8, 0.8, 3), rng.uniform(0.3, 1.25))
        assert gen.automorphism_residual(q) < 1e-12


def test_automorphism_residual_keeps_a_nan(monkeypatch):
    # a NaN pairing on the first contact direction must survive the fold
    # over both directions
    from engellab import deformation

    dom = prolong(standard_contact())
    gen = ContactIsotopyGenerator(dom, scalar_field_from_expr(dom.chart, "0.05*sin(x)"), SUPPORT)
    calls, inner = [], deformation.lie_derivative_scalar
    monkeypatch.setattr(deformation, "lie_derivative_scalar", lambda X, f: (
        lambda q: math.nan) if not calls.append(f) and len(calls) == 1 else inner(X, f))
    assert math.isnan(gen.automorphism_residual([0.1, -0.2, 0.3, 0.775]))
    assert len(calls) == 2


def test_spin_against_wedge_ratio_oracle():
    # g = d alpha_hat(V, [X, V]) should reproduce the U-coefficient of
    # [X, V] expanded in the frame (V, U, Z)
    dom, gen, deformed = make_deformed("0.05*sin(x) + 0.04*z*cos(y) + 0.03*y")
    B = lie_bracket(gen.X, dom.V)
    rng = np.random.default_rng(1)
    for _ in range(10):
        q = np.append(rng.uniform(-0.8, 0.8, 3), rng.uniform(0.3, 1.25))
        M = np.column_stack([dom.V(q), dom.U(q), gen.Z(q)])
        coeffs = np.linalg.solve(M[:3, :], B(q)[:3])
        assert abs(deformed.g(q) - coeffs[1]) < 1e-10
        assert abs(deformed.f(q) - coeffs[0]) < 1e-10


def test_deformed_frame_is_engel():
    dom, gen, deformed = make_deformed("0.05*sin(x) + 0.04*z*cos(y) + 0.03*y")
    frame = deformed.frame()
    rng = np.random.default_rng(2)
    for _ in range(30):
        q = np.append(rng.uniform(-0.8, 0.8, 3), rng.uniform(0.0, 0.5 * math.pi))
        assert flag_ranks(frame, q).is_engel


def test_frame_unperturbed_outside_support():
    dom, gen, deformed = make_deformed("0.3*sin(x) + 0.2*z")
    rng = np.random.default_rng(3)
    for theta in (0.05, 0.2, 1.35, 1.5):
        q = np.append(rng.uniform(-0.8, 0.8, 3), theta)
        assert np.max(np.abs(deformed.W(q) - dom.vertical(q))) == 0.0
        assert deformed.g(q) == 0.0


def test_trivial_generator_is_identity():
    dom = prolong(standard_contact())
    gen = ContactIsotopyGenerator(dom, None, SUPPORT)
    deformed = realize_isotopy(dom, gen)
    m = [0.3, -0.2, 0.4]
    assert np.allclose(bottom_to_top(deformed, m, tol=1e-11), m, atol=1e-12)


def test_bottom_to_top_matches_direct_integration():
    dom, gen, deformed = make_deformed("0.05*sin(x) + 0.04*z*cos(y) + 0.03*y")
    rng = np.random.default_rng(4)
    for _ in range(5):
        m = rng.uniform(-0.6, 0.6, 3)
        got = bottom_to_top(deformed, m, tol=1e-11)
        # direct check: integrate the non-autonomous base system with
        # theta as time
        ref, _, _ = integrate(lambda t, y: gen.X(np.append(y, t))[:3],
                              m, 0.0, dom.theta_max, tol=1e-11)
        assert np.max(np.abs(got - ref)) < 1e-9


def test_bottom_to_top_of_a_stack_equals_single_calls():
    dom, gen, deformed = make_deformed("0.05*sin(x) + 0.04*z*cos(y) + 0.03*y")
    ms = np.random.default_rng(6).uniform(-0.5, 0.5, (3, 3))
    got = bottom_to_top(deformed, ms, tol=1e-10)
    want = [bottom_to_top(deformed, m, tol=1e-10) for m in ms]
    assert got.shape == (3, 3) and got.tobytes() == np.array(want).tobytes()


def test_spin_guard_trips_for_large_amplitude():
    dom = prolong(standard_contact())
    big = scalar_field_from_expr(dom.chart, "3*sin(x) + 2*z*cos(y)")
    gen = ContactIsotopyGenerator(dom, big, SUPPORT)
    rng = np.random.default_rng(5)
    samples = [np.append(rng.uniform(-0.8, 0.8, 3), rng.uniform(0.3, 1.25))
               for _ in range(200)]
    with pytest.raises(GeometryError):
        realize_isotopy(dom, gen, samples=samples)


def test_spin_guard_fails_loudly_on_nan(monkeypatch):
    # a NaN spin after a valid one is neither <= -1 nor a margin: it must
    # stop the realization instead of passing validation
    from engellab.calculus import ScalarField
    from engellab.deformation import DeformedEngel

    monkeypatch.setattr(DeformedEngel, "_spin_field", lambda self: ScalarField(
        self.chart, components=lambda xs: [float("nan") if xs[0] > 0.0 else 0.5]))
    dom = prolong(standard_contact())
    gen = ContactIsotopyGenerator(dom, scalar_field_from_expr(dom.chart, "0.05*x"), SUPPORT)
    good, bad = [-0.5, 0.1, 0.2, 0.6], [0.5, 0.1, 0.2, 0.6]
    assert realize_isotopy(dom, gen, samples=[good]).spin_samples == [0.5]
    with pytest.raises(GeometryError) as info:
        realize_isotopy(dom, gen, samples=[good, bad, good])
    assert info.value.point == bad


def test_spin_measures_bracket_degeneracy():
    # [V, W] = -f V - (1 + g) U: the deformed frame loses the rank-3 step
    # exactly on the locus g = -1, which is why the guard is sharp
    dom, gen, deformed = make_deformed("0.8*sin(x) + 0.6*z*cos(y)")
    B = lie_bracket(dom.V, deformed.W)
    rng = np.random.default_rng(6)
    for _ in range(10):
        q = np.append(rng.uniform(-0.8, 0.8, 3), rng.uniform(0.3, 1.25))
        want = -deformed.f(q) * np.asarray(dom.V(q)) \
            - (1.0 + deformed.g(q)) * np.asarray(dom.U(q))
        assert np.max(np.abs(B(q) - want)) < 1e-9


def test_support_outside_interval_rejected():
    dom = prolong(standard_contact())
    h = scalar_field_from_expr(dom.chart, "sin(x)")
    with pytest.raises(EngelLabError):
        ContactIsotopyGenerator(dom, h, (-0.1, 1.0))


# -- Gray / Moser ---------------------------------------------------------


def _path(components):
    return ContactFormPath(CH3, components)


def L_field():
    return vector_field_from_exprs(CH3, ["0", "1", "0"])


def test_hypothesis_check():
    # dz - y dx + t x dx pairs to zero with L = d/dy; adding a t y dy term
    # violates it
    good = _path(lambda s: [s[3] * s[0] - s[1], 0.0 * s[1], 1.0 + 0.0 * s[0]])
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, (10, 3))
    sol = gray_solve(good, L_field(), np.linspace(0, 1, 5), sample_points=pts)
    assert sol.checks[0]["worst"] < 1e-14
    bad = _path(lambda s: [s[3] * s[0] - s[1], s[3] * s[1], 1.0 + 0.0 * s[0]])
    with pytest.raises(GeometryError):
        gray_solve(bad, L_field(), np.linspace(0, 1, 5), sample_points=pts)


def test_hypothesis_check_fails_on_nan_pairing():
    # a NaN pairing after a good point is neither above the tolerance nor
    # droppable: the check must raise instead of reporting the good worst
    def components(s):
        bad = float("nan") if s[0].value > 0.0 else 0.0
        return [s[3] * s[0] - s[1], s[3] * bad, 1.0 + 0.0 * s[0]]

    pts = [[-0.5, 0.1, 0.2], [0.5, 0.1, 0.2], [-0.3, 0.4, 0.1]]
    assert gray_solve(_path(components), L_field(), np.linspace(0, 1, 5),
                      sample_points=pts[:1]).checks[0]["worst"] == 0.0
    with pytest.raises(GeometryError, match="nan"):
        gray_solve(_path(components), L_field(), np.linspace(0, 1, 5), sample_points=pts)


def test_moser_field_transverse_component_vanishes():
    path = _path(lambda s: [s[3] * (0.2 * (s[0] + 2 * s[2]).sin() + 0.3 * s[1] * s[2]) - s[1],
                            0.0 * s[1],
                            1.0 + s[3] * (0.15 * s[0] + 0.2 * s[1] + 0.05 * s[2] * s[2])])
    sol = gray_solve(path, L_field(), np.linspace(0, 1, 5))
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 3)
        _, u, v = sol.moser_field_jets(rng.uniform(0, 1), x, 0)
        assert abs(v.value) < 1e-13


def test_exactly_integrable_family_is_solved_exactly():
    # coefficients independent of y make the Moser flow linear in t, which a
    # single RK4 step reproduces with zero defect
    path = _path(lambda s: [s[3] * (0.2 * (s[0] + 2 * s[2]).sin()) - s[1],
                            0.0 * s[1],
                            1.0 + s[3] * (0.15 * s[0] + 0.05 * s[2] * s[2])])
    sol = gray_solve(path, L_field(), np.linspace(0, 1, 3))
    rng = np.random.default_rng(9)
    for _ in range(5):
        rep = sol.pullback_defect(rng.uniform(-0.5, 0.5, 3))
        assert rep["plane_defect"] < 1e-13
        assert rep["L_defect"] < 1e-13


def test_defect_refines_at_fourth_order():
    path = _path(lambda s: [s[3] * (0.2 * (s[0] + 2 * s[2]).sin() + 0.3 * s[1] * s[2]) - s[1],
                            0.0 * s[1],
                            1.0 + s[3] * (0.15 * s[0] + 0.2 * s[1] + 0.05 * s[2] * s[2])])
    L = L_field()
    rng = np.random.default_rng(10)
    pts = rng.uniform(-0.5, 0.5, (5, 3))
    coarse = gray_solve(path, L, np.linspace(0, 1, 5))
    fine = gray_solve(path, L, np.linspace(0, 1, 9))
    dc = max(coarse.pullback_defect(x)["plane_defect"] for x in pts)
    df = max(fine.pullback_defect(x)["plane_defect"] for x in pts)
    assert dc > 1e-12  # not in the exactly-integrable regime
    assert df < 0.2 * dc  # a grid halving must beat first order comfortably


def test_legendrian_is_preserved():
    path = _path(lambda s: [s[3] * (0.2 * (s[0] + 2 * s[2]).sin() + 0.3 * s[1] * s[2]) - s[1],
                            0.0 * s[1],
                            1.0 + s[3] * (0.15 * s[0] + 0.2 * s[1] + 0.05 * s[2] * s[2])])
    sol = gray_solve(path, L_field(), np.linspace(0, 1, 9))
    rng = np.random.default_rng(11)
    for _ in range(5):
        rep = sol.pullback_defect(rng.uniform(-0.5, 0.5, 3))
        assert rep["L_defect"] < 1e-9


def _moser_path(calls=None):
    def components(s):
        if calls is not None:
            calls.append(s[0].order)
        return [s[3] * (0.2 * (s[0] + 2 * s[2]).sin() + 0.3 * s[1] * s[2]) - s[1],
                0.0 * s[1], 1.0 + s[3] * (0.15 * s[0] + 0.2 * s[1] + 0.05 * s[2] * s[2])]
    return _path(components)


def test_pullback_defect_of_a_stack_equals_single_calls():
    sol = gray_solve(_moser_path(), L_field(), np.linspace(0, 1, 5))
    pts = np.random.default_rng(12).uniform(-0.5, 0.5, (6, 3))
    stacked = sol.pullback_defect(pts)
    for x, got in zip(pts, stacked):
        want = sol.pullback_defect(x)
        assert got.keys() == want.keys()
        for key in want:
            assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), key
    ends, cols, g_log = sol.transport(pts, vectors=np.tile(np.eye(3), (6, 1, 1)))
    end, col, g = sol.transport(pts[4], vectors=np.eye(3))
    assert ends[4].tobytes() == end.tobytes() and cols[4].tobytes() == col.tobytes()
    assert g_log[4] == g


def test_moser_rhs_shares_the_form_jets_with_the_reeb_term():
    # one right-hand side evaluates the path at order 1 for theta_t and at
    # order 2 for d theta_t and for d/dt theta_t at order 1; theta_t at order
    # 1 and 0 for the Reeb vector, and d/dt theta_t at order 0, are slices of
    # those jets: three rule calls
    calls = []
    sol = gray_solve(_moser_path(calls), L_field(), np.linspace(0, 1, 5))
    sol._rhs(0)(0.3, np.array([0.1, -0.2, 0.3, 0.0]))
    assert sorted(calls) == [1, 2, 2]


def test_transport_raises_at_a_nan_right_hand_side():
    # L turns NaN off x < 0.3: the Moser field does too, and the
    # transported state must fail at that time instead of passing silently
    L = VectorField(CH3, components=lambda xs: [
        0.0, 1.0 if getattr(xs[0], "value", xs[0]) < 0.3 else math.nan, 0.0])
    sol = gray_solve(_moser_path(), L, np.linspace(0, 1, 5))
    sol.pullback_defect([0.0, 0.1, 0.2])
    with pytest.raises(IntegrationError, match="non-finite state at t = 0.25"):
        sol.pullback_defect([0.35, 0.1, 0.2])
    with pytest.raises(IntegrationError, match="non-finite state"):
        sol.pullback_defect([[0.0, 0.1, 0.2], [0.35, 0.1, 0.2]])


def test_nan_legendrian_column_fails_loudly(monkeypatch):
    # a NaN transported L column gives a NaN angle defect, never 0.0
    sol = gray_solve(_moser_path(), L_field(), np.linspace(0, 1, 5))
    x = np.array([0.1, 0.2, -0.1])
    end, cols, g = sol.transport(x, vectors=np.eye(3))
    cols[:, 2] = math.nan
    monkeypatch.setattr(sol, "transport", lambda *args, **kwargs: (end, cols, g))
    assert math.isnan(sol.pullback_defect(x)["L_defect"])


def _realize_generator():
    """The generator of the realize suite at its defaults."""
    dom = prolong(cli._base_contact({})[0])
    h = scalar_field_from_expr(dom.chart, "0.05*sin(x) + 0.04*z*cos(y) + 0.03*y", name="h")
    return ContactIsotopyGenerator(dom, h, SUPPORT)


def test_generator_evaluates_each_field_at_its_highest_order(monkeypatch):
    # X at order 0 on a three-lane stack: the rescaled base form (unnamed)
    # is read at order 1 by the Reeb field's d alpha and at order 0 by its
    # pairing, and the second is a slice of the first, so 1/dalpha(V0,V1)
    # and what it reads are evaluated at orders 1 and 2 only
    gen = _realize_generator()
    stack = np.random.default_rng(15).uniform([-0.5] * 3 + [0.3], [0.5] * 3 + [1.2], (3, 4)).T
    calls, requests, highest = Counter(), [], {}
    evaluate, taylor = calculus._FieldBase._evaluate, calculus._FieldBase.taylor

    def counted(field, coords, order):
        calls[(field.name, order)] += 1
        highest[(field, coords.shape, coords.tobytes())] = order
        return evaluate(field, coords, order)

    def recorded(field, point, order):
        coords = np.array(point)
        sliced = highest.get((field, coords.shape, coords.tobytes()), -1) > order
        out = taylor(field, point, order)
        requests.append((field, coords, order, sliced, out))
        return out

    monkeypatch.setattr(calculus._FieldBase, "_evaluate", counted)
    monkeypatch.setattr(calculus._FieldBase, "taylor", recorded)
    first = gen.X(stack)
    assert calls == {
        ("X", 0): 1, ("(+)", 0): 1, ("", 0): 7, ("", 1): 2, ("Z", 0): 1, ("Reeb()", 0): 1,
        ("1/dalpha(V0,V1)", 1): 1, ("ann(V0,V1)", 1): 1, ("ann(V0,V1)", 2): 1,
        ("legendrian_frame[0]", 1): 1, ("legendrian_frame[0]", 2): 1,
        ("legendrian_frame[1]", 1): 1, ("legendrian_frame[1]", 2): 1,
        ("h", 0): 1, ("h", 1): 1, ("window", 0): 1, ("window", 1): 1,
        ("V", 0): 1, ("U", 0): 1}
    # every request, the slices included, is bit for bit the jets a fresh
    # scope evaluates at that order
    monkeypatch.undo()
    assert sorted((f.name, o) for f, _, o, sliced, _ in requests if sliced) == [
        ("", 0), ("legendrian_frame[0]", 0), ("legendrian_frame[0]", 0),
        ("legendrian_frame[0]", 1), ("legendrian_frame[1]", 0), ("legendrian_frame[1]", 0),
        ("legendrian_frame[1]", 1)]
    for field, coords, order, _, got in requests:
        with evaluation_scope():
            want = field._evaluate(coords, order)
        assert [(j.order, j.c.tobytes()) for j in got] == [(j.order, j.c.tobytes()) for j in want]

    # later calls run under the plan the first recorded: each field once, at
    # the highest order the first call asked of it, no (0, 1) or (1, 2) pairs;
    # the plan stays as recorded, and X at order 1 has a plan of its own
    plan = dict(gen.X._plans[0])
    assert set(plan) == {key[0] for key in highest} - {gen.X}
    assert all(plan[f] == max(o for key, o in highest.items() if key[0] is f) for f in plan)
    calls.clear()
    highest.clear()
    monkeypatch.setattr(calculus._FieldBase, "_evaluate", counted)
    second = gen.X(stack)
    assert calls == {
        ("X", 0): 1, ("(+)", 0): 1, ("", 0): 6, ("", 1): 2, ("Z", 0): 1, ("Reeb()", 0): 1,
        ("1/dalpha(V0,V1)", 1): 1, ("ann(V0,V1)", 2): 1, ("legendrian_frame[0]", 2): 1,
        ("legendrian_frame[1]", 2): 1, ("h", 1): 1, ("window", 1): 1, ("V", 0): 1, ("U", 0): 1}
    assert len(highest) == sum(calls.values())
    assert all(o == plan.get(key[0], 0) for key, o in highest.items())
    assert second.tobytes() == first.tobytes()
    for _ in range(50):
        gen.X(stack)
    assert gen.X._plans == {0: plan}
    gen.X.taylor(stack, 1)
    assert set(gen.X._plans) == {0, 1} and gen.X._plans[0] == plan
    assert gen.X._plans[1][gen.h] == 2 and plan[gen.h] == 1

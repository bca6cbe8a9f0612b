"""A constant is a number at every order: a number that a field's rule
returns is never wrapped as a constant jet, and everything that reads a
field's jets reads a number as the constant it stands for (its value, and
derivatives 0.0)."""

import math

import numpy as np
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from engellab import cli
from engellab.calculus import (Chart, ScalarField, VectorField, evaluation_scope, lie_bracket,
                               lie_derivative_scalar)
from engellab.deformation import ContactIsotopyGenerator
from engellab.distributions import (DistributionFrame, annihilator_form, characteristic_line,
                                    flag_ranks, reeb_field, reeb_jets)
from engellab.expressions import scalar_field_from_expr, vector_field_from_exprs
from engellab.jets import (Jet, cos, derivative, exp, gradient, jet_bracket, jet_d_matrix,
                           multi_indices, power, reciprocal, sin, value)
from engellab.prolongation import (ParallelizedContact, Slice, _eliminate, _eliminate_rows,
                                   contactify, lift, prolong)
from engellab.zoll import so3_engel_frame, so3_frame_fields

CH3 = Chart("c3", ("x", "y", "z"))


def standard_contact():
    return ParallelizedContact(CH3, vector_field_from_exprs(CH3, ["0", "1", "0"]),
                               vector_field_from_exprs(CH3, ["1", "0", "y"]))


def constant_jet(x, n, order):
    """The parent evaluation's constant jet of a number (``Jet.constant``:
    its constant term ``0.0 + x``, every other term +0.0); a jet as it is."""
    return x if isinstance(x, Jet) else Jet.constant(x, n, order)


def bits(x):
    """The exact bits of a jet's coefficients, or of a number or a batch's
    array of numbers."""
    return (x.c if isinstance(x, Jet) else np.asarray(x, dtype=float)).tobytes()


def same_as_constant_jet(got, want):
    """``got``, a field's output above order 0, against the constant-jet
    evaluation's ``want``: a jet bit for bit; a number the value of ``want``
    bit for bit, with ``want``'s other terms, and the number's derivatives,
    all +0.0."""
    if isinstance(got, Jet):
        return isinstance(want, Jet) and got.order == want.order and bits(got) == bits(want)
    others = want.c[..., 1:]
    return (bits(got) == bits(want.value) and not np.any(others)
            and not np.signbit(others).any()
            and all(np.all(d == 0.0) for d in gradient(got, want.n)))


# -- the property: a rule of numbers, seeds and generic functions ------------------

NUMBERS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.5, 3.0])
UNARY = {"neg": lambda a: -a, "sin": sin, "cos": cos, "exp": exp,
         "square": lambda a: power(a, 2), "inverse": lambda a: reciprocal(1.5 + a * a)}
BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


def trees(depth):
    """Expression trees over the seeds ``("x", i)`` and numbers, with the
    operations above; ``exp`` only of a sine, so that nothing overflows."""
    leaf = st.one_of(st.tuples(st.just("x"), st.integers(0, 2)), st.tuples(st.just("n"), NUMBERS))
    if depth == 0:
        return leaf
    sub = trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(sorted(BINARY)), sub, sub),
        st.tuples(st.sampled_from(["neg", "sin", "cos", "square", "inverse"]), sub),
        st.tuples(st.just("exp"), st.tuples(st.just("sin"), sub)))


def run(tree, xs):
    """The tree on the inputs ``xs``: numbers as numbers, seeds as given."""
    op = tree[0]
    if op == "x":
        return xs[tree[1]]
    if op == "n":
        return tree[1]
    if op in BINARY:
        return BINARY[op](run(tree[1], xs), run(tree[2], xs))
    return UNARY[op](run(tree[1], xs))


def constant_jet_evaluation(rule, coords, order):
    """The parent's evaluation of a component rule, written out: the rule on
    the seeds; at order 0 each output's value ``0.0 + v``, above it a jet
    truncated to the order and a number wrapped as its constant jet."""
    out = rule(Jet.seeds(coords, order))
    if order == 0:
        return [0.0 + value(j) for j in out]
    return [j.truncated(order) if isinstance(j, Jet) else Jet.constant(j, 3, order) for j in out]


@settings(max_examples=60, deadline=None)
@given(st.lists(trees(3), min_size=3, max_size=3),
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       st.sampled_from([0.0, -0.0, 0.25]))
def test_numbers_equal_their_constant_jets_bit_for_bit(rule_trees, point, zero):
    # values and jets at orders 0-3, at a point and over a 5-row batch, equal
    # the evaluation that wrapped every number as a constant jet; a number
    # that the rule returns stays a number
    def rule(xs):
        return [run(t, xs) for t in rule_trees]

    field = VectorField(CH3, components=rule)
    p = np.array(point)
    rows = np.array([p, -p, p * 0.5, [zero, -0.0, 0.0], [0.3, zero, -0.7]])
    batch = np.ascontiguousarray(rows.T)
    for order in range(4):
        got = field.taylor(batch, order)
        for k, q in enumerate(rows):
            alone = field.taylor(q, order)
            want = constant_jet_evaluation(rule, q, order)
            numbers = [not isinstance(j, Jet) for j in rule(Jet.seeds(q, max(order, 1)))]
            for g, a, w, number in zip(got, alone, want, numbers):
                row = g if not isinstance(g, Jet) or g.c.ndim == 1 else Jet(
                    3, g.order, dict(zip(multi_indices(3, g.order), g.c[k])))
                row = np.broadcast_to(row, len(rows))[k] if not isinstance(g, Jet) else row
                if order == 0:
                    assert bits(a) == bits(w) == bits(row)
                    continue
                assert number == (not isinstance(a, Jet))
                assert same_as_constant_jet(a, w) and same_as_constant_jet(row, w)
        if order == 0:
            assert bits(field(batch)) == bits(np.array([np.broadcast_to(g, len(rows))
                                                         for g in got]))
            assert all(bits(field(q)) == bits(np.array(field.taylor(q, 0))) for q in rows)
    # in one scope, lower orders are truncations of the highest, numbers as
    # they are
    with evaluation_scope():
        top = field.taylor(p, 3)
        lower = [field.taylor(p, k) for k in (1, 2)]
    for k, jets in zip((1, 2), lower):
        want = constant_jet_evaluation(rule, p, k)
        assert all(same_as_constant_jet(j, w) for j, w in zip(jets, want))
        assert all(isinstance(j, Jet) == isinstance(t, Jet) for j, t in zip(jets, top))


# -- brackets, d, X(f) and Reeb fields with number entries, against sympy ----------

x, y, z, t = sp.symbols("x y z t")
a_, b_, c_ = sp.symbols("a b c")


def taylor_coefficient(expr, syms, point, k):
    """The coefficient of the multi-index ``k`` in the Taylor expansion of
    ``expr`` at ``point``."""
    d = sp.sympify(expr)
    for s, e in zip(syms, k):
        if e:
            d = sp.diff(d, s, e)
    scale = math.prod(math.factorial(e) for e in k)
    return float(d.subs(dict(zip(syms, point)))) / scale


def matches(got, expr, syms, point, order, tol=1e-12):
    """A jet or number against the Taylor expansion of a sympy expression to
    ``order``; a number's derivatives are 0.0."""
    n = len(syms)
    for k in multi_indices(n, order):
        if isinstance(got, Jet):
            have = got[k]
        else:
            have = value(got) if not any(k) else 0.0
        if abs(have - taylor_coefficient(expr, syms, point, k)) > tol:
            return False
    return True


def sym_bracket(A, B, syms):
    return [sum(sp.diff(B[i], s) * A[j] - sp.diff(A[i], s) * B[j]
                for j, s in enumerate(syms)) for i in range(len(syms))]


def so3_symbols():
    """K and I of the so(3) chart in sympy, from the half-quaternion rule."""
    w = sp.sqrt(1 - a_ ** 2 - b_ ** 2 - c_ ** 2)

    def field(e):
        return [sp.Rational(1, 2) * (w * e[0] + b_ * e[2] - c_ * e[1]),
                sp.Rational(1, 2) * (w * e[1] + c_ * e[0] - a_ * e[2]),
                sp.Rational(1, 2) * (w * e[2] + a_ * e[1] - b_ * e[0])]

    return field([0, 0, 1]), field([1, 0, 0])


def test_bracket_and_d_with_number_entries_match_sympy():
    # the standard Legendrian frame (0, 1, 0), (1, 0, y) and the so(3) Engel
    # frame {d/dtheta, cos(theta) K + sin(theta) I}, whose jets hold numbers
    contact = standard_contact()
    K, I = so3_symbols()
    so3 = so3_engel_frame()
    vertical, V = so3.frame().fields
    V_sym = [sp.cos(t) * k + sp.sin(t) * i for k, i in zip(K, I)] + [0]
    frames = [(contact.v0, contact.v1, [0, 1, 0], [1, 0, y], (x, y, z),
               np.array([0.3, -0.4, 0.2])),
              (vertical, V, [0, 0, 0, 1], V_sym, (a_, b_, c_, t),
               np.array([0.2, -0.1, 0.3, 0.6]))]
    for A, B, A_sym, B_sym, syms, p in frames:
        want = sym_bracket(A_sym, B_sym, syms)
        for order in (0, 1, 2):
            Aj, Bj = A.taylor(p, order + 1), B.taylor(p, order + 1)
            assert any(not isinstance(j, Jet) for j in Aj + Bj)
            got = jet_bracket(Aj, Bj)
            assert all(matches(g, w, syms, p, order) for g, w in zip(got, want))
            assert all(matches(g, w, syms, p, order)
                       for g, w in zip(lie_bracket(A, B).taylor(p, order), want))
    # d of the standard contact form (y, 0, -1) and of the lifted so(3) form
    # K x I with its number d/dtheta component
    forms = [(annihilator_form(contact.v0, contact.v1), [y, 0, -1], (x, y, z),
              np.array([0.3, -0.4, 0.2])),
             (lift(so3.chart, annihilator_form(*so3_frame_fields()[:2])),
              [K[1] * I[2] - K[2] * I[1], K[2] * I[0] - K[0] * I[2],
               K[0] * I[1] - K[1] * I[0], 0], (a_, b_, c_, t), np.array([0.2, -0.1, 0.3, 0.6]))]
    for alpha, a_sym, syms, p in forms:
        n = len(syms)
        for order in (0, 1, 2):
            a = alpha.taylor(p, order + 1)
            assert any(not isinstance(j, Jet) for j in a)
            M = jet_d_matrix(a)
            for i in range(n):
                assert M[i][i] == 0.0 and not np.signbit(M[i][i]) and not isinstance(M[i][i], Jet)
                for j in range(n):
                    w = sp.diff(a_sym[j], syms[i]) - sp.diff(a_sym[i], syms[j])
                    assert matches(M[i][j], w, syms, p, order)
            assert all(derivative(c, 0) == 0.0 for row in M for c in row if not isinstance(c, Jet))


def test_lie_derivative_and_reeb_with_number_entries_match_sympy():
    contact = standard_contact()
    f = scalar_field_from_expr(CH3, "x*y + sin(z)")
    p = np.array([0.3, -0.4, 0.2])
    for X, X_sym in ((contact.v0, [0, 1, 0]), (contact.v1, [1, 0, y])):
        want = sum(c * sp.diff(x * y + sp.sin(z), s) for c, s in zip(X_sym, (x, y, z)))
        for order in (0, 1, 2):
            assert matches(lie_derivative_scalar(X, f).taylor(p, order)[0], want, (x, y, z),
                           p, order)
    # X(f) of a field whose every component is a number is a number too
    const = vector_field_from_exprs(CH3, ["2", "0", "-1"])
    got = lie_derivative_scalar(const, f).taylor(p, 2)[0]
    assert matches(got, 2 * y - sp.cos(z), (x, y, z), p, 2)
    # on the so(3) domain: d/dtheta of a function of (a, b, c, theta)
    so3 = so3_engel_frame()
    g = scalar_field_from_expr(so3.chart, "a*theta + cos(b*theta)")
    q = np.array([0.2, -0.1, 0.3, 0.6])
    for order in (0, 1, 2):
        assert matches(lie_derivative_scalar(so3.vertical, g).taylor(q, order)[0],
                       sp.diff(a_ * t + sp.cos(b_ * t), t), (a_, b_, c_, t), q, order)
    # the Reeb field of the standard form (y, 0, -1) is -d/dz: d alpha has
    # number entries and the form two of its three components
    alpha = annihilator_form(contact.v0, contact.v1)
    for order in (0, 1, 2):
        a, M = alpha.taylor(p, order), alpha.d_matrix(p, order)
        for got, want in zip(reeb_jets(M, a, p), [0, 0, -1]):
            assert matches(got, sp.Integer(want), (x, y, z), p, order)
    # and of the so(3) form K x I, against sympy's Reeb field
    K, I = so3_symbols()
    form = [K[1] * I[2] - K[2] * I[1], K[2] * I[0] - K[0] * I[2], K[0] * I[1] - K[1] * I[0]]
    syms = (a_, b_, c_)
    d = [[sp.diff(form[j], syms[i]) - sp.diff(form[i], syms[j]) for j in range(3)]
         for i in range(3)]
    v = [d[1][2], d[2][0], d[0][1]]
    pairing = sum(fi * vi for fi, vi in zip(form, v))
    Z = reeb_field(annihilator_form(*so3_frame_fields()[:2]))
    r = np.array([0.2, -0.1, 0.3])
    for order in (0, 1):
        assert all(matches(g, vi / pairing, syms, r, order, tol=1e-10)
                   for g, vi in zip(Z.taylor(r, order), v))


# -- batch rows are their points, numbers included ----------------------------------


def rows_equal_points(field, pts, order):
    """Every row of ``field.taylor`` over the batch ``pts`` is bit for bit
    the output at its point: a jet's coefficient row, a number (or a
    number's entry) as the number, and a number against a jet row as that
    jet's constant term with zero derivatives."""
    batch = field.taylor(np.ascontiguousarray(pts.T), order)
    for k, p in enumerate(pts):
        for g, a in zip(batch, field.taylor(p, order)):
            if isinstance(g, Jet):
                row = np.broadcast_to(g.c, (len(pts), g.c.shape[-1]))[k]
                want = constant_jet(a, g.n, g.order).c if not isinstance(a, Jet) else a.c
                if row.tobytes() != want.tobytes():
                    return False
            elif isinstance(a, Jet) or bits(np.broadcast_to(g, len(pts))[k]) != bits(a):
                return False
    return True


def test_contactify_batch_rows_with_numbers_equal_points():
    # the induced frame of the standard prolongation on theta slices (one
    # pivot, d/dtheta, in every row) and on x = 0.2, where rows pivot on V
    # or on [d/dtheta, V] and d/dtheta's number entries are eliminated
    dom = prolong(standard_contact())
    pts = np.random.default_rng(23).uniform(-0.8, 0.8, (6, 3))
    pts[:, 2] = [0.1, 1.4, 0.5, 1.0, 0.3, 1.2]
    for slc in (dom.theta_slice(0.7), Slice(dom.chart, 0, 0.2)):
        induced = contactify(dom.frame(), slc)
        for field in (induced.v0, induced.v1):
            for order in (0, 1, 2):
                assert rows_equal_points(field, pts, order)
        stack = induced.plane_basis(pts)
        assert all(stack[k].tobytes() == induced.plane_basis(m).tobytes()
                   for k, m in enumerate(pts))


def test_batch_numbers_meet_jets_row_by_row():
    # a taylor_fn field whose output is a number in each row, an (N,) array
    # over a batch at every order, scales and brackets with jets row by row:
    # a NumPy array (or scalar) first in a product or sum leaves it to the jet
    s = ScalarField(CH3, taylor_fn=lambda coords, order: [0.5 * coords[1] - 0.25])
    X = vector_field_from_exprs(CH3, ["y", "x*z", "1"])
    pts = np.random.default_rng(41).uniform(-0.8, 0.8, (5, 3))
    assert isinstance(s.taylor(np.ascontiguousarray(pts.T), 2)[0], np.ndarray)
    for field in (s * X, s + s * s, lie_bracket(X, s * X)):
        for order in (0, 1, 2):
            assert rows_equal_points(field, pts, order)
    assert isinstance(np.ones(2) * Jet.variable(0, 3, 1), Jet)
    assert isinstance(np.float64(2.0) - Jet.variable(0, 3, 1), Jet)


def test_eliminate_rows_treats_numbers_as_the_point_path_does():
    # generators mixing floats, (N,) arrays and jets, whose rows pivot on
    # each of the three: every row is _eliminate at its point, a number the
    # point gives where the batch has a jet being that jet's constant term
    rng = np.random.default_rng(37)
    rows = 6

    def jet():
        return Jet(2, 1, {k: rng.uniform(-1.0, 1.0, rows) for k in multi_indices(2, 1)})

    normals = np.array([[2.0, 0.1, 0.3, -3.0, 0.2, 0.5],
                        [0.5, -2.0, 0.1, 1.0, 0.3, -0.4],
                        [0.1, 0.2, 2.5, 0.5, -0.0, 0.6]])
    gens = [[normals[0], 1.0, jet()],
            [Jet(2, 1, {(0, 0): normals[1], (1, 0): 0.5}), -0.0, 2.0],
            [normals[2], 0.5, -1.5]]
    q = np.zeros((3, rows))
    mixed = 0
    for which in (0, 1):
        batch = _eliminate_rows(gens, 0, which, q)
        for k in range(rows):
            at = [[e.c[k] if isinstance(e, Jet) else e[k] if isinstance(e, np.ndarray) else e
                   for e in g] for g in gens]
            at = [[Jet(2, 1, dict(zip(multi_indices(2, 1), e))) if isinstance(e, np.ndarray)
                   else e for e in g] for g in at]
            piv = max(range(3), key=lambda i: abs(value(at[i][0])))
            alone = _eliminate(at[which + (which >= piv)], at[piv], 0)
            for g, a in zip(batch, alone):
                if isinstance(g, Jet):
                    mixed += not isinstance(a, Jet)
                    assert g.c[k].tobytes() == constant_jet(a, 2, 1).c.tobytes()
                else:
                    assert bits(np.broadcast_to(g, rows)[k]) == bits(a)
    assert mixed  # some rows give a number at their point and a jet row here


def test_flag_suites_batch_reports_equal_points():
    # the frames of the flags suites (verify-engel's default, the standard
    # prolongation, so(3)), whose jets hold numbers: a batch's reports and
    # characteristic lines are each point's, bit for bit
    rng = np.random.default_rng(29)
    engel = DistributionFrame([vector_field_from_exprs(cli.ENGEL_CHART, ["0", "0", "0", "1"]),
                               vector_field_from_exprs(cli.ENGEL_CHART, ["1", "w", "y", "0"])])
    frames = [engel, prolong(standard_contact()).frame(), so3_engel_frame().frame()]
    for frame in frames:
        pts = rng.uniform(-0.5, 0.5, (8, 4))
        reports = flag_ranks(frame, pts)
        lines = characteristic_line(frame, pts)
        for rep, line, p in zip(reports, lines, pts):
            alone = flag_ranks(frame, p)
            assert rep.ranks == alone.ranks == (2, 3, 4)
            assert all(s.tobytes() == w.tobytes()
                       for s, w in zip(rep.singular_values, alone.singular_values))
            assert line.tobytes() == characteristic_line(frame, p).tobytes()


def test_isotopy_generator_batch_rows_equal_points():
    # X = h Z + X_h of the realize suite's default Hamiltonian, whose jets
    # mix numbers (the lifts' d/dtheta components) with jets
    dom = prolong(standard_contact())
    h = scalar_field_from_expr(dom.chart, "0.05*sin(x) + 0.04*z*cos(y) + 0.03*y")
    gen = ContactIsotopyGenerator(dom, h, (0.25, 1.3))
    rng = np.random.default_rng(31)
    pts = np.column_stack([rng.uniform(-0.5, 0.5, (5, 3)), rng.uniform(0.25, 1.3, 5)])
    for field in (gen.X, gen.Z):
        for order in (0, 1, 2):
            assert rows_equal_points(field, pts, order)
    assert any(not isinstance(j, Jet) for j in gen.Z.taylor(pts[0], 1))

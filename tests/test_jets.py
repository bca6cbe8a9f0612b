"""Jet arithmetic against a sympy series oracle, and the dense kernel against
the plain coefficient loops over a sparse dict store, bit for bit."""

import math
from itertools import product

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from engellab import jets as jets_mod
from engellab.errors import DerivativeOrderError, EngelLabError, JetDomainError
from engellab.jets import (MAX_ORDER, Jet, jet_bracket, jet_compose, jet_composer,
                           jet_identity, jet_invert, jet_pushforward, jet_two_form,
                           linear_part, multi_indices, truncate)

X, Y, Z = sp.symbols("x y z")


def jet_of_expr(expr, symbols, order, base=None):
    """Taylor jet of a sympy expression around ``base`` (default origin)."""
    base = base or [0.0] * len(symbols)
    n = len(symbols)
    j = Jet(n, order)
    shifted = expr.subs({s: s + b for s, b in zip(symbols, base)}, simultaneous=True)
    for k in multi_indices(n, order):
        d = shifted
        for s, e in zip(symbols, k):
            d = sp.diff(d, s, e)
        val = d.subs({s: 0 for s in symbols})
        fact = math.prod(math.factorial(e) for e in k)
        v = float(val) / fact
        if v != 0.0:
            j[k] = v
    return j


def expr_of_jet(j, symbols):
    return sum(v * math.prod(s ** e for s, e in zip(symbols, k)) for k, v in j.items())


def test_ring_ops_match_sympy():
    rng = np.random.default_rng(0)
    f = X ** 2 * Y - 3 * Y * Z + sp.Rational(1, 2) * Z ** 3
    g = 1 + X + X * Y * Z
    jf = jet_of_expr(f, (X, Y, Z), 4)
    jg = jet_of_expr(g, (X, Y, Z), 4)
    want = jet_of_expr(sp.expand(f * g + f - 2 * g), (X, Y, Z), 4)
    got = jf * jg + jf - 2.0 * jg
    assert got.max_coeff_diff(want) < 1e-14


def test_reciprocal_and_division():
    g = 1 + X + X * Y * Z
    jg = jet_of_expr(g, (X, Y, Z), 5)
    # exact identity: g * (1/g) = 1 through order 5
    prod = jg * jg.reciprocal()
    assert prod.max_coeff_diff(Jet.constant(1.0, 3, 5)) <= 1e-13
    with pytest.raises(EngelLabError):
        Jet.variable(0, 3, 4).reciprocal()


@pytest.mark.parametrize("fn,sfn", [
    ("sin", sp.sin), ("cos", sp.cos), ("exp", sp.exp),
])
def test_analytic_functions_match_sympy(fn, sfn):
    arg = sp.Rational(3, 10) + X + 2 * Y ** 2
    j = jet_of_expr(arg, (X, Y), 5)
    got = getattr(j, fn)()
    t = sp.Symbol("t")
    series = sp.series(sfn(t), t, sp.Rational(3, 10), 6).removeO()
    want = jet_of_expr(sp.expand(series.subs(t, arg)), (X, Y), 5)
    assert got.max_coeff_diff(want) < 1e-12


def test_sqrt_log_inverse_pairs():
    j = jet_of_expr(2 + X + Y ** 2, (X, Y), 5)
    assert (j.sqrt() * j.sqrt()).max_coeff_diff(j) <= 1e-13
    assert j.log().exp().max_coeff_diff(j) <= 1e-12
    with pytest.raises(EngelLabError):
        jet_of_expr(X - 1, (X, Y), 3).sqrt()


def test_derivative_antiderivative_roundtrip():
    j = jet_of_expr(X ** 2 * Y + Y ** 3 - Z, (X, Y, Z), 4)
    d = j.derivative(1)
    want = jet_of_expr(X ** 2 + 3 * Y ** 2, (X, Y, Z), 3)
    assert d.max_coeff_diff(want) < 1e-15
    back = d.antiderivative(1)
    # the antiderivative has zero y-constant; compare after dropping those terms
    for k, v in back.items():
        if k[1]:
            assert abs(v - j[k]) < 1e-15


def test_antiderivative_caps_at_max_order():
    j = Jet.constant(1.0, 2, MAX_ORDER)
    assert j.antiderivative(0).order == MAX_ORDER
    with pytest.raises(DerivativeOrderError):
        Jet(2, MAX_ORDER + 1)


def test_compose_identity_and_linear():
    ident = jet_identity(3, 4)
    f = jet_of_expr(X + Y ** 2 - Z * X, (X, Y, Z), 4)
    assert jet_compose(f, ident).max_coeff_diff(f) == 0.0
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [3.0, 0.0, 1.0]])
    B = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
    la = [sum(ident[j] * A[i][j] for j in range(3)) for i in range(3)]
    lb = [sum(ident[j] * B[i][j] for j in range(3)) for i in range(3)]
    comp = jet_compose(la, lb)
    assert np.allclose(linear_part(comp), A @ B)


def test_compose_matches_hand_expansion():
    # (x + y^2) o (x -> x + x^2, y -> y): coefficient bookkeeping
    f = jet_of_expr(X + Y ** 2, (X, Y), 3)
    inner = [jet_of_expr(X + X ** 2, (X, Y), 3), jet_of_expr(Y, (X, Y), 3)]
    got = jet_compose(f, inner)
    want = jet_of_expr(X + X ** 2 + Y ** 2, (X, Y), 3)
    assert got.max_coeff_diff(want) == 0.0


def test_compose_rejects_shifted_inner():
    f = jet_of_expr(X + Y, (X, Y), 3)
    bad = [jet_of_expr(1 + X, (X, Y), 3), jet_of_expr(Y, (X, Y), 3)]
    with pytest.raises(EngelLabError):
        jet_compose(f, bad)


def test_nan_constant_term_is_not_at_the_origin():
    # a NaN passes `abs(v) > 1e-13`; it must fail the origin checks
    x, y = (Jet.variable(i, 2, 3) for i in range(2))
    shifted = [x + math.nan, y]
    with pytest.raises(EngelLabError):
        jet_compose(x * y + x, shifted)
    with pytest.raises(EngelLabError):
        jet_invert(shifted)


def compose_by_monomials(outer, inner):
    """The composition as the kernel formed it before the monomial tables:
    the monomials ``inner^k`` built in graded order, each by one product
    ``inner^(k - e_i) * inner_i`` of two jets (``i`` the first variable of
    ``k``), and every coefficient summed from 0.0 over the outer
    coefficients times the monomials in graded order."""
    order = min([o.order for o in outer] + [g.order for g in inner])
    n = inner[0].n
    keys = multi_indices(len(inner), order)
    pos = {k: p for p, k in enumerate(keys)}
    monomials = [Jet.constant(1.0, n, order)]
    for k in keys[1:]:
        i = next(i for i, e in enumerate(k) if e)
        monomials.append(monomials[pos[k[:i] + (k[i] - 1,) + k[i + 1:]]] * inner[i])
    results = []
    for o in outer:
        acc = 0.0
        for p, mono in enumerate(monomials):
            acc = acc + o.c[..., p, None] * mono.c
        results.append(acc)
    return results


def nan_blind(c):
    """The bytes of ``c`` with every NaN made one NaN: which of two NaN
    operands a product or sum passes on depends on NumPy's loop for the
    operand shapes, so a NaN's sign bit carries no value."""
    return np.where(np.isnan(c), np.nan, c).tobytes()


def origin_map(rng, n, m, order, rows=None):
    """``m`` origin-preserving jets in ``n`` variables with random terms,
    some of them signed zeros, infinities or NaNs; over ``rows`` batch rows
    when given.  At order 0, their values (the signed zeros drawn)."""
    shape = () if rows is None else (rows,)
    special = np.array([0.0, -0.0, np.inf, np.nan, 1.0])
    out = []
    for _ in range(m):
        coeffs = {}
        for k in multi_indices(n, order):
            v = rng.uniform(-1.0, 1.0, shape)
            hit = rng.random(shape) < 0.1
            v = np.where(hit, rng.choice(special, shape), v)
            coeffs[k] = np.where(rng.random(shape) < 0.5, 0.0, -0.0) if sum(k) == 0 else v
        coeffs = {k: v if rows else float(v) for k, v in coeffs.items()}
        out.append(Jet(n, order, coeffs) if order else coeffs[(0,) * n])
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_composer_equals_the_per_monomial_loop_bit_for_bit():
    rng = np.random.default_rng(15)
    for n, m, order in product((1, 2, 3), (1, 2, 3, 4), (0, 1, 2, 4)):
        inner = origin_map(rng, n, m, order)
        outer = [{k: rng.uniform(-1.0, 1.0) for k in multi_indices(m, order)} for _ in range(2)]
        if order == 0:
            # order 0 is values: the origin's, and nothing to compose
            assert all(v == 0.0 for v in inner)
            continue
        outer = [Jet(m, order, o) for o in outer]
        through = jet_composer(inner)
        want = compose_by_monomials(outer, inner)
        for got in (through(outer), [through(o) for o in outer], jet_compose(outer, inner)):
            assert [g.order for g in got] == [order, order]
            assert [nan_blind(g.c) for g in got] == [nan_blind(w) for w in want]
        # an outer of lower order reads the leading slice of the table; to
        # order 0 an outer is its value, the composition's at the origin
        assert [o.truncated(0) for o in outer] == [w[..., 0] for w in want]
        for low in range(1, order):
            lower = [o.truncated(low) for o in outer]
            got = through(lower)
            assert [g.order for g in got] == [low, low]
            assert ([nan_blind(g.c) for g in got]
                    == [nan_blind(w) for w in compose_by_monomials(lower, inner)])
        with pytest.raises(EngelLabError, match="arity mismatch"):
            through(Jet(m + 1, order))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_composer_batch_rows_equal_their_points_bit_for_bit():
    # a batch inner, with one component a point jet: each row of the
    # composition is the composition through that row's inner at a point
    rng = np.random.default_rng(16)
    N = 5
    for n, order in ((2, 3), (3, 4)):
        inner = origin_map(rng, n, 2, order, rows=N) + origin_map(rng, n, 1, order)
        outer = Jet(3, order, {k: rng.uniform(-1.0, 1.0) for k in multi_indices(3, order)})
        got = jet_composer(inner)(outer)
        assert nan_blind(got.c) == nan_blind(compose_by_monomials([outer], inner)[0])
        for r in range(N):
            point = [Jet(n, order, {k: float(v[r]) if np.ndim(v) else v for k, v in g.items()})
                     for g in inner]
            assert nan_blind(got.c[r]) == nan_blind(jet_composer(point)(outer).c)


def zero_origin_map(rng, n, m, order, rows=None, linear=False):
    """``m`` jets in ``n`` variables with finite random terms, some of them
    signed zeros, and constant terms 0.0 or -0.0; when ``linear``, signed
    zeros alone above degree 1.  Over ``rows`` batch rows when given."""
    shape = () if rows is None else (rows,)
    out = []
    for _ in range(m):
        coeffs = {}
        for k in multi_indices(n, order):
            zero = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
            v = np.where(rng.random(shape) < 0.1, zero, rng.uniform(-1.0, 1.0, shape))
            v = zero if sum(k) == 0 or (linear and sum(k) > 1) else v
            coeffs[k] = v if rows else float(v)
        out.append(Jet(n, order, coeffs))
    return out


def outer_jet(rng, m, order, linear=False, special=False):
    """A jet in ``m`` variables with random terms: signed zeros alone above
    degree 1 when ``linear``, and some infinities and NaNs below when
    ``special``."""
    coeffs = {}
    for k in multi_indices(m, order):
        v = rng.uniform(-1.0, 1.0)
        if special and rng.random() < 0.2:
            v = rng.choice([np.inf, -np.inf, np.nan])
        coeffs[k] = float(rng.choice([0.0, -0.0]) if linear and sum(k) > 1 else v)
    return Jet(m, order, coeffs)


def table_products(monkeypatch):
    """Record the number of term pairs of each ``jets._product`` call."""
    orig, pairs = jets_mod._product, []

    def recording(a, b, table):
        pairs.append(len(table[0]))
        return orig(a, b, table)

    monkeypatch.setattr(jets_mod, "_product", recording)
    return pairs


def test_structured_composer_equals_the_per_monomial_loop_bit_for_bit(monkeypatch):
    # inners with signed-zero constants and finite terms, linear or not, skip
    # the terms that are zero; the outers are dense and linear, each with and
    # without infinities and NaNs among their terms
    rng = np.random.default_rng(25)
    pairs = table_products(monkeypatch)
    for n, m, order, linear in product((1, 2, 3), (1, 2, 3), (1, 2, 4), (False, True)):
        inner = zero_origin_map(rng, n, m, order, linear=linear)
        outers = [outer_jet(rng, m, order, lin, special)
                  for lin, special in product((False, True), (False, True))]
        lower = [[o.truncated(low) for o in outers] for low in range(1, order)]
        with np.errstate(invalid="ignore", over="ignore"):
            want = [compose_by_monomials(o, inner) for o in [outers] + lower]
            pairs.clear()
            through = jet_composer(inner)
            results = [through(outers), [through(o) for o in outers],
                       [jet_compose(o, inner) for o in outers]]
            lower_results = [through(o) for o in lower]
        for got in results:
            assert [g.order for g in got] == [order] * 4
            assert [nan_blind(g.c) for g in got] == [nan_blind(w) for w in want[0]]
        for got, w in zip(lower_results, want[1:]):
            assert [nan_blind(g.c) for g in got] == [nan_blind(c) for c in w]
        full = len(jets_mod._TABLES[n].products[order][0])
        # degrees 2 and up, once for the shared table and once for each of
        # the two outers above degree 1 in a table of its own
        assert len(pairs) == 3 * (order - 1)
        assert all(p < full for p in pairs)
        # a linear outer reads the constant and degree-1 monomials alone
        pairs.clear()
        jet_compose(outers[2], inner)
        assert pairs == []


def test_structured_composer_batch_rows_equal_their_points_bit_for_bit():
    rng = np.random.default_rng(26)
    N = 5
    for n, order, linear in product((2, 3), (2, 4), (False, True)):
        inner = (zero_origin_map(rng, n, 2, order, rows=N, linear=linear)
                 + zero_origin_map(rng, n, 1, order, linear=linear))
        outers = [outer_jet(rng, 3, order), outer_jet(rng, 3, order, linear=True)]
        got = jet_composer(inner)(outers)
        assert ([nan_blind(g.c) for g in got]
                == [nan_blind(w) for w in compose_by_monomials(outers, inner)])
        for r in range(N):
            point = [Jet(n, order, {k: float(v[r]) if np.ndim(v) else v for k, v in g.items()})
                     for g in inner]
            assert ([nan_blind(g.c[r]) for g in got]
                    == [nan_blind(g.c) for g in jet_composer(point)(outers)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_composer_takes_the_full_tables_unless_constants_are_zero_and_terms_finite(monkeypatch):
    # a constant within 1e-13 of zero passes the origin check but is not
    # zero, and an infinity, or a product that overflows, makes the zero
    # terms NaN: none of them skips a term
    rng = np.random.default_rng(27)
    pairs = table_products(monkeypatch)
    order = 4
    full = len(jets_mod._TABLES[3].products[order][0])
    for k, v in (((0, 0, 0), 1e-14), ((0, 2, 1), np.inf), ((1, 0, 0), 1e100)):
        inner = zero_origin_map(rng, 3, 3, order, linear=True)
        inner[1][k] = v
        outers = [outer_jet(rng, 3, order), outer_jet(rng, 3, order, linear=True)]
        want = compose_by_monomials(outers, inner)
        pairs.clear()
        got = jet_composer(inner)(outers)
        assert pairs == [full] * order
        assert [nan_blind(g.c) for g in got] == [nan_blind(w) for w in want]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mixed_order_bracket_equals_the_bracket_of_truncated_tuples():
    # an order-2 tuple against an order-1 one: truncating both to order 1
    # first gives the bits of the products over the untruncated tuples, the
    # derivatives' values times the tuples' values
    rng = np.random.default_rng(17)
    for rows in (None, 4):
        A = origin_map(rng, 3, 3, 2, rows)
        B = [j + 0.5 for j in origin_map(rng, 3, 3, 1, rows)]
        want = []
        for i in range(3):
            acc = None
            for j in range(3):
                term = (B[i].derivative(j) * A[j].value
                        - A[i].derivative(j).value * B[j].value)
                acc = term if acc is None else acc + term
            want.append(acc)
        for got in (jet_bracket(A, B), jet_bracket([a.truncated(1) for a in A], B)):
            assert not any(isinstance(g, Jet) for g in got)  # order 0 is values
            assert [nan_blind(np.asarray(g)) for g in got] == [nan_blind(np.asarray(w))
                                                              for w in want]


def test_invert_series_reversion():
    # x -> x + x^2 inverts to x - x^2 + 2x^3 (classical reversion)
    f = [jet_of_expr(X + X ** 2, (X,), 3)]
    inv = jet_invert(f)
    want = jet_of_expr(X - X ** 2 + 2 * X ** 3, (X,), 3)
    assert inv[0].max_coeff_diff(want) < 1e-13


def test_invert_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(5):
        change = []
        A = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        ident = jet_identity(3, 4)
        for i in range(3):
            f = sum(ident[j] * A[i][j] for j in range(3))
            for k in multi_indices(3, 4):
                if 2 <= sum(k):
                    f[k] = f[k] + rng.uniform(-0.2, 0.2)
            change.append(f)
        inv = jet_invert(change)
        comp = jet_compose(inv, change)
        for c, i_ in zip(comp, jet_identity(3, 4)):
            assert c.max_coeff_diff(i_) < 1e-10


def test_pushforward_of_coordinate_field_through_shear():
    # d/dx through (x, y + x^2) becomes d/dx + 2x d/dy
    change = [jet_of_expr(X, (X, Y), 4), jet_of_expr(Y + X ** 2, (X, Y), 4)]
    field = [jet_of_expr(sp.Integer(1), (X, Y), 4), jet_of_expr(sp.Integer(0), (X, Y), 4)]
    got = jet_pushforward(change, field)
    assert got[0].max_coeff_diff(jet_of_expr(sp.Integer(1), (X, Y), 3)) < 1e-13
    assert got[1].max_coeff_diff(jet_of_expr(2 * X, (X, Y), 3)) < 1e-13
    # from order-1 jets the pushforward is order 0, the values of the jets
    # above: d/dy through (x + 0.5 y, y + x^2) is (0.5, 1) at the origin
    change[0] = change[0] + 0.5 * jet_of_expr(Y, (X, Y), 4)
    field = field[::-1]
    low = jet_pushforward([c.truncated(1) for c in change], [f.truncated(1) for f in field])
    assert low == [g.value for g in jet_pushforward(change, field)] == [0.5, 1.0]


def test_embed_restrict_swap():
    j = jet_of_expr(X * Y + X ** 2, (X, Y), 3)
    e = j.embed(3, [0, 2])
    want = jet_of_expr(X * Z + X ** 2, (X, Y, Z), 3)
    assert e.max_coeff_diff(want) == 0.0
    assert e.restrict(1).max_coeff_diff(j) == 0.0
    s = jet_of_expr(X ** 2 * Y, (X, Y, Z), 3).swap_vars(0, 1)
    assert s.max_coeff_diff(jet_of_expr(Y ** 2 * X, (X, Y, Z), 3)) == 0.0


def test_multi_indices_graded_order():
    # the order the product filter gives: by degree, lexicographic within one
    for n in range(1, 5):
        for order in range(MAX_ORDER + 1):
            want = [idx for total in range(order + 1)
                    for idx in product(range(total + 1), repeat=n) if sum(idx) == total]
            assert multi_indices(n, order) == want


# -- bit-for-bit differential tests against the plain nested loops ------------
#
# The reference functions below are the coefficient loops of the former
# sparse kernel, kept as an oracle on a dict store of their own: results must
# agree in every coefficient bit (the sign of zero included).  Operands enter
# the reference store with every term in graded order, the order in which the
# dense kernel sums.


class Ref:
    """The sparse store the reference loops run on: ``c`` maps multi-index
    tuples to coefficients, a missing term being +0.0."""

    def __init__(self, n, order, coeffs=None):
        self.n = n
        self.order = order
        self.c = dict(coeffs) if coeffs else {}


def ref_of(j):
    """The reference of a jet; order 0 is values, and a value is its own."""
    return Ref(j.n, j.order, dict(j.items())) if isinstance(j, Jet) else j


def ref_constant(value, n, order):
    j = Ref(n, order)
    if value != 0.0:
        j.c[(0,) * n] = float(value)
    return j


def ref_variable(i, n, order, base):
    j = ref_constant(base, n, order)
    if order >= 1:
        idx = [0] * n
        idx[i] = 1
        j.c[tuple(idx)] = 1.0
    return j


def ref_add(a, b):
    if not isinstance(a, Ref):  # a value: it adds to a jet's constant term
        return ref_add(b, a) if isinstance(b, Ref) else a + b
    if not isinstance(b, Ref):
        # a float adds to the constant term, a zero included: -0.0 + 0.0 is
        # +0.0 as on floats (the sparse kernel skipped a float zero)
        out = Ref(a.n, a.order, a.c)
        z = (0,) * a.n
        out.c[z] = out.c.get(z, 0.0) + float(b)
        return out
    order = min(a.order, b.order)
    out = Ref(a.n, order, {k: v for k, v in a.c.items() if sum(k) <= order})
    for k, v in b.c.items():
        if sum(k) <= order:
            out.c[k] = out.c.get(k, 0.0) + v
    return out


def ref_mul(a, b):
    if not isinstance(a, Ref):  # a value: it scales a jet
        return ref_mul(b, a) if isinstance(b, Ref) else a * b
    if not isinstance(b, Ref):
        s = float(b)
        return Ref(a.n, a.order, {k: v * s for k, v in a.c.items()})
    order = min(a.order, b.order)
    out = {}
    for k1, v1 in a.c.items():
        d1 = sum(k1)
        if d1 > order:
            continue
        for k2, v2 in b.c.items():
            if d1 + sum(k2) > order:
                continue
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0.0) + v1 * v2
    return Ref(a.n, order, out)


def ref_truncated(a, order):
    if not isinstance(a, Ref):
        return a
    if order >= a.order:
        return Ref(a.n, min(order, a.order), a.c)
    return Ref(a.n, order, {k: v for k, v in a.c.items() if sum(k) <= order})


def ref_derivative(a, i):
    out = Ref(a.n, max(a.order - 1, 0))
    for k, v in a.c.items():
        if k[i] == 0:
            continue
        kk = list(k)
        kk[i] -= 1
        if sum(kk) <= out.order:
            out.c[tuple(kk)] = v * k[i]
    return out


def ref_antiderivative(a, i):
    out = Ref(a.n, min(a.order + 1, MAX_ORDER))
    for k, v in a.c.items():
        kk = list(k)
        kk[i] += 1
        if sum(kk) <= out.order:
            out.c[tuple(kk)] = v / kk[i]
    return out


def ref_analytic(a, series):
    d = ref_add(a, -float(a.c.get((0,) * a.n, 0.0)))
    out = ref_constant(series[0], a.n, a.order)
    power = ref_constant(1.0, a.n, a.order)
    for m in range(1, min(len(series), a.order + 1)):
        power = ref_mul(power, d)
        if series[m] != 0.0:
            out = ref_add(out, ref_mul(power, series[m]))
    return out


def bits(j):
    """Order and every coefficient's exact bits, in graded order; a value
    is order 0."""
    if not isinstance(j, (Jet, Ref)):
        return 0, [float(j).hex()]
    coeffs = j.c if isinstance(j, Ref) else dict(j.items())
    return j.order, [float(coeffs.get(k, 0.0)).hex() for k in multi_indices(j.n, j.order)]


COEFFS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@st.composite
def jets(draw, n, max_order=MAX_ORDER):
    """A jet of random order with a random subset of its terms set, the
    others 0.0; at order 0, that value."""
    order = draw(st.integers(0, max_order))
    keys = draw(st.permutations(multi_indices(n, order)))
    keys = keys[:draw(st.integers(0, len(keys)))]
    coeffs = {k: draw(COEFFS) for k in keys}
    return Jet(n, order, coeffs) if order else coeffs.get((0,) * n, 0.0)


@st.composite
def jet_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(jets(n)), draw(jets(n))


def n_and_order(pair):
    """The variable count of a pair (1 if both are values) and its first
    member's order."""
    a, b = pair
    n = next((j.n for j in pair if isinstance(j, Jet)), 1)
    return n, a.order if isinstance(a, Jet) else 0


@settings(max_examples=300, deadline=None)
@given(jet_pairs())
def test_ring_ops_bit_for_bit(pair):
    a, b = pair
    ra, rb = ref_of(a), ref_of(b)
    assert bits(a * b) == bits(ref_mul(ra, rb))
    assert bits(b * a) == bits(ref_mul(rb, ra))
    assert bits(a + b) == bits(ref_add(ra, rb))
    assert bits(a - b) == bits(ref_add(ra, ref_mul(rb, -1.0)))


@settings(max_examples=200, deadline=None)
@given(jet_pairs(), COEFFS, st.data())
def test_scalar_ops_bit_for_bit(pair, s, data):
    a, _ = pair
    n, order = n_and_order(pair)
    assert bits(Jet.constant(s, n, order)) == bits(ref_constant(s, n, order))
    i = data.draw(st.integers(0, n - 1))
    assert bits(Jet.variable(i, n, order, s)) == bits(ref_variable(i, n, order, s))
    assert bits(a * s) == bits(ref_mul(ref_of(a), s))
    assert bits(s * a) == bits(ref_mul(ref_of(a), s))
    assert bits(a + s) == bits(ref_add(ref_of(a), s))


def test_float_zero_adds_to_the_constant_term():
    # as on floats, -0.0 + 0.0 is +0.0 and -0.0 - 0.0 is -0.0, at a point
    # and in each row of a batch, and a zero constant is +0.0
    j = Jet(2, 1, {(0, 0): -0.0, (1, 0): 1.0})
    for s, sign in ((0.0, "0x0.0p+0"), (-0.0, "-0x0.0p+0")):
        assert (j + s).value.hex() == (j - (-s)).value.hex() == sign
        assert [v.hex() for v in (j + np.array([s, s])).value] == [sign, sign]
    for value in (-0.0, np.array([-0.0, 1.0])):
        assert np.copysign(1.0, Jet.constant(value, 2, 1).c[..., 0]).min() == 1.0


@settings(max_examples=200, deadline=None)
@given(jet_pairs(), st.integers(0, MAX_ORDER + 1), st.data())
def test_truncated_and_derivatives_bit_for_bit(pair, order, data):
    a, _ = pair
    got = truncate(a, min(order, MAX_ORDER))
    assert bits(got) == bits(ref_truncated(ref_of(a), min(order, MAX_ORDER)))
    assert not isinstance(got, Jet) or got.c is not a.c
    i = data.draw(st.integers(0, n_and_order(pair)[0] - 1))
    if isinstance(a, Jet):  # a value has no derivative data
        assert bits(a.derivative(i)) == bits(ref_derivative(ref_of(a), i))
        assert bits(a.antiderivative(i)) == bits(ref_antiderivative(ref_of(a), i))


@settings(max_examples=150, deadline=None)
@given(jet_pairs(), st.lists(COEFFS, min_size=1, max_size=MAX_ORDER + 1))
def test_analytic_bit_for_bit(pair, series):
    a, _ = pair
    if isinstance(a, Jet):  # of a value, the analytic functions are math's
        assert bits(a._analytic(series)) == bits(ref_analytic(ref_of(a), series))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: jets(n, max_order=1)),
       st.lists(COEFFS, min_size=1, max_size=3))
def test_analytic_low_order_bit_for_bit(a, series):
    # the low orders of most field evaluations, sampled more densely
    if isinstance(a, Jet):  # of a value, the analytic functions are math's
        assert bits(a._analytic(series)) == bits(ref_analytic(ref_of(a), series))


def test_batched_analytic_equals_points_bit_for_bit():
    # a batch jet carries one array entry per point; every function of it
    # must give, entry by entry, the bits the same function gives at that
    # point alone.  NumPy's exp, log and power round differently from math
    # and Python's float power on some of these inputs
    rng = np.random.default_rng(11)
    N = 3000
    def terms(x):  # order 0 is values
        return dict(x.items()) if isinstance(x, Jet) else {(0, 0): x}

    for order in (0, 1, 2):
        coeffs = {k: rng.uniform(0.05, 3.0, N) if sum(k) == 0 else rng.uniform(-1.0, 1.0, N)
                  for k in multi_indices(2, order)}
        batch = Jet(2, order, coeffs) if order else coeffs[(0, 0)]
        for name in ("exp", "log", "sqrt", "sin", "cos", "reciprocal"):
            fn = getattr(jets_mod, name)
            got = terms(fn(batch))
            for i in range(N):
                point = {k: float(v[i]) for k, v in coeffs.items()}
                want = terms(fn(Jet(2, order, point) if order else point[(0, 0)]))
                assert list(got) == list(want)
                assert [float(np.broadcast_to(c, (N,))[i]).hex() for c in got.values()] == \
                    [float(c).hex() for c in want.values()]
    values = rng.uniform(0.05, 3.0, N)
    for fn, ref in ((jets_mod.exp, math.exp), (jets_mod.log, math.log),
                    (jets_mod.sin, math.sin), (jets_mod.sqrt, math.sqrt)):
        assert [v.hex() for v in fn(values).tolist()] == [ref(v).hex() for v in values.tolist()]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_products_equal_point_products_bit_for_bit():
    # one bincount over the row-shifted result positions sums each row's term
    # pairs in the point kernel's order: every row of a product is the bits of
    # its points' product, with signed zeros, infinities and NaNs among the
    # coefficients, batch x batch and a point against a batch in both orders
    rng = np.random.default_rng(13)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])

    def coeffs(n, order, N):
        out = {}
        for k in multi_indices(n, order):
            v = rng.uniform(-2.0, 2.0, N)
            hit = rng.random(N) < 0.25
            v[hit] = rng.choice(special, hit.sum())
            out[k] = v
        return out

    for n, order, N in product((2, 3, 4), (0, 1, 2, 3), (1, 2, 3, 200)):
        order_b = int(rng.integers(order, 4))  # the product truncates at the lower order
        ca, cb = coeffs(n, order, N), coeffs(n, order_b, N)
        if order == 0:
            # order 0 is values: the values of b, times a's values, row by row
            a, b = ca[(0,) * n], truncate(Jet(n, order_b, cb), 0) if order_b else cb[(0,) * n]
            for got in (a * b, b * a):
                assert [nan_blind(r) for r in got] == [nan_blind(np.float64(float(x) * float(y)))
                                                       for x, y in zip(a, b)]
            continue
        a, b = Jet(n, order, ca), Jet(n, order_b, cb)
        rows = [(Jet(n, order, {k: float(v[i]) for k, v in ca.items()}),
                 Jet(n, order_b, {k: float(v[i]) for k, v in cb.items()})) for i in range(N)]
        p, q = rows[0]
        for got, want in ((a * b, [x * y for x, y in rows]), (b * a, [y * x for x, y in rows]),
                          (p * b, [p * y for _, y in rows]), (b * p, [y * p for _, y in rows])):
            assert got.order == want[0].order == order and got.c.shape[0] == N
            assert [r.tobytes() for r in got.c] == [w.c.tobytes() for w in want]
    # a NaN stays NaN: a NaN constant term reaches every coefficient
    nan = Jet(3, 2, {(0, 0, 0): np.array([np.nan, 1.0]), (1, 0, 0): np.array([2.0, 3.0])})
    prod = nan * Jet.variable(1, 3, 2, base=np.array([0.5, -0.0]))
    assert np.isnan(prod.c[0]).all() and not np.isnan(prod.c[1]).any()


def test_batch_jet_domain_checks_and_repr():
    # a domain check fails if any entry fails it
    batch = Jet.variable(0, 1, 2, base=np.array([0.5, 1.0, -0.25, 2.0]))
    for fn in (Jet.log, Jet.sqrt):
        with pytest.raises(JetDomainError):
            fn(batch)
    with pytest.raises(JetDomainError):
        Jet.variable(0, 1, 2, base=np.array([0.5, 0.0])).reciprocal()
    assert repr(batch) == "Jet[1 vars, order 2]([ 0.5   1.   -0.25  2.  ]*x^(0,) + [1. 1. 1. 1.]*x^(1,))"


def test_kernel_results_own_their_arrays():
    a = jet_of_expr(1 + X + X * Y, (X, Y), 3)
    before = a.c.copy()
    for got in (a.copy(), a.truncated(3), a.truncated(2), a + 0.0, a * 1.0, a + Jet(2, 3)):
        assert not np.shares_memory(got.c, a.c)
        got.c[...] = 0.0
    assert np.array_equal(a.c, before)


def test_key_outside_the_table_fails_loudly():
    # outside the table, or above the jet's order
    for key in [(0, -1), (MAX_ORDER + 2, 0), (1,), (3, 0)]:
        with pytest.raises(KeyError):
            Jet(2, 2, {key: 1.0})
        with pytest.raises(KeyError):
            Jet.variable(0, 2, 2)[key] = 1.0


# -- properties -----------------------------------------------------------------


def dense_jets(n, order, bound=1.0):
    idx = multi_indices(n, order)
    return st.lists(st.floats(-bound, bound), min_size=len(idx), max_size=len(idx)).map(
        lambda vals: Jet(n, order, dict(zip(idx, vals))))


@settings(max_examples=60, deadline=None)
@given(dense_jets(3, 3), dense_jets(3, 3), dense_jets(3, 3))
def test_ring_axioms(a, b, c):
    zero, one = Jet(3, 3), Jet.constant(1.0, 3, 3)
    close = 1e-13
    assert ((a + b) + c).max_coeff_diff(a + (b + c)) <= close
    assert (a + b).max_coeff_diff(b + a) <= close
    assert (a + zero).max_coeff_diff(a) == 0.0
    assert (a - a).max_coeff_diff(zero) == 0.0
    assert ((a * b) * c).max_coeff_diff(a * (b * c)) <= close
    assert (a * b).max_coeff_diff(b * a) <= close
    assert (a * one).max_coeff_diff(a) == 0.0
    assert (a * (b + c)).max_coeff_diff(a * b + a * c) <= close


@st.composite
def origin_changes(draw, n=3, order=4):
    """Origin-preserving jet tuples whose linear part is diagonally
    dominant, hence invertible and well conditioned."""
    ident = jet_identity(n, order)
    higher = [k for k in multi_indices(n, order) if sum(k) >= 2]
    change = []
    for i in range(n):
        row = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        f = Jet(n, order)
        for j in range(n):
            f = f + ident[j] * (row[j] + (3.0 if i == j else 0.0))
        vals = draw(st.lists(st.floats(-0.3, 0.3), min_size=len(higher), max_size=len(higher)))
        for k, v in zip(higher, vals):
            f[k] = v
        change.append(f)
    return change


@settings(max_examples=30, deadline=None)
@given(origin_changes())
def test_compose_invert_round_trips(change):
    inv = jet_invert(change)
    ident = jet_identity(3, 4)
    for comp in (jet_compose(inv, change), jet_compose(change, inv)):
        for c, i_ in zip(comp, ident):
            assert c.max_coeff_diff(i_) < 1e-10


@st.composite
def two_form_operands(draw, order=2):
    """An antisymmetric matrix of jets, its upper entries drawn and the lower
    ones their negations, and two jet vectors, in 2 to 4 variables."""
    n = draw(st.integers(2, 4))
    M = [[Jet(n, order)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = draw(dense_jets(n, order))
            M[j][i] = -M[i][j]
    u = [draw(dense_jets(n, order)) for _ in range(n)]
    v = [draw(dense_jets(n, order)) for _ in range(n)]
    return M, u, v


@settings(max_examples=60, deadline=None)
@given(two_form_operands())
def test_two_form_contraction_equals_the_double_sum(operands):
    M, u, v = operands
    want = None
    for i in range(len(M)):
        for j in range(len(M)):
            term = M[i][j] * u[i] * v[j]
            want = term if want is None else want + term
    assert jet_two_form(M, u, v).max_coeff_diff(want) <= 1e-12
    # swapping the vectors negates the contraction
    assert jet_two_form(M, v, u).max_coeff_diff(-want) <= 1e-12


def test_two_form_batch_rows_equal_their_points_bit_for_bit():
    rng = np.random.default_rng(13)
    n, order, N = 3, 2, 5
    idx = multi_indices(n, order)

    def batch():
        return Jet(n, order, {k: rng.uniform(-1.0, 1.0, N) for k in idx})

    def row(j, r):
        return Jet(n, order, {k: float(c[r]) for k, c in j.items()})

    M = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = batch()
    u, v = [batch() for _ in range(n)], [batch() for _ in range(n)]
    got = jet_two_form(M, u, v)
    for r in range(N):
        point = jet_two_form([[m and row(m, r) for m in line] for line in M],
                             [row(j, r) for j in u], [row(j, r) for j in v])
        assert got.c[r].tobytes() == point.c.tobytes()

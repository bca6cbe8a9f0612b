"""Truncated multivariate power series (jets) with exact coefficient arithmetic.

A :class:`Jet` stores the Taylor coefficients of a smooth function around an
(implicit) base point: ``f = sum c[alpha] * dx**alpha`` over multi-indices with
``|alpha| <= order``.  All operations truncate at the jet's order, so
arithmetic is exact up to rounding.  Jets double as the
derivative-propagation engine for vector fields (evaluate the component rule on
seed jets) and as the substrate of the normal-form algorithm.

The store is dense: one float64 array per jet, ``c[..., p]`` the coefficient
of the multi-index at position ``p`` of a graded table, of shape ``(count,)``
at one point and ``(N, count)`` for a batch of N points (a point jet
broadcasts against a batch jet).  Sums and truncations are slices,
derivatives and changes of variables gathers, and the one product routine
adds each coefficient's term pairs in graded order from 0.0, for all the rows
of a batch in one ``np.bincount`` over the row-shifted result positions.  A
batch row equals its point's jet bit for bit: the arithmetic runs in the same
order, and the series of the analytic functions are computed entry by entry by
the one-point code (with :mod:`math`, whose rounding NumPy's may not share,
and its domain checks).  Orders are capped at :data:`MAX_ORDER`; the
normal-form pipeline needs at most order 6.

A constant is its value at every order: a number (a float, or an ``(N,)``
array over a batch) stands for the constant jet of that value, whose other
terms are 0.0, and is not wrapped as one.  Arithmetic of a jet with a number
is a shift of the constant term or a scaling of every term, not the dense
product with the number's constant jet; the two agree in every coefficient
up to the sign of a zero (the product sums its term pairs from 0.0).  Order 0
is values too: the Taylor coefficient of order 0 is the value, so a jet has
order 1 or more.  ``Jet.constant``, ``Jet.variable`` and ``Jet.seeds`` at
order 0 give ``0.0 + value``, and ``truncated(0)`` and the derivative of an
order-1 jet give values.  The generic helpers below take jets and numbers
alike (the derivatives of a number are 0.0), so code runs at every order.

Composition goes through :func:`jet_composer`: it builds the table of the
monomials ``inner^k`` once, a degree at a time (each degree one batch product
of its parent monomials and the matching inner components), and composes
every outer given to it from that table, so callers that compose several
outers through one inner map pay for its table once.  The inner map fixes the
origin: its constant terms, each within 1e-13 of zero, compose as 0.0, and a
coefficient that is not finite, or a table that could overflow, raises.  The
terms that the zero constants make zero are skipped, which leaves every
coefficient bit for bit the full sum's.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate
from operator import add

import numpy as np

from .errors import DerivativeOrderError, EngelLabError, JetDomainError

MAX_ORDER = 6
_ARRAY = np.ndarray
# the most entries of a flat product index that is kept: every row count of
# the orders up to 2 over a 200-point sample set, and every stack of lanes
_KEPT_INDEX = 1 << 14


def _check_order(order):
    if order < 0 or order > MAX_ORDER:
        raise DerivativeOrderError(f"jet order {order} outside [0, {MAX_ORDER}]")


def _series(series_of, a0, order):
    """``series_of(a0, order)`` at one point; in a batch, the series of each
    entry, gathered into one array per coefficient."""
    if isinstance(a0, _ARRAY):
        return [np.array(c) for c in zip(*[series_of(v, order) for v in a0.tolist()])]
    return series_of(a0, order)


# Taylor coefficients f^(m)(a0)/m!, m <= order, of the analytic functions

def _reciprocal_series(a0, order):
    if a0 == 0.0:
        raise JetDomainError("jet division by a series with zero constant term")
    return [(-1.0) ** m / a0 ** (m + 1) for m in range(order + 1)]


def _sqrt_series(a0, order):
    if a0 <= 0.0:
        raise JetDomainError("jet sqrt requires positive constant term")
    series, coef = [], math.sqrt(a0)
    for m in range(order + 1):
        series.append(coef)
        coef *= (0.5 - m) / ((m + 1) * a0)
    return series


def _exp_series(a0, order):
    e0 = math.exp(a0)
    return [e0 / math.factorial(m) for m in range(order + 1)]


def _log_series(a0, order):
    if a0 <= 0.0:
        raise JetDomainError("jet log requires positive constant term")
    series = [math.log(a0)]
    for m in range(1, order + 1):
        series.append((-1.0) ** (m + 1) / (m * a0 ** m))
    return series


def _sin_series(a0, order):
    s0, c0 = math.sin(a0), math.cos(a0)
    cycle = [s0, c0, -s0, -c0]
    return [cycle[m % 4] / math.factorial(m) for m in range(order + 1)]


def _cos_series(a0, order):
    s0, c0 = math.sin(a0), math.cos(a0)
    cycle = [c0, -s0, -c0, s0]
    return [cycle[m % 4] / math.factorial(m) for m in range(order + 1)]


def _of_degree(n, d):
    """The multi-indices of degree ``d`` in ``n`` variables, in
    lexicographic order."""
    if n == 0:
        return [()] if d == 0 else []
    return [(e,) + rest for e in range(d + 1) for rest in _of_degree(n - 1, d - e)]


class _Lazy(dict):
    """Key -> ``build(key)``, built on first use and kept."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _Graded:
    """Graded multi-index table for ``n`` variables, and the kernel's index
    tables.

    ``keys`` lists every multi-index of degree at most ``MAX_ORDER`` by
    degree, lexicographically within a degree; ``pos`` inverts it, and the
    multi-indices of degree at most ``d`` are the first ``count[d]``.
    ``units[i]`` is the position of ``x_i``; ``nonconstant[order]`` is 0.0
    at the constant term, 1.0 elsewhere.  For each nonconstant multi-index
    ``k``, ``firsts[p]`` is its first variable ``i`` with a nonzero exponent
    and ``parents[p]`` the position of ``k - e_i`` (both 0 at the constant
    term), the plan of the monomial tables of :func:`jet_composer`.  Built on
    first use of an order:
    ``products[order] = (P, Q, R, size, flat)`` lists every pair of
    positions ``(P[j], Q[j])`` with degrees summing to at most ``order`` in
    p-major order, ``R[j]`` the position of their sum, and ``flat(rows)``
    the positions ``R + size * row`` over ``rows`` batch rows, flattened
    (kept for a few row counts, up to :data:`_KEPT_INDEX` entries);
    ``blocks[order, d, linear]`` is the part of ``products[order]`` that
    can be nonzero in the degree-``d`` block of a monomial table over an
    inner map with zero constants and finite terms: the pairs of a term of
    degree ``d - 1`` or more (exactly ``d - 1`` for a ``linear`` inner) with
    a term of degree 1 or more (exactly 1), in the same order.
    ``derivatives[order][i]`` gives, for each term of degree below ``order``,
    the position of the term with exponent ``i`` raised, and that exponent.
    """

    __slots__ = ("n", "keys", "pos", "count", "degrees", "units", "nonconstant", "parents",
                 "firsts", "products", "blocks", "derivatives")

    def __init__(self, n):
        layers = [_of_degree(n, d) for d in range(MAX_ORDER + 1)]
        keys = [k for layer in layers for k in layer]
        self.n = n
        self.keys = keys
        self.pos = {k: p for p, k in enumerate(keys)}
        self.count = list(accumulate(len(layer) for layer in layers))
        self.degrees = np.array([sum(k) for k in keys])
        self.units = np.array([self.pos[tuple(int(j == i) for j in range(n))] for i in range(n)])
        self.nonconstant = [np.array([0.0] + [1.0] * (size - 1)) for size in self.count]
        firsts = [next((i for i, e in enumerate(k) if e), 0) for k in keys]
        self.firsts = np.array(firsts)
        self.parents = np.array([0] + [self.pos[k[:i] + (k[i] - 1,) + k[i + 1:]]
                                       for k, i in zip(keys[1:], firsts[1:])])
        self.products = _Lazy(self._products)
        self.blocks = _Lazy(self._block)
        self.derivatives = _Lazy(self._derivatives)

    def _products(self, order):
        keys, count = self.keys, self.count
        pairs = [(p, q) for p in range(count[order]) for q in range(count[order - sum(keys[p])])]
        P, Q = np.array(pairs).T.copy()
        R = np.array([self.pos[tuple(map(add, keys[p], keys[q]))] for p, q in pairs])
        return self._table(P, Q, R, count[order])

    @staticmethod
    def _table(P, Q, R, size):
        flat = functools.lru_cache(maxsize=8)(
            lambda rows: (R + size * np.arange(rows)[:, None]).ravel())
        return P, Q, R, size, flat

    def _block(self, key):
        order, d, linear = key
        P, Q, R, size, _ = self.products[order]
        dp, dq = self.degrees[P], self.degrees[Q]
        keep = (dp == d - 1) & (dq == 1) if linear else (dp >= d - 1) & (dq >= 1)
        return self._table(P[keep], Q[keep], R[keep], size)

    def _derivatives(self, order):
        below = self.keys[:self.count[order - 1]]
        return [(np.array([self.pos[k[:i] + (k[i] + 1,) + k[i + 1:]] for k in below]),
                 np.array([k[i] + 1.0 for k in below]))
                for i in range(self.n)]


# variable count -> its table; a table depends on the variable count alone,
# so one per process is shared by every jet
_TABLES = _Lazy(_Graded)


@functools.cache
def _relabel_table(n, order, n_new, positions):
    """Where each term of degree at most ``order`` in ``n`` variables lands
    when old variable ``j`` becomes variable ``positions[j]`` of ``n_new``:
    its position there, or one past the last term if a variable whose
    position is None occurs in it; and the number of terms there."""
    new = _TABLES[n_new]
    size = new.count[order]
    dst = []
    for k in _TABLES[n].keys[:_TABLES[n].count[order]]:
        kk = tuple(sum(e for e, j in zip(k, positions) if j == v) for v in range(n_new))
        dst.append(new.pos[kk] if sum(kk) == sum(k) else size)
    return np.array(dst), size


def _take(c, index):
    """``c[..., index]``; at a point by plain indexing, which costs less."""
    return c[index] if c.ndim == 1 else c[:, index]


def _accumulate(index, terms, size, flat=None):
    """Add ``terms[..., j]`` into position ``index[j]`` of a last axis of
    length ``size``, one term after another from 0.0 (``np.bincount`` adds
    its weights in order), each row of a batch on its own, in one
    ``np.bincount`` over the positions ``index + size * row`` (``flat``, when
    the caller has them)."""
    if terms.ndim == 1:
        return np.bincount(index, terms, size)
    rows = len(terms)
    if flat is None:
        flat = (index + size * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, terms.ravel(), rows * size).reshape(rows, size)


def _product(a, b, table):
    """The coefficients of the product of two jets with coefficients ``a``
    and ``b``, from the product table of the result's order: every
    coefficient sums its term pairs from 0.0 in the table's order."""
    P, Q, R, size, flat = table
    if a.ndim == 1 and b.ndim == 1:
        return np.bincount(R, a[P] * b[Q], size)
    terms = _take(a, P) * _take(b, Q)
    return _accumulate(R, terms, size, flat(len(terms)) if terms.size <= _KEPT_INDEX else None)


def _scalar(s):
    """A float factor, or a batch's array shaped to scale each row."""
    return s[:, None] if isinstance(s, _ARRAY) else float(s)


# the jet methods of a NumPy ufunc with a jet first or second
_JET_UFUNCS = {np.add: ("__add__", "__radd__"), np.subtract: ("__sub__", "__rsub__"),
               np.multiply: ("__mul__", "__rmul__"),
               np.true_divide: ("__truediv__", "__rtruediv__")}


def _jet(n, order, c):
    """A jet around the coefficient array ``c`` (taken, not copied), for
    results whose order the kernel already knows to be valid."""
    j = object.__new__(Jet)
    j.n = n
    j.order = order
    j.c = c
    return j


class Jet:
    """Truncated power series in ``n`` variables, stored densely: ``c[..., p]``
    is the coefficient of the multi-index at position ``p`` of the graded
    table.

    ``coeffs`` maps multi-index tuples to coefficients (floats, or arrays
    over a batch); keys must be multi-indices of degree at most ``order``,
    others fail with ``KeyError``.  The order is at least 1: at order 0 a
    jet is its value, which the constructors below return.
    """

    __slots__ = ("n", "order", "c")

    def __init__(self, n, order, coeffs=None):
        _check_order(order)
        if order == 0:
            raise DerivativeOrderError("a jet of order 0 is its value; use the value itself")
        coeffs = dict(coeffs or {})
        self.n = n
        self.order = order
        rows = np.broadcast_shapes(*(np.shape(v) for v in coeffs.values()))
        self.c = np.zeros(rows + (_TABLES[n].count[order],))
        for k, v in coeffs.items():
            self[k] = v

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value, n, order):
        """The constant ``value``; at order 0 the value ``0.0 + value``."""
        _check_order(order)
        if order == 0:
            return 0.0 + value
        size = _TABLES[n].count[order]
        if isinstance(value, _ARRAY):
            c = np.zeros(value.shape + (size,))
            np.add(value, 0.0, out=c[..., 0])
        else:
            c = np.zeros(size)
            c[0] = 0.0 + value
        return _jet(n, order, c)

    @staticmethod
    def variable(i, n, order, base=0.0):
        """The coordinate function ``x_i`` expanded around ``x_i = base``;
        at order 0 its value ``0.0 + base``."""
        j = Jet.constant(base, n, order)
        if order:
            j.c[..., _TABLES[n].units[i]] = 1.0
        return j

    @staticmethod
    def seeds(coords, order):
        """Identity jets centered at ``coords`` (one per variable); a
        ``(dim, N)`` array gives the seeds of a batch of N points.  At order
        0, the coordinates' values."""
        if not order:
            return [0.0 + (c if isinstance(c, _ARRAY) else float(c)) for c in coords]
        n = len(coords)
        return [Jet.variable(i, n, order, c if isinstance(c, _ARRAY) else float(c))
                for i, c in enumerate(coords)]

    # -- basic access ------------------------------------------------------

    def _position(self, k):
        p = _TABLES[self.n].pos[tuple(k)]
        if p >= self.c.shape[-1]:
            raise KeyError(f"multi-index {tuple(k)} above the jet's order {self.order}")
        return p

    def __getitem__(self, k):
        """The coefficient of multi-index ``k``: a float at one point, an
        array over a batch."""
        c, p = self.c, self._position(k)
        return float(c[p]) if c.ndim == 1 else c[:, p]

    def __setitem__(self, k, value):
        self.c.T[self._position(k)] = value

    def items(self):
        """``(multi-index, coefficient)`` for every term, in graded order."""
        c = self.c
        keys = _TABLES[self.n].keys[:c.shape[-1]]
        return zip(keys, c.tolist() if c.ndim == 1 else c.T)

    @property
    def value(self):
        c = self.c
        return float(c[0]) if c.ndim == 1 else c[:, 0]

    def gradient(self):
        g = _take(self.c, _TABLES[self.n].units)
        return g.tolist() if g.ndim == 1 else list(g.T)

    def truncated(self, order):
        """The jet to ``order``, a copy; to order 0, its value."""
        order = min(order, self.order)
        _check_order(order)
        if order == 0:
            return self.value
        return _jet(self.n, order, self.c[..., :_TABLES[self.n].count[order]].copy())

    def copy(self):
        return self.truncated(self.order)

    # -- ring operations ----------------------------------------------------

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """``+ - * /`` of a jet with a NumPy float array (a batch's number)
        or scalar are the jet's own arithmetic, where NumPy would make an
        array of jets, one per entry; an array of jets works entry by entry,
        as any array of objects does."""
        names = _JET_UFUNCS.get(ufunc)
        if names is None or method != "__call__" or kwargs or any(
                isinstance(x, _ARRAY) and x.dtype == object for x in inputs):
            boxed = [np.array(x, dtype=object) if isinstance(x, Jet) else x for x in inputs]
            return getattr(ufunc, method)(*boxed, **kwargs)
        a, b = inputs
        return getattr(a, names[0])(b) if a is self else getattr(b, names[1])(a)

    def __add__(self, other):
        if not isinstance(other, Jet):
            tile = isinstance(other, _ARRAY) and self.c.ndim == 1
            c = np.tile(self.c, (len(other), 1)) if tile else self.c.copy()
            c.T[0] += other
            return _jet(self.n, self.order, c)
        a, b, order = self._aligned(other)
        return _jet(self.n, order, a + b)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.n, self.order, -self.c)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self + (-other if isinstance(other, _ARRAY) else -float(other))
        a, b, order = self._aligned(other)
        return _jet(self.n, order, a - b)

    def __rsub__(self, other):
        return (-self) + other

    def _aligned(self, other):
        """Both coefficient arrays truncated to the common order, and it."""
        if self.n != other.n:
            raise EngelLabError(f"jet variable count mismatch: {self.n} vs {other.n}")
        if self.order == other.order:
            return self.c, other.c, self.order
        order = min(self.order, other.order)
        size = _TABLES[self.n].count[order]
        return self.c[..., :size], other.c[..., :size], order

    def __mul__(self, other):
        n = self.n
        if not isinstance(other, Jet):
            return _jet(n, self.order, self.c * _scalar(other))
        if n != other.n:
            raise EngelLabError(f"jet variable count mismatch: {n} vs {other.n}")
        order = self.order if self.order <= other.order else other.order
        return _jet(n, order, _product(self.c, other.c, _TABLES[n].products[order]))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        """A power by products; ``x ** 0`` is the number 1.0.  The first
        factor is the base plus 0.0, bit for bit its product with the
        constant jet 1.0 where its terms are finite (that product sums each
        term from 0.0)."""
        if not isinstance(exponent, int) or exponent < 0:
            raise EngelLabError("jet powers must be nonnegative integers")
        result = 1.0
        base = self
        e = exponent
        while e:
            if e & 1:
                result = (result * base if isinstance(result, Jet)
                          else _jet(self.n, self.order, base.c + 0.0))
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / (other if isinstance(other, _ARRAY) else float(other)))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- analytic functions --------------------------------------------------

    def _analytic(self, series):
        """Compose with a univariate function given its Taylor coefficients
        ``series[m] = f^(m)(a0)/m!`` around this jet's constant term:
        ``sum_m series[m] d^m`` with ``d = self - a0``, one power of ``d``
        at a time."""
        n, order = self.n, self.order
        t = _TABLES[n]
        batch = isinstance(series[0], _ARRAY)  # then every term of the series is
        # the constant term times 0 is, like a0 - a0, zero (or NaN)
        power = d = self.c * t.nonconstant[order]
        out = np.zeros(d.shape)
        for m in range(1, min(len(series), order + 1)):
            if m > 1:
                power = _product(power, d, t.products[order])
            if batch or series[m] != 0.0:
                out = out + power * _scalar(series[m])
        # the terms above add zeros (or NaN) to the constant term, so adding
        # ``0.0 + series[0]`` last gives the sum that starts from its constant jet
        out.T[0] += 0.0 + series[0]
        return _jet(n, order, out)

    def reciprocal(self):
        return self._analytic(_series(_reciprocal_series, self.value, self.order))

    def sqrt(self):
        return self._analytic(_series(_sqrt_series, self.value, self.order))

    def exp(self):
        return self._analytic(_series(_exp_series, self.value, self.order))

    def log(self):
        return self._analytic(_series(_log_series, self.value, self.order))

    def sin(self):
        return self._analytic(_series(_sin_series, self.value, self.order))

    def cos(self):
        return self._analytic(_series(_cos_series, self.value, self.order))

    # -- calculus --------------------------------------------------------------

    def derivative(self, i):
        """Partial derivative with respect to variable ``i`` (order drops by
        1); of an order-1 jet, its value."""
        if self.order == 1:
            c, p = self.c, _TABLES[self.n].units[i]
            return float(c[p]) if c.ndim == 1 else c[:, p]
        src, exponent = _TABLES[self.n].derivatives[self.order][i]
        return _jet(self.n, self.order - 1, _take(self.c, src) * exponent)

    def antiderivative(self, i):
        """Antiderivative in variable ``i`` with zero constant of integration
        (order grows by 1, capped at :data:`MAX_ORDER`)."""
        order = min(self.order + 1, MAX_ORDER)
        dst, exponent = _TABLES[self.n].derivatives[order][i]
        c = np.zeros(self.c.shape[:-1] + (_TABLES[self.n].count[order],))
        c.T[dst] = (self.c[..., :len(dst)] / exponent).T
        return _jet(self.n, order, c)

    # -- variable bookkeeping ----------------------------------------------------

    def embed(self, n_new, positions):
        """Reinterpret in ``n_new`` variables, old variable ``j`` becoming
        variable ``positions[j]``."""
        return self._relabel(n_new, tuple(positions))

    def restrict(self, i):
        """Restrict to the hyperplane where variable ``i`` stays at its base
        value, dropping that variable slot."""
        return self._relabel(self.n - 1, tuple(None if j == i else j - (j > i)
                                               for j in range(self.n)))

    def swap_vars(self, i, j):
        positions = list(range(self.n))
        positions[i], positions[j] = j, i
        return self._relabel(self.n, tuple(positions))

    def _relabel(self, n_new, positions):
        dst, size = _relabel_table(self.n, self.order, n_new, positions)
        return _jet(n_new, self.order, _accumulate(dst, self.c, size + 1)[..., :size])

    # -- comparison / display ------------------------------------------------------

    def max_coeff_diff(self, other):
        """The largest coefficient deviation: a float, or one per batch row."""
        size = _TABLES[self.n].count[min(self.order, other.order)]
        worst = np.max(np.abs(self.c[..., :size] - other.c[..., :size]), axis=-1)
        return worst if worst.ndim else float(worst)

    def __repr__(self):
        body = " + ".join(f"{v if isinstance(v, _ARRAY) else format(v, '.6g')}*x^{k}"
                          for k, v in self.items() if np.any(v != 0.0)) or "0"
        return f"Jet[{self.n} vars, order {self.order}]({body})"


# -- generic smooth functions (dispatch on Jet vs number) ------------------------


def _dispatch(f):
    """``f`` of a jet, of a float, or of each entry of a batch's array."""
    def on(x):
        if isinstance(x, Jet):
            return getattr(x, f.__name__)()
        return np.array([f(v) for v in x.tolist()]) if isinstance(x, _ARRAY) else f(x)

    on.__name__ = f.__name__
    return on


sin, cos, exp, sqrt, log = map(_dispatch, (math.sin, math.cos, math.exp, math.sqrt, math.log))


def power(x, e):
    """``x ** e`` for an integer ``e``: of a jet by products (for ``e < 0``,
    the reciprocal of ``x ** -e``), of a float, or of each entry of a batch's
    array (IEEE 754 leaves the rounding of powers open, and NumPy's array
    powers round otherwise than float powers)."""
    if isinstance(x, Jet):
        return x ** e if e >= 0 else (x ** -e).reciprocal()
    return np.array([v ** e for v in x.tolist()]) if isinstance(x, _ARRAY) else x ** e


# -- generic helpers for code that runs at every order, order 0 (values) included


def value(x):
    """The value of a jet (its constant term); a value is its own."""
    return x.value if isinstance(x, Jet) else x


def truncate(x, order):
    """A jet truncated to ``order`` (to order 0, its value); a value as it is."""
    return x.truncated(order) if isinstance(x, Jet) else x


def derivative(x, i):
    """The partial derivative of a jet in variable ``i``; of a value, 0.0."""
    return x.derivative(i) if isinstance(x, Jet) else 0.0


def gradient(x, n):
    """The first partials of a jet; of a value in ``n`` variables, zeros
    (over a batch, one zero row per partial)."""
    if isinstance(x, Jet):
        return x.gradient()
    return [np.zeros(x.shape) if isinstance(x, _ARRAY) else 0.0] * n


def embed(x, n_new, positions):
    """A jet in ``n_new`` variables (:meth:`Jet.embed`); a value as it is."""
    return x.embed(n_new, positions) if isinstance(x, Jet) else x


def restrict(x, i):
    """A jet restricted to the hyperplane of variable ``i`` at its base value
    (:meth:`Jet.restrict`); a value as it is."""
    return x.restrict(i) if isinstance(x, Jet) else x


def reciprocal(x):
    """``1 / x`` of a jet, a float, or each entry of a batch's array; a zero
    divisor raises :class:`JetDomainError`, of a value as of a jet."""
    if isinstance(x, Jet):
        return x.reciprocal()
    if (x == 0.0).any() if isinstance(x, _ARRAY) else x == 0.0:
        raise JetDomainError("division by a zero value")
    return 1.0 / x


# -- jet tuples: contractions, brackets, composition, inversion, pushforward ------


def _as_tuple(jets):
    return list(jets) if isinstance(jets, (list, tuple)) else [jets]


def jet_dot(a, b):
    """``sum_i a_i b_i``, accumulated left to right."""
    acc = a[0] * b[0]
    for i in range(1, len(a)):
        acc = acc + a[i] * b[i]
    return acc


def jet_two_form(M, u, v):
    """``sum_ij M_ij u_i v_j`` for an antisymmetric ``M``, from the entries
    above the diagonal: ``sum_{i<j} M_ij (u_i v_j - u_j v_i)``, rows outer."""
    acc = None
    for i, row in enumerate(M):
        for j in range(i + 1, len(row)):
            term = row[j] * (u[i] * v[j] - u[j] * v[i])
            acc = term if acc is None else acc + term
    return acc


def jet_d_matrix(a):
    """Jets of the exterior derivative of a one-form from its component jets
    (numbers among them), one order below them: ``d a_{ij} = d_i a_j - d_j
    a_i`` above the diagonal, their exact negations below it, and 0.0 on it."""
    n = len(a)
    up = {(i, j): derivative(a[j], i) - derivative(a[i], j)
          for i in range(n) for j in range(i + 1, n)}
    return [[up[i, j] if i < j else -up[j, i] if i > j else 0.0 for j in range(n)]
            for i in range(n)]


def jet_cross(a, b):
    """Cross product of two 3-component tuples."""
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def jet_bracket(A, B):
    """Lie bracket ``DB.A - DA.B`` of two jet-tuple vector fields, one order
    below the common order of the jets among their entries; a number entry
    is a constant, whose derivatives are 0.0.

    Both tuples are truncated to the common order first, so no product forms
    terms that the sum then drops; the result is bit for bit the bracket of
    the untruncated tuples at that order.  At common order 1, and when every
    entry is a number, the bracket is values: the first partials (read off
    the gradients, with no truncation) times the tuples' values."""
    n = len(A)
    order = min([j.order for j in list(A) + list(B) if isinstance(j, Jet)], default=1)
    if order == 1:
        a, b = ([value(j) for j in T] for T in (A, B))
        dA, dB = ([gradient(j, n) for j in T] for T in (A, B))
    else:
        a, b = ([j.truncated(order) if isinstance(j, Jet) and j.order > order else j
                 for j in T] for T in (A, B))
        dA, dB = ([[derivative(j, k) for k in range(n)] for j in T] for T in (a, b))
    out = []
    for i in range(n):
        acc = None
        for j in range(n):
            term = dB[i][j] * a[j] - dA[i][j] * b[j]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


@functools.cache
def _compose_pairs(m, n, order, linear, size):
    """The (monomial, term) pairs of a composition to ``order`` over the
    first ``size`` monomials in ``m`` variables of an inner map in ``n``
    variables with zero constants that can be nonzero, monomial-major: a
    monomial of degree at most the term's (exactly it, for a ``linear``
    inner), and the constant monomial only at the constant term.  Returns the
    monomials, the terms and the pairs' positions in the flattened
    ``(size, width)`` table."""
    dm, dn = _TABLES[m].degrees[:size], _TABLES[n].degrees[:_TABLES[n].count[order]]
    p, j = (a.ravel() for a in np.meshgrid(np.arange(size), np.arange(len(dn)), indexing="ij"))
    keep = dm[p] == dn[j] if linear else (dm[p] <= dn[j]) & ((p > 0) | (j == 0))
    return p[keep], j[keep], p[keep] * len(dn) + j[keep]


def jet_composer(inner, order=MAX_ORDER):
    """``outer -> outer o inner`` for an origin-preserving jet tuple ``inner``.

    The inner constant terms must be within 1e-13 of zero (a NaN one is not)
    and compose as 0.0; a coefficient that is not finite, inner or outer, or
    an inner map whose table could overflow raises :class:`JetDomainError`.
    The monomials ``inner^k`` in graded order, up to the inner order (or
    ``order``, if lower), are built a degree at a time when an outer first
    needs them: degree 1 is the components plus 0.0, degree ``d`` one batch
    product of the monomials ``inner^(k - e_i)`` times the components
    ``inner_i``, ``i`` the first variable of ``k``.  As a monomial of degree
    ``d`` is +0.0 below degree ``d`` (and above it, for a linear inner), the
    product pairs only the terms of degree ``d - 1`` or more with those of
    degree 1 or more (exactly ``d - 1`` and 1, for a linear inner), and each
    coefficient of a composition sums, in graded order from 0.0, the outer
    coefficients times the monomials of degree at most its own (exactly its
    own).  A skipped term is ±0.0 and a sum from 0.0 never holds -0.0, so
    every coefficient is bit for bit the full sum's.  The returned function
    takes an outer jet, or a list of them, in ``len(inner)`` variables and
    returns the composition truncated at the common order; an outer of lower
    order reads the leading slice of the table, and one with nothing above
    degree 1 needs no table above degree 1.
    """
    inner = _as_tuple(inner)
    m, n = len(inner), inner[0].n
    if any(g.n != n for g in inner):
        raise EngelLabError("inner jets must share one variable count")
    top = min(order, min(g.order for g in inner))
    t, width = _TABLES[m], _TABLES[n].count[top]
    # the inner components as one (..., m, width) array, batch axes first
    comps = np.stack(np.broadcast_arrays(*[g.c[..., :width] for g in inner]), axis=-2)
    if not (np.abs(comps[..., 0]) <= 1e-13).all():
        raise EngelLabError("inner jets must have zero constant term (shift explicitly)")
    comps[..., 0] = 0.0
    # a coefficient of a product is at most the product of the factors' sums
    # of absolute values; an inf or NaN coefficient fails the bound too
    if not float(np.abs(comps).max()) * width <= 1e300 ** (1.0 / top):
        raise JetDomainError("inner jets must have finite terms that cannot overflow "
                             "their monomial table")
    linear = not comps[..., _TABLES[n].count[1]:].any()
    rows = comps.shape[:-2]
    table = np.zeros(rows + (t.count[top], width))
    table[..., 0, 0] = 1.0
    table[..., 1:t.count[1], :] = comps[..., t.firsts[1:t.count[1]], :] + 0.0
    built = 1

    def grow(degree):
        nonlocal built
        for d in range(built + 1, degree + 1):
            lo, hi = t.count[d - 1], t.count[d]
            a = table[..., t.parents[lo:hi], :].reshape(-1, width)
            b = comps[..., t.firsts[lo:hi], :].reshape(-1, width)
            table[..., lo:hi, :] = _product(a, b, _TABLES[n].blocks[top, d, linear]).reshape(
                rows + (hi - lo, width))
        built = max(built, degree)

    def compose(outer):
        single = isinstance(outer, Jet)
        outs = [outer] if single else list(outer)
        if outs[0].n != m:
            raise EngelLabError(f"composition arity mismatch: outer has {outs[0].n} vars, "
                                f"inner has {m} components")
        o = min(top, min(x.order for x in outs))
        size, w = t.count[o], _TABLES[n].count[o]
        if not all(np.isfinite(x.c[..., :size]).all() for x in outs):
            raise JetDomainError("outer jets must have finite terms")
        if all(not x.c[..., t.count[1]:size].any() for x in outs):
            size = t.count[1]  # linear outers
        grow(o if size > t.count[1] else 1)
        p, j, pairs = _compose_pairs(m, n, o, linear, size)
        nonzero = table[..., :size, :w].reshape(rows + (-1,))[..., pairs]
        results = [_jet(n, o, _accumulate(j, _take(x.c, p) * nonzero, w)) for x in outs]
        return results[0] if single else results

    return compose


def jet_compose(outer, inner):
    """Taylor coefficients of ``outer o inner``, truncated at the common
    order: ``jet_composer(inner)`` applied to ``outer`` (a jet or a list of
    jets), with the monomial table built only to the outer order (to degree
    1, for an outer with nothing above it).  Callers that compose several
    outers through one inner should build its :func:`jet_composer` once.
    """
    order = outer.order if isinstance(outer, Jet) else min(o.order for o in outer)
    return jet_composer(inner, order)(outer)


def jet_identity(n, order):
    return [Jet.variable(i, n, order) for i in range(n)]


def linear_part(change):
    """Degree-1 coefficient matrix of an origin-preserving jet tuple: ``(n,
    n)`` at a point, an ``(N, n, n)`` stack over a batch."""
    units = _TABLES[change[0].n].units
    return np.stack(np.broadcast_arrays(*[_take(f.c, units) for f in change]), axis=-2)


def jet_linear(A, order):
    """The jet tuple of ``x -> A x`` at ``order``; an ``(N, n, n)`` stack of
    matrices gives a batch, row ``k`` the map of ``A[k]``."""
    ident = jet_identity(A.shape[-1], order)
    return [jet_dot(ident, row) for row in _matrix_rows(A)]


def _matrix_rows(A):
    """The rows of a matrix as lists of floats; of an ``(N, n, n)`` stack,
    row ``i`` as the ``(n, N)`` array of its entries over the stack."""
    return A.tolist() if A.ndim == 2 else np.swapaxes(A.T, 0, 1)


def jet_invert(change):
    """Compositional inverse of an origin-preserving jet tuple; over a
    batch, of each row's tuple.

    ``jet_compose(inverse, change)`` is the identity to the jets' order.
    """
    change = _as_tuple(change)
    n = change[0].n
    order = min(f.order for f in change)
    through_change = jet_composer(change)  # which checks the origin and the terms
    A = linear_part(change)
    if not (np.linalg.cond(A) < 1e14).all():
        raise EngelLabError("singular linear part")
    # G <- G + (id - G o F) o A^-1, from G = A^-1; each pass fixes one more order
    ident = jet_identity(n, order)
    G = inverse_linear = jet_linear(np.linalg.inv(A), order)
    through_linear = jet_composer(inverse_linear)
    for _ in range(order - 1):
        GF = through_change(G)
        corr = through_linear([ident[i] - GF[i] for i in range(n)])
        G = [G[i] + corr[i] for i in range(n)]
    return G


def jet_pushforward(change, field, through=None):
    """Pushforward of a vector field (component jets) through a coordinate
    change, both expressed as origin-based jet tuples.

    Returns component jets in the new coordinates:
    ``(Dchange . field) o change^{-1}``, every component composed through
    one monomial table of the inverse.  ``through`` is
    ``jet_composer(jet_invert(change))``, built here when not given; a caller
    that composes through the inverse again passes its own.  One derivative
    is consumed, so the result is trustworthy one order below the inputs.
    """
    change = _as_tuple(change)
    field = _as_tuple(field)
    n = change[0].n
    if min(c.order for c in change) == 1:  # the derivatives are values: so is the result
        return [jet_dot(c.gradient(), [value(f) for f in field]) for c in change]
    if through is None:
        through = jet_composer(jet_invert(change))
    return [through(jet_dot([c.derivative(j) for j in range(n)], field)) for c in change]


def multi_indices(n, order):
    """All multi-indices with |alpha| <= order, graded order (by degree,
    lexicographically within a degree)."""
    _check_order(order)
    t = _TABLES[n]
    return t.keys[:t.count[order]]

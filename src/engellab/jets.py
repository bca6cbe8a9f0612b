"""Truncated multivariate power series (jets) with exact coefficient arithmetic.

A :class:`Jet` stores the Taylor coefficients of a smooth function around an
(implicit) base point: ``f = sum c[alpha] * dx**alpha`` over multi-indices with
``|alpha| <= order``.  All operations truncate at the jet's order, so
arithmetic is exact up to rounding.  Jets double as the
derivative-propagation engine for vector fields (evaluate the component rule on
seed jets) and as the substrate of the normal-form algorithm.

A coefficient is a float at one base point, or a 1-D float64 array with one
entry per point of a batch, so one pass of a rule evaluates every point.
Entry ``i`` of a result equals, bit for bit, the float the same operations
give at point ``i`` alone: the arithmetic is IEEE in both, and the Taylor
series of the analytic functions are computed entry by entry by the one-point
code, with :mod:`math` and Python's float power (NumPy's may round
differently) and its domain checks.  A batch keeps zero constants that a
point drops.

The store is sparse: a dict from multi-index tuples to coefficients, holding
only the terms that were set.  The arithmetic is table-driven: for each
variable count, a cached graded table numbers every multi-index up to degree
``MAX_ORDER + 1`` and holds its degree, the index of each pairwise sum and of
each unit shift, so products and derivatives look indices up instead of
building tuples per term.  Orders are capped at :data:`MAX_ORDER`; the
normal-form pipeline needs at most order 6.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, sub

import numpy as np

from .errors import DerivativeOrderError, EngelLabError, JetDomainError

MAX_ORDER = 6
_ARRAY = np.ndarray


def _check_order(order):
    if order < 0 or order > MAX_ORDER:
        raise DerivativeOrderError(f"jet order {order} outside [0, {MAX_ORDER}]")


def _entrywise(f, x):
    """``f(x)`` at one point, ``f`` of each entry of a batch's array."""
    if isinstance(x, _ARRAY):
        return np.array([f(v) for v in x.tolist()])
    return f(x)


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


class _Graded:
    """Graded multi-index table for ``n`` variables.

    ``keys`` lists every multi-index of degree at most ``MAX_ORDER + 1`` by
    degree, lexicographically within a degree; ``pos`` inverts it.  Since the
    table is graded, the multi-indices of degree at most ``d`` are exactly the
    positions below ``count[d]``.  ``zero`` is the multi-index of degree 0
    and ``units[i]`` the one of ``x_i``.  ``sums[p][q]`` is the position of
    ``keys[p] + keys[q]`` for every pair of degree at most ``MAX_ORDER``;
    ``down[i][p]`` and ``up[i][p]`` are the positions of ``keys[p]`` with
    exponent ``i`` lowered (None at exponent 0) or raised (None past the
    table).
    """

    __slots__ = ("zero", "units", "keys", "pos", "degree", "count", "sums", "down", "up")

    def __init__(self, n):
        top = MAX_ORDER + 1
        layers = [_of_degree(n, d) for d in range(top + 1)]
        keys = [k for layer in layers for k in layer]
        pos = {k: p for p, k in enumerate(keys)}
        degree = [d for d, layer in enumerate(layers) for _ in layer]
        count = list(accumulate(len(layer) for layer in layers))
        self.zero = keys[0]
        self.keys = keys
        self.pos = pos
        self.degree = degree
        self.count = count
        self.sums = [[pos[tuple(map(add, k1, k2))] for k2 in keys[:count[MAX_ORDER - d1]]]
                     if d1 <= MAX_ORDER else [] for k1, d1 in zip(keys, degree)]
        self.units = units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        self.down = [[pos[tuple(map(sub, k, u))] if k[i] else None for k in keys]
                     for i, u in enumerate(units)]
        self.up = [[pos.get(tuple(map(add, k, u))) for k in keys] for u in units]


class _Tables(dict):
    """Variable count -> its :class:`_Graded` table, built on first use.
    A table depends on the variable count alone, so one per process is
    shared by every jet."""

    def __missing__(self, n):
        table = self[n] = _Graded(n)
        return table


_TABLES = _Tables()


def _jet(n, order, c):
    """A jet around the coefficient dict ``c`` (taken, not copied), for
    results whose order the kernel already knows to be valid."""
    j = object.__new__(Jet)
    j.n = n
    j.order = order
    j.c = c
    return j


class Jet:
    """Truncated power series in ``n`` variables, stored sparsely as a dict
    from multi-index tuples to coefficients.

    Keys must be multi-indices of degree at most ``MAX_ORDER + 1``; the
    table lookups of the arithmetic fail with ``KeyError`` on other keys.
    """

    __slots__ = ("n", "order", "c")

    def __init__(self, n, order, coeffs=None):
        _check_order(order)
        self.n = n
        self.order = order
        self.c = dict(coeffs) if coeffs else {}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value, n, order):
        _check_order(order)
        if isinstance(value, _ARRAY):
            return _jet(n, order, {_TABLES[n].zero: value})
        return _jet(n, order, {_TABLES[n].zero: float(value)} if value != 0.0 else {})

    @staticmethod
    def variable(i, n, order, base=0.0):
        """The coordinate function ``x_i`` expanded around ``x_i = base``."""
        j = Jet.constant(base, n, order)
        if order >= 1:
            j.c[_TABLES[n].units[i]] = 1.0
        return j

    @staticmethod
    def seeds(coords, order, n=None):
        """Identity jets centered at ``coords`` (one per variable); a
        ``(dim, N)`` array gives the seeds of a batch of N points."""
        coords = list(coords)
        if n is None:
            n = len(coords)
        return [Jet.variable(i, n, order, base=c if isinstance(c, _ARRAY) else float(c))
                for i, c in enumerate(coords[:n])]

    # -- basic access ------------------------------------------------------

    @property
    def value(self):
        return self.c.get(_TABLES[self.n].zero, 0.0)

    def gradient(self):
        c = self.c
        return [c.get(u, 0.0) for u in _TABLES[self.n].units]

    def truncated(self, order):
        if order >= self.order:
            return _jet(self.n, self.order, dict(self.c))
        _check_order(order)
        t = _TABLES[self.n]
        pos, lim = t.pos, t.count[order]
        return _jet(self.n, order, {k: v for k, v in self.c.items() if pos[k] < lim})

    def copy(self):
        return _jet(self.n, self.order, dict(self.c))

    # -- ring operations ----------------------------------------------------
    #
    # Results equal the plain nested loops bit for bit: terms are visited in
    # the operands' dict order, a coefficient made by a product, or by the
    # second operand of a sum, starts as ``0.0 + term`` (so a -0.0 term
    # stores 0.0), and keys enter the result in first-visit order, which
    # later sums iterate in.

    def __add__(self, other):
        if not isinstance(other, Jet):
            c = dict(self.c)
            if isinstance(other, _ARRAY) or other != 0.0:
                z = _TABLES[self.n].zero
                c[z] = c.get(z, 0.0) + (other if isinstance(other, _ARRAY) else float(other))
            return _jet(self.n, self.order, c)
        if self.n != other.n:
            raise EngelLabError(f"jet variable count mismatch: {self.n} vs {other.n}")
        order = min(self.order, other.order)
        a, b = self.c, other.c
        if not (a or b):
            return _jet(self.n, order, {})
        t = _TABLES[self.n]
        pos, lim = t.pos, t.count[order]
        out = {k: v for k, v in a.items() if pos[k] < lim}
        get = out.get
        for k, v in b.items():
            if pos[k] < lim:
                out[k] = get(k, 0.0) + v
        return _jet(self.n, order, out)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.n, self.order, {k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, (Jet, _ARRAY)) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        n = self.n
        if not isinstance(other, Jet):
            s = other if isinstance(other, _ARRAY) else float(other)
            return _jet(n, self.order, {k: v * s for k, v in self.c.items()})
        if n != other.n:
            raise EngelLabError(f"jet variable count mismatch: {n} vs {other.n}")
        order = min(self.order, other.order)
        a, b = self.c, other.c
        if not a or not b:
            return _jet(n, order, {})
        t = _TABLES[n]
        if order == 0:
            z = t.zero
            if z in a and z in b:
                return _jet(n, 0, {z: 0.0 + a[z] * b[z]})
            return _jet(n, 0, {})
        pos, count, degree, sums, keys = t.pos, t.count, t.degree, t.sums, t.keys
        lim = count[order]
        if len(a) == 1:
            # one term: each product term lands on its own key, in b's order
            (k1, v1), = a.items()
            p = pos[k1]
            if p >= lim:
                return _jet(n, order, {})
            row, room = sums[p], count[order - degree[p]]
            return _jet(n, order, {keys[row[q]]: 0.0 + v1 * v2
                                   for k2, v2 in b.items() if (q := pos[k2]) < room})
        # the other operand's terms within the order, once; then, per
        # remaining degree budget, those that fit it (in dict order)
        terms = [(q, v2) for k2, v2 in b.items() if (q := pos[k2]) < lim]
        fitting = {}
        acc = [None] * lim
        first = []
        for k1, v1 in a.items():
            p = pos[k1]
            if p >= lim:
                continue
            room = count[order - degree[p]]
            inner = fitting.get(room)
            if inner is None:
                inner = fitting[room] = [qv for qv in terms if qv[0] < room]
            row = sums[p]
            for q, v2 in inner:
                r = row[q]
                x = acc[r]
                if x is None:
                    acc[r] = 0.0 + v1 * v2
                    first.append(r)
                else:
                    acc[r] = x + v1 * v2
        return _jet(n, order, {keys[r]: acc[r] for r in first})

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise EngelLabError("jet powers must be nonnegative integers")
        result = Jet.constant(1.0, self.n, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
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
        ``series[m] = f^(m)(a0)/m!`` around this jet's constant term.

        At order 0 or 1 the sum is written out, ``series[0]`` plus
        ``series[1]`` times each term of degree at most 1 of ``self - a0`` in
        this jet's key order.  It equals the loop below bit for bit, signs
        of zeros and key order included, since every product term lands in
        a sum with 0.0 or ``series[0]`` there as here."""
        batch = isinstance(series[0], _ARRAY)  # then every term of the series is
        if self.order <= 1:
            t = _TABLES[self.n]
            z = t.zero
            s0 = series[0]
            out = {z: s0 if batch else float(s0)} if batch or s0 != 0.0 else {}
            if self.order == 1 and len(series) > 1 and (batch or series[1] != 0.0):
                s1 = series[1] if batch else float(series[1])
                pos, lim, get = t.pos, t.count[1], out.get
                for k, v in self.c.items():
                    if pos[k] < lim:
                        # the constant term of self - a0 is a0 - a0: zero, or NaN
                        out[k] = get(k, 0.0) + (v - v if k == z else v) * s1
            return _jet(self.n, self.order, out)
        d = self - self.value
        out = Jet.constant(series[0], self.n, self.order)
        power = Jet.constant(1.0, self.n, self.order)
        for m in range(1, min(len(series), self.order + 1)):
            power = power * d
            if batch or series[m] != 0.0:
                out = out + power * series[m]
        return out

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
        """Partial derivative with respect to variable ``i`` (order drops by 1)."""
        order = max(self.order - 1, 0)
        t = _TABLES[self.n]
        pos, lim, down, keys = t.pos, t.count[order + 1], t.down[i], t.keys
        out = {}
        for k, v in self.c.items():
            p = pos[k]
            q = down[p]
            if q is not None and p < lim:
                out[keys[q]] = v * k[i]
        return _jet(self.n, order, out)

    def antiderivative(self, i):
        """Antiderivative in variable ``i`` with zero constant of integration
        (order grows by 1, capped at :data:`MAX_ORDER`)."""
        order = min(self.order + 1, MAX_ORDER)
        t = _TABLES[self.n]
        pos, lim, up, keys = t.pos, t.count[order - 1], t.up[i], t.keys
        out = {}
        for k, v in self.c.items():
            p = pos[k]
            if p < lim:
                out[keys[up[p]]] = v / (k[i] + 1)
        return _jet(self.n, order, out)

    # -- variable bookkeeping ----------------------------------------------------

    def embed(self, n_new, positions):
        """Reinterpret in ``n_new`` variables, old variable ``j`` becoming
        variable ``positions[j]``."""
        out = Jet(n_new, self.order)
        for k, v in self.c.items():
            kk = [0] * n_new
            for j, e in enumerate(k):
                kk[positions[j]] += e
            out.c[tuple(kk)] = out.c.get(tuple(kk), 0.0) + v
        return out

    def restrict(self, i):
        """Restrict to the hyperplane where variable ``i`` stays at its base
        value, dropping that variable slot."""
        out = Jet(self.n - 1, self.order)
        for k, v in self.c.items():
            if k[i] != 0:
                continue
            out.c[k[:i] + k[i + 1:]] = v
        return out

    def swap_vars(self, i, j):
        out = Jet(self.n, self.order)
        for k, v in self.c.items():
            kk = list(k)
            kk[i], kk[j] = kk[j], kk[i]
            out.c[tuple(kk)] = v
        return out

    # -- comparison / display ------------------------------------------------------

    def max_coeff_diff(self, other):
        keys = set(self.c) | set(other.c)
        order = min(self.order, other.order)
        diffs = [abs(self.c.get(k, 0.0) - other.c.get(k, 0.0)) for k in keys if sum(k) <= order]
        return max(diffs, default=0.0)

    def __repr__(self):
        terms = sorted(self.c.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        body = " + ".join(f"{v if isinstance(v, _ARRAY) else format(v, '.6g')}*x^{k}"
                          for k, v in terms if np.any(v != 0.0)) or "0"
        return f"Jet[{self.n} vars, order {self.order}]({body})"


# -- generic smooth functions (dispatch on Jet vs number) ------------------------


def sin(x):
    return x.sin() if isinstance(x, Jet) else _entrywise(math.sin, x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else _entrywise(math.cos, x)


def exp(x):
    return x.exp() if isinstance(x, Jet) else _entrywise(math.exp, x)


def sqrt(x):
    return x.sqrt() if isinstance(x, Jet) else _entrywise(math.sqrt, x)


def log(x):
    return x.log() if isinstance(x, Jet) else _entrywise(math.log, x)


# -- jet tuples: contractions, brackets, composition, inversion, pushforward ------


def _as_tuple(jets):
    return list(jets) if isinstance(jets, (list, tuple)) else [jets]


def jet_dot(a, b):
    """``sum_i a_i b_i``, accumulated left to right."""
    acc = a[0] * b[0]
    for i in range(1, len(a)):
        acc = acc + a[i] * b[i]
    return acc


def jet_bilinear(M, u, v):
    """``sum_ij M_ij u_i v_j``, rows outer, each term ``(M_ij u_i) v_j``."""
    acc = None
    for i, row in enumerate(M):
        for j, m in enumerate(row):
            term = m * u[i] * v[j]
            acc = term if acc is None else acc + term
    return acc


def jet_cross(a, b):
    """Cross product of two 3-component tuples."""
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def jet_bracket(A, B):
    """Lie bracket ``DB.A - DA.B`` of two jet-tuple vector fields (order
    drops by one)."""
    n = len(A)
    out = []
    for i in range(n):
        acc = None
        for j in range(n):
            term = B[i].derivative(j) * A[j] - A[i].derivative(j) * B[j]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def jet_compose(outer, inner):
    """Taylor coefficients of ``outer o inner``, truncated at the common order.

    ``inner`` must map the origin to the origin (zero constant terms).
    """
    inner = _as_tuple(inner)
    single = isinstance(outer, Jet)
    outs = [outer] if single else list(outer)
    m = outs[0].n
    if len(inner) != m:
        raise EngelLabError(f"composition arity mismatch: outer has {m} vars, inner has {len(inner)} components")
    for g in inner:
        if abs(g.value) > 1e-13:
            raise EngelLabError("inner jets must have zero constant term (shift explicitly)")
    order = min(min(o.order for o in outs), min(g.order for g in inner))
    n = inner[0].n
    # precompute powers of each inner component
    powers = []
    for g in inner:
        g = g.truncated(order)
        p = [Jet.constant(1.0, n, order)]
        for _ in range(order):
            p.append(p[-1] * g)
        powers.append(p)
    t = _TABLES[m]
    pos, lim = t.pos, t.count[order]
    results = []
    for o in outs:
        acc = Jet(n, order)
        for k, v in o.c.items():
            if pos[k] >= lim:
                continue
            term = Jet.constant(v, n, order)
            for j, e in enumerate(k):
                if e:
                    term = term * powers[j][e]
            acc = acc + term
        results.append(acc)
    return results[0] if single else results


def jet_identity(n, order):
    return [Jet.variable(i, n, order) for i in range(n)]


def linear_part(change):
    """Degree-1 coefficient matrix of an origin-preserving jet tuple."""
    n = change[0].n
    A = [[0.0] * n for _ in range(len(change))]
    for i, f in enumerate(change):
        g = f.gradient()
        for j in range(n):
            A[i][j] = g[j]
    return A


def _mat_inv(A):
    n = len(A)
    aug = [list(row) + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[piv][col]) < 1e-14:
            raise EngelLabError("singular linear part")
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [v / f for v in aug[col]]
        for r in range(n):
            if r != col:
                fr = aug[r][col]
                if fr:
                    aug[r] = [v - fr * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def jet_invert(change):
    """Compositional inverse of an origin-preserving jet tuple.

    ``jet_compose(inverse, change)`` is the identity to the jets' order.
    """
    change = _as_tuple(change)
    n = change[0].n
    order = min(f.order for f in change)
    for f in change:
        if abs(f.value) > 1e-13:
            raise EngelLabError("jet_invert requires an origin-preserving change")
    Ainv = _mat_inv(linear_part(change))
    # G <- G + (id - G o F) o Ainv ; each pass fixes one more order
    ident = jet_identity(n, order)
    G = []
    for i in range(n):
        g = Jet(n, order)
        for j in range(n):
            if Ainv[i][j] != 0.0:
                g = g + ident[j] * Ainv[i][j]
        G.append(g)
    for _ in range(order - 1):
        GF = jet_compose(G, change)
        R = [ident[i] - GF[i] for i in range(n)]
        corr = jet_compose(R, [sum((ident[j] * Ainv[i][j] for j in range(n)), Jet(n, order)) for i in range(n)])
        G = [G[i] + corr[i] for i in range(n)]
    return G


def jet_pushforward(change, field, inverse=None):
    """Pushforward of a vector field (component jets) through a coordinate
    change, both expressed as origin-based jet tuples.

    Returns component jets in the new coordinates:
    ``(Dchange . field) o change^{-1}``.  One derivative is consumed, so the
    result is trustworthy one order below the inputs.
    """
    change = _as_tuple(change)
    field = _as_tuple(field)
    n = change[0].n
    if inverse is None:
        inverse = jet_invert(change)
    return [jet_compose(jet_dot([c.derivative(j) for j in range(n)], field), inverse)
            for c in change]


def multi_indices(n, order):
    """All multi-indices with |alpha| <= order, graded order (by degree,
    lexicographically within a degree)."""
    _check_order(order)
    t = _TABLES[n]
    return t.keys[:t.count[order]]

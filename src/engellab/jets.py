"""Truncated multivariate power series (jets) with exact coefficient arithmetic.

A :class:`Jet` stores the Taylor coefficients of a smooth function around an
(implicit) base point: ``f = sum c[alpha] * dx**alpha`` over multi-indices with
``|alpha| <= order``.  Coefficients are plain floats; all operations truncate
at the jet's order, so arithmetic is exact up to rounding.  Jets double as the
derivative-propagation engine for vector fields (evaluate the component rule on
seed jets) and as the substrate of the normal-form algorithm.

Orders are capped at :data:`MAX_ORDER`; the normal-form pipeline needs at most
order 6 and keeping things dense keeps composition simple.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import DerivativeOrderError, EngelLabError, JetDomainError

MAX_ORDER = 6


def _zero_index(n):
    return (0,) * n


class Jet:
    """Dense truncated power series in ``n`` variables."""

    __slots__ = ("n", "order", "c")

    def __init__(self, n, order, coeffs=None):
        if order < 0 or order > MAX_ORDER:
            raise DerivativeOrderError(f"jet order {order} outside [0, {MAX_ORDER}]")
        self.n = n
        self.order = order
        self.c = dict(coeffs) if coeffs else {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, n, order):
        j = cls(n, order)
        if value != 0.0:
            j.c[_zero_index(n)] = float(value)
        return j

    @classmethod
    def variable(cls, i, n, order, base=0.0):
        """The coordinate function ``x_i`` expanded around ``x_i = base``."""
        j = cls.constant(base, n, order)
        if order >= 1:
            idx = [0] * n
            idx[i] = 1
            j.c[tuple(idx)] = 1.0
        return j

    @staticmethod
    def seeds(coords, order, n=None):
        """Identity jets centered at ``coords`` (one per variable)."""
        coords = list(coords)
        if n is None:
            n = len(coords)
        return [Jet.variable(i, n, order, base=float(coords[i])) for i in range(n)]

    # -- basic access ------------------------------------------------------

    @property
    def value(self):
        return self.c.get(_zero_index(self.n), 0.0)

    def coefficient(self, idx):
        return self.c.get(tuple(idx), 0.0)

    def partial(self, idx):
        """The partial derivative ``d^alpha f`` at the base point."""
        idx = tuple(idx)
        fact = 1.0
        for e in idx:
            fact *= math.factorial(e)
        return self.c.get(idx, 0.0) * fact

    def gradient(self):
        g = [0.0] * self.n
        for i in range(self.n):
            idx = [0] * self.n
            idx[i] = 1
            g[i] = self.c.get(tuple(idx), 0.0)
        return g

    def truncated(self, order):
        if order >= self.order:
            return Jet(self.n, min(order, self.order), self.c)
        return Jet(self.n, order, {k: v for k, v in self.c.items() if sum(k) <= order})

    def copy(self):
        return Jet(self.n, self.order, self.c)

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise EngelLabError(f"jet variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Jet):
            out = self.copy()
            if other != 0.0:
                z = _zero_index(self.n)
                out.c[z] = out.c.get(z, 0.0) + float(other)
            return out
        self._check(other)
        order = min(self.order, other.order)
        out = Jet(self.n, order, {k: v for k, v in self.c.items() if sum(k) <= order})
        for k, v in other.c.items():
            if sum(k) <= order:
                out.c[k] = out.c.get(k, 0.0) + v
        return out

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.n, self.order, {k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            s = float(other)
            return Jet(self.n, self.order, {k: v * s for k, v in self.c.items()})
        self._check(other)
        order = min(self.order, other.order)
        out = {}
        for k1, v1 in self.c.items():
            d1 = sum(k1)
            if d1 > order:
                continue
            for k2, v2 in other.c.items():
                if d1 + sum(k2) > order:
                    continue
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0.0) + v1 * v2
        return Jet(self.n, order, out)

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
            return self * (1.0 / float(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- analytic functions --------------------------------------------------

    def _analytic(self, series):
        """Compose with a univariate function given its Taylor coefficients
        ``series[m] = f^(m)(a0)/m!`` around this jet's constant term."""
        d = self - self.value
        out = Jet.constant(series[0], self.n, self.order)
        power = Jet.constant(1.0, self.n, self.order)
        for m in range(1, min(len(series), self.order + 1)):
            power = power * d
            if series[m] != 0.0:
                out = out + power * series[m]
        return out

    def reciprocal(self):
        a0 = self.value
        if a0 == 0.0:
            raise JetDomainError("jet division by a series with zero constant term")
        series = [(-1.0) ** m / a0 ** (m + 1) for m in range(self.order + 1)]
        return self._analytic(series)

    def sqrt(self):
        a0 = self.value
        if a0 <= 0.0:
            raise JetDomainError("jet sqrt requires positive constant term")
        series, coef = [], math.sqrt(a0)
        for m in range(self.order + 1):
            series.append(coef)
            coef *= (0.5 - m) / ((m + 1) * a0)
        return self._analytic(series)

    def exp(self):
        e0 = math.exp(self.value)
        series = [e0 / math.factorial(m) for m in range(self.order + 1)]
        return self._analytic(series)

    def log(self):
        a0 = self.value
        if a0 <= 0.0:
            raise JetDomainError("jet log requires positive constant term")
        series = [math.log(a0)]
        for m in range(1, self.order + 1):
            series.append((-1.0) ** (m + 1) / (m * a0 ** m))
        return self._analytic(series)

    def sin(self):
        s0, c0 = math.sin(self.value), math.cos(self.value)
        cycle = [s0, c0, -s0, -c0]
        series = [cycle[m % 4] / math.factorial(m) for m in range(self.order + 1)]
        return self._analytic(series)

    def cos(self):
        s0, c0 = math.sin(self.value), math.cos(self.value)
        cycle = [c0, -s0, -c0, s0]
        series = [cycle[m % 4] / math.factorial(m) for m in range(self.order + 1)]
        return self._analytic(series)

    # -- calculus --------------------------------------------------------------

    def derivative(self, i):
        """Partial derivative with respect to variable ``i`` (order drops by 1)."""
        out = Jet(self.n, max(self.order - 1, 0))
        for k, v in self.c.items():
            if k[i] == 0:
                continue
            kk = list(k)
            kk[i] -= 1
            if sum(kk) <= out.order:
                out.c[tuple(kk)] = v * k[i]
        return out

    def antiderivative(self, i):
        """Antiderivative in variable ``i`` with zero constant of integration
        (order grows by 1, capped at :data:`MAX_ORDER`)."""
        out = Jet(self.n, min(self.order + 1, MAX_ORDER))
        for k, v in self.c.items():
            kk = list(k)
            kk[i] += 1
            if sum(kk) <= out.order:
                out.c[tuple(kk)] = v / kk[i]
        return out

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

    def allclose(self, other, atol=1e-12):
        if isinstance(other, (int, float)):
            other = Jet.constant(other, self.n, self.order)
        keys = set(self.c) | set(other.c)
        order = min(self.order, other.order)
        return all(
            abs(self.c.get(k, 0.0) - other.c.get(k, 0.0)) <= atol
            for k in keys
            if sum(k) <= order
        )

    def max_coeff_diff(self, other):
        keys = set(self.c) | set(other.c)
        order = min(self.order, other.order)
        diffs = [abs(self.c.get(k, 0.0) - other.c.get(k, 0.0)) for k in keys if sum(k) <= order]
        return max(diffs, default=0.0)

    def __repr__(self):
        terms = sorted(self.c.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        body = " + ".join(f"{v:.6g}*x^{k}" for k, v in terms if v != 0.0) or "0"
        return f"Jet[{self.n} vars, order {self.order}]({body})"


# -- generic smooth functions (dispatch on Jet vs number) ------------------------


def sin(x):
    return x.sin() if isinstance(x, Jet) else math.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else math.cos(x)


def exp(x):
    return x.exp() if isinstance(x, Jet) else math.exp(x)


def sqrt(x):
    return x.sqrt() if isinstance(x, Jet) else math.sqrt(x)


def log(x):
    return x.log() if isinstance(x, Jet) else math.log(x)


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
        p = [Jet.constant(1.0, n, order)]
        for _ in range(order):
            p.append(p[-1] * g.truncated(order))
        powers.append(p)
    results = []
    for o in outs:
        acc = Jet(n, order)
        for k, v in o.c.items():
            if sum(k) > order:
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


def jet_solve(A, b):
    """Solve ``A x = b`` where entries are jets, by Gaussian elimination with
    pivoting on constant terms."""
    m = len(A)
    rows = [list(A[i]) + [b[i]] for i in range(m)]
    n = len(A[0])
    if m < n:
        raise EngelLabError("underdetermined jet system")
    perm = list(range(m))
    for col in range(n):
        piv = max(range(col, m), key=lambda r: abs(rows[r][col].value))
        if abs(rows[piv][col].value) < 1e-13:
            raise EngelLabError("jet linear system is singular at the base point")
        rows[col], rows[piv] = rows[piv], rows[col]
        perm[col], perm[piv] = perm[piv], perm[col]
        inv = rows[col][col].reciprocal()
        rows[col] = [v * inv for v in rows[col]]
        for r in range(m):
            if r != col:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def multi_indices(n, order):
    """All multi-indices with |alpha| <= order, graded order."""
    out = []
    for total in range(order + 1):
        for idx in product(range(total + 1), repeat=n):
            if sum(idx) == total:
                out.append(idx)
    return out

"""Charts, points, and derivative-propagating vector fields / one-forms.

A field is defined either by a component rule (a callable evaluated with
generic arithmetic, so it works on floats and on :class:`~engellab.jets.Jet`
seeds alike) or by a custom ``taylor_fn`` for fields produced by geometric
constructions (brackets, pointwise linear solves, frame recombinations).
Given ``(dim, N)`` coordinates, a field evaluates a batch of N points in one
pass, on jets with one coefficient row per point (see :mod:`engellab.jets`).
Evaluation is pure.  Within one evaluation scope a memo holds each (field,
point)'s jets at the highest order asked so far: a lower order gets them
truncated, bit for bit the jets of an evaluation at that order, and a higher
order evaluates and replaces them.  The outermost :meth:`_FieldBase.taylor`
call opens the memo that the nested calls of composite and bracket closures
share, and :func:`evaluation_scope` widens it to a pointwise check.  It lives
in a context variable and is dropped when its scope closes, so no jets
outlive one evaluation and parallel sampling stays safe.  A plan does: kept on
the root field per order, it holds the highest order at which the first
outermost call evaluated each field, and later ones evaluate each planned
field once, at that order, however the orders are asked.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartMismatchError, DerivativeOrderError, EngelLabError
from .jets import Jet, jet_bracket, jet_dot, jet_two_form

INF_ORDER = math.inf

# (highest order evaluated, its jets) by (field, coordinate shape and bytes)
# of the open evaluation scope, and its plan by the key None; the key holds
# the field itself so a field freed mid-scope cannot alias by id, and the shape
# so a point and a one-point batch stay apart
_MEMO = contextvars.ContextVar("taylor_memo", default=None)


@contextlib.contextmanager
def evaluation_scope():
    """Share field jets across every ``taylor`` call made inside the block."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({None: {}})
    try:
        yield
    finally:
        _MEMO.reset(token)


# errors after which a batch re-runs point by point: library errors, NumPy
# float errors (raised where Python floats raise or go on silently), math
# domain errors, and rules that branch on values, so run on floats only
_BATCH_ERRORS = (EngelLabError, ArithmeticError, ValueError, TypeError)


def over_points(points, batch, one):
    """Evaluate a sequence of points, or an ``(N, dim)`` array, as one batch:
    ``batch(coords)`` on the ``(dim, N)`` coordinates, with NumPy's float
    errors raised.  If the batch raises, ``[one(p) for p in points]`` runs
    instead, so that an error, and the point it carries, are those a loop
    over the points raises; so does a lone point, which gains nothing."""
    rows = np.asarray(points, dtype=float)
    if len(rows) < 2:
        return [one(p) for p in points]
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return batch(np.ascontiguousarray(rows.T))
    except _BATCH_ERRORS:
        return [one(p) for p in points]


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart; multi-chart atlases live in zoll-lab only."""

    name: str
    coords: tuple
    bounds: tuple = None  # optional ((lo, hi), ...) per coordinate

    @property
    def dim(self):
        return len(self.coords)

    def contains(self, coords):
        if self.bounds is None:
            return True
        return all(lo <= c <= hi for c, (lo, hi) in zip(coords, self.bounds))

    def point(self, coords):
        return Point(self, np.asarray(coords, dtype=float))


class Point:
    """A point in a chart: identifier plus finite coordinates."""

    __slots__ = ("chart", "coords")

    def __init__(self, chart, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (chart.dim,):
            raise EngelLabError(
                f"point has {coords.shape} coordinates, chart {chart.name!r} has dimension {chart.dim}"
            )
        if not np.all(np.isfinite(coords)):
            raise EngelLabError("point coordinates must be finite")
        self.chart = chart
        self.coords = coords

    def __repr__(self):
        return f"Point({self.chart.name}, {np.array2string(self.coords, precision=6)})"


def _coords_of(point, chart):
    if isinstance(point, Point):
        if chart is not None and point.chart is not chart and point.chart.name != chart.name:
            raise ChartMismatchError(
                f"point lives on chart {point.chart.name!r}, object on {chart.name!r}"
            )
        return point.coords
    return np.asarray(point, dtype=float)


class _FieldBase:
    """Shared machinery for vector fields, one-forms, and scalar fields."""

    n_components = None  # None: same as chart dimension; 1 for scalars

    def __init__(self, chart, components=None, taylor_fn=None, max_order=INF_ORDER, name=""):
        if components is None and taylor_fn is None:
            raise EngelLabError("need a component rule or a taylor_fn")
        self.chart = chart
        self.components = components
        self.taylor_fn = taylor_fn
        self.max_order = max_order
        self.name = name
        self._plans = {}  # order -> plan of the outermost calls at that order

    def _ncomp(self):
        return self.chart.dim if self.n_components is None else self.n_components

    def taylor(self, point, order):
        """Jets of the components around ``point``, to total degree
        ``order``; around each point of a batch for ``(dim, N)``
        coordinates.  An outermost call runs under this field's plan for
        ``order``, the first records it; the field itself is evaluated at
        ``order``, and :func:`evaluation_scope` blocks have no plan."""
        if order > self.max_order:
            raise DerivativeOrderError(
                f"field {self.name or type(self).__name__!r} only evaluable to order {self.max_order}, got {order}"
            )
        coords = _coords_of(point, self.chart)
        memo, token = _MEMO.get(), None
        if memo is None:
            # the outermost call opens the scope under the plan that its first
            # call at this order recorded, and closes it on the way out
            plan = self._plans.get(order)
            memo = {None: plan or {}}
            token = _MEMO.set(memo)
        try:
            key = (self, coords.shape, coords.tobytes())
            hit = memo.get(key)
            if hit is None or hit[0] < order:
                top = max(order, memo[None].get(self, order))
                hit = memo[key] = (top, self._evaluate(coords, top))
            out = list(hit[1]) if hit[0] == order else [j.truncated(order) for j in hit[1]]
            if token is not None and plan is None:
                self._plans[order] = plan = {}
                for k, v in memo.items():
                    if k and k[0] is not self and plan.get(k[0], -1) < v[0]:
                        plan[k[0]] = v[0]
            return out
        finally:
            if token is not None:
                _MEMO.reset(token)

    def _evaluate(self, coords, order):
        if self.taylor_fn is not None:
            jets = self.taylor_fn(coords, order)
        else:
            seeds = Jet.seeds(coords, order)
            jets = self.components(seeds)
        jets = [jets] if isinstance(jets, Jet) else list(jets)
        out = []
        for j in jets:
            if not isinstance(j, Jet):
                j = Jet.constant(j, self.chart.dim, order)
            elif j.order != order:
                j = j.truncated(order)
            out.append(j)
        if len(out) != self._ncomp():
            raise EngelLabError(f"rule returned {len(out)} components, expected {self._ncomp()}")
        return tuple(out)

    def __call__(self, point):
        """Component values at a point; for ``(dim, N)`` coordinates, an
        ``(n_components, N)`` array of the values at each point of the batch,
        from order-0 jets (a scalar field gives its ``(N,)`` row)."""
        coords = _coords_of(point, self.chart)
        if coords.ndim == 2:
            jets = self.taylor(coords, 0)
            arr = np.empty((len(jets), coords.shape[1]))
            for row, j in zip(arr, jets):
                row[:] = j.value
            return arr[0] if self.n_components == 1 else arr
        if self.taylor_fn is None:
            vals = self.components(list(coords))
            vals = [vals] if not hasattr(vals, "__len__") else vals
            arr = np.array([v.value if isinstance(v, Jet) else float(v) for v in vals])
        else:
            arr = np.array([j.value for j in self.taylor(coords, 0)])
        if self.n_components == 1:
            return float(arr[0])
        return arr

    def jacobian(self, point):
        """Matrix of first partials, rows = components, columns = variables."""
        jets = self.taylor(point, 1)
        return np.array([j.gradient() for j in jets])

    # -- arithmetic ------------------------------------------------------------

    def _combine(self, rule, *others, name=""):
        """A field of this type whose component jets are ``rule`` applied to
        the taylor jets of ``self`` and ``others``, evaluable to the smallest
        order any operand allows."""
        operands = (self,) + others
        for other in others:
            _same_chart(self, other)

        def tfn(coords, order):
            return rule(*[f.taylor(coords, order) for f in operands])

        return type(self)(self.chart, taylor_fn=tfn,
                          max_order=min(f.max_order for f in operands), name=name)

    def __add__(self, other):
        if isinstance(other, _FieldBase) and other.n_components == self.n_components:
            return self._combine(lambda a, b: [x + y for x, y in zip(a, b)], other,
                                 name=f"({self.name}+{other.name})")
        if self.n_components == 1 and isinstance(other, (int, float)):
            s = float(other)
            return self._combine(lambda a: [a[0] + s])
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _FieldBase):
            # the scalar factor's jet goes first in every Jet product, and a
            # product of two scalar fields keeps its written order
            scalar, field = (self, other) if self.n_components == 1 else (other, self)
            if scalar.n_components != 1:
                return NotImplemented
            return field._combine(lambda x, s: [s[0] * c for c in x], scalar)
        s = float(other)
        return self._combine(lambda x: [c * s for c in x])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other if isinstance(other, _FieldBase) else -float(other))


class VectorField(_FieldBase):
    """A smooth vector field on a chart, evaluable with derivatives."""


class OneForm(_FieldBase):
    """A smooth one-form; the rule returns covector components."""

    def pair(self, X, point, order=0):
        """Jet of ``alpha(X)`` at ``point``."""
        _same_chart(self, X)
        return jet_dot(self.taylor(point, order), X.taylor(point, order))

    def d_matrix(self, point, order=0):
        """Jets of the exterior derivative, ``d alpha_{ij} = d_i a_j - d_j a_i``,
        above the diagonal; below it their exact negations, and zeros on it.

        Consumes one derivative order of the form.
        """
        a = self.taylor(point, order + 1)
        n = self.chart.dim
        zero = Jet.constant(np.zeros(a[0].c.shape[:-1]), n, order)
        up = {(i, j): a[j].derivative(i) - a[i].derivative(j)
              for i in range(n) for j in range(i + 1, n)}
        return [[up[i, j] if i < j else -up[j, i] if i > j else zero for j in range(n)]
                for i in range(n)]

    def d_apply(self, X, Y, point, order=0):
        """Jet of ``d alpha (X, Y)`` at ``point``."""
        M = self.d_matrix(point, order)
        return jet_two_form(M, X.taylor(point, order), Y.taylor(point, order))


class ScalarField(_FieldBase):
    """A smooth scalar function on a chart."""

    n_components = 1

    def reciprocal(self):
        return self._combine(lambda a: [a[0].reciprocal()])

    def jet(self, point, order):
        return self.taylor(point, order)[0]

    def differential(self, point, order=0):
        """Gradient jets (components of df)."""
        j = self.jet(point, order + 1)
        return [j.derivative(i) for i in range(self.chart.dim)]


def _same_chart(a, b):
    if a.chart.name != b.chart.name or a.chart.dim != b.chart.dim:
        raise ChartMismatchError(f"charts {a.chart.name!r} and {b.chart.name!r} differ")


# -- constructors -------------------------------------------------------------


def constant_field(chart, vec, name=""):
    vec = [float(v) for v in vec]
    return VectorField(chart, components=lambda xs: list(vec), name=name)


def coordinate_field(chart, i, name=None):
    vec = [0.0] * chart.dim
    vec[i] = 1.0
    return constant_field(chart, vec, name=name or f"d/d{chart.coords[i]}")


# -- Lie bracket ---------------------------------------------------------------


def lie_bracket(X, Y):
    """The vector field ``[X, Y] = DY.X - DX.Y``.

    Evaluable to one order less than its arguments; bilinear and antisymmetric.
    """
    _same_chart(X, Y)
    cap = min(X.max_order, Y.max_order) - 1
    if cap < 0:
        raise DerivativeOrderError("bracket arguments must be evaluable to order >= 1")

    def tfn(coords, order):
        return jet_bracket(X.taylor(coords, order + 1), Y.taylor(coords, order + 1))

    return VectorField(X.chart, taylor_fn=tfn, max_order=cap,
                       name=f"[{X.name},{Y.name}]")


def lie_derivative_scalar(X, f):
    """The scalar field ``X(f)``."""
    _same_chart(X, f)
    n = X.chart.dim

    def tfn(coords, order):
        xj = X.taylor(coords, order)
        fj = f.jet(coords, order + 1)
        return [jet_dot([fj.derivative(j) for j in range(n)], xj)]

    return ScalarField(X.chart, taylor_fn=tfn,
                       max_order=min(X.max_order, f.max_order - 1))

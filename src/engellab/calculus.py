"""Charts and derivative-propagating vector fields / one-forms.

A field is defined either by a component rule (a callable evaluated with
generic arithmetic, so it works on floats and on :class:`~engellab.jets.Jet`
seeds alike) or by a custom ``taylor_fn`` for fields produced by geometric
constructions (brackets, pointwise linear solves, frame recombinations).
Surface metrics (g's entries) and contact-form paths (on the chart (x, t))
are component-rule fields too, so every rule's outputs are read here.
Given ``(dim, N)`` coordinates, a field evaluates a batch of N points in one
pass, on jets with one coefficient row per point (see :mod:`engellab.jets`).
A constant is a number at every order: a number ``v`` that a rule returns
stays a number, ``0.0 + v``, and is never wrapped as a constant jet, so
``taylor`` gives jets and numbers (read them with the generic helpers of
:mod:`engellab.jets`, under which a number's derivatives are 0.0).  Order 0
is values: ``taylor(p, 0)`` gives the components' values, floats at a point
and ``(N,)`` arrays over a batch (a number in every row, like a point-sized
jet above order 0, stays a float), and no jet is built for them; a component
rule runs on the coordinates' values ``0.0 + x``, and each value is ``0.0 +
value``.  Evaluation is pure.  Within one evaluation scope a memo holds
each (field, point)'s jets at the highest order asked so far: a lower order
gets them truncated, bit for bit the jets of an evaluation at that order, and
a higher order evaluates and replaces them.  Order 0 gets their values, which
are a fresh evaluation's wherever the rule's arithmetic on values is that of
jets on their constant terms: sums, products and the analytic functions, not
``x / y`` (on jets ``x * (1/y)``) or ``x ** k`` (on jets, products).  The
outermost :meth:`_FieldBase.taylor` call opens the memo that the nested calls
of composite and bracket closures share, and :func:`evaluation_scope` widens
it to a pointwise check.  It lives in a context variable and is dropped when
its scope closes, so no jets outlive one evaluation and parallel sampling
stays safe.  A plan does: kept on the root field per order, it holds the
highest order at which the first outermost call evaluated each field, and
later ones evaluate each planned field once, at that order, however the
orders are asked.

Values take one path at a point and over a batch, so a batch row is its
point's values bit for bit: ``field(p)`` runs a component rule on the
coordinates themselves (floats, or float arrays), and a ``taylor_fn`` field
gives ``taylor(p, 0)``.  A metric's ``value_and_gradient`` reads its rule's
outputs on order-1 seeds the same way, with no memo, since it sits in the
geodesic integrator's loop.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np

from .errors import ChartMismatchError, EngelLabError
from .jets import (Jet, derivative, gradient, jet_bracket, jet_d_matrix, jet_dot,
                   jet_two_form, reciprocal, truncate)

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


def _column(entries, coords):
    """Jets' values, numbers or arrays as the column a field call at
    ``coords`` gives: ``(k,)`` at a point, ``(k, N)`` for N points."""
    out = np.empty((len(entries),) + np.shape(coords)[1:])
    for k, e in enumerate(entries):
        out[k] = e.value if isinstance(e, Jet) else e
    return out


def _order_zero(outputs):
    """Jets and numbers as values, each ``0.0 + value``."""
    return [0.0 + (j.value if isinstance(j, Jet) else j) for j in outputs]


def _rows(column):
    """A ``(k,)`` or ``(k, N)`` column as contiguous ``(1, k)`` or ``(N, k)``
    rows, so that each point's vector is laid out as at a single point."""
    return np.ascontiguousarray(np.reshape(column, (len(column), -1)).T)


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart; multi-chart atlases live in zoll-lab only."""

    name: str
    coords: tuple

    @property
    def dim(self):
        return len(self.coords)


def _coords_of(point, chart):
    coords = np.asarray(point, dtype=float)
    if coords.ndim not in (1, 2) or len(coords) != len(chart.coords):
        raise EngelLabError(f"coordinates of shape {coords.shape} on chart {chart.name!r}: "
                            f"need ({chart.dim},) for a point or ({chart.dim}, N) for a batch")
    return coords


class _FieldBase:
    """Shared machinery for vector fields, one-forms, and scalar fields."""

    n_components = None  # None: same as chart dimension; 1 for scalars

    def __init__(self, chart, components=None, taylor_fn=None, name=""):
        if components is None and taylor_fn is None:
            raise EngelLabError("need a component rule or a taylor_fn")
        self.chart = chart
        self.components = components
        self.taylor_fn = taylor_fn
        self.name = name
        self._plans = {}  # order -> plan of the outermost calls at that order

    def _ncomp(self):
        return self.chart.dim if self.n_components is None else self.n_components

    def taylor(self, point, order):
        """Jets of the components around ``point``, to total degree
        ``order``; around each point of a batch for ``(dim, N)``
        coordinates.  At order 0, the values: floats at a point, ``(N,)``
        arrays over a batch.  An outermost call runs under this field's plan
        for ``order``, the first records it; the field itself is evaluated at
        ``order``, and :func:`evaluation_scope` blocks have no plan."""
        return self._scoped(_coords_of(point, self.chart), order)

    def _scoped(self, coords, order):
        """The component jets (values at order 0) at ``coords`` through the
        open scope's memo.  With no scope open, the field is evaluated under a
        scope of its plan for ``order`` (the first such call records it),
        closed on the way out; its own jets are not kept, since no other call
        asks for them."""
        memo = _MEMO.get()
        if memo is not None:
            key = (self, coords.shape, coords.tobytes())
            hit = memo.get(key)
            if hit is None or hit[0] < order:
                top = max(order, memo[None].get(self, order))
                hit = memo[key] = (top, self._evaluate(coords, top))
            if hit[0] == order:
                return list(hit[1])
            if order == 0:
                return _order_zero(hit[1])
            return [truncate(j, order) for j in hit[1]]
        plan = self._plans.get(order)
        memo = {None: plan or {}}
        token = _MEMO.set(memo)
        try:
            out = list(self._evaluate(coords, order))
        finally:
            _MEMO.reset(token)
        if plan is None:
            self._plans[order] = plan = {}
            for k, v in memo.items():
                if k and plan.get(k[0], -1) < v[0]:
                    plan[k[0]] = v[0]
        return out

    def _outputs(self, coords, order):
        """The rule's outputs at ``coords``, jets and numbers, one per
        component; a component rule runs on the seeds (at order 0, the
        coordinates' values ``0.0 + x``)."""
        if self.taylor_fn is not None:
            out = self.taylor_fn(coords, order)
        else:
            out = self.components(Jet.seeds(coords, order))
        out = list(out) if hasattr(out, "__len__") else [out]
        if len(out) != self._ncomp():
            raise EngelLabError(f"rule returned {len(out)} components, expected {self._ncomp()}")
        return out

    def _evaluate(self, coords, order):
        """The rule's outputs at ``order``: jets of that order and numbers,
        each number ``v`` as ``0.0 + v``; at order 0 the values, each
        ``0.0 + value``."""
        out = self._outputs(coords, order)
        if order == 0:
            return tuple(_order_zero(out))
        return tuple([(j if j.order == order else j.truncated(order))
                      if isinstance(j, Jet) else 0.0 + j for j in out])

    def __call__(self, point):
        """Component values at a point, a float for a scalar field; for
        ``(dim, N)`` coordinates, the ``(n_components, N)`` array of the
        values at each point of the batch (a scalar field gives its ``(N,)``
        row).  A component rule is evaluated at order 0, as ``taylor(point,
        0)`` evaluates it but with no memo: on the coordinates' values ``0.0 +
        x``, floats at a point and float arrays over a batch, each output
        ``0.0 + v``; a ``taylor_fn`` field gives ``taylor(point, 0)``."""
        coords = _coords_of(point, self.chart)
        vals = self._evaluate(coords, 0) if self.taylor_fn is None else self._scoped(coords, 0)
        if coords.ndim == 2:
            arr = _column(vals, coords)
            return arr[0] if self.n_components == 1 else arr
        return float(vals[0]) if self.n_components == 1 else np.array(vals, dtype=float)

    def jacobian(self, point):
        """Matrix of first partials, rows = components, columns = variables;
        over a batch, each partial is the ``(N,)`` row of its values."""
        coords = _coords_of(point, self.chart)
        return np.array([_column(gradient(j, self.chart.dim), coords)
                         for j in self.taylor(coords, 1)])

    # -- arithmetic ------------------------------------------------------------

    def _combine(self, rule, *others, name=""):
        """A field of this type whose component jets are ``rule`` applied to
        the taylor jets of ``self`` and ``others``.  It is built as a
        ``_FieldBase`` on this chart, so a subclass whose constructor takes a
        rule of its own (a surface metric, a contact-form path) combines
        too."""
        operands = (self,) + others
        for other in others:
            _same_chart(self, other)

        def tfn(coords, order):
            return rule(*[f.taylor(coords, order) for f in operands])

        out = object.__new__(type(self))
        _FieldBase.__init__(out, self.chart, taylor_fn=tfn, name=name)
        return out

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
        """Jets of the exterior derivative (:func:`~engellab.jets.jet_d_matrix`)
        at ``point``; consumes one derivative order of the form."""
        return jet_d_matrix(self.taylor(point, order + 1))

    def d_apply(self, X, Y, point, order=0):
        """Jet of ``d alpha (X, Y)`` at ``point``."""
        M = self.d_matrix(point, order)
        return jet_two_form(M, X.taylor(point, order), Y.taylor(point, order))


class ScalarField(_FieldBase):
    """A smooth scalar function on a chart."""

    n_components = 1

    def reciprocal(self):
        return self._combine(lambda a: [reciprocal(a[0])])

    def jet(self, point, order):
        return self.taylor(point, order)[0]


def _same_chart(a, b):
    if a.chart.name != b.chart.name or a.chart.dim != b.chart.dim:
        raise ChartMismatchError(f"charts {a.chart.name!r} and {b.chart.name!r} differ")


# -- constructors -------------------------------------------------------------


def constant_field(chart, vec, name=""):
    """The field of components ``vec``; its jets are constants, no seeds."""
    vec = [float(v) for v in vec]
    return VectorField(chart, taylor_fn=lambda coords, order: vec, name=name)


def coordinate_field(chart, i, name=None):
    vec = [0.0] * chart.dim
    vec[i] = 1.0
    return constant_field(chart, vec, name=name or f"d/d{chart.coords[i]}")


# -- Lie bracket ---------------------------------------------------------------


def lie_bracket(X, Y):
    """The vector field ``[X, Y] = DY.X - DX.Y``.

    At order k it evaluates its arguments at order k + 1; bilinear and
    antisymmetric.
    """
    _same_chart(X, Y)

    def tfn(coords, order):
        return jet_bracket(X.taylor(coords, order + 1), Y.taylor(coords, order + 1))

    return VectorField(X.chart, taylor_fn=tfn, name=f"[{X.name},{Y.name}]")


def lie_derivative_scalar(X, f):
    """The scalar field ``X(f)``."""
    _same_chart(X, f)
    n = X.chart.dim

    def tfn(coords, order):
        xj = X.taylor(coords, order)
        fj = f.jet(coords, order + 1)
        return [jet_dot([derivative(fj, j) for j in range(n)], xj)]

    return ScalarField(X.chart, taylor_fn=tfn)

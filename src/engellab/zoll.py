"""Geodesic direction fields on unit tangent bundles, the quaternionic
Engel frame over the rotation group, closedness measurements for surface
metrics, central projection, and the Legendre ray map.

The unit tangent bundle of a surface is charted by (x1, x2, psi) with psi the
fiber angle against a g-orthonormal frame.  The vertical field V0 = d/dpsi
and the geodesic field V1 frame the contact planes; the contact form pairs
the metric with the normal of the moving direction.  Closedness of geodesics
is measured, never assumed: the report integrates each sampled contact
element across the atlas and records the distance in an embedding between the
start and the first return candidate.  The returns of a report, and the arcs
of the central-projection check, run as the lanes of one adaptive run, each
with its own chart, steps, observer and transitions; lanes in one chart share
each V1 call, which reads the metric once for all of them and forms each
contact element on that lane's floats, so each lane steps as it does alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .calculus import Chart, OneForm, VectorField, _FieldBase, over_points
from .errors import (EngelLabError, ExpressionDomainError, GeometryError,
                     IntegrationError, JetDomainError)
from .distributions import line_angle
from .flow import _dopri_step, _field_rhs, _locate_crossing, integrate
from .jets import Jet, cos, derivative, embed, gradient, jet_dot, sin, sqrt, truncate, value
from .prolongation import ParallelizedContact, prolong
from .reporting import worst_of


class SurfaceMetric(_FieldBase):
    """A Riemannian metric on a 2-chart: the field whose four components are
    g's entries in row-major order, given by a matrix rule ``g_rule`` that
    works with generic arithmetic (floats or jets).  ``value_and_gradient``
    reads the floats g and dg from one evaluation on order-1 seeds, for a
    point or a batch, and ``christoffel`` forms the symbols from them."""

    n_components = 4

    def __init__(self, chart, g_rule, name=""):
        if chart.dim != 2:
            raise EngelLabError("surface metric needs a 2-dimensional chart")
        super().__init__(chart, components=lambda xs: [e for row in self.g_rule(xs) for e in row],
                         name=name)
        self.g_rule = g_rule

    def value_and_gradient(self, p):
        """The floats g[i][j] and dg[i][j][k] = d_k g_ij at ``p`` (for ``(2,
        N)`` coordinates, each point's ``(g, dg)`` as its own call gives them),
        from one evaluation of the rule on order-1 seeds with no memo; a
        number entry stays a number: its value ``0.0 + v``, its gradient
        zeros."""
        coords = np.asarray(p, dtype=float)[:2]
        rows = [j.c.tolist() if isinstance(j, Jet) else [0.0 + j, 0.0, 0.0]
                for j in self._outputs(coords, 1)]
        # each point's (value, d/dx2, d/dx1) of each entry, repeated if shared
        rows = [r if isinstance(r[0], list) else [r] * (coords.size // 2) for r in rows]
        pairs = [([[a[0], b[0]], [c[0], d[0]]],
                  [[[a[2], a[1]], [b[2], b[1]]], [[c[2], c[1]], [d[2], d[1]]]])
                 for a, b, c, d in zip(*rows)]
        return pairs if coords.ndim == 2 else pairs[0]

    def matrix(self, p):
        """g at ``p`` as a 2x2 array; a metric that is not positive definite
        there, a NaN entry included, is a ``GeometryError``."""
        M = self(p).reshape(2, 2)
        if not (M[0, 0] > 0 and np.linalg.det(M) > 0):
            raise GeometryError("metric is not positive definite", point=p)
        return M

    def christoffel(self, p):
        """Gamma^i_jk at ``p`` as an array, in floats."""
        return np.array(_christoffel(*self.value_and_gradient(p)))


def _anywhere(holds):
    """A comparison of values as it is at a point; over a batch, whether it
    holds at any point.  A float comparison stays one comparison, since the
    domain checks sit in the integrator's inner loop."""
    return holds.any() if isinstance(holds, np.ndarray) else holds


# The contact-element formulas below use generic arithmetic only: on floats
# they give values, on jets in (x1, x2, psi) the jets of the same functions.

def _over(d):
    """``x -> x / d``; for a jet ``d``, the product ``x * (1/d)`` that
    ``Jet.__truediv__`` forms, on one reciprocal series for every ``x``."""
    return (lambda x, r=d.reciprocal(): x * r) if isinstance(d, Jet) else (lambda x: x / d)


def _inverse(g):
    """g^-1 by the 2x2 formula."""
    (g00, g01), (g10, g11) = g
    det = g00 * g11 - g01 * g10
    if _anywhere(abs(value(det)) < 1e-13):
        raise GeometryError("metric degenerates")
    over = _over(det)
    return ((over(g11), over(-g01)), (over(-g10), over(g00)))


def _christoffel(g, dg):
    """Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_jl - d_l g_jk) from g[i][j]
    and dg[i][j][k] = d_k g_ij."""
    first = [[[dg[l][k][j] + dg[j][l][k] - dg[j][k][l] for k in (0, 1)] for j in (0, 1)]
             for l in (0, 1)]
    return [[[0.5 * (i0 * f0 + i1 * f1) for f0, f1 in zip(first[0][j], first[1][j])]
             for j in (0, 1)] for i0, i1 in _inverse(g)]


def _frame(g, dg):
    """The Gram-Schmidt frame E1 = (a, 0), E2 = (w0 b, b), with
    a = g00^-1/2, w0 = -g01/g00 and b = (g11 + w0 g01)^-1/2, and the two
    partials of each by the chain rule: returns (a, w0, b), (da, dw0, db)."""
    (g00, g01), (_, g11) = g
    (d00, d01), (_, d11) = dg
    if _anywhere(value(g00) <= 0.0):
        raise JetDomainError("metric is not positive definite: g00 <= 0")
    over_g00 = _over(g00)
    a = 1.0 / sqrt(g00)
    w0 = over_g00(-g01)
    n2 = g11 + w0 * g01
    if _anywhere(value(n2) <= 0.0):
        raise JetDomainError("metric is not positive definite: det g <= 0")
    over_n2 = _over(n2)
    b = 1.0 / sqrt(n2)
    da = [over_g00(-0.5 * a * d) for d in d00]
    dw0 = [over_g00(-e + over_g00(g01 * d)) for d, e in zip(d00, d01)]
    db = [over_n2(-0.5 * b * (d11[k] + dw0[k] * g01 + w0 * d01[k])) for k in (0, 1)]
    return (a, w0, b), (da, dw0, db)


def _contact_element(g, dg, psi):
    """The unit vector u at fiber angle psi, its normal u_perp = du/dpsi, and
    the fiber speed psidot = g(F, u_perp), F^i = -d_k u^i u^k - Gamma^i_jk
    u^j u^k, that keeps u geodesic; from g, dg (as in ``_christoffel``) and
    psi."""
    (a, w0, b), (da, dw0, db) = _frame(g, dg)
    cp, sp = cos(psi), sin(psi)
    wb = w0 * b
    u0, u1 = cp * a + sp * wb, sp * b
    du = ([cp * da[k] + sp * (dw0[k] * b + w0 * db[k]) for k in (0, 1)],
          [sp * db[k] for k in (0, 1)])  # du[i][k] = d_k u^i
    Gam = _christoffel(g, dg)
    F = [-(dui[0] * u0 + dui[1] * u1)
         - (Gi[0][0] * u0 * u0 + Gi[0][1] * u0 * u1 + Gi[1][0] * u1 * u0 + Gi[1][1] * u1 * u1)
         for dui, Gi in zip(du, Gam)]
    up0, up1 = -sp * a + cp * wb, cp * b
    psidot = (up0 * (g[0][0] * F[0] + g[0][1] * F[1])
              + up1 * (g[1][0] * F[0] + g[1][1] * F[1]))
    return (u0, u1), (up0, up1), psidot


def _inputs(metric, coords, order):
    """g, dg and psi at (x1, x2, psi) = ``coords``: floats at a point at
    order 0; at order k, jets of order k in those 3 variables, dg the
    partials of g's jets of order k + 1."""
    if order == 0:
        return (*metric.value_and_gradient(coords[:2]), coords[2])
    G = [embed(c, 3, (0, 1)) for c in metric.taylor(coords[:2], order + 1)]
    G = [G[:2], G[2:]]
    return ([[truncate(c, order) for c in row] for row in G],
            [[[derivative(c, k) for k in (0, 1)] for c in row] for row in G],
            Jet.variable(2, 3, order, base=coords[2]))


def _pointwise(metric, coords, order, form):
    """``form(g, dg, psi)``, a list of components, at (x1, x2, psi) =
    ``coords``; over a batch at order 0, on each point's floats after one
    metric read, so each row is its point's values bit for bit."""
    if order or coords.ndim == 1:
        return form(*_inputs(metric, coords, order))
    gs, dgs = zip(*metric.value_and_gradient(coords))
    return [np.array(c) for c in zip(*map(form, gs, dgs, coords[2]))]


def _v1(g, dg, psi):
    u, _, psidot = _contact_element(g, dg, psi)
    return [u[0], u[1], psidot]


def _alpha(g, dg, psi):
    _, uperp, _ = _contact_element(g, dg, psi)
    return [jet_dot([g[0][j], g[1][j]], uperp) for j in range(2)] + [0.0]


def euclidean_metric(name="plane"):
    ch = Chart(name, ("x1", "x2"))
    return SurfaceMetric(ch, lambda xs: [[1.0, 0.0], [0.0, 1.0]], name=name)


def stereographic_sphere_metric(radius=1.0, which="north"):
    """Round sphere in a stereographic chart: g = 4 r^4 / (r^2 + |x|^2)^2
    times the identity (with the sphere radius r)."""
    ch = Chart(f"sphere_{which}", ("x1", "x2"))
    r2 = radius * radius

    def rule(xs):
        q = xs[0] * xs[0] + xs[1] * xs[1]
        lam = 4.0 * r2 * r2 / (q + r2) ** 2
        return [[lam, 0.0], [0.0, lam]]

    return SurfaceMetric(ch, rule, name=f"round_sphere_{which}")


def revolution_metric(profile, name="revolution"):
    """Surface of revolution du^2 + rho(u)^2 dv^2 with a scalar profile rho
    (a rule of one generic argument, positive on the working interval); a
    rho^2 that is not finite is an ``ExpressionDomainError`` at the point."""
    ch = Chart(name, ("u", "v"))

    def rule(xs):
        rho = profile(xs[0])
        with np.errstate(over="ignore", invalid="ignore"):  # an inf is rejected below
            g11 = rho * rho
        if not np.isfinite(g11.c if isinstance(g11, Jet) else g11).all():
            raise ExpressionDomainError("metric entry rho^2 is not finite",
                                        point=[value(x) for x in xs])
        return [[1.0, 0.0], [0.0, g11]]

    return SurfaceMetric(ch, rule, name=name)


class UnitTangentChart:
    """Chart (x1, x2, psi) on the unit tangent bundle of a surface metric.

    psi is measured against the Gram-Schmidt orthonormal frame (E1 along
    d/dx1).  The moving unit vector, the geodesic field V1 and the contact
    form g(u_perp, dpi .) come from one formula, ``_contact_element``,
    evaluated on floats at order 0 (V1 sits in every integrator's inner loop;
    over a batch, point by point after one metric read) and on jets in
    (x1, x2, psi) above.
    """

    def __init__(self, metric):
        self.metric = metric
        self.chart = Chart(f"ST_{metric.chart.name}",
                           tuple(metric.chart.coords) + ("psi",))
        self.V0 = VectorField(self.chart, components=lambda xs: [0.0, 0.0, 1.0],
                              name="V0")
        self.V1 = VectorField(self.chart, taylor_fn=partial(_pointwise, metric, form=_v1),
                              name="V1")
        self.alpha = OneForm(self.chart, taylor_fn=partial(_pointwise, metric, form=_alpha),
                             name="alpha")

    def unit_vector(self, p):
        """Coordinate components of the unit vector at angle psi, in floats."""
        u, _, _ = _contact_element(*_inputs(self.metric, p, 0))
        return np.array(u)

    def pair(self):
        return ParallelizedContact(self.chart, self.V0, self.V1, alpha=self.alpha)


def geodesic_pair(metric):
    """The Legendrian pair (vertical, geodesic) on the unit tangent chart."""
    return UnitTangentChart(metric).pair()


# -- SO(3) x S^1 ---------------------------------------------------------------


def _quat_rotate(q, v):
    """Rotate a 3-vector by a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    u = np.array([x, y, z])
    return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)


SO3_CHART = Chart("so3", ("a", "b", "c"))


def _so3_field(omega, name):
    """Left-invariant field of the Lie algebra direction ``omega`` in the
    quaternion chart (a, b, c), w = sqrt(1 - a^2 - b^2 - c^2)."""
    e = np.asarray(omega, dtype=float)

    def rule(xs):
        a, b, c = xs
        w2 = 1.0 - (a * a + b * b + c * c)
        if _anywhere(value(w2) <= 0.0):
            raise GeometryError("quaternion chart leaves the unit ball")
        w = sqrt(w2)
        # vector part of q * (0, e/2)
        return [0.5 * (w * e[0] + b * e[2] - c * e[1]),
                0.5 * (w * e[1] + c * e[0] - a * e[2]),
                0.5 * (w * e[2] + a * e[1] - b * e[0])]

    return VectorField(SO3_CHART, components=rule, name=name)


def so3_base_point(coords):
    """The sphere point of the STS^2 identification g -> (g e3, g e1)."""
    a, b, c = coords
    w = math.sqrt(max(0.0, 1.0 - (a * a + b * b + c * c)))
    return _quat_rotate((w, a, b, c), np.array([0.0, 0.0, 1.0]))


def so3_frame_fields():
    """The left-invariant fields K, I, J (about e3, e1, e2).

    Sign convention: with the half-quaternion generators used here the
    brackets close as [K, I] = J, [I, J] = K, [J, K] = I.
    """
    return (_so3_field([0.0, 0.0, 1.0], "K"), _so3_field([1.0, 0.0, 0.0], "I"),
            _so3_field([0.0, 1.0, 0.0], "J"))


def so3_engel_frame(full_circle=False):
    """The Engel domain over SO(3) framed by d/dtheta and
    cos(theta) K + sin(theta) I."""
    K, I, _ = so3_frame_fields()
    return prolong(ParallelizedContact(SO3_CHART, K, I), full_circle=full_circle)


# -- closedness measurement ----------------------------------------------------


@dataclass
class SampleReturn:
    state: np.ndarray
    chart: str
    returned: bool
    arclength: float
    defect: float
    note: str = ""


@dataclass
class ClosednessReport:
    samples: list
    seed: int
    max_defect: float
    n_returned: int

    @property
    def n_samples(self):
        return len(self.samples)


class SingleChartSpace:
    """Geodesic integration space with one chart and no transitions; periodic
    coordinates are embedded on the circle so returns can be detected."""

    def __init__(self, metric, periodic=(False, False), bound=None):
        self.ut = UnitTangentChart(metric)
        self.periodic = periodic
        self.bound = bound  # optional |x| bound treated as escape

    def start_state(self, x, psi):
        return np.append(np.asarray(x, dtype=float), psi), "main"

    def embed(self, state, chart, order=0):
        """Coordinates, periodic ones and psi on the circle (order 1: jets)."""
        x = state if order == 0 else Jet.seeds(state, 1)
        out = []
        for i in range(3):
            out.extend([cos(x[i]), sin(x[i])] if i == 2 or self.periodic[i] else [x[i]])
        return np.array(out)

    def embed_with_slope(self, state, slope, chart):
        """``embed`` at a state where the geodesic field's value is known;
        this embedding does not read it."""
        return self.embed(state, chart)

    def point(self, state, chart):
        return self.embed(state, chart)[:-2]  # the base-point entries

    def field(self, chart):
        return self.ut.V1

    def needs_transition(self, state, chart):
        return False

    def escaped(self, state, chart):
        return self.bound is not None and np.hypot(state[0], state[1]) > self.bound


class SphereAtlas:
    """Two stereographic charts of the round sphere with the inversion
    transition applied beyond radius 2 (in units of the sphere radius)."""

    def __init__(self, radius=1.0):
        self.radius = radius
        self.north = UnitTangentChart(stereographic_sphere_metric(radius, "north"))
        self.south = UnitTangentChart(stereographic_sphere_metric(radius, "south"))
        self.switch_radius = 2.0 * radius

    def _ut(self, chart):
        return self.north if chart == "north" else self.south

    def start_state(self, x, psi):
        return np.append(np.asarray(x, dtype=float), psi), "north"

    def field(self, chart):
        return self._ut(chart).V1

    def needs_transition(self, state, chart):
        return np.hypot(state[0], state[1]) > self.switch_radius

    def escaped(self, state, chart):
        return False  # the atlas covers the whole sphere

    def transition(self, state, chart):
        """Inversion x -> r^2 x / |x|^2: the unit vector is pushed through
        its differential, and the new fiber angle read in the target chart's
        frame, w = cos(psi) E1 + sin(psi) E2."""
        x = state[:2]
        q = float(x @ x)
        if q < 1e-12:
            raise GeometryError("transition at the chart center", point=state)
        r2 = self.radius * self.radius
        x_new = r2 * x / q
        D = (r2 / q) * (np.eye(2) - 2.0 * np.outer(x, x) / q)
        w = D @ self._ut(chart).unit_vector(state)
        other = "south" if chart == "north" else "north"
        (a, w0, b), _ = _frame(*self._ut(other).metric.value_and_gradient(x_new))
        psi_new = math.atan2(w[1] / b, (w[0] - w0 * w[1]) / a)
        return np.array([x_new[0], x_new[1], psi_new]), other

    def point(self, state, chart):
        """Embedding into R^3: inverse stereographic projection (the south
        chart is glued by the inversion, which flips the pole)."""
        x1, x2 = state[0], state[1]
        r = self.radius
        q = x1 * x1 + x2 * x2
        den = q + r * r
        p = np.array([2.0 * r * r * x1 / den, 2.0 * r * r * x2 / den,
                      r * (q - r * r) / den])
        if chart == "south":
            # the plain inversion glues the charts; only the pole flips
            p = np.array([p[0], p[1], -p[2]])
        return p

    def embed(self, state, chart, order=0):
        """Point and unit tangent in R^6 (chart-independent), the tangent along
        d(point) u ~ (den u - 2 (x.u) x, 2 r (x.u)), den = |x|^2 + r^2 (order 1: jets)."""
        ut = self._ut(chart)
        if order == 0:
            return self.embed_with_slope(state, ut.unit_vector(state), chart)
        return self.embed_with_slope(Jet.seeds(state, 1), ut.V1.taylor(state, 1)[:2], chart)

    def embed_with_slope(self, state, slope, chart):
        """``embed`` at a state where the geodesic field's value
        ``slope = V1(state) = (u, psidot)`` is known (or u alone): the unit
        vector u is read from it, not computed again."""
        x, u, r = state, slope, self.radius
        xu, den = x[0] * u[0] + x[1] * u[1], x[0] * x[0] + x[1] * x[1] + r * r
        dp = np.array([den * u[0] - 2.0 * xu * x[0], den * u[1] - 2.0 * xu * x[1],
                       (-2.0 if chart == "south" else 2.0) * r * xu])
        return np.concatenate([self.point(x, chart), dp / sqrt(dp @ dp)])


def _geodesics(space, starts, length, tol, on_steps):
    """Follow the geodesic field from each ``(state, chart)`` of ``starts``
    for arclength ``length``, as lanes of one run: ``on_steps[i](rhs, chart,
    t0, y0, t1, y1, h, k0, k1)`` observes lane i's steps (``rhs``: V1 on a
    point) and ends it by returning true, as does an escape; a transition
    restarts it in place.  Returns each lane's (arclength, state, chart)."""
    charts, ends, lanes = [ch for _, ch in starts], {}, []

    def rhs(t, y):
        out = np.empty_like(y)
        for ch in {charts[i] for i in lanes}:
            rows = [j for j, i in enumerate(lanes) if charts[i] == ch]
            rows = rows[0] if len(rows) == 1 else rows if len(rows) < len(y) else slice(None)
            out[rows] = space.field(ch)(y[rows].T).T
        return out

    def observe(i, t0, y0, t1, y1, h, k0, k1):
        ch = charts[i]
        if on_steps[i](_field_rhs(space.field(ch)), ch, t0, y0, t1, y1, h, k0, k1) \
                or space.escaped(y1, ch):
            ends[i] = float(t1)
            return True
        if space.needs_transition(y1, ch):
            y, charts[i] = space.transition(y1, ch)
            return y, space.field(charts[i])(y)
        return False

    # a restart tries the last accepted step, and the first 1/64: a sixteenth
    # of the span would send trial stages off the chart
    ys = integrate(rhs, [y for y, _ in starts], 0.0, length, tol=tol, observer=observe,
                   h0=1.0 / 64.0, lanes=lanes)[0]
    return [(ends.get(i, length), y, ch) for i, (y, ch) in enumerate(zip(ys, charts))]


def _return(space, state, chart):
    """The step observer of the first return from ``state`` (see
    :func:`first_return`), and the reader of the return off its end."""
    start, base = space.embed(state, chart), space.point(state, chart)
    T0 = np.array([e.gradient() for e in space.embed(state, chart, order=1)]) @ space.field(chart)(state)
    T0 /= np.linalg.norm(T0)
    departed, found = False, []
    end = None  # (chart, time, f) at the last step end where the gates took f

    def section(e):
        e = e - start
        return float(e @ T0), float(np.linalg.norm(e))

    def on_step(rhs, ch, t0, y0, t1, y1, h, k0, k1):
        nonlocal departed, end
        dist = np.linalg.norm(space.point(y1, ch) - base)  # at most |e - start|
        if not departed:
            departed = dist > 1.0 or section(space.embed_with_slope(y1, k1, ch))[1] > 1.0
        elif dist < 0.6:
            f0 = end[2] if end and end[:2] == (ch, t0) else \
                section(space.embed_with_slope(y0, k0, ch))[0]
            f1, d1 = section(space.embed_with_slope(y1, k1, ch))
            end = (ch, t1, f1)
            if d1 < 0.6 and (f0 * f1 < 0.0 or f1 == 0.0):
                tau, y = _locate_crossing(rhs, lambda x: section(space.embed(x, ch))[0],
                                          t0, y0, y1, h, k0, k1, f0, f1, 1e-15)
                found.append((float(t0 + tau), y))
        return bool(found)

    def result(s, y, ch):
        if not found:
            return False, s, math.inf, y, ch
        (s, y), = found
        return True, s, float(np.linalg.norm(space.embed(y, ch) - start)), y, ch

    return on_step, result


def _returns(space, starts, max_arclength, tol):
    """:func:`first_return` from each ``(state, chart)`` of ``starts``."""
    gates = [_return(space, *start) for start in starts]
    ends = _geodesics(space, starts, max_arclength, tol, [on_step for on_step, _ in gates])
    return [result(*end) for (_, result), end in zip(gates, ends)]


def first_return(space, state, chart, max_arclength=30.0, tol=1e-10):
    """Integrate a contact element until its embedded image e first comes
    back within 0.6 of the start after departing beyond 1, and stop on the
    section f = (e - e(start)) . T0 = 0, T0 the derivative of e along the
    flow at the start.  The gates are checked on each step, by the cheap
    base point (``space.point``) where that decides them; a sign change of f
    on a step that ends inside the 0.6 capture is located on that step, to
    |f| at its rounding floor.  At a step's ends the gates embed the states
    with the end slopes that the integrator holds (``embed_with_slope``), and
    a step starts with the value of f where the step before it ended.  It is
    the one-lane case of :func:`closedness_report`'s stack of returns.
    Returns (returned, arclength, defect, final_state, final_chart)."""
    return _returns(space, [(state, chart)], max_arclength, tol)[0]


def closedness_report(space, n_samples=50, max_arclength=30.0, tol=1e-10,
                      seed=0, sample_radius=1.5):
    """Sample random contact elements and measure first-return defects.  The
    returns run as lanes of one integration; if a lane raises, each sample
    runs alone, so notes and errors are those of a loop over the samples."""
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(n_samples):
        r = sample_radius * math.sqrt(rng.uniform(0.0, 1.0))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        starts.append(space.start_state([r * math.cos(ang), r * math.sin(ang)], psi))

    def alone(i):
        try:
            return first_return(space, *starts[i], max_arclength=max_arclength, tol=tol)[:3] + ("",)
        except ExpressionDomainError:
            raise  # the configured metric is undefined here, whatever the sample
        except (GeometryError, IntegrationError) as exc:
            return False, math.nan, math.inf, str(exc)

    # the samples by index: one stack of lanes, or each alone if a lane raises
    results = over_points(range(n_samples), lambda _: [
        ret[:3] + ("",) for ret in _returns(space, starts, max_arclength, tol)], alone)
    samples = [SampleReturn(state=state, chart=chart, returned=ok, arclength=s, defect=d,
                            note=note or ("" if ok else "no return within budget"))
               for (state, chart), (ok, s, d, note) in zip(starts, results)]
    return ClosednessReport(samples=samples, seed=seed,
                            max_defect=worst_of(0.0, *(s.defect for s in samples if s.returned)),
                            n_returned=sum(s.returned for s in samples))


# -- central projection --------------------------------------------------------


def central_projection(p):
    """Open upper hemisphere to the plane z = 1 through the center."""
    if p[2] <= 1e-9:
        raise GeometryError("point not on the open upper hemisphere", point=p)
    return np.array([p[0] / p[2], p[1] / p[2]])


def line_fit_residual(points):
    """Max perpendicular distance of planar points from their best-fit line."""
    P = np.asarray(points, dtype=float)
    c = P.mean(axis=0)
    Q = P - c
    _, _, Vt = np.linalg.svd(Q, full_matrices=False)
    normal = Vt[-1]
    return float(np.max(np.abs(Q @ normal)))


def central_projection_check(n_geodesics=50, seed=0, arc=1.2, n_points=40):
    """Integrate great-circle arcs near the pole at tol 1e-11, project
    centrally, and fit lines; returns the per-arc and maximal perpendicular
    residuals.  The arcs run as lanes (each alone if a lane raises); an arc's
    sample k is the state at arclength k * arc / n_points, from a fresh step
    of the accepted step that contains it, and the arc ends there or at a
    height <= 0.05."""
    rng = np.random.default_rng(seed)
    atlas = SphereAtlas()
    ds = arc / n_points
    starts = []
    for _ in range(n_geodesics):
        # start high on the sphere: chart origin is the south pole, so radii
        # beyond 1 sit on the upper hemisphere; transitions keep the arc in a
        # well conditioned chart when it heads toward either pole
        r = rng.uniform(2.0, 4.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        starts.append([r * math.cos(ang), r * math.sin(ang), psi])

    def on_step(pts, rhs, ch, t0, y0, t1, y1, h, k0, k1):
        while len(pts) < n_points and len(pts) * ds <= t1:
            tau = len(pts) * ds - t0  # 0 only for sample 0, the start
            p = atlas.point(y1 if tau == h else y0 if tau == 0.0 else
                            _dopri_step(rhs, t0, y0, tau, k0)[1], ch)
            if p[2] <= 0.05:
                return True
            pts.append(central_projection(p))
        return False

    def arcs(ys):
        pts = [[] for _ in ys]
        _geodesics(atlas, [(y, "north") for y in ys], (n_points - 1) * ds, 1e-11,
                   [partial(on_step, p) for p in pts])
        return pts

    residuals = [line_fit_residual(pts) for pts in over_points(
        starts, lambda coords: arcs(coords.T), lambda y: arcs([y])[0]) if len(pts) >= 5]
    if not residuals:
        raise GeometryError("no arcs stayed on the open hemisphere")
    return {"residuals": residuals, "max_residual": float(worst_of(*residuals)),
            "n_arcs": len(residuals)}


# -- Legendre ray map ----------------------------------------------------------


def legendre_ray_map(metric, x, ray):
    """Unit covector of the g-normalized ray direction: p_i = g_ij u^j."""
    G = metric.matrix(x)
    v = np.asarray(ray, dtype=float)
    nrm = math.sqrt(float(v @ G @ v))
    if nrm < 1e-13:
        raise GeometryError("zero ray direction", point=x)
    u = v / nrm
    return G @ u


def legendre_ray_map_inverse(metric, x, p):
    """Unit ray of a covector: u^i = g^ij p_j, normalized to g-unit length."""
    G = metric.matrix(x)
    u = np.linalg.solve(G, np.asarray(p, dtype=float))
    nrm = math.sqrt(float(u @ G @ u))
    return u / nrm


def kinetic_hamiltonian_field(metric, x, p):
    """The Hamiltonian field of H = (1/2) g^ij p_i p_j at (x, p), computed
    from derivative jets of the inverse metric: (dH/dp, -dH/dx)."""
    G = metric.taylor(x, 1)
    Ginv = _inverse([G[:2], G[2:]])
    p = np.asarray(p, dtype=float)
    dHdp = np.zeros(2)
    dHdx = np.zeros(2)
    for i in range(2):
        for j in range(2):
            dHdp[i] += value(Ginv[i][j]) * p[j]
            for k in range(2):
                dHdx[k] += 0.5 * gradient(Ginv[i][j], 2)[k] * p[i] * p[j]
    return np.concatenate([dHdp, -dHdx])


def hamiltonian_alignment(metric, state):
    """Angle between the Legendre-pushed geodesic field and the kinetic
    Hamiltonian field at the matching cotangent point."""
    coords = np.asarray(state, dtype=float)
    g, dg, psi = _inputs(metric, coords, 1)
    u, _, psidot = _contact_element(g, dg, psi)
    pj = [jet_dot(g[i], u) for i in range(2)]  # p_i = g_ij u^j
    v1 = [value(u[0]), value(u[1]), value(psidot)]
    push = v1[:2] + [sum(d * v for d, v in zip(gradient(p, 3), v1)) for p in pj]
    XH = kinetic_hamiltonian_field(metric, coords[:2], np.array([value(p) for p in pj]))
    return line_angle(np.array(push), XH)

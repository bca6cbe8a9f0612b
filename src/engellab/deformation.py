"""Deformation of standard Engel domains by contact isotopies, and the
Gray/Moser solver for families of contact structures sharing a Legendrian
line field.

A time-dependent infinitesimal contact automorphism X(theta, m) = h Z + X_h
tilts the vertical field of a domain into W = d/dtheta + X; the pair {V, W}
stays Engel exactly while the spin function g, defined by
[X, V] = f V + g U, stays above -1.  The Gray solver inverts the picture:
given a path of contact forms whose time derivative kills a fixed Legendrian
field L, it produces an isotopy pulling the moving planes back to the initial
ones while preserving L.  The path is a field on the chart (x, t): one
evaluation of its rule at order k + 1 gives theta_t, d theta_t and d/dt
theta_t at order k, which is all that one Moser right-hand side reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .calculus import (Chart, ScalarField, VectorField, _column, _FieldBase, _rows, lie_bracket,
                       lie_derivative_scalar, over_points)
from .distributions import (DistributionFrame, _norms, line_angles, principal_angles,
                            reeb_field, reeb_jets)
from .errors import EngelLabError, GeometryError
from .flow import flow, integrate_nonautonomous
from .jets import (Jet, _jet, derivative, exp, gradient, jet_cross, jet_d_matrix, jet_dot,
                   jet_two_form, reciprocal, restrict, truncate, value)
from .prolongation import lift
from .reporting import worst_of

# window margin below which exp(-1/s) is treated as exactly zero
_WINDOW_EDGE = 1e-2
# the largest relative pairing dot-theta_t(L) that Gray's hypothesis allows
HYPOTHESIS_TOL = 1e-8


def bump_window(chart4, lo, hi, name="window"):
    """A smooth bump in the last coordinate, positive exactly on (lo, hi),
    normalized to 1 at the center."""
    if not lo < hi:
        raise EngelLabError("empty support window")
    peak = 4.0 / (hi - lo)

    def tfn(coords, order):
        th = coords[3]
        outside = (th - lo < _WINDOW_EDGE) | (hi - th < _WINDOW_EDGE)
        if outside.all():
            return [0.0]
        masked = outside.any()
        if masked:
            # a batch reaching outside: those points take the center, so
            # that exp sees no overflowing argument, and are zeroed after
            th = np.where(outside, 0.5 * (lo + hi), th)
        tj = Jet.variable(3, 4, order, base=th)
        w = exp(peak - (reciprocal(tj - lo) + reciprocal(hi - tj)))
        if masked:
            w = (_jet(4, order, np.where(outside[:, None], 0.0, w.c)) if order
                 else np.where(outside, 0.0, w))
        return [w]

    return ScalarField(chart4, taylor_fn=tfn, name=name)


class ContactIsotopyGenerator:
    """The contact vector field X(theta, .) = h Z + X_h on an Engel domain.

    ``h`` is a scalar field on the domain chart (base coordinates plus
    theta); it is multiplied by a smooth bump supported in ``support`` so the
    generator vanishes identically near the bottom and top slices.  The
    contact form is conformally rescaled so that d alpha(V, U) = 1 before the
    Reeb and Hamiltonian solves; X_h solves dh + i_{X_h} d alpha = 0 on the
    contact planes, which in the (V, U) basis reads
    X_h = -dh(U) V + dh(V) U.
    """

    def __init__(self, domain, h, support):
        lo, hi = support
        if not (0.0 < lo < hi < domain.theta_max):
            raise EngelLabError("support must sit strictly inside the theta interval")
        self.domain = domain
        self.support = (float(lo), float(hi))
        chart4 = domain.chart
        base = domain.base

        self.h = h * bump_window(chart4, lo, hi)

        inv_c = _normalizer_inverse(base)
        alpha_hat3 = base.alpha * inv_c
        self.alpha_hat = lift(chart4, alpha_hat3, name="alpha_hat")
        self.Z = lift(chart4, reeb_field(alpha_hat3), name="Z")

        dhV = lie_derivative_scalar(domain.V, self.h)
        dhU = lie_derivative_scalar(domain.U, self.h)
        self.X = self.h * self.Z + (-dhU) * domain.V + dhV * domain.U
        self.X.name = "X"

    def automorphism_residual(self, q):
        """|L_X alpha mod alpha| relative residual on the contact planes:
        the pairing of the Lie derivative with V and U, normalized.

        Uses the identity L_X alpha (Y) = X(alpha(Y)) - alpha([X, Y]).
        """
        a = self.alpha_hat
        out = 0.0
        for Yf in (self.domain.V, self.domain.U):
            s1 = lie_derivative_scalar(self.X, _pair_scalar(a, Yf))
            s2 = _pair_scalar(a, lie_bracket(self.X, Yf))
            scale = worst_of(1.0, np.linalg.norm(self.X(q)))
            out = worst_of(out, abs(s1(q) - s2(q)) / scale)
        return out


def _pair_scalar(alpha, X):
    def tfn(coords, order):
        return [alpha.pair(X, coords, order)]
    return ScalarField(alpha.chart, taylor_fn=tfn)


def _normalizer_inverse(base):
    """Scalar field 1 / d alpha(V0, V1) on the base chart; the conformal
    factor making d alpha(V, U) = 1 at every theta."""

    def tfn(coords, order):
        c = base.alpha.d_apply(base.v0, base.v1, coords, order)
        if np.any(abs(value(c)) < 1e-13):
            raise GeometryError("d alpha degenerates on the contact planes", point=coords)
        return [reciprocal(c)]

    return ScalarField(base.chart, taylor_fn=tfn, name="1/dalpha(V0,V1)")


class DeformedEngel:
    """An Engel domain with vertical field tilted by a contact isotopy
    generator: frame {W, V}, W = d/dtheta + X(theta, .)."""

    def __init__(self, domain, generator):
        self.base = domain.base
        self.domain = domain
        self.generator = generator
        self.chart = domain.chart
        self.full_circle = domain.full_circle
        self.theta_max = domain.theta_max
        self.V = domain.V
        self.U = domain.U
        self.W = domain.vertical + generator.X
        self.W.name = "W"
        self.g = self._spin_field()
        self.f = self._coefficient_field(False, "f")
        self.spin_samples = []  # g at the points realize_isotopy validated

    def frame(self):
        return DistributionFrame([self.W, self.V])

    def _coefficient_field(self, pick_second, name):
        """Coefficient of [X, V] = f V + g U via the normalized d alpha:
        g = d alpha_hat(V, [X,V]), f = d alpha_hat([X,V], U)."""
        gen = self.generator
        B = lie_bracket(gen.X, self.V)
        a = gen.alpha_hat
        V, U = self.V, self.U

        def tfn(coords, order):
            if pick_second:
                return [a.d_apply(V, B, coords, order)]
            return [a.d_apply(B, U, coords, order)]

        return ScalarField(self.chart, taylor_fn=tfn, name=name)

    def _spin_field(self):
        return self._coefficient_field(True, "g")


def realize_isotopy(domain, generator, samples=None, validate=True):
    """Tilt the domain's vertical field by the generator.

    With ``validate`` on and sample points given (4d coordinates), raises
    :class:`GeometryError` at the first point where the spin g is not above
    -1 (a NaN spin included); the deformed structure stops being Engel
    exactly at g = -1.  The samples are evaluated as one batch.  The
    validated spins are kept, in sample order, in ``spin_samples``.
    """
    dom = DeformedEngel(domain, generator)
    if validate and samples is not None:
        def spins(coords):
            return [_checked_spin(q, gq) for q, gq in zip(samples, dom.g(coords))]

        dom.spin_samples = over_points(samples, spins, lambda q: _checked_spin(q, dom.g(q)))
    return dom


def _checked_spin(q, gq):
    if not gq > -1.0:
        raise GeometryError(f"deformation too large: spin g = {gq:.6f} is not above -1", point=q)
    return float(gq)


def bottom_to_top(deformed, m, tol=1e-9):
    """Flow the characteristic field W from the bottom slice to the top; the
    base component is the contact map realized by the deformation.

    W has unit vertical speed, so the flow time equals the theta span.
    ``(N, 3)`` base points flow from the bottom slice as one stack of lanes,
    and one base point as a stack of one.
    """
    m = np.asarray(m, dtype=float)
    rows = np.atleast_2d(m)
    q0 = np.column_stack([rows, np.zeros(len(rows))])
    top = flow(deformed.W, q0, deformed.theta_max, tol=tol).endpoint[:, :3]
    return top if m.ndim == 2 else top[0]


# -- Gray / Moser solver -------------------------------------------------------


class ContactFormPath(_FieldBase):
    """A t-family of one-forms theta_t on a 3-chart: the field on the chart
    (x, t) whose components, a rule with generic arithmetic, are theta_t's."""

    n_components = 3

    def __init__(self, chart, rule):
        super().__init__(Chart(chart.name, chart.coords + ("t",)), components=rule, name="theta_t")

    def jets(self, coords, t, order):
        """theta_t to ``order + 1`` and d/dt theta_t to ``order`` around
        ``coords`` (a point, or ``(dim, N)`` for a batch of N points), both
        from one ``taylor`` evaluation at ``order + 1`` on the coordinates
        with a t row appended."""
        xt = np.concatenate([coords, np.full((1,) + np.shape(coords)[1:], t)])
        ext = self.taylor(xt, order + 1)
        return [restrict(j, 3) for j in ext], [restrict(derivative(j, 3), 3) for j in ext]


@dataclass
class GraySolution:
    """Solved Moser system for a contact-form path with fixed Legendrian L.

    ``transport`` integrates a point (and vector columns) over the grid and
    ``pullback_defect`` reports the pullback defects; ``g_log`` is the
    logarithmic conformal scale accumulated along the trajectory.  Each
    right-hand side, hypothesis check and frame reads theta_t, d theta_t and
    d/dt theta_t from one evaluation of the path (:meth:`ContactFormPath.jets`).
    """

    path: ContactFormPath
    L: VectorField
    t_grid: np.ndarray
    checks: list = dc_field(default_factory=list)

    def moser_field_jets(self, t, coords, order):
        """Jets of X_t at a state: X = u L + v E with E = theta x L, where u
        solves the horizontal equation and v (the transverse component)
        vanishes when the hypothesis dot-theta(L) = 0 holds; then the jets
        ``(theta_t, d theta_t, d/dt theta_t)`` that X is formed from, all at
        ``order``."""
        theta, dj = self.path.jets(coords, t, order)
        a, M = [truncate(j, order) for j in theta], jet_d_matrix(theta)
        Lj = self.L.taylor(coords, order)
        Ej = jet_cross(a, Lj)
        dLE = jet_two_form(M, Lj, Ej)
        Lv, Ev = ([value(c) for c in T] for T in (Lj, Ej))
        scale = np.sqrt(sum(c * c for c in Lv) * sum(c * c for c in Ev))
        if np.any(abs(value(dLE)) < 1e-12 * np.maximum(scale, 1e-300)):
            raise GeometryError("d theta_t degenerates on the contact planes", point=coords)
        u = -1.0 * jet_dot(dj, Ej) * reciprocal(dLE)
        v = jet_dot(dj, Lj) * reciprocal(dLE)
        return [u * li + v * ei for li, ei in zip(Lj, Ej)], (a, M, dj)

    def check_hypothesis(self, points):
        """dot-theta_t must annihilate L at the first and last grid times;
        returns the worst relative pairing and raises unless it is within
        :data:`HYPOTHESIS_TOL` (a NaN pairing at any point raises).  The
        points are evaluated as one batch per time, and folded in order."""
        worst = 0.0
        for t in (self.t_grid[0], self.t_grid[-1]):
            worst = worst_of(worst, *over_points(points, lambda xs: self._pairings(xs, t),
                                                 lambda x: self._pairings(x, t)[0]))
        if not worst <= HYPOTHESIS_TOL:
            raise GeometryError(
                f"dot theta_t does not annihilate L (relative pairing {worst:.3e})")
        self.checks.append({"check": "hypothesis", "worst": worst})
        return worst

    def _pairings(self, coords, t):
        """|dot-theta_t(L)| / (|dot-theta_t| |L|) at a point, or at each
        point of ``(3, N)`` coordinates."""
        dot = self.path.jets(coords, t, 0)[1]
        num = np.abs(jet_dot(dot, self.L.taylor(coords, 0)))
        dots, Ls = _rows(_column(dot, coords)), _rows(self.L(coords))
        return (num / np.maximum(_norms(dots) * _norms(Ls), 1e-300)).tolist()

    def _rhs(self, n_vec):
        sol = self

        def f(t, y):
            x = y.T[:3]
            jets, (a, M, dot) = sol.moser_field_jets(t, x, 1)
            R = reeb_jets([[truncate(m, 0) for m in row] for row in M],
                          [truncate(j, 0) for j in a], x)
            # lane by lane on contiguous rows, so that the products are those
            # of a lone point; last, the log conformal scale dg/dt = -dot theta_t(R_t)
            grads = np.array([_column(gradient(j, 3), x) for j in jets]
                             ).reshape(3, 3, -1).transpose(2, 0, 1)
            lanes = [_rows(y.T), *(_rows(_column(v, x)) for v in (jets, dot, R)),
                     np.ascontiguousarray(grads)]
            out = [np.concatenate([val, (DX @ yl[3:3 + 3 * n_vec].reshape(3, n_vec)).ravel(),
                                   [-float(np.dot(d, r))]]) for yl, val, d, r, DX in zip(*lanes)]
            return out[0] if y.ndim == 1 else np.array(out)

        return f

    def transport(self, x0, vectors=None):
        """Integrate the isotopy from ``x0`` over the grid, carrying optional
        ``(3, k)`` vector columns and the log-scale; fixed-grid RK4 so that
        refining ``t_grid`` refines the answer.  ``(N, 3)`` start points, with
        ``(N, 3, k)`` vectors, run as one stack of lanes."""
        x0 = np.asarray(x0, dtype=float)
        lead = x0.shape[:-1]
        V = np.zeros(lead + (3, 0)) if vectors is None else np.asarray(vectors, float)
        k = V.shape[-1]
        y = integrate_nonautonomous(self._rhs(k), np.concatenate(
            [x0, V.reshape(lead + (-1,)), np.zeros(lead + (1,))], -1), self.t_grid)
        cols = y[..., 3:3 + 3 * k].reshape(lead + (3, k)) if k else None
        return y[..., :3], cols, y.T[-1]

    def _frames(self, t, points):
        """At each of the ``(N, 3)`` points, two vectors spanning ker theta_t
        and then L, as columns; theta_t and L are evaluated on the stack."""
        def frame(a, L):
            b1 = np.cross(a, np.eye(3)[int(np.argmin(np.abs(a)))])
            return np.column_stack([b1, np.cross(a, b1), L])

        def theta(xs):
            return _column(self.path.jets(xs, t, 0)[0], xs)

        return over_points(points, lambda xs: list(map(frame, theta(xs).T, self.L(xs).T)),
                           lambda x: frame(theta(x), self.L(x)))

    def pullback_defect(self, x0):
        """Transport a basis of ker theta_0 at x0 and the L direction; report
        the endpoint, the plane-angle defect against ker theta_T, and the
        angle defect of the transported L direction.  ``(N, 3)`` start
        points are transported as one stack and give a list of reports."""
        x0 = np.asarray(x0, dtype=float)
        V = np.array(self._frames(self.t_grid[0], np.atleast_2d(x0)))
        runs = self.transport(x0, V[0] if x0.ndim == 1 else V)
        ends, cols, g_log = (np.asarray(r)[None] if x0.ndim == 1 else r for r in runs)
        frames = np.array(self._frames(self.t_grid[-1], ends))
        planes = principal_angles(cols[..., :2], frames[..., :2])
        lines = line_angles(cols[..., 2], frames[..., 2])
        reports = [{"endpoint": e, "plane_defect": p, "L_defect": d, "g_log": float(g)}
                   for e, p, d, g in zip(ends, planes, lines, g_log)]
        return reports[0] if x0.ndim == 1 else reports


def gray_solve(path, L, t_grid, sample_points=None):
    """Set up the Moser system for a contact-form path containing the fixed
    Legendrian field L in all its kernels; checks the hypothesis at the given
    sample points before returning the solution handle."""
    sol = GraySolution(path=path, L=L, t_grid=np.asarray(t_grid, dtype=float))
    if sample_points is not None:
        sol.check_hypothesis(sample_points)
    return sol

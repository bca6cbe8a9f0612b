"""Deformation of standard Engel domains by contact isotopies, and the
Gray/Moser solver for families of contact structures sharing a Legendrian
line field.

A time-dependent infinitesimal contact automorphism X(theta, m) = h Z + X_h
tilts the vertical field of a domain into W = d/dtheta + X; the pair {V, W}
stays Engel exactly while the spin function g, defined by
[X, V] = f V + g U, stays above -1.  The Gray solver inverts the picture:
given a path of contact forms whose time derivative kills a fixed Legendrian
field L, it produces an isotopy pulling the moving planes back to the initial
ones while preserving L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .calculus import (ScalarField, VectorField, _coords_of,
                       lie_derivative_scalar)
from .distributions import DistributionFrame, reeb_field, reeb_vector
from .errors import EngelLabError, GeometryError
from .flow import flow, integrate_nonautonomous
from .jets import Jet, jet_bilinear, jet_cross, jet_dot
from .prolongation import Slice, lift_field, lift_form

# window margin below which exp(-1/s) is treated as exactly zero
_WINDOW_EDGE = 1e-2


def bump_window(chart4, lo, hi, name="window"):
    """A smooth bump in the last coordinate, positive exactly on (lo, hi),
    normalized to 1 at the center."""
    if not lo < hi:
        raise EngelLabError("empty support window")
    peak = 4.0 / (hi - lo)

    def tfn(coords, order):
        th = coords[3]
        if th - lo < _WINDOW_EDGE or hi - th < _WINDOW_EDGE:
            return [Jet(4, order)]
        tj = Jet.variable(3, 4, order, base=th)
        arg = (tj - lo).reciprocal() + (hi - tj).reciprocal()
        return [(Jet.constant(peak, 4, order) - arg).exp()]

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

        window = bump_window(chart4, lo, hi)
        self.h = h * window if h is not None else None

        inv_c = _normalizer_inverse(base)
        alpha_hat3 = base.alpha * inv_c
        self.alpha_hat = lift_form(chart4, alpha_hat3, name="alpha_hat")
        self.normalizer = inv_c
        self.Z = lift_field(chart4, reeb_field(alpha_hat3), name="Z")

        if self.h is None:
            self.X = VectorField(chart4, components=lambda xs: [0.0] * 4, name="X")
        else:
            dhV = lie_derivative_scalar(domain.V, self.h)
            dhU = lie_derivative_scalar(domain.U, self.h)
            self.X = self.h * self.Z + (-dhU) * domain.V + dhV * domain.U
            self.X.name = "X"

    def automorphism_residual(self, q, order=0):
        """|L_X alpha mod alpha| relative residual on the contact planes:
        the pairing of the Lie derivative with V and U, normalized.

        Uses the identity L_X alpha (Y) = X(alpha(Y)) - alpha([X, Y]).
        """
        from .calculus import lie_bracket
        a = self.alpha_hat
        out = 0.0
        for Yf in (self.domain.V, self.domain.U):
            s1 = lie_derivative_scalar(self.X, _pair_scalar(a, Yf))
            s2 = _pair_scalar(a, lie_bracket(self.X, Yf))
            scale = max(np.linalg.norm(self.X(q)), 1.0)
            out = max(out, abs(s1(q) - s2(q)) / scale)
        return out


def _pair_scalar(alpha, X):
    def tfn(coords, order):
        return [alpha.pair(X, coords, order)]
    return ScalarField(alpha.chart, taylor_fn=tfn,
                       max_order=min(alpha.max_order, X.max_order))


def _normalizer_inverse(base):
    """Scalar field 1 / d alpha(V0, V1) on the base chart; the conformal
    factor making d alpha(V, U) = 1 at every theta."""

    def tfn(coords, order):
        c = base.alpha.d_apply(base.v0, base.v1, coords, order)
        if abs(c.value) < 1e-13:
            raise GeometryError("d alpha degenerates on the contact planes", point=coords)
        return [c.reciprocal()]

    return ScalarField(base.chart, taylor_fn=tfn, max_order=base.alpha.max_order - 1,
                       name="1/dalpha(V0,V1)")


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
        self.vertical = domain.vertical
        self.W = domain.vertical + generator.X
        self.W.name = "W"
        self.g = self._spin_field()
        self.f = self._twist_field()
        self.spin_samples = []  # g at the points realize_isotopy validated

    @property
    def char_field(self):
        return self.W

    def frame(self):
        return DistributionFrame([self.W, self.V])

    def theta_slice(self, value):
        return Slice(self.chart, 3, float(value))

    @property
    def bottom(self):
        return self.theta_slice(0.0)

    @property
    def top(self):
        return self.theta_slice(self.theta_max if self.full_circle else 0.5 * math.pi)

    def point(self, m, theta):
        return self.domain.point(m, theta)

    def _coefficient_field(self, pick_second):
        """Coefficient of [X, V] = f V + g U via the normalized d alpha:
        g = d alpha_hat(V, [X,V]), f = d alpha_hat([X,V], U)."""
        from .calculus import lie_bracket
        gen = self.generator
        B = lie_bracket(gen.X, self.V)
        a = gen.alpha_hat
        V, U = self.V, self.U

        def tfn(coords, order):
            if pick_second:
                return [a.d_apply(V, B, coords, order)]
            return [a.d_apply(B, U, coords, order)]

        return ScalarField(self.chart, taylor_fn=tfn,
                           max_order=min(a.max_order - 1, B.max_order))

    def _spin_field(self):
        g = self._coefficient_field(True)
        g.name = "g"
        return g

    def _twist_field(self):
        f = self._coefficient_field(False)
        f.name = "f"
        return f


def realize_isotopy(domain, generator, samples=None, validate=True):
    """Tilt the domain's vertical field by the generator.

    With ``validate`` on and sample points given (4d coordinates), raises
    :class:`GeometryError` at the first point where the spin g is not above
    -1 (a NaN spin included); the deformed structure stops being Engel
    exactly at g = -1.  The validated spins are kept, in sample order, in
    ``spin_samples``.
    """
    dom = DeformedEngel(domain, generator)
    if validate and samples is not None:
        for q in samples:
            gq = dom.g(q)
            if not gq > -1.0:
                raise GeometryError(
                    f"deformation too large: spin g = {gq:.6f} is not above -1", point=q)
            dom.spin_samples.append(gq)
    return dom


def bottom_to_top(deformed, m, tol=1e-9):
    """Flow the characteristic field W from the bottom slice to the top; the
    base component is the contact map realized by the deformation.

    W has unit vertical speed, so the flow time equals the theta span.
    """
    m = np.asarray(_coords_of(m, None), dtype=float)
    if m.shape == (4,):
        q0 = m
    else:
        q0 = np.append(m, 0.0)
    span = deformed.top.value - q0[3]
    res = flow(deformed.W, q0, span, tol=tol)
    return res.endpoint.coords[:3]


# -- Gray / Moser solver -------------------------------------------------------


class ContactFormPath:
    """A t-family of one-forms on a 3-chart, each component a rule in
    (coordinates, t) with generic arithmetic."""

    def __init__(self, chart, components, max_order=math.inf, name="theta_t"):
        self.chart = chart
        self.components = components
        self.max_order = max_order
        self.name = name

    def _ext_jets(self, coords, t, order):
        seeds = Jet.seeds(list(coords) + [t], order)
        return self.components(seeds)

    def form_at(self, t):
        """The one-form at frozen time t (t-variable restricted away)."""
        path = self

        def tfn(coords, order):
            return [j.restrict(3) for j in path._ext_jets(coords, t, order)]

        from .calculus import OneForm
        return OneForm(self.chart, taylor_fn=tfn, max_order=self.max_order,
                       name=f"{self.name}[{t:.4f}]")

    def dot_at(self, t):
        """Time derivative of the family at frozen time t."""
        path = self

        def tfn(coords, order):
            jets = path._ext_jets(coords, t, order + 1)
            return [j.derivative(3).restrict(3) for j in jets]

        from .calculus import OneForm
        return OneForm(self.chart, taylor_fn=tfn, max_order=self.max_order - 1,
                       name=f"d/dt {self.name}[{t:.4f}]")


@dataclass
class GraySolution:
    """Solved Moser system for a contact-form path with fixed Legendrian L.

    ``transport`` integrates a point (and the initial contact plane and L
    direction) over the grid and reports the pullback defects; ``g_log`` is
    the logarithmic conformal scale accumulated along the trajectory.
    """

    path: ContactFormPath
    L: VectorField
    t_grid: np.ndarray
    hypothesis_tol: float = 1e-8
    checks: list = dc_field(default_factory=list)

    def moser_field_jets(self, t, coords, order):
        """Jets of X_t at a state: X = u L + v E with E = theta x L, where u
        solves the horizontal equation and v (the transverse component)
        vanishes when the hypothesis dot-theta(L) = 0 holds."""
        form = self.path.form_at(t)
        dot = self.path.dot_at(t)
        Lj = self.L.taylor(coords, order)
        a = form.taylor(coords, order)
        Ej = jet_cross(a, Lj)
        M = form.d_matrix(coords, order)
        dj = dot.taylor(coords, order)
        dLE = jet_bilinear(M, Lj, Ej)
        scale = max(np.linalg.norm([c.value for c in Lj]) *
                    np.linalg.norm([c.value for c in Ej]), 1e-300)
        if abs(dLE.value) < 1e-12 * scale:
            raise GeometryError("d theta_t degenerates on the contact planes", point=coords)
        u = -1.0 * jet_dot(dj, Ej) * dLE.reciprocal()
        v = jet_dot(dj, Lj) * dLE.reciprocal()
        return [u * li + v * ei for li, ei in zip(Lj, Ej)], u, v

    def check_hypothesis(self, points, times=None):
        """dot-theta_t must annihilate L; returns the worst relative pairing
        and raises if it exceeds the stated tolerance."""
        times = times if times is not None else [self.t_grid[0], self.t_grid[-1]]
        worst = 0.0
        for t in times:
            dot = self.path.dot_at(t)
            for x in points:
                num = abs(float(dot.pair(self.L, x).value))
                den = max(np.linalg.norm(dot(x)) * np.linalg.norm(self.L(x)), 1e-300)
                worst = max(worst, num / den)
        if worst > self.hypothesis_tol:
            raise GeometryError(
                f"dot theta_t does not annihilate L (relative pairing {worst:.3e})")
        self.checks.append({"check": "hypothesis", "worst": worst})
        return worst

    def _rhs(self, n_vec):
        sol = self

        def f(t, y):
            x = y[:3]
            jets, u, v = sol.moser_field_jets(t, x, 1)
            val = np.array([j.value for j in jets])
            DX = np.array([j.gradient() for j in jets])
            cols = y[3:3 + 3 * n_vec].reshape(3, n_vec) if n_vec else np.zeros((3, 0))
            out = [val, (DX @ cols).ravel()]
            # logarithmic conformal scale: dg/dt = -dot theta_t(R_t) along the flow
            form = sol.path.form_at(t)
            R = reeb_vector(form, x)
            out.append([-float(np.dot(sol.path.dot_at(t)(x), R))])
            return np.concatenate(out)

        return f

    def transport(self, x0, vectors=None, substeps=1):
        """Integrate the isotopy from ``x0`` over the grid, carrying optional
        vector columns and the log-scale; fixed-grid RK4 so that refining
        ``t_grid`` refines the answer."""
        x0 = np.asarray(x0, dtype=float)
        V = np.zeros((3, 0)) if vectors is None else np.atleast_2d(np.asarray(vectors, float))
        if V.shape[0] != 3 and V.size:
            V = V.T
        y = integrate_nonautonomous(self._rhs(V.shape[1]),
                                    np.concatenate([x0, V.ravel(), [0.0]]),
                                    self.t_grid, substeps)
        end = y[:3]
        cols = y[3:3 + V.size].reshape(3, V.shape[1]) if V.size else None
        return end, cols, y[-1]

    def pullback_defect(self, x0, substeps=1):
        """Transport a basis of ker theta_0 at x0 and the L direction; report
        the endpoint, the plane-angle defect against ker theta_T, and the
        angle defect of the transported L direction."""
        from .distributions import plane_principal_angle
        form0 = self.path.form_at(self.t_grid[0])
        a = form0(x0)
        m = int(np.argmin(np.abs(a)))
        e = np.eye(3)[m]
        b1 = np.cross(a, e)
        b2 = np.cross(a, b1)
        Lv = self.L(x0)
        end, cols, g_log = self.transport(x0, vectors=np.column_stack([b1, b2, Lv]),
                                          substeps=substeps)
        formT = self.path.form_at(self.t_grid[-1])
        aT = formT(end)
        mT = int(np.argmin(np.abs(aT)))
        c1 = np.cross(aT, np.eye(3)[mT])
        c2 = np.cross(aT, c1)
        plane_defect = plane_principal_angle([cols[:, 0], cols[:, 1]], [c1, c2])
        LT = self.L(end)
        cosang = abs(np.dot(cols[:, 2], LT)) / max(
            np.linalg.norm(cols[:, 2]) * np.linalg.norm(LT), 1e-300)
        L_defect = float(np.arccos(min(1.0, cosang)))
        return {"endpoint": end, "plane_defect": float(plane_defect),
                "L_defect": L_defect, "g_log": float(g_log)}


def gray_solve(path, L, t_grid, sample_points=None, hypothesis_tol=1e-8):
    """Set up the Moser system for a contact-form path containing the fixed
    Legendrian field L in all its kernels; checks the hypothesis at the given
    sample points before returning the solution handle."""
    sol = GraySolution(path=path, L=L, t_grid=np.asarray(t_grid, dtype=float),
                       hypothesis_tol=hypothesis_tol)
    if sample_points is not None:
        sol.check_hypothesis(sample_points)
    return sol

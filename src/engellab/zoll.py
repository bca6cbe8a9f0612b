"""Geodesic direction fields on unit tangent bundles, the quaternionic
Engel frame over the rotation group, closedness measurements for surface
metrics, central projection, and the Legendre ray map.

The unit tangent bundle of a surface is charted by (x1, x2, psi) with psi the
fiber angle against a g-orthonormal frame.  The vertical field V0 = d/dpsi
and the geodesic field V1 frame the contact planes; the contact form pairs
the metric with the normal of the moving direction.  Closedness of geodesics
is measured, never assumed: the report integrates each sampled contact
element across the atlas and records the distance in an embedding between the
start and the first return candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import Chart, OneForm, VectorField
from .errors import (EngelLabError, ExpressionDomainError, GeometryError,
                     IntegrationError)
from .flow import integrate
from .jets import Jet, jet_bilinear, jet_dot
from .prolongation import ParallelizedContact, prolong


class SurfaceMetric:
    """A Riemannian metric on a 2-chart, given by a matrix rule evaluable
    with generic arithmetic (floats or jets)."""

    def __init__(self, chart, g_rule, name=""):
        if chart.dim != 2:
            raise EngelLabError("surface metric needs a 2-dimensional chart")
        self.chart = chart
        self.g_rule = g_rule
        self.name = name

    def jets(self, coords, order, n_vars=2, positions=(0, 1)):
        """Component jets g_ij; optionally embedded into more variables."""
        seeds = Jet.seeds(np.asarray(coords, dtype=float)[:2], order)
        G = self.g_rule(seeds)
        out = [[G[i][j] if isinstance(G[i][j], Jet) else Jet.constant(float(G[i][j]), 2, order)
                for j in range(2)] for i in range(2)]
        if n_vars != 2:
            out = [[g.embed(n_vars, list(positions)) for g in row] for row in out]
        return out

    def matrix(self, p):
        G = self.jets(np.asarray(p, dtype=float), 0)
        M = np.array([[G[i][j].value for j in range(2)] for i in range(2)])
        if np.linalg.det(M) <= 0 or M[0, 0] <= 0:
            raise GeometryError("metric is not positive definite", point=p)
        return M

    def inverse_jets(self, G):
        det = G[0][0] * G[1][1] - G[0][1] * G[1][0]
        if abs(det.value) < 1e-13:
            raise GeometryError("metric degenerates")
        inv = det.reciprocal()
        return [[G[1][1] * inv, -1.0 * G[0][1] * inv],
                [-1.0 * G[1][0] * inv, G[0][0] * inv]]

    def christoffel_jets(self, coords, order, n_vars=2, positions=(0, 1)):
        """Gamma^i_jk as jets (one derivative of g consumed)."""
        G = self.jets(coords, order + 1, n_vars, positions)
        Ginv = self.inverse_jets([[g.truncated(order) for g in row] for row in G])
        dG = [[[G[l][k].derivative(positions[j] if n_vars != 2 else j).truncated(order)
                for k in range(2)] for l in range(2)] for j in range(2)]
        return [[[jet_dot(Ginv[i], [dG[j][l][k] + dG[k][l][j] - dG[l][j][k]
                                    for l in range(2)]) * 0.5
                  for k in range(2)] for j in range(2)] for i in range(2)]

    def christoffel(self, p):
        Gam = self.christoffel_jets(np.asarray(p, dtype=float), 0)
        return np.array([[[Gam[i][j][k].value for k in range(2)] for j in range(2)]
                         for i in range(2)])


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
        lam = 4.0 * r2 * r2 * ((q + r2) ** 2).reciprocal() if isinstance(q, Jet) \
            else 4.0 * r2 * r2 / (q + r2) ** 2
        return [[lam, 0.0], [0.0, lam]]

    return SurfaceMetric(ch, rule, name=f"round_sphere_{which}")


def revolution_metric(profile, name="revolution"):
    """Surface of revolution du^2 + rho(u)^2 dv^2 with a scalar profile rho
    (a rule of one generic argument, positive on the working interval)."""
    ch = Chart(name, ("u", "v"))

    def rule(xs):
        rho = profile(xs[0])
        return [[1.0, 0.0], [0.0, rho * rho]]

    return SurfaceMetric(ch, rule, name=name)


class UnitTangentChart:
    """Chart (x1, x2, psi) on the unit tangent bundle of a surface metric.

    psi is measured against the Gram-Schmidt orthonormal frame (E1 along
    d/dx1).  The moving unit vector, the geodesic field, and the contact form
    g(u_perp, dpi .) are all evaluable with derivatives.
    """

    def __init__(self, metric):
        self.metric = metric
        self.chart = Chart(f"ST_{metric.chart.name}",
                           tuple(metric.chart.coords) + ("psi",))
        self.V0 = VectorField(self.chart, components=lambda xs: [0.0, 0.0, 1.0],
                              name="V0")
        self.V1 = VectorField(self.chart, taylor_fn=self._v1_jets, name="V1")
        self.alpha = OneForm(self.chart, taylor_fn=self._alpha_jets, name="alpha")

    def _frame_jets(self, coords, order):
        """Orthonormal frame columns E1, E2 and metric jets, in 3 variables."""
        G = self.metric.jets(coords, order, n_vars=3, positions=(0, 1))
        a = G[0][0].sqrt().reciprocal()
        E1 = [a, Jet(3, order)]
        w0 = -1.0 * G[0][1] * G[0][0].reciprocal()
        nrm2 = G[1][1] + w0 * G[0][1]
        b = nrm2.sqrt().reciprocal()
        E2 = [w0 * b, b]
        return G, E1, E2

    def _unit_jets(self, coords, order):
        """Coordinate components of the unit vector at angle psi and of its
        psi-derivative (the g-rotated normal)."""
        G, E1, E2 = self._frame_jets(coords, order)
        psi = Jet.variable(2, 3, order, base=coords[2])
        cp, sp = psi.cos(), psi.sin()
        u = [cp * E1[i] + sp * E2[i] for i in range(2)]
        uperp = [-1.0 * sp * E1[i] + cp * E2[i] for i in range(2)]
        return G, u, uperp

    def _v1_jets(self, coords, order):
        if order == 0:
            return self._v1_value(coords)
        G, u, uperp = self._unit_jets(coords, order + 1)
        Gam = self.metric.christoffel_jets(coords, order, n_vars=3, positions=(0, 1))
        F = []
        for i in range(2):
            acc = None
            for j in range(2):
                term = -1.0 * u[i].derivative(j) * u[j]
                for k in range(2):
                    term = term - Gam[i][j][k] * u[j] * u[k]
                acc = term if acc is None else acc + term
            F.append(acc)
        # psidot = g(F, uperp): the unique fiber speed keeping u geodesic
        psidot = jet_bilinear([[g.truncated(order) for g in row] for row in G], F,
                              [c.truncated(order) for c in uperp])
        return [u[0].truncated(order), u[1].truncated(order), psidot]

    def _v1_value(self, coords):
        """Plain-float evaluation (2-variable order-1 jets for the metric
        only); the geodesic field sits in every integrator's inner loop."""
        G = self.metric.jets(coords[:2], 1)
        g00, g01, g11 = G[0][0], G[0][1], G[1][1]
        a = g00.sqrt().reciprocal()
        w0 = -1.0 * g01 * g00.reciprocal()
        b = (g11 + w0 * g01).sqrt().reciprocal()
        cp, sp = math.cos(coords[2]), math.sin(coords[2])
        u0 = cp * a + sp * (w0 * b)
        u1 = sp * b
        up0 = -sp * a.value + cp * (w0 * b).value
        up1 = cp * b.value
        gv = np.array([[g00.value, g01.value], [g01.value, g11.value]])
        dg = np.array([[g00.gradient(), g01.gradient()],
                       [g01.gradient(), g11.gradient()]])  # dg[i][j][k] = d_k g_ij
        ginv = np.linalg.inv(gv)
        uv = np.array([u0.value, u1.value])
        du = np.array([u0.gradient(), u1.gradient()])  # du[i][k] = d_k u^i
        F = np.zeros(2)
        for i in range(2):
            F[i] = -float(du[i] @ uv)
            for j in range(2):
                for k in range(2):
                    Gam = 0.5 * sum(ginv[i, l] * (dg[l, k, j] + dg[j, l, k] - dg[j, k, l])
                                    for l in range(2))
                    F[i] -= Gam * uv[j] * uv[k]
        psidot = float(np.array([up0, up1]) @ gv @ F)
        return [float(uv[0]), float(uv[1]), psidot]

    def _alpha_jets(self, coords, order):
        G, u, uperp = self._unit_jets(coords, order)
        return [jet_dot([G[0][j], G[1][j]], uperp) for j in range(2)] + [Jet(3, order)]

    def unit_vector(self, p):
        _, u, _ = self._unit_jets(np.asarray(p, dtype=float), 0)
        return np.array([u[0].value, u[1].value])

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
        if isinstance(w2, Jet):
            if w2.value <= 0.0:
                raise GeometryError("quaternion chart leaves the unit ball")
            w = w2.sqrt()
        else:
            if w2 <= 0.0:
                raise GeometryError("quaternion chart leaves the unit ball")
            w = math.sqrt(w2)
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
    K = _so3_field([0.0, 0.0, 1.0], "K")
    I = _so3_field([1.0, 0.0, 0.0], "I")
    J = _so3_field([0.0, 1.0, 0.0], "J")
    return K, I, J


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

    def embed(self, state, chart):
        out = []
        for i in range(2):
            if self.periodic[i]:
                out.extend([math.cos(state[i]), math.sin(state[i])])
            else:
                out.append(state[i])
        out.extend([math.cos(state[2]), math.sin(state[2])])
        return np.asarray(out)

    def field(self, chart):
        return self.ut.V1

    def needs_transition(self, state, chart):
        return False

    def transition(self, state, chart):
        raise GeometryError("single-chart space has no transitions")

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

    def transition(self, state, chart):
        """Inversion x -> r^2 x / |x|^2; the conformal frames make the new
        fiber angle the Euclidean angle of the pushed direction."""
        x = state[:2]
        q = float(x @ x)
        if q < 1e-12:
            raise GeometryError("transition at the chart center", point=state)
        r2 = self.radius * self.radius
        x_new = r2 * x / q
        v = np.array([math.cos(state[2]), math.sin(state[2])])
        D = (r2 / q) * (np.eye(2) - 2.0 * np.outer(x, x) / q)
        w = D @ v
        psi_new = math.atan2(w[1], w[0])
        other = "south" if chart == "north" else "north"
        return np.array([x_new[0], x_new[1], psi_new]), other

    def sphere_point(self, state, chart):
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

    def embed(self, state, chart):
        """Point and unit tangent in R^6 (chart-independent)."""
        p = self.sphere_point(state, chart)
        eps = 1e-5
        ut = self._ut(chart)
        u = ut.unit_vector(state)
        step = np.array([eps * u[0], eps * u[1], 0.0])
        dp = (self.sphere_point(state + step, chart) -
              self.sphere_point(state - step, chart)) / (2.0 * eps)
        n = np.linalg.norm(dp)
        return np.concatenate([p, dp / max(n, 1e-300)])


def _integrate_chunk(space, state, chart, ds, tol):
    X = space.field(chart)
    y, err, steps = integrate(lambda t, s: X(s), state, 0.0, ds, tol=tol)
    if space.needs_transition(y, chart):
        y, chart = space.transition(y, chart)
    return y, chart


def first_return(space, state, chart, max_arclength=30.0, tol=1e-10,
                 chunk=0.25, capture=0.6, min_departure=1.0):
    """Integrate a contact element until its embedded image first comes back
    within ``capture`` of the start after having departed, then refine the
    return time by a Newton solve on the section through the start point
    (plane normal to the initial embedded tangent).

    Returns (returned, arclength, defect, final_state, final_chart).
    """
    start = space.embed(state, chart)
    # embedded tangent at the start, by central difference along the flow
    h = 1e-4
    yp, cp = _integrate_chunk(space, state.copy(), chart, h, tol)
    ym, cm = _integrate_chunk(space, state.copy(), chart, -h, tol)
    T0 = space.embed(yp, cp) - space.embed(ym, cm)
    T0 /= np.linalg.norm(T0)
    s = 0.0
    y, ch = state.copy(), chart
    departed = False
    while s < max_arclength:
        y, ch = _integrate_chunk(space, y, ch, chunk, tol)
        s += chunk
        if getattr(space, "escaped", lambda *_: False)(y, ch):
            return False, s, math.inf, y, ch
        d = np.linalg.norm(space.embed(y, ch) - start)
        if not departed:
            departed = d > min_departure
            continue
        if d < capture:
            # slope of the section function f(s) = (e(s) - start) . T0
            yp, cp = _integrate_chunk(space, y.copy(), ch, h, tol)
            ym, cm = _integrate_chunk(space, y.copy(), ch, -h, tol)
            slope = float((space.embed(yp, cp) - space.embed(ym, cm)) @ T0) / (2 * h)
            if abs(slope) < 0.1:
                slope = math.copysign(0.1, slope if slope != 0.0 else 1.0)
            for _ in range(20):
                f = float((space.embed(y, ch) - start) @ T0)
                delta = -f / slope
                delta = max(-2 * chunk, min(2 * chunk, delta))
                if abs(delta) < 1e-12:
                    break
                y, ch = _integrate_chunk(space, y, ch, delta, tol)
                s += delta
            defect = float(np.linalg.norm(space.embed(y, ch) - start))
            return True, s, defect, y, ch
    return False, s, math.inf, y, ch


def closedness_report(space, n_samples=50, max_arclength=30.0, tol=1e-10,
                      seed=0, sample_radius=1.5):
    """Sample random contact elements and measure first-return defects."""
    rng = np.random.default_rng(seed)
    samples = []
    worst = 0.0
    n_ret = 0
    for _ in range(n_samples):
        r = sample_radius * math.sqrt(rng.uniform(0.0, 1.0))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        state, chart = space.start_state([r * math.cos(ang), r * math.sin(ang)], psi)
        try:
            ok, s, d, _, _ = first_return(space, state, chart,
                                          max_arclength=max_arclength, tol=tol)
            note = "" if ok else "no return within budget"
        except ExpressionDomainError:
            raise  # the configured metric is undefined here, whatever the sample
        except (GeometryError, IntegrationError) as exc:
            ok, s, d, note = False, math.nan, math.inf, str(exc)
        samples.append(SampleReturn(state=state, chart=chart, returned=ok,
                                    arclength=s, defect=d, note=note))
        if ok:
            n_ret += 1
            worst = max(worst, d)
    return ClosednessReport(samples=samples, seed=seed, max_defect=worst,
                            n_returned=n_ret)


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


def central_projection_check(n_geodesics=50, seed=0, arc=1.2, n_points=40,
                             tol_integration=1e-11):
    """Integrate great-circle arcs near the pole, project centrally, and fit
    lines; returns the per-arc and maximal perpendicular residuals."""
    rng = np.random.default_rng(seed)
    atlas = SphereAtlas()
    residuals = []
    for _ in range(n_geodesics):
        # start high on the sphere: chart origin is the south pole, so radii
        # beyond 1 sit on the upper hemisphere; transitions keep the arc in a
        # well conditioned chart when it heads toward either pole
        r = rng.uniform(2.0, 4.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        y = np.array([r * math.cos(ang), r * math.sin(ang), psi])
        ch = "north"
        pts = []
        for _ in range(n_points):
            p = atlas.sphere_point(y, ch)
            if p[2] <= 0.05:
                break
            pts.append(central_projection(p))
            y, ch = _integrate_chunk(atlas, y, ch, arc / n_points, tol_integration)
        if len(pts) >= 5:
            residuals.append(line_fit_residual(pts))
    if not residuals:
        raise GeometryError("no arcs stayed on the open hemisphere")
    return {"residuals": residuals, "max_residual": float(max(residuals)),
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
    G = metric.jets(np.asarray(x, dtype=float), 1)
    Ginv = metric.inverse_jets(G)
    p = np.asarray(p, dtype=float)
    dHdp = np.zeros(2)
    dHdx = np.zeros(2)
    for i in range(2):
        for j in range(2):
            dHdp[i] += Ginv[i][j].value * p[j]
            for k in range(2):
                dHdx[k] += 0.5 * Ginv[i][j].gradient()[k] * p[i] * p[j]
    return np.concatenate([dHdp, -dHdx])


def hamiltonian_alignment(metric, state):
    """Angle between the Legendre-pushed geodesic field and the kinetic
    Hamiltonian field at the matching cotangent point."""
    ut = UnitTangentChart(metric)
    coords = np.asarray(state, dtype=float)
    G = metric.jets(coords, 1, n_vars=3, positions=(0, 1))
    _, u, _ = ut._unit_jets(coords, 1)
    pj = [jet_dot(G[i], u) for i in range(2)]
    v1 = ut.V1.taylor(coords, 1)
    push = np.zeros(4)
    push[0], push[1] = v1[0].value, v1[1].value
    for i in range(2):
        g = pj[i].gradient()
        push[2 + i] = sum(g[k] * v1[k].value for k in range(3))
    x = coords[:2]
    p = np.array([pj[0].value, pj[1].value])
    XH = kinetic_hamiltonian_field(metric, x, p)
    c = abs(float(push @ XH)) / max(np.linalg.norm(push) * np.linalg.norm(XH), 1e-300)
    return float(np.arccos(min(1.0, c)))

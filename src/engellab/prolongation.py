"""Prolongation of parallelized contact 3-manifolds to Engel domains, the
reverse contactification along slices, development maps, and transport of
contact planes along the characteristic foliation.

An Engel domain is the product M x [0, pi/2] (or the full circle for the
oriented prolongation) carrying the frame { d/dtheta, V(theta, m) } with
``V = cos(theta) V0 + sin(theta) V1``.  Leaves of the characteristic line
field are integrated with event detection on slice constraints, and the
projection to the bottom slice is realized dynamically by flowing, not by a
global quotient chart.  A line, characteristic or developed, is its unit
direction vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import (Chart, VectorField, _coords_of, _rows, coordinate_field,
                       evaluation_scope, lie_bracket, over_points)
from .distributions import (DistributionFrame, _dots, _matrices, _norms, _unit_rows,
                            annihilator_form, characteristic_line, is_contact)
from .errors import EngelLabError, GeometryError
from .flow import DEFAULT_TOL, flow_to_section
from .jets import Jet, _jet, cos, embed, reciprocal, restrict, sin, value

TRANSVERSALITY_MIN_ANGLE = 1e-3


class ParallelizedContact:
    """A contact 3-manifold chart with a global Legendrian frame (V0, V1).

    The annihilating one-form is derived as the coordinate cross product of
    the frame when not supplied.
    """

    def __init__(self, chart, v0, v1, alpha=None):
        if chart.dim != 3:
            raise EngelLabError("parallelized contact structure needs a 3-dimensional chart")
        self.chart = chart
        self.v0 = v0
        self.v1 = v1
        self.alpha = alpha if alpha is not None else annihilator_form(v0, v1, name="ann(V0,V1)")

    def frame(self):
        return DistributionFrame([self.v0, self.v1])

    def plane_basis(self, m):
        """The frame at ``m`` as the two columns of a matrix; both fields
        are evaluated in one evaluation scope, so the jets they share are
        computed once.  For an ``(N, 3)`` array of points, the ``(N, 3, 2)``
        stack of those matrices, from one batch (``over_points``)."""
        if np.ndim(m) == 2:
            return np.array(over_points(m, self._bases, self.plane_basis))
        return self._bases(m)[0]

    def _bases(self, coords):
        with evaluation_scope():
            return _matrices([self.v0(coords), self.v1(coords)])

    def check(self, points):
        """Contact at each point and annihilation of the frame by the form;
        raises at the first point where either fails.  The points are
        evaluated as one batch (``over_points``), ``alpha``, ``v0`` and
        ``v1`` once each."""
        rows = np.asarray(points, dtype=float)
        over_points(rows, lambda coords: self._check(rows, coords),
                    lambda m: self._check([m], m))
        return True

    def _check(self, points, coords):
        contact = np.array(is_contact(self.frame(), np.asarray(points)), dtype=bool)
        a, v0, v1 = (_rows(f(coords)) for f in (self.alpha, self.v0, self.v1))
        scale = 1e-10 * (_norms(a) * np.maximum(_norms(v0), _norms(v1)))
        # a NaN pairing or scale fails
        bad = ~(contact & (np.abs(_dots(a, v0)) <= scale) & (np.abs(_dots(a, v1)) <= scale))
        if bad.any():
            k = int(np.argmax(bad))
            raise GeometryError("frame is not contact at a sampled point" if not contact[k] else
                                "supplied form does not annihilate the frame", point=points[k])


@dataclass(frozen=True)
class Slice:
    """A coordinate slice {x_axis = value} of a 4-dimensional chart,
    transverse (to be checked by the caller) to the characteristic line."""

    ambient_chart: Chart
    axis: int
    value: float

    @property
    def slice_chart(self):
        coords = tuple(c for i, c in enumerate(self.ambient_chart.coords) if i != self.axis)
        label = f"{self.ambient_chart.name}|{self.ambient_chart.coords[self.axis]}={self.value:g}"
        return Chart(label, coords)

    def embed_coords(self, m):
        """Ambient coordinates of a slice point, or of each column of ``(dim, N)``."""
        return np.insert(np.asarray(m, dtype=float), self.axis, self.value, axis=0)

    def project_coords(self, q):
        return np.delete(np.asarray(q, dtype=float), self.axis)

    def embed_vector(self, v):
        return np.insert(np.asarray(v, dtype=float), self.axis, 0.0)

    def project_vector(self, v):
        return np.delete(np.asarray(v, dtype=float), self.axis)


def lift(chart4, field3, name=""):
    """Extend a vector field or one-form on M to M x S^1 with zero vertical
    component; the lift has the type of ``field3``."""

    def tfn(coords, order):
        return [embed(j, 4, [0, 1, 2]) for j in field3.taylor(coords[:3], order)] + [0.0]

    return type(field3)(chart4, taylor_fn=tfn, name=name or f"lift({field3.name})")


class EngelDomain:
    """Standard Engel domain over a parallelized contact structure.

    ``theta_max`` is pi/2 for the domain between V0 and V1 and 2*pi for the
    full oriented prolongation S xi.
    """

    def __init__(self, base, full_circle=False):
        self.base = base
        self.full_circle = full_circle
        self.theta_max = 2.0 * math.pi if full_circle else 0.5 * math.pi
        coords = tuple(base.chart.coords) + ("theta",)
        self.chart = Chart(f"{base.chart.name}_x_S1", coords)
        self.vertical = coordinate_field(self.chart, 3, name="d/dtheta")
        self.V = self._interpolating_field(phase=0.0, name="V")
        self.U = self._interpolating_field(phase=0.5 * math.pi, name="U")  # dV/dtheta

    def _interpolating_field(self, phase, name):
        base = self.base

        def tfn(coords, order):
            v0 = [embed(j, 4, [0, 1, 2]) for j in base.v0.taylor(coords[:3], order)]
            v1 = [embed(j, 4, [0, 1, 2]) for j in base.v1.taylor(coords[:3], order)]
            th = Jet.variable(3, 4, order, base=coords[3]) + phase
            c, s = cos(th), sin(th)
            return [c * a + s * b for a, b in zip(v0, v1)] + [0.0]

        return VectorField(self.chart, taylor_fn=tfn, name=name)

    @property
    def char_field(self):
        """Span of the characteristic line field, oriented by +theta."""
        return self.vertical

    def frame(self):
        return DistributionFrame([self.vertical, self.V])

    def theta_slice(self, value):
        return Slice(self.chart, 3, float(value))


def prolong(contact, full_circle=False, check_points=None):
    """Build the Engel domain (or full S xi) over a parallelized contact
    structure."""
    if check_points is not None:
        contact.check(check_points)
    return EngelDomain(contact, full_circle=full_circle)


def check_slice_transverse(domain_like, slc, p):
    """Angle between the characteristic line and the slice at an embedded
    point must exceed :data:`TRANSVERSALITY_MIN_ANGLE`."""
    q = slc.embed_coords(p) if len(np.atleast_1d(p)) == 3 else np.asarray(p, float)
    line = characteristic_line(domain_like.frame(), q)
    angle = math.asin(min(abs(line[slc.axis]), 1.0))
    if not angle > TRANSVERSALITY_MIN_ANGLE:  # a NaN angle fails too
        raise GeometryError("slice is not transverse to the characteristic line field", point=q)
    return angle


def contactify(frame, slc):
    """Induced contact structure on a slice: the rank-2 intersection of the
    slice tangent with D^2, returned as a Legendrian frame on the slice chart.

    D^2 is spanned by {X, Y, [X, Y]} with the input frame order fixed; the
    intersection is computed by eliminating the slice-normal component with a
    pivot chosen by constant-term magnitude.  The induced fields take a slice
    point or ``(3, N)`` slice coordinates; each point of a batch takes its own
    pivot, and its row is bit for bit its point's jets.
    """
    if frame.rank != 2 or frame.dim != 4:
        raise EngelLabError("contactification expects a rank-2 frame in dimension 4")
    X, Y = frame.fields
    B = lie_bracket(X, Y)
    axis = slc.axis
    chart3 = slc.slice_chart

    def make_tfn(which):
        def tfn(coords, order):
            q = slc.embed_coords(coords)
            # the bracket first: it evaluates X and Y one order higher, and
            # their jets at this order are then slices of those
            bracket = B.taylor(q, order)
            gens = [X.taylor(q, order), Y.taylor(q, order), bracket]
            # restrict every component jet to the slice hyperplane
            gens = [[restrict(c, axis) for c in g] for g in gens]
            if q.ndim == 2:
                return _eliminate_rows(gens, axis, which, q)
            normal = [value(g[axis]) for g in gens]  # ds(B_k), s = coordinate constraint
            piv = max(range(3), key=lambda k: abs(normal[k]))
            size = max(np.max(np.abs([value(c) for g in gens for c in g])), 1e-300)
            if abs(normal[piv]) < 1e-12 * size:
                raise GeometryError("D^2 is tangent to the slice (intersection rank != 2)", point=q)
            return _eliminate(gens[which + (which >= piv)], gens[piv], axis)

        return tfn

    u1 = VectorField(chart3, taylor_fn=make_tfn(0), name="TS^D2[0]")
    u2 = VectorField(chart3, taylor_fn=make_tfn(1), name="TS^D2[1]")
    return ParallelizedContact(chart3, u1, u2)


def _eliminate(gen, pivot, axis):
    """``gen - (ds(gen) / ds(pivot)) pivot`` without its slice-normal
    component, which cancels exactly."""
    ratio = gen[axis] * reciprocal(pivot[axis])
    return [gen[i] - ratio * pivot[i] for i in range(len(gen)) if i != axis]


def _eliminate_rows(gens, axis, which, q):
    """:func:`_eliminate` over a batch, each row with its own pivot: the
    first largest ``|ds(B_k)|``, as ``max`` picks it at a point.  The rows
    of each pivot are eliminated together on the generators as they are, so
    each row's arithmetic, numbers included, is its point's; the groups'
    results are then put back in row order (:func:`_merge`)."""
    rows = q.shape[1]
    values = np.abs([[np.broadcast_to(value(c), rows) for c in g] for g in gens])
    normal = values[:, axis]
    piv, index = np.zeros(rows, dtype=int), np.arange(rows)
    for k in (1, 2):
        piv = np.where(normal[k] > normal[piv, index], k, piv)
    size = np.max(values.reshape(-1, rows), axis=0)
    size = np.where(1e-300 > size, 1e-300, size)
    bad = np.flatnonzero(normal[piv, index] < 1e-12 * size)
    if len(bad):
        raise GeometryError("D^2 is tangent to the slice (intersection rank != 2)",
                            point=q[:, bad[0]])
    groups = [(k, np.flatnonzero(piv == k)) for k in range(3) if (piv == k).any()]
    parts = [_eliminate(*([_rows_of(e, at) for e in gens[i]] for i in (which + (which >= k), k)),
                        axis) for k, at in groups]
    return [_merge([p[i] for p in parts], [at for _, at in groups], rows)
            for i in range(len(parts[0]))]


def _rows_of(entry, at):
    """The rows ``at`` of a batch's jet or array; a point-sized jet or a
    float, the same in every row, as it is."""
    if isinstance(entry, Jet):
        return _jet(entry.n, entry.order, entry.c[at]) if entry.c.ndim == 2 else entry
    return entry[at] if isinstance(entry, np.ndarray) else entry


def _merge(results, ats, rows):
    """One batch entry from the results of row groups: values where every
    result is a number, else a jet, where a number's rows are its constant
    jet's (``0.0 + v``, then zeros), as a field reads that number."""
    jets = [r for r in results if isinstance(r, Jet)]
    if not jets:
        out = np.empty(rows)
        for r, at in zip(results, ats):
            out[at] = r
        return out
    out = np.zeros((rows, jets[0].c.shape[-1]))
    for r, at in zip(results, ats):
        if isinstance(r, Jet):
            out[at] = r.c
        else:
            out[at, 0] = 0.0 + r
    return _jet(jets[0].n, jets[0].order, out)


@dataclass
class DevelopmentResult:
    """Developed direction at the foot point of a leaf: ``line`` is its unit
    vector."""

    line: np.ndarray
    foot: np.ndarray  # coordinates on the contactification (bottom) chart
    contact_residual: float


def development(domain, q, tol=DEFAULT_TOL):
    """Development of the slice-tangent line at ``q`` down the leaf to the
    bottom slice: push D(q) (its level-tangent line) through the leaf
    transport differential of the characteristic flow.

    The projection to the leaf space is realized by flowing the characteristic
    field back to theta = 0; the transported direction lands in the contact
    plane at the foot point (the residual is reported).
    """
    qc = _coords_of(q, domain.chart)
    theta = qc[3]
    W = domain.char_field
    v = domain.V(qc)
    if abs(theta) < 1e-14:
        foot4, T = qc, np.array([v]).T
    else:
        # flow against the characteristic orientation when theta > 0
        field = -W if theta > 0 else W
        speed = abs(W(qc)[3])
        if speed < 1e-10:
            raise GeometryError("characteristic field has no vertical motion", point=qc)
        res = flow_to_section(field, qc, lambda y: float(y[3]), tol=tol,
                              min_time=0.0, max_time=1.5 * abs(theta) / speed + 1e-3,
                              vectors=np.array([v]).T)
        foot4, T = res.endpoint, res.transport
    direction = T[:3, 0]
    foot = foot4[:3]
    a = domain.base.alpha(foot)
    scale = np.linalg.norm(a) * np.linalg.norm(direction)
    residual = abs(a @ direction) / max(scale, 1e-300)
    line = _unit_rows(np.reshape(direction, (1, -1)))[0]
    return DevelopmentResult(line=line, foot=foot, contact_residual=residual)


def development_coefficients(domain, q, tol=DEFAULT_TOL):
    """Coefficients (a, b) of the developed direction in the (V0, V1) basis
    at the foot point, plus the development result."""
    dev = development(domain, q, tol=tol)
    Bas = domain.base.plane_basis(dev.foot)
    coeffs, res, _, _ = np.linalg.lstsq(Bas, dev.line, rcond=None)
    return coeffs, dev


def development_angle(domain, q, tol=DEFAULT_TOL):
    """Angle of the developed direction in the (V0, V1) basis (the projective
    fiber coordinate; equals theta on the unperturbed domain)."""
    (a, b), _ = development_coefficients(domain, q, tol=tol)
    return math.atan2(b, a)


def leaf_projective_coordinate(domain, q, basis_change=None, tol=DEFAULT_TOL):
    """Affine slope of the developed line in the (V0, V1) basis, optionally
    recombined by a 2x2 matrix (two such charts differ by a linear fractional
    transformation)."""
    (a, b), _ = development_coefficients(domain, q, tol=tol)
    if basis_change is not None:
        a, b = np.linalg.solve(np.asarray(basis_change, dtype=float), [a, b])
    if abs(a) < 1e-14:
        raise GeometryError("developed line hits the excluded direction of the affine chart", point=q)
    return b / a


@dataclass
class TransportResult:
    image: np.ndarray          # coordinates on the target slice chart
    matrix: np.ndarray         # 2x2 contact-plane transport in the slice frames
    crossing_time: float
    contact_defect: float      # relative out-of-plane component at the target
    plane_image: np.ndarray    # transported basis (columns, target slice coords)


def slice_transport(domain, slice_a, slice_b, m, tol=DEFAULT_TOL, min_time=1e-6):
    """Follow the +L leaf from ``m`` on ``slice_a`` to its first crossing of
    ``slice_b`` (event detection on the slice constraint) and transport the
    contact plane by the variational flow with the Poincare correction.

    For the full-circle return map pass ``slice_a == slice_b``; the crossing
    is then sought one period up.
    """
    W = domain.char_field
    ca = contactify(domain.frame(), slice_a)
    cb = contactify(domain.frame(), slice_b)
    m = np.asarray(m, dtype=float)
    q0 = slice_a.embed_coords(m)
    basis = np.column_stack([slice_a.embed_vector(v) for v in ca.plane_basis(m).T])

    target = slice_b.value
    if slice_a.axis == slice_b.axis and abs(slice_a.value - slice_b.value) < 1e-12:
        if not getattr(domain, "full_circle", False):
            raise EngelLabError("same-slice transport needs a full-circle domain")
        target = slice_b.value + 2.0 * math.pi

    speed = abs(W(q0)[slice_b.axis])
    if speed < 1e-10:
        raise GeometryError("characteristic field is tangent to the slice direction", point=q0)
    budget = 4.0 * (abs(target - q0[slice_b.axis]) + 1.0) / speed

    res = flow_to_section(W, q0, lambda y: float(y[slice_b.axis] - target),
                          tol=tol, min_time=min_time, max_time=budget,
                          vectors=basis)
    y = res.endpoint
    Wy = W(y)
    T = res.transport.copy()
    for k in range(T.shape[1]):
        T[:, k] -= (T[slice_b.axis, k] / Wy[slice_b.axis]) * Wy
    image = slice_b.project_coords(y)
    T3 = np.column_stack([slice_b.project_vector(T[:, k]) for k in range(T.shape[1])])
    target_basis = cb.plane_basis(image)
    A, _, _, _ = np.linalg.lstsq(target_basis, T3, rcond=None)
    residual = T3 - target_basis @ A
    defect = np.linalg.norm(residual) / max(np.linalg.norm(T3), 1e-300)
    return TransportResult(image=image, matrix=A, crossing_time=res.time,
                           contact_defect=float(defect), plane_image=T3)

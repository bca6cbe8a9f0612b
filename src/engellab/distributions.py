"""Derived flags of distributions, Engel/contact tests, the characteristic
line field, and Reeb fields.

Rank decisions use a relative singular-value cutoff (default 1e-7 of the
largest singular value per stage); reports carry the full singular values so
near-degenerate cases can be audited instead of silently misclassified.

:func:`flag_ranks`, :func:`characteristic_line` and the frame test of
:func:`is_contact` evaluate the frame fields once, at order 2 (order 1 for
the contact test), and form every bracket they need from those jets with
:func:`~engellab.jets.jet_bracket`.  The frame columns are the fields'
values.  These three take one point or an ``(N, dim)`` array of points.  A
batch is evaluated in one evaluation scope with one stacked SVD per stage, and
gives one result per row, each equal bit for bit to the result at that point
alone.  What follows the evaluation is computed over the batch as well: the
characteristic lines' kernel step and normalization, the angles between lines
(:func:`line_angles`) and the principal angles between planes
(:func:`principal_angles`); a point or a pair is the one-row case.  A line is
its unit direction: a ``(dim,)`` array at a point, the rows of an
``(N, dim)`` array for a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import OneForm, VectorField, _column, _rows, evaluation_scope, over_points
from .errors import EngelLabError, GeometryError
from .jets import jet_bracket, jet_cross, jet_d_matrix, jet_dot, reciprocal, value

DEFAULT_RANK_TOL = 1e-7


@dataclass
class DistributionFrame:
    """A spanning set of vector fields for a rank-r distribution."""

    fields: list

    def __post_init__(self):
        if not self.fields:
            raise EngelLabError("frame needs at least one field")
        chart = self.fields[0].chart
        for f in self.fields:
            if f.chart.name != chart.name:
                raise EngelLabError("frame fields live on different charts")
        self.chart = chart

    @property
    def rank(self):
        return len(self.fields)

    @property
    def dim(self):
        return self.chart.dim


@dataclass
class FlagReport:
    """Point-wise ranks of D, D^2, D^3 with the singular values behind them."""

    point: object
    ranks: tuple
    singular_values: list
    tol: float

    @property
    def is_engel(self):
        return self.ranks == (2, 3, 4)


def _dots(A, B):
    """Row-by-row dot products, each rounded as ``np.dot`` of the two rows
    (``einsum`` and row sums add in another order)."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def _norms(V):
    return np.sqrt(_dots(V, V))


def _unit_rows(V):
    """The rows of an ``(N, dim)`` array over their norms; a zero row raises."""
    V = np.ascontiguousarray(V, dtype=float)  # a strided row's products round otherwise
    norms = _norms(V)
    if (norms == 0.0).any():
        raise EngelLabError("line direction must be nonzero")
    return V / norms[:, None]


def line_angles(U, V):
    """Unoriented angles in [0, pi/2] between the lines of the rows of two
    ``(N, dim)`` arrays (or lone vectors), atan2(|v - (v.u) u|, |v.u|) on
    unit vectors.  The sine keeps small angles to rounding, where arccos of
    the cosine reads about 1e-8 between identical lines; a NaN stays NaN."""
    U, V = (_unit_rows(W) for W in np.broadcast_arrays(np.atleast_2d(U), np.atleast_2d(V)))
    c = _dots(U, V)
    R = V - c[:, None] * U
    # math.atan2 entry by entry: NumPy's arctan2 rounds otherwise
    return [math.atan2(s, abs(x)) for s, x in zip(_norms(R).tolist(), c.tolist())]


def line_angle(u, v):
    """The one-row case of :func:`line_angles`."""
    return line_angles(u, v)[0]


def _matrices(cols):
    """The frame matrices of evaluated columns, one per point: ``(1, dim, k)``
    from ``(dim,)`` values at a point, ``(N, dim, k)`` from ``(dim, N)``
    values of a batch."""
    M = np.stack(cols, axis=-1)
    return M[None] if M.ndim == 2 else M.transpose(1, 0, 2)


def _ranks(M, tol):
    """Numerical ranks and singular values of stacked matrices."""
    sv = np.linalg.svd(M, compute_uv=False)
    smax = sv[:, 0]
    return np.where(smax > 0, np.sum(sv > tol * smax[:, None], axis=1), 0), sv


def flag_ranks(frame, p, tol=DEFAULT_RANK_TOL):
    """Ranks of D, D^2, D^3 at ``p`` via singular values of the frame values,
    then with the pairwise brackets, then with the brackets of the frame
    fields with those; all from one order-2 evaluation of the frame at ``p``.

    For an ``(N, dim)`` array of points, the list of the N reports."""
    if np.ndim(p) == 2:
        return over_points(p, lambda coords: _flag_reports(frame, p, coords, tol),
                           lambda q: flag_ranks(frame, q, tol))
    return _flag_reports(frame, [p], p, tol)[0]


def _flag_reports(frame, points, coords, tol):
    with evaluation_scope():
        jets = [f.taylor(coords, 2) for f in frame.fields]
        cols1 = [f(coords) for f in frame.fields]
    r1, sv1 = _ranks(_matrices(cols1), tol)
    if (r1 < frame.rank).any():
        raise GeometryError(f"frame degenerate at {points[0]}", point=points[0])
    brackets = [jet_bracket(a, b) for i, a in enumerate(jets) for b in jets[i + 1:]]
    cols2 = cols1 + [_column(b, coords) for b in brackets]
    r2, sv2 = _ranks(_matrices(cols2), tol)
    cols3 = cols2 + [_column(jet_bracket(f, b), coords) for f in jets for b in brackets]
    r3, sv3 = _ranks(_matrices(cols3), tol)
    ranks = np.stack([r1, r2, r3], axis=1).tolist()
    return [FlagReport(point=q, ranks=tuple(r), singular_values=[s1, s2, s3], tol=tol)
            for q, r, s1, s2, s3 in zip(points, ranks, sv1, sv2, sv3)]


def is_engel(frame, p, tol=DEFAULT_RANK_TOL):
    """True iff the flag ranks at ``p`` are (2, 3, 4)."""
    if frame.dim != 4 or frame.rank != 2:
        return False
    return flag_ranks(frame, p, tol).is_engel


def is_contact(frame_or_form, p, tol=DEFAULT_RANK_TOL):
    """Contact test on a 3-dimensional chart.

    Frame variant: rank of {V0, V1, [V0, V1]} is 3; for an ``(N, 3)`` array
    of points, the list of the N verdicts, from one batch.  Form variant:
    ``alpha ^ d alpha`` is nondegenerate relative to the form's scale.
    """
    if isinstance(frame_or_form, OneForm):
        alpha = frame_or_form
        if alpha.chart.dim != 3:
            raise EngelLabError("contact form test needs a 3-dimensional chart")
        jets = alpha.taylor(p, 1)  # the values and d alpha from one evaluation
        a = np.array([value(j) for j in jets])
        M = jet_d_matrix(jets)
        vol = a[0] * M[1][2] - a[1] * M[0][2] + a[2] * M[0][1]
        scale = np.linalg.norm(a) * max(np.max(np.abs(M)), 1e-300)
        return abs(vol) > tol * max(scale, 1e-300)
    frame = frame_or_form
    if frame.dim != 3 or frame.rank != 2:
        raise EngelLabError("contact frame test needs 2 fields on a 3-dimensional chart")
    if np.ndim(p) == 2:
        return over_points(p, lambda coords: _contact_verdicts(frame, coords, tol),
                           lambda q: is_contact(frame, q, tol))
    return _contact_verdicts(frame, p, tol)[0]


def _contact_verdicts(frame, coords, tol):
    with evaluation_scope():
        jets = [f.taylor(coords, 1) for f in frame.fields]
        cols = [f(coords) for f in frame.fields]
    r, _ = _ranks(_matrices(cols + [_column(jet_bracket(*jets), coords)]), tol)
    return [bool(rk == 3) for rk in r]


def characteristic_line(frame, p, tol=DEFAULT_RANK_TOL):
    """The characteristic line of an Engel frame at ``p``, as its unit
    ``(dim,)`` direction: the kernel of ``v -> [[X, Y], v] mod D^2`` inside
    the plane spanned by the frame, from one order-2 evaluation of the frame,
    its largest component made positive.

    For an ``(N, dim)`` array of points, the ``(N, dim)`` array of the N
    directions.
    """
    if frame.rank != 2:
        raise EngelLabError("characteristic line needs a rank-2 frame")
    if np.ndim(p) == 2:
        lines = over_points(p, lambda coords: _lines(frame, p, coords, tol),
                            lambda q: characteristic_line(frame, q, tol))
        return np.reshape(lines, (len(p), frame.dim))
    return _lines(frame, [p], p, tol)[0]


def _lines(frame, points, coords, tol):
    with evaluation_scope():
        X, Y = (f.taylor(coords, 2) for f in frame.fields)
        vals = [f(coords) for f in frame.fields]
    B = jet_bracket(X, Y)
    vals.append(_column(B, coords))
    # orthogonal complement of D^2 in coordinates, via SVD
    U, sv, _ = np.linalg.svd(_matrices(vals))
    if (sv[:, 2] <= tol * sv[:, 0]).any():
        raise GeometryError("distribution is not Engel at the point (rank D^2 < 3)",
                            point=points[0])
    vals += [_column(jet_bracket(B, X), coords), _column(jet_bracket(B, Y), coords)]
    x0, y0, b0, bx, by = map(_rows, vals)
    normal = U[:, :, 3]  # a strided view: a contiguous copy's products round otherwise
    c1, c2 = _dots(normal, bx), _dots(normal, by)
    # np.maximum keeps a NaN c2 (max() drops it): its NaN line fails the angle checks
    flat = np.maximum(np.abs(c1), np.abs(c2)) <= tol * np.maximum(_norms(b0), 1.0)
    if flat.any():
        raise GeometryError("characteristic kernel is not one-dimensional numerically",
                            point=points[int(np.argmax(flat))])
    # [[X,Y], aX + bY] mod D^2 has coefficient a*c1 + b*c2 (the non-tensorial
    # terms land inside D^2); kernel direction is (c2, -c1) in frame coords,
    # its largest component made positive
    V = c2[:, None] * x0 - c1[:, None] * y0
    negative = V[np.arange(len(V)), np.argmax(np.abs(V), axis=1)] < 0
    return _unit_rows(np.where(negative[:, None], -V, V))


def reeb_jets(M, a, coords):
    """Jets of the Reeb field of a contact form on a 3-dimensional chart from
    those of its exterior derivative ``M`` and of the form ``a`` (numbers
    among them), at one order, around ``coords``.  The kernel of ``d alpha`` is spanned by the
    component dual ``(da_23, da_31, da_12)``; normalizing by ``alpha`` gives
    Z."""
    v = [M[1][2], M[2][0], M[0][1]]
    pairing = jet_dot(a, v)
    if np.any(abs(value(pairing)) < 1e-13):
        raise GeometryError("form is not contact at the point (alpha ^ d alpha = 0)", point=coords)
    inv = reciprocal(pairing)
    return [vi * inv for vi in v]


def reeb_field(alpha):
    """The Reeb vector field of a contact form on a 3-dimensional chart; the
    form is evaluated once, for ``d alpha``, and sliced for the pairing."""
    if alpha.chart.dim != 3:
        raise EngelLabError("Reeb field construction needs a 3-dimensional chart")
    return VectorField(alpha.chart, name=f"Reeb({alpha.name})",
                       taylor_fn=lambda coords, order: reeb_jets(
                           alpha.d_matrix(coords, order), alpha.taylor(coords, order), coords))


def annihilator_form(v0, v1, name=""):
    """The one-form on a 3-dimensional chart vanishing on both fields,
    realized as the coordinate cross product of their component vectors."""
    if v0.chart.dim != 3:
        raise EngelLabError("annihilator construction needs a 3-dimensional chart")
    return OneForm(v0.chart, name=name,
                   taylor_fn=lambda coords, order: jet_cross(v0.taylor(coords, order),
                                                             v1.taylor(coords, order)))


def principal_angles(A, B):
    """Largest principal angles between the column spans of two ``(N, d, k)``
    stacks of bases, from the sine (the residual of projecting one
    orthonormal basis onto the other span), which stays accurate for small
    angles where the cosine formula loses half the digits.  A pair with an
    entry that is not finite has a NaN angle."""
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(B).all(axis=(1, 2))
    QA, QB = np.linalg.qr(A[finite])[0], np.linalg.qr(B[finite])[0]
    R = QB - QA @ (QA.transpose(0, 2, 1) @ QB)
    angles = np.full(len(finite), np.nan)
    angles[finite] = np.arcsin(np.minimum(np.linalg.svd(R, compute_uv=False).max(axis=1), 1.0))
    return angles.tolist()


def plane_principal_angle(basis_a, basis_b):
    """The one-pair case of :func:`principal_angles`, for lists of basis vectors."""
    return principal_angles(np.column_stack(basis_a)[None], np.column_stack(basis_b)[None])[0]

"""Constructive normal form for a Legendrian pair of line fields on a
contact 3-manifold, on jets.

Given jets of a pair (Y, X) spanning a contact plane field, a chain of
coordinate and frame changes brings them to

    Y = d/dy,    X = d/dx + y d/dz + f(x, y, z) d/dy

with the contact structure ker(dz - y dx).  The second-order scalar equation
hiding in X is recovered by relabeling (x, z, y) -> (x, y, p); the inverse
construction and the jet of a prolonged point transformation support
projective-equivalence experiments on such equations.

Every sub-change is a jet-level pushforward, so each claimed identity is a
computation rather than a formula transcribed on faith; the steps are logged
for audit.  A pair's jets may be a stack of rows, one per pair: the chain
runs once, each value-dependent choice made row by row, and each row is its
lone pair's bit for bit (a lone pair is the case with no row axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .calculus import Chart, VectorField
from .errors import EngelLabError, GeometryError, JetDomainError
from .jets import (MAX_ORDER, Jet, _jet, _matrix_rows, jet_bracket, jet_compose,
                   jet_composer, jet_dot, jet_identity, jet_invert, jet_linear,
                   jet_pushforward, power, reciprocal, value)

ODE_CHART = Chart("ode_slope", ("x", "y", "p"))


def jet_polyval(jet, values):
    """Evaluate the truncated polynomial of a jet at a displacement."""
    acc = 0.0
    for k, v in jet.items():
        acc = acc + math.prod((power(x, e) for x, e in zip(values, k) if e), start=v)
    return acc


@dataclass
class LegendrianPairJet:
    """Jets at a point of the two fields (Y spans the line to be
    straightened, X the transverse one); must span a contact plane field.
    A stack of N pairs holds one ``(N, count)`` coefficient row per pair in
    every jet; a lone pair is the case with no row axis.  The pair keeps
    copies of its jets with the stack's rows, and a number component as its
    constant jet at ``order``.  A coefficient that is not finite raises
    :class:`JetDomainError`, naming its component (and row, in a stack)."""

    Y_jet: list
    X_jet: list
    order: int

    def __post_init__(self):
        if len(self.Y_jet) != 3 or len(self.X_jet) != 3:
            raise EngelLabError("pair jets need 3 components each")
        jets = _as_jets(list(self.Y_jet) + list(self.X_jet), self.order)
        self.Y_jet, self.X_jet = _finite(jets[:3], "Y"), _finite(jets[3:], "X")
        M = np.stack([_values(self.Y_jet), _values(self.X_jet),
                      _values(jet_bracket(self.Y_jet, self.X_jet))], axis=-1)
        sv = np.linalg.svd(M, compute_uv=False)
        if (sv[..., -1] <= 1e-9 * np.maximum(sv[..., 0], 1e-300)).any():
            raise GeometryError("pair is not contact at the origin")

    @classmethod
    def from_fields(cls, Y, X, point, order=4):
        """The pair of the fields' jets at ``point``; at ``(3, N)`` points,
        the stack of the N points' pairs, from one batch evaluation."""
        return cls(Y.taylor(point, order), X.taylor(point, order), order)

    @classmethod
    def stack(cls, pairs):
        """The stack of lone ``pairs``, row k holding pair k."""
        def rows(jets):
            order = min(j.order for j in jets)
            return _jet(3, order, np.stack([j.truncated(order).c for j in jets]))

        return cls([rows(c) for c in zip(*(p.Y_jet for p in pairs))],
                   [rows(c) for c in zip(*(p.X_jet for p in pairs))],
                   min(p.order for p in pairs))


def _as_jets(entries, order):
    """Copies of the jets among ``entries`` and the constant jets, in 3
    variables at ``order``, of the numbers among them, each with the rows
    of the stack that they form."""
    jets = [j if isinstance(j, Jet) else Jet.constant(j, 3, order) for j in entries]
    rows = np.broadcast_shapes(*(j.c.shape[:-1] for j in jets))
    return [_jet(3, j.order, np.broadcast_to(j.c, rows + j.c.shape[-1:]).copy()) for j in jets]


def _finite(jets, name):
    """``jets``, the components of field ``name``, if every coefficient is
    finite; else a :class:`JetDomainError` naming the first bad one."""
    for i, j in enumerate(jets):
        if not np.isfinite(j.c).all():
            bad = np.flatnonzero(~np.isfinite(j.c).all(axis=-1))
            row = f" in row {bad[0]}" if j.c.ndim > 1 else ""
            raise JetDomainError(f"pair jet {name}[{i}] has a coefficient that is not finite{row}")
    return jets


def _values(jets):
    """The values of jets of one stack as the last axis of one array."""
    return np.array([value(j) for j in jets]).T


@dataclass
class StraightenResult:
    change: list   # jet tuple, old -> new coordinates
    scale: Jet     # in old coordinates; scale * Y pushes to d/dy exactly


def _linear_pushforward(A, field):
    """Exact pushforward through x -> A x (no order loss); an ``(N, 3, 3)``
    stack of matrices pushes row k of the field through ``A[k]``."""
    order = min(f.order for f in field)
    comp = jet_compose(field, jet_linear(np.linalg.inv(A), order))
    return [jet_dot(comp, row) for row in _matrix_rows(A)]


def straighten(Y_jet, order=None):
    """Flow-box coordinates for a nonvanishing field jet: returns a change
    with ``pushforward(change, scale * Y) = d/dy`` exactly at jet level.

    The field is read at ``order`` and at the orders of its jets, whichever
    is least; a number component is read as its constant jet, so a field
    whose components are all numbers needs ``order``.  A stack of fields
    (jets with one row per field) gives the stack of their changes, each
    row's pivot chosen on its own; a coefficient that is not finite raises
    :class:`JetDomainError`.

    After aligning Y(0) with d/dy by a linear change and scaling the
    y-component to 1, the x- and z-target coordinates are corrected by a
    Picard iteration on the transport equations Y(phi_x) = 0, Y(phi_z) = 0
    (one antiderivative in y per pass, so the change carries one order more
    than the input).
    """
    orders = [j.order for j in Y_jet if isinstance(j, Jet)] + ([] if order is None else [order])
    if not orders:
        raise EngelLabError("straighten needs an order when every component is a number")
    order = min(orders)
    Y_jet = _finite(_as_jets(Y_jet, order), "Y")
    v0 = _values(Y_jet)
    if (np.linalg.norm(v0, axis=-1) < 1e-12).any():
        raise GeometryError("field vanishes at the origin; no flow box")
    # M e_y = v0, invertible with e_y in the column of the largest |v0_j|
    pivot = np.eye(3)[np.argmax(np.abs(v0), axis=-1)]
    M = np.where(pivot[..., None, :] == 1.0, np.eye(3)[:, 1:2], np.eye(3))
    M[..., :, 1] = v0
    L = np.linalg.inv(M)
    YL = _linear_pushforward(L, Y_jet)
    s = YL[1].reciprocal()
    a, c = s * YL[0], s * YL[2]  # y-component is exactly 1 after scaling
    g1 = Jet(3, min(order + 1, MAX_ORDER))
    g3 = Jet(3, min(order + 1, MAX_ORDER))
    for _ in range(order + 1):
        # transport of the x coordinate is forced by a, of z by c
        g1 = -(a + a * g1.derivative(0) + c * g1.derivative(2)).antiderivative(1)
        g3 = -(c + a * g3.derivative(0) + c * g3.derivative(2)).antiderivative(1)
    ident = jet_identity(3, min(order + 1, MAX_ORDER))
    flowbox = [ident[0] + g1, ident[1], ident[2] + g3]
    through_lin = jet_composer(jet_linear(L, min(order + 1, MAX_ORDER)))
    return StraightenResult(change=through_lin(flowbox), scale=through_lin(s))


@dataclass
class NormalFormResult:
    """Composite change plus frame scales bringing a pair to normal form.

    ``pushforward(change, Y_scale * Y) = d/dy`` and
    ``pushforward(change, X_scale * X) = d/dx + y d/dz + f d/dy``, with both
    scales expressed in the input coordinates and f carrying no constant term.
    """

    change: list
    Y_scale: Jet
    X_scale: Jet
    f_jet: Jet
    steps: list = dc_field(default_factory=list)

    def verify(self, pair):
        """Recompute both pushforwards from scratch and return the maximum
        coefficient deviation from the normal form: a float, or for a stack
        one per row (NaN where a row has one)."""
        through = jet_composer(jet_invert(self.change))
        Ys = jet_pushforward(self.change, [self.Y_scale * j for j in pair.Y_jet], through)
        Xs = jet_pushforward(self.change, [self.X_scale * j for j in pair.X_jet], through)
        order = min(j.order for j in Xs)
        ident = jet_identity(3, order)
        zero = Jet(3, order)
        one = Jet.constant(1.0, 3, order)
        worst = np.max([got.max_coeff_diff(want) for got, want in [
            (Ys[0], zero), (Ys[1], one), (Ys[2], zero),
            (Xs[0], one), (Xs[1], self.f_jet), (Xs[2], ident[1])]], axis=0)
        return worst if worst.ndim else float(worst)


def normalize_pair(pair):
    """Bring a Legendrian pair jet to the normal form
    ``Y = d/dy``, ``X = d/dx + y d/dz + f d/dy`` with ``f(0) = 0``.

    The chain: flow-box for Y; sign and swap rules making the d/dx component
    of X positive at 0; division of X by it; an affine shift in x killing the
    constant terms of the remaining components; the substitution
    ybar = (d/dz component of X), whose derivative along X becomes the new
    d/dy component; a final quadratic shear removing the constant of f.
    A twist (the y-derivative of that component at 0) of at most 1e-9 in
    magnitude is not contact and raises.
    All pushforwards are computed at jet level, and every applied change is
    recorded in ``steps``.  f comes one order below the pushforwards, so a
    pair of order 1, which would give f's value alone (zero by
    construction), raises.
    Over a stack, each choice is a row mask or a stack of matrices (the
    identity in rows that skip a step), and a step records the rows it
    changed with their data.
    """
    if pair.order < 2:
        raise EngelLabError("the normal form needs pair jets of order 2 or more")
    st = straighten(pair.Y_jet)
    total = st.change
    Y_scale = st.scale
    X = jet_pushforward(st.change, pair.X_jet)
    rows = np.shape(st.scale.value)
    steps = []

    def log(label, changed=True, **data):
        if rows:
            mask = np.broadcast_to(changed, rows)
            data = {"rows": np.flatnonzero(mask).tolist(),
                    **{k: np.asarray(v)[mask].tolist() for k, v in data.items()}}
        steps.append({"step": label, **data})

    def apply_linear(A, label, changed=True, **data):
        nonlocal X, total
        if not np.any(changed):
            return
        A = np.where(np.asarray(changed)[..., None, None], A, np.eye(3))
        order = min(j.order for j in total)
        X = _linear_pushforward(A, X)
        total = jet_compose(jet_linear(A, order), total)
        log(label, changed, **data)

    log("straighten", scale0=st.scale.value)
    x0, z0 = abs(X[0].value), abs(X[2].value)
    if np.any(np.maximum(x0, z0) < 1e-12):
        raise GeometryError("pair not transverse at the origin")
    # pivot on the larger transverse component; dividing by a small d/dx
    # value amplifies every later coefficient
    apply_linear(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]),
                 "swap-x-z", x0 < z0)
    apply_linear(np.diag([-1.0, 1.0, 1.0]), "flip-x", X[0].value < 0.0)

    r = X[0].reciprocal()
    X_scale = jet_compose(r, total)
    X = [r * c for c in X]
    log("divide-X", pivot=1.0 / r.value)

    c1, c2 = -X[1].value, -X[2].value
    shift = np.broadcast_to(np.eye(3), rows + (3, 3)).copy()
    shift[..., 1, 0], shift[..., 2, 0] = c1, c2
    apply_linear(shift, "affine-shift", c1=c1, c2=c2)

    twist = value(X[2].derivative(1))
    if np.any(abs(twist) <= 1e-9):
        raise GeometryError("plane field is not contact (zero twist of the d/dz component)")
    apply_linear(np.diag([1.0, 1.0, -1.0]), "flip-z", twist < 0.0)
    f3 = X[2]

    order = min(j.order for j in X)
    ident = jet_identity(3, order)
    sub = [ident[0], f3.truncated(order), ident[2]]
    through_sub_inv = jet_composer(jet_invert(sub))
    X = jet_pushforward(sub, X, through_sub_inv)
    total = jet_compose(sub, total)
    h = through_sub_inv(f3.derivative(1))  # new Y = h d/dy
    Y_scale = Y_scale * jet_compose(h, total).reciprocal()
    log("substitute-ybar", twist=twist)

    a = -0.5 * X[1].value
    if np.any(a != 0.0):
        order = min(j.order for j in X)
        ident = jet_identity(3, min(order + 1, MAX_ORDER))
        Q = [ident[0], ident[1] + 2.0 * a * ident[0], ident[2] + a * ident[0] * ident[0]]
        X = jet_pushforward(Q, X)
        total = jet_compose(Q, total)
        log("quadratic-shear", a != 0.0, a=a)

    f = X[1]
    f[(0, 0, 0)] = 0.0  # constant is zero by construction; drop roundoff
    return NormalFormResult(change=total, Y_scale=Y_scale, X_scale=X_scale,
                            f_jet=f, steps=steps)


@dataclass
class ODE2:
    """A second-order scalar equation y'' = f(x, y, p), p = y'."""

    f_jet: Jet

    def f(self, x, y, p):
        return jet_polyval(self.f_jet, (x, y, p))

    def rhs(self, x, state):
        y, p = state
        return np.array([p, self.f(x, y, p)])


def extract_ode(result):
    """The equation hiding in a normal form: relabel the (x, z, y)
    coordinates of the pair as (x, y, p)."""
    return ODE2(f_jet=result.f_jet.swap_vars(1, 2))


def pair_from_ode(f):
    """The Legendrian pair of an equation y'' = f(x, y, p) on
    :data:`ODE_CHART`: V0 = d/dp (the straightened line),
    V1 = d/dx + p d/dy + f d/dp.

    ``f`` is a scalar field on the chart or a jet (polynomial model).  The
    span is contact wherever f is defined, with annihilator dy - p dx.
    """
    V0 = VectorField(ODE_CHART, components=lambda xs: [0.0, 0.0, 1.0], name="ode.V0")
    if isinstance(f, Jet):
        return V0, VectorField(ODE_CHART, name="ode.V1",
                               components=lambda xs: [1.0, xs[2], jet_polyval(f, xs)])

    def tfn(coords, order):
        return [1.0, Jet.variable(2, 3, order, base=coords[2]), f.taylor(coords, order)[0]]

    return V0, VectorField(ODE_CHART, taylor_fn=tfn, name="ode.V1")


def prolong_point_map(phi_jets):
    """Jet of the contact lift of a planar map (x, y) -> (X, Y): the slope
    coordinate goes to (Y_x + p Y_y) / (X_x + p X_y).

    Input: two jets in variables (x, y).  Output: three jets in (x, y, p).
    The lift preserves ker(dy - p dx) up to a scalar multiple wherever the
    denominator stays away from zero.
    """
    Xj, Yj = phi_jets
    order = min(Xj.order, Yj.order)
    Xe = Xj.embed(3, [0, 1]).truncated(order)
    Ye = Yj.embed(3, [0, 1]).truncated(order)
    p = Jet.variable(2, 3, order - 1)  # at the derivatives' order
    num = Ye.derivative(0) + p * Ye.derivative(1)
    den = Xe.derivative(0) + p * Xe.derivative(1)
    if abs(value(den)) < 1e-12:
        raise GeometryError("lifted slope blows up at the origin (vertical image direction)")
    return [Xe, Ye, num * reciprocal(den)]

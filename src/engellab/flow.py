"""Flows of vector fields: an adaptive embedded Runge-Kutta pair, variational
transport, and event detection on section constraints.

Trajectories in this library are short and smooth (theta spans at most a full
circle), so one explicit pair is enough; stiff problems are out of scope.
``integrate`` runs the Dormand-Prince pair RK5(4) (DOPRI5; Dormand & Prince,
J. Comput. Appl. Math. 6, 1980; Hairer, Norsett & Wanner, *Solving ODEs I*,
II.5): it advances with the fifth-order solution and controls the error of
the embedded fourth-order one.  The last stage of a step is the slope at its
end point and the first stage of the next step (FSAL), so an attempted step
costs six right-hand-side evaluations.  ``flow_to_section`` locates a
crossing on the step that makes it.  Non-autonomous systems that need a
fixed grid (Gray's method measures fourth-order refinement) use
``integrate_nonautonomous``, classical RK4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import _coords_of, over_points
from .errors import IntegrationError
from .jets import gradient, value

DEFAULT_TOL = 1e-9


@dataclass
class FlowResult:
    endpoint: np.ndarray  # (dim,) at a point, (N, dim) for a stack of lanes
    time: float
    step_count: int
    est_error: float
    transport: np.ndarray = None  # optional transported-vector columns


# DOPRI5 tableau: nodes, stage rows, fifth-order weights (also the row of
# the seventh stage, which is therefore the end-point slope), and the weights
# of the fifth- minus fourth-order solution over all seven stages
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _lincomb(y, h, weights, ks):
    """``y + h * sum(w * k)`` over the nonzero weights."""
    acc = None
    for w, k in zip(weights, ks):
        if w != 0.0:
            acc = w * k if acc is None else acc + w * k
    return y + h * acc


def _dopri_step(f, t, y, h, k1):
    """One DOPRI5 step of size ``h`` from ``(t, y)`` with ``k1 = f(t, y)``:
    returns the stages k1..k6 and the fifth-order solution (five new
    right-hand-side evaluations)."""
    ks = [k1]
    for c, row in zip(_C, _A):
        ks.append(f(t + c * h, _lincomb(y, h, row, ks)))
    return ks, _lincomb(y, h, _B, ks)


def integrate(f, y0, t0, t1, tol=DEFAULT_TOL, max_steps=200000, observer=None, h0=None,
              lanes=None):
    """Adaptive DOPRI5 for ``dy/dt = f(t, y)`` from t0 to t1.

    Local error per step is held below ``tol`` (scaled by state magnitude);
    the first step tried is ``h0`` (default: a sixteenth of the span).
    Returns ``(y, est_error, steps)`` with ``steps`` the accepted steps.
    ``observer(t_prev, y_prev, t, y, h, k_prev, k)`` is called after each
    accepted step with the slopes ``f`` at both ends; when it returns true,
    integration stops there and ``y`` is the state at ``t``; when it returns
    ``(y, k)``, the run restarts in place from state ``y`` with slope ``k``,
    as a run from ``t`` with ``h0 = h`` would.  Every attempted step, rejected
    ones included, counts toward ``max_steps``.  A non-finite error estimate
    (a NaN or overflowing right-hand side) raises :class:`IntegrationError`.

    The rows of an ``(N, dim)`` ``y0`` are lanes, each with the steps,
    budget, observer calls, restarts and state of its own run; ``f`` gets the
    unfinished lanes, with their times, once per stage.  The result holds
    every lane's state and error estimate and all their steps.  Errors are
    those of a loop over the lanes (:func:`~engellab.calculus.over_points`).
    With a list ``lanes``, lanes can have right-hand sides of their own: the
    run keeps ``lanes`` equal to the indices of the rows that ``f`` gets,
    passes the observer the lane's index first, and raises a lane's error.
    """
    y = np.asarray(y0, dtype=float)
    if lanes is not None:
        ys, est, steps = zip(*_dopri(f, y, t0, t1, tol, max_steps, observer, h0, lanes))
        return np.array(ys), np.array(est), sum(steps)
    obs = observer and (lambda i, *step: observer(*step))
    if y.ndim == 1:
        return _dopri(lambda t, s: f(t, s[0])[None], y[None], t0, t1, tol, max_steps,
                      obs, h0, [])[0]

    def rhs(t, s):
        return f(np.ravel(t) if np.ndim(t) else np.full(len(s), t), s)

    ys, est, steps = zip(*over_points(
        y, lambda coords: _dopri(rhs, coords.T, t0, t1, tol, max_steps, obs, h0, []),
        lambda lane: integrate(f, lane, t0, t1, tol, max_steps, observer, h0)))
    return np.array(ys), np.array(est), sum(steps)


def _dopri(f, y, t0, t1, tol, max_steps, observer, h0, lanes):
    """The DOPRI5 loop over the lanes ``y`` (rows), with the controller per
    lane on scalars, giving ``(state, error, steps)`` per lane; ``f`` gets the
    stage times as a column, or as a number while one lane is left, ``lanes``
    the indices of its rows, and the observer a lane's index first."""
    n, span = len(y), t1 - t0
    sign = 1.0 if span > 0 else -1.0
    t, h = [t0] * n, [sign * min(abs(span), h0 or max(abs(span) / 16.0, 1e-6))] * n
    est, attempts, steps, out = [0.0] * n, [0] * n, [0] * n, list(y)
    lanes[:] = range(n) if span != 0.0 else []
    k1 = f(t0, y) if lanes else None
    while lanes:
        for i in lanes:
            if attempts[i] >= max_steps:
                raise IntegrationError("integrator exceeded step budget")
            attempts[i] += 1
            if sign * (t[i] + h[i] - t1) > 0.0:
                h[i] = t1 - t[i]
        tc, hc = (t[lanes[0]], h[lanes[0]]) if len(lanes) == 1 else (
            np.array([[t[i]] for i in lanes]), np.array([[h[i]] for i in lanes]))
        ks, y_new = _dopri_step(f, tc, y, hc, k1)
        ks.append(f(tc + hc, y_new))
        scale = 1.0 + np.abs(y).max(axis=1)
        err = np.abs(_lincomb(0.0, hc, _E, ks)).max(axis=1) / scale
        take, keep = [], []
        for j, i in enumerate(lanes):
            e, ti, hi = err[j], t[i], h[i]
            if not np.isfinite(e):
                raise IntegrationError(f"non-finite error estimate at t = {float(ti):.6g}")
            # step-size update (growth capped)
            h[i] = hi * (min(4.0, max(0.1, 0.9 * (tol / e) ** 0.2)) if e > 0.0 else 4.0)
            take.append(e <= tol or abs(hi) < 1e-13 * (1.0 + abs(ti)))
            if take[-1]:
                # a tiny closing step (h capped to the remaining span) is fine;
                # an underflowing step in mid-span means the controller stalled
                if abs(hi) < 1e-14 and sign * (ti + hi - t1) < 0.0:
                    raise IntegrationError("step underflow (stiffness?)")
                t[i], est[i], steps[i] = ti + hi, est[i] + e * scale[j], steps[i] + 1
                stop = observer is not None and observer(i, ti, y[j], t[i], y_new[j], hi, k1[j],
                                                         ks[6][j])
                if isinstance(stop, tuple):  # a restart in place, on copies of the ends
                    y_new, ks[6] = y_new.copy(), ks[6].copy()
                    y_new[j], ks[6][j] = stop
                    stop, h[i] = False, sign * min(abs(t1 - t[i]), abs(hi))
                if stop or sign * (t1 - t[i]) <= 0.0:
                    out[i] = y_new[j]
                    continue
            keep.append(j)
        if not all(take):
            take = np.array(take)[:, None]
            y_new, ks[6] = np.where(take, y_new, y), np.where(take, ks[6], k1)
        y, k1 = y_new, ks[6]
        if len(keep) < len(lanes):
            y, k1, lanes[:] = y[keep], k1[keep], [lanes[j] for j in keep]
    return list(zip(out, est, steps))


def _field_rhs(X):
    def f(t, y):
        return X(y.T).T
    return f


def flow(X, p, t, tol=DEFAULT_TOL):
    """Flow the point ``p`` for time ``t`` along ``X``; the rows of an
    ``(N, dim)`` ``p`` flow as lanes (see :func:`integrate`)."""
    # lanes are rows, which the field checks as its (dim, N) batches
    y0 = np.asarray(p, dtype=float) if np.ndim(p) == 2 else _coords_of(p, X.chart)
    y, err, steps = integrate(_field_rhs(X), y0, 0.0, t, tol=tol)
    return FlowResult(y, t, steps, err)


def _augmented_rhs(X, n, k):
    """RHS for state + k transported vectors (variational equation)."""

    def f(t, y):
        jets = X.taylor(y[:n], 1)  # values and Jacobian from one evaluation
        v = np.array([value(j) for j in jets])
        DX = np.array([gradient(j, n) for j in jets])
        return np.concatenate([v, (DX @ y[n:].reshape(n, k)).ravel()])

    return f


def _hermite(y0, y1, d0, d1, theta):
    """Cubic Hermite interpolant of a step at fraction ``theta`` from its end
    states and its end slopes times the step size (``d = h k``)."""
    return (1.0 - theta) * y0 + theta * y1 + theta * (theta - 1.0) * (
        (1.0 - 2.0 * theta) * (y1 - y0) + (theta - 1.0) * d0 + theta * d1)


def _illinois(trial, lo, s_lo, hi, s_hi, x, tol, max_iter):
    """Root of a scalar function bracketed by ``(lo, s_lo)`` and
    ``(hi, s_hi)`` (values of opposite signs) by regula falsi with the
    Illinois halving of a retained end.  ``trial(x)`` returns the value at
    ``x`` and a payload; ``x`` is the first trial point (None: the secant
    point).  Returns ``(x, payload)`` of the first trial with value below
    ``tol`` in magnitude, or of the smallest one after ``max_iter`` trials."""
    best = None
    side = 0
    for _ in range(max_iter):
        if x is None:
            x = (lo * s_hi - hi * s_lo) / (s_hi - s_lo)
        s, payload = trial(x)
        if best is None or abs(s) < best[0]:
            best = (abs(s), x, payload)
        if abs(s) < tol or not min(lo, hi) < x < max(lo, hi):
            break
        if (s < 0.0) == (s_lo < 0.0):
            lo, s_lo = x, s
            if side < 0:
                s_hi *= 0.5
            side = -1
        else:
            hi, s_hi = x, s
            if side > 0:
                s_lo *= 0.5
            side = 1
        x = None
    return best[1], best[2]


# the rounding of a section that is a difference of unit-scale values, a few
# ulps of 1 (the sphere's first-return section differences unit vectors)
_SECTION_ROUNDING = 2.0 ** -50  # 4 eps


def _locate_crossing(rhs, section, t0, y0, y1, h, k0, k1, s0, s1, tol, n=None):
    """``(tau, y)`` at the zero of ``section`` (of the first ``n`` entries;
    ``s0``, ``s1`` of opposite signs) on the step ``(t0, y0, k0)`` -> ``(t0 +
    h, y1, k1)``: the root on the step's cubic Hermite interpolant is the
    first trial, then Illinois on fresh steps until ``|section| < tol``.

    The interpolant's root is sought to ``1e-2 * tol``, but not below
    :data:`_SECTION_ROUNDING`: a value below the rounding of the section is
    noise, and the interpolant is far less accurate than that anyway."""
    x0, x1, d0, d1 = y0[:n], y1[:n], h * k0[:n], h * k1[:n]

    def on_interpolant(theta):
        return section(_hermite(x0, x1, d0, d1, theta)), None

    def fresh_step(tau):
        y = _dopri_step(rhs, t0, y0, tau, k0)[1]
        return section(y[:n]), y

    theta, _ = _illinois(on_interpolant, 0.0, s0, 1.0, s1, None,
                         max(1e-2 * tol, _SECTION_ROUNDING), 60)
    return _illinois(fresh_step, 0.0, s0, h, s1, theta * h, tol, 60)


def flow_to_section(X, p, section, tol=DEFAULT_TOL, max_time=50.0, min_time=1e-6,
                    vectors=None):
    """Integrate ``X`` from ``p`` until the scalar constraint ``section(x)``
    first crosses zero (after ``min_time``) and stop there.

    The crossing is located on the step that makes it
    (:func:`_locate_crossing`, to ``|section| < 1e-10``), so the
    returned state and transport are integrator states.

    Returns a :class:`FlowResult` whose ``time`` is the crossing time.  If
    ``vectors`` (``(dim, k)`` columns) are given, they are transported to the
    crossing as well.
    """
    chart = X.chart
    n = chart.dim
    if vectors is not None:
        V = np.asarray(vectors, dtype=float)
        k = V.shape[1]
        y0 = np.concatenate([_coords_of(p, chart), V.ravel()])
        rhs = _augmented_rhs(X, n, k)
    else:
        k = 0
        y0 = np.asarray(_coords_of(p, chart), dtype=float)
        rhs = _field_rhs(X)

    crossing = {}

    def obs(t0, y_prev, t1, y_new, h, k0, k1):
        if t1 < min_time:
            return False
        s0 = section(y_prev[:n])
        s1 = section(y_new[:n])
        if s0 == 0.0 and t0 >= min_time:
            crossing.update(t=t0, y=y_prev)
        elif s1 == 0.0:
            crossing.update(t=t1, y=y_new)
        elif s0 * s1 < 0.0:
            tau, y = _locate_crossing(rhs, section, t0, y_prev, y_new, h, k0, k1, s0, s1,
                                      1e-10, n)
            crossing.update(t=t0 + tau, y=y)
        return bool(crossing)

    _, err, steps = integrate(rhs, y0, 0.0, max_time, tol=tol, observer=obs)
    if not crossing:
        raise IntegrationError("no section crossing within the time budget")
    yc = crossing["y"]
    res = FlowResult(yc[:n], crossing["t"], steps, err)
    if k:
        res.transport = yc[n:].reshape(n, k)
    return res


def integrate_nonautonomous(f, y0, t_grid):
    """Fixed-grid RK4 for ``dy/dt = f(t, y)`` over the node times ``t_grid``.

    One RK4 step per grid interval; refinement of the grid therefore
    directly controls the error.  Returns the endpoint, and
    raises :class:`IntegrationError` at the first non-finite state.  The rows
    of an ``(N, dim)`` ``y0`` are lanes on the grid, and ``f`` gets them all
    (errors as in :func:`integrate`).
    """
    def run(y):
        start = y
        for t, b in zip(t_grid[:-1], t_grid[1:]):
            h = b - t
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y).all():
                raise IntegrationError(f"non-finite state at t = {float(t + h):.6g} "
                                       f"on the lane from {start.tolist()}")
        return y

    y = np.asarray(y0, dtype=float)
    return np.array(over_points(y, lambda coords: run(coords.T), run)) if y.ndim == 2 else run(y)

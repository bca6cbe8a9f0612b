"""Flows of vector fields: adaptive RK4 with step doubling, variational
transport, and event detection on section constraints.

Trajectories in this library are short and smooth (theta spans at most a full
circle), so a classical 4th-order one-step method with step-doubling error
control is enough; stiff problems are out of scope.  The same core integrates
non-autonomous systems, which the deformation module needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import Point, _coords_of
from .errors import IntegrationError

DEFAULT_TOL = 1e-9


@dataclass
class FlowResult:
    endpoint: Point
    time: float
    step_count: int
    est_error: float
    transport: np.ndarray = None  # optional transported-vector columns


def _rk4_step(f, t, y, h, k1=None):
    """One classical RK4 step; ``k1 = f(t, y)`` may be passed in when known."""
    if k1 is None:
        k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(f, y0, t0, t1, tol=DEFAULT_TOL, max_steps=200000, observer=None):
    """Adaptive RK4 (step doubling) for ``dy/dt = f(t, y)`` from t0 to t1.

    Local error per step is held below ``tol`` (scaled by state magnitude).
    Returns ``(y, est_error, steps)``.  ``observer(t_prev, y_prev, t, y, h)``
    is called after each accepted step.  A non-finite error estimate (a NaN
    or overflowing right-hand side) raises :class:`IntegrationError`.
    """
    y = np.asarray(y0, dtype=float)
    t = t0
    span = t1 - t0
    if span == 0.0:
        return y, 0.0, 0
    sign = 1.0 if span > 0 else -1.0
    h = sign * min(abs(span), max(abs(span) / 16.0, 1e-6))
    est_error = 0.0
    steps = 0
    while sign * (t1 - t) > 0.0:
        if steps >= max_steps:
            raise IntegrationError("integrator exceeded step budget")
        if sign * (t + h - t1) > 0.0:
            h = t1 - t
        # the full step and the first half step start from the same slope
        k1 = f(t, y)
        y_full = _rk4_step(f, t, y, h, k1)
        y_half = _rk4_step(f, t, y, 0.5 * h, k1)
        y_two = _rk4_step(f, t + 0.5 * h, y_half, 0.5 * h)
        scale = 1.0 + np.max(np.abs(y))
        err = np.max(np.abs(y_two - y_full)) / 15.0 / scale
        if not np.isfinite(err):
            raise IntegrationError(f"non-finite error estimate at t = {float(t):.6g}")
        if err <= tol or abs(h) < 1e-13 * (1.0 + abs(t)):
            # a tiny closing step (h capped to the remaining span) is fine;
            # an underflowing step in mid-span means the controller stalled
            if abs(h) < 1e-14 and sign * (t + h - t1) < 0.0:
                raise IntegrationError("step underflow (stiffness?)")
            t_prev, y_prev = t, y
            t = t + h
            # local extrapolation: the two half steps plus the Richardson term
            y = y_two + (y_two - y_full) / 15.0
            est_error += err * scale
            steps += 1
            if observer is not None:
                observer(t_prev, y_prev, t, y, h)
        # step-size update (growth capped)
        if err > 0.0:
            h *= min(4.0, max(0.1, 0.9 * (tol / err) ** 0.2))
        else:
            h *= 4.0
    return y, est_error, steps


def _field_rhs(X):
    def f(t, y):
        return X(y)
    return f


def _check_bounds(chart, y):
    if chart.bounds is not None and not chart.contains(y):
        raise IntegrationError(f"trajectory left the declared bounds of chart {chart.name!r}")


def flow(X, p, t, tol=DEFAULT_TOL, max_steps=200000):
    """Flow the point ``p`` for time ``t`` along ``X``."""
    chart = X.chart
    y0 = _coords_of(p, chart)

    def obs(t0, y0_, t1, y1, h):
        _check_bounds(chart, y1)

    y, err, steps = integrate(_field_rhs(X), y0, 0.0, t, tol=tol, max_steps=max_steps, observer=obs)
    return FlowResult(Point(chart, y), t, steps, err)


def _augmented_rhs(X, n, k):
    """RHS for state + k transported vectors (variational equation)."""

    def f(t, y):
        x = y[:n]
        J = y[n:].reshape(n, k)
        v = X(x)
        DX = X.jacobian(x)
        return np.concatenate([v, (DX @ J).ravel()])

    return f


def flow_transported(X, p, t, vectors, tol=DEFAULT_TOL, max_steps=200000):
    """Flow ``p`` along ``X`` while transporting ``vectors`` (columns) by the
    variational equation ``J' = DX(x) J``."""
    chart = X.chart
    n = chart.dim
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    if V.shape[0] != n:
        V = V.T
    k = V.shape[1]
    y0 = np.concatenate([_coords_of(p, chart), V.ravel()])
    y, err, steps = integrate(_augmented_rhs(X, n, k), y0, 0.0, t, tol=tol, max_steps=max_steps)
    endpoint = Point(chart, y[:n])
    return FlowResult(endpoint, t, steps, err, transport=y[n:].reshape(n, k))


def flow_to_section(X, p, section, tol=DEFAULT_TOL, section_tol=1e-10,
                    max_time=50.0, min_time=1e-6, vectors=None, max_steps=200000):
    """Integrate ``X`` from ``p`` until the scalar constraint ``section(x)``
    first crosses zero (after ``min_time``), locating the crossing by
    bisection on the final step to ``|section| < section_tol``.

    Returns a :class:`FlowResult` whose ``time`` is the crossing time.  If
    ``vectors`` is given, they are transported to the crossing as well.
    """
    chart = X.chart
    n = chart.dim
    if vectors is not None:
        V = np.atleast_2d(np.asarray(vectors, dtype=float))
        if V.shape[0] != n:
            V = V.T
        k = V.shape[1]
        y0 = np.concatenate([_coords_of(p, chart), V.ravel()])
        rhs = _augmented_rhs(X, n, k)
    else:
        k = 0
        y0 = np.asarray(_coords_of(p, chart), dtype=float)
        rhs = _field_rhs(X)

    crossing = {}

    def obs(t0, y_prev, t1, y_new, h):
        _check_bounds(chart, y_new[:n])
        if crossing:
            return
        s0 = section(y_prev[:n])
        s1 = section(y_new[:n])
        if t1 < min_time:
            return
        if s0 == 0.0 and t0 >= min_time:
            crossing.update(t=t0, y=y_prev)
            return
        if s0 * s1 < 0.0 or s1 == 0.0:
            # bisect the step fraction; each trial is one RK4 substep
            lo, hi = 0.0, h
            k1 = rhs(t0, y_prev)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                y_mid = _rk4_step(rhs, t0, y_prev, mid, k1)
                sm = section(y_mid[:n])
                if abs(sm) < section_tol:
                    crossing.update(t=t0 + mid, y=y_mid)
                    return
                if s0 * sm < 0.0:
                    hi = mid
                else:
                    lo = mid
            crossing.update(t=t0 + hi, y=_rk4_step(rhs, t0, y_prev, hi, k1))

    t_end = max_time
    y, err, steps = integrate(rhs, y0, 0.0, t_end, tol=tol, max_steps=max_steps, observer=obs)
    if not crossing:
        raise IntegrationError("no section crossing within the time budget")
    yc = crossing["y"]
    res = FlowResult(Point(chart, yc[:n]), crossing["t"], steps, err)
    if k:
        res.transport = yc[n:].reshape(n, k)
    return res


def integrate_nonautonomous(f, y0, t_grid, substeps=1):
    """Fixed-grid RK4 for ``dy/dt = f(t, y)`` over the node times ``t_grid``.

    One RK4 step per grid interval (times ``substeps``); refinement of the
    grid therefore directly controls the error.  Returns the endpoint.
    """
    y = np.asarray(y0, dtype=float)
    for a, b in zip(t_grid[:-1], t_grid[1:]):
        h = (b - a) / substeps
        t = a
        for _ in range(substeps):
            y = _rk4_step(f, t, y, h)
            t += h
    return y

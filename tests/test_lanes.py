"""Stacked lanes in the integrators: one run over an (N, dim) stack takes,
lane by lane, the steps of the run of each lane alone and reaches the same
state bit for bit, with one right-hand-side call per stage."""

import math

import numpy as np
import pytest

from engellab.calculus import Chart
from engellab.errors import EngelLabError, GeometryError, IntegrationError
from engellab.expressions import vector_field_from_exprs
from engellab.flow import flow, flow_to_section, integrate, integrate_nonautonomous


def stackable(one, calls=None):
    """A right-hand side for lanes from the one of a point: rows of a stack
    are evaluated one after another with the point's own float arithmetic,
    at their own times (adaptive lanes) or at the one time of the grid.
    ``calls`` collects the number of lanes of every call."""
    def f(t, y):
        if calls is not None:
            calls.append(len(y) if y.ndim == 2 else 0)
        if y.ndim == 1:
            return one(t, y)
        ts = t if np.ndim(t) else [t] * len(y)
        assert len(ts) == len(y)
        return np.array([one(ti, yi) for ti, yi in zip(ts, y)])
    return f


def chirp(t, y):
    # state (x, w): x' = cos(w t) + 0.1 x, w' = 0; a large w forces rejections
    return np.array([math.cos(y[1] * t) + 0.1 * y[0], 0.0])


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def lane_runs(f, y0, *args, **kwargs):
    return [integrate(f, lane, *args, **kwargs) for lane in y0]


def test_stacked_integrate_equals_lanes_bit_for_bit():
    # w = 400 rejects steps, the others do not; the lanes take different
    # numbers of steps and finish in different rounds
    y0 = np.array([[0.0, 1.0], [0.3, 400.0], [-0.2, 25.0], [1.0, 0.0]])
    for t0, t1 in ((0.0, 0.3), (0.3, -0.1)):
        calls, lone = [], [[] for _ in y0]
        ys, est, steps = integrate(stackable(chirp, calls), y0, t0, t1, tol=1e-9)
        runs = [integrate(stackable(chirp, c), lane, t0, t1, tol=1e-9)
                for lane, c in zip(y0, lone)]
        assert bits(ys) == bits([r[0] for r in runs])
        assert bits(est) == bits([r[1] for r in runs])
        assert steps == sum(r[2] for r in runs)
        assert len({r[2] for r in runs}) > 1
        # one call to start and six per attempt: the w = 400 lane alone
        # rejects steps, the w = 1 lane does not
        tried = [(len(c) - 1) // 6 for c in lone]
        assert tried[0] == runs[0][2] and tried[1] > runs[1][2]
        # one call per stage on the unfinished lanes: as many calls as the
        # longest lane alone, and as many lane evaluations as all lanes alone
        assert calls[0] == len(y0) and len(calls) == max(map(len, lone))
        assert sum(calls) == sum(map(len, lone))


def test_stacked_integrate_observer_sees_each_lane_and_stops_it():
    y0 = np.array([[0.0, 1.0], [0.3, 400.0], [-0.2, 25.0]])
    stop = {1.0: 0.05, 400.0: 0.2, 25.0: 10.0}  # the last lane runs to t1

    def observer(seen):
        def obs(t0, y_prev, t, y, h, k_prev, k):
            seen.setdefault(y[1], []).append((t0, bits(y_prev), t, bits(y), h,
                                              bits(k_prev), bits(k)))
            return t > stop[y[1]]
        return obs

    stacked, alone = {}, {}
    ys, _, steps = integrate(stackable(chirp), y0, 0.0, 0.5, tol=1e-9,
                             observer=observer(stacked))
    runs = [integrate(stackable(chirp), lane, 0.0, 0.5, tol=1e-9, observer=observer(alone))
            for lane in y0]
    assert stacked == alone
    assert bits(ys) == bits([r[0] for r in runs])
    assert steps == sum(len(v) for v in stacked.values())
    assert stacked[1.0][-1][2] < 0.5 and stacked[25.0][-1][2] == 0.5


def test_stacked_restarts_equal_segmented_runs_bit_for_bit():
    # each lane has a right-hand side of its own, x' = cos(w t) + 0.1 x with
    # its w read through ``lanes``, and restarts in place from x - 0.5 when
    # x passes 0.3; the stack takes, lane by lane, the steps of runs alone
    # that stop there and open the next run at that time with h0 the last
    # accepted step
    w = [1.0, 400.0, 25.0, 3.0]
    y0 = np.array([[0.0], [0.25], [0.28], [0.2]])

    def one(i, t, y):
        return np.array([math.cos(w[i] * t) + 0.1 * y[0]])

    lanes, stacked = [], {}

    def f(t, y):
        ts = np.ravel(t) if np.ndim(t) else [t] * len(y)
        return np.array([one(i, ti, yi) for i, ti, yi in zip(lanes, ts, y)])

    def observe(i, t0, y_prev, t, y, h, k_prev, k):
        stacked.setdefault(i, []).append((t0, bits(y_prev), t, bits(y), h, bits(k_prev), bits(k)))
        if y[0] > 0.3:
            return y - 0.5, one(i, t, y - 0.5)
        return False

    ys, _, _ = integrate(f, y0, 0.0, 2.0, tol=1e-9, observer=observe, lanes=lanes)
    assert lanes == []
    restarts = []
    for i, lane in enumerate(y0):
        seen, t, y, h0, runs = [], 0.0, lane, None, 0
        while True:
            stop = {}

            def obs(t0, y_prev, t, y, h, k_prev, k):
                seen.append((t0, bits(y_prev), t, bits(y), h, bits(k_prev), bits(k)))
                if y[0] > 0.3:
                    stop.update(t=t, y=y - 0.5, h=h)
                return bool(stop)

            end, _, _ = integrate(lambda t, y: one(i, t, y), y, t, 2.0, tol=1e-9, observer=obs,
                                  h0=h0)
            runs += 1
            if not stop:
                break
            t, y, h0 = stop["t"], stop["y"], stop["h"]
        assert stacked[i] == seen and bits(ys[i]) == bits(end), i
        restarts.append(runs - 1)
    assert min(restarts) > 0 and len(set(restarts)) > 1


def attempts(lane, *args, **kwargs):
    """Attempted steps of a lane alone: one right-hand-side call to start,
    six per attempt."""
    calls = []
    integrate(stackable(chirp, calls), lane, *args, **kwargs)
    return (len(calls) - 1) // 6


def test_stacked_integrate_budget_is_per_lane():
    # a budget that holds for each lane alone holds in the stack, although
    # the lanes together take more attempts; one short of the hard lane's
    # need fails that lane alone, and the stack
    y0 = np.array([[0.0, 1.0], [0.0, 400.0]])
    need = [attempts(lane, 0.0, 0.056, tol=1e-9) for lane in y0]
    assert need[1] > need[0] > 1
    f = stackable(chirp)
    ys, _, _ = integrate(f, y0, 0.0, 0.056, tol=1e-9, max_steps=need[1])
    assert bits(ys) == bits([r[0] for r in lane_runs(f, y0, 0.0, 0.056, tol=1e-9)])
    integrate(f, y0[0], 0.0, 0.056, tol=1e-9, max_steps=need[1] - 1)
    for y in (y0[1], y0):
        with pytest.raises(IntegrationError, match="integrator exceeded step budget"):
            integrate(f, y, 0.0, 0.056, tol=1e-9, max_steps=need[1] - 1)


def test_stacked_integrate_raises_the_error_of_the_lane_loop():
    # lane 2 fails early, lane 1 late: the loop over the lanes meets lane 1
    # first, and so must the stack, with lane 1's point
    def one(t, y):
        if y[0] > y[1]:
            raise GeometryError("past the wall", point=y.copy())
        return np.array([1.0, 0.0])

    y0 = np.array([[0.0, 5.0], [0.0, 0.8], [0.0, 0.1]])
    with pytest.raises(GeometryError) as alone:
        integrate(stackable(one), y0[1], 0.0, 1.0)
    with pytest.raises(GeometryError) as stacked:
        integrate(stackable(one), y0, 0.0, 1.0)
    assert bits(stacked.value.point) == bits(alone.value.point)
    assert alone.value.point[1] == 0.8


def step_log(seen):
    """An observer that records each accepted step's (t0, t, h) and ends."""
    def obs(t0, y_prev, t, y, h, k_prev, k):
        seen.append((t0, t, h, bits(y_prev), bits(y), bits(k_prev), bits(k)))
        return False
    return obs


def test_steps_land_bit_for_bit_on_each_end_time():
    # a sequence of end times: some step ends on each time, exactly, and no
    # step passes one; the run ends at the last
    times = [0.0123, 0.05, 0.1 / 3.0 + 0.1, 0.17, 0.3]
    for lane in ([0.0, 1.0], [0.3, 400.0], [-0.2, 25.0]):
        seen = []
        y, _, steps = integrate(stackable(chirp), lane, 0.0, times, tol=1e-9,
                                observer=step_log(seen))
        ends = [t for _, t, *_ in seen]
        assert set(times) <= set(ends) and ends[-1] == times[-1] and steps == len(seen)
        assert not any(t0 < m < t for t0, t, *_ in seen for m in times)
        assert y.tobytes() == seen[-1][4]


def test_the_step_after_a_cut_step_is_not_shrunk_by_the_cut():
    # on y' = 0 every error estimate is 0, so the controller quadruples each
    # step: from h0 = 1/64 the steps 1/64, 4/64 and 16/64 reach 21/64, the
    # next (1) is cut to end on 0.5, and the one after is that uncut step,
    # not four times the cut one (11/16)
    seen = []
    integrate(lambda t, y: 0.0 * y, [1.0], 0.0, [0.5, 2.0], h0=1.0 / 64.0,
              observer=step_log(seen))
    assert [h for _, _, h, *_ in seen] == [1 / 64, 4 / 64, 16 / 64, 11 / 64, 1.0, 0.5]
    assert [t for _, t, *_ in seen] == [1 / 64, 5 / 64, 21 / 64, 0.5, 1.5, 2.0]


def test_stacked_lanes_with_end_times_equal_lanes_alone_bit_for_bit():
    # the lanes cut their own steps at the times, reject and finish in their
    # own rounds, and take the steps of their runs alone
    y0 = np.array([[0.0, 1.0], [0.3, 400.0], [-0.2, 25.0], [1.0, 0.0]])
    times = np.linspace(0.0, 0.3, 8)[1:]
    stacked = {}

    def by_lane(t0, y_prev, t, y, h, k_prev, k):
        return step_log(stacked.setdefault(y[1], []))(t0, y_prev, t, y, h, k_prev, k)

    ys, est, steps = integrate(stackable(chirp), y0, 0.0, times, tol=1e-9, observer=by_lane)
    for lane, y, e in zip(y0, ys, est):
        seen = []
        alone = integrate(stackable(chirp), lane, 0.0, times, tol=1e-9, observer=step_log(seen))
        assert stacked[lane[1]] == seen
        assert bits(y) == bits(alone[0]) and bits(e) == bits(alone[1])
    assert steps == sum(map(len, stacked.values()))


@pytest.mark.parametrize("times", [[0.2, 0.1, 0.3], [0.1, 0.1, 0.3], [0.0, 0.3], [-0.1, 0.3],
                                   [0.1, math.inf], [0.1, math.nan, 0.3], []])
def test_end_times_that_are_not_increasing_finite_times_after_t0_raise(times):
    for y0 in ([0.0, 1.0], [[0.0, 1.0], [0.3, 2.0]]):
        with pytest.raises(EngelLabError, match="end times"):
            integrate(stackable(chirp), y0, 0.0, times)


def test_flow_of_a_stack_equals_flows_of_its_points():
    R = vector_field_from_exprs(Chart("plane", ("x", "y")), ["-y + 0.3*x*x", "x"])
    pts = np.array([[1.0, 0.0], [0.2, -0.4], [0.0, 0.05]])
    res = flow(R, pts, 2.0, tol=1e-10)
    alone = [flow(R, p, 2.0, tol=1e-10) for p in pts]
    # a single point's endpoint is a (dim,) float array, as a stack's rows are
    crossing = flow_to_section(R, pts[0], lambda y: float(y[1]), min_time=0.1)
    for r in alone + [crossing]:
        assert isinstance(r.endpoint, np.ndarray)
        assert r.endpoint.shape == (2,) and r.endpoint.dtype == np.float64
    assert bits(res.endpoint) == bits([r.endpoint for r in alone])
    assert bits(res.est_error) == bits([r.est_error for r in alone])
    assert res.step_count == sum(r.step_count for r in alone)


def test_stacked_rk4_equals_lanes_bit_for_bit():
    grid = np.linspace(0.0, 1.0, 11)
    y0 = np.array([[0.0, 1.0], [0.3, 40.0], [-0.2, 5.0]])
    calls = []
    ys = integrate_nonautonomous(stackable(chirp, calls), y0, grid)
    alone = [integrate_nonautonomous(stackable(chirp), lane, grid) for lane in y0]
    assert bits(ys) == bits(alone)
    assert calls == [3] * 4 * 10


def test_rk4_raises_at_a_nonfinite_state():
    grid = np.linspace(0.0, 1.0, 5)

    def one(t, y):
        # positive lanes go NaN after t = 0.4, lanes above 1 after t = 0.1
        return np.array([math.nan if y[0] > 0.0 and t > (0.1 if y[0] > 1.0 else 0.4) else 1.0])

    # the error names the time and the lane by its start; in a stack, the
    # lane that a loop over the lanes meets first, not the first to fail
    with pytest.raises(IntegrationError, match=r"non-finite state at t = 0.5 on the lane from \[0.1\]"):
        integrate_nonautonomous(stackable(one), [0.1], grid)
    with pytest.raises(IntegrationError, match=r"non-finite state at t = 0.5 on the lane from \[0.2\]"):
        integrate_nonautonomous(stackable(one), [[-5.0], [0.2], [3.0]], grid)

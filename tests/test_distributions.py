"""Derived flags, contact and Engel tests, characteristic line, Reeb fields."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engellab.calculus import Chart, OneForm, evaluation_scope
from engellab.deformation import ContactIsotopyGenerator, realize_isotopy
from engellab.distributions import (DistributionFrame, characteristic_line,
                                    flag_ranks, is_contact,
                                    is_engel, plane_principal_angle, reeb_field,
                                    annihilator_form)
from engellab.errors import ExpressionDomainError, GeometryError
from engellab.expressions import (one_form_from_exprs, scalar_field_from_expr,
                                  vector_field_from_exprs)
from engellab.jets import jet_bracket, value
from engellab.prolongation import ParallelizedContact, prolong
from engellab.zoll import so3_engel_frame

CH3 = Chart("c3", ("x", "y", "z"))
CH4 = Chart("c4", ("x", "y", "z", "w"))


def standard_engel_frame():
    W = vector_field_from_exprs(CH4, ["0", "0", "0", "1"])
    X = vector_field_from_exprs(CH4, ["1", "w", "y", "0"])
    return DistributionFrame([W, X])


def test_flag_ranks_on_engel_frame():
    frame = standard_engel_frame()
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.uniform(-1, 1, 4)
        rep = flag_ranks(frame, p)
        assert rep.ranks == (2, 3, 4)
        assert rep.is_engel
    assert is_engel(frame, [0, 0, 0, 0])


def test_flag_ranks_integrable_frame():
    frame = DistributionFrame([
        vector_field_from_exprs(CH4, ["1", "0", "0", "0"]),
        vector_field_from_exprs(CH4, ["0", "1", "0", "0"]),
    ])
    rep = flag_ranks(frame, [0.1, 0.2, 0.3, 0.4])
    assert rep.ranks == (2, 2, 2)
    assert not rep.is_engel


def test_flag_ranks_contact_prolongation_rank3():
    # D^2 of rank 3 but D^3 short of 4 cannot happen for a bracket-generating
    # rank-2 frame in 4d; instead check a frame whose flag stops at 3
    frame = DistributionFrame([
        vector_field_from_exprs(CH4, ["0", "1", "0", "0"]),
        vector_field_from_exprs(CH4, ["1", "0", "y", "0"]),
    ])
    rep = flag_ranks(frame, [0.1, -0.3, 0.2, 0.5])
    assert rep.ranks == (2, 3, 3)


def test_degenerate_frame_raises():
    frame = DistributionFrame([
        vector_field_from_exprs(CH4, ["x", "0", "0", "0"]),
        vector_field_from_exprs(CH4, ["0", "1", "0", "0"]),
    ])
    with pytest.raises(GeometryError):
        flag_ranks(frame, [0.0, 0.0, 0.0, 0.0])


def test_characteristic_line_of_standard_frame():
    # the line is d/dw in either frame order, and its largest component is
    # made positive, whichever sign the kernel formula gives
    frame = standard_engel_frame()
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.uniform(-1, 1, 4)
        for fr in (frame, DistributionFrame(frame.fields[::-1])):
            ld = characteristic_line(fr, p)
            assert ld.angle_to([0, 0, 0, 1]) < 1e-10
            assert ld.direction[3] > 0.0


def test_is_contact_frame_and_form():
    v0 = vector_field_from_exprs(CH3, ["0", "1", "0"])
    v1 = vector_field_from_exprs(CH3, ["1", "0", "y"])
    p = [0.3, 0.1, -0.2]
    assert is_contact(DistributionFrame([v0, v1]), p)
    alpha = one_form_from_exprs(CH3, ["-y", "0", "1"])  # annihilates both
    assert is_contact(alpha, p)
    flat = one_form_from_exprs(CH3, ["0", "0", "1"])  # dz alone: integrable
    assert not is_contact(flat, p)
    integ = DistributionFrame([
        vector_field_from_exprs(CH3, ["1", "0", "0"]),
        vector_field_from_exprs(CH3, ["0", "1", "0"]),
    ])
    assert not is_contact(integ, p)


def test_contact_form_test_runs_the_rule_once_per_point():
    calls = []

    def rule(xs):
        calls.append(1)
        return [-xs[1], 0.0, 1.0 + 0.0 * xs[0]]

    alpha = OneForm(CH3, components=rule)
    for p in ([0.3, 0.1, -0.2], [-0.5, 0.4, 0.9]):
        calls.clear()
        assert is_contact(alpha, p)
        assert len(calls) == 1


def test_reeb_of_standard_form():
    alpha = one_form_from_exprs(CH3, ["-y", "0", "1"])
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = rng.uniform(-1, 1, 3)
        assert np.allclose(reeb_field(alpha)(p), [0, 0, 1], atol=1e-12)
    Z = reeb_field(alpha)
    p = [0.4, -0.2, 0.6]
    a = alpha(p)
    assert abs(a @ Z(p) - 1.0) < 1e-12
    # d alpha(Z, .) = 0
    M = np.array(alpha.d_matrix(p))  # order 0 is values
    assert np.max(np.abs(M @ Z(p))) < 1e-12


def test_reeb_scaled_form():
    # Reeb direction tracks the form scaling: alpha -> e^x alpha
    alpha = one_form_from_exprs(CH3, ["-y*exp(x)", "0", "exp(x)"])
    p = [0.3, 0.5, -0.1]
    Z = reeb_field(alpha)(p)
    a = alpha(p)
    assert abs(a @ Z - 1.0) < 1e-12
    M = np.array(alpha.d_matrix(p))  # order 0 is values
    assert np.max(np.abs(M @ Z)) < 1e-12


def test_annihilator_form():
    v0 = vector_field_from_exprs(CH3, ["0", "1", "0"])
    v1 = vector_field_from_exprs(CH3, ["1", "0", "y"])
    a = annihilator_form(v0, v1)
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = rng.uniform(-1, 1, 3)
        av = a(p)
        assert abs(av @ v0(p)) < 1e-13
        assert abs(av @ v1(p)) < 1e-13
        assert np.linalg.norm(av) > 0.5


def test_non_contact_reeb_raises():
    flat = one_form_from_exprs(CH3, ["0", "0", "1"])
    with pytest.raises(GeometryError):
        reeb_field(flat)([0, 0, 0])


def test_plane_principal_angle_accuracy():
    # small rotations must be resolved well below sqrt(machine eps)
    rng = np.random.default_rng(4)
    b = rng.normal(size=(4, 2))
    assert plane_principal_angle([b[:, 0], b[:, 1]], [b[:, 0], b[:, 1]]) < 1e-13
    for angle in (1e-9, 1e-6, 0.3):
        c, s = math.cos(angle), math.sin(angle)
        u = np.array([1.0, 0, 0, 0])
        v = np.array([0, 1.0, 0, 0])
        w = c * v + s * np.array([0, 0, 1.0, 0])
        got = plane_principal_angle([u, v], [u, w])
        assert abs(got - angle) < 1e-12 + 1e-10 * angle


# -- batches: one evaluation of N points equals N evaluations of one ------------


def _contact(v0, v1):
    return ParallelizedContact(CH3, vector_field_from_exprs(CH3, v0),
                               vector_field_from_exprs(CH3, v1))


SUPPORT = (0.25, 1.3)
# Engel frames whose components divide or take powers, which jets round
# otherwise than floats do, and NumPy's powers otherwise than Python's
ROUNDING_FRAMES = {
    "division": (["0", "0", "0", "1"], ["1", "x + w/3", "y/(1+z*z)", "0"]),
    "power": (["0", "0", "0", "1"], ["1", "w + w^3", "y + 0.1*y^2 + 0.1*(z+2)^-2", "0"])}


@functools.cache
def batch_frame(name):
    """The frames the CLI suites and the acceptance gate sample."""
    if name == "normal-form":
        return standard_engel_frame()
    if name == "so3":
        return so3_engel_frame().frame()
    standard = _contact(["0", "1", "0"], ["1", "0", "y"])
    if name == "prolonged":
        return prolong(standard).frame()
    if name == "perturbed":
        return prolong(_contact(["0.1*z", "1 + 0.1*x", "0.05*x*y"],
                                ["1", "0.1*sin(z)", "y + 0.1*x"])).frame()
    if name in ROUNDING_FRAMES:
        return DistributionFrame([vector_field_from_exprs(CH4, c) for c in ROUNDING_FRAMES[name]])
    dom = prolong(standard)
    h = scalar_field_from_expr(dom.chart, "0.05*sin(x) + 0.04*z*cos(y) + 0.03*y")
    return realize_isotopy(dom, ContactIsotopyGenerator(dom, h, SUPPORT),
                           validate=False).frame()


def batch_points(name, raw):
    """Map unit-cube draws into the frame's sampling domain (the SO(3) base
    inside the ball of radius 0.7).  Deformed-frame batches also hold points
    outside the bump support and within 1e-2 of both its edges, where the
    window is cut off at one point and masked in a batch."""
    pts = np.array(raw, dtype=float)
    if name == "so3":
        pts[:, :3] *= 0.7 / np.sqrt(3.0)
    pts[:, 3] *= 0.5 * math.pi
    if name == "deformed":
        lo, hi = SUPPORT
        edges = [0.1, lo - 0.004, lo + 0.006, lo + 0.012, hi - 0.009, hi + 0.003]
        pts = np.vstack([pts, [[0.3 - 0.1 * k, 0.2, -0.4 + 0.1 * k, th]
                               for k, th in enumerate(edges)]])
    return pts


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def bracket_values(frame, coords):
    """The values of [X, Y], [X, [X, Y]], [Y, [X, Y]], [[X, Y], X] and
    [[X, Y], Y] from the frame's order-2 jets at a point or batch (the
    brackets of brackets are order 0, values)."""
    with evaluation_scope():
        X, Y = (f.taylor(coords, 2) for f in frame.fields)
    B = jet_bracket(X, Y)
    return [[value(j) for j in jets] for jets in
            (B, jet_bracket(X, B), jet_bracket(Y, B), jet_bracket(B, X), jet_bracket(B, Y))]


unit = st.floats(-1.0, 1.0)
point_sets = st.lists(st.tuples(unit, unit, unit, st.floats(0.0, 1.0)), min_size=1, max_size=6)


@pytest.mark.parametrize("name", ["normal-form", "prolonged", "perturbed", "so3", "deformed",
                                  *ROUNDING_FRAMES])
@settings(max_examples=12, deadline=None)
@given(raw=point_sets)
def test_batch_equals_points_bit_for_bit(name, raw):
    frame = batch_frame(name)
    pts = batch_points(name, raw)
    batch = flag_ranks(frame, pts)
    lines = characteristic_line(frame, pts)
    values = bracket_values(frame, pts.T)
    assert len(batch) == len(lines) == len(pts)
    for k, p in enumerate(pts):
        one = flag_ranks(frame, p)
        assert batch[k].ranks == one.ranks == (2, 3, 4)
        for got, want in zip(batch[k].singular_values, one.singular_values):
            assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(lines[k].direction),
                              bits(characteristic_line(frame, p).direction))
        for v, w in zip(values, bracket_values(frame, p)):
            got = [np.broadcast_to(c, len(pts))[k] for c in v]
            assert np.array_equal(bits(got), bits(w))


def test_empty_batch():
    frame = standard_engel_frame()
    assert flag_ranks(frame, np.zeros((0, 4))) == []
    assert characteristic_line(frame, np.zeros((0, 4))) == []


def test_batch_raises_at_first_domain_error_point():
    # log(x + 0.5) is undefined at samples 3 and 5; the batch raises
    # what a loop over the samples raises: the error at sample 3
    frame = DistributionFrame([vector_field_from_exprs(CH4, ["0", "0", "0", "1"]),
                               vector_field_from_exprs(CH4, ["1", "w", "y + log(x + 0.5)", "0"])])
    pts = np.random.default_rng(5).uniform(0.0, 1.0, (8, 4))
    pts[3, 0], pts[5, 0] = -0.7, -0.9
    for fn in (flag_ranks, characteristic_line):
        with pytest.raises(ExpressionDomainError) as batch:
            fn(frame, pts)
        with pytest.raises(ExpressionDomainError) as alone:
            fn(frame, pts[3])
        assert str(batch.value) == str(alone.value)
        assert np.array_equal(batch.value.point, pts[3])


def test_batch_raises_at_first_degenerate_point():
    frame = DistributionFrame([vector_field_from_exprs(CH4, ["x", "0", "0", "0"]),
                               vector_field_from_exprs(CH4, ["0", "1", "0", "0"])])
    pts = np.random.default_rng(6).uniform(0.5, 1.0, (6, 4))
    pts[2, 0] = pts[4, 0] = 0.0
    with pytest.raises(GeometryError) as batch:
        flag_ranks(frame, pts)
    with pytest.raises(GeometryError) as alone:
        flag_ranks(frame, pts[2])
    assert str(batch.value) == str(alone.value)
    assert batch.value.point is not None
    assert np.array_equal(batch.value.point, pts[2])

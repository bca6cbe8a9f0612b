"""Prolongation to Engel domains, contactification of slices, development
maps, and contact-plane transport along the characteristic foliation."""

import math

import numpy as np
import pytest

from engellab import calculus, prolongation
from engellab.calculus import Chart
from engellab.distributions import (flag_ranks, characteristic_line, is_contact, line_angle,
                                    plane_principal_angle)
from engellab.errors import EngelLabError, GeometryError
from engellab.expressions import one_form_from_exprs, vector_field_from_exprs
from engellab.jets import Jet
from engellab.prolongation import (EngelDomain, ParallelizedContact, Slice,
                                   check_slice_transverse, contactify,
                                   development, development_angle,
                                   development_coefficients,
                                   leaf_projective_coordinate, prolong,
                                   slice_transport)

CH3 = Chart("base", ("x", "y", "z"))


def standard_contact():
    v0 = vector_field_from_exprs(CH3, ["0", "1", "0"])
    v1 = vector_field_from_exprs(CH3, ["1", "0", "y"])
    return ParallelizedContact(CH3, v0, v1)


def perturbed_contact():
    v0 = vector_field_from_exprs(CH3, ["0.1*z", "1 + 0.1*x", "0.05*x*y"])
    v1 = vector_field_from_exprs(CH3, ["1", "0.1*sin(z)", "y + 0.1*x"])
    return ParallelizedContact(CH3, v0, v1)


# Legendrian frames whose components divide and take powers (contact on the
# unit cube), which jets and NumPy's powers round otherwise than floats do
DIVISION_CONTACT = ParallelizedContact(CH3, vector_field_from_exprs(CH3, ["x/3", "1", "0"]),
                                       vector_field_from_exprs(CH3, ["1", "0", "y/(1+z*z)"]))
POWER_CONTACT = ParallelizedContact(
    CH3, vector_field_from_exprs(CH3, ["0", "1", "0.1*x^3"]),
    vector_field_from_exprs(CH3, ["1", "0", "y + 0.1*y^2 + 0.1*(z+2)^-2"]))


def test_prolonged_frame_is_engel():
    rng = np.random.default_rng(0)
    for base in (standard_contact(), perturbed_contact()):
        dom = prolong(base, check_points=[rng.uniform(-1, 1, 3) for _ in range(5)])
        frame = dom.frame()
        for _ in range(40):
            p = np.append(rng.uniform(-1, 1, 3), rng.uniform(0.0, 0.5 * math.pi))
            rep = flag_ranks(frame, p)
            assert rep.is_engel, (base, p, rep.ranks)


def test_characteristic_line_is_vertical():
    dom = prolong(perturbed_contact())
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = np.append(rng.uniform(-1, 1, 3), rng.uniform(0.0, 1.5))
        line = characteristic_line(dom.frame(), p)
        assert line_angle(line, [0, 0, 0, 1]) < 1e-8


def test_contactify_recovers_contact_planes():
    dom = prolong(perturbed_contact())
    rng = np.random.default_rng(2)
    for theta in (0.0, 0.7, 1.3):
        slc = dom.theta_slice(theta)
        cont = contactify(dom.frame(), slc)
        for _ in range(10):
            m = rng.uniform(-0.8, 0.8, 3)
            assert is_contact(cont.frame(), m)
            # the induced plane equals D(m, theta) pushed into the slice
            got = [cont.v0(m), cont.v1(m)]
            q = slc.embed_coords(m)
            want = [slc.project_vector(dom.vertical(q) * 0.0 + v)
                    for v in (np.array([0, 0, 0, 1.0]),)]
            V = dom.V(q)
            # slice tangent of D^2 is { V, [W, V] } projected; compare planes
            # via the lifted Legendrian frame of the base rotated by theta
            b = dom.base
            v0, v1 = b.v0(m), b.v1(m)
            c, s = math.cos(theta), math.sin(theta)
            plane = [c * v0 + s * v1, -s * v0 + c * v1]
            ang = plane_principal_angle(got, plane)
            assert ang < 1e-8, (theta, m, ang)


def test_plane_basis_evaluates_shared_jets_once(monkeypatch):
    # one contactify sample: both induced fields read [X, Y] first, which
    # evaluates X = d/dtheta and Y = V (and through V, V0 and V1) at order 1,
    # so X and Y at order 0 are slices of those; in one scope that is 7
    # field evaluations, where the two fields alone make 12 (each field's own
    # evaluation at a lone point is at order 0: values, not jets)
    dom = prolong(standard_contact())
    induced = contactify(dom.frame(), dom.theta_slice(0.7))
    m = np.array([0.3, -0.2, 0.5])
    calls = []
    evaluate = calculus._FieldBase._evaluate

    def counted(field, coords, order):
        calls.append((field.name, order))
        return evaluate(field, coords, order)

    monkeypatch.setattr(calculus._FieldBase, "_evaluate", counted)
    basis = induced.plane_basis(m)
    assert len(calls) == 7
    calls.clear()
    assert np.array_equal(basis, np.column_stack([induced.v0(m), induced.v1(m)]))
    assert len(calls) == 12


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def coeffs(j):
    """A jet's coefficients; order 0 is values, one coefficient each."""
    return j.c if isinstance(j, Jet) else np.asarray(j)[..., None]


def test_contactify_batch_equals_points_bit_for_bit():
    # the induced frame over a batch of slice points is, row by row, its
    # jets at each point: on theta slices, and on the slice x = 0.2, where
    # the normal components are those of (0, sin theta, cos theta) for
    # (X, V, [X, V]), so points with theta above pi/4 pivot on V and the
    # others on [X, V]; and the base frame's values, from its component rules
    # on float arrays, are row by row those at each point, for Legendrian
    # frames that divide and take powers too
    rng = np.random.default_rng(11)
    for base in (perturbed_contact(), DIVISION_CONTACT, POWER_CONTACT):
        dom = prolong(base)
        slices = [dom.theta_slice(th) for th in (0.0, 0.7, 1.3)] + [Slice(dom.chart, 0, 0.2)]
        for slc in slices:
            pts = rng.uniform(-0.8, 0.8, (6, 3))
            if slc.axis == 0:
                pts[:, 2] = [0.1, 1.4, 0.5, 1.0, 0.3, 1.2]
            induced = contactify(dom.frame(), slc)
            for field in (induced.v0, induced.v1):
                for order in (0, 1, 2):
                    batch = field.taylor(pts.T, order)
                    for k, m in enumerate(pts):
                        for got, want in zip(batch, field.taylor(m, order)):
                            got, want = coeffs(got), coeffs(want)
                            assert np.array_equal(
                                bits(np.broadcast_to(got, (6, want.shape[-1]))[k]), bits(want))
            stack = induced.plane_basis(pts)
            assert stack.shape == (6, 3, 2)
            for k, m in enumerate(pts):
                assert np.array_equal(bits(stack[k]), bits(induced.plane_basis(m)))
        pts = rng.uniform(-0.8, 0.8, (200, 3))
        stack = base.plane_basis(pts)
        for k, m in enumerate(pts):
            assert np.array_equal(bits(stack[k]), bits(base.plane_basis(m)))


def test_contactify_batch_raises_at_first_degenerate_point():
    # with V0 = d/dy and V1 = (z, 0, y), every generator of D^2 is tangent to
    # the slice x = 0 where z = 0 (samples 2 and 4): a batch raises what the
    # loop over the samples raises, the error at sample 2
    base = ParallelizedContact(CH3, vector_field_from_exprs(CH3, ["0", "1", "0"]),
                               vector_field_from_exprs(CH3, ["z", "0", "y"]))
    dom = prolong(base)
    slc = Slice(dom.chart, 0, 0.0)
    induced = contactify(dom.frame(), slc)
    pts = np.random.default_rng(12).uniform(0.2, 1.0, (6, 3))
    pts[2, 1] = pts[4, 1] = 0.0
    with pytest.raises(GeometryError) as alone:
        induced.plane_basis(pts[2])
    assert np.array_equal(alone.value.point, slc.embed_coords(pts[2]))
    for call in (induced.plane_basis, lambda ps: induced.v0.taylor(ps.T, 1)):
        with pytest.raises(GeometryError) as batch:
            call(pts)
        assert str(batch.value) == str(alone.value)
        assert np.array_equal(batch.value.point, alone.value.point)


def test_contact_check_of_a_batch_gives_the_point_verdicts():
    # V0 = d/dy, V1 = (z, 0, y) is contact exactly where z != 0, and the
    # form (x - y) dx + z dz pairs to x z with V1: a batch gives the
    # verdicts of each point, and the check raises what the loop over the
    # points raises first
    v0 = vector_field_from_exprs(CH3, ["0", "1", "0"])
    v1 = vector_field_from_exprs(CH3, ["z", "0", "y"])
    alpha = one_form_from_exprs(CH3, ["x - y", "0", "z"])
    contact = ParallelizedContact(CH3, v0, v1, alpha=alpha)
    pts = np.random.default_rng(13).uniform(0.2, 1.0, (6, 3))
    pts[:, 0] = 0.0
    pts[[3, 5], 2] = 0.0
    verdicts = is_contact(contact.frame(), pts)
    assert verdicts == [is_contact(contact.frame(), m) for m in pts]
    assert verdicts == [True, True, True, False, True, False]
    for bad, message in ((3, "not contact"), (1, "does not annihilate")):
        if bad == 1:
            pts[1, 0] = 0.5  # now x z != 0 at sample 1, before sample 3
        with pytest.raises(GeometryError, match=message) as batch:
            contact.check(pts)
        with pytest.raises(GeometryError, match=message) as alone:
            contact.check([pts[bad]])
        assert np.array_equal(batch.value.point, pts[bad])
        assert np.array_equal(alone.value.point, pts[bad])
    assert contact.check(np.delete(pts, [1, 3, 5], axis=0))


def test_nan_form_fails_the_annihilation_check():
    # dz - y dx annihilates V0 = d/dy and V1 = (1, 0, y), except that its
    # dx component is NaN where x > 0.5: a NaN pairing fails the check (a
    # "> tol" test let it pass), at the first such sample of a batch
    def rule(coords, order):
        x, y = np.asarray(coords[0]), np.asarray(coords[1])
        return [np.where(x > 0.5, math.nan, -y), 0.0 * x, 0.0 * x + 1.0]

    contact = standard_contact()
    nan_form = ParallelizedContact(CH3, contact.v0, contact.v1,
                                   alpha=calculus.OneForm(CH3, name="nan", taylor_fn=rule))
    pts = np.array([[0.1, 0.2, 0.3], [0.7, 0.1, 0.2], [0.9, 0.1, 0.2]])
    for points, bad in ((pts, 1), ([pts[2]], 2)):
        with pytest.raises(GeometryError, match="does not annihilate") as err:
            nan_form.check(points)
        assert np.array_equal(err.value.point, pts[bad])
    assert nan_form.check(pts[:1])


def test_contactify_tangent_slice_raises():
    dom = prolong(standard_contact())
    # a theta slice is fine, but slicing along x at the origin makes D^2
    # contain the slice tangent nowhere; pick instead a slice the frame
    # degenerates on: axis 1 (= y) has normal components (V.y, W.y, B.y)
    # which stay independent, so craft a genuinely tangent configuration
    slc = Slice(dom.chart, 3, 0.0)
    cont = contactify(dom.frame(), slc)
    assert is_contact(cont.frame(), [0.1, 0.2, 0.3])
    with pytest.raises(EngelLabError):
        contactify(dom.base.frame(), slc)  # wrong rank/dimension


def test_slice_transversality_check(monkeypatch):
    dom = prolong(standard_contact())
    slc = dom.theta_slice(0.3)
    assert check_slice_transverse(dom, slc, [0.1, 0.2, 0.3]) > 1.0
    with pytest.raises(GeometryError):
        check_slice_transverse(dom, Slice(dom.chart, 0, 0.0), [0.0, 0.2, 0.3, 0.1])
    # a NaN characteristic direction is a NaN angle, which fails the check
    monkeypatch.setattr(prolongation, "characteristic_line",
                        lambda frame, q: np.array([0.0, 0.0, 0.0, math.nan]))
    with pytest.raises(GeometryError):
        check_slice_transverse(dom, slc, [0.1, 0.2, 0.3])


def test_development_is_theta_rotation_on_standard_domain():
    # on the unperturbed domain the developed angle equals theta itself
    dom = prolong(standard_contact())
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta = rng.uniform(0.05, 1.5)
        q = np.append(rng.uniform(-0.5, 0.5, 3), theta)
        ang = development_angle(dom, q, tol=1e-11)
        assert abs(ang - theta) < 1e-8
        dev = development(dom, q, tol=1e-11)
        assert dev.contact_residual < 1e-9
        slope = leaf_projective_coordinate(dom, q, tol=1e-11)
        assert abs(slope - math.tan(theta)) < 1e-7


def test_development_at_bottom_is_inclusion():
    dom = prolong(perturbed_contact())
    q = [0.2, -0.1, 0.3, 0.0]
    (a, b), dev = development_coefficients(dom, q)
    # the reported direction is normalized, so compare up to scale
    assert abs(b) < 1e-12
    assert abs(a - 1.0 / np.linalg.norm(dom.base.v0(q[:3]))) < 1e-12
    assert np.allclose(dev.foot, q[:3])


def test_development_monotone_in_theta():
    dom = prolong(perturbed_contact())
    m = [0.2, 0.1, -0.3]
    angles = [development_angle(dom, np.append(m, t), tol=1e-10)
              for t in np.linspace(0.0, 1.5, 12)]
    assert all(b > a for a, b in zip(angles, angles[1:]))


def test_projective_charts_differ_by_moebius():
    # two affine fiber charts given by basis changes are related by a linear
    # fractional transformation with the same matrix
    dom = prolong(perturbed_contact())
    M = np.array([[1.0, 0.4], [-0.3, 0.9]])
    rng = np.random.default_rng(4)
    for _ in range(8):
        q = np.append(rng.uniform(-0.4, 0.4, 3), rng.uniform(0.1, 1.2))
        (a, b), _ = development_coefficients(dom, q, tol=1e-10)
        s0 = leaf_projective_coordinate(dom, q, tol=1e-10)
        s1 = leaf_projective_coordinate(dom, q, basis_change=M, tol=1e-10)
        # [a; b] = M [a'; b'] so s1 = (m11 b - m10 a-ish) via solve; verify
        ap, bp = np.linalg.solve(M, [a, b])
        assert abs(s1 - bp / ap) < 1e-10
        assert abs(s0 - b / a) < 1e-10


def test_slice_transport_rotation_matrix():
    # transporting between theta slices of the standard domain rotates the
    # Legendrian frame by the angle difference
    base = standard_contact()
    dom = prolong(base, full_circle=True)
    m = [0.3, -0.2, 0.4]
    res = slice_transport(dom, dom.theta_slice(0.0), dom.theta_slice(0.9), m, tol=1e-11)
    assert res.contact_defect < 1e-9
    c, s = math.cos(0.9), math.sin(0.9)
    want = np.array([[c, s], [-s, c]])
    # contactified frames at theta=0 and theta=0.9 both come from pivot
    # elimination, so compare the planes and the determinant instead of the
    # raw matrix entries when frames differ by plane-preserving scalings
    assert abs(np.linalg.det(res.matrix) - np.linalg.det(want)) < 1e-7
    assert np.max(np.abs(res.matrix - want)) < 1e-7


def test_full_circle_return_is_identity():
    base = perturbed_contact()
    dom = prolong(base, full_circle=True)
    rng = np.random.default_rng(5)
    bottom = dom.theta_slice(0.0)
    for _ in range(5):
        m = rng.uniform(-0.4, 0.4, 3)
        res = slice_transport(dom, bottom, bottom, m, tol=1e-11)
        assert np.max(np.abs(res.image - m)) < 1e-8
        assert np.max(np.abs(res.matrix - np.eye(2))) < 1e-7
        assert abs(res.crossing_time - 2.0 * math.pi) < 1e-8


def test_same_slice_transport_needs_full_circle():
    dom = prolong(standard_contact(), full_circle=False)
    with pytest.raises(EngelLabError):
        slice_transport(dom, dom.theta_slice(0.0), dom.theta_slice(0.0), [0, 0, 0])

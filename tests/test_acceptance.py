"""Acceptance gate: the headline numerical claims of the library, one
pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete; the whole gate took 12.7 s single-process (Python 3.11, shared
2-CPU machine, median of 3 runs), 6.4 s of it criterion 5 and 4.0 s
criterion 9.  Criteria 1, 2, 3 and 5 draw their flag samples (and criterion
5 its spin probes) point by point and evaluate them as one batch.
"""

import math

import numpy as np

from engellab.calculus import Chart, constant_field, lie_bracket
from engellab.deformation import (ContactFormPath, ContactIsotopyGenerator,
                                  bottom_to_top, gray_solve, realize_isotopy)
from engellab.distributions import (DistributionFrame, characteristic_line,
                                    flag_ranks, is_contact, line_angle,
                                    plane_principal_angle)
from engellab.errors import GeometryError
from engellab.expressions import scalar_field_from_expr, vector_field_from_exprs
from engellab.flow import integrate
from engellab.jets import Jet, multi_indices
from engellab.normal_form import (LegendrianPairJet, _linear_pushforward,
                                  extract_ode, normalize_pair, pair_from_ode)
from engellab.prolongation import (ParallelizedContact, contactify,
                                   development_angle,
                                   leaf_projective_coordinate, prolong,
                                   slice_transport)
from engellab.zoll import (SphereAtlas, central_projection_check,
                           closedness_report, hamiltonian_alignment,
                           legendre_ray_map, legendre_ray_map_inverse,
                           so3_engel_frame, so3_frame_fields,
                           stereographic_sphere_metric)

CH3 = Chart("base", ("x", "y", "z"))
CH4 = Chart("ambient", ("x", "y", "z", "w"))


def verdict(num, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def standard_contact():
    return ParallelizedContact(CH3,
                               vector_field_from_exprs(CH3, ["0", "1", "0"]),
                               vector_field_from_exprs(CH3, ["1", "0", "y"]))


def test_criterion_1_engel_normal_form_frame():
    frame_fields = [vector_field_from_exprs(CH4, ["0", "0", "0", "1"]),
                    vector_field_from_exprs(CH4, ["1", "w", "y", "0"])]
    frame = DistributionFrame(frame_fields)
    rng = np.random.default_rng(101)
    pts = np.array([rng.uniform(-1.0, 1.0, 4) for _ in range(1000)])
    ok = all(rep.is_engel for rep in flag_ranks(frame, pts))
    worst = max(line_angle(line, [0, 0, 0, 1]) for line in characteristic_line(frame, pts)) \
        if ok else 0.0
    ok = ok and worst < 1e-8
    verdict(1, "standard frame has flag (2,3,4); characteristic line is d/dw",
            ok, f"worst line angle {worst:.2e}")


def _random_perturbed_contact(rng):
    while True:
        eps = 0.12
        def poly():
            c = rng.uniform(-eps, eps, 7)
            return (f"{c[0]:.6f}*x + {c[1]:.6f}*y + {c[2]:.6f}*z"
                    f" + {c[3]:.6f}*x*y + {c[4]:.6f}*y*z + {c[5]:.6f}*x*z"
                    f" + {c[6]:.6f}*x*x")
        v0 = vector_field_from_exprs(CH3, [poly(), f"1 + {poly()}", poly()])
        v1 = vector_field_from_exprs(CH3, [f"1 + {poly()}", poly(), f"y + {poly()}"])
        pts = rng.uniform(-1.0, 1.0, (20, 3))
        if all(is_contact(DistributionFrame([v0, v1]), p) for p in pts):
            return ParallelizedContact(CH3, v0, v1)


def test_criterion_2_prolongation():
    rng = np.random.default_rng(102)
    contacts = [standard_contact()] + [_random_perturbed_contact(rng) for _ in range(4)]
    engel_ok = True
    worst_angle = 0.0
    for contact in contacts:
        dom = prolong(contact)
        frame = dom.frame()
        qs = np.array([np.append(rng.uniform(-1.0, 1.0, 3), rng.uniform(0.0, dom.theta_max))
                       for _ in range(1000)])
        if not all(rep.is_engel for rep in flag_ranks(frame, qs)):
            engel_ok = False
        for theta in (0.0, 0.6, 1.2):
            slc = dom.theta_slice(theta)
            induced = contactify(frame, slc)
            for _ in range(5):
                m = rng.uniform(-1.0, 1.0, 3)
                worst_angle = max(worst_angle, plane_principal_angle(
                    induced.plane_basis(m).T, contact.plane_basis(m).T))
    ok = engel_ok and worst_angle < 1e-8
    verdict(2, "5 prolonged contact structures are Engel; slices contactify back",
            ok, f"worst plane angle {worst_angle:.2e}")


def test_criterion_3_so3():
    dom = so3_engel_frame()
    frame = dom.frame()
    rng = np.random.default_rng(103)
    qs = []
    for _ in range(1000):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 0.7) / np.linalg.norm(v)
        qs.append(np.append(v, rng.uniform(0, dom.theta_max)))
    engel_ok = all(rep.is_engel for rep in flag_ranks(frame, np.array(qs)))
    K, I, J = so3_frame_fields()
    worst = 0.0
    for _ in range(30):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 0.7) / np.linalg.norm(v)
        for A, B, C in [(K, I, J), (I, J, K), (J, K, I)]:
            worst = max(worst, float(np.max(np.abs(lie_bracket(A, B)(v) - C(v)))))
    ok = engel_ok and worst < 1e-9
    verdict(3, "SO(3) x S^1 frame is Engel; bracket table closes",
            ok, f"bracket residual {worst:.2e}")


def _random_jet(rng, order=4, amp=0.3):
    j = Jet(3, order)
    for k in multi_indices(3, order):
        if sum(k):
            j[k] = rng.uniform(-amp, amp) / (1.0 + sum(k)) ** 2
    return j


def _random_pair(rng, order=4):
    one = Jet.constant(1.0, 3, order)
    y = Jet.variable(1, 3, order)
    while True:
        Y = [_random_jet(rng), one + _random_jet(rng), _random_jet(rng)]
        X = [one + _random_jet(rng), _random_jet(rng), y + _random_jet(rng)]
        A = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        try:
            return LegendrianPairJet(_linear_pushforward(A, Y),
                                     _linear_pushforward(A, X), order)
        except GeometryError:
            continue


def test_criterion_4_normal_form():
    rng = np.random.default_rng(104)
    worst_res, worst_f0, worst_idem = 0.0, 0.0, 0.0
    one = Jet.constant(1.0, 3, 4)
    y = Jet.variable(1, 3, 4)
    zero = Jet(3, 4)
    for _ in range(50):
        pair = _random_pair(rng)
        res = normalize_pair(pair)
        worst_res = max(worst_res, res.verify(pair))
        worst_f0 = max(worst_f0, abs(res.f_jet.value))
        redo = LegendrianPairJet(
            [zero.copy(), one.copy(), zero.copy()],
            [one.copy(), res.f_jet.truncated(4).copy(), y.copy()], 4)
        res2 = normalize_pair(redo)
        k = res2.f_jet.order
        worst_idem = max(worst_idem, res2.f_jet.max_coeff_diff(res.f_jet.truncated(k)))
    # equation round trip
    worst_rt = 0.0
    for _ in range(10):
        f = _random_jet(rng)
        V0, V1 = pair_from_ode(f)
        pair = LegendrianPairJet.from_fields(V0, V1, [0.0, 0.0, 0.0], order=4)
        ode = extract_ode(normalize_pair(pair))
        worst_rt = max(worst_rt, ode.f_jet.max_coeff_diff(f.truncated(ode.f_jet.order)))
    ok = worst_res <= 1e-10 and worst_f0 == 0.0 and worst_idem <= 1e-10 \
        and worst_rt <= 1e-10
    verdict(4, "50 pair jets normalize (residual, f(0)=0, idempotence, ODE roundtrip)",
            ok, f"residual {worst_res:.2e} idem {worst_idem:.2e} roundtrip {worst_rt:.2e}")


def test_criterion_5_realization():
    rng = np.random.default_rng(105)
    contact = standard_contact()
    dom = prolong(contact)
    support = (0.25, 1.3)
    theta_probe = np.linspace(0.3, 1.25, 7)
    probe = np.array([np.append(m, th) for m in rng.uniform(-1.0, 1.0, (40, 3))
                      for th in theta_probe])

    ok = True
    detail = ""
    for trial in range(10):
        c = rng.uniform(-1.0, 1.0, 3)
        text = f"{c[0]:.6f}*sin(x) + {c[1]:.6f}*z*cos(y) + {c[2]:.6f}*y"
        h = scalar_field_from_expr(dom.chart, text)
        gen = ContactIsotopyGenerator(dom, h, support)
        deformed = realize_isotopy(dom, gen, validate=False)
        gvals = deformed.g(probe.T)
        sup_g = max(abs(v) for v in gvals)
        if sup_g >= 0.5:
            # rescale the Hamiltonian so sup |g| < 0.5 on the probe grid
            h = scalar_field_from_expr(dom.chart, f"0.4*({text})/{sup_g:.6f}")
            gen = ContactIsotopyGenerator(dom, h, support)
            deformed = realize_isotopy(dom, gen, validate=False)
        qs = np.array([np.append(rng.uniform(-1.0, 1.0, 3), rng.uniform(0.0, dom.theta_max))
                       for _ in range(1000)])
        if not all(rep.is_engel for rep in flag_ranks(deformed.frame(), qs)):
            ok, detail = False, "flag failed"
            break
        # untouched outside the support window
        for m in rng.uniform(-1.0, 1.0, (5, 3)):
            for th in (0.02, dom.theta_max - 0.02):
                if np.max(np.abs(deformed.W(np.append(m, th))
                                 - np.array([0, 0, 0, 1.0]))) != 0.0:
                    ok, detail = False, "support leak"
        # characteristic flow against an independent integration, both
        # base points as one stack of lanes (theta is each lane's time)
        ms = rng.uniform(-0.5, 0.5, (2, 3))
        top = bottom_to_top(deformed, ms, tol=1e-10)
        ref, _, _ = integrate(lambda t, ybase: gen.X(np.concatenate([ybase.T, [t]]))[:3].T,
                              ms, 0.0, dom.theta_max, tol=1e-11)
        if np.max(np.abs(top - ref)) > 1e-6:
            ok, detail = False, "bottom-to-top mismatch"
        if not ok:
            break

    # amplitude scan: the flag degenerates exactly where the spin hits -1
    h = scalar_field_from_expr(dom.chart, "2.0*sin(x) + 1.5*z*cos(y)")
    gen = ContactIsotopyGenerator(dom, h, support)
    deformed = realize_isotopy(dom, gen, validate=False)
    gv = deformed.g(probe.T)
    qlo = probe[int(np.argmin(gv))]
    qhi = probe[int(np.argmax(gv))]
    if min(gv) < -1.0 - 1e-6:
        a, b = np.asarray(qlo), np.asarray(qhi)
        for _ in range(60):
            mid = 0.5 * (a + b)
            if deformed.g(mid) < -1.0:
                a = mid
            else:
                b = mid
        crit = 0.5 * (a + b)
        if flag_ranks(deformed.frame(), crit).is_engel:
            ok, detail = False, "flag survives g = -1"
        away = probe[np.abs(gv + 1.0) > 1e-6]
        if not all(rep.is_engel for rep in flag_ranks(deformed.frame(), away)):
            ok, detail = False, "flag failed away from g = -1"
    else:
        ok, detail = False, "scan amplitude never drove g below -1"
    verdict(5, "10 bounded Hamiltonians deform to Engel; sharpness at g = -1",
            ok, detail or "all subchecks held")


def test_criterion_6_gray_moser():
    path = ContactFormPath(CH3, lambda s: [
        s[3] * (0.2 * (s[0] + 2 * s[2]).sin() + 0.3 * s[1] * s[2]) - s[1],
        0.0 * s[1],
        1.0 + s[3] * (0.15 * s[0] + 0.2 * s[1] + 0.05 * s[2] * s[2])])
    L = constant_field(CH3, [0.0, 1.0, 0.0])
    rng = np.random.default_rng(106)
    pts = rng.uniform(-1.0, 1.0, (500, 3))
    sol = gray_solve(path, L, np.linspace(0.0, 0.3, 5),
                     sample_points=pts[:20])
    # every start point in one stack of lanes per grid
    defects = sol.pullback_defect(pts)
    worst_plane = max(d["plane_defect"] for d in defects)
    worst_L = max(d["L_defect"] for d in defects)
    fine = gray_solve(path, L, np.linspace(0.0, 0.3, 9))
    coarse_d = max(d["plane_defect"] for d in defects[:10])
    fine_d = max(d["plane_defect"] for d in fine.pullback_defect(pts[:10]))
    halves = fine_d < 0.5 * coarse_d
    ok = worst_plane < 1e-6 and worst_L < 1e-6 and halves
    verdict(6, "Gray solver: plane pullback, Legendrian preserved, refinement",
            ok, f"plane {worst_plane:.2e} L {worst_L:.2e} "
                f"refine {fine_d:.2e}/{coarse_d:.2e}")


def test_criterion_7_full_circle_return():
    dom = prolong(standard_contact(), full_circle=True)
    bottom = dom.theta_slice(0.0)
    rng = np.random.default_rng(107)
    worst_pt, worst_mat, worst_defect = 0.0, 0.0, 0.0
    for _ in range(200):
        m = rng.uniform(-0.6, 0.6, 3)
        res = slice_transport(dom, bottom, bottom, m, tol=1e-11)
        worst_pt = max(worst_pt, float(np.max(np.abs(res.image - m))))
        worst_mat = max(worst_mat, float(np.max(np.abs(res.matrix - np.eye(2)))))
        worst_defect = max(worst_defect, res.contact_defect)
    ok = worst_pt < 1e-7 and worst_mat < 1e-7 and worst_defect < 1e-7
    verdict(7, "full-circle Poincare return is the identity; planes stay contact",
            ok, f"point {worst_pt:.2e} matrix {worst_mat:.2e} defect {worst_defect:.2e}")


def test_criterion_8_development():
    rng = np.random.default_rng(108)
    # inclusion at theta on the unperturbed domain: developed angle == theta
    dom = prolong(standard_contact())
    worst = 0.0
    for _ in range(30):
        theta = rng.uniform(0.05, 1.5)
        q = np.append(rng.uniform(-0.5, 0.5, 3), theta)
        worst = max(worst, abs(development_angle(dom, q, tol=1e-11) - theta))
    inclusion_ok = worst < 1e-8

    # monotone developed angle along 100 leaves of a perturbed domain
    v0 = vector_field_from_exprs(CH3, ["0.1*z", "1 + 0.1*x", "0.05*x*y"])
    v1 = vector_field_from_exprs(CH3, ["1", "0.1*sin(z)", "y + 0.1*x"])
    pert = prolong(ParallelizedContact(CH3, v0, v1))
    monotone_ok = True
    for _ in range(100):
        m = rng.uniform(-0.4, 0.4, 3)
        angles = [development_angle(pert, np.append(m, t), tol=1e-9)
                  for t in np.linspace(0.0, 1.4, 6)]
        if not all(b > a for a, b in zip(angles, angles[1:])):
            monotone_ok = False
            break

    # two affine leaf coordinates fit a linear-fractional map
    M = np.array([[1.0, 0.4], [-0.3, 0.9]])
    s0s, s1s = [], []
    for _ in range(25):
        q = np.append(rng.uniform(-0.4, 0.4, 3), rng.uniform(0.1, 1.2))
        s0s.append(leaf_projective_coordinate(pert, q, tol=1e-10))
        s1s.append(leaf_projective_coordinate(pert, q, basis_change=M, tol=1e-10))
    A = np.array([[s0, 1.0, -s0 * s1, -s1] for s0, s1 in zip(s0s, s1s)])
    coeff = np.linalg.svd(A)[2][-1]
    a, b, c, d = coeff
    res = max(abs(s1 - (a * s0 + b) / (c * s0 + d)) for s0, s1 in zip(s0s, s1s))
    ok = inclusion_ok and monotone_ok and res < 1e-7
    verdict(8, "development: inclusion, monotone angle, Moebius overlap",
            ok, f"inclusion {worst:.2e} moebius {res:.2e}")


def test_criterion_9_zoll_sphere():
    atlas = SphereAtlas()
    rep = closedness_report(atlas, n_samples=200, tol=1e-10, seed=109)
    period_ok = all(s.returned and abs(s.arclength - 2.0 * math.pi) < 1e-6
                    for s in rep.samples)
    defect_ok = rep.max_defect < 1e-6

    proj = central_projection_check(n_geodesics=50, seed=109)
    proj_ok = proj["max_residual"] < 1e-7

    metric = stereographic_sphere_metric()
    rng = np.random.default_rng(109)
    worst_rt, worst_al = 0.0, 0.0
    for _ in range(25):
        x = rng.uniform(-1.5, 1.5, 2)
        ray = rng.normal(size=2)
        p = legendre_ray_map(metric, x, ray)
        back = legendre_ray_map_inverse(metric, x, p)
        unit = ray / math.sqrt(float(ray @ metric.matrix(x) @ ray))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - unit))))
        worst_al = max(worst_al, hamiltonian_alignment(
            metric, np.append(x, rng.uniform(0, 2 * math.pi))))
    ok = period_ok and defect_ok and proj_ok and worst_rt < 1e-10 and worst_al < 1e-6
    verdict(9, "round sphere: closed geodesics, central projection, Legendre map",
            ok, f"defect {rep.max_defect:.2e} line {proj['max_residual']:.2e} "
                f"roundtrip {worst_rt:.2e} align {worst_al:.2e}")

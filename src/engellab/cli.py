"""Command-line driver: parse a config, run a verification suite, emit a
report.

Commands: verify-engel | prolong | contactify | normal-form | realize | gray
| zoll-closedness | central-projection | so3.  Every suite is deterministic
for a fixed config and seed; the report body is byte-identical across runs
(only the wall-time line varies).

Exit status: 0 all checks pass, 1 a check failed, 2 config/parse error,
3 geometry error (the offending point is logged to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .calculus import Chart, constant_field, lie_bracket, over_points
from .deformation import (HYPOTHESIS_TOL, ContactFormPath, ContactIsotopyGenerator,
                          bottom_to_top, gray_solve, realize_isotopy)
from .distributions import (DistributionFrame, characteristic_line,
                            flag_ranks, plane_principal_angle)
from .errors import ConfigError, EngelLabError, GeometryError
from .expressions import Expression, scalar_field_from_expr, vector_field_from_exprs
from .flow import integrate
from .jets import Jet, multi_indices
from .normal_form import (LegendrianPairJet, ODE_CHART, _linear_pushforward,
                          extract_ode, normalize_pair, pair_from_ode)
from .prolongation import ParallelizedContact, contactify, prolong
from .reporting import Report, render, worst_of
from .zoll import (SingleChartSpace, SphereAtlas, central_projection_check,
                   closedness_report, euclidean_metric, hamiltonian_alignment,
                   legendre_ray_map, legendre_ray_map_inverse, revolution_metric,
                   so3_engel_frame, so3_frame_fields, stereographic_sphere_metric)

ENGEL_CHART = Chart("engel", ("x", "y", "z", "w"))
CONTACT_CHART = Chart("standard_contact", ("x", "y", "z"))
# the smallest coarse defect that gray's refinement-halving check divides by
REFINEMENT_FLOOR = 100 * np.finfo(float).eps

def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _conforms(value, kind):
    if isinstance(kind, list):
        return (isinstance(value, list) and value != []
                and all(_conforms(v, kind[0]) for v in value))
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _cfg(cfg, key, kind, default=None, length=None):
    """The config value at ``key``, checked to be of ``kind`` (``int``,
    ``float``, ``bool`` or ``str``, or ``[kind]`` for a non-empty list of
    them, of ``length`` entries when given; an int is a float too), or
    ``default`` when the key is absent.  A value of another kind or length is
    a ConfigError naming the key."""
    if key not in cfg:
        return default
    value = cfg[key]
    if not _conforms(value, kind):
        raise ConfigError(f"config key {key!r} has the wrong type: {value!r}")
    if length is not None and len(value) != length:
        raise ConfigError(f"config key {key!r} needs {length} entries: {value!r}")
    return float(value) if kind is float else value


def _chart(cfg, key, default):
    coords = _cfg(cfg, key, [str], None)
    if coords is None:
        return default
    return Chart("config", tuple(coords))


def _frame_fields(cfg, chart, key, defaults):
    """The two fields at ``key`` on ``chart``, each a list of component
    expressions, and their texts."""
    texts = _cfg(cfg, key, [[str]], defaults, 2)
    if any(len(comp) != chart.dim for comp in texts):
        raise ConfigError(f"config key {key!r} needs {chart.dim} components per field")
    return [vector_field_from_exprs(chart, comp, name=f"{key}[{i}]")
            for i, comp in enumerate(texts)], texts


# -- suites -------------------------------------------------------------------


def _suite_verify_engel(cfg, rng, samples, tol, report, seed):
    chart = _chart(cfg, "coords", ENGEL_CHART)
    if chart.dim != 4:
        raise ConfigError("config key 'coords' needs 4 names for verify-engel")
    fields, texts = _frame_fields(cfg, chart, "frame",
                                  [["0", "0", "0", "1"], ["1", "w", "y", "0"]])
    frame = DistributionFrame(fields)
    pts = rng.uniform(-1.0, 1.0, (samples, 4))
    failures, detail = 0, ""
    for p, rep in zip(pts, flag_ranks(frame, pts)):
        if not rep.is_engel:
            failures += 1
            if not detail:
                detail = f"ranks {rep.ranks} at {np.round(p, 4).tolist()}"
    report.add("engel-flag", samples, 0, failures, detail=detail)

    direction = _cfg(cfg, "char_direction", [float],
                     [0.0, 0.0, 0.0, 1.0] if "frame" not in cfg else None, 4)
    if failures == 0 and direction is not None:
        worst = 0.0
        for ld in characteristic_line(frame, pts):
            worst = worst_of(worst, ld.angle_to(np.asarray(direction, dtype=float)))
        report.add("characteristic-line", samples, tol, worst)
    return {"frame": texts}


def _base_contact(cfg):
    chart = _chart(cfg, "coords", CONTACT_CHART)
    if chart.dim != 3:
        raise ConfigError("config key 'coords' needs 3 names for a contact chart")
    (v0, v1), texts = _frame_fields(cfg, chart, "legendrian_frame",
                                    [["0", "1", "0"], ["1", "0", "y"]])
    return ParallelizedContact(chart, v0, v1), texts


def _suite_prolong(cfg, rng, samples, tol, report, seed):
    contact, texts = _base_contact(cfg)
    full = _cfg(cfg, "full_circle", bool, False)
    check_pts = rng.uniform(-1.0, 1.0, (10, 3))
    domain = prolong(contact, full_circle=full, check_points=check_pts)
    frame = domain.frame()
    qs = _domain_points(rng, samples, domain.theta_max)
    engel = np.array([rep.is_engel for rep in flag_ranks(frame, qs)], dtype=bool)
    failures, worst = samples - int(engel.sum()), 0.0
    for ld in characteristic_line(frame, qs[engel]):
        worst = worst_of(worst, ld.angle_to([0.0, 0.0, 0.0, 1.0]))
    report.add("engel-flag", samples, 0, failures)
    report.add("characteristic-line", samples, tol, worst)
    return {"legendrian_frame": texts, "full_circle": full}


def _domain_points(rng, samples, theta_max):
    """``samples`` domain points (base in [-1, 1]^3, then theta), drawn point
    by point."""
    return np.array([np.append(rng.uniform(-1.0, 1.0, 3), rng.uniform(0.0, theta_max))
                     for _ in range(samples)])


def _suite_contactify(cfg, rng, samples, tol, report, seed):
    contact, texts = _base_contact(cfg)
    domain = prolong(contact, full_circle=_cfg(cfg, "full_circle", bool, False))
    values = _cfg(cfg, "slices", [float], [0.0, 0.7, 1.3])
    per = max(1, samples // len(values))
    worst = 0.0
    for value in values:
        slc = domain.theta_slice(float(value))
        induced = contactify(domain.frame(), slc)
        ms = np.array([rng.uniform(-1.0, 1.0, 3) for _ in range(per)])
        # both bases of the slice's points as one batch; an error is that of
        # the loop over the points, induced basis first
        bases = over_points(ms, lambda coords: list(zip(induced.plane_basis(coords.T),
                                                        contact.plane_basis(coords.T))),
                            lambda m: (induced.plane_basis(m), contact.plane_basis(m)))
        for induced_basis, contact_basis in bases:
            worst = worst_of(worst, plane_principal_angle(induced_basis.T, contact_basis.T))
    report.add("slice-plane-recovery", per * len(values), tol, worst)
    return {"legendrian_frame": texts, "slices": values}


def _random_jet(rng, order, const=0.0, amp=0.3):
    """A jet in 3 variables with constant term ``const``; each other term is
    one uniform draw from [-amp, amp), in graded order, over (1 + degree)^2."""
    degrees = np.array([sum(k) for k in multi_indices(3, order)[1:]])
    j = Jet(3, order, {(0, 0, 0): const})
    j.c[1:] = rng.uniform(-amp, amp, len(degrees)) / (1.0 + degrees) ** 2
    return j


def _random_pair(rng, order=4):
    """A random contact pair jet with bounded conditioning: a perturbation of
    the normal-form pair pushed through a random rotation, so the twist stays
    away from zero while the constants are generic.  A draw that is not
    contact is redrawn, up to 100 draws."""
    one = Jet.constant(1.0, 3, order)
    y = Jet.variable(1, 3, order)
    for _ in range(100):
        Y = [_random_jet(rng, order), one + _random_jet(rng, order),
             _random_jet(rng, order)]
        X = [one + _random_jet(rng, order), _random_jet(rng, order),
             y + _random_jet(rng, order)]
        A = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        try:
            return LegendrianPairJet(_linear_pushforward(A, Y),
                                     _linear_pushforward(A, X), order)
        except GeometryError:
            continue
    raise GeometryError("no contact pair in 100 random draws")


def _normal_pair_of(f_jet):
    order = f_jet.order
    one = Jet.constant(1.0, 3, order)
    zero = Jet(3, order)
    y = Jet.variable(1, 3, order)
    return LegendrianPairJet([zero, one, zero], [one, f_jet, y], order)


def _suite_normal_form(cfg, rng, samples, tol, report, seed):
    worst_res, worst_f0, worst_idem = 0.0, 0.0, 0.0
    for _ in range(samples):
        pair = _random_pair(rng)
        res = normalize_pair(pair)
        worst_res = worst_of(worst_res, res.verify(pair))
        worst_f0 = worst_of(worst_f0, abs(res.f_jet.value))
        res2 = normalize_pair(_normal_pair_of(res.f_jet))
        k = res2.f_jet.order
        worst_idem = worst_of(worst_idem, res2.f_jet.max_coeff_diff(res.f_jet.truncated(k)))
    report.add("pushforward-residual", samples, tol, worst_res)
    report.add("f-constant-term", samples, 0, worst_f0)
    report.add("idempotence", samples, tol, worst_idem)

    echo = {}
    ode_text = _cfg(cfg, "ode", str, None)
    if ode_text is not None:
        f = scalar_field_from_expr(ODE_CHART, ode_text, name="f")
        v0, v1 = pair_from_ode(f)
        pair = LegendrianPairJet.from_fields(v0, v1, [0.0, 0.0, 0.0])
        res = normalize_pair(pair)
        ode = extract_ode(res)
        report.add("ode-residual", 1, tol, res.verify(pair),
                   detail="; ".join(s["step"] for s in res.steps))
        echo = {"ode": ode_text, "steps": res.steps,
                "f_coeffs": {"".join(map(str, k)): v
                             for k, v in sorted(ode.f_jet.items()) if v != 0.0}}
    return echo


def _suite_realize(cfg, rng, samples, tol, report, seed):
    contact, texts = _base_contact(cfg)
    domain = prolong(contact)
    support = tuple(_cfg(cfg, "support", [float], [0.25, 1.3], 2))
    h_text = _cfg(cfg, "h", str, "0.05*sin(x) + 0.04*z*cos(y) + 0.03*y")
    h = scalar_field_from_expr(domain.chart, h_text, name="h")
    gen = ContactIsotopyGenerator(domain, h, support)

    grid = [np.append(m, th) for m in rng.uniform(-1.0, 1.0, (max(10, samples // 10), 3))
            for th in np.linspace(support[0] + 0.05, support[1] - 0.05, 7)]
    deformed = realize_isotopy(domain, gen, samples=grid, validate=True)
    g_min = min(deformed.spin_samples)
    report.add("spin-margin", len(grid), 0.5, abs(g_min), detail=f"min g = {g_min:.6f}")

    qs = _domain_points(rng, samples, domain.theta_max)
    failures = sum(not rep.is_engel for rep in flag_ranks(deformed.frame(), qs))
    report.add("engel-flag", samples, 0, failures)

    qs = [np.append(m, th) for m in rng.uniform(-1.0, 1.0, (10, 3))
          for th in (0.02, domain.theta_max - 0.02)]
    W = over_points(qs, lambda coords: deformed.W(coords).T, deformed.W)
    report.add("unperturbed-outside-support", 20, 0,
               float(np.max(np.abs(np.array(W) - [0.0, 0.0, 0.0, 1.0]))))

    # three base points as one stack of lanes; the reference flows gen.X with
    # theta as each lane's time
    ms = rng.uniform(-0.5, 0.5, (3, 3))
    refs, _, _ = integrate(lambda t, y: gen.X(np.concatenate([y.T, [t]]))[:3].T, ms,
                           0.0, domain.theta_max, tol=1e-11)
    report.add("bottom-to-top", 3, tol,
               float(np.max(np.abs(bottom_to_top(deformed, ms, tol=1e-10) - refs))))
    return {"h": h_text, "support": list(support), "legendrian_frame": texts}


def _gray_path(cfg):
    chart = CONTACT_CHART
    comps = _cfg(cfg, "form_components", [str],
                    ["t*(0.2*sin(x + 2*z) + 0.3*y*z) - y", "0*y",
                     "1 + t*(0.15*x + 0.2*y + 0.05*z^2)"], 3)
    exprs = [Expression(c, chart.coords + ("t",)) for c in comps]

    def rule(xs):
        env = dict(zip(chart.coords + ("t",), xs))
        return [e(env) for e in exprs]

    return ContactFormPath(chart, rule), comps


def _suite_gray(cfg, rng, samples, tol, report, seed):
    path, comps = _gray_path(cfg)
    t_max = _cfg(cfg, "t_max", float, 0.3)
    n_grid = _cfg(cfg, "grid", int, 5)
    if n_grid < 2:
        raise ConfigError(f"config key 'grid' must be at least 2: {n_grid}")
    L = constant_field(CONTACT_CHART, _cfg(cfg, "legendrian", [float], [0.0, 1.0, 0.0], 3),
                       name="L")
    pts = rng.uniform(-1.0, 1.0, (samples, 3))

    sol = gray_solve(path, L, np.linspace(0.0, t_max, n_grid), sample_points=pts[:10])
    report.add("hypothesis", len(pts[:10]), HYPOTHESIS_TOL, sol.checks[-1]["worst"])

    # one stack of lanes per grid; the refinement check reuses the first five
    defects = sol.pullback_defect(pts)
    plane = [d["plane_defect"] for d in defects]
    report.add("plane-pullback", samples, tol, worst_of(0.0, *plane))
    report.add("legendrian-preserved", samples, tol,
               worst_of(0.0, *(d["L_defect"] for d in defects)))

    fine = gray_solve(path, L, np.linspace(0.0, t_max, 2 * n_grid - 1))
    worst_fine = worst_of(0.0, *(d["plane_defect"] for d in fine.pullback_defect(pts[:5])))
    coarse = worst_of(0.0, *plane[:5])
    # below the floor the coarse defect is rounding, and a ratio of two
    # rounding-level defects is noise
    ratio = worst_fine / max(coarse, REFINEMENT_FLOOR)
    report.add("refinement-halving", 5, 0.6, ratio,
               detail=f"coarse {coarse:.3e} fine {worst_fine:.3e}")
    return {"form_components": comps, "t_max": t_max, "grid": n_grid}


def _space_from_config(cfg):
    kind = _cfg(cfg, "metric", str, "sphere")
    if kind == "sphere":
        radius = _cfg(cfg, "radius", float, 1.0)
        return SphereAtlas(radius), {"metric": "sphere", "radius": radius}, 2.0 * math.pi * radius
    if kind == "plane":
        return SingleChartSpace(euclidean_metric(), bound=_cfg(cfg, "bound", float, 50.0)), \
            {"metric": "plane"}, None
    if kind == "revolution":
        text = _cfg(cfg, "profile", str)
        if text is None:
            raise ConfigError("config key 'profile' is required")
        expr = Expression(text, ("u",))

        def profile(u):
            return expr({"u": u})

        metric = revolution_metric(profile)
        space = SingleChartSpace(metric, periodic=(False, True),
                                 bound=_cfg(cfg, "bound", float, None))
        return space, {"metric": "revolution", "profile": text}, _cfg(cfg, "period", float, None)
    raise ConfigError(f"unknown metric kind {kind!r} (sphere | plane | revolution)")


def _suite_zoll_closedness(cfg, rng, samples, tol, report, seed):
    space, echo, period = _space_from_config(cfg)
    rep = closedness_report(space, n_samples=samples, seed=seed,
                            max_arclength=_cfg(cfg, "max_arclength", float, 30.0),
                            sample_radius=_cfg(cfg, "sample_radius", float, 1.5))
    expect = _cfg(cfg, "expect_return", bool, echo["metric"] == "sphere")
    if expect:
        report.add("all-return", samples, 0, samples - rep.n_returned)
        report.add("return-defect", samples, tol, rep.max_defect)
        if period is not None:
            spreads = [abs(s.arclength - period) for s in rep.samples if s.returned]
            spread = worst_of(*spreads) if spreads else math.inf
            report.add("arclength-period", samples, tol, spread,
                       detail=f"period {period:.8f}")
    else:
        report.add("no-return", samples, 0, rep.n_returned)
    report.row_header = ["chart", "x1", "x2", "psi", "returned", "arclength", "defect"]
    for s in rep.samples:
        report.rows.append([s.chart, float(s.state[0]), float(s.state[1]),
                            float(s.state[2]), str(s.returned).lower(),
                            s.arclength, s.defect])
    return echo


def _suite_central_projection(cfg, rng, samples, tol, report, seed):
    arc = _cfg(cfg, "arc", float, 1.2)
    out = central_projection_check(n_geodesics=samples, seed=seed, arc=arc)
    report.add("line-fit", out["n_arcs"], tol, out["max_residual"])

    metric = stereographic_sphere_metric()
    worst_rt, worst_al = 0.0, 0.0
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 2)
        ray = rng.normal(size=2)
        p = legendre_ray_map(metric, x, ray)
        back = legendre_ray_map_inverse(metric, x, p)
        worst_rt = worst_of(worst_rt, float(np.max(np.abs(back - ray / math.sqrt(
            float(ray @ metric.matrix(x) @ ray))))))
        worst_al = worst_of(worst_al, hamiltonian_alignment(
            metric, np.append(x, rng.uniform(0.0, 2.0 * math.pi))))
    report.add("legendre-roundtrip", 20, 1e-10, worst_rt)
    report.add("hamiltonian-alignment", 20, 1e-6, worst_al)
    return {"arc": arc}


def _suite_so3(cfg, rng, samples, tol, report, seed):
    domain = so3_engel_frame(full_circle=_cfg(cfg, "full_circle", bool, False))
    qs = []
    for _ in range(samples):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 0.7) / np.linalg.norm(v)
        qs.append(np.append(v, rng.uniform(0.0, domain.theta_max)))
    failures = sum(not rep.is_engel for rep in flag_ranks(domain.frame(), np.array(qs)))
    report.add("engel-flag", samples, 0, failures)

    K, I, J = so3_frame_fields()
    vs = []
    for _ in range(20):
        v = rng.normal(size=3)
        vs.append(v * (rng.uniform(0.0, 0.7) / np.linalg.norm(v)))
    # each row of the table on the 20 points as one batch, folded point by point
    rows = []
    for A, B, C in ((K, I, J), (I, J, K), (J, K, I)):
        AB = lie_bracket(A, B)
        rows.append(over_points(vs, lambda coords: (AB(coords) - C(coords)).T,
                                lambda v: AB(v) - C(v)))
    worst = 0.0
    for defects in zip(*rows):
        worst = worst_of(worst, *(float(np.max(np.abs(d))) for d in defects))
    report.add("so3-bracket-table", 20, tol, worst)
    return {}


# -- driver -------------------------------------------------------------------


# name -> (suite, default samples, default tolerance)
SUITES = {
    "verify-engel": (_suite_verify_engel, 1000, 1e-8),
    "prolong": (_suite_prolong, 500, 1e-8),
    "contactify": (_suite_contactify, 60, 1e-8),
    "normal-form": (_suite_normal_form, 50, 1e-10),
    "realize": (_suite_realize, 200, 1e-6),
    "gray": (_suite_gray, 20, 1e-6),
    "zoll-closedness": (_suite_zoll_closedness, 50, 1e-6),
    "central-projection": (_suite_central_projection, 50, 1e-7),
    "so3": (_suite_so3, 1000, 1e-9),
}


def run(command, cfg, seed, samples, tol):
    """Execute one suite and return the filled report."""
    if command not in SUITES:
        raise ConfigError(f"unknown command {command!r}")
    suite = SUITES[command][0]
    rng = np.random.default_rng(seed)
    report = Report(command=command, config_echo={})
    t0 = time.perf_counter()
    echo = suite(cfg, rng, samples, tol, report, seed)
    report.config_echo = {"seed": seed, "samples": samples, "tolerance": tol, **echo}
    report.wall_time_s = time.perf_counter() - t0
    return report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="engellab",
        description="Numerical verification suites for Engel structures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUITES:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text", "csv"), default="text")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _, default_samples, default_tol = SUITES[args.command]
        samples = args.samples if args.samples is not None else \
            _cfg(cfg, "samples", int, default_samples)
        tol = args.tol if args.tol is not None else _cfg(cfg, "tol", float, default_tol)
        if samples <= 0 or tol <= 0:
            raise ConfigError("samples and tol must be positive")
        report = run(args.command, cfg, args.seed, samples, tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        msg = f"geometry error: {exc}"
        if exc.point is not None:
            msg += f" at point {np.round(np.asarray(exc.point, dtype=float), 6).tolist()}"
        print(msg, file=sys.stderr)
        return 3
    except EngelLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    text = render(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

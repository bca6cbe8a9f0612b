"""The benchmark's workloads: which engellab suites and sweeps each one runs,
and at which sizes.

A round runs every suite and sweep of a workload once, from inputs made from
the seed, and returns the report bodies, the checks and the time each part
took.  Rounds of one seed are identical in work and in output, so the
benchmark repeats them to take medians and compares their bodies byte for
byte.

Library functions are always called through their module
(``prolongation.slice_transport``, never a name imported into this file), so
the tracer's wrappers see every call made from here.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from engellab import cli, deformation, distributions, flow, prolongation
from engellab.calculus import Chart
from engellab.expressions import scalar_field_from_expr, vector_field_from_exprs
from engellab.reporting import Report

# the normal-form audit equation y'' = f(x, y, p)
ODE = "0.3*x*p + y^2 - 0.2*sin(p) + 0.1*x^3"
# the realize suite's default Hamiltonian, stated so the warm-up uses the same
REALIZE_H = "0.05*sin(x) + 0.04*z*cos(y) + 0.03*y"
REALIZE_SUPPORT = (0.25, 1.3)
CONTACT_CHART = Chart("standard_contact", ("x", "y", "z"))
WARM_UP_SEED = 0


@dataclass(frozen=True)
class Suite:
    """One CLI suite at a stated sample count, with the suite's default
    tolerance written out so the benchmark does not depend on how the CLI
    stores it."""

    command: str
    samples: int
    tol: float
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Sweep:
    """Library sweep over the trajectory layer, sized as a fraction of
    acceptance criteria 7 (full-circle returns) and 8 (development)."""

    name: str
    transports: int
    inclusions: int
    leaves: int


@dataclass(frozen=True)
class Workload:
    suites: tuple
    sweeps: tuple = ()


# Why each workload was chosen is recorded with its name in BENCHMARK.json;
# the comments name the layers each one exercises and bypasses.
WORKLOADS = {
    # order 0-2 bracket closures at many points; flow and jet composition bypassed
    "flags": Workload(
        suites=(Suite("verify-engel", 200, 1e-8), Suite("prolong", 200, 1e-8),
                Suite("so3", 200, 1e-9), Suite("contactify", 60, 1e-8))),
    # order-4 jet composition and inversion; point evaluation and flow bypassed
    "normal-form": Workload(
        suites=(Suite("normal-form", 10, 1e-10, {"ode": ODE}),)),
    # adaptive RK4 over tiny order-1 jets and the only flow_to_section calls
    "trajectories": Workload(
        suites=(Suite("zoll-closedness", 4, 1e-6), Suite("central-projection", 4, 1e-7)),
        sweeps=(Sweep("trajectory-library", transports=100, inclusions=30, leaves=20),)),
    # deep composite closures at order 0 inside RK4, and expression forms.  Both
    # suites run at their CLI default sizes: realize has a fixed cost of several
    # seconds, and only at 200 samples do its flag points keep their share
    "deformation": Workload(
        suites=(Suite("realize", 200, 1e-6, {"h": REALIZE_H, "support": list(REALIZE_SUPPORT)}),
                Suite("gray", 20, 1e-6))),
}


@dataclass
class RoundResult:
    digest: str
    checks: list          # (part, check, tolerance, max_defect, passed)
    started: float
    elapsed: float
    parts: list           # (span name, start, end) per suite / sweep


def _worst(a, b):
    """max() that keeps a NaN defect instead of dropping it."""
    return b if (b != b or b > a) else a


def _standard_contact():
    chart = CONTACT_CHART
    return prolongation.ParallelizedContact(
        chart, vector_field_from_exprs(chart, ["0", "1", "0"]),
        vector_field_from_exprs(chart, ["1", "0", "y"]))


def _perturbed_contact():
    chart = CONTACT_CHART
    return prolongation.ParallelizedContact(
        chart, vector_field_from_exprs(chart, ["0.1*z", "1 + 0.1*x", "0.05*x*y"]),
        vector_field_from_exprs(chart, ["1", "0.1*sin(z)", "y + 0.1*x"]))


def run_sweep(sweep, seed):
    """Full-circle Poincare returns of the standard prolongation (identity
    expected) and developed angles on the standard (angle == theta) and a
    perturbed domain (monotone along each leaf)."""
    rng = np.random.default_rng((seed, 8))
    report = Report(command=f"sweep:{sweep.name}", config_echo={"seed": seed})
    full = prolongation.prolong(_standard_contact(), full_circle=True)
    bottom = full.theta_slice(0.0)
    pt = mat = defect = 0.0
    for _ in range(sweep.transports):
        m = rng.uniform(-0.6, 0.6, 3)
        res = prolongation.slice_transport(full, bottom, bottom, m, tol=1e-11)
        pt = _worst(pt, float(np.max(np.abs(res.image - m))))
        mat = _worst(mat, float(np.max(np.abs(res.matrix - np.eye(2)))))
        defect = _worst(defect, res.contact_defect)
    report.add("return-point", sweep.transports, 1e-7, pt)
    report.add("return-matrix", sweep.transports, 1e-7, mat)
    report.add("return-contact-defect", sweep.transports, 1e-7, defect)

    std = prolongation.prolong(_standard_contact())
    incl = 0.0
    for _ in range(sweep.inclusions):
        theta = rng.uniform(0.05, 1.5)
        q = np.append(rng.uniform(-0.5, 0.5, 3), theta)
        incl = _worst(incl, abs(prolongation.development_angle(std, q, tol=1e-11) - theta))
    report.add("development-inclusion", sweep.inclusions, 1e-8, incl)

    pert = prolongation.prolong(_perturbed_contact())
    bad = 0
    for _ in range(sweep.leaves):
        m = rng.uniform(-0.4, 0.4, 3)
        angles = [prolongation.development_angle(pert, np.append(m, t), tol=1e-9)
                  for t in np.linspace(0.0, 1.4, 6)]
        bad += not all(b > a for a, b in zip(angles, angles[1:]))
    report.add("development-monotone", sweep.leaves, 0, bad)
    return report


def _body(report):
    body = report.as_dict()
    body.pop("wall_time_s")
    return json.dumps({"report": body, "rows": report.rows}, sort_keys=True, default=repr)


def _checks(part, report):
    return [(part, r.name, r.tolerance, r.max_defect, r.passed) for r in report.records]


def run_round(workload, seed):
    """Run every suite and sweep of ``workload`` once at its stated sizes.

    A part that raises is one failed check; the round goes on."""
    spec = WORKLOADS[workload]
    parts = [(f"cli.{s.command}", s) for s in spec.suites] + \
            [(f"sweep.{s.name}", s) for s in spec.sweeps]
    digest = hashlib.sha256()
    checks, spans = [], []
    t_start = time.perf_counter()
    for span, part in parts:
        t0 = time.perf_counter()
        try:
            if isinstance(part, Suite):
                report = cli.run(part.command, dict(part.config), seed, part.samples, part.tol)
            else:
                report = run_sweep(part, seed)
            body, part_checks = _body(report), _checks(span, report)
        except Exception as exc:  # a raising suite is a failed check, not a crash
            body = f"{type(exc).__name__}: {exc}"
            part_checks = [(span, "raised", 0.0, math.nan, False)]
        spans.append((span, t0, time.perf_counter()))
        digest.update(span.encode() + b"\0" + body.encode() + b"\0")
        checks.extend(part_checks)
    return RoundResult(digest=digest.hexdigest(), checks=checks, started=t_start,
                       elapsed=time.perf_counter() - t_start, parts=spans)


def _warm_realize():
    """The realize code path at one point of each kind.  The suite itself has
    a fixed cost of several seconds at any sample count (a 70-point spin grid
    and six flows at tol 1e-10/1e-11), which would dwarf every other set-up."""
    domain = prolongation.prolong(_standard_contact())
    h = scalar_field_from_expr(domain.chart, REALIZE_H, name="h")
    gen = deformation.ContactIsotopyGenerator(domain, h, REALIZE_SUPPORT)
    q = np.array([0.1, -0.2, 0.3, 0.5 * sum(REALIZE_SUPPORT)])
    deformed = deformation.realize_isotopy(domain, gen, samples=[q], validate=True)
    distributions.flag_ranks(deformed.frame(), q)
    deformed.W(q)
    deformation.bottom_to_top(deformed, q[:3], tol=1e-6)
    flow.integrate(lambda t, y: gen.X(np.append(y, t))[:3], q[:3], 0.0,
                   domain.theta_max, tol=1e-6)


def warm_up(workload):
    """One call of each suite or sweep of the workload at its smallest size,
    so that first-use costs land in set-up and not in the measured rounds.
    The inputs come from WARM_UP_SEED, not the run's seed: a single random
    geodesic costs from 0.6 to 0.9 s, and set-up must be the same work at
    every seed.

    A part that raises here raises again in every round, where it is counted
    as a failed check; set-up only notes it."""
    spec = WORKLOADS[workload]
    for part in spec.suites + spec.sweeps:
        try:
            if isinstance(part, Sweep):
                run_sweep(Sweep(part.name, transports=1, inclusions=1, leaves=1), WARM_UP_SEED)
            elif part.command == "realize":
                _warm_realize()
            else:
                cli.run(part.command, dict(part.config), WARM_UP_SEED, 1, part.tol)
        except Exception as exc:
            print(f"warm-up of {part} raised {type(exc).__name__}: {exc}", file=sys.stderr)

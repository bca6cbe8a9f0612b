"""Microbenchmark of the jet kernel (layer L0) and of pointwise geometry
(layer L2).

    python3 bench/jets_micro.py

L0: Jet mul, add and sin, and jet_compose and jet_invert, at 4 variables
order 3 and 3 variables order 4.  Operands are dense random jets from a
fixed seed; the change for compose and invert is an origin-preserving tuple
with a diagonally dominant linear part.

L2: ``flag_ranks`` at one point of the standard prolongation and of the
deformed frame of the ``realize`` suite (its default Hamiltonian and
support), the cost per point of one 200-point batch of that deformed frame,
and ``normalize_pair`` / ``verify`` on a random order-4 pair of the
``normal-form`` suite.  The ``taylor_calls`` block counts the field
evaluations (``_FieldBase.taylor`` calls) of one deformed point and of the
200-point batch.

Imports engellab from the ``src/`` next to this directory, so the same file
copied into another checkout measures that checkout.  Each item is timed in
11 samples of a batch sized to take about 50 ms; the JSON printed holds the
median and quartiles of the time per call in microseconds (per point for
the batch item).
"""

import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from engellab import calculus, cli  # noqa: E402
from engellab.deformation import ContactIsotopyGenerator, realize_isotopy  # noqa: E402
from engellab.distributions import flag_ranks  # noqa: E402
from engellab.expressions import scalar_field_from_expr  # noqa: E402
from engellab.jets import Jet, jet_compose, jet_invert, multi_indices  # noqa: E402
from engellab.normal_form import normalize_pair  # noqa: E402
from engellab.prolongation import prolong  # noqa: E402

SIZES = ((4, 3), (3, 4))
BATCH = 200
REALIZE_H = "0.05*sin(x) + 0.04*z*cos(y) + 0.03*y"
REALIZE_SUPPORT = (0.25, 1.3)
SAMPLES = 11
SAMPLE_S = 0.05


def dense_jet(rng, n, order, const):
    return Jet(n, order, {k: const if sum(k) == 0 else rng.uniform(-1.0, 1.0)
                          for k in multi_indices(n, order)})


def origin_change(rng, n, order):
    change = []
    for i in range(n):
        f = Jet(n, order)
        for k in multi_indices(n, order):
            if sum(k) == 1:
                f.c[k] = (3.0 if k[i] else 0.0) + rng.uniform(-1.0, 1.0)
            elif sum(k) >= 2:
                f.c[k] = rng.uniform(-0.3, 0.3)
        change.append(f)
    return change


def per_call_us(fn):
    reps, elapsed = 1, 0.0
    while elapsed < SAMPLE_S / 4:
        reps *= 2
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - t0
    reps = max(1, int(reps * SAMPLE_S / elapsed))
    samples = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps * 1e6)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "calls_per_sample": reps}


def taylor_calls(fn):
    """Field evaluations (``_FieldBase.taylor`` calls) made by ``fn()``."""
    orig, count = calculus._FieldBase.taylor, [0]

    def counted(self, point, order):
        count[0] += 1
        return orig(self, point, order)

    calculus._FieldBase.taylor = counted
    try:
        fn()
    finally:
        calculus._FieldBase.taylor = orig
    return count[0]


def l2_items(items, counts):
    domain = prolong(cli._base_contact({})[0])
    h = scalar_field_from_expr(domain.chart, REALIZE_H, name="h")
    gen = ContactIsotopyGenerator(domain, h, REALIZE_SUPPORT)
    deformed = realize_isotopy(domain, gen, validate=False).frame()
    pts = cli._domain_points(np.random.default_rng(4), BATCH, domain.theta_max)
    q = pts[0]
    items["flag_ranks_prolonged_point"] = per_call_us(lambda: flag_ranks(domain.frame(), q))
    items["flag_ranks_deformed_point"] = per_call_us(lambda: flag_ranks(deformed, q))
    batch = per_call_us(lambda: flag_ranks(deformed, pts))
    items[f"flag_ranks_deformed_batch{BATCH}_per_point"] = {
        k: v / BATCH if k.endswith("_us") else v for k, v in batch.items()}
    counts["deformed_point"] = taylor_calls(lambda: flag_ranks(deformed, q))
    counts[f"deformed_batch{BATCH}"] = taylor_calls(lambda: flag_ranks(deformed, pts))

    pair = cli._random_pair(np.random.default_rng(4))
    res = normalize_pair(pair)
    items["normalize_pair_o4"] = per_call_us(lambda: normalize_pair(pair))
    items["verify_o4"] = per_call_us(lambda: res.verify(pair))


def main():
    rng = random.Random(4)
    items = {}
    for n, order in SIZES:
        a, b = dense_jet(rng, n, order, 0.7), dense_jet(rng, n, order, -0.4)
        outer, change = origin_change(rng, n, order), origin_change(rng, n, order)
        size = f"n{n}_o{order}"
        items[f"mul_{size}"] = per_call_us(lambda: a * b)
        items[f"add_{size}"] = per_call_us(lambda: a + b)
        items[f"sin_{size}"] = per_call_us(a.sin)
        items[f"compose_{size}"] = per_call_us(lambda: jet_compose(outer, change))
        items[f"invert_{size}"] = per_call_us(lambda: jet_invert(change))
    counts = {}
    l2_items(items, counts)
    print(json.dumps({"python": platform.python_version(), "samples": SAMPLES,
                      "items": items, "taylor_calls": counts}, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()

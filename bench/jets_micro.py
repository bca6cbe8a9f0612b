"""Microbenchmark of the jet kernel (layer L0): Jet mul, add and sin, and
jet_compose and jet_invert, at 4 variables order 3 and 3 variables order 4.

    python3 bench/jets_micro.py

Imports engellab from the ``src/`` next to this directory, so the same file
copied into another checkout measures that checkout.  Operands are dense
random jets from a fixed seed; the change for compose and invert is an
origin-preserving tuple with a diagonally dominant linear part.  Each item
is timed in 11 samples of a batch sized to take about 50 ms; the JSON
printed holds the median and quartiles of the time per call in
microseconds.
"""

import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from engellab.jets import Jet, jet_compose, jet_invert, multi_indices  # noqa: E402

SIZES = ((4, 3), (3, 4))
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
    print(json.dumps({"python": platform.python_version(), "samples": SAMPLES,
                      "items": items}, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()

"""Check that the reference-speed scaling keeps a slowdown of engellab's own.

    python3 perfbench/probe_check.py

In one process it alternates rounds of the ``flags`` workload at seed 1
under three versions of ``Jet.__mul__``:

  A  as shipped
  B  a fixed pure-Python loop added to every jet product (more interpreter
     work)
  C  three self-referencing lists made and dropped in every jet product
     (more work for the garbage collector, which the reference kernel
     shares with engellab)

The versions are swapped in at run time by assigning ``Jet.__mul__`` in
this process; no file changes.  Each round runs under the benchmark's
:class:`worker.SpeedProbe`, which gives its raw time, its time at the
reference speed and the mean slice time.  Rounds of A, B and C run next to
each other, so a ratio such as B/A compares rounds that saw the same machine.
The scaling keeps the slowdown if the scaled ratio is as large as the raw
one, and the injection leaves the probe alone if the slice ratio is about 1.
Medians and quartiles of the ratios go to ``perfbench/probe_check.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402
from engellab import jets  # noqa: E402
from run import REFERENCE_SLICE_S  # noqa: E402
from worker import SpeedProbe  # noqa: E402

PAIRS = 40
WORKLOAD, SEED = "flags", 1


def main():
    shipped = jets.Jet.__mul__
    version = ["A"]

    def mul(self, other):
        if isinstance(other, jets.Jet):
            if version[0] == "B":
                for _ in range(60):
                    pass
            elif version[0] == "C":
                for _ in range(3):
                    cycle = [None]
                    cycle[0] = cycle
        return shipped(self, other)

    # all three versions pay for the same extra call
    jets.Jet.__mul__ = jets.Jet.__rmul__ = mul
    workloads.warm_up(WORKLOAD)
    probe = SpeedProbe()
    rounds = {v: [] for v in "ABC"}
    for i in range(PAIRS):
        for v in ("ABC" if i % 2 == 0 else "CBA"):
            version[0] = v
            with probe:
                rnd = workloads.run_round(WORKLOAD, SEED)
            slice_s = statistics.fmean(probe.slices)
            raw = rnd.elapsed - sum(probe.slices)
            rounds[v].append(dict(raw_s=raw, scaled_s=raw * REFERENCE_SLICE_S / slice_s,
                                  slice_s=slice_s))
    ratios = {}
    for v in "BC":
        for measure in ("raw_s", "scaled_s", "slice_s"):
            values = [b[measure] / a[measure] for a, b in zip(rounds["A"], rounds[v])]
            q1, med, q3 = statistics.quantiles(values, n=4)
            ratios[f"{v}/A {measure}"] = dict(median=med, q1=q1, q3=q3, n=len(values))
            print(f"{v}/A {measure:<9} median {med:.4f}  "
                  f"q1 {q1:.4f}  q3 {q3:.4f}", flush=True)
    with open(os.path.join(HERE, "probe_check.json"), "w") as fh:
        json.dump(dict(workload=WORKLOAD, seed=SEED, pairs=PAIRS, ratios=ratios, rounds=rounds),
                  fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

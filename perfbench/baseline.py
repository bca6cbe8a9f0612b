"""Baseline and spread table for the engellab benchmark, from one command.

    python3 perfbench/baseline.py

For each workload declared in ``BENCHMARK.json`` it runs ``run.py`` untraced
once for each of the seeds 1-10 and reports, for every end-to-end metric,
the median, the quartiles (``statistics.quantiles`` with n=4), the sample
count and the spread (q3 - q1) / median against the metric's bound.  It then
runs the traced run twice at seed 1 and checks that every count agrees
between the two processes as well as between the rounds inside each.
Results, with the seed of every run, go to ``perfbench/baseline.json``; the
per-layer table goes to ``perfbench/baseline_layers.md``.  It exits non-zero
if a run fails a check, a count does not repeat, or a spread is wider than a
third of its bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layertrace import COUNT_METRICS, LAYER_METRICS  # noqa: E402

SEEDS = range(1, 11)
TRACED_SEED = 1


def bench(workload, seed, trace, seconds):
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    run_s = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return dict(seed=seed, correct=result["correct"], attempted=result["attempted"],
                failed=result["failed"],
                metrics={k: v["value"] for k, v in result["metrics"].items()},
                detail=detail, run_s=run_s)


def _quartiles(values, **extra):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return dict(median=med, q1=q1, q3=q3, n=len(values), spread=(q3 - q1) / med, **extra)


def summarize(runs, end_to_end):
    out = {m["name"]: _quartiles([r["metrics"][m["name"]] for r in runs],
                                 unit=m["unit"], bound=m["bound"]) for m in end_to_end}
    # the raw seconds behind setup_s and wall_s, for the record (no bound)
    for name in ("raw_setup_s", "raw_wall_s", "reference_s"):
        out[name] = _quartiles([r["detail"][name] for r in runs], unit="s", bound=None)
    return out


def layer_table(report):
    names = list(report["workloads"])
    lines = [
        f"# Per-layer baseline (traced run, seed {TRACED_SEED})", "",
        "Written by `python3 perfbench/baseline.py`; the same values are under "
        "`workloads.<name>.traced.metrics` in `baseline.json`. Counts repeat exactly "
        "between traced rounds and between two traced processes; times are medians of the "
        "traced rounds and include the tracing overhead (`trace.overhead_s`).", "",
        "| layer metric | unit | " + " | ".join(names) + " |",
        "| --- | --- |" + " --- |" * len(names),
    ]
    for metric, unit, _ in LAYER_METRICS:
        cells = [report["workloads"][w]["traced"]["metrics"][metric] for w in names]
        text = [str(c) if isinstance(c, int) else f"{c:.6g}" for c in cells]  # counts exact
        lines.append(f"| {metric} | {unit} | " + " | ".join(text) + " |")
    return "\n".join(lines) + "\n"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = dict(machine=dict(python=platform.python_version(), system=platform.system(),
                               machine=platform.machine(), cpus=os.cpu_count()),
                  run_seconds=seconds, workloads={})
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for seed in SEEDS:
            runs.append(bench(name, seed, 0, seconds))
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = summarize(runs, spec["end_to_end"])
        traced = [bench(name, TRACED_SEED, 1, seconds) for _ in range(2)]
        counts_repeat = all(traced[0]["metrics"][k] == traced[1]["metrics"][k]
                            for k in COUNT_METRICS)
        report["workloads"][name] = dict(
            why=workload["why"], runs=runs, summary=summary,
            traced=dict(seed=TRACED_SEED, metrics=traced[0]["metrics"],
                        overhead_s=[t["metrics"]["trace.overhead_s"] for t in traced],
                        correct=[t["correct"] for t in traced],
                        counts_repeat_across_processes=counts_repeat))
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs + traced) and counts_repeat
        for metric, s in summary.items():
            verdict = ""
            if s["bound"] is not None:
                steady = s["spread"] <= s["bound"] / 3
                ok &= steady
                verdict = "  ok" if steady else "  WIDE"
            print(f"  {metric:<16} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}  "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){verdict}", flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    with open(os.path.join(HERE, "baseline_layers.md"), "w") as fh:
        fh.write(layer_table(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

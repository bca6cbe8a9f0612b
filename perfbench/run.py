"""engellab benchmark: time to every verdict of a workload, end to end, and
per-layer counts and times from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports engellab from ``src/`` and
needs nothing built.  The workloads are in ``workloads.py`` (why each was
chosen is in ``BENCHMARK.json``); the layers and their metrics in
``layertrace.py``.

With ``--trace 0`` the run starts three fresh worker processes one after the
other (one process works at a time, each single-threaded).  Each worker
imports engellab, warms the workload up at its smallest size, then repeats
the workload's round for a third of ``--seconds``.  More processes that stop
after the warm-up follow, so that set-up is timed several times.  It
reports, with units:

  setup_s         median over all processes of process start -> import
                  engellab -> warm-up done
  wall_s          median round time: every verdict of the workload at its
                  stated sizes

Both times are in seconds at a reference speed.  A shared machine changes
speed by tens of percent within seconds, so while set-up and rounds run,
worker.SpeedProbe times short slices of a fixed kernel; each time is its
elapsed time without the slices, times REFERENCE_SLICE_S / the mean slice
time.  The raw seconds are in the detail line (raw_setup_s, raw_wall_s).
It also reports:

  peak_rss_mb     largest peak resident set of the workers (getrusage)
  pass_share      checks passed / checks attempted, i.e. 1 - fail_share; a
                  suite that raises is one failed check
  margin_decades  smallest log10(tolerance / max_defect) over checks with a
                  tolerance (zero defect = 16); higher is better

With ``--trace 1`` one worker runs an untraced reference round, then at
least two rounds with every layer wrapped (see ``layertrace.py``), and
reports the per-layer metrics: counts from one round, times as medians, and
the tracing overhead (traced minus untraced round time).

Every run checks every verdict, that all rounds of the seed produce the same
report bodies byte for byte (across processes, and traced against
untraced), and with tracing that every count repeats exactly between traced
rounds.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKERS = 3  # processes that run rounds
# Processes that stop after set-up follow them, at least two and until their
# set-ups took this share of --seconds; setup_s is the median over all.
SETUP_SHARE = 0.15
# Times are reported in seconds at the speed where one reference-kernel slice
# (worker.SpeedProbe) takes this long: about the median slice on the 2-vCPU
# x86-64 virtual machine the baseline in baseline.json was measured on.
REFERENCE_SLICE_S = 0.002
DEADLINE_S = 170  # a run must end within 180 s; a hung worker is killed first
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# (name, unit, better, bound): bound is the share of the parent's median by
# which a metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_share", "ratio", "higher", 0.01),
    ("margin_decades", "decades", "higher", 0.2),
)


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _on_deadline(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def run_worker(workload, seed, share, trace):
    """Start one worker, time it from process start to ``ready``, collect its
    events and wait for it to end."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           repr(share), "1" if trace else "0"]
    env = dict(os.environ, **SINGLE_THREAD)
    setup, setup_slices, rounds, done = None, None, [], None
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            for line in proc.stdout:
                event = json.loads(line)
                if event["event"] == "ready":
                    setup, setup_slices = time.perf_counter() - t0, event["slices"]
                elif event["event"] == "round":
                    rounds.append(event)
                elif event["event"] == "done":
                    done = event
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or setup is None or done is None or (share and not rounds):
        raise BenchError(f"worker for {workload!r} failed (exit {proc.returncode})")
    return dict(setup=setup, setup_slices=setup_slices, rounds=rounds,
                maxrss_kb=done["maxrss_kb"])


def at_reference_speed(elapsed, slices):
    """Seconds of work at the reference speed: the elapsed time without the
    probe's slices, scaled by how much slower or faster than
    REFERENCE_SLICE_S the slices ran meanwhile."""
    work = elapsed - sum(slices)
    return work, work * REFERENCE_SLICE_S / statistics.fmean(slices)


def margin_decades(checks):
    """Smallest log10(tolerance / max_defect) over checks with a tolerance; a
    zero defect counts as 16 decades, a NaN defect as -16."""
    out = 16.0
    for _, _, tol, defect, _ in checks:
        if tol > 0.0:
            if defect != defect:
                return -16.0
            out = min(out, 16.0 if defect == 0.0 else math.log10(tol / defect))
    return out


def _verdicts(rounds):
    attempted = sum(len(r["checks"]) for r in rounds)
    failed = sum(not c[4] for r in rounds for c in r["checks"])
    deterministic = len({r["digest"] for r in rounds}) == 1
    return attempted, failed, deterministic


def untraced(workload, seed, seconds):
    workers = [run_worker(workload, seed, seconds / WORKERS, False) for _ in range(WORKERS)]
    setup_only = []
    while len(setup_only) < 2 or sum(w["setup"] for w in setup_only) < SETUP_SHARE * seconds:
        setup_only.append(run_worker(workload, seed, 0.0, False))
    rounds = [r for w in workers for r in w["rounds"]]
    attempted, failed, deterministic = _verdicts(rounds)
    setups = [at_reference_speed(w["setup"], w["setup_slices"]) for w in workers + setup_only]
    walls = [at_reference_speed(r["elapsed"], r["slices"]) for r in rounds]
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": statistics.median(s for _, s in walls),
        "peak_rss_mb": max(w["maxrss_kb"] for w in workers + setup_only) / 1024.0,
        "pass_share": 1.0 - failed / attempted,
        "margin_decades": min(margin_decades(r["checks"]) for r in rounds),
    }
    slice_s = [statistics.fmean(r["slices"]) for r in rounds]
    detail = dict(raw_setup_s=statistics.median(raw for raw, _ in setups),
                  raw_wall_s=statistics.median(raw for raw, _ in walls),
                  reference_s=statistics.median(slice_s),
                  setups_raw_s=[raw for raw, _ in setups], rounds_raw_s=[raw for raw, _ in walls],
                  slices_per_round=[len(r["slices"]) for r in rounds], slice_mean_s=slice_s,
                  parts_s=_part_medians(rounds), deterministic=deterministic,
                  failed_checks=_failed(rounds))
    units = {name: unit for name, unit, _, _ in END_TO_END}
    return metrics, units, attempted, failed, deterministic, detail


def _part_medians(rounds):
    names = [name for name, _, _ in rounds[0]["parts"]]
    return {name: statistics.median(end - start for r in rounds
                                    for n, start, end in r["parts"] if n == name)
            for name in names}


def _failed(rounds):
    return sorted({f"{c[0]}:{c[1]}" for r in rounds for c in r["checks"] if not c[4]})


def traced(workload, seed, seconds):
    from layertrace import COUNT_METRICS, LAYER_METRICS

    worker = run_worker(workload, seed, seconds, True)
    reference = [r for r in worker["rounds"] if r["kind"] == "reference"]
    rounds = [r for r in worker["rounds"] if r["kind"] == "traced"]
    if len(reference) != 1 or len(rounds) < 2:
        raise BenchError("traced worker returned the wrong rounds")
    attempted, failed, inert = _verdicts(reference + rounds)
    repeats = [name for name in COUNT_METRICS
               if name in rounds[0]["layers"]
               and len({r["layers"][name] for r in rounds}) != 1]
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        if name in rounds[0]["layers"]:
            values = [r["layers"][name] for r in rounds]
            metrics[name] = statistics.median(values) if unit == "s" else values[0]
    parts = _part_medians(rounds)
    for name in units:
        if name.startswith(("cli.", "sweep.")):
            metrics[name] = parts.get(name[:-len(".s")], 0.0)
    traced_wall = statistics.median(r["elapsed"] for r in rounds)
    metrics["trace.untraced_wall_s"] = reference[0]["elapsed"]
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - reference[0]["elapsed"]
    spans = []
    for r in rounds:
        rid = len(spans)
        spans.append(dict(id=rid, parent=None, name="round", start=0.0, end=r["elapsed"]))
        spans += [dict(id=rid + 1 + j, parent=rid, name=n, start=a, end=b)
                  for j, (n, a, b) in enumerate(r["parts"])]
    detail = dict(inert=inert, counts_repeat=not repeats, counts_not_repeating=repeats,
                  traced_rounds=len(rounds), failed_checks=_failed(reference + rounds),
                  spans=spans)
    return metrics, units, attempted, failed, inert and not repeats, detail


def _matches_declared(trace, names):
    """BENCHMARK.json must declare exactly the metrics this run emits, with
    the units, directions and bounds of the tables in the code."""
    from layertrace import LAYER_METRICS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if trace:
        table = [dict(name=n, unit=u, better=b) for n, u, b in LAYER_METRICS]
    else:
        table = [dict(name=n, unit=u, better=b, bound=x) for n, u, b, x in END_TO_END]
    return (spec["per_layer" if trace else "end_to_end"] == table
            and sorted(m["name"] for m in table) == sorted(names))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "engellab", "__init__.py")):
        print(f"error: no engellab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        measure = traced if args.trace else untraced
        metrics, units, attempted, failed, consistent, detail = \
            measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    if not _matches_declared(args.trace, metrics):
        print("error: metrics differ from those declared in BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"engellab benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  checks={attempted}  failed={failed}  "
          f"{'deterministic' if consistent else 'NOT REPRODUCIBLE'}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print(json.dumps({"detail": dict(workload=args.workload, seed=args.seed,
                                     trace=args.trace, **detail)}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measuring process of the engellab benchmark, started by ``run.py``.

    python3 perfbench/worker.py <workload> <seed> <share_seconds> <trace 0|1>

It imports engellab from ``src/`` of the checkout, warms up the workload at
its smallest size (at a fixed seed, so set-up is the same work at every
seed) and announces ``ready`` (the parent times set-up from
process start to this line), then runs rounds for about ``share_seconds``
(none if it is 0).
Set-up and untraced rounds run under a :class:`SpeedProbe`.
With tracing on it runs one untraced reference round first, then at least
two traced rounds.  Each event is one JSON line on standard output; library
output, if any, goes to standard error.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _emit(stream, **event):
    stream.write(json.dumps(event) + "\n")
    stream.flush()


def _round_event(kind, rnd, extra=None):
    event = dict(kind=kind, digest=rnd.digest, elapsed=rnd.elapsed, checks=rnd.checks,
                 parts=[(name, start - rnd.started, end - rnd.started)
                        for name, start, end in rnd.parts])
    event.update(extra or {})
    return event


# Dense 3-variable polynomials of order 4 as dicts of exponent tuples, plus
# small SVDs for about a fifth of the time: the same kinds of work as
# engellab's jets and rank tests (that mix tracked the speed of both the
# flags and the normal-form rounds best), in code no change to engellab can
# touch.
_KEYS = [(a, b, c) for a in range(5) for b in range(5) for c in range(5) if a + b + c <= 4]
_M = np.arange(20.0).reshape(4, 5) / 7.0


def reference_kernel(reps):
    """Fixed pure-Python and small-numpy work; returns its run time."""
    poly = {k: 1.0 / (1 + sum(k)) for k in _KEYS}
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(reps):
        out = {}
        for k1, v1 in poly.items():
            d1 = sum(k1)
            for k2, v2 in poly.items():
                if d1 + sum(k2) <= 4:
                    k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                    out[k] = out.get(k, 0.0) + v1 * v2
        acc += out[(0, 0, 0)]
        for _ in range(4):
            acc += float(np.linalg.svd(_M + acc * 1e-12, compute_uv=False)[0])
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's current speed while a round runs.

    On a shared machine the speed of a core changes by tens of percent within
    seconds.  Every ``period`` seconds a SIGALRM handler times a short slice
    of :func:`reference_kernel` in this thread; the round's own time is its
    elapsed time minus the slices, and dividing it by the mean slice time
    gives the round in units of the reference kernel at the speed the round
    actually ran at.  The slices touch no engellab state, and the garbage
    collector is off while one runs, so that collecting engellab's garbage
    is never charged to a slice and divided out of the round.
    """

    def __init__(self, period=0.05, reps=6):
        self.period, self.reps = period, reps
        self.slices = []
        reference_kernel(1)  # the first call loads LAPACK; keep that out of the slices

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.slices.append(reference_kernel(self.reps))
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self.slices = []
        self._tick(None, None)  # at least one sample, however short the work
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _keep_going(done, elapsed, share, minimum):
    """Start another round only if it is expected to end within the share."""
    if done < minimum:
        return True
    return done > 0 and elapsed + elapsed / done <= share


def main(argv):
    workload, seed, share, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    proto, sys.stdout = sys.stdout, sys.stderr
    sys.path.insert(0, SRC)
    probe = SpeedProbe()
    with probe:
        import engellab
        if os.path.dirname(os.path.abspath(engellab.__file__)) != os.path.join(SRC, "engellab"):
            raise SystemExit(f"engellab imported from {engellab.__file__}, not from {SRC}")
        import workloads

        workloads.warm_up(workload)
    _emit(proto, event="ready", slices=probe.slices)

    t0 = time.perf_counter()
    done = 0
    if not trace:
        # a share of 0 times set-up only
        while _keep_going(done, time.perf_counter() - t0, share, 1 if share else 0):
            with probe:
                rnd = workloads.run_round(workload, seed)
            _emit(proto, event="round", **_round_event("plain", rnd, {"slices": probe.slices}))
            done += 1
    else:
        from layertrace import Tracer

        reference = workloads.run_round(workload, seed)
        _emit(proto, event="round", **_round_event("reference", reference))
        tracer = Tracer()
        tracer.install()
        try:
            while _keep_going(done, time.perf_counter() - t0, share, 2):
                tracer.reset()
                rnd = workloads.run_round(workload, seed)
                layers = tracer.layer_metrics()
                _emit(proto, event="round", **_round_event("traced", rnd, {"layers": layers}))
                done += 1
        finally:
            tracer.uninstall()
    _emit(proto, event="done", maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main(sys.argv[1:])

"""The sha256 digests of the report bodies that "bit for bit" claims rest on.

    python3 bench/digests.py > digests.txt

Prints 26 lines ``<name> seed=<s> <sha256>``: the nine CLI suites at their
default sample counts and tolerances with an empty config, then
``workloads.run_round`` of the four benchmark workloads, each at seeds 1
and 2.  A suite's body is its report without the wall time, serialized as
``perfbench/workloads.py`` does it; a workload's digest is the one its round
returns.  A suite or round that raises prints the exception's type and text
in place of the digest.  The script only reads the code of its checkout, so
running it in two checkouts and comparing the outputs with ``diff`` shows
whether a change moved any report body.  One run takes about 20 s on a
2-vCPU machine.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from engellab import cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def suite_digest(command, seed):
    _, samples, tol = cli.SUITES[command]
    report = cli.run(command, {}, seed, samples, tol)
    return hashlib.sha256(workloads._body(report).encode()).hexdigest()


def round_digest(workload, seed):
    return workloads.run_round(workload, seed).digest


def main():
    jobs = [(name, suite_digest, name) for name in cli.SUITES] + \
           [(f"workload.{name}", round_digest, name) for name in workloads.WORKLOADS]
    for label, digest, name in jobs:
        for seed in SEEDS:
            try:
                out = digest(name, seed)
            except Exception as exc:  # a raising suite is a line of its own
                out = f"{type(exc).__name__}: {exc}"
            print(f"{label} seed={seed} {out}", flush=True)


if __name__ == "__main__":
    main()

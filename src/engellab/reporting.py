"""Report data model and serializers for the command-line suites.

A report is a list of check records; each record carries the observed worst
defect and the tolerance it was held to.  The body (everything except the
wall time) is deterministic for a fixed config and seed, so reports can be
compared byte for byte in tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__


def worst_of(worst, *defects):
    """Fold defects into the running worst; NaN is sticky, because
    ``max(0.0, nan)`` is 0.0 and would turn a NaN defect into a pass."""
    for defect in defects:
        worst = defect if (defect != defect or defect > worst) else worst
    return worst


@dataclass
class CheckRecord:
    """One verification check: pass iff max_defect <= tolerance."""

    name: str
    samples: int
    tolerance: float
    max_defect: float
    detail: str = ""

    @property
    def passed(self):
        return self.max_defect <= self.tolerance

    def as_dict(self):
        return {
            "name": self.name,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "max_defect": self.max_defect,
            "pass": self.passed,
            "detail": self.detail,
        }


@dataclass
class Report:
    command: str
    config_echo: dict
    records: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # optional per-sample CSV rows
    row_header: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def add(self, name, samples, tolerance, max_defect, detail=""):
        rec = CheckRecord(name=name, samples=samples, tolerance=float(tolerance),
                          max_defect=float(max_defect), detail=detail)
        self.records.append(rec)
        return rec

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def as_dict(self):
        return {
            "command": self.command,
            "version": __version__,
            "config": self.config_echo,
            "checks": [r.as_dict() for r in self.records],
            "pass": self.passed,
            "wall_time_s": round(self.wall_time_s, 3),
        }


def _fmt_float(x):
    if x != x:  # nan
        return "nan"
    return f"{x:.6e}"


def render_json(report):
    return json.dumps(report.as_dict(), indent=2, sort_keys=False) + "\n"


def render_text(report):
    lines = [f"engellab {__version__}  command: {report.command}"]
    name_w = max([len(r.name) for r in report.records] + [4])
    lines.append(f"{'check'.ljust(name_w)}  {'samples':>7}  {'tolerance':>12}  {'max defect':>12}  result")
    for r in report.records:
        verdict = "pass" if r.passed else "FAIL"
        line = (f"{r.name.ljust(name_w)}  {r.samples:>7d}  {_fmt_float(r.tolerance):>12}  "
                f"{_fmt_float(r.max_defect):>12}  {verdict}")
        if r.detail:
            line += f"  ({r.detail})"
        lines.append(line)
    lines.append("overall: " + ("pass" if report.passed else "FAIL"))
    lines.append(f"wall time: {report.wall_time_s:.3f}s")
    return "\n".join(lines) + "\n"


def render_csv(report):
    """Per-sample rows when the suite collected them, else one row per check."""
    out = []
    if report.rows:
        out.append(",".join(report.row_header))
        for row in report.rows:
            out.append(",".join(_csv_cell(v) for v in row))
    else:
        out.append("name,samples,tolerance,max_defect,pass")
        for r in report.records:
            out.append(f"{r.name},{r.samples},{_fmt_float(r.tolerance)},"
                       f"{_fmt_float(r.max_defect)},{str(r.passed).lower()}")
    return "\n".join(out) + "\n"


def _csv_cell(v):
    if isinstance(v, float):
        return f"{v:.12e}"
    return str(v)


RENDERERS = {"json": render_json, "text": render_text, "csv": render_csv}


def render(report, fmt):
    return RENDERERS[fmt](report)

"""Command-line driver: exit codes, determinism, formats, config
handling."""

import json

import pytest

from engellab import cli
from engellab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_wall_time(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("wall time"))


def test_verify_engel_passes(capsys):
    code, out, err = run_cli(capsys, "verify-engel", "--samples", "50")
    assert code == 0
    assert "overall: pass" in out
    assert "engel-flag" in out and "characteristic-line" in out


def test_failing_frame_exits_one(capsys):
    cfg = {"frame": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}
    path = "/tmp/engellab_fail.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    code, out, err = run_cli(capsys, "verify-engel", "--config", path,
                             "--samples", "20")
    assert code == 1
    assert "overall: FAIL" in out
    assert "ranks (2, 2, 2)" in out


def test_bad_config_exits_two(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, out, err = run_cli(capsys, "verify-engel", "--config", str(p))
    assert code == 2
    assert "config error" in err


def test_missing_config_exits_two(capsys):
    code, out, err = run_cli(capsys, "verify-engel", "--config", "/nonexistent.json")
    assert code == 2


def test_geometry_error_exits_three(capsys, tmp_path):
    # an isotopy too large to stay Engel: spin drops below -1 somewhere
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"h": "3*sin(x) + 2*z*cos(y)"}))
    code, out, err = run_cli(capsys, "realize", "--config", str(p),
                             "--samples", "40")
    assert code == 3
    assert "geometry error" in err
    assert "at point" in err  # offending point is logged


def test_expression_domain_error_exits_three(capsys, tmp_path):
    # sqrt of a negative coordinate: a geometry error at the sample point,
    # not a crash with a traceback
    p = tmp_path / "sqrt.json"
    p.write_text(json.dumps({"frame": [["0", "0", "0", "1"], ["1", "w", "sqrt(x)*y", "0"]]}))
    code, out, err = run_cli(capsys, "verify-engel", "--config", str(p),
                             "--samples", "20")
    assert code == 3
    assert "geometry error" in err
    assert "at point" in err


def test_jet_domain_error_exits_three(capsys, tmp_path):
    # the profile is evaluated on jets along geodesics; sqrt of a negative
    # u is a geometry error at the point, not a bare library error or a
    # sample that merely did not return
    p = tmp_path / "profile.json"
    p.write_text(json.dumps({"metric": "revolution", "profile": "sqrt(u)",
                             "expect_return": False}))
    code, out, err = run_cli(capsys, "zoll-closedness", "--config", str(p),
                             "--samples", "4")
    assert code == 3
    assert "geometry error" in err
    assert "jet sqrt" in err
    assert "at point" in err


def test_nan_defect_in_middle_sample_fails(monkeypatch):
    defects = iter([0.0, float("nan"), 0.0])
    monkeypatch.setattr(cli, "plane_principal_angle", lambda got, want: next(defects))
    report = cli.run("contactify", {"slices": [0.0]}, 0, 3, 1e-8)
    rec, = report.records
    assert rec.max_defect != rec.max_defect
    assert not rec.passed and not report.passed


def test_deterministic_report_body(capsys, tmp_path):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "contactify", "--samples", "12",
                               "--seed", "7")
        assert code == 0
        outs.append(strip_wall_time(out))
    assert outs[0] == outs[1]


def test_seed_changes_sampling(capsys):
    _, a, _ = run_cli(capsys, "normal-form", "--samples", "3", "--seed", "1")
    _, b, _ = run_cli(capsys, "normal-form", "--samples", "3", "--seed", "2")
    assert strip_wall_time(a) != strip_wall_time(b)


def test_json_format_structure(capsys):
    code, out, _ = run_cli(capsys, "so3", "--samples", "30", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "so3"
    assert doc["pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "engel-flag" in names and "so3-bracket-table" in names
    assert doc["config"]["samples"] == 30


def test_csv_rows_for_closedness(capsys):
    code, out, _ = run_cli(capsys, "zoll-closedness", "--samples", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("chart,x1,x2,psi,returned,arclength,defect")
    assert len(lines) == 4
    assert all(l.split(",")[4] == "true" for l in lines[1:])


def test_out_file_writing(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify-engel", "--samples", "20",
                           "--format", "json", "--out", str(dest))
    assert code == 0
    assert out == ""
    doc = json.loads(dest.read_text())
    assert doc["command"] == "verify-engel"


def test_config_overrides_defaults(capsys, tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"samples": 15, "slices": [0.4]}))
    code, out, _ = run_cli(capsys, "contactify", "--config", str(p),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["samples"] == 15
    assert doc["config"]["slices"] == [0.4]


def test_ode_audit_in_config_echo(capsys, tmp_path):
    p = tmp_path / "ode.json"
    p.write_text(json.dumps({"ode": "y*p + x^2"}))
    code, out, _ = run_cli(capsys, "normal-form", "--config", str(p),
                           "--samples", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["f_coeffs"] == {"011": 1.0, "200": 1.0}
    steps = [s["step"] for s in doc["config"]["steps"]]
    assert steps[0] == "straighten"


def test_invalid_sample_count_rejected(capsys):
    code, out, err = run_cli(capsys, "verify-engel", "--samples", "-3")
    assert code == 2

"""Command-line driver: exit codes, determinism, formats, config
handling."""

import json
import math
import warnings

import numpy as np
import pytest

from engellab import cli, distributions
from engellab.cli import main
from engellab.deformation import GraySolution
from engellab.distributions import DistributionFrame, FlagReport, flag_ranks, line_angle
from engellab.errors import GeometryError
from engellab.expressions import vector_field_from_exprs
from engellab.jets import value
from engellab.zoll import ClosednessReport, SampleReturn


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


@pytest.mark.parametrize("command,cfg,key", [
    ("verify-engel", {"samples": "many"}, "samples"),
    ("gray", {"grid": "five"}, "grid"),
    ("contactify", {"slices": 0.5}, "slices"),
    ("zoll-closedness", {"metric": "plane", "bound": "far"}, "bound"),
    ("gray", {"form_components": ["t*x - y", "1"]}, "form_components"),
    ("gray", {"legendrian": [0.0, 1.0]}, "legendrian"),
    ("gray", {"grid": 0}, "grid"),
    ("gray", {"grid": 1}, "grid"),
    ("realize", {"support": [0.3]}, "support"),
    ("verify-engel", {"char_direction": [0.0, 0.0, 1.0]}, "char_direction"),
    ("prolong", {"legendrian_frame": [["0", "1", "0"]]}, "legendrian_frame"),
    ("contactify", {"legendrian_frame": [["0", "1", "0"]]}, "legendrian_frame"),
    ("realize", {"legendrian_frame": [["0", "1", "0"]]}, "legendrian_frame"),
    ("verify-engel", {"coords": ["x", "y", "z"]}, "coords"),
    ("prolong", {"coords": ["x", "y", "z", "w"]}, "coords"),
])
def test_wrong_typed_config_value_exits_two(capsys, tmp_path, command, cfg, key):
    # a config value of the wrong type, or a list of the wrong length, is a
    # config error naming its key, not a traceback
    p = tmp_path / "typed.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, command, "--config", str(p))
    assert code == 2
    assert "config error" in err and repr(key) in err


@pytest.mark.parametrize("cfg,key", [
    ({"metric": "plane", "bound": 0}, "bound"),
    ({"metric": "revolution", "profile": "sin(u)", "bound": -2.0}, "bound"),
    ({"metric": "plane", "max_arclength": -1}, "max_arclength"),
    ({"metric": "sphere", "max_arclength": -1}, "max_arclength"),
    ({"metric": "sphere", "sample_radius": -3}, "sample_radius"),
])
def test_vacuous_zoll_config_exits_two(capsys, tmp_path, cfg, key):
    # a bound or arclength that is not positive, or a negative sample radius,
    # leaves nothing to measure: the plane's no-return check passed on
    # samples that escaped or ran backwards, the sphere's all-return check
    # failed (exit 1); both are config errors naming the key
    p = tmp_path / "vacuous.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "zoll-closedness", "--config", str(p))
    assert code == 2
    assert "config error" in err and repr(key) in err


def test_gray_reads_a_number_component_as_a_constant(capsys, tmp_path):
    # "0" evaluates to a number, not a jet: the path lifts it to a constant,
    # and the checks are those of the default middle component "0*y"
    comps = list(cli._gray_path({})[1])
    comps[1] = "0"
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({"form_components": comps}))
    code, out, err = run_cli(capsys, "gray", "--config", str(p), "--format", "json")
    default = run_cli(capsys, "gray", "--format", "json")
    assert code == 0 and default[0] == 0
    assert json.loads(out)["checks"] == json.loads(default[1])["checks"]


def test_refinement_halving_floors_a_rounding_level_coarse_defect(capsys, tmp_path, monkeypatch):
    # a path that the coarse grid already solves to rounding: both defects
    # are about 4.5e-16, and their ratio is noise, so the coarse defect is
    # floored at REFINEMENT_FLOOR and the run passes
    p = tmp_path / "exact.json"
    p.write_text(json.dumps({"form_components": ["t*x - y", "0*y", "1"]}))
    code, out, _ = run_cli(capsys, "gray", "--config", str(p), "--samples", "5")
    assert code == 0, out
    # the default path's coarse defect is above the floor: its ratio and
    # detail are those of the unfloored division
    _, samples, tol = cli.SUITES["gray"]
    floored = cli.run("gray", {}, 0, samples, tol).records[-1]
    monkeypatch.setattr(cli, "REFINEMENT_FLOOR", 1e-300)
    plain = cli.run("gray", {}, 0, samples, tol).records[-1]
    assert (floored.max_defect, floored.detail) == (plain.max_defect, plain.detail)
    assert floored.passed
    monkeypatch.undo()
    # a fine defect above a floored coarse one still fails: scale the fine
    # grid's plane defects (9 grid times) by 1e3
    pullback = GraySolution.pullback_defect

    def scaled(sol, x0):
        reports = pullback(sol, x0)
        if len(sol.t_grid) == 9:
            for r in reports:
                r["plane_defect"] *= 1e3
        return reports

    monkeypatch.setattr(GraySolution, "pullback_defect", scaled)
    code, out, _ = run_cli(capsys, "gray", "--config", str(p), "--samples", "5")
    assert code == 1 and "refinement-halving" in out and "FAIL" in out


@pytest.mark.parametrize("argv,checked", [(("--samples", "5"), 5), ((), 10)])
def test_gray_reports_the_hypothesis_samples_it_checked(capsys, argv, checked):
    # the hypothesis check reads the first ten sample points, or all of fewer
    code, out, _ = run_cli(capsys, "gray", *argv, "--format", "json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 0 and checks["hypothesis"]["samples"] == checked


@pytest.mark.parametrize("h", [
    "(" * 1000 + "x" + ")" * 1000,
    "-" * 5000 + "x",
    "sin(" * 400 + "x" + ")" * 400,
], ids=["parentheses", "minuses", "sines"])
def test_deeply_nested_expression_exits_two(capsys, tmp_path, h):
    p = tmp_path / "deep.json"
    p.write_text(json.dumps({"h": h}))
    code, out, err = run_cli(capsys, "realize", "--config", str(p), "--samples", "5")
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


@pytest.mark.xfail(strict=True, reason="the spin grid and the flag samples miss the bump, "
                                       "so realize passes; a certified range of g would fail it")
def test_narrow_bump_that_breaks_the_engel_condition_fails(capsys, tmp_path):
    # near m = (0.3, 0.3, 0.3) the spin reaches about -1.48 (a dense scan of
    # [0.2, 0.4]^3 x theta), where the flag ranks drop to (2, 2, 3)
    p = tmp_path / "bump.json"
    p.write_text(json.dumps({"h": "0.008*exp(-200*((x-0.3)^2+(y-0.3)^2+(z-0.3)^2))"}))
    code, out, err = run_cli(capsys, "realize", "--config", str(p))
    assert code == 1, out


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


def test_batch_error_reports_the_point_of_the_sample_loop(capsys, tmp_path):
    # the flag samples run as one batch; the error printed is the one a loop
    # over the samples raises first, at a sample after the first
    frame = [["0", "0", "0", "1"], ["1", "w", "y + log(x + 0.5)", "0"]]
    p = tmp_path / "log.json"
    p.write_text(json.dumps({"frame": frame}))
    code, out, err = run_cli(capsys, "verify-engel", "--config", str(p),
                             "--samples", "30", "--seed", "4")
    assert code == 3
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, (30, 4))
    first = int(np.argmax(pts[:, 0] <= -0.5))
    assert first > 0
    fields = [vector_field_from_exprs(cli.ENGEL_CHART, comp) for comp in frame]
    with pytest.raises(GeometryError) as loop:
        for q in pts:
            flag_ranks(DistributionFrame(fields), q)
    assert np.array_equal(loop.value.point, pts[first])
    assert err.strip() == (f"geometry error: {loop.value} at point "
                           f"{np.round(pts[first], 6).tolist()}")


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


def test_lone_point_jet_overflow_exits_three(capsys, tmp_path):
    # the profile's order-1 jets at a lone point overflow: a geometry error
    # at the point, as on floats and in batches, not an inf metric; the
    # metric entry rho^2 overflows at the first sample, before the profile,
    # and that product, which the finiteness check rejects, raises no
    # RuntimeWarning on the way
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps({"metric": "revolution", "profile": "exp(1000*u)^2",
                             "expect_return": False}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "zoll-closedness", "--config", str(p),
                                 "--samples", "4")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 3
    assert "geometry error: metric entry rho^2 is not finite at point" in err


def test_revolution_metric_overflow_exits_three(capsys, tmp_path):
    # exp(400*u) is finite on the samples but its square, the metric entry
    # rho^2, is not: an inf metric passed the no-return check with exit 0
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps({"metric": "revolution", "profile": "exp(400*u)",
                             "expect_return": False, "bound": 5}))
    code, out, err = run_cli(capsys, "zoll-closedness", "--config", str(p),
                             "--samples", "3")
    assert code == 3, out
    assert err.strip().startswith("geometry error: metric entry rho^2 is not finite at point")


def test_sheared_engel_frame_reads_its_characteristic_line(capsys, tmp_path):
    # the standard Engel frame after a linear shear: its characteristic line
    # is exactly (1, 2, 3, 1), so the line angle must read rounding (arccos
    # of the cosine read up to 2e-8 here and failed the 1e-8 check)
    p = tmp_path / "sheared.json"
    p.write_text(json.dumps({"frame": [["1", "2", "3", "1"], ["1", "w", "y - 2*w", "0"]],
                             "char_direction": [1, 2, 3, 1]}))
    code, out, err = run_cli(capsys, "verify-engel", "--config", str(p), "--format", "json")
    assert code == 0, out
    check, = [c for c in json.loads(out)["checks"] if c["name"] == "characteristic-line"]
    assert check["max_defect"] < 1e-14


def test_nan_direction_is_a_nan_angle_and_fails(capsys, tmp_path):
    # min(1.0, nan) is 1.0, so the arccos angle read a NaN direction as 0.0
    assert math.isnan(line_angle(np.array([0.0, 0.0, 0.0, 1.0]), [math.nan, 0.0, 0.0, 1.0]))
    p = tmp_path / "nan_direction.json"
    p.write_text('{"char_direction": [NaN, 0, 0, 1]}')
    code, out, _ = run_cli(capsys, "verify-engel", "--config", str(p), "--samples", "20")
    assert code == 1
    assert "overall: FAIL" in out


def test_nan_defect_in_middle_sample_fails(monkeypatch):
    # the slice's three principal angles come from one call
    monkeypatch.setattr(cli, "principal_angles", lambda got, want: [0.0, float("nan"), 0.0])
    report = cli.run("contactify", {"slices": [0.0]}, 0, 3, 1e-8)
    rec, = report.records
    assert rec.max_defect != rec.max_defect
    assert not rec.passed and not report.passed


def test_nan_c2_fails_the_characteristic_line_check(monkeypatch):
    # a NaN pairing of the D^2 normal with [[X, Y], Y]: max(|c1|, |c2|)
    # would drop it, np.maximum keeps it; the kernel direction is NaN and so
    # is its angle, which fails the check
    real_lines, real_bracket = distributions._lines, distributions.jet_bracket

    def lines(frame, points, coords, tol):
        calls = []

        def bracket(a, b):  # [X, Y], [[X, Y], X], then [[X, Y], Y]
            calls.append(b)
            out = real_bracket(a, b)
            return [math.nan * value(j) for j in out] if len(calls) == 3 else out

        monkeypatch.setattr(distributions, "jet_bracket", bracket)
        try:
            return real_lines(frame, points, coords, tol)
        finally:
            monkeypatch.setattr(distributions, "jet_bracket", real_bracket)

    monkeypatch.setattr(distributions, "_lines", lines)
    for samples in (1, 5):
        report = cli.run("verify-engel", {}, 0, samples, 1e-8)
        flag, line = report.records
        assert flag.passed and math.isnan(line.max_defect)
        assert not line.passed and not report.passed


def test_prolong_reports_when_no_sample_is_engel(monkeypatch):
    # no Engel sample leaves no characteristic line to measure: the flag
    # check fails and the line check reads 0.0 over no lines
    monkeypatch.setattr(cli, "flag_ranks", lambda frame, qs: [
        FlagReport(point=q, ranks=(2, 3, 3), singular_values=[], tol=1e-7) for q in qs])
    report = cli.run("prolong", {}, 0, 4, 1e-8)
    flag, line = report.records
    assert flag.max_defect == 4 and not flag.passed
    assert line.samples == 4 and line.max_defect == 0.0 and line.passed


def test_random_pair_draws_have_a_budget(monkeypatch):
    # a pair check that refuses every draw for far longer than the budget:
    # the draw loop gives up with a geometry error instead of spinning
    refused = []
    accept = cli.LegendrianPairJet

    def refuse(Y, X, order):
        if len(refused) < 1000:
            refused.append(1)
            raise GeometryError("pair is not contact at the origin")
        return accept(Y, X, order)

    monkeypatch.setattr(cli, "LegendrianPairJet", refuse)
    with pytest.raises(GeometryError, match="100 random draws"):
        cli._random_pair(np.random.default_rng(0))
    assert len(refused) == 100


def test_nan_arclength_fails_the_period_check(monkeypatch):
    # a returned sample with a NaN arclength must not vanish from the spread
    samples = [SampleReturn(state=np.zeros(3), chart="north", returned=True,
                            arclength=s, defect=0.0) for s in (2 * math.pi, math.nan, 2 * math.pi)]
    monkeypatch.setattr(cli, "closedness_report", lambda space, **kw: ClosednessReport(
        samples=samples, seed=0, max_defect=0.0, n_returned=3))
    report = cli.run("zoll-closedness", {}, 0, 3, 1e-6)
    spread = {rec.name: rec for rec in report.records}["arclength-period"]
    assert math.isnan(spread.max_defect) and not spread.passed and not report.passed


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


def test_normal_form_stack_that_raises_reruns_the_lone_loop(capsys, monkeypatch):
    # the suite normalizes its random pairs as one stack; a stack holding a
    # pair of zero twist (its d/dz component is zero) raises, the pairs rerun
    # one by one, and the report is the lone loop's error and exit code
    from engellab.jets import Jet
    draw, normalize, stack, rows = (cli._random_pair, cli.normalize_pair,
                                    cli.LegendrianPairJet.stack, [])

    def drawn(rng, order=4):
        pair = draw(rng, order)
        if len(rows) == 2:  # the third draw
            pair = cli._normal_pair_of(Jet(3, order))
            pair.X_jet[2] = Jet(3, order)
        rows.append(pair)
        return pair

    def normalizing(pair):
        rows.append(pair.Y_jet[0].c.shape[:-1])
        return normalize(pair)

    def stacking(pairs):
        rows.append(len(pairs))
        return stack(pairs)

    monkeypatch.setattr(cli, "_random_pair", drawn)
    monkeypatch.setattr(cli, "normalize_pair", normalizing)
    monkeypatch.setattr(cli.LegendrianPairJet, "stack", stacking)
    code, out, err = run_cli(capsys, "normal-form", "--samples", "5", "--seed", "1")
    with pytest.raises(GeometryError) as lone:
        normalize(rows[2])
    assert code == 3 and out == ""
    assert err.strip() == f"geometry error: {lone.value}"
    assert "zero twist" in err
    # five draws, the stack (whose contact check raises at row 2), then the
    # lone loop: two normalizations each of pairs 0 and 1, and pair 2's
    assert rows[5:] == [5, (), (), (), (), ()]

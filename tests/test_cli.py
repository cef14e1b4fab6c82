"""CLI contract: exit codes, report schema, determinism, file outputs."""

import csv
import json

import pytest
from click.testing import CliRunner

from finslerlab.cli import main
from finslerlab.report import check_entry


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_verify_funk_passes(runner):
    res = run(runner, ["verify", "--model", "funk", "--dim", "3", "--samples", "60",
                       "--tol", "1e-6", "--geodesics", "4", "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["schema"] == 1 and rep["passed"]
    names = [c["name"] for c in rep["checks"]]
    assert names == ["hamel", "rapcsak", "spray_proportionality", "straightness"]


def test_verify_below_engine_floor_fails(runner):
    res = runner.invoke(main, ["verify", "--model", "funk", "--dim", "3", "--samples",
                               "20", "--tol", "1e-15", "--geodesics", "0", "--no-timestamp"])
    assert res.exit_code == 1


def test_verify_berwald_dim2(runner):
    res = run(runner, ["verify", "--model", "berwald", "--dim", "2", "--samples", "40",
                       "--geodesics", "0", "--no-timestamp"])
    assert res.exit_code == 0


def test_verify_custom_expression_witness(runner):
    res = runner.invoke(main, [
        "verify", "--model", "randers", "--dim", "2",
        "--alpha-expr", "1,0;0,1", "--beta-expr", "0, 0.5*x1",
        "--samples", "20", "--geodesics", "0", "--no-timestamp"])
    assert res.exit_code == 1  # non-closed witness is not projectively flat


def test_verify_custom_pair_fails_regularity_gate(runner):
    # ||beta|| = 5 under the Randers phi: F is not a Finsler metric
    res = runner.invoke(main, [
        "verify", "--dim", "2", "--alpha-expr", "1,0;0,1", "--beta-expr", "0,5",
        "--samples", "20", "--geodesics", "0", "--no-timestamp"])
    assert res.exit_code == 2
    assert "sup ||beta||" in res.output


@pytest.mark.parametrize("args", [
    ["verify", "--samples", "0"],
    ["verify", "--step", "0"],
    ["geodesics", "--batch", "0"],
    ["geodesics", "--step", "0"],
    ["classify", "--k", "nan,0,0"],
    ["classify", "--k", "0,inf,0"],
    ["classify", "--k", "0,0,0", "--eps", "nan"],
    ["verify", "--eps", "inf"],
    ["verify", "--step", "2"],
    ["verify", "--step", "0.6"],
    ["geodesics", "--dim", "2", "--x0", "0.95,0", "--y0", "1,0"],
    ["geodesics", "--dim", "2", "--x0", "a,0", "--y0", "1,0"],
    ["geodesics", "--dim", "2", "--x0", "0.1,0", "--y0", "0,0"],
    ["geodesics", "--dim", "2", "--x0", "0.85,0", "--y0", "1,0", "--step", "0.1"],
    ["geodesics", "--stop-radius", "0.3"],
    ["geodesics", "--max-steps", "1"],
    ["classify", "--k", "1e308,1e308,0"],
    ["classify", "--k", "5e153,0,-5e153"],
    ["geodesics", "--threads", "2"],
    ["geodesics", "--samples", "5"],
    ["deform", "--k", "2,0,-3", "--threads", "2"],
])
def test_bad_numeric_options_are_usage_errors(runner, args):
    res = runner.invoke(main, args + ["--no-timestamp"])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_check_entry_non_finite_residual_fails_as_null():
    for value in (float("nan"), float("inf")):
        entry = check_entry("hamel", value, 1e-6)
        assert entry["pass"] is False and entry["max_residual"] is None
        json.dumps(entry, allow_nan=False)
    assert check_entry("hamel", 1e-9, 1e-6)["pass"] is True


def test_verify_bad_model_usage_error(runner):
    res = runner.invoke(main, ["verify", "--model", "nope"])
    assert res.exit_code == 2


def test_classify_quadratic_type(runner):
    res = run(runner, ["classify", "--k", "2,0,-3", "--eps", "2", "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    r = rep["result"]
    assert r["reduced"]["kind"] == "d1-positive"
    assert abs(r["reduced"]["sigma"] - 1.0) < 1e-12
    assert r["p_tag"] == "imag"
    assert abs(float(r["q"]) + 2 / 3) < 1e-9
    assert r["same_type_as"]["berwald_type"]
    assert not r["same_type_as"]["randers"]


def test_classify_riemannian_and_randers(runner):
    rep = json.loads(run(runner, ["classify", "--k", "0,0,0", "--eps", "0",
                                  "--no-timestamp"]).output)
    assert rep["result"]["p"] == "0" and rep["result"]["q"] == "0"
    rep = json.loads(run(runner, ["classify", "--k", "0,0,0", "--eps", "1",
                                  "--no-timestamp"]).output)
    assert rep["result"]["p"] == "0" and rep["result"]["q"] == "inf"
    assert rep["result"]["same_type_as"]["randers"]


def test_classify_bad_k(runner):
    res = runner.invoke(main, ["classify", "--k", "1,2"])
    assert res.exit_code == 2


def test_geodesics_funk_straight(runner, tmp_path):
    svg = tmp_path / "out.svg"
    tdir = tmp_path / "traces"
    res = run(runner, ["geodesics", "--model", "funk", "--dim", "3", "--batch", "4",
                       "--step", "1e-3", "--max-steps", "200", "--tol", "1e-6",
                       "--svg", str(svg), "--trace-dir", str(tdir),
                       "--require-straight", "--no-timestamp",
                       "--out", str(tmp_path / "rep.json")])
    assert res.exit_code == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert max(rep["deviations"]) < 1e-6
    assert svg.exists() and "<svg" in svg.read_text()
    files = sorted(tdir.glob("trace_*.csv"))
    assert len(files) == 4
    with open(files[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "x3", "y1", "y2", "y3"]
    assert len(rows) > 100


def test_geodesics_perturbed_requires_straight_fails(runner):
    res = runner.invoke(main, [
        "geodesics", "--model", "randers", "--dim", "2",
        "--alpha-expr", "1+0.3*x1,0;0,1", "--beta-expr", "0,0",
        "--batch", "3", "--step", "1e-2", "--max-steps", "100",
        "--tol", "1e-3", "--require-straight", "--no-timestamp"])
    assert res.exit_code == 1


def test_deform_round_trip(runner):
    res = run(runner, ["deform", "--model", "berwald", "--k", "2,0,-3", "--dim", "3",
                       "--samples", "30", "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["round_trip_metric"]["max_residual"] < 1e-9
    assert by_name["conformality"]["max_residual"] < 1e-7
    assert len(rep["field_samples"]) == 5


def test_deform_positivity_diagnostic(runner):
    res = runner.invoke(main, ["deform", "--model", "berwald", "--k", "0,0,-3",
                               "--dim", "3", "--samples", "40", "--no-timestamp"])
    assert res.exit_code == 1
    rep = json.loads(res.output)
    assert rep["checks"][0]["name"] == "factor_positivity"
    assert "positivity" in rep["checks"][0]["diagnostic"]


def test_phi_table_quadrature(runner):
    res = run(runner, ["phi", "--k", "2,0,-3", "--eps", "2", "--grid", "50"])
    assert res.exit_code == 0
    rows = list(csv.reader(res.output.strip().splitlines()))
    assert rows[0] == ["s", "phi", "dphi", "ddphi", "ode_residual", "margin"]
    residuals = [abs(float(r[4])) for r in rows[1:]]
    assert max(residuals) < 1e-10
    assert len(rows) == 51


def test_phi_table_sigma_families(runner):
    res = run(runner, ["phi", "--family", "sigma", "--sigma", "1", "--eps", "2",
                       "--grid", "21"])
    rows = list(csv.reader(res.output.strip().splitlines()))[1:]
    for r in rows:
        s, ph = float(r[0]), float(r[1])
        assert abs(ph - (1 + s) ** 2) < 1e-12
    res = run(runner, ["phi", "--family", "sigma", "--sigma", "0", "--eps", "1",
                       "--grid", "21"])
    rows = list(csv.reader(res.output.strip().splitlines()))[1:]
    for r in rows:
        s, ph = float(r[0]), float(r[1])
        assert abs(ph - (1 + s)) < 1e-12


def test_phi_rp_family_and_usage_error(runner):
    res = run(runner, ["phi", "--family", "rp", "--r", "-1/2", "--p", "1/2",
                       "--eps", "0.5", "--grid", "11"])
    assert res.exit_code == 0
    res = runner.invoke(main, ["phi", "--family", "rp", "--r", "2/3", "--p", "1/3"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["phi"])
    assert res.exit_code == 2


def test_report_determinism(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--model", "funk", "--dim", "2", "--samples", "25",
            "--geodesics", "2", "--no-timestamp"]
    run(runner, args + ["--out", str(a)])
    run(runner, args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    # thread count must not change the bytes either
    c = tmp_path / "c.json"
    run(runner, args + ["--threads", "3", "--out", str(c)])
    rep_a, rep_c = json.loads(a.read_text()), json.loads(c.read_text())
    rep_a["config"].pop("threads")
    rep_c["config"].pop("threads")
    assert rep_a == rep_c


def test_verify_with_timestamp_has_clock_fields(runner):
    res = run(runner, ["verify", "--model", "funk", "--dim", "2", "--samples", "10",
                       "--geodesics", "0"])
    rep = json.loads(res.output)
    assert "timestamp" in rep and "timing_seconds" in rep

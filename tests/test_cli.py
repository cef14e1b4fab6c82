"""CLI contract: exit codes, report schema, determinism, file outputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from finslerlab.cli import main
from finslerlab.phifuncs import QuadraturePhi
from finslerlab.report import check_entry

SRC = Path(__file__).resolve().parents[1] / "src"


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
    ["verify", "--threads", "2"],
    ["verify", "--step", "0.3"],
    ["geodesics", "--stop-radius", "2"],
    ["geodesics", "--x0", "0.5,0,0", "--y0", "1,0,0", "--step", "0.3"],
    ["phi", "--k", "0,1,0", "--quad-tol", "0"],
    ["phi", "--k", "0,1,0", "--quad-tol", "nan"],
    ["phi", "--k", "0,1,0", "--grid", "0"],
    ["phi", "--k", "0,1,0", "--smax", "-1"],
    ["verify", "--model", "space-form", "--mu", "nan"],
    ["verify", "--tol", "nan"],
    ["phi", "--family", "sigma", "--sigma", "nan"],
    ["verify", "--geodesics", "-1"],
    ["verify", "--model", "example64", "--lam", "inf"],
    ["verify", "--model", "family-sigma", "--sigma", "nan"],
    ["phi", "--k", "1e300,0,0"],
    ["deform", "--model", "funk", "--k", "1e300,0,0"],
    ["verify", "--model", "family-sigma", "--sigma", "1e300"],
    ["verify", "--model", "space-form", "--mu", "1e13", "--samples", "50"],
])
def test_bad_numeric_options_are_usage_errors(runner, args):
    # phi writes CSV and has no --no-timestamp, which would be a usage error of its own
    res = runner.invoke(main, args + ([] if args[0] == "phi" else ["--no-timestamp"]))
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_check_entry_non_finite_residual_fails_as_null():
    for value in (float("nan"), float("inf")):
        entry = check_entry("hamel", value, 1e-6)
        assert entry["pass"] is False and entry["max_residual"] is None
        json.dumps(entry, allow_nan=False)
    assert check_entry("hamel", 1e-9, 1e-6)["pass"] is True


def test_custom_pair_model_must_name_a_phi(runner):
    res = runner.invoke(main, [
        "verify", "--model", "example64", "--dim", "2", "--alpha-expr", "1,0;0,1",
        "--beta-expr", "0,0.1", "--samples", "20", "--geodesics", "0", "--no-timestamp"])
    assert res.exit_code == 2
    assert "funk, randers, berwald, riemannian" in res.output


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
    assert "1+(k1+k3)b^2+k2 b^4" in rep["checks"][0]["diagnostic"]


def test_phi_table_quadrature(runner):
    res = run(runner, ["phi", "--k", "2,0,-3", "--eps", "2", "--grid", "50"])
    assert res.exit_code == 0
    rows = list(csv.reader(res.output.strip().splitlines()))
    assert rows[0] == ["s", "phi", "dphi", "ddphi", "ode_residual", "margin"]
    residuals = [abs(float(r[4])) for r in rows[1:]]
    assert max(residuals) < 1e-10
    assert len(rows) == 51


@pytest.mark.parametrize("k", ["0,1,0", "1,2,-5"])
def test_phi_evaluates_phi_once(runner, monkeypatch, k):
    calls = []
    values = QuadraturePhi.values

    def counted(self, s):
        calls.append(len(s))
        return values(self, s)

    monkeypatch.setattr(QuadraturePhi, "values", counted)
    res = run(runner, ["phi", "--k", k, "--grid", "50"])
    assert res.exit_code == 0
    assert calls == [50]


def fresh_python(code):
    """stdout of ``code`` run by a new interpreter that imports finslerlab from src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def test_startup_and_funk_verify_do_not_load_scipy():
    out = fresh_python(
        "import contextlib, io, sys\n"
        "from finslerlab.cli import main\n"
        "print('scipy' in sys.modules)\n"
        "args = ['verify', '--model', 'funk', '--samples', '20', '--geodesics', '2',\n"
        "        '--no-timestamp']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(args, standalone_mode=False)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    assert out == ["False", "0", "False"]


def test_phi_edge_and_example64_verify_run_without_scipy():
    # None in sys.modules makes any import of scipy raise ImportError
    out = fresh_python(
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from finslerlab.cli import main\n"
        "for args in (['phi', '--k', '1,2,-5', '--eps', '0.5', '--smax', '0.9'],\n"
        "             ['verify', '--model', 'example64', '--samples', '20',\n"
        "              '--geodesics', '2', '--no-timestamp']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            main(args, standalone_mode=False)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(code)\n"
    )
    assert out == ["0", "0"]


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


def test_verify_with_timestamp_has_clock_fields(runner):
    res = run(runner, ["verify", "--model", "funk", "--dim", "2", "--samples", "10",
                       "--geodesics", "0"])
    rep = json.loads(res.output)
    assert "timestamp" in rep and "timing_seconds" in rep

"""Self-tests of the benchmark's own arithmetic, checks and wrappers.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

assert run.use_checkout_source() is not None, "finslerlab sources not found"

import crosswalk  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from finslerlab import abmetric, flatness, models  # noqa: E402

# -- percentiles ---------------------------------------------------------------


@pytest.mark.parametrize("n", list(range(20, 400, 7)) + [40, 100, 200, 1000])
def test_tail_keeps_ten_jobs_beyond(n):
    times = list(np.random.default_rng(n).permutation(n) * 0.01)
    pct, value = run.tail(times, 99)
    assert sum(t > value for t in times) >= 10
    higher = [p for p in run.LADDER if p > pct]
    if higher:  # the next ladder step would leave fewer than ten beyond
        nxt = sorted(times)[max(int(np.ceil(higher[0] * n / 100)) - 1, 0)]
        assert sum(t > nxt for t in times) < 10


@pytest.mark.parametrize("pct", [50, 75, 90, 95])
def test_min_jobs_is_the_fewest_for_the_planned_percentile(pct):
    need = run.min_jobs(pct)
    for n in (need - 1, need):
        k = math.ceil(pct * n / 100) - 1
        assert (n - 1 - k >= 10) == (n == need)
    assert run.tail(list(range(need)), pct)[0] == pct


def test_rate_divides_by_job_time_only():
    jobs = [{"seconds": s, "work": w} for s, w in ((1.0, 10), (1.0, 10), (4.0, 10), (0.5, 5))]
    assert run.rate(jobs, "work") == pytest.approx(35 / 6.5)
    assert run.rate(jobs, "jobs") == pytest.approx(4 / 6.5)


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_nested_children_exactly():
    now = [0.0]
    tr = tracing.Tracer(clock=lambda: now[0])

    def work(dt):
        now[0] += dt

    def leaf():
        work(1.0)

    def middle():
        work(2.0)
        leaf()
        work(0.5)
        leaf()

    def top():
        middle()
        work(4.0)
        leaf()

    leaf, middle, top = tr.wrap("leaf", leaf), tr.wrap("middle", middle), tr.wrap("top", top)
    tr.job = 0
    top()
    spans = {s[0]: s for s in tr.spans}
    by_name = Counter()
    for _, name, start, end, parent, job, own in spans.values():
        by_name[name] += own
        assert job == 0
    assert by_name == {"top": 4.0, "middle": 2.5, "leaf": 3.0}
    top_span = next(s for s in spans.values() if s[1] == "top")
    assert top_span[3] - top_span[2] == 9.5
    assert sum(s[6] for s in spans.values()) == 9.5


def _children(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s[4], []).append(s)
    return kids


def test_self_time_along_the_spray_chain():
    tr = tracing.Tracer()
    tr.install()
    try:
        m = models.build_model("funk", 3)
        x = np.full((10, 3), 0.1)
        y = np.ones((10, 3))
        tr.job = 0
        abmetric.spray_ab(m, x, y)
    finally:
        tr.uninstall()
    spans = [s for s in tr.spans if s[5] == 0]
    kids = _children(spans)
    by_id = {s[0]: s for s in spans}
    for s in spans:
        covered = sum(c[3] - c[2] for c in kids.get(s[0], []))
        assert s[6] == pytest.approx((s[3] - s[2]) - covered, abs=1e-12)
        assert s[6] >= 0.0
    root = next(s for s in spans if s[4] == -1)
    assert root[1] == "abmetric.spray_ab"
    assert sum(s[6] for s in spans) == pytest.approx(root[3] - root[2], abs=1e-9)

    def parent_name(s):
        return by_id[s[4]][1]

    names = {(s[1], parent_name(s)) for s in spans if s[4] != -1}
    assert ("geometry.covariant_derivative", "abmetric.spray_ab") in names
    assert ("geometry.christoffel", "geometry.covariant_derivative") in names
    assert ("geometry.inverse_metric", "geometry.christoffel") in names


# -- installing and removing wrappers ---------------------------------------------


def _bindings():
    import finslerlab.cli  # noqa: F401

    snap = {}
    for ns in tracing._namespaces():
        for key, val in vars(ns).items():
            snap[ns.__name__, key] = val
    phifuncs = sys.modules["finslerlab.phifuncs"]
    for cls in tracing.PHI_CLASSES:
        snap[cls, "values"] = getattr(phifuncs, cls).values
    for name, cmd in sys.modules["finslerlab.cli"].main.commands.items():
        snap["command", name] = cmd.callback
    return snap


def test_uninstall_restores_every_binding():
    before = _bindings()
    tr = tracing.Tracer()
    tr.install()
    during = _bindings()
    changed = {k for k in before if before[k] is not during[k]}
    assert ("finslerlab.geometry", "christoffel") in changed
    assert ("finslerlab.abmetric", "covariant_derivative") in changed
    assert ("finslerlab", "spray_ab") in changed
    assert ("finslerlab.phifuncs", "quad") in changed
    assert ("QuadraturePhi", "values") in changed
    assert ("command", "verify") in changed
    tr.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def _cli_geodesic_batch(name, tracer):
    """The CLI verify command's geodesic check at --seed 0: 10 traces, <= 1000 steps."""
    tracer.job = 0
    traces = crosswalk.cli_geodesic_batch(models.build_model(name, 3))
    tracer.job = -1
    return traces, Counter(s[1] for s in tracer.spans if s[5] == 0)


def test_wrapping_reaches_every_binding_funk_counts():
    tr = tracing.Tracer()
    tr.install()
    try:
        traces, calls = _cli_geodesic_batch("funk", tr)
    finally:
        tr.uninstall()
    assert max(len(t.times) - 1 for t in traces) == 698
    assert calls["abmetric.spray_ab"] == 2792
    assert calls["geometry.covariant_derivative"] == 2792
    assert calls["geometry.christoffel"] == 5584
    assert calls["geometry.inverse_metric"] == 8376
    rk4 = "flatness.integrate_geodesics"
    assert tr.counts[rk4, "lane_steps"] == 6980
    assert tr.counts[rk4, "useful_steps"] == sum(len(t.times) - 1 for t in traces)
    assert tr.counts[rk4, "left_domain"] == sum(t.left_domain for t in traces)


def test_wrapping_reaches_every_binding_example63_solves():
    tr = tracing.Tracer()
    tr.install()
    try:
        traces, calls = _cli_geodesic_batch("example63-plus", tr)
    finally:
        tr.uninstall()
    assert max(len(t.times) - 1 for t in traces) == 1000
    assert calls["jets.solve"] == 16002  # 4 per spray call x 4000, plus 2 in the gate


# -- output checks ---------------------------------------------------------------


def test_flatness_check_uses_its_own_tolerance():
    bad = flatness.FlatnessReport(1e-3, 0.0, 0.0, 1000, True, 1e-6)
    with pytest.raises(workloads.CheckFailed):
        workloads.Sweep().check(None, bad, [])
    good = flatness.FlatnessReport(1e-14, 1e-14, 1e-15, 1000, True, 1e-6)
    assert workloads.Sweep().check(None, good, []) == 1000


def test_cli_check_rejects_nan_tokens_and_changed_repeats():
    cli = workloads.Cli()
    report = {"passed": True, "command": "classify", "checks": [{"name": "classify", "pass": True}]}
    text = json.dumps(report).encode()
    assert cli.check((["classify"], None), (0, text), []) == 1
    with pytest.raises(workloads.CheckFailed):
        cli.check((["classify"], None), (1, text), [])
    nan = json.dumps({**report, "x": float("nan")}).encode()
    with pytest.raises(ValueError):
        cli.check((["classify"], None), (0, nan), [])
    with pytest.raises(workloads.CheckFailed):
        cli.check((["classify"], 0), (0, text), [(0, text + b" ")])


@pytest.mark.parametrize("case", workloads.ETA_CASES)
def test_eta_case_draws_land_in_their_case(case):
    from finslerlab.phifuncs import _case

    rng = np.random.default_rng(case)
    for _ in range(200):
        k1, k2, k3 = workloads._eta_case_k(rng, case)
        assert max(abs(k1), abs(k2), abs(k3)) <= 3.0 and abs(k1 + k3) <= 2.0
        assert _case(k3, k2, k1) == case  # the case QuadraturePhi's f(s) dispatches on


# -- the benchmark definition --------------------------------------------------------


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in tracing.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {m[0]: m[1] for m in tracing.PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

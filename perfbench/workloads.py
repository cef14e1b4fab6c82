"""The four benchmark workloads: seeded inputs, the timed call, and output checks.

Each workload is a closed loop with one caller: the runner asks for a round of
job specs, runs the jobs one after another and checks each output after its
timer stops.  ``warm_rounds`` rounds run untimed before the timed ones.  A
round is one pass over the workload's job mix; runs end on a round boundary,
so every run sees the same mix.

Expected verdicts come from the mathematics, not from recorded output: every
model and every custom pair used here is projectively flat and Finsler
regular, so every certification must pass, every geodesic must be straight,
and every phi tabulation must solve its ODE.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np

import finslerlab
from finslerlab import flatness, models, phifuncs

TOL = 1e-6  # the library's and the CLI's default residual tolerance


def child_env():
    """The environment with this finslerlab's source directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(finslerlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class CheckFailed(Exception):
    """A job returned, but its output contradicts the expected verdict."""


def _need(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _unit_vectors(rng, count: int, n: int):
    y = rng.standard_normal((count, n))
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


def _ball(rng, count: int, n: int, radius: float):
    r = radius * rng.random(count) ** (1.0 / n)
    return _unit_vectors(rng, count, n) * r[:, None]


def _check_flatness(rep, samples: int) -> int:
    residuals = (rep.max_hamel, rep.max_rapcsak, rep.max_spray_dev)
    _need(rep.passed, f"verify_flatness reported passed=False {residuals}")
    _need(rep.samples == samples, f"{rep.samples} samples certified, {samples} asked")
    _need(all(r <= TOL for r in residuals), f"residuals {residuals} above {TOL}")
    return samples


def _eta_case_k(rng, case: int):
    """An ODE triple (k1, k2, k3) in the given case of the five-way eta dispatch.

    Coefficients stay within |k| <= 3, which the regularity argument in
    ``Quadrature`` relies on.  Case 4 needs (k1+k3)^2 == 4 k2 exactly, so its
    sum is a power of two.
    """
    if case == 1:  # k2 = 0, k1 + k3 = 0
        k1 = rng.uniform(-2.0, 2.0)
        return k1, 0.0, -k1
    if case == 2:  # k2 = 0, k1 + k3 != 0
        k1 = rng.uniform(-1.5, 1.5)
        return k1, 0.0, -k1 + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    s = float(rng.choice([-2.0, -1.0, 1.0, 2.0])) if case == 4 else rng.uniform(-2.0, 2.0)
    k1 = rng.uniform(-1.0, 1.0)
    if case == 3:  # d1 = s^2 - 4 k2 > 0, k2 != 0
        k2 = s * s / 4.0 - rng.uniform(0.1, 1.0)
    elif case == 4:  # d1 = 0
        k2 = s * s / 4.0
    else:  # case 5: d1 < 0
        k2 = s * s / 4.0 + rng.uniform(0.1, 1.0)
    return k1, k2, s - k1


ETA_CASES = (1, 2, 3, 4, 5)


def _ode_residual(k, ss, ph, dph, ddph):
    """Relative residual of (1+(k1+k3)s^2+k2 s^4) phi'' = (k1+k2 s^2)(phi - s phi')."""
    k1, k2, k3 = k
    lhs = (1.0 + (k1 + k3) * ss * ss + k2 * ss ** 4) * ddph
    rhs = (k1 + k2 * ss * ss) * (ph - ss * dph)
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))


class Sweep:
    """Repeated ``verify_flatness`` at 1000 samples on models built once.

    Order-2 jets with 2n seeds, jet solves inside the inverse-chain fields and
    the structured spray do almost all of the work; phi quadrature does none.
    Two dimensions vary the (2n)^2 Hessian width.  The ten jobs of a round
    fall into three speed groups of 3, 5 and 2 jobs, so the median and p90
    land inside a group rather than on the edge between two.
    """

    name = "sweep"
    unit = "samples"
    tail_pct = 90
    warm_rounds = 1
    MODELS = (("funk", {}), ("berwald", {}), ("family-sigma", {"sigma": 0.5, "eps": 1.0}),
              ("example63-plus", {}), ("example63-minus", {}))
    DIMS = (3, 4)
    SAMPLES = 1000

    def setup(self, in_process: bool = True):
        return [models.build_model(name, d, **kw) for d in self.DIMS for name, kw in self.MODELS]

    def round(self, state, rng, index):
        return [(i, int(rng.integers(2 ** 31))) for i in range(len(state))]

    def run(self, state, spec):
        i, seed = spec
        return flatness.verify_flatness(state[i], samples=self.SAMPLES, seed=seed)

    def check(self, spec, out, earlier):
        return _check_flatness(out, self.SAMPLES)


class Geodesics:
    """RK4 batches of 10 traces, then ``straightness_deviation`` on each trace.

    Thousands of 10-point ``spray_ab`` calls: per-call overhead dominates and
    order-2 jets are never used.  Start points and directions follow the
    CLI's geodesic check (ball of 0.4 R, unit directions, stop at 0.9 R).
    A third of the jobs, the example63-plus ones, take about twice as long as
    the rest, so the tail is p90, well inside that group; p75 sat at its lower
    edge and spread about twice as much from run to run as p90 or the median.
    """

    name = "geodesics"
    unit = "steps"
    tail_pct = 90
    warm_rounds = 1
    MODELS = ("funk", "berwald", "example63-plus")
    DIM = 3
    TRACES = 10
    STEP = 1e-3
    MAX_STEPS = 30  # short enough that the 100 jobs p90 needs fit in one run

    def setup(self, in_process: bool = True):
        return [models.build_model(name, self.DIM) for name in self.MODELS]

    def round(self, state, rng, index):
        specs = []
        for i, m in enumerate(state):
            x0 = _ball(rng, self.TRACES, self.DIM, 0.4 * m.domain_radius)
            y0 = _unit_vectors(rng, self.TRACES, self.DIM)
            specs.append((i, x0, y0))
        return specs

    def run(self, state, spec):
        i, x0, y0 = spec
        m = state[i]
        traces = flatness.integrate_geodesics(m, x0, y0, 0.9 * m.domain_radius, self.STEP,
                                              max_steps=self.MAX_STEPS)
        return traces, [flatness.straightness_deviation(t) for t in traces]

    def check(self, spec, out, earlier):
        traces, devs = out
        _need(len(traces) == self.TRACES, f"{len(traces)} traces for {self.TRACES} starts")
        _need(all(d <= TOL for d in devs), f"straightness deviation {max(devs)} above {TOL}")
        return sum(len(t.times) - 1 for t in traces)


class Quadrature:
    """example64 builds for fresh parameters, plus QuadraturePhi tabulations.

    The per-point ``scipy.quad`` loop in ``phifuncs`` does most of the work:
    in the regularity gate of each build, in the certification, and in the
    tabulation and regularity sweep of one k triple per eta case.  The five
    tabulations form one job, so a round is six builds of similar cost plus
    one longer job, and the median and p75 fall among the builds.

    The regularity sweep runs at b0 = 0.2, where it must pass for |k| <= 3,
    |k1 + k3| <= 2, |k2| <= 2 and |eps| <= 1: on |s| <= 0.2 the closed forms
    give phi - s phi' = f(s) > 0.93 and |phi''| < 3.7, so the margin
    f + (b^2 - s^2) phi'' > 0.93 - 0.04 * 3.7 > 0 and phi > 1 - 0.2 - 0.02 * 3.7 > 0.
    """

    name = "quadrature"
    unit = "samples"
    tail_pct = 75
    warm_rounds = 1
    PAIRS = tuple((eps, mu) for eps in (0.0, 1.0, 2.0) for mu in (0.0, 0.5, -0.5))
    DIMS = (2, 3)
    PAIRS_PER_ROUND = 3  # per dimension: three rounds cover all 18 (eps, mu, d)
    SAMPLES = 24
    TAB_POINTS = 49
    REG_B0 = 0.2

    def setup(self, in_process: bool = True):
        return {}

    def round(self, state, rng, index):
        if index == 0:
            state["order"] = {d: rng.permutation(len(self.PAIRS)) for d in self.DIMS}
        specs = []
        for d in self.DIMS:
            for j in range(self.PAIRS_PER_ROUND):
                pos = (index * self.PAIRS_PER_ROUND + j) % len(self.PAIRS)
                eps, mu = self.PAIRS[state["order"][d][pos]]
                # lam <= 0.3: ||beta|| grows with lam and all 18 grid points pass the gate at 0.3
                lam = rng.uniform(0.1, 0.3)
                specs.append(("build", eps, mu, d, lam, int(rng.integers(2 ** 31))))
        specs.append(("tabulate", [_eta_case_k(rng, case) + (rng.uniform(-1.0, 1.0),)
                                   for case in ETA_CASES]))
        return specs

    def run(self, state, spec):
        if spec[0] == "build":
            _, eps, mu, d, lam, seed = spec
            m = models.build_model("example64", d, eps=eps, mu=mu, lam=lam)
            return flatness.verify_flatness(m, samples=self.SAMPLES, seed=seed)
        out = []
        for k1, k2, k3, eps in spec[1]:
            phi = phifuncs.QuadraturePhi(phifuncs.OdeParams(k1, k2, k3, eps))
            smax = 0.9 * min(1.0, phi.b0)
            ss = np.linspace(-smax, smax, self.TAB_POINTS)
            out.append((ss, phi.values(ss), phifuncs.regularity_check(phi, self.REG_B0, grid=12)))
        return out

    def check(self, spec, out, earlier):
        if spec[0] == "build":
            return _check_flatness(out, self.SAMPLES)
        for k, (ss, (ph, dph, ddph), reg) in zip(spec[1], out):
            _need(all(np.all(np.isfinite(v)) for v in (ph, dph, ddph)), "non-finite phi values")
            res = _ode_residual(k[:3], ss, ph, dph, ddph)
            _need(res <= 1e-8, f"phi ODE residual {res:.3g} above 1e-8 for k={k}")
            _need(reg.passed, f"regularity_check failed at b0={self.REG_B0} for k={k}")
        return 0


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


# F = (sqrt((1-|x|^2)|y|^2 + <x,y>^2) + c <x,y>) / (1-|x|^2): the Klein metric of
# the unit disk plus c times the exact form -d log(1-|x|^2)/2.  A Randers metric
# with a projectively flat alpha and a closed beta is projectively flat, and
# ||beta||_alpha = |c| |x| < 1, so every |c| < 1 must pass (c = 1 is Funk).
_KLEIN_ALPHA = ("(1-x2**2)/(1-x1**2-x2**2)**2, x1*x2/(1-x1**2-x2**2)**2; "
                "x1*x2/(1-x1**2-x2**2)**2, (1-x1**2)/(1-x1**2-x2**2)**2")


def _exact_beta(c: float) -> str:
    return f"{c!r}*x1/(1-x1**2-x2**2), {c!r}*x2/(1-x1**2-x2**2)"


class Cli:
    """A closed loop of ``finslerlab`` invocations, one child process at a time.

    The only workload that pays for interpreter start and imports, and the
    only one that reaches ``cli``, ``report``, ``classify``, ``exprfield`` and
    ``forward_chain``.  The last command of each round repeats the first
    ``verify`` and must print the same bytes (``--no-timestamp``).  In the
    traced run the same commands run in-process through click's test runner.
    """

    name = "cli"
    unit = "jobs"
    tail_pct = 50
    warm_rounds = 0  # each job is a fresh process; the set-up probes already warmed the file cache

    def setup(self, in_process: bool = False):
        from click.testing import CliRunner

        from finslerlab import cli

        return (CliRunner(), cli) if in_process else None

    def round(self, state, rng, index):
        def seed():
            return str(int(rng.integers(2 ** 31)))

        k = _eta_case_k(rng, int(rng.choice(ETA_CASES)))
        kq = ",".join(repr(round(float(v), 4)) for v in rng.uniform(-3.0, 3.0, size=3))
        verify = ["verify", "--model", "funk", "--dim", "3",
                  "--samples", "200", "--seed", seed(), "--geodesics", "3", "--step", "0.01",
                  "--no-timestamp"]
        c = round(float(rng.uniform(-0.9, 0.9)), 4)
        return [
            (["classify", "--k", kq, "--eps", repr(round(float(rng.uniform(-2.0, 2.0)), 4)),
              "--no-timestamp"], None),
            (["deform", "--model", "berwald", "--k", "2,0,-3", "--eps", "2", "--dim", "3",
              "--samples", "50", "--seed", seed(), "--no-timestamp"], None),
            (["phi", "--k", ",".join(repr(float(v)) for v in k),
              "--eps", repr(round(float(rng.uniform(-1.0, 1.0)), 4)), "--grid", "49"], None),
            (verify, None),
            (["verify", "--model", "randers", "--alpha-expr", _KLEIN_ALPHA,
              "--beta-expr", _exact_beta(c), "--dim", "2", "--samples", "200", "--seed", seed(),
              "--geodesics", "3", "--step", "0.01", "--no-timestamp"], None),
            (["geodesics", "--model", "berwald", "--batch", "5", "--max-steps", "200",
              "--seed", seed(), "--require-straight", "--no-timestamp"], None),
            (verify, 3),  # same report twice: must match byte for byte
        ]

    def run(self, state, spec):
        argv, _ = spec
        if state is not None:
            runner, cli = state
            res = runner.invoke(cli.main, argv)
            return res.exit_code, res.stdout_bytes
        proc = subprocess.run([sys.executable, "-m", "finslerlab.cli", *argv], env=child_env(),
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, spec, out, earlier):
        argv, same_as = spec
        code, stdout = out
        _need(code == 0, f"exit code {code} for {argv[0]}")
        if same_as is not None:
            _need(stdout == earlier[same_as][1], "--no-timestamp report differs between two runs")
        text = stdout.decode("utf-8")
        if argv[0] == "phi":
            rows = list(csv.reader(io.StringIO(text)))
            _need(rows[0] == ["s", "phi", "dphi", "ddphi", "ode_residual", "margin"],
                  f"phi CSV header {rows[0]}")
            vals = np.array(rows[1:], dtype=float)
            _need(vals.shape == (49, 6) and np.all(np.isfinite(vals)), "phi CSV rows")
            k = tuple(float(v) for v in argv[2].split(","))
            res = _ode_residual(k, *vals[:, :4].T)
            _need(res <= 1e-8, f"phi ODE residual {res:.3g} above 1e-8")
            return 1
        report = _strict_json(text)
        _need(report["passed"] is True and report["command"] == argv[0], "report not passed")
        for c in report["checks"]:
            if "max_residual" in c:
                _need(c["max_residual"] <= c["tolerance"], f"check {c['name']} above tolerance")
        return 1


WORKLOADS = {w.name: w for w in (Sweep(), Geodesics(), Quadrature(), Cli())}

"""Command-line front end.

Subcommands: verify (flatness certification), classify (type invariants),
geodesics (trace export), deform (chain round-trip diagnostics), phi
(function tabulation).  Exit codes: 0 all checks pass, 1 a check failed,
2 usage/configuration error.

Reports are JSON (schema 1); --no-timestamp omits the wall-clock fields
(timestamp and timing) so identical configurations produce byte-identical
files.  On verify only, --threads (or FINSLERLAB_THREADS) sizes the
sample-sweep worker pool; results are identical for any worker count.
"""

from __future__ import annotations

import math
import os
import sys
import time

import click
import numpy as np

from .abmetric import assemble
from .classify import (
    Quadruple,
    circle_coords,
    invariants,
    reduce_quadruple,
    same_type,
)
from .deform import forward_chain, inverse_chain
from .errors import FinslerError, PositivityError
from .exprfield import metric_from_exprs, oneform_from_exprs
from .flatness import (
    integrate_geodesics,
    sample_ball,
    sample_sphere,
    straightness_deviation,
    verify_flatness,
)
from .geometry import covariant_derivative, norm_b
from .models import MODEL_NAMES, build_model
from .phifuncs import (
    OdeParams,
    QuadraturePhi,
    SigmaSeriesPhi,
    ode_residual,
    phi_rp,
)
from .report import (
    check_entry,
    make_report,
    svg_traces,
    write_csv,
    write_json,
)


def _parse_numbers(text: str, option: str, count: int) -> list[float]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != count or not all(math.isfinite(p) for p in parts):
        raise click.UsageError(f"{option} expects {count} comma-separated finite numbers, got {text!r}")
    return parts


def _parse_k(text: str) -> tuple[float, float, float]:
    return tuple(_parse_numbers(text, "--k", 3))


def _finite(ctx, param, value):
    if not math.isfinite(value):
        raise click.BadParameter(f"{value!r} is not a finite number")
    return value


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("FINSLERLAB_THREADS", "1")))
    except ValueError:
        return 1


def _build(model, dim, sigma, eps, mu, lam, alpha_expr, beta_expr):
    if (alpha_expr or beta_expr) and not (alpha_expr and beta_expr):
        raise click.UsageError("--alpha-expr and --beta-expr must be given together")
    try:
        if alpha_expr:
            from .phifuncs import phi_berwald, phi_randers, phi_riemannian

            alpha = metric_from_exprs(alpha_expr, dim)
            beta = oneform_from_exprs(beta_expr, dim)
            phi = {"randers": phi_randers, "berwald": phi_berwald,
                   "riemannian": phi_riemannian}.get(model, phi_randers)()
            return assemble(alpha, beta, phi, name="custom")
        return build_model(model, dim, sigma=sigma, eps=eps, mu=mu, lam=lam)
    except (ValueError, FinslerError) as exc:
        raise click.UsageError(str(exc))


def _deviations(traces):
    """Straightness of each trace; one stopped before its second step cannot be measured."""
    if any(len(t.times) < 3 for t in traces):
        raise click.UsageError("a geodesic reached the stop radius within one step: "
                               "start it further inside or use a smaller --step")
    return [straightness_deviation(t) for t in traces]


@click.group()
def main():
    """Numerical toolkit for projectively flat (alpha,beta)-metrics."""


_common = [
    click.option("--dim", default=3, show_default=True, help="Patch dimension."),
    click.option("--seed", default=0, show_default=True, help="RNG seed."),
    click.option("--tol", default=1e-6, show_default=True, help="Residual tolerance."),
    click.option("--out", default=None, help="Write the JSON report here (default stdout)."),
    click.option("--no-timestamp", is_flag=True,
                 help="Omit timestamp and timing for byte-stable reports."),
]


def _add_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


_samples = click.option("--samples", default=100, show_default=True, type=click.IntRange(min=1),
                        help="Sample count.")


@main.command()
@click.option("--model", default="funk", show_default=True,
              help=f"One of {', '.join(MODEL_NAMES)} (or used with --alpha-expr/--beta-expr).")
@click.option("--sigma", default=1.0, show_default=True, help="Family parameter sigma.")
@click.option("--eps", default=2.0, show_default=True, callback=_finite, help="Slope phi'(0).")
@click.option("--mu", default=0.0, show_default=True, help="Space-form curvature.")
@click.option("--lam", default=0.3, show_default=True, help="Conformal-form coefficient.")
@click.option("--alpha-expr", default=None, help="Custom metric entries 'a11,..;..'.")
@click.option("--beta-expr", default=None, help="Custom 1-form entries 'b1,..'.")
@click.option("--step", default=1e-3, show_default=True,
              type=click.FloatRange(min=0, max=0.5, min_open=True),
              help="Geodesic RK4 step; traces run min(1000, 1/step) steps, so at most 0.5.")
@click.option("--geodesics", "n_geo", default=10, show_default=True,
              help="Geodesic traces for the straightness check (0 skips).")
@_samples
@click.option("--threads", default=None, type=int,
              help="Worker pool size (default FINSLERLAB_THREADS or 1).")
@_add_common
def verify(model, sigma, eps, mu, lam, alpha_expr, beta_expr, step, n_geo,
           dim, samples, seed, tol, out, threads, no_timestamp):
    """Certify projective flatness: Hamel, Rapcsak, spray, geodesics."""
    t0 = time.perf_counter()
    threads = threads if threads is not None else _default_threads()
    m = _build(model, dim, sigma, eps, mu, lam, alpha_expr, beta_expr)
    rep = verify_flatness(m, samples=samples, seed=seed, tolerance=tol, threads=threads)
    checks = [
        check_entry("hamel", rep.max_hamel, tol),
        check_entry("rapcsak", rep.max_rapcsak, tol),
        check_entry("spray_proportionality", rep.max_spray_dev, tol),
    ]
    if n_geo > 0:
        rng = np.random.default_rng(seed + 1)
        radius = m.domain_radius if math.isfinite(m.domain_radius) else 1.0
        xs = sample_ball(rng, dim, n_geo, 0.4 * radius)
        ys = sample_sphere(rng, dim, n_geo)
        traces = integrate_geodesics(m, xs, ys, 0.9 * radius, step,
                                     max_steps=min(1000, int(1.0 / step)))
        dev = max(_deviations(traces))
        checks.append(check_entry("straightness", dev, tol))
    config = {"model": m.name, "dim": dim, "samples": samples, "seed": seed,
              "tol": tol, "step": step, "geodesics": n_geo, "threads": threads}
    report = make_report("verify", config, checks, with_clock=not no_timestamp, t0=t0)
    write_json(report, out)
    sys.exit(0 if report["passed"] else 1)


@main.command()
@click.option("--k", "k_text", required=True, help="k1,k2,k3 of the phi-ODE.")
@click.option("--eps", default=0.0, show_default=True, callback=_finite, help="Slope phi'(0).")
@click.option("--out", default=None, help="Write the JSON report here (default stdout).")
@click.option("--no-timestamp", is_flag=True, help="Omit wall-clock fields.")
def classify(k_text, eps, out, no_timestamp):
    """Delta invariants, the complete pair (p, q), and the reduced equation."""
    k1, k2, k3 = _parse_k(k_text)
    q = Quadruple(k1, k2, k3, eps)
    sig = invariants(q)
    cx, cy = circle_coords(sig)
    if not all(math.isfinite(v) for v in (sig.d1, sig.d2, sig.d3, cx, cy)):
        raise click.UsageError(f"--k {k_text!r} is too large: its invariants overflow")
    named = {
        "riemannian": Quadruple(0.0, 0.0, 0.0, 0.0),
        "randers": Quadruple(0.0, 0.0, 0.0, 1.0),
        "berwald_type": Quadruple(2.0, 0.0, -3.0, 2.0),
    }
    result = {
        "quadruple": [k1, k2, k3, eps],
        "delta": {"d1": sig.d1, "d2": sig.d2, "d3": sig.d3},
        "p": sig.p_repr(),
        "q": sig.q_repr(),
        "p_tag": sig.p_tag.value,
        "q_tag": sig.q_tag.value,
        "same_type_as": {name: same_type(q, other) for name, other in named.items()},
    }
    try:
        form, recipe = reduce_quadruple(q)
        result["reduced"] = {"kind": form.kind, "sigma": form.sigma,
                             "recipe": [[step, float(val)] for step, val in recipe]}
    except ValueError as exc:
        result["reduced"] = {"error": str(exc)}
    on_circle = (abs(cx * cx + (cy - 1.0) ** 2 - 1.0) < 1e-9
                 or abs(cx * cx + (cy + 1.0) ** 2 - 1.0) < 1e-9
                 or (cx == 0.0 and cy == 0.0))
    result["circle_coords"] = {"x": cx, "y": cy, "on_circle": on_circle}
    checks = [{"name": "classify", "pass": True}]
    report = make_report("classify", {"k": [k1, k2, k3], "eps": eps}, checks,
                         with_clock=not no_timestamp)
    report["result"] = result
    write_json(report, out)
    sys.exit(0)


@main.command()
@click.option("--model", default="funk", show_default=True)
@click.option("--sigma", default=1.0, show_default=True)
@click.option("--eps", default=2.0, show_default=True, callback=_finite)
@click.option("--mu", default=0.0, show_default=True)
@click.option("--lam", default=0.3, show_default=True)
@click.option("--alpha-expr", default=None)
@click.option("--beta-expr", default=None)
@click.option("--batch", default=5, show_default=True, type=click.IntRange(min=1),
              help="Number of random traces.")
@click.option("--x0", default=None, help="Start point 'x1,..,xn' (overrides --batch).")
@click.option("--y0", default=None, help="Start velocity 'y1,..,yn'.")
@click.option("--step", default=1e-3, show_default=True,
              type=click.FloatRange(min=0, min_open=True))
@click.option("--stop-radius", default=0.9, show_default=True)
@click.option("--max-steps", default=1000, show_default=True, type=click.IntRange(min=2))
@click.option("--svg", default=None, help="Write an SVG projection here.")
@click.option("--trace-dir", default=None, help="Write per-trace CSV files here.")
@click.option("--require-straight", is_flag=True,
              help="Exit 1 unless all deviations are below --tol.")
@_add_common
def geodesics(model, sigma, eps, mu, lam, alpha_expr, beta_expr, batch, x0, y0,
              step, stop_radius, max_steps, svg, trace_dir, require_straight,
              dim, seed, tol, out, no_timestamp):
    """Integrate geodesics and measure their deviation from straight chords."""
    t0 = time.perf_counter()
    m = _build(model, dim, sigma, eps, mu, lam, alpha_expr, beta_expr)
    rng = np.random.default_rng(seed)
    if x0 is not None or y0 is not None:
        if not (x0 and y0):
            raise click.UsageError("--x0 and --y0 must be given together")
        xs = np.array([_parse_numbers(x0, "--x0", dim)])
        ys = np.array([_parse_numbers(y0, "--y0", dim)])
        if np.linalg.norm(xs) >= stop_radius:
            raise click.UsageError(f"--x0 must lie inside --stop-radius {stop_radius:g}")
        if not np.any(ys):
            raise click.UsageError("--y0 must be a nonzero vector")
    else:
        radius = m.domain_radius if math.isfinite(m.domain_radius) else 1.0
        xs = sample_ball(rng, dim, batch, 0.4 * radius)
        ys = sample_sphere(rng, dim, batch)
    traces = integrate_geodesics(m, xs, ys, stop_radius, step, max_steps=max_steps)
    devs = _deviations(traces)
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        for i, tr in enumerate(traces):
            rows = [[t] + list(p) + list(v)
                    for t, p, v in zip(tr.times, tr.points, tr.velocities)]
            header = (["t"] + [f"x{j + 1}" for j in range(dim)]
                      + [f"y{j + 1}" for j in range(dim)])
            write_csv(os.path.join(trace_dir, f"trace_{i:03d}.csv"), header, rows)
    if svg:
        radius = m.domain_radius if math.isfinite(m.domain_radius) else 1.0
        svg_traces(svg, traces, radius=radius)
    checks = [check_entry("straightness", max(devs), tol)]
    config = {"model": m.name, "dim": dim, "batch": len(traces), "seed": seed,
              "step": step, "stop_radius": stop_radius, "tol": tol}
    report = make_report("geodesics", config, checks, with_clock=not no_timestamp, t0=t0)
    report["deviations"] = [float(d) for d in devs]
    report["left_domain"] = [bool(t.left_domain) for t in traces]
    write_json(report, out)
    sys.exit(1 if require_straight and not report["passed"] else 0)


@main.command()
@click.option("--model", default="berwald", show_default=True)
@click.option("--sigma", default=1.0, show_default=True)
@click.option("--eps", default=2.0, show_default=True, callback=_finite)
@click.option("--mu", default=0.0, show_default=True)
@click.option("--lam", default=0.3, show_default=True)
@click.option("--alpha-expr", default=None)
@click.option("--beta-expr", default=None)
@click.option("--k", "k_text", required=True, help="k1,k2,k3 driving the chain.")
@_samples
@_add_common
def deform(model, sigma, eps, mu, lam, alpha_expr, beta_expr, k_text,
           dim, samples, seed, tol, out, no_timestamp):
    """Run the forward+inverse deformation chains and report the residuals."""
    t0 = time.perf_counter()
    k1, k2, k3 = _parse_k(k_text)
    k = OdeParams(k1, k2, k3, eps)
    m = _build(model, dim, sigma, eps, mu, lam, alpha_expr, beta_expr)
    rng = np.random.default_rng(seed)
    radius = m.domain_radius if math.isfinite(m.domain_radius) else 1.0
    xs = sample_ball(rng, dim, samples, 0.6 * radius)
    try:
        abar, bbar = forward_chain(m.alpha, m.beta, k)
        a2, b2 = inverse_chain(abar, bbar, k)
        rt_a = float(np.max(np.abs(a2.matrix(xs) - m.alpha.matrix(xs))))
        rt_b = float(np.max(np.abs(b2.covector(xs) - m.beta.covector(xs))))
        cov = covariant_derivative(bbar, abar, xs)
        closed = float(np.max(np.abs(cov.sij)))
        c = np.einsum("...ij,...ij->...", cov.ainv, cov.rij) / dim
        conf = float(np.max(np.abs(cov.rij - c[..., None, None] * cov.a0)))
        norm_dev = float(np.max(np.abs(norm_b(abar, bbar, xs) - norm_b(m.alpha, m.beta, xs))))
    except PositivityError as exc:
        report = make_report("deform", {"model": m.name, "k": [k1, k2, k3]},
                             [{"name": "factor_positivity", "pass": False,
                               "diagnostic": str(exc)}], with_clock=not no_timestamp, t0=t0)
        write_json(report, out)
        sys.exit(1)
    checks = [
        check_entry("round_trip_metric", rt_a, 1e-9),
        check_entry("round_trip_oneform", rt_b, 1e-9),
        check_entry("closedness", closed, 1e-7),
        check_entry("conformality", conf, 1e-7),
        check_entry("norm_invariance", norm_dev, 1e-10),
    ]
    config = {"model": m.name, "dim": dim, "k": [k1, k2, k3], "eps": eps,
              "samples": samples, "seed": seed}
    report = make_report("deform", config, checks, with_clock=not no_timestamp, t0=t0)
    idx = np.argsort(np.linalg.norm(xs, axis=-1))[:5]
    report["field_samples"] = [{
        "x": xs[i].tolist(),
        "abar": abar.matrix(xs[i]).tolist(),
        "bbar": bbar.covector(xs[i]).tolist(),
    } for i in idx]
    write_json(report, out)
    sys.exit(0 if report["passed"] else 1)


@main.command("phi")
@click.option("--k", "k_text", default=None, help="k1,k2,k3 (quadrature solution).")
@click.option("--eps", default=0.0, show_default=True, callback=_finite)
@click.option("--family", type=click.Choice(["sigma", "rp"]), default=None,
              help="Closed family instead of quadrature.")
@click.option("--sigma", default=1.0, show_default=True)
@click.option("--r", "r_text", default=None, help="Rational r, e.g. -1/2.")
@click.option("--p", "p_text", default=None, help="Rational p, e.g. 1/2.")
@click.option("--grid", default=50, show_default=True)
@click.option("--smax", default=0.9, show_default=True)
@click.option("--quad-tol", default=1e-12, show_default=True)
@click.option("--out", default=None, help="CSV path (default stdout).")
def phi_cmd(k_text, eps, family, sigma, r_text, p_text, grid, smax, quad_tol, out):
    """Tabulate s, phi, phi', phi'', the ODE residual and the regularity margin."""
    from fractions import Fraction

    if family == "sigma":
        spec = SigmaSeriesPhi(sigma, eps)
        params = spec.params
    elif family == "rp":
        if not (r_text and p_text):
            raise click.UsageError("--family rp needs --r and --p")
        try:
            spec = phi_rp(Fraction(r_text), Fraction(p_text), eps)
        except (ValueError, ZeroDivisionError, FinslerError) as exc:
            raise click.UsageError(str(exc))
        params = spec.params
    elif k_text:
        k1, k2, k3 = _parse_k(k_text)
        params = OdeParams(k1, k2, k3, eps)
        spec = QuadraturePhi(params, tol=quad_tol)
    else:
        raise click.UsageError("give either --k or --family")
    smax = min(smax, 0.999 * spec.eval_radius, 0.999 * spec.b0) \
        if math.isfinite(spec.b0) else smax
    ss = np.linspace(-smax, smax, grid)
    ph, dph, ddph = spec.values(ss)
    res = ode_residual(spec, params, ss) if params is not None else np.zeros_like(ss)
    margin = ph - ss * dph + (smax * smax - ss * ss) * ddph
    header = ["s", "phi", "dphi", "ddphi", "ode_residual", "margin"]
    rows = zip(ss, ph, dph, ddph, res, margin)
    write_csv(out, header, rows)
    sys.exit(0)


if __name__ == "__main__":
    main()

"""Numerical certification of projective flatness.

A metric is projectively flat on an open set iff F_{x^k y^l} = F_{x^l y^k}
(equivalently F_{x^k y^l} y^k = F_{x^l}), in which case the spray collapses
to G^i = P y^i with P = F_{x^k} y^k / (2F) and the geodesics are straight
lines.  The residuals below certify each of those statements independently:
the mixed partials, the spray from its structured formula, and the geodesics
from a 4th-order Runge-Kutta integration of x' = y, y' = -2 G(x, y).

The mixed partials need derivatives in x only.  For F = alpha phi(s), s =
beta/alpha, the y-gradient has the closed form

    F_{y^l} = phi a_{lj} y^j / alpha + phi' (b_l - s a_{lj} y^j / alpha),

so F and F_y are evaluated on order-1 jets seeded on the n components of x:
the gradient of F is F_{x^k} and that of F_{y^l} is F_{x^k y^l}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .abmetric import ABMetric, spray_ab
from .errors import DomainError
from .geometry import (
    MetricField,
    OneFormField,
    check_point,
    christoffel,
    covariant_derivative,
    sample_ball,
    spray_riemann,
)
from .phifuncs import OdeParams

__all__ = [
    "hamel_residual",
    "rapcsak_residual",
    "projective_factor",
    "spray_proportionality_residual",
    "GeodesicTrace",
    "integrate_geodesic",
    "integrate_geodesics",
    "straightness_deviation",
    "structure_residual",
    "FlatnessReport",
    "verify_flatness",
    "sample_ball",
    "sample_sphere",
]


def _mixed_partials(m: ABMetric, x, y):
    """F, F_{x^k} and F_{x^k y^l} at (x, y), batched, from order-1 x-jets."""
    x = check_point(m.alpha, x)
    y = np.asarray(y, dtype=float)
    if np.any(np.sum(y * y, axis=-1) == 0.0):
        raise DomainError("F is only defined for nonzero tangent vectors")
    jx = jets.seed(x, order=1)
    a = m.alpha.matrix(jx)
    b = m.beta.covector(jx)
    ay = (a * y[..., None, :]).sum(-1)  # a_lj y^j
    al = jets.sqrt(jets.dot_last(ay, y))
    s = jets.dot_last(b, y) / al
    ph, dph, ddph = m.phi.values(s.val)
    phi = s.chain(ph, dph)
    dphi = s.chain(dph, ddph)
    f = al * phi
    u = ay / al[..., None]
    fy = phi[..., None] * u + dphi[..., None] * (b - s[..., None] * u)
    return f.val, f.g, np.swapaxes(fy.g, -1, -2)


def _residuals(f, fx, mixed, y):
    """Hamel and Rapcsak residuals and the projective factor P from F, F_x, F_{xy}."""
    y = np.asarray(y, dtype=float)
    hamel = np.max(np.abs(mixed - np.swapaxes(mixed, -1, -2)), axis=(-2, -1))
    rapcsak = np.max(np.abs(np.einsum("...kl,...k->...l", mixed, y) - fx), axis=-1)
    p = np.einsum("...k,...k->...", fx, y) / (2.0 * f)
    return hamel, rapcsak, p


def hamel_residual(m: ABMetric, x, y):
    """max over (k,l) of |F_{x^k y^l} - F_{x^l y^k}|."""
    return _residuals(*_mixed_partials(m, x, y), y)[0]


def rapcsak_residual(m: ABMetric, x, y):
    """max over l of |F_{x^k y^l} y^k - F_{x^l}|."""
    return _residuals(*_mixed_partials(m, x, y), y)[1]


def projective_factor(m: ABMetric, x, y):
    """P = F_{x^k} y^k / (2F)."""
    return _residuals(*_mixed_partials(m, x, y), y)[2]


def _spray_deviation(g, p, y):
    """max_i |G^i - P y^i| per point."""
    return np.max(np.abs(g - p[..., None] * y), axis=-1)


def spray_proportionality_residual(m: ABMetric, x, y):
    """max_i |G^i - P y^i| with G from the structured spray formula."""
    p = projective_factor(m, x, y)
    return _spray_deviation(spray_ab(m, x, y), p, np.asarray(y, dtype=float))


# -- geodesics ---------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicTrace:
    """Sampled solution of the geodesic equation xdd + 2G(x, xd) = 0."""

    times: np.ndarray       # (T,)
    points: np.ndarray      # (T, n)
    velocities: np.ndarray  # (T, n)
    step: float
    left_domain: bool = False


def _spray_fn(m):
    if isinstance(m, ABMetric):
        return lambda x, y: spray_ab(m, x, y)
    if isinstance(m, MetricField):
        return lambda x, y: spray_riemann(m, x, y)
    raise TypeError("expected ABMetric or MetricField")


def integrate_geodesics(m, x0, y0, stop_radius: float, step: float,
                        max_steps: int = 2000):
    """Classical RK4 on a batch of initial conditions, integrated in lockstep.

    Traces freeze once they cross ``stop_radius`` (flagged) or after
    ``max_steps`` steps; the spray is evaluated on the active lanes only, so
    a frozen lane's stage points never reach the domain guard.  Returns a
    list of GeodesicTrace.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    y = np.atleast_2d(np.asarray(y0, dtype=float)).copy()
    if np.any(np.einsum("...i,...i->...", y, y) == 0.0):
        raise DomainError("zero initial velocity")
    nb = x.shape[0]
    spray = _spray_fn(m)

    def rhs(xc, yc):
        return yc, -2.0 * spray(xc, yc)

    xs = [x.copy()]
    ys = [y.copy()]
    active = np.ones(nb, dtype=bool)
    stopped_at = np.full(nb, max_steps, dtype=int)
    for it in range(max_steps):
        if not active.any():
            break
        xa, ya = x[active], y[active]
        k1x, k1y = rhs(xa, ya)
        k2x, k2y = rhs(xa + 0.5 * step * k1x, ya + 0.5 * step * k1y)
        k3x, k3y = rhs(xa + 0.5 * step * k2x, ya + 0.5 * step * k2y)
        k4x, k4y = rhs(xa + step * k3x, ya + step * k3y)
        x[active] = xa + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        y[active] = ya + (step / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        xs.append(x.copy())
        ys.append(y.copy())
        r = np.sqrt(np.einsum("...i,...i->...", x, x))
        crossing = active & (r >= stop_radius)
        stopped_at[crossing] = it + 1
        active &= ~crossing
    xs = np.stack(xs)  # (T+1, B, n)
    ys = np.stack(ys)
    traces = []
    for b in range(nb):
        last = min(stopped_at[b], xs.shape[0] - 1)
        t = step * np.arange(last + 1)
        traces.append(GeodesicTrace(t, xs[: last + 1, b], ys[: last + 1, b], step,
                                    left_domain=stopped_at[b] < max_steps))
    return traces


def integrate_geodesic(m, x0, y0, stop_radius: float, step: float,
                       max_steps: int = 2000) -> GeodesicTrace:
    """Single-trace convenience wrapper around :func:`integrate_geodesics`."""
    return integrate_geodesics(m, np.asarray(x0)[None, :], np.asarray(y0)[None, :],
                               stop_radius, step, max_steps)[0]


def straightness_deviation(trace: GeodesicTrace) -> float:
    """Maximum Euclidean distance of trace points to the chord through (x0, y0)."""
    if len(trace.times) < 3:
        raise ValueError("trace needs at least 3 points")
    x0 = trace.points[0]
    d = trace.velocities[0]
    nrm = np.linalg.norm(d)
    if nrm == 0.0:
        raise ValueError("degenerate initial velocity")
    d = d / nrm
    rel = trace.points - x0
    proj = rel - np.outer(rel @ d, d)
    return float(np.max(np.linalg.norm(proj, axis=-1)))


# -- structure equations -------------------------------------------------------


def structure_residual(a: MetricField, b: OneFormField, k: OdeParams, x):
    """Residuals of the two structure equations at x, with tau recovered by trace.

    The covariant-derivative equation determines tau from its a-trace,

        tau = a^{ij} b_{i|j} / (2 [n (1 + k1 b^2) + (k3 + k2 b^2) b^2]),

    after which the full equation must hold, and the spray of alpha plus
    tau (k1 alpha^2 + k2 beta^2) b^i must be proportional to y (the 1-form xi
    is eliminated by projecting orthogonally to y) along 8 seeded unit
    directions.  Returns
    (frobenius residual of the b-equation, max orthogonal spray component).
    """
    x = np.asarray(x, dtype=float)
    n = a.dim
    cov = covariant_derivative(b, a, x)
    t = cov.b2
    denom = 2.0 * (n * (1.0 + k.k1 * t) + (k.k3 + k.k2 * t) * t)
    if np.any(np.abs(denom) < 1e-14):
        raise ZeroDivisionError("vanishing trace denominator in tau extraction")
    tau = np.einsum("...ij,...ij->...", cov.ainv, cov.bij) / denom
    predicted = 2.0 * tau[..., None, None] * (
        (1.0 + k.k1 * t)[..., None, None] * cov.a0
        + (k.k3 + k.k2 * t)[..., None, None] * cov.b_low[..., :, None] * cov.b_low[..., None, :])
    res_b = np.sqrt(np.sum((cov.bij - predicted) ** 2, axis=(-2, -1)))

    rng = np.random.default_rng(12345)
    ys = rng.standard_normal((8, n))
    ys /= np.linalg.norm(ys, axis=-1, keepdims=True)
    gam = christoffel(a, x)
    res_g = np.zeros(np.shape(t))
    for yv in ys:
        y = np.broadcast_to(yv, x.shape)
        g0 = 0.5 * np.einsum("...ijk,...j,...k->...i", gam, y, y)  # spray_riemann's G^i
        al2 = np.einsum("...ij,...i,...j->...", cov.a0, y, y)
        be = np.einsum("...i,...i->...", cov.b_low, y)
        v = g0 + (tau * (k.k1 * al2 + k.k2 * be * be))[..., None] * cov.b_up
        y2 = np.einsum("...i,...i->...", y, y)
        orth = v - (np.einsum("...i,...i->...", v, y) / y2)[..., None] * y
        res_g = np.maximum(res_g, np.max(np.abs(orth), axis=-1))
    return res_b, res_g


# -- sampling and the report-level driver --------------------------------------


def sample_sphere(rng, n: int, count: int):
    """Uniform directions on the unit sphere."""
    y = rng.standard_normal((count, n))
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


@dataclass(frozen=True)
class FlatnessReport:
    """Aggregated flatness residuals over a sample sweep."""

    max_hamel: float
    max_rapcsak: float
    max_spray_dev: float
    samples: int
    passed: bool
    tolerance: float


def verify_flatness(m: ABMetric, samples: int = 100, seed: int = 0,
                    tolerance: float = 1e-6) -> FlatnessReport:
    """Hamel/Rapcsak/spray-proportionality sweep over seeded random samples.

    Samples are quasi-random in the ball of 0.8 times the metric's sampling
    radius, with unit-sphere directions; the whole sweep is one batch.
    """
    rng = np.random.default_rng(seed)
    xs = sample_ball(rng, m.dim, samples, 0.8 * m.sample_radius)
    ys = sample_sphere(rng, m.dim, samples)
    h, r, p = _residuals(*_mixed_partials(m, xs, ys), ys)
    g = spray_ab(m, xs, ys)
    dev = _spray_deviation(g, p, ys) / (np.max(np.abs(g), axis=-1) + 1.0)
    mh, mr, md = float(np.max(h)), float(np.max(r)), float(np.max(dev))
    return FlatnessReport(mh, mr, md, samples, mh <= tolerance and mr <= tolerance
                          and md <= tolerance, tolerance)

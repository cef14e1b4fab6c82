"""Assembly of F = alpha * phi(beta/alpha): evaluation, fundamental tensor,
spray coefficients, and the Zermelo navigation correspondence for Randers
metrics.

The spray formula expresses G^i of F through the Riemannian spray of alpha
and the covariant-derivative contractions of beta:

    G^i = G^i_alpha + alpha Q s^i_0
        + Theta (-2 alpha Q s_0 + r_00) y^i / alpha
        + Psi   (-2 alpha Q s_0 + r_00) b^i

with Q = phi'/(phi - s phi'),
     Theta = ((phi - s phi') phi' - s phi phi'') / (2 phi D),
     Psi = phi'' / (2 D),   D = phi - s phi' + (b^2 - s^2) phi''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .errors import DomainError, RegularityError
from .geometry import (
    MetricField,
    OneFormField,
    check_point,
    covariant_derivative,
    inverse_metric,
    norm_b,
    sample_ball,
    spray_riemann,
)
from .phifuncs import PhiSpec, phi_randers, regularity_check

__all__ = [
    "ABMetric",
    "NavigationData",
    "assemble",
    "F_eval",
    "fundamental_tensor",
    "qtp",
    "spray_ab",
    "navigation_to_randers",
    "randers_to_navigation",
    "randers_from_navigation",
]


@dataclass(frozen=True)
class ABMetric:
    """An (alpha,beta)-metric F = alpha * phi(beta/alpha)."""

    alpha: MetricField
    beta: OneFormField
    phi: PhiSpec
    name: str = ""

    @property
    def dim(self) -> int:
        return self.alpha.dim

    @property
    def domain_radius(self) -> float:
        return self.alpha.domain_radius

    @property
    def sample_radius(self) -> float:
        """Radius that random samples scale to: the domain radius, or 1 on all of R^n."""
        radius = self.alpha.domain_radius
        return radius if math.isfinite(radius) else 1.0


def assemble(alpha: MetricField, beta: OneFormField, phi: PhiSpec, name: str = "") -> ABMetric:
    """Build an ABMetric, certifying regularity on the sampled domain.

    Estimates sup ||beta||_alpha over 64 seeded quasi-random points in 0.95
    of the sampling ball and runs the strong-convexity inequality check at
    that bound on a 12-point grid.
    """
    m = ABMetric(alpha, beta, phi, name=name)
    pts = sample_ball(np.random.default_rng(0), alpha.dim, 64, 0.95 * m.sample_radius)
    bmax = float(np.max(norm_b(alpha, beta, pts)))
    if bmax >= phi.b0:
        raise RegularityError(f"sup ||beta|| = {bmax:.6g} >= phi validity b0 = {phi.b0:.6g}")
    if bmax > 0:
        report = regularity_check(phi, bmax, grid=12)
        if not report.passed:
            raise RegularityError(
                f"regularity fails at b0={bmax:.6g}: min margin {report.min_margin:.3g}, "
                f"min phi {report.min_phi:.3g}")
    return m


def F_eval(m: ABMetric, x, y):
    """F(x, y); accepts batched points/vectors and jet arguments.

    When x and y are plain arrays, the domain and nonzero-vector guards run;
    jet callers (the flatness residuals) are expected to have validated the
    base point already.
    """
    if not isinstance(x, jets.Jet) and not isinstance(y, jets.Jet):
        x = check_point(m.alpha, x)
        y = np.asarray(y, dtype=float)
        if np.any(np.sum(y * y, axis=-1) == 0.0):
            raise DomainError("F is only defined for nonzero tangent vectors")
    a = m.alpha.matrix(x)
    b = m.beta.covector(x)
    al = jets.sqrt(jets.quad_form(a, y))
    be = jets.dot_last(b, y)
    s = be / al
    return al * m.phi.apply(s)


def fundamental_tensor(m: ABMetric, x, y):
    """g_ij = Hessian in y of F^2/2, plus a positive-definiteness verdict."""
    x = check_point(m.alpha, x)
    jy = jets.seed(np.asarray(y, dtype=float), order=2)
    f = F_eval(m, x, jy)
    e = f * f * 0.5
    g = e.h
    lam_min = float(np.min(np.linalg.eigvalsh(g)))
    return g, lam_min > 0.0


def qtp(phi: PhiSpec, s, b2):
    """The spray-formula scalars (Q, Theta, Psi) at (s, b^2)."""
    s = np.asarray(s, dtype=float)
    ph, dph, ddph = phi.values(s)
    w = ph - s * dph
    if np.any(w <= 0.0):
        raise RegularityError("phi - s phi' is nonpositive: not a Finsler metric at this s")
    den = w + (np.asarray(b2) - s * s) * ddph
    if np.any(den <= 0.0):
        raise RegularityError("phi - s phi' + (b^2 - s^2) phi'' is nonpositive")
    q = dph / w
    theta = (w * dph - s * ph * ddph) / (2.0 * ph * den)
    psi = ddph / (2.0 * den)
    return q, theta, psi


def spray_ab(m: ABMetric, x, y):
    """Spray coefficients G^i of the (alpha,beta)-metric at (x, y)."""
    x = check_point(m.alpha, x)
    y = np.asarray(y, dtype=float)
    cov = covariant_derivative(m.beta, m.alpha, x)
    g_alpha = spray_riemann(m.alpha, x, y)
    al = np.sqrt(np.einsum("...ij,...i,...j->...", cov.a0, y, y))
    be = np.einsum("...i,...i->...", cov.b_low, y)
    s = be / al
    q, theta, psi = qtp(m.phi, s, cov.b2)
    core = -2.0 * al * q * cov.s0(y) + cov.r00(y)
    return (g_alpha
            + (al * q)[..., None] * cov.si0_up(y)
            + (theta * core / al)[..., None] * y
            + (psi * core)[..., None] * cov.b_up)


@dataclass(frozen=True)
class NavigationData:
    """Zermelo navigation pair: a Riemannian sea h and a wind W with |W|_h < 1."""

    h: MetricField
    w: Callable  # x -> vector field components W^i, (..., n)

    @property
    def dim(self) -> int:
        return self.h.dim


def randers_to_navigation(alpha: MetricField, beta: OneFormField, x):
    """Pointwise (h_ij, W^i) navigation data of the Randers metric alpha + beta."""
    x = check_point(alpha, x)
    a0 = jets.asarray_value(alpha.matrix(x))
    b0 = jets.asarray_value(beta.covector(x))
    ainv = inverse_metric(a0)
    b2 = np.einsum("...ij,...i,...j->...", ainv, b0, b0)
    if np.any(b2 >= 1.0):
        raise DomainError(f"||beta|| = {float(np.max(np.sqrt(b2))):.6g} >= 1")
    lam = 1.0 - b2
    hij = lam[..., None, None] * (a0 - b0[..., :, None] * b0[..., None, :])
    wlow = -lam[..., None] * b0
    wup = jets.vecsolve(hij, wlow)
    return hij, wup


def _navigation_pair(nav: NavigationData, name: str):
    """The (alpha, beta) fields of the Randers metric that solves the navigation problem."""
    n = nav.dim

    def wind(x):
        """h_ij, W_i = h_ij W^j and lam = 1 - |W|_h^2; |W|_h must stay below 1."""
        h = nav.h.matrix(x)
        wup = nav.w(x)
        wlow = (h * jets.row(wup)).sum(-1) if isinstance(h, jets.Jet) or isinstance(wup, jets.Jet) \
            else np.einsum("...ij,...j->...i", h, wup)
        w2 = jets.dot_last(wlow, wup)
        val = jets.asarray_value(w2)
        if np.any(val >= 1.0):
            raise DomainError(f"|W|_h = {float(np.max(np.sqrt(val))):.6g} >= 1")
        return h, wlow, 1.0 - w2

    def mat(x):
        h, wlow, lam = wind(x)
        return (jets.e2(lam) * h + jets.outer(wlow, wlow)) / jets.e2(lam * lam)

    def cov(x):
        _, wlow, lam = wind(x)
        return -wlow / jets.col(lam)

    return (MetricField(n, mat, domain_radius=nav.h.domain_radius, name=f"{name}-alpha"),
            OneFormField(n, cov, name=f"{name}-beta"))


def navigation_to_randers(nav: NavigationData, x):
    """Pointwise (a_ij, b_i) of the Randers metric solving the navigation problem."""
    x = check_point(nav.h, x)
    alpha, beta = _navigation_pair(nav, "")
    return alpha.matrix(x), beta.covector(x)


def randers_from_navigation(nav: NavigationData, name: str = "") -> ABMetric:
    """Field-level Randers metric from navigation data (jet-transparent)."""
    alpha, beta = _navigation_pair(nav, name)
    return ABMetric(alpha, beta, phi_randers(), name=name)


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
from .phifuncs import PhiSpec, regularity_check

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


def assemble(alpha: MetricField, beta: OneFormField, phi: PhiSpec, name: str = "",
             check: bool = True, samples: int = 64, seed: int = 0,
             reg_grid: int = 12) -> ABMetric:
    """Build an ABMetric, certifying regularity on the sampled domain.

    Estimates sup ||beta||_alpha over quasi-random points in 0.95 of the
    domain ball and runs the strong-convexity inequality check at that bound.
    """
    m = ABMetric(alpha, beta, phi, name=name)
    if not check:
        return m
    rng = np.random.default_rng(seed)
    radius = alpha.domain_radius if math.isfinite(alpha.domain_radius) else 1.0
    pts = sample_ball(rng, alpha.dim, samples, 0.95 * radius)
    bmax = float(np.max(norm_b(alpha, beta, pts)))
    if bmax >= phi.b0:
        raise RegularityError(f"sup ||beta|| = {bmax:.6g} >= phi validity b0 = {phi.b0:.6g}")
    if bmax > 0:
        report = regularity_check(phi, bmax, grid=reg_grid)
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


def spray_defn(m: ABMetric, x, y):
    """Spray straight from the definition G^i = g^{il}([F^2]_{x^k y^l} y^k - [F^2]_{x^l})/4.

    Independent of the structured formula in :func:`spray_ab`; used to
    cross-validate conventions on generic metrics.
    """
    x = check_point(m.alpha, x)
    y = np.asarray(y, dtype=float)
    n = m.dim
    jx, jy = jets.seed_pair(x, y, order=2)
    e = F_eval(m, jx, jy)
    e = e * e  # F^2
    hx_yl = e.h[..., :n, n:]  # [F^2]_{x^k y^l}
    rhs = np.einsum("...kl,...k->...l", hx_yl, y) - e.g[..., :n]
    gij, _ = fundamental_tensor(m, x, y)
    return 0.25 * jets.vecsolve(gij, rhs)


@dataclass(frozen=True)
class NavigationData:
    """Zermelo navigation pair: a Riemannian sea h and a wind W with |W|_h < 1."""

    h: MetricField
    w: Callable  # x -> vector field components W^i, (..., n)

    @property
    def dim(self) -> int:
        return self.h.dim


def navigation_to_randers(nav: NavigationData, x):
    """Pointwise (a_ij, b_i) of the Randers metric solving the navigation problem."""
    x = check_point(nav.h, x)
    h0 = jets.asarray_value(nav.h.matrix(x))
    wup = np.asarray(nav.w(x), dtype=float)
    wlow = np.einsum("...ij,...j->...i", h0, wup)
    w2 = np.einsum("...i,...i->...", wlow, wup)
    if np.any(w2 >= 1.0):
        raise DomainError(f"|W|_h = {float(np.max(np.sqrt(w2))):.6g} >= 1")
    lam = 1.0 - w2
    aij = (lam[..., None, None] * h0 + wlow[..., :, None] * wlow[..., None, :]) / (lam * lam)[..., None, None]
    bi = -wlow / lam[..., None]
    return aij, bi


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


def randers_from_navigation(nav: NavigationData, name: str = "") -> ABMetric:
    """Field-level Randers metric from navigation data (jet-transparent)."""
    from .phifuncs import phi_randers

    n = nav.dim

    def wind(x):
        """h_ij, W_i = h_ij W^j and lam = 1 - |W|_h^2."""
        h = nav.h.matrix(x)
        wup = nav.w(x)
        wlow = (h * jets.row(wup)).sum(-1) if isinstance(h, jets.Jet) or isinstance(wup, jets.Jet) \
            else np.einsum("...ij,...j->...i", h, wup)
        return h, wlow, 1.0 - jets.dot_last(wlow, wup)

    def mat(x):
        h, wlow, lam = wind(x)
        return (jets.e2(lam) * h + jets.outer(wlow, wlow)) / jets.e2(lam * lam)

    def cov(x):
        _, wlow, lam = wind(x)
        return -wlow / jets.col(lam)

    alpha = MetricField(n, mat, domain_radius=nav.h.domain_radius, name=f"{name}-alpha")
    beta = OneFormField(n, cov, name=f"{name}-beta")
    return ABMetric(alpha, beta, phi_randers(), name=name)


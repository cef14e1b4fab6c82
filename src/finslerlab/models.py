"""Constructors for the concrete metrics and 1-forms used throughout.

Ball-family conventions: on the unit ball the shared Riemannian core is

    A(x, y)^2 = (1-|x|^2)|y|^2 + <x,y>^2,

and the sigma-family metric is alpha = A/(1-|x|^2)^(sigma+1) with
beta = -<x,y>/(1-|x|^2)^(sigma+1), phi = phi_sigma.  sigma=0, eps=1 is the
Funk metric; sigma=1, eps=2 is the quadratic (Berwald-type) metric.  The
1-form sign follows the Funk display (-<x,y>); the family therefore agrees
with funk_metric/berwald_metric pointwise, not merely up to the x -> -x
isometry.

Space forms are written in projective coordinates (geodesics are straight
lines); the closed conformal 1-forms w.r.t. them have the unified form

    W_flat = [lam <x,y> + (1+mu|x|^2)<a,y> - mu <a,x><x,y>] / (1+mu|x|^2)^(3/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .abmetric import ABMetric, assemble
from .deform import inverse_chain
from .errors import DomainError, RegularityError
from .geometry import (
    MetricField,
    OneFormField,
    closed_conformal_residual,
    constant_oneform,
    covariant_derivative,
)
from .phifuncs import (
    OdeParams,
    QuadraturePhi,
    SigmaSeriesPhi,
    ZeroPSeriesPhi,
    phi_berwald,
    phi_randers,
    phi_riemannian,
    regularity_check,
)

__all__ = [
    "funk_metric",
    "berwald_metric",
    "family_sigma_metric",
    "space_form_metric",
    "riemannian_ab",
    "ConformalFieldParams",
    "conformal_field",
    "closed_conformal_form",
    "example_63_metric",
    "example_64_metric",
    "build_model",
    "MODEL_NAMES",
]


def _ball_pair(n: int, power: float):
    """(alpha, beta) with a_ij = [(1-r^2) I + x x]/(1-r^2)^(2p), b_i = -x_i/(1-r^2)^p."""
    eye = np.eye(n)

    def mat(x):
        r2 = jets.dot_last(x, x)
        lam = 1.0 - r2
        outer = jets.outer(x, x)
        return (jets.e2(lam) * eye + outer) * jets.e2(jets.power(lam, -2.0 * power))

    def cov(x):
        r2 = jets.dot_last(x, x)
        return -x * jets.col(jets.power(1.0 - r2, -power))

    return (MetricField(n, mat, domain_radius=1.0, name=f"ball-alpha[p={power:g}]"),
            OneFormField(n, cov, name=f"ball-beta[p={power:g}]"))


def funk_metric(n: int) -> ABMetric:
    """The Funk metric on the unit ball (Randers form, projectively flat)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    alpha, beta = _ball_pair(n, 1.0)
    return ABMetric(alpha, beta, phi_randers(), name="funk")


def berwald_metric(n: int) -> ABMetric:
    """Berwald's quadratic metric F = (alpha+beta)^2/alpha on the unit ball."""
    if n < 2:
        raise ValueError("n must be at least 2")
    alpha, beta = _ball_pair(n, 2.0)
    return ABMetric(alpha, beta, phi_berwald(), name="berwald")


def family_sigma_metric(sigma: float, eps: float, n: int) -> ABMetric:
    """The one-parameter family with phi_sigma; regularity-checked up to b = 0.95."""
    if n < 2:
        raise ValueError("n must be at least 2")
    alpha, beta = _ball_pair(n, sigma + 1.0)
    phi = SigmaSeriesPhi(sigma, eps)
    b0 = min(0.95, 0.999 * phi.b0)
    report = regularity_check(phi, b0, grid=16)
    if not report.passed:
        raise RegularityError(
            f"phi_sigma(sigma={sigma:g}, eps={eps:g}) fails regularity up to b={b0:.3g}: "
            f"min margin {report.min_margin:.3g}, min phi {report.min_phi:.3g}")
    return ABMetric(alpha, beta, phi, name=f"family-sigma[{sigma:g},{eps:g}]")


def sigma_eps_range(sigma: float, b0: float = 0.9) -> float:
    """Largest eps in [0, 4] passing the regularity check at b0 (bisection to 1e-3)."""

    def ok(eps):
        try:
            return regularity_check(SigmaSeriesPhi(sigma, eps), b0, grid=12).passed
        except Exception:
            return False

    a, b = 0.0, 4.0
    if not ok(a):
        return math.nan
    if ok(b):
        return b
    while b - a > 1e-3:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if ok(mid) else (a, mid)
    return a


def space_form_metric(mu: float, n: int, working_radius: float = 1.0) -> MetricField:
    """Constant-curvature metric in projective (straight-geodesic) coordinates."""
    if n < 2:
        raise ValueError("n must be at least 2")
    eye = np.eye(n)

    def mat(x):
        r2 = jets.dot_last(x, x)
        den = 1.0 + mu * r2
        outer = jets.outer(x, x)
        return (jets.e2(den) * eye - mu * outer) / jets.e2(den * den)

    radius = working_radius
    if mu < 0:
        radius = min(radius, 1.0 / math.sqrt(-mu))
    return MetricField(n, mat, domain_radius=radius, name=f"spaceform[{mu:g}]")


def riemannian_ab(a: MetricField, name: str = "") -> ABMetric:
    """Wrap a Riemannian metric as the (alpha,beta)-metric with phi = 1, through the gate."""
    return assemble(a, constant_oneform(np.zeros(a.dim)), phi_riemannian(),
                    name=name or f"riemannian({a.name})")


@dataclass(frozen=True)
class ConformalFieldParams:
    """Parameters of the general conformal vector field on a space form (n >= 3)."""

    mu: float
    lam: float = 0.0
    q: np.ndarray | None = None     # antisymmetric matrix
    a: np.ndarray | None = None
    b: np.ndarray | None = None

    def validate(self, n: int):
        if self.q is not None:
            q = np.asarray(self.q, dtype=float)
            if q.shape != (n, n) or np.max(np.abs(q + q.T)) > 1e-12:
                raise ValueError("q must be an antisymmetric n x n matrix")


def conformal_field(params: ConformalFieldParams, n: int):
    """The general conformal vector field W w.r.t. space_form(mu), with its dual.

    Returns (w, wflat): the vector-field callable and the lowered 1-form field.
    The four-parameter family requires n >= 3.
    """
    if n < 3:
        raise DomainError("the general conformal family requires n >= 3")
    params.validate(n)
    mu, lam = params.mu, params.lam
    qm = np.asarray(params.q, dtype=float) if params.q is not None else np.zeros((n, n))
    av = np.asarray(params.a, dtype=float) if params.a is not None else np.zeros(n)
    bv = np.asarray(params.b, dtype=float) if params.b is not None else np.zeros(n)
    h = space_form_metric(mu, n)

    def w(x):
        r2 = jets.dot_last(x, x)
        root = jets.sqrt(1.0 + mu * r2)
        ax = jets.dot_last(x, av)
        bx = jets.dot_last(x, bv)
        qx = (qm * jets.row(x)).sum(-1) if isinstance(x, jets.Jet) else np.einsum("ij,...j->...i", qm, x)
        return (x * jets.col(lam * root + ax)
                - jets.col(r2 / (root + 1.0)) * av
                + qx + bv + mu * jets.col(bx) * x)

    def wflat(x):
        hv = h.matrix(x)
        wv = w(x)
        if isinstance(hv, jets.Jet) or isinstance(wv, jets.Jet):
            return (hv * jets.row(wv)).sum(-1)
        return np.einsum("...ij,...j->...i", hv, wv)

    return w, OneFormField(n, wflat, name="conformal-dual")


def closed_conformal_form(mu: float, lam: float, a, n: int,
                          verify: bool = False) -> OneFormField:
    """The closed AND conformal 1-form w.r.t. space_form(mu): the unified display.

    With ``verify=True`` the construction is certified numerically: s_ij must
    vanish and r_ij must be proportional to the space-form metric at sampled
    points.
    """
    av = np.asarray(a, dtype=float) if a is not None else np.zeros(n)
    if av.shape != (n,):
        raise ValueError("a must be an n-vector")

    def cov(x):
        r2 = jets.dot_last(x, x)
        den = 1.0 + mu * r2
        ax = jets.dot_last(x, av)
        return ((x * jets.col(lam) + jets.col(den) * av - mu * jets.col(ax) * x)
                * jets.col(jets.power(den, -1.5)))

    form = OneFormField(n, cov, name=f"closed-conformal[{mu:g},{lam:g}]")
    if verify:
        h = space_form_metric(mu, n)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.4, 0.4, size=(20, n)) * (h.domain_radius)
        smax, res = closed_conformal_residual(covariant_derivative(form, h, pts))
        if smax > 1e-8 or res > 1e-7:
            raise RegularityError(f"closed-conformal certification failed: |s|={smax:.2e}, conf res={res:.2e}")
    return form


def example_63_metric(sign: int, eps: float, n: int, mu: float = 0.0,
                      lam: float = 0.3) -> ABMetric:
    """The exponential-factor example: k = (±2, 0, ∓2), phi from the r=0 series."""
    k = OdeParams(2.0, 0.0, -2.0, eps) if sign > 0 else OdeParams(-2.0, 0.0, 2.0, eps)
    abar = space_form_metric(mu, n)
    bbar = closed_conformal_form(mu, lam, None, n)
    alpha, beta = inverse_chain(abar, bbar, k)
    phi = ZeroPSeriesPhi(1.0 / k.k1, eps)
    return assemble(alpha, beta, phi, name=f"example63[{'+' if sign > 0 else '-'}]")


def example_64_metric(eps: float, n: int, mu: float = 0.0, lam: float = 0.3) -> ABMetric:
    """The quartic-denominator example: k = (0, 1, 0), phi by quadrature."""
    k = OdeParams(0.0, 1.0, 0.0, eps)
    abar = space_form_metric(mu, n)
    bbar = closed_conformal_form(mu, lam, None, n)
    alpha, beta = inverse_chain(abar, bbar, k)
    return assemble(alpha, beta, QuadraturePhi(k), name="example64")


MODEL_NAMES = ("funk", "berwald", "family-sigma", "space-form", "example63-plus",
               "example63-minus", "example64")


def build_model(name: str, dim: int, sigma: float = 1.0, eps: float = 2.0,
                mu: float = 0.0, lam: float = 0.3) -> ABMetric:
    """Model registry for the CLI."""
    if name == "funk":
        return funk_metric(dim)
    if name == "berwald":
        return berwald_metric(dim)
    if name == "family-sigma":
        return family_sigma_metric(sigma, eps, dim)
    if name == "space-form":
        return riemannian_ab(space_form_metric(mu, dim), name=f"space-form[{mu:g}]")
    if name == "example63-plus":
        return example_63_metric(+1, eps, dim, mu=mu, lam=lam)
    if name == "example63-minus":
        return example_63_metric(-1, eps, dim, mu=mu, lam=lam)
    if name == "example64":
        return example_64_metric(eps, dim, mu=mu, lam=lam)
    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")

"""beta-deformations of a Riemannian metric / 1-form pair.

Three elementary deformations, all driven by scalar factors of t = ||beta||^2:

    stretch    a~   = sqrt(alpha^2 - kappa(t) beta^2),  beta unchanged
    conformal  a^   = e^(rho(t)) alpha,                 beta unchanged
    rescale    beta- = nu(t) beta,                      alpha unchanged

plus the specific factor choices that straighten the structure equations:
kappa = -(k1+k3+k2 t) (a particular solution of the Riccati equation),
rho' = (k3+k2 t)/(2 D(t)), nu = e^rho sqrt(D(t)), with
D(t) = 1 + (k1+k3) t + k2 t^2.  The forward chain maps data satisfying the
structure equations to a projectively flat metric with a closed conformal
1-form; the inverse chain is the closed-form pair

    alpha = eta(T) sqrt(abar^2 - (k1+k3+k2 T)/D(T) * bbar^2)
    beta  = eta(T)/sqrt(D(T)) * bbar,          T = ||bbar||^2,

with eta = e^(-rho) evaluated by its five-case elementary form.

All factors are functions of the norm taken w.r.t. the *input* pair of the
respective operation; the chains below bake the full composite into a single
closure so no staged-norm bookkeeping is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .errors import PositivityError
from .geometry import MetricField, OneFormField, covariant_derivative, pair_fields, spray_riemann
from .phifuncs import OdeParams, eta_core

__all__ = [
    "ScalarFactor",
    "DeformChain",
    "deform_stretch",
    "deform_conformal",
    "deform_rescale",
    "chain_pair",
    "standard_factors",
    "kappa_riccati_residual",
    "eta_factor",
    "forward_chain",
    "inverse_chain",
    "berwald_chain",
    "predicted_after_stretch",
    "predicted_after_conformal",
    "predicted_after_rescale",
]


@dataclass(frozen=True)
class ScalarFactor:
    """Smooth scalar factor of t = b^2, with derivative access via jets."""

    fn: Callable  # t (array or Jet) -> value
    name: str = ""

    def __call__(self, t):
        return self.fn(t)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        jt = jets.Jet(t, np.ones(t.shape + (1,)))
        out = self.fn(jt)
        if isinstance(out, jets.Jet):
            return out.g[..., 0]
        return np.zeros_like(t)

    @staticmethod
    def constant(c: float, name: str = "") -> "ScalarFactor":
        return ScalarFactor(lambda t: c + 0.0 * t, name=name or f"const[{c:g}]")


ZERO_FACTOR = ScalarFactor.constant(0.0, "zero")
ONE_FACTOR = ScalarFactor.constant(1.0, "one")


@dataclass(frozen=True)
class DeformChain:
    """The factor triple of the standard chain for given ODE parameters."""

    kappa: ScalarFactor
    rho: ScalarFactor
    nu: ScalarFactor
    params: OdeParams
    direction: str = "forward"


def _check_pos(v, label):
    val = jets.asarray_value(v)
    if np.any(val <= 0.0):
        raise PositivityError(f"{label} lost positivity (min {float(np.min(val)):.6g})")


def _stretched(kappa: ScalarFactor):
    def alpha_of(av, bv, t):
        kv = kappa(t)
        _check_pos(1.0 - kv * t, "1 - kappa b^2")
        return av - jets.e2(kv) * jets.outer(bv, bv)

    return alpha_of


def _rescaled(nu: ScalarFactor):
    def beta_of(bv, t):
        nv = nu(t)
        _check_pos(nv, "nu")
        return jets.col(nv) * bv

    return beta_of


def deform_stretch(a: MetricField, b: OneFormField, kappa: ScalarFactor):
    """a~_ij = a_ij - kappa(b^2) b_i b_j; the 1-form is unchanged."""
    return pair_fields(a, b, _stretched(kappa), None, "stretch")


def deform_conformal(a: MetricField, b: OneFormField, rho: ScalarFactor):
    """a^_ij = e^(2 rho(b^2)) a_ij; the 1-form is unchanged."""

    def alpha_of(av, bv, t):
        return jets.e2(jets.exp(2.0 * rho(t))) * av

    return pair_fields(a, b, alpha_of, None, "conf")


def deform_rescale(a: MetricField, b: OneFormField, nu: ScalarFactor):
    """beta-_i = nu(b^2) b_i; the metric is unchanged."""
    return pair_fields(a, b, None, _rescaled(nu), "rescale")


def chain_pair(a: MetricField, b: OneFormField, kappa: ScalarFactor,
               rho: ScalarFactor, nu: ScalarFactor):
    """Full stretch+conformal+rescale composite, all factors at the original b^2."""
    stretched = _stretched(kappa)

    def alpha_of(av, bv, t):
        at = stretched(av, bv, t)
        return jets.e2(jets.exp(2.0 * rho(t))) * at

    return pair_fields(a, b, alpha_of, _rescaled(nu), "chain")


# -- the standard factor choices ----------------------------------------------


def standard_factors(k: OdeParams) -> DeformChain:
    """kappa = -(k1+k3+k2 t), rho = -ln(eta), nu = e^rho sqrt(D)."""
    k1, k2, k3 = k.k1, k.k2, k.k3
    s = k1 + k3

    def kap(t):
        return -(s + k2 * t) + 0.0 * t

    def rho(t):
        return -jets.log(eta_core(k1, k2, k3, t))

    def nu(t):
        d = _checked_d(s, k2, t, "1+(k1+k3)t+k2 t^2")
        return jets.sqrt(d) / eta_core(k1, k2, k3, t)

    return DeformChain(ScalarFactor(kap, "kappa"), ScalarFactor(rho, "rho"),
                       ScalarFactor(nu, "nu"), k)


def kappa_riccati_residual(k: OdeParams, t):
    """Residual of D(t) kappa' + kappa^2 + (k1+k3) kappa + k2 for the standard kappa."""
    t = np.asarray(t, dtype=float)
    s = k.k1 + k.k3
    d = 1.0 + s * t + k.k2 * t * t
    kap = -(s + k.k2 * t)
    return d * (-k.k2) + kap * kap + s * kap + k.k2


def eta_factor(k: OdeParams, bbar2):
    """The inverse-chain conformal factor eta(bbar^2), closed form, eta(0)=1."""
    return eta_core(k.k1, k.k2, k.k3, bbar2)


def _checked_d(s, k2, t, label):
    """D(t) = 1 + (k1+k3) t + k2 t^2, which must stay positive."""
    d = 1.0 + s * t + k2 * t * t
    _check_pos(d, label)
    return d


def forward_chain(a: MetricField, b: OneFormField, k: OdeParams):
    """(abar, bbar): abar_ij = eta^{-2} (a_ij + (k1+k3+k2 b^2) b_i b_j), bbar = eta^{-1} sqrt(D) beta."""
    k1, k2, k3 = k.k1, k.k2, k.k3
    s = k1 + k3
    label = "1+(k1+k3)b^2+k2 b^4"

    def alpha_of(av, bv, t):
        _checked_d(s, k2, t, label)
        eta = eta_core(k1, k2, k3, t)
        return (av + jets.e2(s + k2 * t) * jets.outer(bv, bv)) / jets.e2(eta * eta)

    def beta_of(bv, t):
        d = _checked_d(s, k2, t, label)
        return jets.col(jets.sqrt(d) / eta_core(k1, k2, k3, t)) * bv

    return pair_fields(a, b, alpha_of, beta_of, "fwd")


def inverse_chain(abar: MetricField, bbar: OneFormField, k: OdeParams):
    """The closed-form inverse pair built pointwise from (abar, bbar, bbar^2)."""
    k1, k2, k3 = k.k1, k.k2, k.k3
    s = k1 + k3
    label = "1+(k1+k3)bbar^2+k2 bbar^4"

    def alpha_of(av, bv, t):
        d = _checked_d(s, k2, t, label)
        eta = eta_core(k1, k2, k3, t)
        coef = (s + k2 * t) / d
        return jets.e2(eta * eta) * (av - jets.e2(coef) * jets.outer(bv, bv))

    def beta_of(bv, t):
        d = _checked_d(s, k2, t, label)
        return jets.col(eta_core(k1, k2, k3, t) / jets.sqrt(d)) * bv

    return pair_fields(abar, bbar, alpha_of, beta_of, "inv")


def berwald_chain(a: MetricField, b: OneFormField, direction: str = "forward"):
    """The two-step quadratic-metric chain: conformal ln(1-b^2) plus rescale sqrt(1-b^2).

    forward:  abar_ij = (1-b^2)^2 a_ij,  bbar_i = sqrt(1-b^2) b_i   (needs b < 1)
    inverse:  a_ij = (1+bbar^2)^2 abar_ij,  b_i = sqrt(1+bbar^2) bbar_i
    and the norms relate by (1-b^2)(1+bbar^2) = 1.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    fwd = direction == "forward"

    def lam_of(t):
        if fwd:
            _check_pos(1.0 - t, "1 - b^2")
            return 1.0 - t
        return 1.0 + t

    def alpha_of(av, bv, t):
        lam = lam_of(t)
        return jets.e2(lam * lam) * av

    def beta_of(bv, t):
        return jets.col(jets.sqrt(lam_of(t))) * bv

    return pair_fields(a, b, alpha_of, beta_of, f"bw-{direction}")


# -- stage-level predicted transforms ------------------------------------------
#
# Given the original pair (a, b) and the factor values at the original b^2,
# these return what the deformed spray and covariant derivative must be,
# without differentiating the deformed fields.  The direct recomputation from
# the deformed fields is the cross-check.


def predicted_after_stretch(a: MetricField, b: OneFormField, kappa: ScalarFactor, x, y):
    """(G~, b~_{i|j}) predicted from the stretch transformation formulas."""
    cov = covariant_derivative(b, a, x)
    y = np.asarray(y, dtype=float)
    t = cov.b2
    kv, kd = kappa(t), kappa.deriv(t)
    one = 1.0 - kv * t
    _check_pos(one, "1 - kappa b^2")
    g0 = spray_riemann(a, x, y)
    be = np.einsum("...i,...i->...", cov.b_low, y)
    rs_low = cov.r_i + cov.s_i
    rs_up = cov.r_up + cov.s_up
    r0s0 = cov.r0(y) + cov.s0(y)
    g = (g0
         - jets.col(kv / (2.0 * one)) * (jets.col(2.0 * one * be) * cov.si0_up(y)
                                         + jets.col(cov.r00(y)) * cov.b_up
                                         + jets.col(2.0 * kv * cov.s0(y) * be) * cov.b_up)
         + jets.col(kd / (2.0 * one)) * (jets.col(one * be * be) * rs_up
                                         + jets.col(kv * cov.r * be * be) * cov.b_up
                                         - jets.col(2.0 * r0s0 * be) * cov.b_up))
    bb = cov.b_low
    bij = (cov.bij
           + jets.e2(kv / one) * (jets.e2(t) * cov.rij
                                  + jets.outer(bb, cov.s_i)
                                  + jets.outer(cov.s_i, bb))
           - jets.e2(kd / one) * (jets.e2(cov.r) * bb[..., :, None] * bb[..., None, :]
                                  - jets.e2(t) * (jets.outer(bb, rs_low) + jets.outer(rs_low, bb))))
    return g, bij


def predicted_after_conformal(a: MetricField, b: OneFormField, kappa: ScalarFactor,
                              rho: ScalarFactor, x, y):
    """(G^, b^_{i|j}) after stretch + conformal scaling e^(rho(b^2))."""
    g_t, bij_t = predicted_after_stretch(a, b, kappa, x, y)
    cov = covariant_derivative(b, a, x)
    y = np.asarray(y, dtype=float)
    t = cov.b2
    kv = kappa(t)
    one = 1.0 - kv * t
    rd = rho.deriv(t)
    al2 = np.einsum("...ij,...i,...j->...", cov.a0, y, y)
    be = np.einsum("...i,...i->...", cov.b_low, y)
    rs_up = cov.r_up + cov.s_up
    rs_low = cov.r_i + cov.s_i
    r0s0 = cov.r0(y) + cov.s0(y)
    g = g_t + jets.col(rd) * (jets.col(2.0 * r0s0) * y
                              - jets.col(al2 - kv * be * be) * (rs_up + jets.col(kv * cov.r / one) * cov.b_up))
    bb = cov.b_low
    a_tilde = cov.a0 - jets.e2(kv) * bb[..., :, None] * bb[..., None, :]
    bij = bij_t - jets.e2(2.0 * rd) * (jets.outer(bb, rs_low)
                                       + jets.outer(rs_low, bb)
                                       - jets.e2(cov.r / one) * a_tilde)
    return g, bij


def predicted_after_rescale(a: MetricField, b: OneFormField, kappa: ScalarFactor,
                            rho: ScalarFactor, nu: ScalarFactor, x, y):
    """(G-, b-_{i|j}) after the full triple; the spray is untouched by rescaling."""
    g_h, bij_h = predicted_after_conformal(a, b, kappa, rho, x, y)
    cov = covariant_derivative(b, a, x)
    t = cov.b2
    nv, nd = nu(t), nu.deriv(t)
    rs_low = cov.r_i + cov.s_i
    bij = jets.e2(nv) * bij_h + jets.e2(2.0 * nd) * cov.b_low[..., :, None] * rs_low[..., None, :]
    return g_h, bij

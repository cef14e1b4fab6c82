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

Every factor is a function of the norm w.r.t. the *input* pair, so a chain
is the one composite of its factor triple (kappa, rho, nu) that ``chain_pair``
builds; the forward, Berwald and ``classify.canonical_pair`` chains are such
triples.  ``inverse_chain`` keeps its closed form: the example models evaluate
it on every sweep and geodesic step, where ln(eta) then e^(2 rho) costs more.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

from . import jets
from .geometry import MetricField, OneFormField, covariant_derivative, pair_fields, spray_riemann
from .phifuncs import OdeParams, eta_core, require_positive

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
    """The factor triple of a chain: stretch kappa, conformal rho, rescale nu."""

    kappa: ScalarFactor
    rho: ScalarFactor
    nu: ScalarFactor


def _stretched(kappa: ScalarFactor):
    def alpha_of(av, bv, t):
        kv = kappa(t)
        require_positive(1.0 - kv * t, "1 - kappa b^2")
        return av - jets.e2(kv) * jets.outer(bv, bv)

    return alpha_of


def _rescaled(nu: ScalarFactor):
    def beta_of(bv, t):
        nv = nu(t)
        require_positive(nv, "nu")
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


def _composite(a: MetricField, b: OneFormField, kappa: ScalarFactor, rho: ScalarFactor,
               nu: ScalarFactor, tag: str):
    stretched = _stretched(kappa)

    def alpha_of(av, bv, t):
        # rho first: a factor's own domain guard then reports before the stretch guard
        scale = jets.e2(jets.exp(2.0 * rho(t)))
        return scale * stretched(av, bv, t)

    return pair_fields(a, b, alpha_of, _rescaled(nu), tag)


def chain_pair(a: MetricField, b: OneFormField, kappa: ScalarFactor,
               rho: ScalarFactor, nu: ScalarFactor):
    """Full stretch+conformal+rescale composite, all factors at the original b^2."""
    return _composite(a, b, kappa, rho, nu, "chain")


# -- the standard factor choices ----------------------------------------------


def standard_factors(k: OdeParams) -> DeformChain:
    """kappa = -(k1+k3+k2 t), rho = -ln(eta), nu = e^rho sqrt(D); rho and nu first check D > 0."""
    k1, k2, k3 = k.k1, k.k2, k.k3
    s = k1 + k3
    label = "1+(k1+k3)b^2+k2 b^4"

    def kap(t):
        return -(s + k2 * t) + 0.0 * t

    def rho(t):
        _checked_d(s, k2, t, label)
        return -jets.log(eta_core(k1, k2, k3, t))

    def nu(t):
        d = _checked_d(s, k2, t, label)
        return jets.sqrt(d) / eta_core(k1, k2, k3, t)

    return DeformChain(ScalarFactor(kap, "kappa"), ScalarFactor(rho, "rho"),
                       ScalarFactor(nu, "nu"))


def kappa_riccati_residual(k: OdeParams, t):
    """Residual of D(t) kappa' + kappa^2 + (k1+k3) kappa + k2 for the standard kappa."""
    t = np.asarray(t, dtype=float)
    s = k.k1 + k.k3
    kappa = standard_factors(k).kappa
    kap = kappa(t)
    return (1.0 + s * t + k.k2 * t * t) * kappa.deriv(t) + kap * kap + s * kap + k.k2


def eta_factor(k: OdeParams, bbar2):
    """The inverse-chain conformal factor eta(bbar^2), closed form, eta(0)=1."""
    return eta_core(k.k1, k.k2, k.k3, bbar2)


def _checked_d(s, k2, t, label):
    """D(t) = 1 + (k1+k3) t + k2 t^2, which must stay positive."""
    d = 1.0 + s * t + k2 * t * t
    require_positive(d, label)
    return d


def forward_chain(a: MetricField, b: OneFormField, k: OdeParams):
    """The composite of standard_factors(k).

    abar_ij = eta^{-2} (a_ij + (k1+k3+k2 b^2) b_i b_j),  bbar = eta^{-1} sqrt(D) beta.
    """
    ch = standard_factors(k)
    return _composite(a, b, ch.kappa, ch.rho, ch.nu, "fwd")


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
    """The two-step quadratic-metric chain: kappa = 0, rho = ln(lam), nu = sqrt(lam).

    forward:  lam = 1-b^2,   abar_ij = (1-b^2)^2 a_ij,  bbar_i = sqrt(1-b^2) b_i   (needs b < 1)
    inverse:  lam = 1+bbar^2,  a_ij = (1+bbar^2)^2 abar_ij,  b_i = sqrt(1+bbar^2) bbar_i
    and the norms relate by (1-b^2)(1+bbar^2) = 1.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    fwd = direction == "forward"

    def lam_of(t):
        if fwd:
            require_positive(1.0 - t, "1 - b^2")
            return 1.0 - t
        return 1.0 + t

    rho = ScalarFactor(lambda t: jets.log(lam_of(t)), "ln(lam)")
    nu = ScalarFactor(lambda t: jets.sqrt(lam_of(t)), "sqrt(lam)")
    return _composite(a, b, ZERO_FACTOR, rho, nu, f"bw-{direction}")


# -- stage-level predicted transforms ------------------------------------------
#
# Given the original pair (a, b) and the factor values at the original b^2,
# these return what the deformed spray and covariant derivative must be,
# without differentiating the deformed fields.  The direct recomputation from
# the deformed fields is the cross-check.


def _stage_predictions(a: MetricField, b: OneFormField, kappa: ScalarFactor,
                       rho: ScalarFactor, nu: ScalarFactor, x, y):
    """Yield (G, b_{i|j}) after the stretch, the conformal step and the rescale in turn.

    One covariant pass serves all three.  rho and nu are read only when their stage
    is reached, so a caller that stops earlier may pass None for them.
    """
    cov = covariant_derivative(b, a, x)
    y = np.asarray(y, dtype=float)
    t = cov.b2
    kv, kd = kappa(t), kappa.deriv(t)
    one = 1.0 - kv * t
    require_positive(one, "1 - kappa b^2")
    g0 = spray_riemann(a, x, y)
    be = np.einsum("...i,...i->...", cov.b_low, y)
    rs_low = cov.r_i + cov.s_i
    rs_up = cov.r_up + cov.s_up
    r0s0 = cov.r0(y) + cov.s0(y)
    bb = cov.b_low

    # stretch: kappa(b^2)
    g = (g0
         - jets.col(kv / (2.0 * one)) * (jets.col(2.0 * one * be) * cov.si0_up(y)
                                         + jets.col(cov.r00(y)) * cov.b_up
                                         + jets.col(2.0 * kv * cov.s0(y) * be) * cov.b_up)
         + jets.col(kd / (2.0 * one)) * (jets.col(one * be * be) * rs_up
                                         + jets.col(kv * cov.r * be * be) * cov.b_up
                                         - jets.col(2.0 * r0s0 * be) * cov.b_up))
    bij = (cov.bij
           + jets.e2(kv / one) * (jets.e2(t) * cov.rij
                                  + jets.outer(bb, cov.s_i)
                                  + jets.outer(cov.s_i, bb))
           - jets.e2(kd / one) * (jets.e2(cov.r) * bb[..., :, None] * bb[..., None, :]
                                  - jets.e2(t) * (jets.outer(bb, rs_low) + jets.outer(rs_low, bb))))
    yield g, bij

    # conformal scaling e^(rho(b^2))
    rd = rho.deriv(t)
    al2 = np.einsum("...ij,...i,...j->...", cov.a0, y, y)
    g = g + jets.col(rd) * (jets.col(2.0 * r0s0) * y
                            - jets.col(al2 - kv * be * be)
                            * (rs_up + jets.col(kv * cov.r / one) * cov.b_up))
    a_tilde = cov.a0 - jets.e2(kv) * bb[..., :, None] * bb[..., None, :]
    bij = bij - jets.e2(2.0 * rd) * (jets.outer(bb, rs_low)
                                     + jets.outer(rs_low, bb)
                                     - jets.e2(cov.r / one) * a_tilde)
    yield g, bij

    # rescale nu(b^2): the spray is untouched
    nv, nd = nu(t), nu.deriv(t)
    yield g, jets.e2(nv) * bij + jets.e2(2.0 * nd) * bb[..., :, None] * rs_low[..., None, :]


def predicted_after_stretch(a: MetricField, b: OneFormField, kappa: ScalarFactor, x, y):
    """(G~, b~_{i|j}) predicted from the stretch transformation formulas."""
    return next(_stage_predictions(a, b, kappa, None, None, x, y))


def predicted_after_conformal(a: MetricField, b: OneFormField, kappa: ScalarFactor,
                              rho: ScalarFactor, x, y):
    """(G^, b^_{i|j}) after stretch + conformal scaling e^(rho(b^2))."""
    _, conformal = islice(_stage_predictions(a, b, kappa, rho, None, x, y), 2)
    return conformal


def predicted_after_rescale(a: MetricField, b: OneFormField, kappa: ScalarFactor,
                            rho: ScalarFactor, nu: ScalarFactor, x, y):
    """(G-, b-_{i|j}) after the full triple; the spray is untouched by rescaling."""
    *_, rescaled = _stage_predictions(a, b, kappa, rho, nu, x, y)
    return rescaled

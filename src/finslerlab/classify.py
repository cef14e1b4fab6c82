"""Representation group, complete type invariants, and canonical reductions.

Rewriting F = alpha*phi(beta/alpha) in stretched data alpha -> sqrt(alpha^2 -
u beta^2) or rescaled data beta -> beta/v induces two transformations of phi,

    g_u(phi)(s) = sqrt(1+u s^2) phi(s / sqrt(1+u s^2)),
    h_v(phi)(s) = phi(v s),

which generate a group acting on the ODE parameter quadruples by

    g_u: (k1, k2, k3, eps) -> (k1+u, k2+(k1+k3)u+u^2, k3+u, eps)
    h_v: (k1, k2, k3, eps) -> (v^2 k1, v^4 k2, v^2 k3, v eps).

The complete invariants are (p, q) = (sqrt(D2)/D3, eps^4/D2) built from
D1 = (k1+k3)^2 - 4 k2, D2 = 4(k1 k3 - k2), D3 = k1 - k3 (with tagged special
values); two metrics are of the same type iff their (p, q) agree.  p is kept
in real arithmetic as a tag plus the ratio D2/D3^2; complex values never
materialize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from . import jets
from .deform import ZERO_FACTOR, ScalarFactor, chain_pair
from .geometry import MetricField, OneFormField
from .phifuncs import ExprPhi, OdeParams, PhiSpec, QuadraturePhi, require_positive

__all__ = [
    "Quadruple",
    "PTag",
    "QTag",
    "InvariantSignature",
    "ReducedForm",
    "transform_g",
    "transform_h",
    "transform_phi_g",
    "transform_phi_h",
    "invariants",
    "same_type",
    "reduce_quadruple",
    "apply_recipe",
    "reduced_quadruple",
    "reduced_form_p",
    "canonical_pair",
    "reversibilize",
    "circle_coords",
]


# the group acts on the phi-ODE's own parameters; the name stays because finslerlab exports it
Quadruple = OdeParams


def _scale(q: OdeParams) -> float:
    return 1.0 + q.k1 * q.k1 + q.k3 * q.k3 + abs(q.k2)


def transform_g(u: float, q: OdeParams) -> OdeParams:
    """Parameter action of the stretch transform g_u; eps is unchanged."""
    return OdeParams(q.k1 + u, q.k2 + (q.k1 + q.k3) * u + u * u, q.k3 + u, q.eps)


def transform_h(v: float, q: OdeParams) -> OdeParams:
    """Parameter action of the rescale transform h_v; eps -> v*eps."""
    if v == 0:
        raise ValueError("v must be nonzero")
    v2 = v * v
    return OdeParams(v2 * q.k1, v2 * v2 * q.k2, v2 * q.k3, v * q.eps)


def transform_phi_g(u: float, phi: PhiSpec) -> PhiSpec:
    """g_u at the function level: sqrt(1+u s^2) phi(s/sqrt(1+u s^2))."""

    def expr(s):
        w = jets.sqrt(1.0 + u * s * s)
        return w * phi.apply(s / w)

    params = transform_g(u, phi.params) if phi.params is not None else None
    return ExprPhi(expr, b0=phi.b0, eval_radius=phi.eval_radius, params=params,
                   name=f"g[{u:g}]({phi.name})")


def transform_phi_h(v: float, phi: PhiSpec) -> PhiSpec:
    """h_v at the function level: phi(v s)."""
    if v == 0:
        raise ValueError("v must be nonzero")

    def expr(s):
        return phi.apply(s * v)

    params = transform_h(v, phi.params) if phi.params is not None else None
    av = abs(v)
    return ExprPhi(expr, b0=phi.b0 / av, eval_radius=phi.eval_radius / av, params=params,
                   name=f"h[{v:g}]({phi.name})")


class PTag(Enum):
    ZERO = "zero"
    REAL = "real"
    IMAG = "imag"
    INF = "inf"
    IMAG_INF = "imag-inf"


class QTag(Enum):
    ZERO = "zero"
    FINITE = "finite"
    INF = "inf"


@dataclass(frozen=True)
class InvariantSignature:
    """Delta invariants plus the complete pair (p, q) in tagged real encoding.

    ``p_value`` is the real coefficient of p (imaginary unit factored out for
    the IMAG tag); ``p_ratio`` = D2/D3^2 is the transform-invariant scalar used
    for comparisons.  ``q_value`` is eps^4/D2 when finite.
    """

    d1: float
    d2: float
    d3: float
    p_tag: PTag
    p_value: float
    p_ratio: float
    q_tag: QTag
    q_value: float

    def p_repr(self) -> str:
        if self.p_tag is PTag.ZERO:
            return "0"
        if self.p_tag is PTag.INF:
            return "inf"
        if self.p_tag is PTag.IMAG_INF:
            return "i*inf"
        if self.p_tag is PTag.IMAG:
            return f"{self.p_value:.12g}*i"
        return f"{self.p_value:.12g}"

    def q_repr(self) -> str:
        if self.q_tag is QTag.ZERO:
            return "0"
        if self.q_tag is QTag.INF:
            return "inf"
        return f"{self.q_value:.12g}"


def invariants(q: OdeParams) -> InvariantSignature:
    """The Delta triple and tagged (p, q) of a quadruple."""
    s = q.k1 + q.k3
    d1 = s * s - 4.0 * q.k2
    d2 = 4.0 * (q.k1 * q.k3 - q.k2)
    d3 = q.k1 - q.k3
    tol = _scale(q) * 1e-10
    d2_zero = abs(d2) <= tol
    d3_zero = abs(d3) <= math.sqrt(tol)
    eps_zero = abs(q.eps) <= 1e-14 * (1.0 + abs(q.eps))

    if d2_zero:
        p_tag, p_value, p_ratio = PTag.ZERO, 0.0, 0.0
    elif d3_zero:
        p_tag = PTag.INF if d2 > 0 else PTag.IMAG_INF
        p_value, p_ratio = math.inf, math.inf
    elif d2 > 0:
        p_tag, p_value, p_ratio = PTag.REAL, math.sqrt(d2) / d3, d2 / (d3 * d3)
    else:
        p_tag, p_value, p_ratio = PTag.IMAG, math.sqrt(-d2) / d3, d2 / (d3 * d3)

    if eps_zero:
        q_tag, q_value = QTag.ZERO, 0.0
    elif d2_zero:
        q_tag, q_value = QTag.INF, math.inf
    else:
        q_tag, q_value = QTag.FINITE, q.eps ** 4 / d2
    return InvariantSignature(d1, d2, d3, p_tag, p_value, p_ratio, q_tag, q_value)


def same_type(qa: OdeParams, qb: OdeParams, rtol: float = 1e-9) -> bool:
    """Equality of the complete invariants (tags exactly, values to rtol)."""
    sa, sb = invariants(qa), invariants(qb)
    if sa.p_tag is not sb.p_tag or sa.q_tag is not sb.q_tag:
        return False
    if sa.p_tag in (PTag.REAL, PTag.IMAG):
        if not _close(sa.p_ratio, sb.p_ratio, rtol):
            return False
        if (sa.p_value > 0) != (sb.p_value > 0):
            return False
    if sa.q_tag is QTag.FINITE and not _close(sa.q_value, sb.q_value, rtol):
        return False
    return True


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class ReducedForm:
    """One of the three canonical one-parameter equations."""

    kind: str  # 'd1-positive' | 'd1-zero' | 'd1-negative'
    sigma: float

    def __post_init__(self):
        if self.kind == "d1-positive":
            if self.sigma in (0.0, -0.5):
                raise ValueError("sigma must avoid 0 and -1/2 for the d1>0 form")
        elif self.kind == "d1-zero":
            if self.sigma not in (1.0, -1.0):
                raise ValueError("sigma must be +-1 for the d1=0 form")
        elif self.kind == "d1-negative":
            if not abs(self.sigma) < 1.0:
                raise ValueError("|sigma| < 1 required for the d1<0 form")
        else:
            raise ValueError(f"unknown reduced kind {self.kind!r}")


def reduced_quadruple(form: ReducedForm, eps: float = 0.0) -> OdeParams:
    """The parameter quadruple realizing the reduced equation."""
    s = form.sigma
    if form.kind == "d1-positive":
        return OdeParams(2.0 * s, 0.0, -2.0 * s - 1.0, eps)
    if form.kind == "d1-zero":
        return OdeParams(2.0 * s, 0.0, -2.0 * s, eps)
    return OdeParams(0.0, 1.0, 2.0 * s, eps)


def reduced_form_p(form: ReducedForm):
    """(tag, value) of the invariant p computed from the reduced-form row."""
    s = form.sigma
    if form.kind == "d1-positive":
        val = -2.0 * s * (2.0 * s + 1.0)
        den = 4.0 * s + 1.0
        if den == 0:
            return (PTag.INF, math.inf) if val > 0 else (PTag.IMAG_INF, math.inf)
        if val >= 0:
            return PTag.REAL, 2.0 * math.sqrt(val) / den
        return PTag.IMAG, 2.0 * math.sqrt(-val) / den
    if form.kind == "d1-zero":
        return PTag.IMAG, math.copysign(1.0, s)
    if s == 0.0:
        return PTag.IMAG_INF, math.inf
    return PTag.IMAG, -1.0 / s


def reduce_quadruple(q: OdeParams):
    """Reduce to the canonical one-parameter equation; returns (form, recipe).

    The recipe is a tuple of ('g', u) / ('h', v) steps whose left-to-right
    application maps the input quadruple onto ``reduced_quadruple(form)``.
    Requires D2 != 0 (neither Riemannian nor of Randers type).
    """
    sig = invariants(q)
    if sig.p_tag is PTag.ZERO:
        raise ValueError("D2 = 0 (Randers or Riemannian): not reducible in this scheme")
    s = q.k1 + q.k3
    recipe = []
    tol = _scale(q) * 1e-10
    if sig.d1 > tol:
        rt = math.sqrt(sig.d1)
        u = 0.5 * (-s - rt)  # the root keeping k1'+k3' = -sqrt(d1) < 0
        recipe.append(("g", u))
        recipe.append(("h", 1.0 / math.sqrt(rt)))
        sigma = (sig.d3 - rt) / (4.0 * rt)
        form = ReducedForm("d1-positive", sigma)
    elif sig.d1 < -tol:
        recipe.append(("g", -q.k1))
        nd2 = -sig.d2
        v = math.sqrt(2.0) * nd2 ** -0.25
        recipe.append(("h", v))
        sigma = -sig.d3 / math.sqrt(nd2)
        form = ReducedForm("d1-negative", sigma)
    else:
        recipe.append(("g", -0.5 * s))
        sigma = math.copysign(1.0, sig.d3)
        v = 2.0 / math.sqrt(abs(sig.d3))
        recipe.append(("h", v))
        form = ReducedForm("d1-zero", sigma)
    return form, tuple(recipe)


def apply_recipe(recipe, q: OdeParams) -> OdeParams:
    """Apply a reduce() recipe left-to-right."""
    for kind, val in recipe:
        q = transform_g(val, q) if kind == "g" else transform_h(val, q)
    return q


def canonical_pair(form: ReducedForm, abar: MetricField, bbar: OneFormField):
    """The canonical (alpha, beta) realization attached to a reduced form.

    (abar, bbar) must be a projectively flat metric with a closed conformal
    1-form.  Each form is the ``chain_pair`` of its factor triple (kappa, rho,
    nu) of T = ||bbar||^2.  The d1<0 case follows the displayed normalization,
    which differs from eta(0)=1 by the constant exp(-sigma/(2 sqrt(1-sigma^2)) *
    arctan(sigma/sqrt(1-sigma^2))).
    """
    s = form.sigma

    if form.kind == "d1-positive":
        def lam(t):
            require_positive(1.0 - t, "1 - bbar^2")
            return 1.0 - t

        kappa = ScalarFactor(lambda t: -1.0 / lam(t))
        rho = ScalarFactor(lambda t: -(s + 0.5) * jets.log(lam(t)))
        nu = ScalarFactor(lambda t: jets.power(lam(t), -s - 1.0))
    elif form.kind == "d1-zero":
        kappa = ZERO_FACTOR
        rho = ScalarFactor(lambda t: s * t)
        nu = ScalarFactor(lambda t: jets.exp(s * t))
    else:
        root = math.sqrt(1.0 - s * s)

        def d_of(t):
            d = 1.0 + 2.0 * s * t + t * t
            require_positive(d, "1 + 2 sigma bbar^2 + bbar^4")
            return d

        def rho_of(t):
            return -(s / (2.0 * root)) * jets.arctan((s + t) / root) - 0.25 * jets.log(d_of(t))

        kappa = ScalarFactor(lambda t: (2.0 * s + t) / d_of(t))
        rho = ScalarFactor(rho_of)
        nu = ScalarFactor(lambda t: jets.exp(rho_of(t)) / jets.sqrt(d_of(t)))
    return chain_pair(abar, bbar, kappa, rho, nu)


def reversibilize(phi: PhiSpec):
    """(phi - phi'(0) s, -phi'(0)): the even representative and its 1-form coefficient.

    Adding theta = -phi'(0)*beta to F produces the reversible metric with the
    returned even phi; it satisfies the same ODE and the same regularity
    inequality (phi - s phi' and phi'' are unchanged).
    """
    c = float(phi.values(0.0)[1])
    if isinstance(phi, QuadraturePhi):
        # the exact even solution, not the odd part subtracted from a quadrature
        return QuadraturePhi(replace(phi.params, eps=0.0), tol=phi.tol), -c
    params = replace(phi.params, eps=0.0) if phi.params is not None else None
    even = ExprPhi(lambda s: phi.apply(s) - c * s, b0=phi.b0, eval_radius=phi.eval_radius,
                   params=params, name=f"even({phi.name})")
    return even, -c


def circle_coords(sig: InvariantSignature):
    """The circle-chart coordinates of the reversible-type invariant.

    Literal displayed pair (2 sqrt|D2| D3, 2 D3) / (|D2| + D3^2); the origin
    stands for Riemannian metrics.  Note the displayed pair does not lie
    exactly on x^2 + (y -+ 1)^2 = 1; it is informational only and type
    equality never consults it.
    """
    den = abs(sig.d2) + sig.d3 * sig.d3
    if den == 0.0:
        return 0.0, 0.0
    return (2.0 * math.sqrt(abs(sig.d2)) * sig.d3 / den, 2.0 * sig.d3 / den)

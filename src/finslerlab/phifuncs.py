"""The phi(s) function space for (alpha,beta)-metrics F = alpha*phi(beta/alpha).

Provides evaluation of phi, phi', phi'' for:

* named closed forms (Riemannian 1, Randers 1+s, quadratic (1+s)^2, ...),
* solutions of the second-order ODE

      {1 + (k1+k3) s^2 + k2 s^4} phi'' = (k1 + k2 s^2) {phi - s phi'}

  with phi(0)=1, phi'(0)=eps, computed from the closed-form integrating
  factor f(s) = phi - s phi' plus one-dimensional adaptive quadrature,
* the sigma-family power series with product coefficients,
* the r=0 power series, and the explicit (r,p) closed-form families.

The integrating factor f and the deformation factor eta share one core
primitive: both are exp of a rational-quadratic integral that reduces to five
elementary cases keyed on k2 and the discriminant (k1+k3)^2 - 4*k2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from . import jets
from .errors import DomainError, PositivityError, UnsupportedFamilyError

__all__ = [
    "OdeParams",
    "PhiSpec",
    "ExprPhi",
    "QuadraturePhi",
    "SigmaSeriesPhi",
    "ZeroPSeriesPhi",
    "phi_riemannian",
    "phi_randers",
    "phi_berwald",
    "phi_berwald_shifted",
    "phi_rp",
    "phi_from_quadrature",
    "phi_series_sigma",
    "phi_explicit_family",
    "f_factor",
    "eta_core",
    "ode_residual",
    "regularity_check",
    "RegularityReport",
]


@dataclass(frozen=True)
class OdeParams:
    """Coefficients (k1, k2, k3) of the phi-ODE plus the slope eps = phi'(0)."""

    k1: float
    k2: float
    k3: float
    eps: float = 0.0

    @property
    def delta1(self) -> float:
        s = self.k1 + self.k3
        return s * s - 4.0 * self.k2

    @property
    def is_randers_type(self) -> bool:
        """True when k2 = k1*k3, i.e. the solutions are sqrt(1+k1 s^2)+C s."""
        return abs(self.k2 - self.k1 * self.k3) <= _zero_tol(self.k1, self.k2, self.k3)


def _zero_tol(k1, k2, k3) -> float:
    return 1e-13 * (1.0 + abs(k1) + abs(k3)) ** 2 + 1e-13 * abs(k2)


def _case(k1, k2, k3) -> int:
    """Five-way dispatch on (k2, sign of Delta_1) with a relative tie rule."""
    tol = 1e-13 * (1.0 + abs(k1) + abs(k3)) ** 2
    s = k1 + k3
    d1 = s * s - 4.0 * k2
    if abs(k2) <= tol:
        return 1 if abs(d1) <= tol else 2
    if abs(d1) <= tol:
        return 4
    return 3 if d1 > 0 else 5


def eta_core(k1, k2, k3, t):
    """exp(-int_0^t (k3 + k2 u) / (2 (1 + (k1+k3) u + k2 u^2)) du), elementary.

    This is the deformation factor eta as a function of t = (norm of the
    deformed 1-form)^2; the ODE integrating factor f is the same expression
    with k1 and k3 exchanged and t = s^2.  Five cases keyed on k2 and the
    discriminant d1 = (k1+k3)^2 - 4 k2.
    """
    t = np.asarray(t, dtype=float) if not isinstance(t, jets.Jet) else t
    s = k1 + k3
    case = _case(k1, k2, k3)
    if case == 1:
        return jets.exp(t * (-k3 / 2.0))
    if case == 2:
        base = 1.0 + t * s
        _require_positive(base, "1+(k1+k3)t")
        return jets.power(base, -k3 / (2.0 * s))
    d = 1.0 + t * s + t * t * k2
    _require_positive(d, "1+(k1+k3)t+k2*t^2")
    if case == 3:
        rt = math.sqrt(s * s - 4.0 * k2)
        # ((rt+s)/(rt-s)) (rt-s-2 k2 t)/(rt+s+2 k2 t), written so that t=0 gives 1 exactly
        bracket = (1.0 - t * (2.0 * k2 / (rt - s))) / (1.0 + t * (2.0 * k2 / (rt + s)))
        return jets.power(bracket, (k1 - k3) / (4.0 * rt)) * jets.power(d, -0.25)
    if case == 4:
        # sqrt(2)/sqrt(2+s t) written as (1 + s t/2)^(-1/2) so that t=0 gives 1 exactly
        w = 1.0 + t * (s / 2.0)
        _require_positive(w, "2+(k1+k3)t")
        return jets.exp((0.5 / w - 0.5) * ((k3 - k1) / s)) * jets.power(w, -0.5)
    rt = math.sqrt(4.0 * k2 - s * s)
    # np.arctan, not math.atan: the two can differ by 1 ulp, and then eta(0) != 1
    ang = jets.arctan((t * (2.0 * k2) + s) / rt) - np.arctan(s / rt)
    return jets.exp(ang * ((k1 - k3) / (2.0 * rt))) * jets.power(d, -0.25)


def _require_positive(v, label):
    val = jets.asarray_value(v)
    if np.any(val <= 0.0):
        raise PositivityError(f"factor {label} is nonpositive (min {float(np.min(val)):.6g})")


def f_factor(k: OdeParams, s):
    """phi - s phi' for the normalized ODE solution; closed form, f(0)=1."""
    if isinstance(s, jets.Jet):
        return eta_core(k.k3, k.k2, k.k1, s * s)
    s = np.asarray(s, dtype=float)
    return eta_core(k.k3, k.k2, k.k1, s * s)


def positivity_radius(k: OdeParams) -> float:
    """Largest b such that 1 + k1 s^2 > 0 and 1 + (k1+k3) s^2 + k2 s^4 > 0 for |s| < b."""
    tmax = math.inf
    if k.k1 < 0:
        tmax = min(tmax, -1.0 / k.k1)
    s, k2 = k.k1 + k.k3, k.k2
    if abs(k2) <= _zero_tol(k.k1, k.k2, k.k3):
        if s < 0:
            tmax = min(tmax, -1.0 / s)
    else:
        d1 = s * s - 4.0 * k2
        if d1 >= 0:
            rt = math.sqrt(d1)
            for root in ((-s - rt) / (2.0 * k2), (-s + rt) / (2.0 * k2)):
                if root > 0:
                    tmax = min(tmax, root)
        # d1 < 0 forces k2 > 0: the quadratic never vanishes
    return math.sqrt(tmax) if math.isfinite(tmax) else math.inf


class PhiSpec:
    """phi with first and second derivative access.

    ``b0`` is the recorded validity half-width for Finsler use; evaluation may
    be possible on a wider interval (``eval_radius``).  ``params`` carries the
    ODE coefficients when known.
    """

    b0: float = math.inf
    eval_radius: float = math.inf
    params: OdeParams | None = None
    name: str = ""

    def values(self, s):
        """Vectorized (phi, phi', phi'') at plain array s."""
        raise NotImplementedError

    def _guard(self, s):
        s = np.asarray(s, dtype=float)
        if math.isfinite(self.eval_radius) and np.any(np.abs(s) >= self.eval_radius):
            raise DomainError(
                f"|s| = {float(np.max(np.abs(s))):.6g} outside evaluation radius {self.eval_radius:.6g}"
            )
        return s

    def phi(self, s):
        return self.values(s)[0]

    def dphi(self, s):
        return self.values(s)[1]

    def ddphi(self, s):
        return self.values(s)[2]

    @property
    def eps(self) -> float:
        return float(self.dphi(0.0))

    def apply(self, s):
        """phi at a plain array or a jet (chain rule through phi'', exact to order 2)."""
        if isinstance(s, jets.Jet):
            v, d, dd = self.values(s.val)
            return s.chain(v, d, dd if s.h is not None else None)
        return self.phi(s)

    def __repr__(self):
        return f"{type(self).__name__}({self.name or 'phi'}, b0={self.b0:.4g})"


def _scalar_jet(s):
    s = np.asarray(s, dtype=float)
    return jets.Jet(s, np.ones(s.shape + (1,)), np.zeros(s.shape + (1, 1)))


class ExprPhi(PhiSpec):
    """phi given as a jet-transparent closed-form expression of s."""

    def __init__(self, expr, b0=math.inf, eval_radius=math.inf, params=None, name=""):
        self.expr = expr
        self.b0 = b0
        self.eval_radius = eval_radius
        self.params = params
        self.name = name

    def values(self, s):
        s = self._guard(s)
        e = self.expr(_scalar_jet(s))
        if isinstance(e, jets.Jet):
            return e.val, e.g[..., 0], e.h[..., 0, 0]
        e = np.broadcast_to(np.asarray(e, dtype=float), s.shape)
        return e, np.zeros_like(e), np.zeros_like(e)


def phi_riemannian() -> ExprPhi:
    return ExprPhi(lambda s: 1.0 + 0.0 * s, params=OdeParams(0, 0, 0, 0), name="riemannian")


def phi_randers() -> ExprPhi:
    return ExprPhi(lambda s: 1.0 + s, b0=1.0, params=OdeParams(0, 0, 0, 1.0), name="randers")


def phi_berwald() -> ExprPhi:
    """(1+s)^2, the quadratic metric F = (alpha+beta)^2/alpha."""
    return ExprPhi(lambda s: (1.0 + s) * (1.0 + s), b0=1.0,
                   params=OdeParams(2.0, 0.0, -3.0, 2.0), name="berwald")


def phi_berwald_shifted() -> ExprPhi:
    """(sqrt(1+s^2)+s)^2 / sqrt(1+s^2): the same metric type in stretched data."""

    def expr(s):
        w = jets.sqrt(1.0 + s * s)
        u = w + s
        return u * u / w

    return ExprPhi(expr, b0=math.inf, params=OdeParams(3.0, 0.0, -2.0, 2.0), name="berwald-shifted")


class QuadraturePhi(PhiSpec):
    """ODE solution via the closed-form phi'' plus 1D adaptive quadrature.

    phi''(s) = (k1 + k2 s^2) / (1 + (k1+k3) s^2 + k2 s^4) * f(s) exactly, so

        phi'(s) = eps + int_0^s phi''(u) du
        phi(s)  = 1 + eps*s + int_0^s (s-u) phi''(u) du

    need one adaptive quadrature each (absolute tolerance ``tol``).
    """

    def __init__(self, params: OdeParams, tol: float = 1e-12):
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.params = params
        self.tol = tol
        self.b0 = positivity_radius(params)
        self.eval_radius = self.b0
        self.name = f"ode[{params.k1:g},{params.k2:g},{params.k3:g}]"

    def _w(self, s):
        k = self.params
        num = k.k1 + k.k2 * s * s
        den = 1.0 + (k.k1 + k.k3) * s * s + k.k2 * s ** 4
        return num / den * f_factor(k, s)

    def values(self, s):
        s = self._guard(s)
        flat = np.atleast_1d(s).ravel()
        ph = np.empty_like(flat)
        dph = np.empty_like(flat)
        for i, si in enumerate(flat):
            if si == 0.0:
                ph[i], dph[i] = 1.0, self.params.eps
                continue
            i1, _ = quad(lambda u: (si - u) * self._w(u), 0.0, si,
                         epsabs=self.tol, epsrel=1e-13, limit=200)
            i2, _ = quad(self._w, 0.0, si, epsabs=self.tol, epsrel=1e-13, limit=200)
            ph[i] = 1.0 + self.params.eps * si + i1
            dph[i] = self.params.eps + i2
        ddph = self._w(flat)
        shape = np.shape(s)
        return ph.reshape(shape), dph.reshape(shape), ddph.reshape(shape)


class SigmaSeriesPhi(PhiSpec):
    """The sigma-family series 1 + eps*s + sum_n c_n s^(2n) with

    c_n = prod_{k=1..n} (k-sigma-1)(2k-3) / (k (2k-1)),

    convergent on |s| < 1.  Truncation: |term| < tol * max(1, |partial sum|)
    or ``max_terms`` terms; |s| >= 0.999 is rejected.
    """

    def __init__(self, sigma: float, eps: float, tol: float = 1e-12, max_terms: int = 200):
        self.sigma = float(sigma)
        self.tol = tol
        self.max_terms = max_terms
        self.params = OdeParams(2.0 * sigma, 0.0, -2.0 * sigma - 1.0, eps)
        self.b0 = min(0.999, positivity_radius(self.params))
        self.eval_radius = 0.999
        self.name = f"sigma[{sigma:g}]"
        coeffs = []
        c = 1.0
        for k in range(1, max_terms + 1):
            c *= (k - sigma - 1.0) * (2.0 * k - 3.0) / (k * (2.0 * k - 1.0))
            coeffs.append(c)
            if c == 0.0:
                break
        self._coeffs = np.array(coeffs)

    def values(self, s):
        s = self._guard(s)
        eps = self.params.eps
        s2 = s * s
        ph = np.ones_like(s) + eps * s
        dph = np.full_like(s, eps)
        ddph = np.zeros_like(s)
        pw = np.ones_like(s)  # s^(2n-2)
        for n, c in enumerate(self._coeffs, start=1):
            term = c * pw * s2
            term_dd = (2 * n) * (2 * n - 1) * c * pw
            ph = ph + term
            dph = dph + (2 * n) * c * pw * s
            ddph = ddph + term_dd
            pw = pw * s2
            # the second-derivative tail converges slowest; bound both
            scale = self.tol * np.maximum(1.0, np.abs(ph))
            if np.all(np.abs(term) < scale) and np.all(np.abs(term_dd) < scale):
                break
        return ph, dph, ddph


class ZeroPSeriesPhi(PhiSpec):
    """The r=0 family: 1 + eps*s + (1/p) sum_n (-1)^n s^(2n+2) / ((2n+2)(2n+1) n! (2p)^n)."""

    def __init__(self, p: float, eps: float, tol: float = 1e-14, max_terms: int = 200):
        if p == 0:
            raise ValueError("p must be nonzero")
        self.p = float(p)
        self.tol = tol
        self.max_terms = max_terms
        self.params = OdeParams(1.0 / p, 0.0, -1.0 / p, eps)
        self.b0 = positivity_radius(self.params)
        self.eval_radius = math.inf
        self.name = f"zero-p[{p:g}]"

    def values(self, s):
        s = self._guard(s)
        eps = self.params.eps
        s2 = s * s
        ph = np.ones_like(s) + eps * s
        dph = np.full_like(s, eps)
        ddph = np.zeros_like(s)
        coef = 1.0 / self.p
        pw = np.ones_like(s)  # s^(2n)
        for n in range(self.max_terms):
            m = 2 * n + 2
            term = coef * pw * s2 / (m * (m - 1))
            ph = ph + term
            dph = dph + coef * pw * s / (m - 1)
            ddph = ddph + coef * pw
            coef *= -1.0 / ((n + 1) * 2.0 * self.p)
            pw = pw * s2
            if np.all(np.abs(term) < self.tol * np.maximum(1.0, np.abs(ph))) and n >= 2:
                break
        return ph, dph, ddph


# -- explicit (r, p) closed-form families -------------------------------------


def _dfact(n: int) -> float:
    """Double factorial n!! with (-1)!! = 0!! = 1."""
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def phi_rp(r, p, eps: float) -> PhiSpec:
    """Closed-form solution family phi_{r,p} for k1=1/p, k2=0, k3=(r-1)/p.

    Matches the explicit list of solutions (six shapes keyed on the parity of
    the denominator and the signs of r and p); r=0 dispatches to the power
    series.  Raises UnsupportedFamilyError when (r,p) fits no listed shape;
    callers may then fall back to QuadraturePhi.
    """
    r, p = Fraction(r), Fraction(p)
    if p == 0:
        raise UnsupportedFamilyError("p must be nonzero")
    if r == 0:
        return ZeroPSeriesPhi(float(p), eps)
    params = OdeParams(float(1 / p), 0.0, float((r - 1) / p), eps)
    if abs(r.numerator) != 1 or abs(p.numerator) != 1 or r.denominator != p.denominator:
        raise UnsupportedFamilyError(f"no closed family for (r, p) = ({r}, {p})")
    m = r.denominator
    b0 = positivity_radius(params)
    name = f"rp[{r},{p}]"

    if m % 2 == 0:
        n = m // 2
        if r < 0:
            # polynomial family, p = delta/(2n)
            delta = 1.0 if p > 0 else -1.0
            binom = [math.comb(n - 1, j) for j in range(n)]

            def expr(s, n=n, delta=delta, binom=binom, eps=eps):
                s2 = s * s
                acc = 1.0 + eps * s
                pw = s2
                for j in range(n):
                    c = 2.0 * n * ((-1.0) ** j) * (delta ** (j + 1)) * binom[j] / ((2 * j + 2) * (2 * j + 1))
                    acc = acc + c * pw
                    pw = pw * s2
                return acc

            return ExprPhi(expr, b0=b0, params=params, name=name)
        lead = _dfact(2 * n - 1) / _dfact(2 * n - 2)
        tail = [(_dfact(2 * n - 1) * _dfact(2 * k - 2)) / (_dfact(2 * n - 2) * _dfact(2 * k + 1))
                for k in range(1, n)]
        if p > 0:
            # arctan family
            def expr(s, lead=lead, tail=tail, eps=eps):
                acc = eps * s + lead * (1.0 + s * jets.arctan(s))
                w = 1.0 / (1.0 + s * s)
                pw = w
                for c in tail:
                    acc = acc - c * pw
                    pw = pw * w
                return acc

            return ExprPhi(expr, b0=b0, params=params, name=name)

        # log family, valid on |s| < 1
        def expr(s, lead=lead, tail=tail, eps=eps):
            acc = eps * s + lead * (1.0 + 0.5 * s * jets.log((1.0 - s) / (1.0 + s)))
            w = 1.0 / (1.0 - s * s)
            pw = w
            for c in tail:
                acc = acc - c * pw
                pw = pw * w
            return acc

        return ExprPhi(expr, b0=min(b0, 1.0), eval_radius=1.0, params=params, name=name)

    n = (m + 1) // 2
    lead = _dfact(2 * n - 1) / _dfact(2 * n - 2)
    tail = [(_dfact(2 * n - 1) * _dfact(2 * k - 2)) / (_dfact(2 * n - 2) * _dfact(2 * k + 1))
            for k in range(1, n)]
    if r < 0 and p < 0:
        def expr(s, lead=lead, tail=tail, eps=eps):
            w = jets.sqrt(1.0 + s * s)
            acc = eps * s + lead * (w - s * jets.log(s + w))
            for k, c in enumerate(tail, start=1):
                acc = acc - c * jets.power(1.0 + s * s, (2 * k + 1) / 2.0)
            return acc

        return ExprPhi(expr, b0=b0, params=params, name=name)
    if r < 0 and p > 0:
        def expr(s, lead=lead, tail=tail, eps=eps):
            w = jets.sqrt(1.0 - s * s)
            acc = eps * s + lead * (w + s * jets.arcsin(s))
            for k, c in enumerate(tail, start=1):
                acc = acc - c * jets.power(1.0 - s * s, (2 * k + 1) / 2.0)
            return acc

        return ExprPhi(expr, b0=min(b0, 1.0), eval_radius=1.0, params=params, name=name)

    # r > 0, odd denominator: needs n >= 2 and p = delta/(2n-1)
    if n < 2:
        raise UnsupportedFamilyError(f"family for (r, p) = ({r}, {p}) requires n >= 2")
    delta = 1.0 if p > 0 else -1.0
    lead6 = _dfact(2 * n - 2) / _dfact(2 * n - 3)
    tail6 = [(_dfact(2 * n - 2) * _dfact(2 * k - 3)) / (_dfact(2 * n - 3) * _dfact(2 * k))
             for k in range(2, n)]

    def expr(s, lead=lead6, tail=tail6, delta=delta, eps=eps):
        u = 1.0 + delta * s * s
        acc = eps * s + lead * (1.0 + 2.0 * delta * s * s) / (2.0 * jets.sqrt(u))
        for k, c in enumerate(tail, start=2):
            acc = acc - c * jets.power(u, -(2 * k - 1) / 2.0)
        return acc

    ev = 1.0 if delta < 0 else math.inf
    return ExprPhi(expr, b0=min(b0, ev), eval_radius=ev, params=params, name=name)


# -- spec-level functional wrappers -------------------------------------------


def phi_from_quadrature(k: OdeParams, eps: float, s, tol: float = 1e-12):
    """(phi, phi', phi'') of the ODE solution with phi(0)=1, phi'(0)=eps at s."""
    spec = QuadraturePhi(OdeParams(k.k1, k.k2, k.k3, eps), tol=tol)
    return spec.values(s)


def phi_series_sigma(sigma: float, eps: float, s, tol: float = 1e-12):
    """phi_sigma(s) by the product-coefficient power series."""
    return SigmaSeriesPhi(sigma, eps, tol=tol).phi(s)


def phi_explicit_family(r, p, eps: float, s):
    """phi_{r,p}(s) by the matching closed form (UnsupportedFamilyError if none)."""
    return phi_rp(r, p, eps).phi(s)


def ode_residual(phi: PhiSpec, k: OdeParams, s):
    """Residual of the phi-ODE at s; zero iff phi solves it there."""
    s = np.asarray(s, dtype=float)
    ph, dph, ddph = phi.values(s)
    lhs = (1.0 + (k.k1 + k.k3) * s * s + k.k2 * s ** 4) * ddph
    rhs = (k.k1 + k.k2 * s * s) * (ph - s * dph)
    return lhs - rhs


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the strong-convexity inequality sweep."""

    b0_max: float
    min_margin: float
    passed: bool
    min_phi: float


def regularity_check(phi: PhiSpec, b0: float, grid: int = 16) -> RegularityReport:
    """Verify phi(s) - s phi'(s) + (b^2 - s^2) phi''(s) > 0 on {|s| <= b <= b0}.

    Also requires phi > 0 on the grid, and, when ODE parameters are attached,
    the two auxiliary inequalities 1 + k1 s^2 > 0 and
    1 + (k1+k3) s^2 + k2 s^4 > 0.  ``b0_max`` is the largest grid value of b
    whose rows (all b' <= b) pass.
    """
    if b0 <= 0 or grid < 2:
        raise ValueError("b0 must be positive and grid >= 2")
    bs = np.linspace(b0 / grid, b0, grid)
    min_margin = math.inf
    min_phi = math.inf
    b0_max = 0.0
    prefix_ok = True
    for b in bs:
        ss = np.linspace(-b, b, 2 * grid + 1)
        ph, dph, ddph = phi.values(ss)
        margin = ph - ss * dph + (b * b - ss * ss) * ddph
        row_min = float(np.min(margin))
        row_phi = float(np.min(ph))
        ok = row_min > 0.0 and row_phi > 0.0
        if phi.params is not None:
            k = phi.params
            aux1 = 1.0 + k.k1 * ss * ss
            aux2 = 1.0 + (k.k1 + k.k3) * ss * ss + k.k2 * ss ** 4
            ok = ok and float(np.min(aux1)) > 0.0 and float(np.min(aux2)) > 0.0
        min_margin = min(min_margin, row_min)
        min_phi = min(min_phi, row_phi)
        if ok and prefix_ok:
            b0_max = float(b)
        else:
            prefix_ok = False
    passed = prefix_ok and min_margin > 0.0 and min_phi > 0.0
    return RegularityReport(b0_max, min_margin, passed, min_phi)

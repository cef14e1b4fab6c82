"""The phi(s) function space for (alpha,beta)-metrics F = alpha*phi(beta/alpha).

Provides evaluation of phi, phi', phi'' for:

* named closed forms (Riemannian 1, Randers 1+s, quadratic (1+s)^2, ...),
* solutions of the second-order ODE

      {1 + (k1+k3) s^2 + k2 s^4} phi'' = (k1 + k2 s^2) {phi - s phi'}

  with phi(0)=1, phi'(0)=eps, computed from the closed-form integrating
  factor f(s) = phi - s phi', which gives phi'' in closed form, plus
  Gauss-Legendre panels for a block of s at once: the whole of [0, s]
  first, and halved panels only where the 64- and 128-point rules disagree
  (close to the edge b0),
* the sigma-family power series with product coefficients,
* the r=0 power series, and the explicit (r,p) closed-form families.

The integrating factor f and the deformation factor eta share one core
primitive: both are exp of a rational-quadratic integral that reduces to five
elementary cases keyed on k2 and the discriminant (k1+k3)^2 - 4*k2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    "f_factor",
    "eta_core",
    "ode_residual",
    "ode_residual_of_values",
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
        require_positive(base, "1+(k1+k3)t")
        return jets.power(base, -k3 / (2.0 * s))
    d = 1.0 + t * s + t * t * k2
    require_positive(d, "1+(k1+k3)t+k2*t^2")
    if case == 3:
        rt = math.sqrt(s * s - 4.0 * k2)
        # ((rt+s)/(rt-s)) (rt-s-2 k2 t)/(rt+s+2 k2 t), written so that t=0 gives 1 exactly
        bracket = (1.0 - t * (2.0 * k2 / (rt - s))) / (1.0 + t * (2.0 * k2 / (rt + s)))
        return jets.power(bracket, (k1 - k3) / (4.0 * rt)) * jets.power(d, -0.25)
    if case == 4:
        # sqrt(2)/sqrt(2+s t) written as (1 + s t/2)^(-1/2) so that t=0 gives 1 exactly
        w = 1.0 + t * (s / 2.0)
        require_positive(w, "2+(k1+k3)t")
        return jets.exp((0.5 / w - 0.5) * ((k3 - k1) / s)) * jets.power(w, -0.5)
    rt = math.sqrt(4.0 * k2 - s * s)
    # np.arctan, not math.atan: the two can differ by 1 ulp, and then eta(0) != 1
    ang = jets.arctan((t * (2.0 * k2) + s) / rt) - np.arctan(s / rt)
    return jets.exp(ang * ((k1 - k3) / (2.0 * rt))) * jets.power(d, -0.25)


def require_positive(v, label):
    """Raise PositivityError unless every value of ``v`` (an array or a jet) is > 0."""
    val = jets.asarray_value(v)
    if np.any(val <= 0.0):
        raise PositivityError(f"{label} lost positivity (min {float(np.min(val)):.6g})")


def f_factor(k: OdeParams, s):
    """phi - s phi' for the normalized ODE solution; closed form, f(0)=1."""
    if not isinstance(s, jets.Jet):
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


# Gauss-Legendre rules of _NODES and 2*_NODES points; their difference is the error estimate
_NODES = 64
# s values per quad call: caps one level's work arrays at _BLOCK x 2*_MAX_PANELS x 2*_NODES floats
_BLOCK = 128
# most panels in one point's partition of [0, s], as QUADPACK's limit: within about 1e-5 b0
# of b0, rounding in w (its denominator cancels) keeps the two rules apart at every level
_MAX_PANELS = 64


@functools.cache
def _gauss_legendre(n: int):
    """Nodes t on [0, 1] and the weights of int_0^1 g(t) dt and int_0^1 (1-t) g(t) dt."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (x + 1.0)
    return t, 0.5 * w, 0.5 * w * (1.0 - t)


def _rule(w, a, h, n):
    """int_0^1 w(a + h t) dt and int_0^1 (1-t) w(a + h t) dt by the n-point rule, per panel."""
    t, wd, wp = _gauss_legendre(n)
    v = w(a[:, None] + h[:, None] * t)
    return (v * wd).sum(axis=1), (v * wp).sum(axis=1)


def quad(w, s, tol):
    """int_0^s w(u) du and int_0^s (s-u) w(u) du for every s of a 1-d array.

    A panel [a, a+h] of [0, s] (h has the sign of s) with d = int_0^1 w(a+ht) dt
    and p = int_0^1 (1-t) w(a+ht) dt adds h d and h^2 p + h (s-a-h) d to the two
    integrals.  Level 0 is the panel [0, s].  d and p are taken with the 64- and
    the 128-point Gauss-Legendre rule, and the 128-point values are kept; a
    panel whose rules differ by more than max(``tol``, 1e-13 |d|) in d, or the
    same in p, is halved and both halves are taken again.  When halving would
    give a point more than ``_MAX_PANELS`` panels, all of its panels are kept
    as they stand.
    """
    n = s.size
    dint = np.zeros(n)
    pint = np.zeros(n)
    owner = np.arange(n)
    panels = np.ones(n, dtype=int)
    a = np.zeros(n)
    h = s
    while owner.size:
        d_lo, p_lo = _rule(w, a, h, _NODES)
        d, p = _rule(w, a, h, 2 * _NODES)
        # negated, so that a NaN estimate is halved too
        halve = ~((np.abs(d_lo - d) <= np.maximum(tol, 1e-13 * np.abs(d)))
                  & (np.abs(p_lo - p) <= np.maximum(tol, 1e-13 * np.abs(p))))
        more = panels + np.bincount(owner[halve], minlength=n)
        full = more > _MAX_PANELS
        halve &= ~full[owner]
        panels = np.where(full, panels, more)
        keep = ~halve
        dint += np.bincount(owner[keep], (h * d)[keep], n)
        pint += np.bincount(owner[keep], (h * h * p + h * (s[owner] - (a + h)) * d)[keep], n)
        half = 0.5 * h[halve]
        owner = np.repeat(owner[halve], 2)
        a = np.stack([a[halve], a[halve] + half], axis=1).ravel()
        h = np.repeat(half, 2)
    return dint, pint


class QuadraturePhi(PhiSpec):
    """ODE solution via the closed-form phi'' plus Gauss-Legendre panels.

    phi''(s) = w(s) = (k1 + k2 s^2) / (1 + (k1+k3) s^2 + k2 s^4) * f(s) exactly, so

        phi'(s) = eps + int_0^s w(u) du
        phi(s)  = 1 + eps*s + int_0^s (s-u) w(u) du.

    ``quad`` takes both integrals for ``_BLOCK`` points at a time, with absolute
    tolerance ``tol`` per unit length of panel; away from ``b0`` the whole
    interval [0, s] passes at once.  s = 0 gives phi = 1 and phi' = eps exactly.
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
        dint = np.empty_like(flat)
        pint = np.empty_like(flat)
        for lo in range(0, flat.size, _BLOCK):
            dint[lo:lo + _BLOCK], pint[lo:lo + _BLOCK] = quad(self._w, flat[lo:lo + _BLOCK],
                                                              self.tol)
        eps = self.params.eps
        ph = 1.0 + eps * flat + pint
        dph = eps + dint
        ddph = self._w(flat)
        shape = np.shape(s)
        return ph.reshape(shape), dph.reshape(shape), ddph.reshape(shape)


class SigmaSeriesPhi(PhiSpec):
    """The sigma-family series 1 + eps*s + sum_n c_n s^(2n) with

    c_n = prod_{k=1..n} (k-sigma-1)(2k-3) / (k (2k-1)),

    convergent on |s| < 1.  Truncation: |term| < 1e-12 * max(1, |partial sum|)
    or 200 terms; |s| >= 0.999 is rejected.
    """

    def __init__(self, sigma: float, eps: float):
        self.sigma = float(sigma)
        self.params = OdeParams(2.0 * sigma, 0.0, -2.0 * sigma - 1.0, eps)
        self.b0 = min(0.999, positivity_radius(self.params))
        self.eval_radius = 0.999
        self.name = f"sigma[{sigma:g}]"
        coeffs = []
        c = 1.0
        for k in range(1, 201):
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
            scale = 1e-12 * np.maximum(1.0, np.abs(ph))
            if np.all(np.abs(term) < scale) and np.all(np.abs(term_dd) < scale):
                break
        return ph, dph, ddph


class ZeroPSeriesPhi(PhiSpec):
    """The r=0 family: 1 + eps*s + (1/p) sum_n (-1)^n s^(2n+2) / ((2n+2)(2n+1) n! (2p)^n).

    Truncation: |term| < 1e-14 * max(1, |partial sum|) after at least three
    terms, or 200 terms.
    """

    def __init__(self, p: float, eps: float):
        if p == 0:
            raise ValueError("p must be nonzero")
        self.p = float(p)
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
        for n in range(200):
            m = 2 * n + 2
            term = coef * pw * s2 / (m * (m - 1))
            ph = ph + term
            dph = dph + coef * pw * s / (m - 1)
            ddph = ddph + coef * pw
            coef *= -1.0 / ((n + 1) * 2.0 * self.p)
            pw = pw * s2
            if np.all(np.abs(term) < 1e-14 * np.maximum(1.0, np.abs(ph))) and n >= 2:
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


def _lead_tail(n: int):
    """(2n-1)!!/(2n-2)!! and the coefficients (2n-1)!! (2k-2)!! / ((2n-2)!! (2k+1)!!), k < n."""
    lead = _dfact(2 * n - 1) / _dfact(2 * n - 2)
    tail = [(_dfact(2 * n - 1) * _dfact(2 * k - 2)) / (_dfact(2 * n - 2) * _dfact(2 * k + 1))
            for k in range(1, n)]
    return lead, tail


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
        lead, tail = _lead_tail(n)
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
    lead, tail = _lead_tail(n)
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


def ode_residual(phi: PhiSpec, k: OdeParams, s):
    """Residual of the phi-ODE at s; zero iff phi solves it there."""
    s = np.asarray(s, dtype=float)
    return ode_residual_of_values(k, s, *phi.values(s))


def ode_residual_of_values(k: OdeParams, s, ph, dph, ddph):
    """The phi-ODE residual from (phi, phi', phi'') already evaluated at s."""
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
    b = bs[:, None]
    ss = np.linspace(-bs, bs, 2 * grid + 1, axis=1)  # row i spans [-b_i, b_i]
    ph, dph, ddph = phi.values(ss)
    margin = ph - ss * dph + (b * b - ss * ss) * ddph
    row_min = margin.min(axis=1)
    row_phi = ph.min(axis=1)
    ok = (row_min > 0.0) & (row_phi > 0.0)
    if phi.params is not None:
        k = phi.params
        aux1 = 1.0 + k.k1 * ss * ss
        aux2 = 1.0 + (k.k1 + k.k3) * ss * ss + k.k2 * ss ** 4
        ok &= (aux1.min(axis=1) > 0.0) & (aux2.min(axis=1) > 0.0)
    # the index of the first failing row, or grid when every row passes
    n_ok = int(np.argmin(np.append(ok, False)))
    b0_max = float(bs[n_ok - 1]) if n_ok else 0.0
    return RegularityReport(b0_max, float(row_min.min()), n_ok == grid, float(row_phi.min()))

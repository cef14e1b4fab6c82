"""Riemannian primitives on a single coordinate patch.

A :class:`MetricField` wraps a jet-transparent callable ``x -> a_ij(x)``; a
:class:`OneFormField` wraps ``x -> b_i(x)``.  Points are plain arrays of shape
(n,) or batches (..., n).  All operators below accept batches and return
correspondingly batched tensors.  Derivatives of the fields are taken with the
forward-mode engine in :mod:`finslerlab.jets`; the finite-difference oracles
used to cross-check them live in the test suite, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .errors import DomainError, SingularMetricError

COND_LIMIT = 1e12  # condition-number cutoff before a metric counts as singular


@dataclass(frozen=True)
class MetricField:
    """Smooth map x -> symmetric positive-definite matrix a_ij(x)."""

    dim: int
    matrix: Callable  # (..., n) array or Jet -> (..., n, n) array or Jet
    domain_radius: float = math.inf
    name: str = ""

    def __call__(self, x):
        return self.matrix(x)


@dataclass(frozen=True)
class OneFormField:
    """Smooth map x -> covector b_i(x)."""

    dim: int
    covector: Callable  # (..., n) array or Jet -> (..., n) array or Jet
    name: str = ""

    def __call__(self, x):
        return self.covector(x)


def euclidean_metric(n: int) -> MetricField:
    eye = np.eye(n)

    def mat(x):
        v = jets.asarray_value(x)
        return jets.lift(np.broadcast_to(eye, v.shape[:-1] + (n, n)), x)

    return MetricField(n, mat, name="euclidean")


def constant_oneform(coeffs) -> OneFormField:
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0]

    def cov(x):
        v = jets.asarray_value(x)
        return jets.lift(np.broadcast_to(coeffs, v.shape[:-1] + (n,)), x)

    return OneFormField(n, cov, name="constant")


def pair_fields(a: MetricField, b: OneFormField, alpha_of, beta_of, tag: str):
    """The fields of a pointwise map of the pair (a_ij, b_i) driven by t = ||b||^2.

    ``alpha_of(a_ij, b_i, t)`` gives the new metric and ``beta_of(b_i, t)`` the
    new 1-form, on arrays or jets alike.  Each closure evaluates (a_ij, b_i, t)
    once per call.  A side given as None passes its input field through as the
    same object.  Returns (MetricField, OneFormField) named ``tag(<input>)``.
    """

    def pair(x):
        av = a.matrix(x)
        bv = b.covector(x)
        return av, bv, jets.dot_last(jets.solve(av, bv), bv)

    def mat(x):
        return alpha_of(*pair(x))

    def cov(x):
        _, bv, t = pair(x)
        return beta_of(bv, t)

    alpha = a if alpha_of is None else MetricField(a.dim, mat, domain_radius=a.domain_radius,
                                                   name=f"{tag}({a.name})")
    beta = b if beta_of is None else OneFormField(b.dim, cov, name=f"{tag}({b.name})")
    return alpha, beta


def sample_ball(rng, n: int, count: int, radius: float):
    """Uniform points in the open ball of the given radius."""
    y = rng.standard_normal((count, n))
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / n)
    return y * r[:, None]


def check_point(fld, x):
    """Reject points on or outside the field's domain ball."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != fld.dim:
        raise DomainError(f"point dimension {x.shape[-1]} != field dimension {fld.dim}")
    if not np.all(np.isfinite(x)):
        raise DomainError("non-finite point coordinates")
    radius = getattr(fld, "domain_radius", math.inf)
    if math.isfinite(radius):
        r = np.sqrt(np.sum(x * x, axis=-1))
        if np.any(r >= radius):
            raise DomainError(f"|x| = {float(np.max(r)):.6g} outside open ball of radius {radius}")
    return x


def inverse_metric(a0: np.ndarray) -> np.ndarray:
    """Inverse of the metric matrix with a condition-number guard."""
    cond = np.linalg.cond(a0)
    if np.any(~np.isfinite(cond)) or np.any(cond > COND_LIMIT):
        raise SingularMetricError(f"metric condition number {float(np.max(cond)):.3g} exceeds {COND_LIMIT:.0e}")
    return np.linalg.inv(a0)


def christoffel(a: MetricField, x):
    """Christoffel symbols Gamma^i_{jk} of ``a`` at ``x``; shape (..., n, n, n)."""
    x = check_point(a, x)
    jx = jets.seed(x, order=1)
    aj = a.matrix(jx)
    a0, da = aj.val, aj.g  # da[..., i, j, k] = d_k a_ij
    ainv = inverse_metric(a0)
    # C_{ljk} = 1/2 (d_j a_lk + d_k a_jl - d_l a_jk)
    c = 0.5 * (np.einsum("...lkj->...ljk", da) + np.einsum("...jlk->...ljk", da)
               - np.einsum("...jkl->...ljk", da))
    return np.einsum("...il,...ljk->...ijk", ainv, c)


def spray_riemann(a: MetricField, x, y):
    """Riemannian spray coefficients G^i = 1/2 Gamma^i_{jk} y^j y^k."""
    gam = christoffel(a, x)
    y = np.asarray(y, dtype=float)
    return 0.5 * np.einsum("...ijk,...j,...k->...i", gam, y, y)


@dataclass(frozen=True)
class CovariantData:
    """Covariant derivative of a 1-form and its standard contractions.

    ``bij`` is b_{i|j}; ``rij``/``sij`` its symmetric/antisymmetric parts.
    Scalar contractions follow the usual conventions: indices are lowered and
    raised with a_ij, contraction with b^i drops the index (r_i = b^j r_{ji},
    s_i = b^j s_{ji}), contraction with y^i appends a 0.
    """

    bij: np.ndarray
    rij: np.ndarray
    sij: np.ndarray
    b_low: np.ndarray   # b_i
    b_up: np.ndarray    # b^i
    b2: np.ndarray      # squared norm a^{ij} b_i b_j
    a0: np.ndarray      # metric matrix at x
    ainv: np.ndarray
    r_i: np.ndarray     # b^j r_{ji}
    s_i: np.ndarray     # b^j s_{ji}
    r: np.ndarray       # r_i b^i
    r_up: np.ndarray    # a^{ij} r_j
    s_up: np.ndarray    # a^{ij} s_j

    def r00(self, y):
        return np.einsum("...ij,...i,...j->...", self.rij, y, y)

    def r0(self, y):
        return np.einsum("...i,...i->...", self.r_i, y)

    def s0(self, y):
        return np.einsum("...i,...i->...", self.s_i, y)

    def si0_low(self, y):
        return np.einsum("...ij,...j->...i", self.sij, y)

    def si0_up(self, y):
        return np.einsum("...ij,...j->...i", self.ainv, self.si0_low(y))


def covariant_derivative(b: OneFormField, a: MetricField, x) -> CovariantData:
    """b_{i|j} = d_j b_i - b_k Gamma^k_{ij}, plus the r/s decomposition."""
    x = check_point(a, x)
    jx = jets.seed(x, order=1)
    bj = b.covector(jx)
    b0, db = bj.val, bj.g  # db[..., i, j] = d_j b_i
    gam = christoffel(a, x)
    bij = db - np.einsum("...k,...kij->...ij", b0, gam)
    rij = 0.5 * (bij + np.swapaxes(bij, -1, -2))
    sij = 0.5 * (bij - np.swapaxes(bij, -1, -2))
    a0 = jets.asarray_value(a.matrix(x))
    ainv = inverse_metric(a0)
    b_up = np.einsum("...ij,...j->...i", ainv, b0)
    b2 = np.einsum("...i,...i->...", b_up, b0)
    r_i = np.einsum("...j,...ji->...i", b_up, rij)
    s_i = np.einsum("...j,...ji->...i", b_up, sij)
    r = np.einsum("...i,...i->...", r_i, b_up)
    r_up = np.einsum("...ij,...j->...i", ainv, r_i)
    s_up = np.einsum("...ij,...j->...i", ainv, s_i)
    return CovariantData(bij, rij, sij, b0, b_up, b2, a0, ainv, r_i, s_i, r, r_up, s_up)


def closed_conformal_residual(cov: CovariantData):
    """(max |s_ij|, max |r_ij - c a_ij|), c = a^{ij} r_ij / n: both are 0 iff b is closed conformal."""
    n = cov.a0.shape[-1]
    c = np.einsum("...ij,...ij->...", cov.ainv, cov.rij) / n
    res = np.abs(cov.rij - c[..., None, None] * cov.a0)
    return float(np.max(np.abs(cov.sij))), float(np.max(res))


def norm_b(a: MetricField, b: OneFormField, x):
    """Norm of the 1-form, sqrt(a^{ij} b_i b_j)."""
    x = check_point(a, x)
    a0 = jets.asarray_value(a.matrix(x))
    b0 = jets.asarray_value(b.covector(x))
    ainv = inverse_metric(a0)
    b2 = np.einsum("...ij,...i,...j->...", ainv, b0, b0)
    return np.sqrt(np.maximum(b2, 0.0))


"""Independent oracles and random-field generators shared by the tests.

Everything here deliberately avoids the library's analytic-derivative paths:
derivatives come from central finite differences or from generic order-2
jets over the joint (x, y) seeds, integrals from scipy's adaptive quadrature,
and ODE solutions from a Taylor recurrence, so agreement with the package is
a genuine cross-check.
"""

import math

import numpy as np
from scipy.integrate import quad

from finslerlab import jets
from finslerlab.abmetric import F_eval, fundamental_tensor
from finslerlab.geometry import MetricField, OneFormField, check_point

FD_STEP = float(np.cbrt(np.finfo(float).eps))  # ~6.06e-6


def fd_metric_grad(mat, x, h=None):
    """d_k a_ij by central differences; shape (n, n, n)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    out = np.zeros((n, n, n))
    for k in range(n):
        hk = (h or FD_STEP) * max(1.0, abs(x[k]))
        e = np.zeros(n)
        e[k] = hk
        out[:, :, k] = (mat(x + e) - mat(x - e)) / (2.0 * hk)
    return out


def fd_oneform_grad(cov, x, h=None):
    """d_j b_i by central differences; shape (n, n)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    out = np.zeros((n, n))
    for j in range(n):
        hj = (h or FD_STEP) * max(1.0, abs(x[j]))
        e = np.zeros(n)
        e[j] = hj
        out[:, j] = (cov(x + e) - cov(x - e)) / (2.0 * hj)
    return out


def second_order_partials(m, x, y):
    """F, F_{x^k} and F_{x^k y^l} from order-2 jets over the 2n seeds (x, y).

    Carries the whole (2n)^2 Hessian of F, so it does not rely on the
    closed-form y-gradient of an (alpha, beta)-metric.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = m.dim
    jx, jy = jets.seed_pair(x, y, order=2)
    f = F_eval(m, jx, jy)
    fx = f.g[..., :n]
    mixed = f.h[..., :n, n:]  # F_{x^k y^l}
    return f.val, fx, mixed


def spray_defn(m, x, y):
    """Spray straight from the definition G^i = g^{il}([F^2]_{x^k y^l} y^k - [F^2]_{x^l})/4.

    Independent of the structured formula in ``abmetric.spray_ab``; used to
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


def fd_christoffel(a: MetricField, x):
    """Christoffel symbols from finite-difference metric derivatives."""
    da = fd_metric_grad(a.matrix, x)
    ainv = np.linalg.inv(a.matrix(np.asarray(x, dtype=float)))
    c = 0.5 * (np.einsum("lkj->ljk", da) + np.einsum("jlk->ljk", da)
               - np.einsum("jkl->ljk", da))
    return np.einsum("il,ljk->ijk", ainv, c)


def fd_spray_euler_lagrange(a: MetricField, x, y):
    """Spray from the energy function: G^i = a^{il}(2 d_k a_lj - d_l a_jk) y^j y^k / 4."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    da = fd_metric_grad(a.matrix, x)  # da[l, j, k] = d_k a_lj
    ainv = np.linalg.inv(a.matrix(x))
    t1 = np.einsum("ljk,j,k->l", da, y, y)  # d_k a_lj y^j y^k
    t2 = np.einsum("jkl,j,k->l", da, y, y)  # d_l a_jk y^j y^k
    return 0.25 * ainv @ (2.0 * t1 - t2)


def fd_covariant_derivative(b: OneFormField, a: MetricField, x):
    """b_{i|j} from finite-difference derivatives only."""
    db = fd_oneform_grad(b.covector, x)
    gam = fd_christoffel(a, x)
    b0 = b.covector(np.asarray(x, dtype=float))
    return db - np.einsum("k,kij->ij", b0, gam)


def quad_f_factor(k, s):
    """f(s) from its defining integral, by adaptive quadrature."""
    def g(t):
        return -t * (k.k1 + k.k2 * t * t) / (1.0 + (k.k1 + k.k3) * t * t + k.k2 * t ** 4)

    val, _ = quad(g, 0.0, s, epsabs=1e-14, epsrel=1e-14, limit=300)
    return math.exp(val)


def quad_eta(k, big_b):
    """eta(bbar^2) from its defining integral, by adaptive quadrature."""
    def g(t):
        return (k.k3 + k.k2 * t) / (2.0 * (1.0 + (k.k1 + k.k3) * t + k.k2 * t * t))

    val, _ = quad(g, 0.0, big_b, epsabs=1e-14, epsrel=1e-14, limit=300)
    return math.exp(-val)


def taylor_phi(k, eps, s, order=60):
    """phi(s) from a Taylor recurrence for the ODE (independent of quadrature).

    Convergent inside the distance to the nearest complex zero of
    1 + (k1+k3) z^2 + k2 z^4; callers keep |s| small.
    """
    a = np.zeros(order + 2)
    a[0], a[1] = 1.0, eps
    s12 = k.k1 + k.k3
    for m in range(order):
        am = a[m]
        am2 = a[m - 2] if m >= 2 else 0.0
        rhs = (k.k1 * (1 - m) * am + k.k2 * (3 - m) * am2
               - s12 * m * (m - 1) * am - k.k2 * (m - 2) * (m - 3) * am2)
        a[m + 2] = rhs / ((m + 2) * (m + 1))
    return float(np.polyval(a[::-1], s))


def sym(m):
    return 0.5 * (m + m.T)


def random_spd_metric(rng, n, scale=0.12):
    """Analytic SPD metric: constant + linear + rank-one quadratic parts."""
    m0 = np.eye(n) + scale * sym(rng.standard_normal((n, n)))
    lin = [scale * sym(rng.standard_normal((n, n))) for _ in range(n)]
    w = scale * rng.standard_normal(n)
    p = scale * sym(rng.standard_normal((n, n)))

    def mat(x):
        acc = (1.0 + 0.0 * x[..., 0])[..., None, None] * m0
        for k in range(n):
            acc = x[..., k][..., None, None] * lin[k] + acc
        xw = jets.dot_last(x, w)
        return (xw * xw)[..., None, None] * p + acc

    return MetricField(n, mat, name="random-spd")


def random_oneform(rng, n, scale=0.12):
    """Analytic 1-form: constant + linear + rank-one quadratic parts."""
    c0 = scale * rng.standard_normal(n)
    lmat = scale * rng.standard_normal((n, n))
    u = scale * rng.standard_normal(n)
    qv = scale * rng.standard_normal(n)

    def cov(x):
        if isinstance(x, jets.Jet):
            lin = (lmat * x[..., None, :]).sum(-1)
        else:
            lin = np.einsum("ij,...j->...i", lmat, x)
        xu = jets.dot_last(x, u)
        return (xu * xu)[..., None] * qv + lin + c0

    return OneFormField(n, cov, name="random-oneform")


def conformality_residual(cov):
    """(max |s_ij|, max |r_ij - c(x) a_ij|) with c fitted from the trace."""
    n = cov.a0.shape[-1]
    c = np.einsum("...ij,...ij->...", cov.ainv, cov.rij) / n
    res = np.abs(cov.rij - c[..., None, None] * cov.a0)
    return float(np.max(np.abs(cov.sij))), float(np.max(res))

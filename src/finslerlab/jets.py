"""Forward-mode automatic differentiation on truncated Taylor carriers ("jets").

A :class:`Jet` stores a value array of arbitrary shape ``S`` together with the
gradient (``S + (m,)``) and optionally the Hessian (``S + (m, m)``) with
respect to ``m`` seed variables.  All arithmetic propagates derivatives to the
carried order, so any field written in terms of jet-aware operations yields
machine-precision first and second derivatives, including through linear
solves.  Batching is free: the value shape may carry leading sample axes and
everything broadcasts.

Seed axes always trail the value axes, which keeps numpy broadcasting of
mixed-shape operands safe (values are expanded with ``[..., None]`` against
gradients, never the other way around).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Jet",
    "seed",
    "seed_pair",
    "sqrt",
    "exp",
    "log",
    "arctan",
    "arcsin",
    "power",
    "asarray_value",
    "lift",
    "solve",
    "vecsolve",
    "quad_form",
    "dot_last",
    "col",
    "row",
    "e2",
    "outer",
]


def _as_nd(x):
    return x if isinstance(x, np.ndarray) else np.asarray(x, dtype=float)


class Jet:
    """Value with first (and optionally second) derivatives w.r.t. m seeds."""

    __slots__ = ("val", "g", "h")

    # make ndarray <op> Jet defer to the reflected Jet method instead of
    # broadcasting the Jet as an object scalar
    __array_ufunc__ = None

    def __init__(self, val, g, h=None):
        self.val = _as_nd(val)
        self.g = _as_nd(g)
        self.h = _as_nd(h) if h is not None else None

    @property
    def order(self) -> int:
        return 2 if self.h is not None else 1

    @property
    def nseeds(self) -> int:
        return self.g.shape[-1]

    def __repr__(self):
        return f"Jet(order={self.order}, val_shape={self.val.shape}, m={self.nseeds})"

    # -- structural ---------------------------------------------------------

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        g = self.g[idx + (slice(None),)]
        h = self.h[idx + (slice(None), slice(None))] if self.h is not None else None
        return Jet(self.val[idx], g, h)

    def sum(self, axis=None):
        if axis is None:
            axis = tuple(range(self.val.ndim))
        if isinstance(axis, int):
            axis = (axis,)
        axis = tuple(a % max(self.val.ndim, 1) for a in axis)
        h = self.h.sum(axis) if self.h is not None else None
        return Jet(self.val.sum(axis), self.g.sum(axis), h)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self):
        return Jet(-self.val, -self.g, None if self.h is None else -self.h)

    def __add__(self, other):
        if isinstance(other, Jet):
            h = None
            if self.h is not None or other.h is not None:
                h = _zadd(self.h, other.h)
            return Jet(self.val + other.val, self.g + other.g, h)
        # adding a constant leaves derivatives alone, but broadcasting of the
        # value may enlarge the shape; expand g/h accordingly
        val = self.val + _as_nd(other)
        m = self.nseeds
        g, h = self.g, self.h
        if val.shape != self.val.shape:
            g = np.broadcast_to(g, val.shape + (m,))
            if h is not None:
                h = np.broadcast_to(h, val.shape + (m, m))
        return Jet(val, g, h)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -_as_nd(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            v1, v2 = self.val, other.val
            g = self.g * v2[..., None] + other.g * v1[..., None]
            h = None
            if self.h is not None or other.h is not None:
                cross = self.g[..., :, None] * other.g[..., None, :]
                h = cross + np.swapaxes(cross, -1, -2)
                if self.h is not None:
                    h = h + self.h * v2[..., None, None]
                if other.h is not None:
                    h = h + other.h * v1[..., None, None]
            return Jet(v1 * v2, g, h)
        other = _as_nd(other)
        h = None if self.h is None else self.h * other[..., None, None]
        return Jet(self.val * other, self.g * other[..., None], h)

    __rmul__ = __mul__

    def _reciprocal(self):
        w = 1.0 / self.val
        w2 = w * w
        g = -self.g * w2[..., None]
        h = None
        if self.h is not None:
            gg = self.g[..., :, None] * self.g[..., None, :]
            h = 2.0 * gg * (w2 * w)[..., None, None] - self.h * w2[..., None, None]
        return Jet(w, g, h)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return self * (1.0 / _as_nd(other))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        return power(self, p)

    # -- composition --------------------------------------------------------

    def chain(self, f0, f1, f2=None):
        """Compose with a scalar function given f(val), f'(val), f''(val)."""
        f0, f1 = _as_nd(f0), _as_nd(f1)
        g = self.g * f1[..., None]
        h = None
        if self.h is not None:
            if f2 is None:
                raise ValueError("second derivative required for order-2 jets")
            f2 = _as_nd(f2)
            gg = self.g[..., :, None] * self.g[..., None, :]
            h = self.h * f1[..., None, None] + gg * f2[..., None, None]
        return Jet(f0, g, h)


def _zadd(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


# -- seeding ---------------------------------------------------------------


def seed(x, order=1):
    """Jet for coordinates ``x`` of shape (..., n) seeded on their n components."""
    x = _as_nd(x)
    n = x.shape[-1]
    g = np.broadcast_to(np.eye(n), x.shape + (n,)).copy()
    h = np.zeros(x.shape + (n, n)) if order == 2 else None
    return Jet(x, g, h)


def seed_pair(x, y, order=2):
    """Jets for x and y sharing a 2n-dimensional seed space (x first)."""
    x, y = _as_nd(x), _as_nd(y)
    n = x.shape[-1]
    m = 2 * n
    gx = np.zeros(x.shape + (m,))
    gy = np.zeros(y.shape + (m,))
    idx = np.arange(n)
    gx[..., idx, idx] = 1.0
    gy[..., idx, n + idx] = 1.0
    hx = np.zeros(x.shape + (m, m)) if order == 2 else None
    hy = np.zeros(y.shape + (m, m)) if order == 2 else None
    return Jet(x, gx, hx), Jet(y, gy, hy)


# -- elementary functions (dispatch on Jet vs ndarray) -----------------------


def sqrt(x):
    if isinstance(x, Jet):
        r = np.sqrt(x.val)
        f1 = 0.5 / r
        f2 = -0.25 / (r * x.val) if x.h is not None else None
        return x.chain(r, f1, f2)
    return np.sqrt(x)


def exp(x):
    if isinstance(x, Jet):
        e = np.exp(x.val)
        return x.chain(e, e, e if x.h is not None else None)
    return np.exp(x)


def log(x):
    if isinstance(x, Jet):
        w = 1.0 / x.val
        return x.chain(np.log(x.val), w, -w * w if x.h is not None else None)
    return np.log(x)


def arctan(x):
    if isinstance(x, Jet):
        d = 1.0 / (1.0 + x.val * x.val)
        f2 = -2.0 * x.val * d * d if x.h is not None else None
        return x.chain(np.arctan(x.val), d, f2)
    return np.arctan(x)


def arcsin(x):
    if isinstance(x, Jet):
        d = 1.0 / np.sqrt(1.0 - x.val * x.val)
        f2 = x.val * d ** 3 if x.h is not None else None
        return x.chain(np.arcsin(x.val), d, f2)
    return np.arcsin(x)


def power(x, p):
    """x**p for real exponent p (positive base unless p is a round integer)."""
    if isinstance(x, Jet):
        if p == 0:
            return Jet(np.ones_like(x.val), np.zeros_like(x.g),
                       None if x.h is None else np.zeros_like(x.h))
        f0 = x.val ** p
        f1 = p * x.val ** (p - 1)
        f2 = p * (p - 1) * x.val ** (p - 2) if x.h is not None else None
        return x.chain(f0, f1, f2)
    return x ** p


# -- shape helpers (Jet, ndarray or float) -------------------------------------


def col(u):
    """``u[..., None]``: a vector as a column, or a scalar field scaling a vector."""
    return u[..., None] if isinstance(u, Jet) else _as_nd(u)[..., None]


def row(u):
    """``u[..., None, :]``: u as the row of a matrix."""
    return u[..., None, :] if isinstance(u, Jet) else _as_nd(u)[..., None, :]


def e2(u):
    """``u[..., None, None]``: a scalar field scaling a matrix."""
    return u[..., None, None] if isinstance(u, Jet) else _as_nd(u)[..., None, None]


def outer(u, v):
    """u_i v_j over the last axis of each."""
    return col(u) * row(v)


def asarray_value(x):
    """Value part of a Jet, or the array itself."""
    return x.val if isinstance(x, Jet) else _as_nd(x)


def lift(value, like):
    """Promote a constant to a zero-derivative Jet matching ``like``'s seeds."""
    if isinstance(value, Jet) or not isinstance(like, Jet):
        return value
    value = _as_nd(value)
    m = like.nseeds
    g = np.zeros(value.shape + (m,))
    h = np.zeros(value.shape + (m, m)) if like.h is not None else None
    return Jet(value, g, h)


# -- contractions ------------------------------------------------------------


def dot_last(u, v):
    """Contraction over the last axis; works for jets and arrays."""
    return (u * v).sum(-1) if isinstance(u, Jet) or isinstance(v, Jet) else np.einsum("...i,...i->...", u, v)


def quad_form(a, y):
    """y^T a y over the two trailing matrix axes."""
    if isinstance(a, Jet) or isinstance(y, Jet):
        return (a * row(y) * col(y)).sum((-2, -1))
    return np.einsum("...ij,...i,...j->...", a, y, y)


# -- linear solves with jet coefficients --------------------------------------


def vecsolve(a, b):
    """np.linalg.solve for stacked vectors b of shape (..., n) (numpy >= 2 semantics)."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def solve(a, b):
    """Solve a @ x = b over the trailing axes, propagating jet derivatives.

    ``a`` has value shape (..., n, n), ``b`` value shape (..., n).  Either may
    be a plain array or a Jet; the result is a Jet iff any input is.
    """
    a_is = isinstance(a, Jet)
    b_is = isinstance(b, Jet)
    if not a_is and not b_is:
        return vecsolve(_as_nd(a), _as_nd(b))

    a0 = a.val if a_is else _as_nd(a)
    b0 = b.val if b_is else _as_nd(b)
    x0 = vecsolve(a0, b0)

    order = max(a.order if a_is else 1, b.order if b_is else 1)
    m = (a if a_is else b).nseeds

    # first order: a0 x1_k = b1_k - a1_k x0
    rhs1 = np.zeros(b0.shape + (m,))
    if b_is:
        rhs1 = rhs1 + b.g
    if a_is:
        rhs1 = rhs1 - np.einsum("...ijk,...j->...ik", a.g, x0)
    x1 = np.linalg.solve(a0, rhs1)

    if order == 1:
        return Jet(x0, x1)

    # second order: a0 x2_ab = b2_ab - a2_ab x0 - a1_a x1_b - a1_b x1_a
    rhs2 = np.zeros(b0.shape + (m, m))
    if b_is and b.h is not None:
        rhs2 = rhs2 + b.h
    if a_is:
        if a.h is not None:
            rhs2 = rhs2 - np.einsum("...ijab,...j->...iab", a.h, x0)
        cross = np.einsum("...ija,...jb->...iab", a.g, x1)
        rhs2 = rhs2 - cross - np.swapaxes(cross, -1, -2)
    x2 = np.linalg.solve(a0, rhs2.reshape(rhs2.shape[:-2] + (m * m,)))
    x2 = x2.reshape(b0.shape + (m, m))
    return Jet(x0, x1, x2)

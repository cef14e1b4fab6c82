"""Forward-mode engine checks against finite differences and closed forms."""

import numpy as np
from hypothesis import given, settings, strategies as st

from finslerlab import jets


def f_scalar(x):
    return x[..., 0] ** 2 * x[..., 1] + jets.sqrt(1.0 + x[..., 1] * x[..., 1]) \
        + jets.exp(0.3 * x[..., 0]) * jets.arctan(x[..., 1])


def test_gradient_and_hessian_match_closed_form():
    x0 = np.array([1.5, 2.0])
    j = jets.seed(x0, order=2)
    out = f_scalar(j)
    h = 1e-5
    grad_fd = np.zeros(2)
    hess_fd = np.zeros((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        grad_fd[i] = (f_scalar(x0 + e) - f_scalar(x0 - e)) / (2 * h)
        hess_fd[i, i] = (f_scalar(x0 + e) - 2 * f_scalar(x0) + f_scalar(x0 - e)) / h**2
    e0, e1 = np.array([h, 0.0]), np.array([0.0, h])
    hess_fd[0, 1] = hess_fd[1, 0] = (
        f_scalar(x0 + e0 + e1) - f_scalar(x0 + e0 - e1)
        - f_scalar(x0 - e0 + e1) + f_scalar(x0 - e0 - e1)) / (4 * h * h)
    assert np.allclose(out.g, grad_fd, atol=1e-7)
    assert np.allclose(out.h, hess_fd, atol=1e-4)


def test_batched_evaluation_matches_loop():
    xb = np.array([[0.3, 0.7], [1.1, -0.4], [0.0, 2.0]])
    jb = jets.seed(xb, order=2)
    out = f_scalar(jb)
    for i, xi in enumerate(xb):
        single = f_scalar(jets.seed(xi, order=2))
        assert np.allclose(out.val[i], single.val)
        assert np.allclose(out.g[i], single.g)
        assert np.allclose(out.h[i], single.h)


def test_division_and_power_rules():
    x = jets.seed(np.array([0.8, 1.7]), order=2)
    u = x[..., 0] / x[..., 1]
    assert np.isclose(u.val, 0.8 / 1.7)
    assert np.allclose(u.g, [1 / 1.7, -0.8 / 1.7**2])
    v = jets.power(x[..., 1], -1.5)
    assert np.isclose(v.g[1], -1.5 * 1.7 ** -2.5)
    assert np.isclose(v.h[1, 1], 1.5 * 2.5 * 1.7 ** -3.5)
    w = 2.0 / x[..., 0]
    assert np.isclose(w.g[0], -2.0 / 0.8**2)


def test_seed_pair_block_layout():
    x = np.array([0.1, 0.2, 0.3])
    y = np.array([1.0, -1.0, 0.5])
    jx, jy = jets.seed_pair(x, y, order=2)
    f = jets.dot_last(jx, jy)  # <x, y>
    assert np.allclose(f.g[:3], y)
    assert np.allclose(f.g[3:], x)
    assert np.allclose(f.h[:3, 3:], np.eye(3))
    assert np.allclose(f.h[:3, :3], 0.0)


def test_ndarray_left_operand_defers_to_jet():
    x = jets.seed(np.array([0.4, 0.5]), order=1)
    out = np.array([2.0, 3.0]) * x
    assert isinstance(out, jets.Jet)
    assert np.allclose(out.val, [0.8, 1.5])
    out2 = np.array([1.0, 1.0]) - x
    assert np.allclose(out2.val, [0.6, 0.5])
    assert np.allclose(out2.g, -x.g)


def test_solve_propagates_first_and_second_derivatives():
    e01 = np.array([[0.0, 1.0], [1.0, 0.0]])

    def afun(x):
        a00 = 1.0 + x[..., 0]
        a01 = x[..., 1] * x[..., 0]
        return (a00[..., None, None] * np.diag([1.0, 0.0])
                + a01[..., None, None] * e01
                + (2.0 + 0.0 * x[..., 0])[..., None, None] * np.diag([0.0, 1.0]))

    def bfun(x):
        return x * np.array([1.0, 0.0]) + np.array([0.0, 1.0])

    x0 = np.array([0.3, 0.4])
    sol = jets.solve(afun(jets.seed(x0, order=2)), bfun(jets.seed(x0, order=2)))

    def direct(x):
        return np.linalg.solve(afun(x), bfun(x))

    h = 1e-5
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (direct(x0 + e) - direct(x0 - e)) / (2 * h)
        assert np.allclose(sol.g[..., k], fd, atol=1e-8)
        fd2 = (direct(x0 + e) - 2 * direct(x0) + direct(x0 - e)) / h**2
        assert np.allclose(sol.h[..., k, k], fd2, atol=1e-4)


def test_solve_batched_vectors():
    rng = np.random.default_rng(0)
    a = np.eye(3) + 0.1 * rng.standard_normal((4, 3, 3))
    b = rng.standard_normal((4, 3))
    x = jets.solve(a, b)
    assert np.allclose(np.einsum("bij,bj->bi", a, x), b)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 2))
@settings(max_examples=50, deadline=None)
def test_chain_rule_consistency(a, b, c):
    x = jets.seed(np.array([a, b, c]), order=2)
    lhs = jets.exp(jets.log(x[..., 2]))
    assert np.isclose(lhs.val, c, rtol=1e-12)
    assert np.isclose(lhs.g[2], 1.0, rtol=1e-10)
    assert abs(lhs.h[2, 2]) < 1e-10


def test_lift_constant():
    x = jets.seed(np.array([0.1, 0.2]), order=2)
    c = jets.lift(np.eye(2), x)
    assert isinstance(c, jets.Jet)
    assert np.all(c.g == 0.0) and np.all(c.h == 0.0)
    assert jets.lift(np.eye(2), np.zeros(2)) is not None


def test_sum_and_indexing_with_none():
    x = jets.seed(np.array([[0.1, 0.2], [0.3, 0.4]]), order=1)
    outer = x[..., :, None] * x[..., None, :]
    assert outer.val.shape == (2, 2, 2)
    tr = outer.sum((-2, -1))
    expect = (x.val.sum(-1)) ** 2
    assert np.allclose(tr.val, (x.val[..., 0] + x.val[..., 1]) ** 2 - 2 * x.val[..., 0] * x.val[..., 1]
                       + 2 * x.val[..., 0] * x.val[..., 1])
    assert np.allclose(tr.val, expect)


def test_quad_form_matches_einsum():
    rng = np.random.default_rng(1)
    a = np.eye(3) + 0.1 * rng.standard_normal((5, 3, 3))
    y = rng.standard_normal((5, 3))
    assert np.allclose(jets.quad_form(a, y), np.einsum("bij,bi,bj->b", a, y, y))


def test_shape_helpers_on_jets_arrays_and_floats():
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, 4, 3))
    ju = jets.seed(u, order=2)
    jv = jets.Jet(v, rng.standard_normal((4, 3, 3)), rng.standard_normal((4, 3, 3, 3)))
    m = ju.nseeds
    for fn, shape in ((jets.col, (4, 3, 1)), (jets.row, (4, 1, 3)), (jets.e2, (4, 3, 1, 1))):
        assert fn(u).shape == fn(u.tolist()).shape == shape
        out = fn(ju)
        assert np.array_equal(out.val, fn(u))
        assert np.array_equal(out.g, ju.g.reshape(shape + (m,)))
        assert np.array_equal(out.h, ju.h.reshape(shape + (m, m)))
    assert jets.col(0.5).tolist() == [0.5] and jets.e2(2.0).tolist() == [[2.0]]
    assert np.array_equal(jets.e2(u[:, 0]), u[:, 0, None, None])

    expect = u[..., :, None] * v[..., None, :]
    assert np.array_equal(jets.outer(u, v), expect)
    o = jets.outer(ju, jv)
    assert np.array_equal(o.val, expect)
    g = np.einsum("...ik,...j->...ijk", ju.g, v) + np.einsum("...i,...jk->...ijk", u, jv.g)
    cross = np.einsum("...ia,...jb->...ijab", ju.g, jv.g)
    h = (np.einsum("...iab,...j->...ijab", ju.h, v) + np.einsum("...i,...jab->...ijab", u, jv.h)
         + cross + np.swapaxes(cross, -1, -2))
    assert np.allclose(o.g, g, rtol=1e-14, atol=0) and np.allclose(o.h, h, rtol=1e-14, atol=1e-15)
    # a plain operand on either side keeps the jet's derivatives
    assert np.array_equal(jets.outer(u, jv).g, jets.outer(jets.lift(u, jv), jv).g)
    assert np.array_equal(jets.outer(ju, v).val, expect)

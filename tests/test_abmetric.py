"""F assembly, fundamental tensor, spray formula, navigation conversions."""

import numpy as np
import pytest

from finslerlab.abmetric import (
    ABMetric,
    F_eval,
    NavigationData,
    assemble,
    fundamental_tensor,
    navigation_to_randers,
    qtp,
    randers_from_navigation,
    randers_to_navigation,
    spray_ab,
)
from finslerlab.errors import DomainError, RegularityError
from finslerlab.geometry import (
    MetricField,
    OneFormField,
    constant_oneform,
    covariant_derivative,
    euclidean_metric,
    spray_riemann,
)
from finslerlab.models import berwald_metric, funk_metric, space_form_metric, riemannian_ab
from finslerlab.phifuncs import SigmaSeriesPhi, phi_berwald, phi_randers, phi_riemannian

from oracles import random_oneform, random_spd_metric, spray_defn


def test_F_funk_values():
    funk = funk_metric(3)
    assert np.isclose(F_eval(funk, np.zeros(3), np.array([0.3, 0.4, 0.0])), 0.5)
    assert np.isclose(F_eval(funk, np.array([0.5, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])), 2.0 / 3.0)


def test_F_berwald_at_origin():
    bw = berwald_metric(3)
    y = np.array([1.0, 2.0, -2.0])
    assert np.isclose(F_eval(bw, np.zeros(3), y), 3.0)


def test_F_positive_homogeneity():
    funk = funk_metric(3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, 3)
        y = rng.standard_normal(3)
        lam = rng.uniform(0.1, 5.0)
        f1 = F_eval(funk, x, lam * y)
        f0 = F_eval(funk, x, y)
        assert abs(f1 - lam * f0) < 1e-12 * max(1.0, f1)


def test_F_rejects_zero_vector_and_outside_point():
    funk = funk_metric(3)
    with pytest.raises(DomainError):
        F_eval(funk, np.zeros(3), np.zeros(3))
    with pytest.raises(DomainError):
        F_eval(funk, np.array([1.1, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_fundamental_tensor_riemannian_is_metric():
    sf = riemannian_ab(space_form_metric(1.0, 3))
    x = np.array([0.2, -0.1, 0.3])
    g, pd = fundamental_tensor(sf, x, np.array([0.5, 1.0, -0.2]))
    assert pd
    assert np.max(np.abs(g - sf.alpha.matrix(x))) < 1e-14


def test_fundamental_tensor_funk_vs_fd_hessian():
    funk = funk_metric(3)
    x = np.array([0.3, 0.0, 0.0])
    y = np.array([0.5, 0.7, 0.0])
    g, pd = fundamental_tensor(funk, x, y)
    assert pd
    h = 1e-5
    gfd = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            ei, ej = np.zeros(3), np.zeros(3)
            ei[i], ej[j] = h, h

            def e(yy):
                return 0.5 * F_eval(funk, x, yy) ** 2

            gfd[i, j] = (e(y + ei + ej) - e(y + ei - ej) - e(y - ei + ej) + e(y - ei - ej)) / (4 * h * h)
    assert np.max(np.abs(g - gfd)) < 1e-5


def test_strong_convexity_of_models():
    rng = np.random.default_rng(2)
    for m in (funk_metric(3), berwald_metric(3)):
        xs = rng.uniform(-0.45, 0.45, (100, 3))
        ys = rng.standard_normal((100, 3))
        g, pd = fundamental_tensor(m, xs, ys)
        assert pd
        assert np.min(np.linalg.eigvalsh(g)) > 0.0
    _, pd = fundamental_tensor(berwald_metric(3), np.array([0.5, 0.0, 0.0]),
                               np.array([0.3, -1.0, 0.4]))
    assert pd


def test_qtp_closed_forms():
    s, b2 = 0.3, 0.25
    q, th, ps = qtp(phi_randers(), s, b2)
    assert np.isclose(q, 1.0) and np.isclose(th, 1.0 / (2.0 * (1.0 + s))) and ps == 0.0
    q, th, ps = qtp(phi_riemannian(), s, b2)
    assert q == 0.0 and th == 0.0 and ps == 0.0
    # quadratic phi at s=0: Q = phi'(0)/phi(0) = 2; dual-path check of Theta
    q, th, ps = qtp(phi_berwald(), 0.0, 0.25)
    assert np.isclose(q, 2.0)
    ph, dph, ddph = 1.0, 2.0, 2.0
    w = ph - 0.0 * dph
    den = w + (0.25 - 0.0) * ddph
    th_direct = (w * dph - 0.0 * ph * ddph) / (2 * ph * den)
    ps_direct = ddph / (2 * den)
    assert abs(th - th_direct) < 1e-12 and abs(ps - ps_direct) < 1e-12


def test_spray_riemannian_phi_reduces_to_alpha():
    a = space_form_metric(-0.5, 3)
    m = riemannian_ab(a)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, 3)
        y = rng.standard_normal(3)
        assert np.max(np.abs(spray_ab(m, x, y) - spray_riemann(a, x, y))) < 1e-12


def test_spray_parallel_beta_reduces_to_alpha():
    # parallel 1-form on a flat metric: G = G_alpha for every phi
    a = euclidean_metric(3)
    b = constant_oneform([0.2, 0.1, -0.1])
    rng = np.random.default_rng(4)
    for phi in (phi_randers(), phi_berwald(), SigmaSeriesPhi(2.0, 0.4)):
        m = ABMetric(a, b, phi)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 3)
            y = rng.standard_normal(3)
            assert np.max(np.abs(spray_ab(m, x, y))) < 1e-14


def test_spray_funk_proportional_to_y():
    funk = funk_metric(3)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-0.45, 0.45, (50, 3))
    ys = rng.standard_normal((50, 3))
    g = spray_ab(funk, xs, ys)
    cross = np.cross(g, ys)
    assert np.max(np.abs(cross)) < 1e-8


def test_spray_matches_definition_on_generic_metric():
    # a generic non-flat, non-closed pair pins every sign convention in the
    # structured spray formula against the defining variational expression
    rng = np.random.default_rng(6)
    a = random_spd_metric(rng, 3)
    b = random_oneform(rng, 3, scale=0.08)
    m = ABMetric(a, b, phi_berwald())
    xs = rng.uniform(-0.4, 0.4, (6, 3))
    ys = rng.standard_normal((6, 3))
    assert np.max(np.abs(spray_ab(m, xs, ys) - spray_defn(m, xs, ys))) < 1e-10


def test_spray_quadratic_homogeneity_and_closed_span():
    bw = berwald_metric(3)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, 3)
        y = rng.standard_normal(3)
        lam = rng.uniform(0.2, 3.0)
        assert np.max(np.abs(spray_ab(bw, x, lam * y) - lam**2 * spray_ab(bw, x, y))) < 1e-10
        # closed beta: G - G_alpha lies in span{y, b^i}
        cov = covariant_derivative(bw.beta, bw.alpha, x)
        diff = spray_ab(bw, x, y) - spray_riemann(bw.alpha, x, y)
        basis = np.stack([y, cov.b_up])
        coef, *_ = np.linalg.lstsq(basis.T, diff, rcond=None)
        assert np.linalg.norm(diff - basis.T @ coef) < 1e-10


def test_navigation_funk_data():
    funk = funk_metric(3)
    nav = NavigationData(euclidean_metric(3), lambda x: x)
    x = np.array([0.3, -0.2, 0.1])
    aij, bi = navigation_to_randers(nav, x)
    assert np.max(np.abs(aij - funk.alpha.matrix(x))) < 1e-14
    assert np.max(np.abs(bi - funk.beta.covector(x))) < 1e-14
    hij, wup = randers_to_navigation(funk.alpha, funk.beta, x)
    assert np.max(np.abs(hij - np.eye(3))) < 1e-13
    assert np.max(np.abs(wup - x)) < 1e-13


def test_navigation_zero_wind():
    h = space_form_metric(0.5, 3)
    nav = NavigationData(h, lambda x: 0.0 * x)
    x = np.array([0.2, 0.2, -0.1])
    aij, bi = navigation_to_randers(nav, x)
    assert np.max(np.abs(aij - h.matrix(x))) < 1e-15
    assert np.max(np.abs(bi)) == 0.0


def test_navigation_round_trip_random():
    rng = np.random.default_rng(8)
    mmat = np.eye(3) + 0.2 * (lambda r: 0.5 * (r + r.T))(rng.standard_normal((3, 3)))

    def hmat(x):
        return (1.0 + 0.1 * x[..., 0])[..., None, None] * mmat

    def w(x):
        return 0.4 * x + np.array([0.1, -0.05, 0.2]) * (1.0 + 0.0 * x[..., 0])[..., None]

    nav = NavigationData(MetricField(3, hmat), w)
    xs = rng.uniform(-0.4, 0.4, (20, 3))
    alpha = MetricField(3, lambda x: navigation_to_randers(nav, x)[0])
    beta = OneFormField(3, lambda x: navigation_to_randers(nav, x)[1])
    h2, w2 = randers_to_navigation(alpha, beta, xs)
    assert np.max(np.abs(h2 - hmat(xs))) < 1e-12
    assert np.max(np.abs(w2 - w(xs))) < 1e-12
    fr = randers_from_navigation(nav)
    assert np.max(np.abs(fr.alpha.matrix(xs) - alpha.matrix(xs))) < 1e-14
    # closing the loop on the (alpha, beta) side as well
    nav2 = NavigationData(MetricField(3, lambda x: randers_to_navigation(alpha, beta, x)[0]),
                          lambda x: randers_to_navigation(alpha, beta, x)[1])
    a3, b3 = navigation_to_randers(nav2, xs)
    assert np.max(np.abs(a3 - alpha.matrix(xs))) < 1e-12
    assert np.max(np.abs(b3 - beta.covector(xs))) < 1e-12


def test_navigation_rejects_fast_wind():
    nav = NavigationData(euclidean_metric(3), lambda x: 0.0 * x + np.array([1.2, 0.0, 0.0]))
    with pytest.raises(DomainError):
        navigation_to_randers(nav, np.zeros(3))


def test_navigation_field_rejects_fast_wind():
    # |W| = 1.5: the Randers alpha would be indefinite at x = 0, so no field value is returned
    fr = randers_from_navigation(NavigationData(euclidean_metric(2), lambda x: [1.5, 0.0]))
    with pytest.raises(DomainError):
        fr.alpha.matrix(np.zeros(2))
    with pytest.raises(DomainError):
        fr.beta.covector(np.zeros((4, 2)))


def test_assemble_regularity_gate():
    # (1+s)^2 fails the convexity inequality once b can reach past 1; force
    # that with a 1-form whose norm exceeds 1 on the domain
    a = euclidean_metric(3)
    b = constant_oneform([1.4, 0.0, 0.0])
    with pytest.raises(RegularityError):
        assemble(a, b, phi_berwald())
    ok = assemble(a, constant_oneform([0.4, 0.0, 0.0]), phi_berwald())
    assert ok.phi.name == "berwald"

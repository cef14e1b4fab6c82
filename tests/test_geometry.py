"""Riemannian primitives against hand values and finite-difference oracles."""

import numpy as np
import pytest

from finslerlab import jets
from finslerlab.errors import DomainError, SingularMetricError
from finslerlab.geometry import (
    MetricField,
    OneFormField,
    christoffel,
    constant_oneform,
    covariant_derivative,
    euclidean_metric,
    norm_b,
    pair_fields,
    spray_riemann,
)
from finslerlab.models import funk_metric, space_form_metric

from oracles import (
    fd_christoffel,
    fd_covariant_derivative,
    fd_spray_euler_lagrange,
    random_oneform,
    random_spd_metric,
)


def test_christoffel_euclidean_vanishes():
    a = euclidean_metric(3)
    assert np.max(np.abs(christoffel(a, np.array([0.4, -0.2, 0.1])))) == 0.0


def test_christoffel_space_form_at_origin():
    # expanding a_ij(x) about 0 gives first derivatives 0 at x=0
    a = space_form_metric(1.0, 3)
    assert np.max(np.abs(christoffel(a, np.zeros(3)))) < 1e-14


def test_christoffel_space_form_vs_fd():
    a = space_form_metric(1.0, 3)
    x = np.array([0.2, 0.0, 0.0])
    assert np.max(np.abs(christoffel(a, x) - fd_christoffel(a, x))) < 1e-6


def test_christoffel_symmetric_lower_indices():
    rng = np.random.default_rng(2)
    a = random_spd_metric(rng, 3)
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 3)
        gam = christoffel(a, x)
        assert np.max(np.abs(gam - np.swapaxes(gam, -1, -2))) < 1e-13


def test_spray_euclidean_zero():
    a = euclidean_metric(4)
    g = spray_riemann(a, np.array([0.3, 0.1, -0.2, 0.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.max(np.abs(g)) == 0.0


def test_spray_space_form_parallel_to_y():
    # projective coordinates: all geodesics are straight lines
    for mu in (1.0, -1.0):
        a = space_form_metric(mu, 3)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-0.45, 0.45, 3)
            y = rng.standard_normal(3)
            g = spray_riemann(a, x, y)
            assert np.linalg.norm(np.cross(g, y)) < 1e-8


def test_spray_matches_euler_lagrange_oracle():
    rng = np.random.default_rng(7)
    a = random_spd_metric(rng, 3)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 3)
        y = rng.standard_normal(3)
        assert np.max(np.abs(spray_riemann(a, x, y) - fd_spray_euler_lagrange(a, x, y))) < 1e-6


def test_spray_quadratic_homogeneity():
    rng = np.random.default_rng(8)
    a = random_spd_metric(rng, 3)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, 3)
        y = rng.standard_normal(3)
        lam = rng.uniform(0.1, 3.0)
        g1 = spray_riemann(a, x, lam * y)
        g0 = spray_riemann(a, x, y)
        assert np.max(np.abs(g1 - lam * lam * g0)) < 1e-10 * max(1.0, np.max(np.abs(g1)))


def test_covariant_derivative_parallel_form():
    a = euclidean_metric(3)
    b = constant_oneform([0.2, -0.1, 0.4])
    cd = covariant_derivative(b, a, np.array([0.3, 0.3, -0.3]))
    assert np.max(np.abs(cd.bij)) == 0.0
    assert np.max(np.abs(cd.r_i)) == 0.0 and abs(cd.r) == 0.0


def test_covariant_derivative_radial_form():
    lam = 0.37
    a = euclidean_metric(3)
    b = OneFormField(3, lambda x: lam * x)
    cd = covariant_derivative(b, a, np.array([0.2, -0.1, 0.5]))
    assert np.max(np.abs(cd.bij - lam * np.eye(3))) < 1e-14
    assert np.max(np.abs(cd.sij)) < 1e-15
    assert np.max(np.abs(cd.rij - lam * np.eye(3))) < 1e-14


def test_covariant_derivative_nonclosed_witness():
    # b_2 = x^1 on Euclidean space: s_ij = (b_{i|j} - b_{j|i})/2 gives
    # s_{21} = +1/2 and s_{12} = -1/2
    a = euclidean_metric(3)
    b = OneFormField(3, lambda x: x[..., 0, None] * np.array([0.0, 1.0, 0.0]))
    cd = covariant_derivative(b, a, np.array([0.4, 0.2, 0.0]))
    assert np.isclose(cd.sij[1, 0], 0.5)
    assert np.isclose(cd.sij[0, 1], -0.5)


def test_rs_decomposition_properties():
    rng = np.random.default_rng(9)
    a = random_spd_metric(rng, 3)
    b = random_oneform(rng, 3)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 3)
        cd = covariant_derivative(b, a, x)
        assert np.max(np.abs(cd.rij + cd.sij - cd.bij)) < 1e-15
        assert np.max(np.abs(cd.rij - cd.rij.T)) == 0.0
        assert np.max(np.abs(cd.sij + cd.sij.T)) == 0.0


def test_closedness_iff_sij_zero():
    a = euclidean_metric(3)
    # closed: b = d(0.5*lam*|x|^2 + <c, x>)
    closed = OneFormField(3, lambda x: 0.3 * x + np.array([0.1, 0.0, -0.2]))
    nonclosed = OneFormField(3, lambda x: x[..., 0, None] * np.array([0.0, 1.0, 0.0]))
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 3)
        assert np.max(np.abs(covariant_derivative(closed, a, x).sij)) < 1e-14
    assert np.max(np.abs(covariant_derivative(nonclosed, a, np.array([0.1, 0.2, 0.3])).sij)) > 0.4


def test_norm_b_examples():
    n = 3
    a = euclidean_metric(n)
    x = np.array([0.25, -0.3, 0.1])
    assert norm_b(a, constant_oneform(np.zeros(n)), x) == 0.0
    assert np.isclose(norm_b(a, constant_oneform([0.3, 0.4, 0.0]), x), 0.5)
    funk = funk_metric(n)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-0.5, 0.5, (20, n))
    assert np.max(np.abs(norm_b(funk.alpha, funk.beta, xs) - np.linalg.norm(xs, axis=-1))) < 1e-12


def test_covariant_derivative_vs_fd_oracle():
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = random_spd_metric(rng, 3)
        b = random_oneform(rng, 3)
        x = rng.uniform(-0.5, 0.5, 3)
        cd = covariant_derivative(b, a, x)
        assert np.max(np.abs(cd.bij - fd_covariant_derivative(b, a, x))) < 1e-6


def test_domain_guard():
    funk = funk_metric(3)
    with pytest.raises(DomainError):
        christoffel(funk.alpha, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        norm_b(funk.alpha, funk.beta, np.array([0.8, 0.8, 0.0]))
    with pytest.raises(DomainError):
        christoffel(funk.alpha, np.array([np.nan, 0.0, 0.0]))


def test_singular_metric_rejected():
    a = MetricField(2, lambda x: (x[..., 0] * 0.0)[..., None, None] * np.eye(2)
                    + np.diag([1.0, 1e-14]))
    with pytest.raises(SingularMetricError):
        christoffel(a, np.array([0.1, 0.1]))


def test_pair_fields_evaluates_the_pair_once_per_call(monkeypatch):
    funk = funk_metric(3)
    calls = {"a": 0, "b": 0, "solve": 0}

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(jets, "solve", counted("solve", jets.solve))
    a = MetricField(3, counted("a", funk.alpha.matrix), domain_radius=1.0, name="a")
    b = OneFormField(3, counted("b", funk.beta.covector), name="b")
    alpha, beta = pair_fields(a, b, lambda av, bv, t: jets.e2(t) * av,
                              lambda bv, t: jets.col(t) * bv, "sq")
    assert (alpha.name, beta.name, alpha.domain_radius) == ("sq(a)", "sq(b)", 1.0)
    xs = np.random.default_rng(4).uniform(-0.4, 0.4, (5, 3))
    t = norm_b(funk.alpha, funk.beta, xs) ** 2
    for field, x in ((alpha.matrix, xs), (beta.covector, xs), (alpha.matrix, jets.seed(xs, 2))):
        for key in calls:
            calls[key] = 0
        field(x)
        assert calls == {"a": 1, "b": 1, "solve": 1}
    assert np.allclose(alpha.matrix(xs), t[:, None, None] * funk.alpha.matrix(xs), rtol=1e-13)
    assert np.allclose(beta.covector(xs), t[:, None] * funk.beta.covector(xs), rtol=1e-13)


def test_pair_fields_passes_a_none_side_through():
    funk = funk_metric(3)
    alpha, beta = pair_fields(funk.alpha, funk.beta, None, lambda bv, t: bv, "b-only")
    assert alpha is funk.alpha and beta is not funk.beta
    alpha, beta = pair_fields(funk.alpha, funk.beta, lambda av, bv, t: av, None, "a-only")
    assert beta is funk.beta and alpha is not funk.alpha

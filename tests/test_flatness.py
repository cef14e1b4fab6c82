"""Hamel/Rapcsak residuals, projective factor, geodesics, structure equations."""

import numpy as np
import pytest

from finslerlab.abmetric import ABMetric
from finslerlab.errors import DomainError
from finslerlab.flatness import (
    _mixed_partials,
    hamel_residual,
    integrate_geodesic,
    integrate_geodesics,
    projective_factor,
    rapcsak_residual,
    sample_ball,
    sample_sphere,
    spray_proportionality_residual,
    straightness_deviation,
    structure_residual,
    verify_flatness,
)
from finslerlab.geometry import MetricField, OneFormField, constant_oneform, euclidean_metric
from finslerlab.models import (
    MODEL_NAMES,
    berwald_metric,
    build_model,
    funk_metric,
    riemannian_ab,
    space_form_metric,
)
from finslerlab.phifuncs import OdeParams, phi_randers
from oracles import second_order_partials


def minkowski_metric(n=3):
    return riemannian_ab(euclidean_metric(n), name="minkowski")


def nonflat_witness():
    # Euclidean alpha with the non-closed 1-form b_2 = x^1
    a = euclidean_metric(3)
    b = OneFormField(3, lambda x: x[..., 0, None] * np.array([0.0, 1.0, 0.0]))
    return ABMetric(a, b, phi_randers(), name="witness")


def perturbed_funk():
    funk = funk_metric(3)

    def mat(x):
        return funk.alpha.matrix(x) * (1.0 + 0.1 * x[..., 0])[..., None, None]

    return ABMetric(MetricField(3, mat, domain_radius=1.0), funk.beta, phi_randers())


ORACLE_CASES = [pytest.param(lambda name=name: build_model(name, 3), id=name)
                for name in MODEL_NAMES] + [
    pytest.param(lambda: build_model("example63-plus", 4), id="example63-plus-d4"),
    pytest.param(nonflat_witness, id="witness"),
    pytest.param(perturbed_funk, id="perturbed-funk"),
]


@pytest.mark.parametrize("make", ORACLE_CASES)
def test_mixed_partials_match_order2_oracle(make):
    # the closed-form F_y on order-1 x-jets against the full (2n)^2 Hessian
    m = make()
    rng = np.random.default_rng(7)
    radius = m.domain_radius if np.isfinite(m.domain_radius) else 1.0
    xs = sample_ball(rng, m.dim, 200, 0.8 * radius)
    ys = sample_sphere(rng, m.dim, 200)
    for got, want in zip(_mixed_partials(m, xs, ys), second_order_partials(m, xs, ys)):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_mixed_partials_guard_domain_and_zero_vector():
    funk = funk_metric(3)
    with pytest.raises(DomainError):
        _mixed_partials(funk, np.array([1.1, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        _mixed_partials(funk, np.zeros(3), np.zeros(3))


def test_hamel_funk_point():
    funk = funk_metric(3)
    r = hamel_residual(funk, np.array([0.3, 0.0, 0.0]), np.array([0.5, 0.7, 0.0]))
    assert r < 1e-8


def test_hamel_minkowski_exact_zero():
    r = hamel_residual(minkowski_metric(), np.array([0.2, 0.1, -0.3]), np.array([1.0, 2.0, 0.5]))
    assert r == 0.0


def test_hamel_nonflat_witness():
    r = hamel_residual(nonflat_witness(), np.array([0.5, 0.2, 0.0]), np.array([1.0, 1.0, 0.0]))
    assert r > 1e-3


def test_rapcsak_mirrors_hamel():
    funk = funk_metric(3)
    x, y = np.array([0.3, 0.0, 0.0]), np.array([0.5, 0.7, 0.0])
    assert rapcsak_residual(funk, x, y) < 1e-8
    assert rapcsak_residual(minkowski_metric(), x, y) == 0.0
    assert rapcsak_residual(nonflat_witness(), np.array([0.5, 0.2, 0.0]),
                            np.array([1.0, 1.0, 0.0])) > 1e-3


def test_hamel_rapcsak_agree_in_verdict():
    # the two equation systems certify the same property: they pass together
    # on flat metrics and fail together on the witness
    rng = np.random.default_rng(1)
    for m in (funk_metric(3), berwald_metric(3)):
        xs = sample_ball(rng, 3, 25, 0.6)
        ys = sample_sphere(rng, 3, 25)
        assert np.max(hamel_residual(m, xs, ys)) < 1e-6
        assert np.max(rapcsak_residual(m, xs, ys)) < 1e-6
    w = nonflat_witness()
    xs = sample_ball(rng, 3, 25, 0.6)
    ys = sample_sphere(rng, 3, 25)
    assert np.max(hamel_residual(w, xs, ys)) > 1e-3
    assert np.max(rapcsak_residual(w, xs, ys)) > 1e-3


def test_projective_factor_minkowski():
    m = minkowski_metric()
    x, y = np.array([0.1, 0.1, 0.1]), np.array([1.0, -1.0, 0.5])
    assert projective_factor(m, x, y) == 0.0
    assert spray_proportionality_residual(m, x, y) == 0.0


def test_projective_factor_funk_sweep():
    funk = funk_metric(3)
    rng = np.random.default_rng(2)
    xs = sample_ball(rng, 3, 50, 0.64)
    ys = sample_sphere(rng, 3, 50)
    assert np.max(spray_proportionality_residual(funk, xs, ys)) < 1e-8


def test_projective_factor_witness():
    r = spray_proportionality_residual(nonflat_witness(), np.array([0.5, 0.2, 0.0]),
                                       np.array([1.0, 1.0, 0.0]))
    assert r > 1e-4


def test_hamel_implies_spray_proportionality():
    rng = np.random.default_rng(3)
    for m in (funk_metric(3), berwald_metric(3)):
        xs = sample_ball(rng, 3, 20, 0.6)
        ys = sample_sphere(rng, 3, 20)
        h = np.max(hamel_residual(m, xs, ys))
        dev = np.max(spray_proportionality_residual(m, xs, ys))
        assert h < 1e-6
        assert dev < 10 * max(h, 1e-9)


def test_integrate_euclidean_is_exact_line():
    m = minkowski_metric()
    tr = integrate_geodesic(m, np.array([0.1, 0.0, 0.0]), np.array([0.5, 0.5, 0.0]),
                            stop_radius=0.9, step=1e-2)
    assert straightness_deviation(tr) < 1e-14
    assert tr.left_domain


def test_integrate_funk_straightness():
    funk = funk_metric(3)
    rng = np.random.default_rng(4)
    xs = sample_ball(rng, 3, 20, 0.4)
    ys = sample_sphere(rng, 3, 20)
    traces = integrate_geodesics(funk, xs, ys, 0.9, 1e-3, max_steps=600)
    assert max(straightness_deviation(t) for t in traces) < 1e-6


def test_integrate_riemannian_energy_first_integral():
    sf = space_form_metric(1.0, 3, working_radius=5.0)
    tr = integrate_geodesic(sf, np.array([0.1, 0.2, 0.0]), np.array([1.0, -0.5, 0.3]),
                            stop_radius=4.0, step=1e-3, max_steps=800)
    a = sf.matrix(tr.points)
    speed = np.sqrt(np.einsum("tij,ti,tj->t", a, tr.velocities, tr.velocities))
    assert np.max(np.abs(speed - speed[0])) < 1e-6


def test_straightness_perturbed_witness():
    tr = integrate_geodesic(perturbed_funk(), np.array([0.1, 0.2, 0.0]),
                            np.array([1.0, -0.5, 0.3]), 0.9, 1e-3, max_steps=600)
    assert straightness_deviation(tr) > 1e-3


def test_rk4_order_by_step_halving():
    m = perturbed_funk()
    x0, y0 = np.array([0.1, 0.2, 0.0]), np.array([1.0, -0.5, 0.3])

    def endpoint(step, t_final=0.4):
        tr = integrate_geodesic(m, x0, y0, 10.0, step, max_steps=int(round(t_final / step)))
        return tr.points[-1]

    ref = endpoint(2.5e-4)
    e1 = np.linalg.norm(endpoint(4e-3) - ref)
    e2 = np.linalg.norm(endpoint(2e-3) - ref)
    assert 8.0 < e1 / e2 < 32.0


def test_frozen_lanes_do_not_trip_the_domain_guard():
    # lanes that start near the stop radius freeze within a few steps; their
    # RK4 stage points used to leave the unit ball and fail the whole batch
    bw = berwald_metric(3)
    frozen = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xs = sample_ball(rng, 3, 10, 0.88)
        ys = sample_sphere(rng, 3, 10)
        traces = integrate_geodesics(bw, xs, ys, 0.9, 1e-3, max_steps=150)
        assert len(traces) == 10
        assert all(np.linalg.norm(t.points[-1]) < 1.0 for t in traces)
        frozen += sum(t.left_domain for t in traces)
    assert frozen > 0


def test_integrate_rejects_bad_input():
    with pytest.raises(DomainError):
        integrate_geodesic(minkowski_metric(), np.zeros(3), np.zeros(3), 0.9, 1e-2)
    with pytest.raises(ValueError):
        integrate_geodesic(minkowski_metric(), np.zeros(3), np.ones(3), 0.9, -1e-2)


def test_structure_residual_berwald():
    bw = berwald_metric(3)
    rng = np.random.default_rng(5)
    xs = sample_ball(rng, 3, 50, 0.64)
    rb, rg = structure_residual(bw.alpha, bw.beta, OdeParams(2, 0, -3), xs)
    assert np.max(rb) < 1e-7 and np.max(rg) < 1e-7


def test_structure_residual_parallel_form():
    a = euclidean_metric(3)
    b = constant_oneform([0.3, 0.0, 0.1])
    rb, rg = structure_residual(a, b, OdeParams(1.0, 0.0, 0.0), np.array([0.2, 0.1, 0.0]))
    assert rb < 1e-15 and rg < 1e-15


def test_structure_residual_constructed_pair():
    from finslerlab.deform import inverse_chain
    from finslerlab.models import closed_conformal_form

    k = OdeParams(0.5, 0.6, -0.1)
    abar = space_form_metric(0.0, 3)
    bbar = closed_conformal_form(0.0, 0.3, np.array([0.1, 0.0, 0.0]), 3)
    alpha, beta = inverse_chain(abar, bbar, k)
    rng = np.random.default_rng(6)
    xs = sample_ball(rng, 3, 20, 0.5)
    rb, rg = structure_residual(alpha, beta, k, xs)
    assert np.max(rb) < 1e-7 and np.max(rg) < 1e-7


def test_verify_flatness_report():
    rep = verify_flatness(funk_metric(3), samples=40, seed=0, tolerance=1e-6)
    assert rep.passed and rep.samples == 40
    rep_bad = verify_flatness(nonflat_witness(), samples=40, seed=0, tolerance=1e-6)
    assert not rep_bad.passed

"""beta-deformations: stage fidelity, standard factors, chains, round trips."""

import math

import numpy as np
import pytest

from finslerlab.deform import (
    ONE_FACTOR,
    ZERO_FACTOR,
    ScalarFactor,
    berwald_chain,
    chain_pair,
    deform_conformal,
    deform_rescale,
    deform_stretch,
    eta_factor,
    forward_chain,
    inverse_chain,
    kappa_riccati_residual,
    predicted_after_conformal,
    predicted_after_rescale,
    predicted_after_stretch,
    standard_factors,
)
from finslerlab.errors import PositivityError
from finslerlab.geometry import (
    constant_oneform,
    covariant_derivative,
    euclidean_metric,
    norm_b,
    spray_riemann,
)
from finslerlab.models import berwald_metric, closed_conformal_form, space_form_metric
from finslerlab.phifuncs import OdeParams

from oracles import conformality_residual, quad_eta, random_oneform, random_spd_metric


def random_factor_triple(rng):
    kap = ScalarFactor(lambda t, c=rng.uniform(-0.5, 0.5): c + 0.2 * t)
    rho = ScalarFactor(lambda t, c=rng.uniform(-0.4, 0.4): c * t)
    nu = ScalarFactor(lambda t, c=rng.uniform(0.1, 0.3): 1.0 + c * t)
    return kap, rho, nu


def test_zero_factors_are_identities():
    rng = np.random.default_rng(1)
    a = random_spd_metric(rng, 3)
    b = random_oneform(rng, 3)
    xs = rng.uniform(-0.4, 0.4, (8, 3))
    at, bt = deform_stretch(a, b, ZERO_FACTOR)
    assert np.max(np.abs(at.matrix(xs) - a.matrix(xs))) == 0.0
    ac, _ = deform_conformal(a, b, ZERO_FACTOR)
    assert np.max(np.abs(ac.matrix(xs) - a.matrix(xs))) == 0.0
    _, br = deform_rescale(a, b, ONE_FACTOR)
    assert np.max(np.abs(br.covector(xs) - b.covector(xs))) == 0.0


def test_unit_stretch_subtracts_bb():
    # kappa = 1 gives a~ = a - b (x) b, the stretch used by the quadratic chain
    bw = berwald_metric(3)
    at, _ = deform_stretch(bw.alpha, bw.beta, ScalarFactor.constant(1.0))
    x = np.array([0.3, -0.2, 0.1])
    a0 = bw.alpha.matrix(x)
    b0 = bw.beta.covector(x)
    assert np.max(np.abs(at.matrix(x) - (a0 - np.outer(b0, b0)))) < 1e-15


@pytest.mark.parametrize("stage", ["stretch", "conformal", "rescale"])
def test_stage_fidelity_on_random_inputs(stage):
    rng = np.random.default_rng({"stretch": 11, "conformal": 12, "rescale": 13}[stage])
    for _ in range(30):
        a = random_spd_metric(rng, 3)
        b = random_oneform(rng, 3)
        kap, rho, nu = random_factor_triple(rng)
        x = rng.uniform(-0.3, 0.3, 3)
        y = rng.standard_normal(3)
        if stage == "stretch":
            ad, bd = chain_pair(a, b, kap, ZERO_FACTOR, ONE_FACTOR)
            gp, bp = predicted_after_stretch(a, b, kap, x, y)
        elif stage == "conformal":
            ad, bd = chain_pair(a, b, kap, rho, ONE_FACTOR)
            gp, bp = predicted_after_conformal(a, b, kap, rho, x, y)
        else:
            ad, bd = chain_pair(a, b, kap, rho, nu)
            gp, bp = predicted_after_rescale(a, b, kap, rho, nu, x, y)
        gd = spray_riemann(ad, x, y)
        bdij = covariant_derivative(bd, ad, x).bij
        assert np.max(np.abs(gp - gd)) < 1e-7
        assert np.max(np.abs(bp - bdij)) < 1e-7


def test_conformal_step_flattens_quadratic_data():
    # with rho'(1-b^2) = -1 the conformally scaled spray is proportional to y
    from finslerlab import jets

    bw = berwald_metric(3)
    rho = ScalarFactor(lambda t: jets.log(1.0 - t))
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, 3)
        y = rng.standard_normal(3)
        g, _ = predicted_after_conformal(bw.alpha, bw.beta, ZERO_FACTOR, rho, x, y)
        assert np.linalg.norm(np.cross(g, y)) < 1e-10 * max(1.0, np.linalg.norm(g))


def test_standard_factors_quadratic_parameters():
    ch = standard_factors(OdeParams(2, 0, -3))
    t = 0.3
    assert np.isclose(ch.kappa(t), 1.0)
    assert np.isclose(np.exp(ch.rho(t)), (1 - t) ** 1.5)
    assert np.isclose(ch.nu(t), (1 - t) ** 2)


def test_one_covariant_pass_per_stage_prediction(monkeypatch):
    # every stage reuses one covariant_derivative; the spray of alpha adds the
    # only other christoffel call
    from finslerlab import deform, flatness, geometry

    calls = {"covariant_derivative": 0, "christoffel": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    cov, gam = counted(geometry.covariant_derivative), counted(geometry.christoffel)
    for mod in (deform, flatness):
        monkeypatch.setattr(mod, "covariant_derivative", cov)
    for mod in (geometry, flatness):  # flatness binds christoffel only once it calls it directly
        monkeypatch.setattr(mod, "christoffel", gam, raising=False)

    bw = berwald_metric(3)
    k = OdeParams(2, 0, -3)
    ch = standard_factors(k)
    x = np.array([[0.2, -0.1, 0.3], [0.0, 0.25, -0.2]])
    y = np.array([[1.0, 0.5, -0.3], [0.2, -1.0, 0.4]])
    for run in (lambda: predicted_after_stretch(bw.alpha, bw.beta, ch.kappa, x, y),
                lambda: predicted_after_conformal(bw.alpha, bw.beta, ch.kappa, ch.rho, x, y),
                lambda: predicted_after_rescale(bw.alpha, bw.beta, ch.kappa, ch.rho, ch.nu, x, y)):
        calls.update(covariant_derivative=0, christoffel=0)
        run()
        assert calls == {"covariant_derivative": 1, "christoffel": 2}
    calls.update(covariant_derivative=0, christoffel=0)
    flatness.structure_residual(bw.alpha, bw.beta, k, x)
    assert calls == {"covariant_derivative": 1, "christoffel": 2}


def test_kappa_riccati_residual_random():
    rng = np.random.default_rng(15)
    for _ in range(100):
        k = OdeParams(*rng.uniform(-2, 2, 3))
        t = rng.uniform(0.0, 0.5)
        assert abs(kappa_riccati_residual(k, t)) < 1e-12


def test_eta_factor_cases():
    assert np.isclose(eta_factor(OdeParams(2, 0, -2), 0.3), math.exp(0.3), rtol=1e-14)
    for k in (OdeParams(2, 0, -2), OdeParams(2, 0, -3), OdeParams(3, 1, 0),
              OdeParams(3, 4, 1), OdeParams(0, 1, 0)):
        assert eta_factor(k, 0.0) == 1.0
    rng = np.random.default_rng(16)
    draws = {
        1: lambda: (lambda k1: OdeParams(k1, 0.0, -k1))(rng.uniform(-2, 2)),
        2: lambda: OdeParams(rng.uniform(-1, 1), 0.0, rng.uniform(0.3, 1.5)),
        3: lambda: OdeParams(rng.uniform(0.8, 1.5), rng.uniform(0.05, 0.4), rng.uniform(0.8, 1.5)),
        4: lambda: (lambda s: OdeParams(s / 2 + 0.3, s * s / 4, s / 2 - 0.3))(rng.uniform(1.0, 2.5)),
        5: lambda: OdeParams(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3)),
    }
    for case, draw in draws.items():
        for _ in range(20):
            k = draw()
            t = rng.uniform(0.0, 0.45)
            assert abs(float(eta_factor(k, t)) - quad_eta(k, t)) < 1e-10, (case, k, t)


def test_forward_chain_berwald_data():
    # the quadratic-metric data deform to the Euclidean metric and -<x,y>
    bw = berwald_metric(3)
    k = OdeParams(2, 0, -3)
    ab, bb = forward_chain(bw.alpha, bw.beta, k)
    rng = np.random.default_rng(17)
    xs = rng.uniform(-0.45, 0.45, (20, 3))
    assert np.max(np.abs(ab.matrix(xs) - np.eye(3))) < 1e-13
    assert np.max(np.abs(bb.covector(xs) + xs)) < 1e-13
    # flat spray and closed conformal output
    for x in xs[:5]:
        y = rng.standard_normal(3)
        g = spray_riemann(ab, x, y)
        assert np.linalg.norm(np.cross(g, y)) < 1e-12
    s_res, c_res = conformality_residual(covariant_derivative(bb, ab, xs))
    assert s_res < 1e-12 and c_res < 1e-12


@pytest.mark.parametrize("k", [OdeParams(2, 0, -2), OdeParams(2, 0, -3), OdeParams(3, 1, 0),
                               OdeParams(3, 4, 1), OdeParams(0, 1, 0)])
def test_forward_chain_matches_closed_form_display(k):
    # abar = eta^-2 (a + (k1+k3+k2 b^2) b (x) b), bbar = eta^-1 sqrt(D) b; one k per eta case
    rng = np.random.default_rng(24)
    a = random_spd_metric(rng, 3)
    b = random_oneform(rng, 3)
    xs = rng.uniform(-0.4, 0.4, (20, 3))
    a0 = a.matrix(xs)
    b0 = b.covector(xs)
    t = np.einsum("...ij,...i,...j->...", np.linalg.inv(a0), b0, b0)
    s = k.k1 + k.k3
    d = 1.0 + s * t + k.k2 * t * t
    eta = eta_factor(k, t)
    expect_a = (a0 + (s + k.k2 * t)[..., None, None] * b0[..., :, None] * b0[..., None, :]) \
        / (eta * eta)[..., None, None]
    expect_b = (np.sqrt(d) / eta)[..., None] * b0
    ab, bb = forward_chain(a, b, k)
    assert np.max(np.abs(ab.matrix(xs) - expect_a)) < 1e-13
    assert np.max(np.abs(bb.covector(xs) - expect_b)) < 1e-13


def test_forward_chain_zero_form():
    a = space_form_metric(0.7, 3)
    b = constant_oneform(np.zeros(3))
    k = OdeParams(1.2, 0.3, -0.4)
    ab, bb = forward_chain(a, b, k)
    x = np.array([0.2, 0.1, -0.3])
    assert np.max(np.abs(ab.matrix(x) - a.matrix(x))) < 1e-14
    assert np.max(np.abs(bb.covector(x))) == 0.0


def test_chain_norm_preservation():
    rng = np.random.default_rng(18)
    a = random_spd_metric(rng, 3)
    b = random_oneform(rng, 3)
    k = OdeParams(0.8, 0.4, -0.3)
    ab, bb = forward_chain(a, b, k)
    xs = rng.uniform(-0.4, 0.4, (50, 3))
    assert np.max(np.abs(norm_b(ab, bb, xs) - norm_b(a, b, xs))) < 1e-10


def test_round_trips_random_quadruples():
    rng = np.random.default_rng(19)
    a = random_spd_metric(rng, 3)
    b = random_oneform(rng, 3)
    xs = rng.uniform(-0.4, 0.4, (20, 3))
    done = 0
    while done < 10:
        k = OdeParams(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8), rng.uniform(-1.5, 1.5))
        from finslerlab.phifuncs import positivity_radius

        if positivity_radius(k) < 0.8:
            continue
        done += 1
        ab, bb = forward_chain(a, b, k)
        a2, b2 = inverse_chain(ab, bb, k)
        assert np.max(np.abs(a2.matrix(xs) - a.matrix(xs))) < 1e-9
        assert np.max(np.abs(b2.covector(xs) - b.covector(xs))) < 1e-9
        a3, b3 = forward_chain(*inverse_chain(a, b, k), k)
        assert np.max(np.abs(a3.matrix(xs) - a.matrix(xs))) < 1e-9
        assert np.max(np.abs(b3.covector(xs) - b.covector(xs))) < 1e-9


def test_inverse_chain_zero_form_is_identity():
    a = space_form_metric(-0.4, 3)
    b = constant_oneform(np.zeros(3))
    k = OdeParams(0.9, 0.2, 0.1)
    ai, bi = inverse_chain(a, b, k)
    x = np.array([0.3, 0.0, -0.2])
    assert np.max(np.abs(ai.matrix(x) - a.matrix(x))) < 1e-14
    assert np.max(np.abs(bi.covector(x))) == 0.0


def test_inverse_chain_sigma_family_shape():
    # k = (2 sigma, 0, -2 sigma - 1): alpha = (1-T)^(-sigma-1) sqrt((1-T) abar^2 + bbar^2)
    sigma = 2.0
    k = OdeParams(2 * sigma, 0.0, -2 * sigma - 1)
    abar = euclidean_metric(3)
    bbar = closed_conformal_form(0.0, 0.4, None, 3)
    alpha, beta = inverse_chain(abar, bbar, k)
    rng = np.random.default_rng(20)
    xs = rng.uniform(-0.6, 0.6, (10, 3))
    a0 = abar.matrix(xs)
    b0 = bbar.covector(xs)
    big_t = np.einsum("...ij,...i,...j->...", np.linalg.inv(a0), b0, b0)
    lam = 1.0 - big_t
    expect = (lam[..., None, None] * a0 + b0[..., :, None] * b0[..., None, :]) \
        * lam[..., None, None] ** (-2 * sigma - 2)
    assert np.max(np.abs(alpha.matrix(xs) - expect)) < 1e-12
    expect_b = lam[..., None] ** (-sigma - 1) * b0
    assert np.max(np.abs(beta.covector(xs) - expect_b)) < 1e-12


def test_inverse_chain_shifted_quadratic_shape():
    # k = (3, 0, -2): alpha = (1+T) sqrt(abar^2 - bbar^2/(1+T)), beta = sqrt(1+T) bbar
    k = OdeParams(3.0, 0.0, -2.0)
    abar = euclidean_metric(3)
    bbar = closed_conformal_form(0.0, 0.5, None, 3)
    alpha, beta = inverse_chain(abar, bbar, k)
    rng = np.random.default_rng(21)
    xs = rng.uniform(-0.5, 0.5, (10, 3))
    a0 = abar.matrix(xs)
    b0 = bbar.covector(xs)
    big_t = np.einsum("...ij,...i,...j->...", np.linalg.inv(a0), b0, b0)
    one = 1.0 + big_t
    expect = one[..., None, None] ** 2 * (a0 - (b0[..., :, None] * b0[..., None, :]) / one[..., None, None])
    assert np.max(np.abs(alpha.matrix(xs) - expect)) < 1e-12
    assert np.max(np.abs(beta.covector(xs) - np.sqrt(one)[..., None] * b0)) < 1e-12


def test_berwald_chain_norm_relation_and_round_trip():
    bw = berwald_metric(3)
    x = np.array([0.6, 0.0, 0.0])  # b^2 = |x|^2 = 0.36
    ab, bb = berwald_chain(bw.alpha, bw.beta, "forward")
    bbar2 = norm_b(ab, bb, x) ** 2
    assert abs(bbar2 - 0.36 / 0.64) < 1e-12
    rng = np.random.default_rng(22)
    xs = rng.uniform(-0.45, 0.45, (20, 3))
    b2 = norm_b(bw.alpha, bw.beta, xs) ** 2
    bb2 = norm_b(ab, bb, xs) ** 2
    assert np.max(np.abs((1 - b2) * (1 + bb2) - 1.0)) < 1e-12
    ai, bi = berwald_chain(ab, bb, "inverse")
    assert np.max(np.abs(ai.matrix(xs) - bw.alpha.matrix(xs))) < 1e-10
    assert np.max(np.abs(bi.covector(xs) - bw.beta.covector(xs))) < 1e-10


def test_berwald_chain_zero_form_identity():
    a = euclidean_metric(3)
    b = constant_oneform(np.zeros(3))
    ab, bb = berwald_chain(a, b, "forward")
    x = np.array([0.1, 0.2, 0.3])
    assert np.max(np.abs(ab.matrix(x) - np.eye(3))) == 0.0
    assert np.max(np.abs(bb.covector(x))) == 0.0


def test_berwald_chain_requires_subunit_norm():
    a = euclidean_metric(3)
    b = constant_oneform([1.3, 0.0, 0.0])
    ab, bb = berwald_chain(a, b, "forward")
    with pytest.raises(PositivityError):
        ab.matrix(np.array([0.1, 0.0, 0.0]))


def test_structure_production_from_flat_pair():
    # inverse_chain of flat data satisfies the structure equations; the
    # forward chain then rebuilds a flat metric with a closed conformal form
    k = OdeParams(0.6, 0.5, -0.2)
    abar = space_form_metric(1.0, 3)
    bbar = closed_conformal_form(1.0, 0.3, np.array([0.05, 0.0, -0.05]), 3)
    alpha, beta = inverse_chain(abar, bbar, k)
    ab2, bb2 = forward_chain(alpha, beta, k)
    rng = np.random.default_rng(23)
    xs = rng.uniform(-0.4, 0.4, (15, 3))
    for x in xs[:5]:
        y = rng.standard_normal(3)
        g = spray_riemann(ab2, x, y)
        assert np.linalg.norm(np.cross(g, y)) < 1e-7
    s_res, c_res = conformality_residual(covariant_derivative(bb2, ab2, xs))
    assert s_res < 1e-7 and c_res < 1e-7


def test_positivity_violation_raises():
    bw = berwald_metric(3)
    k = OdeParams(0.0, 0.0, -3.0)  # D = 1 - 3 b^2 fails once b^2 > 1/3
    ab, bb = forward_chain(bw.alpha, bw.beta, k)
    with pytest.raises(PositivityError):
        ab.matrix(np.array([0.7, 0.0, 0.0]))


def _tau_trace(cov, k, n):
    denom = 2.0 * (n * (1.0 + k.k1 * cov.b2) + (k.k3 + k.k2 * cov.b2) * cov.b2)
    return np.einsum("...ij,...ij->...", cov.ainv, cov.bij) / denom


def test_intermediate_chain_displays_on_quadratic_data():
    # the stage-by-stage covariant derivatives of the standard chain, with tau
    # recovered from the trace of the structure equation
    from finslerlab.deform import standard_factors

    bw = berwald_metric(3)
    k = OdeParams(2.0, 0.0, -3.0)
    ch = standard_factors(k)
    rng = np.random.default_rng(30)
    xs = rng.uniform(-0.45, 0.45, (10, 3))
    cov = covariant_derivative(bw.beta, bw.alpha, xs)
    t = cov.b2
    d = 1.0 + (k.k1 + k.k3) * t + k.k2 * t * t
    tau = _tau_trace(cov, k, 3)
    bb_outer = cov.b_low[..., :, None] * cov.b_low[..., None, :]

    # after the stretch: 2 tau { (1+k1 b^2)/D a~_ij - (k1+k2 b^2) b_i b_j }
    at, bt = chain_pair(bw.alpha, bw.beta, ch.kappa, ZERO_FACTOR, ONE_FACTOR)
    direct = covariant_derivative(bt, at, xs).bij
    at0 = at.matrix(xs)
    expect = 2.0 * tau[..., None, None] * (
        ((1.0 + k.k1 * t) / d)[..., None, None] * at0
        - (k.k1 + k.k2 * t)[..., None, None] * bb_outer)
    assert np.max(np.abs(direct - expect)) < 1e-12

    # after the conformal step: 2 tau { e^{-2 rho} a^_ij - (k1+2k3+3k2 b^2) b_i b_j }
    ah, bh = chain_pair(bw.alpha, bw.beta, ch.kappa, ch.rho, ONE_FACTOR)
    direct = covariant_derivative(bh, ah, xs).bij
    ah0 = ah.matrix(xs)
    rho = ch.rho(t)
    expect = 2.0 * tau[..., None, None] * (
        np.exp(-2.0 * rho)[..., None, None] * ah0
        - (k.k1 + 2.0 * k.k3 + 3.0 * k.k2 * t)[..., None, None] * bb_outer)
    assert np.max(np.abs(direct - expect)) < 1e-12

    # after the rescale: 2 tau e^{-rho} sqrt(D) abar_ij (closed and conformal)
    ab, bb = forward_chain(bw.alpha, bw.beta, k)
    direct = covariant_derivative(bb, ab, xs).bij
    expect = (2.0 * tau * np.exp(-rho) * np.sqrt(d))[..., None, None] * ab.matrix(xs)
    assert np.max(np.abs(direct - expect)) < 1e-12


def test_rewritten_quadratic_metric_displays():
    # the two closed-form rewritings of F = (alpha+beta)^2/alpha in terms of
    # the deformed data: via the two-step chain and via the k=(2,0,-3) chain
    from finslerlab.abmetric import F_eval

    bw = berwald_metric(3)
    rng = np.random.default_rng(31)
    xs = rng.uniform(-0.45, 0.45, (12, 3))
    ys = rng.standard_normal((12, 3))
    f_direct = F_eval(bw, xs, ys)

    # two-step chain: F = (sqrt(1+bbar^2) abar + bbar)^2 / abar
    ab, bb = berwald_chain(bw.alpha, bw.beta, "forward")
    al = np.sqrt(np.einsum("...ij,...i,...j->...", ab.matrix(xs), ys, ys))
    be = np.einsum("...i,...i->...", bb.covector(xs), ys)
    bb2 = norm_b(ab, bb, xs) ** 2
    f_display = (np.sqrt(1.0 + bb2) * al + be) ** 2 / al
    assert np.max(np.abs(f_display - f_direct)) < 1e-12

    # full chain with k=(2,0,-3):
    # F = (sqrt((1-T) abar^2 + bbar^2) + bbar)^2 / ((1-T)^2 sqrt((1-T) abar^2 + bbar^2))
    ab, bb = forward_chain(bw.alpha, bw.beta, OdeParams(2, 0, -3))
    al2 = np.einsum("...ij,...i,...j->...", ab.matrix(xs), ys, ys)
    be = np.einsum("...i,...i->...", bb.covector(xs), ys)
    big_t = norm_b(ab, bb, xs) ** 2
    root = np.sqrt((1.0 - big_t) * al2 + be * be)
    f_display = (root + be) ** 2 / ((1.0 - big_t) ** 2 * root)
    assert np.max(np.abs(f_display - f_direct)) < 1e-12

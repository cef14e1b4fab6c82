"""phi-space checks: ODE residuals, the five-case factor, series, families."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finslerlab.errors import DomainError, UnsupportedFamilyError
from finslerlab.phifuncs import (
    OdeParams,
    QuadraturePhi,
    SigmaSeriesPhi,
    ZeroPSeriesPhi,
    eta_core,
    f_factor,
    ode_residual,
    phi_berwald,
    phi_berwald_shifted,
    phi_explicit_family,
    phi_from_quadrature,
    phi_randers,
    phi_riemannian,
    phi_rp,
    phi_series_sigma,
    positivity_radius,
    regularity_check,
)

from oracles import quad_eta, quad_f_factor, taylor_phi

GRID = np.linspace(-0.9, 0.9, 25)

# one representative parameter set per closed-form case of f/eta
CASE_PARAMS = {
    1: OdeParams(2.0, 0.0, -2.0),
    2: OdeParams(2.0, 0.0, -3.0),
    3: OdeParams(3.0, 1.0, 0.0),
    4: OdeParams(3.0, 4.0, 1.0),
    5: OdeParams(0.0, 1.0, 0.0),
}


def test_ode_residual_quadratic_phi():
    # (1+s)^2 solves the ODE with k = (2, 0, -3)
    res = ode_residual(phi_berwald(), OdeParams(2, 0, -3), 0.3)
    assert abs(res) < 1e-14
    assert np.max(np.abs(ode_residual(phi_berwald(), OdeParams(2, 0, -3), GRID))) < 1e-13


def test_ode_residual_shifted_phi():
    res = ode_residual(phi_berwald_shifted(), OdeParams(3, 0, -2), 0.5)
    assert abs(res) < 1e-14


def test_ode_residual_randers_trivial():
    # phi'' = 0 and k1 = k2 = 0 makes both sides vanish for any k3
    for k3 in (-1.0, 0.0, 2.5):
        assert np.max(np.abs(ode_residual(phi_randers(), OdeParams(0, 0, k3), GRID))) == 0.0


def test_f_factor_case1_closed_form():
    # k2=0, k1+k3=0: f(s) = exp(-k1 s^2 / 2)
    k = OdeParams(2.0, 0.0, -2.0)
    assert np.isclose(f_factor(k, 1.0), math.exp(-1.0), rtol=1e-14)


def test_f_factor_initial_condition():
    # the last triple is case 5 both ways round: the arctan offset must cancel exactly at 0
    for k in (*CASE_PARAMS.values(),
              OdeParams(-0.8638039251474137, 1.1386133193736638, 2.6202370644080677)):
        assert f_factor(k, 0.0) == 1.0
        assert eta_core(k.k1, k.k2, k.k3, 0.0) == 1.0


def test_f_factor_case2_vs_quadrature():
    k = OdeParams(2.0, 0.0, -3.0)
    assert abs(f_factor(k, 0.5) - quad_f_factor(k, 0.5)) < 1e-10


def test_f_factor_all_cases_vs_quadrature():
    rng = np.random.default_rng(21)
    for case, base in CASE_PARAMS.items():
        for _ in range(20):
            # jitter within the case (keeping the dispatch stable)
            if case == 1:
                k1 = rng.uniform(-2, 2)
                k = OdeParams(k1, 0.0, -k1)
            elif case == 2:
                k1 = rng.uniform(-1.5, 1.5)
                k3 = rng.uniform(-1.5, 1.5)
                if abs(k1 + k3) < 0.2:
                    k3 += 0.5
                k = OdeParams(k1, 0.0, k3)
            elif case == 3:
                s12 = rng.uniform(1.5, 3.0) * rng.choice([-1, 1])
                k2 = rng.uniform(0.1, s12 * s12 / 4 * 0.8)
                k = OdeParams(s12 / 2 + 0.3, k2, s12 / 2 - 0.3)
            elif case == 4:
                s12 = rng.uniform(1.0, 3.0) * rng.choice([-1, 1])
                k = OdeParams(s12 / 2 + 0.4, s12 * s12 / 4, s12 / 2 - 0.4)
            else:
                s12 = rng.uniform(-1.0, 1.0)
                k2 = rng.uniform(s12 * s12 / 4 + 0.2, 2.0)
                k = OdeParams(s12 / 2 + 0.2, k2, s12 / 2 - 0.2)
            smax = min(0.8, 0.8 * positivity_radius(k))
            s = rng.uniform(0.05, smax)
            assert abs(f_factor(k, s) - quad_f_factor(k, s)) < 1e-10
            t = s * s
            assert abs(float(eta_core(k.k1, k.k2, k.k3, t)) - quad_eta(k, t)) < 1e-10


def test_phi_from_quadrature_identifies_quadratic():
    k = OdeParams(2.0, 0.0, -3.0)
    ph, dph, ddph = phi_from_quadrature(k, 2.0, 0.4, tol=1e-13)
    assert abs(ph - 1.96) < 1e-12
    assert abs(dph - 2.8) < 1e-12
    assert abs(ddph - 2.0) < 1e-13


def test_phi_from_quadrature_at_zero():
    for k in CASE_PARAMS.values():
        ph, dph, _ = phi_from_quadrature(k, 0.7, 0.0)
        assert ph == 1.0 and dph == 0.7


def test_phi_from_quadrature_vs_taylor_oracle():
    k = OdeParams(0.0, 1.0, 0.0)  # the quartic-denominator example parameters
    ph, _, _ = phi_from_quadrature(k, 0.5, 0.3, tol=1e-13)
    assert abs(ph - taylor_phi(k, 0.5, 0.3)) < 1e-8


def test_phi_series_sigma_identities():
    assert abs(phi_series_sigma(1.0, 2.0, 0.25) - 1.5625) < 1e-14
    ss = np.linspace(-0.95, 0.95, 21)
    assert np.max(np.abs(SigmaSeriesPhi(0.0, 1.0).phi(ss) - (1 + ss))) < 1e-14
    assert phi_series_sigma(2.0, 0.0, 0.0) == 1.0


def test_phi_series_rejects_near_unit_s():
    with pytest.raises(DomainError):
        SigmaSeriesPhi(0.5, 1.0).phi(0.9995)


def test_explicit_family_polynomial():
    # r=-1/2, p=1/2 (n=1, delta=+1): 1 + eps s + s^2, an ODE solution for
    # k1 = 1/p = 2, k3 = (r-1)/p = -3
    spec = phi_rp(Fraction(-1, 2), Fraction(1, 2), 0.8)
    assert np.max(np.abs(spec.phi(GRID) - (1 + 0.8 * GRID + GRID**2))) < 1e-14
    assert np.max(np.abs(ode_residual(spec, OdeParams(2, 0, -3), GRID))) < 1e-13
    assert phi_explicit_family(Fraction(-1, 2), Fraction(1, 2), 0.8, 0.0) == 1.0


def test_explicit_family_arctan_vs_quadrature():
    spec = phi_rp(Fraction(1, 2), Fraction(1, 2), 1.3)
    quad = QuadraturePhi(OdeParams(2.0, 0.0, -1.0, 1.3), tol=1e-13)
    assert np.max(np.abs(spec.phi(GRID) - quad.phi(GRID))) < 1e-8


@pytest.mark.parametrize("r,p,k", [
    (Fraction(1, 2), Fraction(-1, 2), OdeParams(-2, 0, 1)),
    (Fraction(-1, 3), Fraction(-1, 3), OdeParams(-3, 0, 4)),
    (Fraction(-1, 3), Fraction(1, 3), OdeParams(3, 0, -4)),
    (Fraction(1, 3), Fraction(1, 3), OdeParams(3, 0, -2)),
    (Fraction(1, 3), Fraction(-1, 3), OdeParams(-3, 0, 2)),
    (Fraction(-1, 4), Fraction(1, 4), OdeParams(4, 0, -5)),
    (Fraction(1, 5), Fraction(1, 5), OdeParams(5, 0, -4)),
])
def test_explicit_families_solve_their_ode(r, p, k):
    spec = phi_rp(r, p, 0.4)
    smax = min(0.6, 0.8 * spec.eval_radius if math.isfinite(spec.eval_radius) else 0.6)
    ss = np.linspace(-smax, smax, 15)
    assert np.max(np.abs(ode_residual(spec, k, ss))) < 1e-12


def test_explicit_family_r_zero_delegates_to_series():
    spec = phi_rp(0, Fraction(1, 2), 1.0)
    assert isinstance(spec, ZeroPSeriesPhi)
    assert np.max(np.abs(ode_residual(spec, OdeParams(2, 0, -2), GRID))) < 1e-12


def test_explicit_family_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        phi_rp(Fraction(2, 3), Fraction(1, 3), 0.0)
    with pytest.raises(UnsupportedFamilyError):
        phi_rp(Fraction(1, 3), Fraction(1, 5), 0.0)


def test_quadrature_f_identity():
    # f_factor equals phi - s phi' for any eps (the eps-term cancels)
    rng = np.random.default_rng(31)
    for k in (OdeParams(2, 0, -3, 1.2), OdeParams(0, 1, 0, -0.4), OdeParams(1.5, 0.5, -0.5, 0.9)):
        spec = QuadraturePhi(k, tol=1e-13)
        ss = rng.uniform(0.05, min(0.85, 0.9 * spec.b0), 8)
        ph, dph, _ = spec.values(ss)
        assert np.max(np.abs(f_factor(k, ss) - (ph - ss * dph))) < 1e-10


def test_quadrature_evenness():
    spec = QuadraturePhi(OdeParams(2, 0, -3, 2.0), tol=1e-13)
    ss = np.linspace(0.05, 0.85, 9)
    odd_removed = spec.phi(ss) - 2.0 * ss
    mirrored = spec.phi(-ss) + 2.0 * ss
    assert np.max(np.abs(odd_removed - mirrored)) < 1e-10


def test_quadrature_ode_residual_random_quadruples():
    rng = np.random.default_rng(41)
    count = 0
    while count < 10:
        k = OdeParams(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5), rng.uniform(-1, 1),
                      rng.uniform(-1, 1))
        if positivity_radius(k) < 0.95 or k.is_randers_type:
            continue
        count += 1
        spec = QuadraturePhi(k, tol=1e-13)
        assert np.max(np.abs(ode_residual(spec, k, GRID))) < 1e-8


def test_sigma_series_ode_residual():
    for sigma in (0.0, 1.0, 2.0, 0.7):
        spec = SigmaSeriesPhi(sigma, 0.5)
        assert np.max(np.abs(ode_residual(spec, spec.params, GRID))) < 1e-8


def test_regularity_randers():
    rep = regularity_check(phi_randers(), 0.99, grid=12)
    assert rep.passed
    assert abs(rep.min_margin - 1.0) < 1e-12


def test_regularity_quadratic_pass_and_fail():
    # (1+s)^2: margin = 1 - 3 s^2 + 2 b^2, minimum 1 - b^2 at s = +-b
    rep = regularity_check(phi_berwald(), 0.9, grid=16)
    assert rep.passed
    assert abs(rep.min_margin - (1 - 0.9**2)) < 1e-12
    rep_bad = regularity_check(phi_berwald(), 1.1, grid=16)
    assert not rep_bad.passed
    assert rep_bad.b0_max < 1.0


def test_regularity_riemannian():
    rep = regularity_check(phi_riemannian(), 2.0, grid=8)
    assert rep.passed and rep.min_margin == 1.0


@given(st.floats(-1.0, 1.0), st.floats(-0.4, 0.4), st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
@example(0.5, -0.04308945894697774, -0.1306087788644541)  # case 3: the bracket must be 1 at 0
def test_f_factor_positive_and_normalized(k1, k2, k3):
    k = OdeParams(k1, k2, k3)
    b0 = positivity_radius(k)
    s = 0.5 * min(b0, 1.0)
    val = f_factor(k, s)
    assert val > 0.0
    assert f_factor(k, 0.0) == 1.0


def test_positivity_radius_examples():
    assert positivity_radius(OdeParams(2, 0, -3)) == 1.0       # 1 - s^2 > 0
    assert math.isinf(positivity_radius(OdeParams(3, 0, -2)))  # 1 + s^2 > 0
    assert np.isclose(positivity_radius(OdeParams(-2, 0, 1)), 1 / math.sqrt(2))

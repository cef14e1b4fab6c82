"""phi-space checks: ODE residuals, the five-case factor, series, families."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finslerlab import phifuncs
from finslerlab.errors import DomainError, PositivityError, UnsupportedFamilyError
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
    phi_randers,
    phi_riemannian,
    phi_rp,
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


def test_eta_core_names_the_factor_that_lost_positivity():
    # k = (-4, 16, -4) is case 4; at t = 0.5, D = 1 but 1 + (k1+k3) t / 2 = -1
    with pytest.raises(PositivityError, match=r"^2\+\(k1\+k3\)t lost positivity \(min -1\)$"):
        eta_core(-4.0, 16.0, -4.0, np.array([0.1, 0.5]))


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
    ph, dph, ddph = QuadraturePhi(OdeParams(2.0, 0.0, -3.0, 2.0), tol=1e-13).values(0.4)
    assert abs(ph - 1.96) < 1e-12
    assert abs(dph - 2.8) < 1e-12
    assert abs(ddph - 2.0) < 1e-13


def test_phi_from_quadrature_at_zero():
    for k in CASE_PARAMS.values():
        for eps in (0.7, -1.3):
            spec = QuadraturePhi(OdeParams(k.k1, k.k2, k.k3, eps))
            ph, dph, _ = spec.values(0.0)
            assert ph == 1.0 and dph == eps
            ph, dph, _ = spec.values(np.array([-0.3, 0.0, 0.3]))
            assert ph[1] == 1.0 and dph[1] == eps


def _mp_phi(k1, k2, k3, eps, s):
    """(phi, phi') at s to 30 digits by mpmath.quad; needs k2 != 0 and (k1+k3)^2 > 4 k2.

    phi'' = (k1 + k2 s^2) / (1 + (k1+k3) s^2 + k2 s^4) * f(s), where
    f(s) = exp(-int_0^{s^2} (k1 + k2 u) / (2 (1 + (k1+k3) u + k2 u^2)) du) is
    written by partial fractions over the two real roots of the quadratic.
    """
    with mpmath.workdps(30):
        k1, k2, k3, eps, s = map(mpmath.mpf, (k1, k2, k3, eps, s))
        c = k1 + k3
        rt = mpmath.sqrt(c * c - 4 * k2)
        r1, r2 = (-c - rt) / (2 * k2), (-c + rt) / (2 * k2)
        a1 = (k1 + k2 * r1) / (k2 * (r1 - r2))
        a2 = (k1 + k2 * r2) / (k2 * (r2 - r1))

        def w(x):
            t = x * x
            f = mpmath.exp(-(a1 * mpmath.log(1 - t / r1) + a2 * mpmath.log(1 - t / r2)) / 2)
            return (k1 + k2 * t) / (1 + c * t + k2 * t * t) * f

        # breakpoints graded towards s, where phi'' is steep close to b0
        pts = [mpmath.mpf(0)] + [s * (1 - mpmath.mpf(10) ** -j) for j in range(1, 9)] + [s]
        ph = 1 + eps * s + mpmath.quad(lambda u: (s - u) * w(u), pts)
        dph = eps + mpmath.quad(w, pts)
        return float(ph), float(dph)


@pytest.mark.parametrize("k", [(1.0, 2.0, -5.0), (3.0, -1.0, -4.0)])
def test_quadrature_matches_mpmath_up_to_the_edge(k):
    spec = QuadraturePhi(OdeParams(*k, 0.3))
    ss = spec.b0 * np.array([0.2, -0.5, 0.9, 0.99, 0.999, -0.9999, 0.9999, 0.99999])
    ph, dph, _ = spec.values(ss)
    for s, p, d in zip(ss, ph, dph):
        p_ref, d_ref = _mp_phi(*k, 0.3, s)
        assert abs(p - p_ref) <= spec.tol and abs(d - d_ref) <= spec.tol


def _count_w_points(monkeypatch):
    """Patch QuadraturePhi._w to record how many points each call evaluates."""
    counts = []
    w = QuadraturePhi._w

    def counted(self, s):
        counts.append(np.size(s))
        return w(self, s)

    monkeypatch.setattr(QuadraturePhi, "_w", counted)
    return counts


def test_quadrature_halves_panels_only_near_the_edge(monkeypatch):
    counts = _count_w_points(monkeypatch)
    rules = 3 * phifuncs._NODES  # the 64- and the 128-point rule on one panel
    for k in ((0.0, 1.0, 0.0), (2.0, 0.0, -3.0), (1.0, 2.0, -5.0), (-1.0, 0.1, 0.5)):
        spec = QuadraturePhi(OdeParams(*k, 0.5))
        smax = 0.9 * min(spec.b0, 1.0)
        spec.values(np.linspace(-smax, smax, 301))
    # level 0 only: one panel per point, plus phi'' at the points themselves
    assert sum(counts) == 4 * 301 * (rules + 1)
    counts.clear()
    spec = QuadraturePhi(OdeParams(1.0, 2.0, -5.0, 0.5))
    spec.values(0.9999 * spec.b0)
    assert sum(counts) > rules + 1


def test_quadrature_caps_the_panels_at_the_edge(monkeypatch):
    counts = _count_w_points(monkeypatch)
    # every halving adds one panel to a partition of at most _MAX_PANELS panels
    per_point = (2 * phifuncs._MAX_PANELS - 1) * 3 * phifuncs._NODES + 1
    for k in ((1.0, 2.0, -5.0), (3.0, -1.0, -4.0)):
        spec = QuadraturePhi(OdeParams(*k, 0.3))
        counts.clear()
        vals = spec.values(np.array([-1.0, 1.0]) * (1.0 - 1e-12) * spec.b0)
        assert all(np.all(np.isfinite(v)) for v in vals)
        assert sum(counts) <= 2 * per_point


def test_quadrature_blocks_do_not_change_values():
    spec = QuadraturePhi(OdeParams(1.0, 2.0, -5.0, 0.5))
    ss = np.linspace(-0.999 * spec.b0, 0.999 * spec.b0, 2 * phifuncs._BLOCK + 7)
    whole = spec.values(ss)
    for step in (phifuncs._BLOCK, 97):
        pieces = [spec.values(ss[i:i + step]) for i in range(0, ss.size, step)]
        for got, part in zip(whole, zip(*pieces)):
            assert np.array_equal(got, np.concatenate(part))


def test_phi_from_quadrature_vs_taylor_oracle():
    k = OdeParams(0.0, 1.0, 0.0, 0.5)  # the quartic-denominator example parameters
    ph = QuadraturePhi(k, tol=1e-13).phi(0.3)
    assert abs(ph - taylor_phi(k, 0.5, 0.3)) < 1e-8


def test_phi_series_sigma_identities():
    assert abs(SigmaSeriesPhi(1.0, 2.0).phi(0.25) - 1.5625) < 1e-14
    ss = np.linspace(-0.95, 0.95, 21)
    assert np.max(np.abs(SigmaSeriesPhi(0.0, 1.0).phi(ss) - (1 + ss))) < 1e-14
    assert SigmaSeriesPhi(2.0, 0.0).phi(0.0) == 1.0


def test_phi_series_rejects_near_unit_s():
    with pytest.raises(DomainError):
        SigmaSeriesPhi(0.5, 1.0).phi(0.9995)


def test_explicit_family_polynomial():
    # r=-1/2, p=1/2 (n=1, delta=+1): 1 + eps s + s^2, an ODE solution for
    # k1 = 1/p = 2, k3 = (r-1)/p = -3
    spec = phi_rp(Fraction(-1, 2), Fraction(1, 2), 0.8)
    assert np.max(np.abs(spec.phi(GRID) - (1 + 0.8 * GRID + GRID**2))) < 1e-14
    assert np.max(np.abs(ode_residual(spec, OdeParams(2, 0, -3), GRID))) < 1e-13
    assert phi_rp(Fraction(-1, 2), Fraction(1, 2), 0.8).phi(0.0) == 1.0


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

"""Representation-group transforms, complete invariants, reductions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslerlab.classify import (
    PTag,
    QTag,
    Quadruple,
    apply_recipe,
    canonical_pair,
    circle_coords,
    invariants,
    reduce_quadruple,
    reduced_quadruple,
    reversibilize,
    same_type,
    reduced_form_p,
    transform_g,
    transform_h,
    transform_phi_g,
    transform_phi_h,
)
from finslerlab.deform import inverse_chain
from finslerlab.flatness import hamel_residual, sample_ball, sample_sphere
from finslerlab.models import closed_conformal_form, space_form_metric
from finslerlab.phifuncs import (
    OdeParams,
    QuadraturePhi,
    ode_residual,
    phi_berwald,
    phi_berwald_shifted,
    phi_randers,
    regularity_check,
)
from finslerlab.abmetric import ABMetric

finite = st.floats(-2.0, 2.0, allow_nan=False)
nonzero = st.floats(0.25, 2.0).flatmap(lambda v: st.sampled_from([v, -v]))


def test_transform_g_berwald_pair():
    assert transform_g(1.0, Quadruple(2, 0, -3, 2)) == Quadruple(3, 0, -2, 2)


def test_transform_identities():
    q = Quadruple(0.7, -0.3, 1.1, 0.4)
    assert transform_g(0.0, q) == q
    assert transform_h(1.0, q) == q


def test_transform_h_example():
    assert transform_h(2.0, Quadruple(1, 1, 1, 1)) == Quadruple(4, 16, 4, 2)


@given(finite, finite, st.tuples(finite, finite, finite, finite))
@settings(max_examples=100, deadline=None)
def test_g_composition_law(u1, u2, kt):
    q = Quadruple(*kt)
    lhs = transform_g(u1, transform_g(u2, q))
    rhs = transform_g(u1 + u2, q)
    for a, b in zip((lhs.k1, lhs.k2, lhs.k3, lhs.eps), (rhs.k1, rhs.k2, rhs.k3, rhs.eps)):
        assert abs(a - b) < 1e-12 * (1 + abs(a) + abs(b))


@given(nonzero, finite, st.tuples(finite, finite, finite, finite))
@settings(max_examples=100, deadline=None)
def test_h_g_commutation_law(v, u, kt):
    # h_v g_u = g_{u v^2} h_v
    q = Quadruple(*kt)
    lhs = transform_h(v, transform_g(u, q))
    rhs = transform_g(u * v * v, transform_h(v, q))
    for a, b in zip((lhs.k1, lhs.k2, lhs.k3, lhs.eps), (rhs.k1, rhs.k2, rhs.k3, rhs.eps)):
        assert abs(a - b) < 1e-10 * (1 + abs(a) + abs(b))


def test_invariants_examples():
    sig = invariants(Quadruple(2, 0, -3, 2))
    assert (sig.d1, sig.d2, sig.d3) == (1.0, -24.0, 5.0)
    assert sig.p_tag is PTag.IMAG
    assert abs(sig.p_value - 2 * math.sqrt(6) / 5) < 1e-12
    assert sig.q_tag is QTag.FINITE and abs(sig.q_value + 2 / 3) < 1e-12

    randers = invariants(Quadruple(0, 0, 0, 1))
    assert randers.p_tag is PTag.ZERO and randers.q_tag is QTag.INF
    riemann = invariants(Quadruple(0, 0, 0, 0))
    assert riemann.p_tag is PTag.ZERO and riemann.q_tag is QTag.ZERO


def test_delta_identity_always():
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = Quadruple(*rng.uniform(-3, 3, 4))
        sig = invariants(q)
        scale = max(1.0, abs(sig.d1), abs(sig.d2))
        assert abs(sig.d1 - sig.d2 - sig.d3**2) < 1e-12 * scale


def test_invariance_under_group():
    rng = np.random.default_rng(2)
    count = 0
    while count < 200:
        q = Quadruple(*rng.uniform(-2, 2, 3), rng.uniform(-1.5, 1.5))
        if abs(invariants(q).d2) < 0.1:
            continue
        count += 1
        qq = q
        for _ in range(rng.integers(1, 5)):
            if rng.random() < 0.5:
                qq = transform_g(rng.uniform(-1.5, 1.5), qq)
            else:
                qq = transform_h(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]), qq)
        assert same_type(q, qq)
        s0, s1 = invariants(q), invariants(qq)
        assert s0.p_tag is s1.p_tag and s0.q_tag is s1.q_tag


def test_same_type_examples():
    assert same_type(Quadruple(2, 0, -3, 2), Quadruple(3, 0, -2, 2))
    assert not same_type(Quadruple(2, 0, -3, 2), Quadruple(0, 0, 0, 1))


def test_same_type_is_equivalence_relation():
    rng = np.random.default_rng(3)
    qs = []
    while len(qs) < 50:
        q = Quadruple(*rng.uniform(-2, 2, 3), rng.uniform(-1, 1))
        if abs(invariants(q).d2) > 0.1:
            qs.append(q)
    for q in qs[:10]:
        assert same_type(q, q)
    for a in qs[:8]:
        for b in qs[:8]:
            assert same_type(a, b) == same_type(b, a)
            for c in qs[:8]:
                if same_type(a, b) and same_type(b, c):
                    assert same_type(a, c)


def test_reduce_quadratic_type():
    form, recipe = reduce_quadruple(Quadruple(2, 0, -3, 2))
    assert form.kind == "d1-positive" and form.sigma == 1.0
    tag, val = reduced_form_p(form)
    assert tag is PTag.IMAG and abs(val - 2 * math.sqrt(6) / 5) < 1e-12
    # the same type in shifted data reduces to the same form
    form2, _ = reduce_quadruple(Quadruple(3, 0, -2, 2))
    assert form2.kind == form.kind and abs(form2.sigma - form.sigma) < 1e-12


def test_reduce_d1zero():
    form, recipe = reduce_quadruple(Quadruple(2, 0, -2, 1))
    assert form.kind == "d1-zero" and form.sigma == 1.0
    tag, val = reduced_form_p(form)
    assert tag is PTag.IMAG and val == 1.0
    landed = apply_recipe(recipe, Quadruple(2, 0, -2, 1))
    target = reduced_quadruple(form, landed.eps)
    assert abs(landed.k1 - target.k1) < 1e-12 and abs(landed.k2 - target.k2) < 1e-12


def test_reduce_d1negative():
    q = Quadruple(0, 1, 1, 0)
    form, recipe = reduce_quadruple(q)
    assert form.kind == "d1-negative" and abs(form.sigma - 0.5) < 1e-12
    tag, val = reduced_form_p(form)
    assert tag is PTag.IMAG and abs(val + 2.0) < 1e-12
    sig = invariants(q)
    assert abs(sig.p_value + 2.0) < 1e-12


def test_reduce_rejects_randers():
    with pytest.raises(ValueError):
        reduce_quadruple(Quadruple(1.0, 0.5, 0.5, 1.0))  # k2 = k1 k3


def test_recipe_lands_on_reduced_quadruple():
    rng = np.random.default_rng(4)
    count = 0
    while count < 30:
        q = Quadruple(*rng.uniform(-2, 2, 3), rng.uniform(-1, 1))
        if abs(invariants(q).d2) < 0.1:
            continue
        count += 1
        form, recipe = reduce_quadruple(q)
        landed = apply_recipe(recipe, q)
        target = reduced_quadruple(form, landed.eps)
        for a, b in zip((landed.k1, landed.k2, landed.k3), (target.k1, target.k2, target.k3)):
            assert abs(a - b) < 1e-9 * (1 + abs(a) + abs(b))
        assert same_type(q, landed)


def test_reduced_p_consistency_random_sigma():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.uniform(-2, 2)
        if abs(s) < 0.05 or abs(s + 0.5) < 0.05:
            continue
        form = ReducedFormSafe("d1-positive", s)
        _assert_table_matches(form)
    for s in (1.0, -1.0):
        _assert_table_matches(ReducedFormSafe("d1-zero", s))
    for _ in range(20):
        s = rng.uniform(-0.95, 0.95)
        if abs(s) < 1e-3:
            continue
        _assert_table_matches(ReducedFormSafe("d1-negative", s))


def ReducedFormSafe(kind, sigma):
    from finslerlab.classify import ReducedForm

    return ReducedForm(kind, sigma)


def _assert_table_matches(form):
    tag, val = reduced_form_p(form)
    sig = invariants(reduced_quadruple(form))
    assert tag is sig.p_tag
    if tag in (PTag.REAL, PTag.IMAG):
        assert abs(val - sig.p_value) < 1e-12 * (1 + abs(val))
    # range constraints of the reduced rows
    if form.kind == "d1-zero":
        assert abs(val) == 1.0 and tag is PTag.IMAG
    if form.kind == "d1-negative" and tag is PTag.IMAG:
        assert abs(val) > 1.0


def test_transform_phi_matches_parameter_action():
    # g_1 carries the quadratic form onto its stretched representative
    ss = np.linspace(-0.7, 0.7, 15)
    tg = transform_phi_g(1.0, phi_berwald())
    assert np.max(np.abs(tg.phi(ss) - phi_berwald_shifted().phi(ss))) < 1e-13
    assert np.max(np.abs(ode_residual(tg, OdeParams(3, 0, -2), ss))) < 1e-12
    # Randers family: g_u h_v (1+s) = sqrt(1+u s^2) + v s
    th = transform_phi_g(0.5, transform_phi_h(0.7, phi_randers()))
    assert np.max(np.abs(th.phi(ss) - (np.sqrt(1 + 0.5 * ss**2) + 0.7 * ss))) < 1e-13


def test_canonical_pair_d1zero_trivial_beta():
    from finslerlab.classify import ReducedForm
    from finslerlab.geometry import constant_oneform

    abar = space_form_metric(0.0, 3)
    bbar = constant_oneform(np.zeros(3))
    alpha, beta = canonical_pair(ReducedForm("d1-zero", 1.0), abar, bbar)
    x = np.array([0.2, -0.1, 0.3])
    assert np.max(np.abs(alpha.matrix(x) - abar.matrix(x))) < 1e-14
    assert np.max(np.abs(beta.covector(x))) == 0.0


def test_canonical_pair_matches_inverse_chain():
    from finslerlab.classify import ReducedForm

    abar = space_form_metric(0.0, 3)
    bbar = closed_conformal_form(0.0, 0.3, None, 3)
    rng = np.random.default_rng(6)
    xs = rng.uniform(-0.5, 0.5, (10, 3))
    # (a) and (b) agree with the chain exactly
    for form in (ReducedForm("d1-positive", 1.0), ReducedForm("d1-zero", -1.0)):
        k = reduced_quadruple(form)
        a1, b1 = canonical_pair(form, abar, bbar)
        a2, b2 = inverse_chain(abar, bbar, k)
        assert np.max(np.abs(a1.matrix(xs) - a2.matrix(xs))) < 1e-9
        assert np.max(np.abs(b1.covector(xs) - b2.covector(xs))) < 1e-9
    # (c) differs by the displayed constant normalization
    form = ReducedForm("d1-negative", 0.5)
    s = form.sigma
    const = math.exp(-s / (2 * math.sqrt(1 - s * s)) * math.atan(s / math.sqrt(1 - s * s)))
    k = reduced_quadruple(form)
    a1, b1 = canonical_pair(form, abar, bbar)
    a2, b2 = inverse_chain(abar, bbar, k)
    assert np.max(np.abs(a1.matrix(xs) - const**2 * a2.matrix(xs))) < 1e-9
    assert np.max(np.abs(b1.covector(xs) - const * b2.covector(xs))) < 1e-9


def test_canonical_pair_flatness_end_to_end():
    from finslerlab.classify import ReducedForm

    form = ReducedForm("d1-positive", 1.0)
    abar = space_form_metric(0.0, 3)
    bbar = closed_conformal_form(0.0, 0.3, None, 3)
    alpha, beta = canonical_pair(form, abar, bbar)
    phi = QuadraturePhi(reduced_quadruple(form, 0.5), tol=1e-12)
    m = ABMetric(alpha, beta, phi)
    rng = np.random.default_rng(7)
    xs = sample_ball(rng, 3, 30, 0.5)
    ys = sample_sphere(rng, 3, 30)
    assert np.max(hamel_residual(m, xs, ys)) < 1e-6


def test_reversibilize_closed_forms():
    ss = np.linspace(-0.8, 0.8, 17)
    even, coef = reversibilize(phi_berwald())
    assert coef == -2.0
    assert np.max(np.abs(even.phi(ss) - (1 + ss**2))) < 1e-13
    even_r, coef_r = reversibilize(phi_randers())
    assert coef_r == -1.0
    assert np.max(np.abs(even_r.phi(ss) - 1.0)) < 1e-15


def test_reversibilize_quadrature():
    phi = QuadraturePhi(OdeParams(2, 0, -3, 2.0), tol=1e-13)
    even, coef = reversibilize(phi)
    assert abs(coef + 2.0) < 1e-12
    ss = np.linspace(0.05, 0.85, 9)
    assert np.max(np.abs(even.phi(ss) - even.phi(-ss))) < 1e-12
    # regularity survives on the same validity radius
    rep = regularity_check(even, 0.9, grid=10)
    assert rep.passed
    # the reversibilized quadruple has q = 0
    sig = invariants(Quadruple(even.params.k1, even.params.k2, even.params.k3, even.params.eps))
    assert sig.q_tag is QTag.ZERO


def test_circle_coords():
    sig = invariants(Quadruple(2, 0, -3, 2))
    cx, cy = circle_coords(sig)
    assert abs(cx - 2 * math.sqrt(24) * 5 / 49) < 1e-12
    assert abs(cy - 10 / 49) < 1e-12
    assert circle_coords(invariants(Quadruple(0, 0, 0, 0))) == (0.0, 0.0)
    # D3 = 0: both displayed numerators vanish
    sig0 = invariants(Quadruple(1.0, -1.0, 1.0, 0.0))
    assert sig0.d3 == 0.0
    assert circle_coords(sig0) == (0.0, 0.0)

"""Tests for the closed-form FDR bound and its building blocks.

The two parameterizations of the bound act as each other's oracle (they share
no algebra beyond the substitution), frozen literals pin hand-derived example
values, and naive textbook-style re-evaluations guard the cancellation-free
rewrites used in the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbh_fdr import (
    BoundInput,
    DomainError,
    ab_from_rho,
    bound_curve,
    exact_p_conditional,
    fdr_bound,
    fdr_bound_aform,
    in_theorem_domain,
    integrals_closed,
    m_factor,
    m_factor_ab,
    norm_cdf,
    norm_quantile,
    p_lower,
    phi,
    rho_max,
)


# ---------------------------------------------------------------------------
# admissible-correlation boundary

def test_rho_max_window_and_frozen_value():
    r = rho_max()
    assert 0.3435 < r < 0.3445
    assert r == pytest.approx(0.3442467635633868, abs=1e-12)

def test_rho_max_is_cubic_root():
    def cubic(a):
        return 5.0 * a + 1.0 - 3.0 * a ** 3 - a * a
    a_at = lambda rho: 1.0 / math.sqrt(1.0 - rho)
    # sign change across the root, checked at the quoted rounded levels
    assert cubic(a_at(0.34)) > 0.0
    assert cubic(a_at(0.35)) < 0.0
    a_star = a_at(rho_max())
    assert a_star == pytest.approx(1.2345, abs=5e-4)
    assert abs(cubic(a_star)) < 1e-10
    assert cubic(a_at(rho_max() - 1e-9)) > 0.0
    assert cubic(a_at(rho_max() + 1e-9)) < 0.0


# ---------------------------------------------------------------------------
# (a, b) parameterization

def test_ab_from_rho_basic():
    a, b = ab_from_rho(0.2, 2.0)
    assert a == pytest.approx(1.0 / math.sqrt(0.8), rel=1e-15)
    assert b == pytest.approx(-1.0, rel=1e-12)
    a0, b0 = ab_from_rho(0.5, 0.0)
    assert a0 == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert b0 == 0.0

@given(st.floats(1e-6, 0.4999))
def test_ab_a_range_below_half(rho):
    a, _ = ab_from_rho(rho, 1.3)
    assert 1.0 < a < math.sqrt(2.0)

def test_ab_from_rho_rejects_bad_rho():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            ab_from_rho(bad, 0.0)


# ---------------------------------------------------------------------------
# conditional-ratio cap

def test_m_factor_nonpositive_branch_frozen():
    assert m_factor(0.2, -1.0) == pytest.approx(1.0 / math.sqrt(0.8), rel=1e-15)
    assert m_factor(0.2, -1.0) == pytest.approx(1.1180, abs=1e-4)
    # the branch ignores how negative x0 is
    assert m_factor(0.2, -7.0) == m_factor(0.2, 0.0)

def test_m_factor_positive_branch_frozen():
    assert m_factor(0.2, 2.0) == pytest.approx(6.915702574964707, rel=1e-13)
    assert m_factor(0.2, 2.0) == pytest.approx(6.916, abs=1e-3)

def test_m_factor_positive_branch_naive_reevaluation():
    # literal transcription with the cancellation-prone 1 - sqrt(1-rho)
    for rho in (0.05, 0.1, 0.2, 0.3):
        for x0 in (0.5, 1.0, 2.0, 3.5):
            s = math.sqrt(1.0 - rho)
            naive = 1.0 + (4.0 * (1.0 - s) ** 2 + rho * x0 * x0) \
                / (4.0 * (s - 1.0 + rho)) \
                * math.exp(rho * x0 * x0 / (4.0 * (1.0 - s) + 2.0 * rho))
            assert m_factor(rho, x0) == pytest.approx(naive, rel=1e-10)

def test_m_factor_small_rho_limit():
    assert m_factor(1e-12, -5.0) == pytest.approx(1.0, abs=1e-9)

def test_m_factor_always_above_one():
    for rho in (0.01, 0.1, 0.2, 0.3, 0.34):
        for x0 in (-3.0, -0.5, 0.0, 0.5, 2.0, 4.0):
            assert m_factor(rho, x0) > 1.0

def test_m_factor_matches_ab_form():
    for rho in (0.05, 0.2, 0.3):
        for x0 in (-2.0, -0.1, 0.4, 1.7, 3.0):
            a, b = ab_from_rho(rho, x0)
            assert m_factor(rho, x0) == pytest.approx(m_factor_ab(a, b), rel=1e-12)

def test_m_factor_domain_errors():
    with pytest.raises(DomainError):
        m_factor(0.0, 1.0)
    with pytest.raises(DomainError):
        m_factor(0.35, 1.0)
    with pytest.raises(DomainError):
        m_factor_ab(0.9, 1.0)


# ---------------------------------------------------------------------------
# conditional exceedance probability and its lower bound

def test_p_lower_at_half_is_half():
    for rho in (0.05, 0.2, 0.3):
        for x0 in (-3.0, -1.0, 0.0):
            assert p_lower(0.5, rho, x0) == pytest.approx(0.5, abs=1e-14)

def test_p_lower_frozen_values():
    # lambda=0.25, rho=0.19, x0=0: a = 1/0.9, quantile(0.75) = 0.67449
    v = p_lower(0.25, 0.19, 0.0)
    assert v == pytest.approx(norm_cdf(norm_quantile(0.75) / 0.9), rel=1e-13)
    assert v == pytest.approx(0.7732, abs=1e-4)
    # x0 > 0 branch: b = -1 so phi(1)/2
    v2 = p_lower(0.5, 0.2, 2.0)
    assert v2 == pytest.approx(phi(1.0) / 2.0, rel=1e-15)
    assert v2 == pytest.approx(0.1210, abs=1e-4)

def test_p_lower_rejects_large_lambda():
    with pytest.raises(DomainError):
        p_lower(0.6, 0.2, 0.0)

def test_exact_p_conditional_frozen():
    assert exact_p_conditional(0.5, 0.2, 2.0) == pytest.approx(norm_cdf(-1.0), rel=1e-14)
    assert exact_p_conditional(0.5, 0.2, 2.0) == pytest.approx(0.1587, abs=1e-4)
    assert exact_p_conditional(0.5, 1e-12, 0.0) == pytest.approx(0.5, abs=1e-12)

def test_exact_dominates_lower_bound_on_grid():
    for lam in (0.05, 0.1, 0.25, 0.4, 0.5):
        for rho in (0.01, 0.1, 0.2, 0.3, 0.339):
            for x0 in np.linspace(-6.0, 6.0, 49):
                assert exact_p_conditional(lam, rho, float(x0)) >= \
                    p_lower(lam, rho, float(x0)) - 1e-15

def test_exact_p_conditional_is_probability_in_lambda():
    # complements: exceedance at lambda + rejection cdf at lambda = 1
    for rho in (0.1, 0.3):
        for x0 in (-2.0, 0.0, 2.0):
            tot = exact_p_conditional(0.3, rho, x0)
            a, b = ab_from_rho(rho, x0)
            rej = norm_cdf(-(a * norm_quantile(0.7) + b))
            assert tot + rej == pytest.approx(1.0, abs=1e-13)


# ---------------------------------------------------------------------------
# seven closed-form integrals

def test_integrals_frozen_at_a12():
    i = integrals_closed(1.2)
    assert i[0] == pytest.approx((math.sqrt(2 * math.pi) / 2) * math.sqrt(0.44 / 0.56), rel=1e-14)
    assert i[0] == pytest.approx(1.1109, abs=1e-3)
    assert i[3] == pytest.approx(0.44 / 0.56, rel=1e-14)
    assert i[3] == pytest.approx(0.7857, abs=1e-4)

def test_integrals_vanish_or_stay_positive_near_one():
    i = integrals_closed(1.0000001)
    assert i[6] == pytest.approx(0.5 * math.sqrt(1.0000001 ** 2 - 1.0), rel=1e-9)
    assert i[6] < 1e-3
    assert all(v >= 0.0 for v in i)

def test_integrals_all_positive_inside_domain():
    for a in (1.01, 1.05, 1.1, 1.2, 1.23):
        assert all(v > 0.0 for v in integrals_closed(a))

def test_integrals_named_domain_errors():
    with pytest.raises(DomainError) as e:
        integrals_closed(0.99)
    assert e.value.constraint == "a"
    with pytest.raises(DomainError) as e:
        integrals_closed(1.5)           # 2 - a^2 < 0
    assert e.value.constraint == "2-a^2"
    with pytest.raises(DomainError) as e:
        integrals_closed(1.3)           # cubic < 0, but 2 - a^2 still > 0
    assert e.value.constraint == "cubic"


# ---------------------------------------------------------------------------
# the bound itself

def test_bound_small_rho_limit_ratio_frozen():
    bd = fdr_bound(BoundInput(lam=0.5, rho=1e-6, alpha=0.05))
    ratio = bd.total / 0.05
    assert ratio == pytest.approx(2.0153877248832144, rel=1e-12)
    assert abs(ratio - 2.013) <= 0.005

def test_bound_ratio_independent_of_alpha():
    for alpha in (0.01, 0.05, 0.2, 0.6):
        bd = fdr_bound(BoundInput(lam=0.3, rho=0.15, alpha=alpha))
        assert bd.total / alpha == pytest.approx(
            fdr_bound(BoundInput(lam=0.3, rho=0.15, alpha=0.05)).total / 0.05,
            rel=1e-14)

def test_bound_exceeds_trivial_floor():
    for lam in (0.05, 0.25, 0.5):
        for rho in (0.01, 0.1, 0.2, 0.3):
            bd = fdr_bound(BoundInput(lam=lam, rho=rho, alpha=0.05))
            assert bd.total > 0.05 * (1.0 - lam)
            assert all(t > 0.0 for t in bd.terms)
            assert bd.total == pytest.approx(math.fsum(bd.terms), rel=1e-15)

def test_bound_figure_level_claims():
    assert fdr_bound(BoundInput(0.05, 0.149, 0.05)).total / 0.05 < 10.0
    assert fdr_bound(BoundInput(0.05, 0.219, 0.05)).total / 0.05 < 20.0

def test_bound_diverges_toward_domain_edge():
    near = fdr_bound(BoundInput(0.5, rho_max() - 1e-10, 0.05)).total
    mid = fdr_bound(BoundInput(0.5, 0.3, 0.05)).total
    assert near > 1e3 * mid

def test_bound_rho_boundary_rounding():
    # the quoted 0.34 is inside the true domain, 0.35 is out
    fdr_bound(BoundInput(0.5, 0.34, 0.05))
    with pytest.raises(DomainError) as e:
        fdr_bound(BoundInput(0.5, 0.35, 0.05))
    assert e.value.constraint == "rho"

def test_bound_lambda_domain_and_override():
    with pytest.raises(DomainError) as e:
        fdr_bound(BoundInput(0.6, 0.1, 0.05))
    assert e.value.constraint == "lambda"
    # override admits lambda in (0.5, 1) but never a bad rho
    out = fdr_bound(BoundInput(0.6, 0.1, 0.05), allow_out_of_domain=True)
    assert out.total > 0.0
    with pytest.raises(DomainError):
        fdr_bound(BoundInput(0.6, 0.4, 0.05), allow_out_of_domain=True)

@pytest.mark.parametrize("evaluate", [fdr_bound, fdr_bound_aform])
@pytest.mark.parametrize("lam", [1.0, 1.5, 0.0, float("nan")])
def test_bound_override_interval_is_open_at_one(evaluate, lam):
    # lambda = 1 makes the first term 0/0: a DomainError, not a ZeroDivisionError
    with pytest.raises(DomainError, match=fr"^lambda={lam} outside \(0, 1\)$") as e:
        evaluate(BoundInput(lam, 0.2, 0.05), allow_out_of_domain=True)
    assert e.value.constraint == "lambda"
    with pytest.raises(DomainError) as e:
        evaluate(BoundInput(lam, 0.2, 0.05))
    assert str(e.value) == (f"lambda={lam} outside (0, 0.5] (pass the out-of-domain "
                            "override to explore lambda > 1/2)")
    near_one = evaluate(BoundInput(math.nextafter(1.0, 0.0), 0.2, 0.05),
                        allow_out_of_domain=True)
    assert math.isfinite(near_one.total)

def test_bound_alpha_validation():
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(DomainError) as e:
            fdr_bound(BoundInput(0.5, 0.1, bad))
        assert e.value.constraint == "alpha"

def test_in_theorem_domain_flag():
    assert in_theorem_domain(0.5, 0.1, 0.05)
    assert in_theorem_domain(0.5, 0.34, 0.05)
    assert not in_theorem_domain(0.6, 0.1, 0.05)
    assert not in_theorem_domain(0.5, 0.35, 0.05)
    assert not in_theorem_domain(0.5, 0.1, 1.0)


# ---------------------------------------------------------------------------
# the two parameterizations agree termwise

def test_parameterization_tags():
    assert fdr_bound(BoundInput(0.5, 0.1, 0.05)).parameterization == "rho"
    assert fdr_bound_aform(BoundInput(0.5, 0.1, 0.05)).parameterization == "a"

def test_termwise_agreement_spot_point():
    # the second summand, written both ways, at (0.5, 0.3)
    bd_r = fdr_bound(BoundInput(0.5, 0.3, 0.05))
    bd_a = fdr_bound_aform(BoundInput(0.5, 0.3, 0.05))
    a2 = 1.0 / 0.7
    expect_t2 = 0.05 * 0.5 * math.sqrt(2 * math.pi) / (2.0 * math.sqrt(2.0 - a2))
    assert bd_r.terms[1] == pytest.approx(expect_t2, rel=1e-13)
    assert bd_a.terms[1] == pytest.approx(expect_t2, rel=1e-13)

def test_termwise_agreement_grid():
    lams = np.linspace(0.05, 0.5, 12)
    rhos = np.linspace(0.005, 0.335, 12)
    worst = 0.0
    for lam in lams:
        for rho in rhos:
            inp = BoundInput(float(lam), float(rho), 0.05)
            tr = fdr_bound(inp).terms
            ta = fdr_bound_aform(inp).terms
            for x, y in zip(tr, ta):
                worst = max(worst, abs(x - y) / abs(y))
    assert worst <= 1e-12

@given(st.floats(0.01, 0.5), st.floats(0.001, 0.343))
@settings(max_examples=150, deadline=None)
def test_termwise_agreement_property(lam, rho):
    inp = BoundInput(lam, rho, 0.05)
    for x, y in zip(fdr_bound(inp).terms, fdr_bound_aform(inp).terms):
        assert x == pytest.approx(y, rel=1e-12)


# ---------------------------------------------------------------------------
# curve table

def test_curve_ordering_and_monotonicity():
    lams = [0.05, 0.2, 0.35, 0.5]
    rhos = [0.3, 0.1, 0.2]          # deliberately unsorted on input
    rows = bound_curve(lams, rhos, 0.05)
    assert len(rows) == 12
    # lambda-major, rho ascending inside each lambda
    assert [r[0] for r in rows] == sorted([r[0] for r in rows])
    for i in range(0, 12, 3):
        block = rows[i:i + 3]
        assert [r[1] for r in block] == [0.1, 0.2, 0.3]
        assert block[0][3] < block[1][3] < block[2][3]
    # ratio decreasing in lambda at fixed rho
    at_rho = [r[3] for r in rows if r[1] == 0.2]
    assert all(x > y for x, y in zip(at_rho, at_rho[1:]))

def test_curve_rows_are_consistent():
    rows = bound_curve([0.5], [1e-6], 0.05)
    lam, rho, total, ratio = rows[0]
    assert (lam, rho) == (0.5, 1e-6)
    assert ratio == pytest.approx(total / 0.05, rel=1e-15)
    assert abs(ratio - 2.013) <= 0.005

def test_curve_propagates_domain_error():
    with pytest.raises(DomainError):
        bound_curve([0.5], [0.35], 0.05)

def test_curve_names_every_bad_rho():
    with pytest.raises(DomainError, match=r"^rho grid outside \(0, 0\.344247\): 0\.35, -0\.1$") as info:
        bound_curve([0.5], [0.1, 0.35, -0.1], 0.05)
    assert info.value.constraint == "rho"

"""Tests for the closed-form FDR bound and its building blocks.

The two parameterizations of the bound act as each other's oracle (they share
no algebra beyond the substitution), frozen literals pin hand-derived example
values, and naive textbook-style re-evaluations guard the cancellation-free
rewrites used in the implementation.
"""

import math
import sys
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from gbh_fdr import (
    BoundBreakdown,
    BoundInput,
    DomainError,
    SimConfig,
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
    run_mc_conditional,
    sup_f,
)
from gbh_fdr import bound
from gbh_fdr.normal import SQRT_2PI


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

@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_functions_of_the_shared_factor_refuse_a_non_finite_one(x0):
    # One rule, bound._finite_x0, for every function of x0; the cap's
    # (a, b) form refuses a non-finite b the same way.  Nothing may warn.
    calls = {"ab_from_rho": lambda: ab_from_rho(0.2, x0),
             "m_factor": lambda: m_factor(0.2, x0),
             "p_lower": lambda: p_lower(0.5, 0.2, x0),
             "exact_p_conditional": lambda: exact_p_conditional(0.5, 0.2, x0),
             "sup_f": lambda: sup_f(0.2, x0)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls.items():
            with pytest.raises(DomainError, match=rf"^x0={x0} must be finite$") as e:
                call()
            assert e.value.constraint == "x0", name
        with pytest.raises(DomainError, match=rf"^b={x0} must be finite$") as e:
            m_factor_ab(1.2, x0)
        assert e.value.constraint == "b"

@pytest.mark.parametrize("x0, message", [(True, "x0: True is a bool, not a number"),
                                         ("1", "x0='1' must be a real number")])
def test_functions_of_the_shared_factor_refuse_a_bool_or_a_non_real_one(x0, message):
    # float() would read True as 1.0 and "1" as 1.0, and the functions that
    # multiply by x0 would then compute with the raw argument.
    cfg = SimConfig(m=4, group_sizes=(4,), nonnull_counts=(0,), rho=0.2, replications=2)
    calls = {"ab_from_rho": lambda: ab_from_rho(0.2, x0),
             "m_factor": lambda: m_factor(0.2, x0),
             "p_lower": lambda: p_lower(0.5, 0.2, x0),
             "exact_p_conditional": lambda: exact_p_conditional(0.5, 0.2, x0),
             "sup_f": lambda: sup_f(0.2, x0),
             "run_mc_conditional": lambda: run_mc_conditional(cfg, x0)}
    for name, call in calls.items():
        with pytest.raises(DomainError) as e:
            call()
        assert (str(e.value), e.value.constraint) == (message, "x0"), name


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

# Panel edges for the integral over the shared factor.  For x0 > 0 the
# integrand decays like exp(-c x0^2), with c = 0.046 at rho = 0.3 and c -> 0
# at rho_max(), so the panels reach 30 and rho stays <= 0.3.
SHARED_FACTOR_CUTS = (-40.0, -12.0, 0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0,
                      20.0, 25.0, 30.0)

@pytest.mark.parametrize("lam", [0.05, 0.25, 0.5])
@pytest.mark.parametrize("rho", [0.01, 0.1, 0.2, 0.3])
def test_bound_is_the_integral_over_the_shared_factor(lam, rho):
    # B = alpha (1 - lambda) E[m_factor(rho, X0) / p_lower(lambda, rho, X0)]
    # with X0 ~ N(0, 1): the closed form against quadrature of its integrand.
    def integrand(x0):
        return m_factor(rho, x0) / p_lower(lam, rho, x0) * phi(x0)
    expectation = math.fsum(
        scipy.integrate.quad(integrand, lo, hi, epsrel=1e-13, limit=400)[0]
        for lo, hi in zip(SHARED_FACTOR_CUTS, SHARED_FACTOR_CUTS[1:]))
    for alpha in (0.05, 0.1):
        assert fdr_bound(BoundInput(lam=lam, rho=rho, alpha=alpha)).total == pytest.approx(
            alpha * (1.0 - lam) * expectation, rel=1e-10)

@pytest.mark.parametrize("nonnull_counts", [(0, 0, 0, 0), (10, 10, 0, 0)],
                         ids=["all null", "signals"])
@pytest.mark.parametrize("rho", [0.1, 0.3])
def test_conditional_fdr_is_under_the_ceiling_pointwise(rho, nonnull_counts):
    # E[FDP | x0] <= alpha (1 - lambda) m_factor(rho, x0) / p_lower(lambda, rho, x0),
    # the integrand above, by run_mc_conditional within 4 SE.  The seed was
    # fixed before the first run; a miss is a finding, not a reason to re-seed.
    lam, alpha = 0.5, 0.05
    cfg = SimConfig(m=200, group_sizes=(50, 50, 50, 50), nonnull_counts=nonnull_counts,
                    effect_mu=3.0, rho=rho, lam=lam, alpha=alpha, replications=2000,
                    seed=20261020)
    for x0 in (-2.0, 0.0, 1.0, 2.0, 3.0, 4.0):
        s = run_mc_conditional(cfg, x0)
        ceiling = alpha * (1.0 - lam) * m_factor(rho, x0) / p_lower(lam, rho, x0)
        assert s.fdr_hat <= ceiling + 4.0 * s.fdr_se, (x0, s.fdr_hat, s.fdr_se, ceiling)

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

@pytest.mark.parametrize("alpha", [5e-324, 1e-320, math.ulp(0.0) * 2 ** 51])
def test_a_subnormal_alpha_is_refused_by_one_rule(alpha):
    # Every term is scaled by alpha*(1-lambda): below the smallest normal
    # float it would keep a few significant bits, and the ratio would drift.
    assert 0.0 < alpha < sys.float_info.min
    message = rf"^alpha={alpha!r} is below the smallest normal float 2\.2250738585072014e-308$"
    for evaluate in (lambda: bound.check_point(0.5, 0.1, alpha),
                     lambda: fdr_bound(BoundInput(0.5, 0.1, alpha)),
                     lambda: fdr_bound_aform(BoundInput(0.5, 0.1, alpha)),
                     lambda: bound_curve([0.5], [0.1], alpha)):
        with pytest.raises(DomainError, match=message) as refused:
            evaluate()
        assert refused.value.constraint == "alpha"
    assert not in_theorem_domain(0.5, 0.1, alpha)
    smallest = sys.float_info.min
    assert in_theorem_domain(0.5, 0.1, smallest)
    assert fdr_bound(BoundInput(0.5, 0.1, smallest)).total / smallest == pytest.approx(
        fdr_bound(BoundInput(0.5, 0.1, 0.05)).total / 0.05, rel=1e-14)

def test_in_theorem_domain_flag():
    assert in_theorem_domain(0.5, 0.1, 0.05)
    assert in_theorem_domain(0.5, 0.34, 0.05)
    assert not in_theorem_domain(0.6, 0.1, 0.05)
    assert not in_theorem_domain(0.5, 0.35, 0.05)
    assert not in_theorem_domain(0.5, 0.1, 1.0)


# ---------------------------------------------------------------------------
# the two parameterizations agree termwise

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
# one remembered quantile(1 - lambda)
#
# The four functions of lambda as they were when each looked up
# norm_quantile(1.0 - lam) itself: the oracle for the shared, remembering
# lookup.

def _old_validate_point(lam, rho, alpha, allow_out_of_domain):
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha", f"alpha={alpha} outside (0, 1)")
    cap = rho_max()
    if not (0.0 < rho < cap):
        raise DomainError("rho", f"rho={rho} outside (0, {cap:.6f}); the bound's "
                                 "integrals are finite only below the cubic root")
    ok = 0.0 < lam < 1.0 if allow_out_of_domain else 0.0 < lam <= 0.5
    if not ok:
        raise DomainError("lambda", f"lambda={lam} outside " + (
            "(0, 1)" if allow_out_of_domain else
            "(0, 0.5] (pass the out-of-domain override to explore lambda > 1/2)"))

def _old_fdr_bound(inp, *, allow_out_of_domain=False):
    lam, rho, alpha = inp.lam, inp.rho, inp.alpha
    _old_validate_point(lam, rho, alpha, allow_out_of_domain)
    s = math.sqrt(1.0 - rho)
    one_minus_s = rho / (1.0 + s)
    c = (3.0 + s) / (2.0 - 5.0 * rho - rho * s)
    q = norm_quantile(1.0 - lam)
    pref = alpha * (1.0 - lam)
    sqrt_rho = math.sqrt(rho)
    t1 = pref / (2.0 * s * norm_cdf(q / s))
    t2 = pref * (SQRT_2PI / 2.0) * math.sqrt((1.0 - rho) / (1.0 - 2.0 * rho))
    t3 = pref * (SQRT_2PI / 2.0) * one_minus_s * math.sqrt(c)
    t4 = pref * (SQRT_2PI / 8.0) * (1.0 - rho) * (1.0 + s) * c ** 1.5
    t5 = pref * math.sqrt(rho * (1.0 - rho)) / (1.0 - 2.0 * rho)
    t6 = pref * sqrt_rho * one_minus_s * c
    t7 = pref * 0.5 * sqrt_rho * (1.0 - rho) * (1.0 + s) * c * c
    terms = (t1, t2, t3, t4, t5, t6, t7)
    return BoundBreakdown(terms=terms, total=math.fsum(terms))

def _old_fdr_bound_aform(inp, *, allow_out_of_domain=False):
    lam, rho, alpha = inp.lam, inp.rho, inp.alpha
    _old_validate_point(lam, rho, alpha, allow_out_of_domain)
    a = 1.0 / math.sqrt(1.0 - rho)
    a2m1 = a * a - 1.0
    two_minus_a2 = 2.0 - a * a
    cubic = 5.0 * a + 1.0 - 3.0 * a ** 3 - a * a
    big_q = a2m1 * (3.0 * a + 1.0) / cubic
    sqrt_a2m1 = math.sqrt(a2m1)
    q = norm_quantile(1.0 - lam)
    pref = alpha * (1.0 - lam)
    t1 = pref * a / (2.0 * norm_cdf(a * q))
    t2 = pref * SQRT_2PI / (2.0 * math.sqrt(two_minus_a2))
    t3 = pref * (a - 1.0) * (SQRT_2PI / 2.0) * math.sqrt((3.0 * a + 1.0) / cubic)
    t4 = pref * SQRT_2PI / (8.0 * (a - 1.0) * sqrt_a2m1) * big_q ** 1.5
    t5 = pref * sqrt_a2m1 / two_minus_a2
    t6 = pref * (a - 1.0) * sqrt_a2m1 * (3.0 * a + 1.0) / cubic
    t7 = pref * big_q * big_q / (2.0 * (a - 1.0) * sqrt_a2m1)
    terms = (t1, t2, t3, t4, t5, t6, t7)
    return BoundBreakdown(terms=terms, total=math.fsum(terms))

def _old_p_lower(lam, rho, x0):
    if not (0.0 < lam <= 0.5):
        raise DomainError("lambda", f"lambda={lam} outside (0, 0.5]")
    a, b = ab_from_rho(rho, x0)
    if b >= 0.0:
        return norm_cdf(a * norm_quantile(1.0 - lam))
    return phi(-b) / (1.0 - b)

def _old_exact_p_conditional(lam, rho, x0):
    if not (0.0 < lam < 1.0):
        raise DomainError("lambda", f"lambda={lam} outside (0, 1)")
    a, b = ab_from_rho(rho, x0)
    return norm_cdf(a * norm_quantile(1.0 - lam) + b)

def _bits(value):
    """A value as its type and exact bits, recursing into breakdowns and tuples."""
    if isinstance(value, BoundBreakdown):
        return ("breakdown", _bits(value.terms), _bits(value.total))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return type(value), np.asarray(value, dtype=np.float64).tobytes()

def _outcome(fn, *args, **kwargs):
    """fn's result as bits, or its error's type and message."""
    try:
        return "value", _bits(fn(*args, **kwargs))
    except Exception as exc:  # every error is compared, whatever its type
        return "error", type(exc), str(exc)

LAMBDA_KINDS = {"float": float, "np.float64": np.float64, "0-d array": np.array}

# A few shared levels, so that draws revisit a lambda after others, plus the
# edges and any float at all.
_lambdas = st.one_of(st.sampled_from([0.05, 0.1, 0.25, 0.5, 0.7, 0.0, 1.0, 1.5, -0.1]),
                     st.floats(allow_nan=True, allow_infinity=True))

@given(st.lists(st.tuples(_lambdas, st.sampled_from(sorted(LAMBDA_KINDS))),
                min_size=1, max_size=12),
       st.sampled_from([0.001, 0.1, 0.3, 0.344, 0.5]), st.floats(-4.0, 4.0),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_the_remembered_upper_quantile_changes_no_bit(draws, rho, x0, force):
    for raw, kind in draws:
        lam = LAMBDA_KINDS[kind](raw)
        assert _outcome(bound._upper_quantile, lam) == _outcome(norm_quantile, 1.0 - lam)
        inp = BoundInput(lam, rho, 0.05)
        assert (_outcome(fdr_bound, inp, allow_out_of_domain=force)
                == _outcome(_old_fdr_bound, inp, allow_out_of_domain=force))
        assert (_outcome(fdr_bound_aform, inp, allow_out_of_domain=force)
                == _outcome(_old_fdr_bound_aform, inp, allow_out_of_domain=force))
        assert _outcome(p_lower, lam, rho, x0) == _outcome(_old_p_lower, lam, rho, x0)
        assert (_outcome(exact_p_conditional, lam, rho, x0)
                == _outcome(_old_exact_p_conditional, lam, rho, x0))

def test_the_upper_quantile_is_looked_up_at_each_miss(monkeypatch):
    seen = []

    def counted(p):
        seen.append(p)
        return norm_quantile(p)

    bound._float_quantile.cache_clear()
    monkeypatch.setattr(bound, "norm_quantile", counted)
    for lam in (0.1, 0.1, np.float64(0.1), np.array(0.1), 0.2, 0.1, 0.1):
        fdr_bound(BoundInput(lam, 0.2, 0.05))
    assert seen == [0.9, 0.8, 0.9]


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

def test_curve_points_refuses_the_grid_before_it_is_returned(monkeypatch):
    def trap(*args, **kwargs):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(bound, "fdr_bound", trap)
    # every bad rho is named before the bad lambda and the bad alpha
    with pytest.raises(DomainError, match=r"^rho grid outside \(0, 0\.344247\): 0\.35, -0\.1$"):
        bound.curve_points([0.1, 0.7], [0.1, 0.35, -0.1], 1.5)
    # alpha at the first lambda, then each lambda in turn, with no override named
    with pytest.raises(DomainError, match=r"^alpha=1\.5 outside \(0, 1\)$"):
        bound.curve_points([0.1, 0.7], [0.2, 0.1], 1.5)
    with pytest.raises(DomainError, match=r"^lambda=0\.7 outside \(0, 0\.5\]$") as info:
        bound.curve_points([0.1, 0.7, 0.2], [0.2, 0.1], 0.05)
    assert info.value.constraint == "lambda"
    with pytest.raises(DomainError, match=r"^lambda=0\.7 outside \(0, 0\.5\]$"):
        bound_curve([0.1, 0.7], [0.1], 0.05)

def test_curve_points_is_lazy_and_lambda_major():
    points = bound.curve_points(iter([0.5, 0.1]), [0.3, 0.1, 0.3], 0.05)
    assert iter(points) is points
    assert list(points) == [(0.5, 0.1), (0.5, 0.3), (0.5, 0.3),
                            (0.1, 0.1), (0.1, 0.3), (0.1, 0.3)]

@pytest.mark.parametrize("lams, rhos", [([], [0.1]), ([0.7, math.nan], []), ([], [])])
def test_an_empty_curve_grid_yields_nothing_and_checks_no_lambda(lams, rhos):
    assert list(bound.curve_points(lams, rhos, 1.5)) == []
    assert bound_curve(lams, rhos, 1.5) == []

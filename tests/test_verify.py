"""Tests for the numerical audit layer.

The tail-ratio scanner and quadrature oracle are checked against independent
evaluations (continued-fraction tails, closed forms, analytic limits), and
the audit sections are pinned to their known findings: the x0 > 0 cap is
genuinely exceeded (that is a recorded result, not a bug), the identity
residuals are nonzero, and everything is deterministic.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from gbh_fdr import (
    DomainError,
    QuadratureError,
    SectionResult,
    SimConfig,
    VerifyReport,
    check_loo_expectation,
    check_rejection_expectation,
    exact_p_conditional,
    f_ratio,
    integrals_closed,
    m_factor,
    mvt_residual,
    quad_integrals,
    sup_f,
)
from gbh_fdr import verify
from gbh_fdr.verify import (
    INTEGRAL_AS,
    run_integrals_section,
    run_lemmas_section,
    run_m_bound_section,
    run_mvt_section,
)
from oracles import loo_sides_exact, tail_by_continued_fraction as tail_cf


# ---------------------------------------------------------------------------
# tail ratio

def test_f_ratio_is_one_at_crossover():
    for a, b in ((1.118033988749895, -1.0), (1.2, -0.7), (1.05, 0.4), (1.3, -2.5)):
        x = -b / (a - 1.0)
        assert f_ratio(a, b, x) == pytest.approx(1.0, abs=1e-9)

def test_f_ratio_tends_to_one_far_left():
    assert f_ratio(1.118033988749895, -1.0, -12.0) == pytest.approx(1.0, abs=1e-6)

def test_f_ratio_frozen_deep_tail_point():
    a = 1.0 / math.sqrt(0.8)
    v = f_ratio(a, -1.0, 3.5)
    assert v == pytest.approx(7.691176322313628, rel=1e-12)
    # independent oracle: continued-fraction evaluation of both tails
    oracle = tail_cf(a * 3.5 - 1.0) / tail_cf(3.5)
    assert v == pytest.approx(oracle, rel=1e-10)

def test_f_ratio_below_one_past_crossover():
    a, b = 1.2, -0.6
    cross = -b / (a - 1.0)
    for x in (cross + 0.1, cross + 1.0, cross + 5.0, cross + 20.0):
        assert f_ratio(a, b, x) < 1.0

def test_f_ratio_above_one_before_crossover():
    a, b = 1.2, -0.6
    cross = -b / (a - 1.0)
    for x in (cross - 0.1, cross - 1.0, cross - 5.0):
        assert f_ratio(a, b, x) > 1.0

def test_f_ratio_vectorized_and_validated():
    xs = np.array([-1.0, 0.0, 2.0])
    out = f_ratio(1.2, -0.5, xs)
    assert out.shape == xs.shape
    for i, x in enumerate(xs):
        assert out[i] == f_ratio(1.2, -0.5, float(x))
    with pytest.raises(ValueError):
        f_ratio(1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# supremum scan

def test_sup_f_frozen_at_known_violation_point():
    sup, x_at = sup_f(0.2, 2.0)
    assert sup == pytest.approx(8.218400306417955, rel=1e-9)
    assert x_at == pytest.approx(4.268249737301, abs=1e-5)
    # the cap claimed for this point sits well below the true supremum
    assert sup - m_factor(0.2, 2.0) == pytest.approx(1.3026977314532475, rel=1e-8)

def test_sup_f_nonpositive_x0_within_provable_cap():
    for rho in (0.05, 0.2, 0.3):
        a = 1.0 / math.sqrt(1.0 - rho)
        for x0 in (-4.0, -1.0, 0.0):
            sup, _ = sup_f(rho, x0)
            assert 1.0 <= sup <= min(2.0, a) + 1e-6

def test_sup_f_small_rho_limit_positive_x0():
    # the supremum tends to exp(x0^2/2) as the correlation vanishes -- above
    # the cap's own limit 1 + (x0^2/2)exp(x0^2/4) for every positive x0
    for x0 in (0.5, 1.0, 2.0):
        sup, _ = sup_f(1e-6, x0)
        assert sup == pytest.approx(math.exp(0.5 * x0 * x0), rel=1e-3)
        u = 0.5 * x0 * x0
        assert math.exp(u) > 1.0 + u * math.exp(0.5 * u)

def test_sup_f_small_rho_at_zero_x0():
    sup, _ = sup_f(1e-6, 0.0)
    assert 1.0 <= sup <= 1.001

def test_sup_f_deterministic():
    assert sup_f(0.25, 1.5) == sup_f(0.25, 1.5)

def test_sup_f_domain_error():
    with pytest.raises(DomainError):
        sup_f(0.4, 1.0)


# ---------------------------------------------------------------------------
# identity residual

def test_mvt_residual_zero_point():
    for a in (1.05, 1.2, 1.118033988749895, 2.0):
        assert abs(mvt_residual(a, 0.0, 0.0)) <= 1e-15

def test_mvt_residual_frozen_nonzero_values():
    r1 = mvt_residual(1.2, -0.5, 0.0)
    assert r1 == pytest.approx(0.002923003380760736, rel=1e-12)
    assert r1 == pytest.approx(0.003, abs=2e-4)
    r2 = mvt_residual(2.0, 0.0, 1.0)
    assert r2 == pytest.approx(-0.028104952692715846, rel=1e-12)
    assert r2 == pytest.approx(-0.028, abs=2e-3)

def test_mvt_residual_validates_a():
    with pytest.raises(ValueError):
        mvt_residual(0.9, 0.0, 0.0)


# ---------------------------------------------------------------------------
# quadrature oracle

def test_quad_matches_closed_all_configured_points():
    for a in INTEGRAL_AS:
        closed = integrals_closed(a)
        numeric = quad_integrals(a)
        for cv, nv in zip(closed, numeric):
            assert nv == pytest.approx(cv, rel=1e-6)

def test_quad_frozen_gaussian_tail_integral():
    # seventh integral at a=1.2: half of sqrt(a^2-1)
    assert quad_integrals(1.2)[6] == pytest.approx(0.5 * math.sqrt(0.44), rel=1e-9)
    assert quad_integrals(1.2)[6] == pytest.approx(0.3317, abs=1e-4)

def test_quad_propagates_named_domain_errors():
    with pytest.raises(DomainError) as e:
        quad_integrals(1.3)
    assert e.value.constraint == "cubic"
    with pytest.raises(DomainError):
        quad_integrals(0.9)

def test_quad_deterministic():
    assert quad_integrals(1.1) == quad_integrals(1.1)


def oracle_truncation_point(f, sign: float) -> float:
    # The cut taken one probe at a time: the scalar exp's bits can differ
    # from the array exp's in the last place, never enough to move a cut.
    probe = np.linspace(0.0, 40.0, 2001) * sign
    vals = np.abs(np.asarray([f(b) for b in probe], dtype=float))
    above = np.nonzero(vals >= 1e-16 * vals.max())[0]
    return float(abs(probe[min(int(above[-1]) + 1, probe.size - 1)]))


@pytest.mark.parametrize("a", list(INTEGRAL_AS) + np.linspace(1.005, 1.234, 50).tolist())
def test_truncation_point_matches_pointwise_oracle(a):
    for _, f, sign in verify._integrands(a):
        assert verify._truncation_point(f, sign) == oracle_truncation_point(f, sign)


# ---------------------------------------------------------------------------
# Monte Carlo expectation checks

def lemma_config(**kw) -> SimConfig:
    base = dict(m=20, group_sizes=(10, 10), nonnull_counts=(0, 0),
                rho=0.2, lam=0.5, alpha=0.05, procedure="gbh1",
                replications=5000, seed=20260822)
    base.update(kw)
    return SimConfig(**base)

def test_rejection_expectation_guards():
    with pytest.raises(ValueError):
        check_rejection_expectation(lemma_config(m=60, group_sizes=(30, 30)), 0.0, 0.01)
    with pytest.raises(ValueError):
        check_rejection_expectation(lemma_config(), 0.0, 0.0)
    all_alt = lemma_config(nonnull_counts=(10, 10))
    with pytest.raises(ValueError):
        check_rejection_expectation(all_alt, 0.0, 0.01)

def test_rejection_expectation_report_shape():
    rep = check_rejection_expectation(lemma_config(replications=2000), 2.0, 0.0025)
    assert rep.section == "lemma_expect_rejections"
    assert rep.grid == [(0.2, 2.0, 0.0025)]
    assert len(rep.observed) == len(rep.claimed) == len(rep.stderr) == 1
    assert rep.max_violation == rep.observed[0] - rep.claimed[0]

def test_rejection_expectation_trivial_large_c():
    # c = 1 makes the indicator certain whenever anything is rejected, so the
    # estimate is at most E[1/R] <= 1, far below the cap
    rep = check_rejection_expectation(lemma_config(replications=2000), 0.0, 1.0)
    assert rep.observed[0] <= 1.0
    assert rep.max_violation < 0.0

def test_rejection_expectation_independent_case():
    # with vanishing correlation the classical factor-1 result applies
    rep = check_rejection_expectation(
        lemma_config(rho=1e-9, replications=5000), 0.0, 0.0025)
    assert rep.observed[0] <= 0.0025 + 3.0 * rep.stderr[0]

def test_rejection_expectation_deterministic():
    a = check_rejection_expectation(lemma_config(replications=1000), 2.0, 0.05)
    b = check_rejection_expectation(lemma_config(replications=1000), 2.0, 0.05)
    assert a == b

def test_loo_expectation_guards():
    with pytest.raises(ValueError):
        check_loo_expectation(lemma_config(), 0.0, "exotic_h")

def test_loo_expectation_report_shape():
    rep = check_loo_expectation(lemma_config(replications=2000), 2.0, "paper_h")
    assert rep.section == "lemma_expect_loo"
    assert rep.grid == [(0.2, 2.0, "paper_h", 0)]
    assert len(rep.stderr) == 2
    assert rep.max_violation == rep.observed[0] - rep.claimed[0]

def test_loo_expectation_empty_group_sum():
    # a group with no nulls contributes an empty left side
    cfg = lemma_config(nonnull_counts=(10, 0), replications=500)
    rep = check_loo_expectation(cfg, 0.0, "paper_h")
    assert rep.observed == [0.0]
    assert rep.max_violation < 0.0

def brute_force_loo_sides(n_j: int, m: int, g: int, p_exceed: float, h_choice: str) -> tuple:
    """Both sides of the leave-one-out comparison, all null, by summing over
    every pattern of the m p-values at or below lambda (the first n_j form
    the group)."""
    q = 1.0 - p_exceed

    def h(r_group, r_all):
        return (r_group + 1.0) / (r_all + g) if h_choice == "paper_h" else 1.0

    left, right = [], []
    for below in itertools.product((0, 1), repeat=m):
        weight = q ** sum(below) * p_exceed ** (m - sum(below))
        r_j, r = sum(below[:n_j]), sum(below)
        left += [weight * h(r_j - d, r - d) / (n_j - r_j + d) for d in below[:n_j]]
        right.append(weight * h(r_j, r))
    return math.fsum(left), math.fsum(right) / p_exceed

@pytest.mark.parametrize("h_choice", ["paper_h", "constant_one"])
@pytest.mark.parametrize("p_exceed", [0.05, 0.3, 0.5, 0.9])
def test_loo_closed_form_equals_enumeration(p_exceed, h_choice):
    exact = loo_sides_exact(3, 5, 2, p_exceed, h_choice)
    assert exact == pytest.approx(brute_force_loo_sides(3, 5, 2, p_exceed, h_choice),
                                  rel=0, abs=1e-12)

def test_loo_reports_are_within_4_se_of_their_exact_values():
    # run_lemmas_section's desk config (m = 20, two groups of 10, lambda 0.5)
    # is all null, so both sides have closed forms given x0.  The default
    # seed and replications were fixed before the first run.
    loo = [rep for rep in run_lemmas_section().reports if rep.section == "lemma_expect_loo"]
    assert len(loo) == 4
    for rep in loo:
        [(rho, x0, h_choice, _)] = rep.grid
        left, right = loo_sides_exact(10, 20, 2, exact_p_conditional(0.5, rho, x0), h_choice)
        left_se, right_se = rep.stderr
        assert abs(rep.observed[0] - left) <= 4.0 * left_se, rep.grid
        if h_choice == "constant_one":  # the right side is exactly 1/P
            assert right_se == 0.0 and abs(rep.claimed[0] - right) <= 1e-12, rep.grid
        else:
            assert abs(rep.claimed[0] - right) <= 4.0 * right_se, rep.grid

def test_loo_expectation_independent_constant_h_analytic():
    """At vanishing correlation with h = 1 the left side has the closed form
    (1 - lambda^n)/(1 - lambda) and the cap is 1/(1 - lambda): satisfied with
    a gap of lambda^n/(1-lambda)."""
    rep = check_loo_expectation(
        lemma_config(rho=1e-9, replications=5000), 0.0, "constant_one")
    analytic = (1.0 - 0.5 ** 10) / 0.5
    assert rep.claimed[0] == pytest.approx(2.0, rel=1e-6)
    assert rep.observed[0] == pytest.approx(analytic, abs=4.0 * rep.stderr[0])
    assert rep.max_violation <= 3.0 * rep.stderr[0]

@pytest.mark.parametrize("check, args", [(check_rejection_expectation, (0.0, 0.01)),
                                         (check_loo_expectation, (0.0, "paper_h"))])
def test_expectation_checks_need_two_replications(monkeypatch, check, args):
    # One replication has no standard error: std(ddof=1) would be NaN.  The
    # traps show that the count is refused before anything is drawn or run.
    def trap(*a, **k):
        raise AssertionError("the audit drew or ran before refusing the count")
    with monkeypatch.context() as patched:
        for name in ("stream_uniforms", "gbh1"):
            patched.setattr(verify, name, trap)
        with pytest.raises(ValueError, match=r"^a Monte Carlo standard error needs at "
                                             r"least 2 replications, got 1$"):
            check(lemma_config(replications=1), *args)
    rep = check(lemma_config(replications=2), *args)
    assert all(math.isfinite(v) for v in rep.stderr)

@pytest.mark.parametrize("check, args", [(check_rejection_expectation, (0.0, 0.01)),
                                         (check_loo_expectation, (0.0, "paper_h"))])
def test_expectation_checks_refuse_a_matrix_over_the_element_budget(monkeypatch, check, args):
    # 419,431 x 40 is 24 elements over 2^24; the trap shows nothing is drawn.
    def trap(*_):
        raise AssertionError("an over-budget matrix reached the sampler")
    monkeypatch.setattr(verify, "stream_uniforms", trap)
    cfg = lemma_config(m=40, group_sizes=(20, 20), replications=419_431)
    with pytest.raises(ValueError, match=r"^replications x m = 419431 x 40 exceeds "
                                         r"16777216 array elements$"):
        check(cfg, *args)

@pytest.mark.parametrize("check, args", [(check_rejection_expectation, (0.01,)),
                                         (check_loo_expectation, ("paper_h",))])
@pytest.mark.parametrize("rho", [0.0, 0.1])
@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_expectation_checks_reject_a_non_finite_x0_before_drawing(monkeypatch, check, args,
                                                                  rho, x0):
    def trap(*_):
        raise AssertionError("a non-finite x0 reached the sampler")
    monkeypatch.setattr(verify, "stream_uniforms", trap)
    with pytest.raises(ValueError, match=rf"^x0={x0} must be finite$"):
        check(lemma_config(rho=rho, replications=10), x0, *args)

@pytest.mark.parametrize("rho", [0.0, 0.35])
def test_rejection_expectation_refuses_an_out_of_domain_rho_before_drawing(monkeypatch, rho):
    # The cap's domain check comes before the draw and the gbh1 calls.
    def trap(*_):
        raise AssertionError("an out-of-domain rho reached the sampler")
    monkeypatch.setattr(verify, "stream_uniforms", trap)
    monkeypatch.setattr(verify, "gbh1", trap)
    with pytest.raises(DomainError, match=rf"^rho={rho} outside \(0, 0\.344247\)$"):
        check_rejection_expectation(lemma_config(rho=rho, replications=10), 0.0, 0.01)

def test_loo_expectation_deterministic():
    a = check_loo_expectation(lemma_config(replications=1000), 0.0, "paper_h")
    b = check_loo_expectation(lemma_config(replications=1000), 0.0, "paper_h")
    assert a == b


# ---------------------------------------------------------------------------
# section runners

def test_integrals_section_passes():
    sec = run_integrals_section()
    assert sec.asserted_pass
    assert sec.failures == []
    rep = sec.reports[0]
    assert rep.section == "integrals"
    assert len(rep.grid) == 7 * len(INTEGRAL_AS)
    assert rep.max_violation < 0.0          # every relative error under 1e-6
    assert rep.max_violation == max(o - c for o, c in zip(rep.observed, rep.claimed))

def test_m_bound_section_records_positive_violations():
    sec = run_m_bound_section()
    assert sec.asserted_pass                 # crossover + x0<=0 branch hold
    rep = sec.reports[0]
    assert rep.section == "m_bound"
    # the known finding at (rho=0.2, x0=2)
    i = rep.grid.index((0.2, 2.0))
    assert rep.observed[i] == pytest.approx(8.218400306417955, rel=1e-9)
    assert rep.claimed[i] == pytest.approx(6.915702574964707, rel=1e-12)
    # the scan's largest exceedance, at the far corner of the grid
    assert rep.max_violation == pytest.approx(3135.433689372135, rel=1e-6)
    j = int(np.argmax(np.array(rep.observed) - np.array(rep.claimed)))
    assert rep.grid[j] == (0.3, 4.0)
    # the provable branch stays below its cap everywhere on the grid
    for (rho, x0), obs in zip(rep.grid, rep.observed):
        if x0 <= 0.0:
            assert obs <= min(2.0, 1.0 / math.sqrt(1.0 - rho)) + 1e-6

def test_mvt_section_records_nonzero_residuals():
    sec = run_mvt_section()
    assert sec.asserted_pass
    rep = sec.reports[0]
    assert rep.section == "mvt_identity"
    assert rep.max_violation == pytest.approx(0.19824239885847705, rel=1e-9)
    assert all(c == 0.0 for c in rep.claimed)
    assert all(o >= 0.0 for o in rep.observed)

def test_sections_deterministic():
    assert run_m_bound_section() == run_m_bound_section()
    assert run_mvt_section() == run_mvt_section()

def test_lemmas_section_structure():
    sec = run_lemmas_section(replications=1000)
    assert sec.asserted_pass
    assert len(sec.reports) == 7
    sections = [r.section for r in sec.reports]
    assert sections[:3] == ["lemma_expect_rejections"] * 3
    assert sections[3:6] == ["lemma_expect_loo"] * 3
    assert sections[6] == "lemma_expect_loo"
    assert all(r.stderr is not None for r in sec.reports)

def test_quadrature_error_is_runtime_error():
    assert issubclass(QuadratureError, RuntimeError)


# ---------------------------------------------------------------------------
# report records

def test_report_derives_max_violation_and_section_derives_its_pass():
    rep = VerifyReport(section="s", grid=[(0.1, 1.0), (0.2, 1.0)],
                       observed=[1.0, 5.0], claimed=[2.0, 3.0])
    assert rep.max_violation == 2.0
    assert list(dataclasses.asdict(rep)) == ["section", "grid", "observed", "claimed",
                                             "max_violation", "stderr", "notes"]
    with pytest.raises(TypeError):
        VerifyReport(section="s", grid=[], observed=[], claimed=[], max_violation=0.0)
    assert SectionResult(reports=[rep]).asserted_pass
    assert not SectionResult(reports=[rep], failures=["broken"]).asserted_pass
    with pytest.raises(TypeError):
        SectionResult(reports=[rep], asserted_pass=True)

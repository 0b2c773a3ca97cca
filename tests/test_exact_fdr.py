"""The Monte Carlo engine against an exact all-null FDR.

tests/exact_fdr.py computes BH's all-null FDR exactly, by conditioning on the
shared factor as the paper's proof does.  Its own gates come first: it must
give alpha where the answer is known, and the quadrature must have converged.
Then run_mc must sit within 4 standard errors of it.  The seeds were fixed
before the first run; a miss is a finding, not something to re-seed.
"""

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import gammaln, xlog1py, xlogy

from exact_fdr import M_MAX, bh_all_null_fdr, bh_no_rejection_given_x0, bh_null_cdf
from gbh_fdr import SimConfig, run_mc


def no_rejection_by_moves(m, alpha, rho, x0):
    """The dynamic program one move at a time: from each state j to every
    j + i <= k - 1 with its binomial chance in log space.  The reference
    for the vectorized bh_no_rejection_given_x0; O(m^2) Python steps."""
    log_fact = gammaln(np.arange(m + 1) + 1.0)
    cdf = bh_null_cdf(np.arange(m + 1)[:, None] * alpha / m, rho, x0[None, :])
    state = np.zeros((x0.size, m + 1))
    state[:, 0] = 1.0
    for k in range(1, m + 1):
        above = 1.0 - cdf[k - 1]
        q = np.divide(cdf[k] - cdf[k - 1], above, out=np.ones_like(above),
                      where=above > 0.0)[:, None]
        new = np.zeros_like(state)
        for j in range(k):
            n, i = m - j, np.arange(k - j)
            log_pmf = (log_fact[n] - log_fact[i] - log_fact[n - i]
                       + xlogy(i, q) + xlog1py(n - i, -q))
            new[:, j:k] += state[:, j:j + 1] * np.exp(log_pmf)
        state = new
    return state.sum(axis=1)

@pytest.mark.parametrize("m", [1, 5, 20, 200])
@pytest.mark.parametrize("rho", [0.0, 0.1, 0.3])
def test_the_vectorized_program_equals_the_one_move_at_a_time(m, rho):
    # Six of the 80 nodes bh_all_null_fdr integrates over, both ends among them.
    x0 = hermegauss(80)[0][[0, 20, 39, 40, 59, 79]]
    np.testing.assert_allclose(bh_no_rejection_given_x0(m, 0.05, rho, x0),
                               no_rejection_by_moves(m, 0.05, rho, x0), rtol=0.0, atol=1e-12)

def test_the_program_refuses_an_m_where_it_could_overflow():
    # Past M_MAX a state times a move chance can pass the largest double, and
    # inf * 0 would return nan, which no `not (fdr > bound)` check catches.
    x0 = hermegauss(80)[0][[0, 79]]
    with pytest.raises(ValueError, match="above 350"):
        bh_no_rejection_given_x0(M_MAX + 1, 0.05, 0.1, x0)
    with pytest.raises(ValueError, match="above 350"):
        bh_all_null_fdr(M_MAX + 1, 0.05, 0.1)


def test_exact_bh_fdr_is_alpha_under_independence():
    # BH's all-null FDR under independence is exactly alpha.
    for m in (1, 5, 20):
        for alpha in (0.05, 0.1):
            assert abs(bh_all_null_fdr(m, alpha, 0.0) - alpha) < 1e-9

def test_exact_bh_fdr_of_one_hypothesis_is_alpha_at_any_rho():
    # A single null p-value is uniform marginally, so P(p <= alpha) = alpha:
    # this checks the integral over x0, not only the recursion.
    for rho in (0.05, 0.1, 0.3):
        assert abs(bh_all_null_fdr(1, 0.05, rho) - 0.05) < 1e-9

@pytest.mark.parametrize("rho", [0.05, 0.1, 0.3])
def test_exact_bh_fdr_does_not_move_when_the_nodes_double(rho):
    assert abs(bh_all_null_fdr(20, 0.05, rho, nodes=160)
               - bh_all_null_fdr(20, 0.05, rho, nodes=80)) < 1e-6

def test_exact_bh_fdr_falls_below_alpha_under_positive_correlation():
    # Equicorrelated one-sided normals with rho >= 0 are PRDS, so BH keeps its
    # FDR at or below alpha; at m = 20 it falls as rho grows.
    values = [bh_all_null_fdr(20, 0.05, rho) for rho in (0.05, 0.1, 0.3)]
    assert 0.05 > values[0] > values[1] > values[2] > 0.04
    assert abs(values[1] - 0.0493694) < 1e-7

@pytest.mark.parametrize("rho, alpha, seed", [
    (0.01, 0.05, 11),
    (0.05, 0.05, 12),
    (0.1, 0.05, 13),
    (0.2, 0.05, 14),
    (0.3, 0.05, 15),
    (0.3, 0.1, 16),
])
def test_run_mc_bh_is_within_4_se_of_the_exact_fdr(rho, alpha, seed):
    config = SimConfig(m=20, group_sizes=(10, 10), nonnull_counts=(0, 0), rho=rho,
                       alpha=alpha, procedure="bh", replications=20_000, seed=seed)
    summary = run_mc(config)
    exact = bh_all_null_fdr(20, alpha, rho)
    assert abs(summary.fdr_hat - exact) < 4.0 * summary.fdr_se, (summary.fdr_hat, exact,
                                                                  summary.fdr_se)

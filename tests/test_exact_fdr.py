"""The Monte Carlo engine against an exact all-null FDR.

tests/exact_fdr.py computes BH's all-null FDR exactly, by conditioning on the
shared factor as the paper's proof does.  Its own gates come first: it must
give alpha where the answer is known, and the quadrature must have converged.
Then run_mc must sit within 4 standard errors of it.  The seeds were fixed
before the first run; a miss is a finding, not something to re-seed.
"""

import pytest

from exact_fdr import bh_all_null_fdr
from gbh_fdr import SimConfig, run_mc


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

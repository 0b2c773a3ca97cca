"""Exact all-null FDR of BH in the equicorrelated one-sided normal model.

A test helper, not part of the package.  With every hypothesis null the FDP
is 1 whenever anything is rejected, so the FDR is P(R > 0).  Given the
shared factor X0 = x0 the p-values are iid with

    F(t | x0) = 1 - ndtr(a*ndtri(1 - t) + b*x0),
    a = 1/sqrt(1 - rho),  b = -sqrt(rho/(1 - rho)),

the conditioning step of the paper's proof.  BH at level alpha rejects
nothing exactly when N(t_k) <= k - 1 for every k, with t_k = k*alpha/m and
N(t) the number of p-values at or below t.  Given N(t_{k-1}) = j, the other
m - j p-values are iid above t_{k-1}, so N(t_k) - j is
Binomial(m - j, (F_k - F_{k-1})/(1 - F_{k-1})).  A dynamic program over k
carries P(N(t_k) = j, nothing rejected so far) for j <= k - 1, and
Gauss-Hermite nodes integrate P(R > 0 | x0) against the standard normal
density of x0.
"""

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import gammaln, ndtr, ndtri, xlog1py, xlogy


def bh_null_cdf(t, rho: float, x0):
    """F(t | x0): the chance that one null p-value is at or below t given
    X0 = x0, broadcast over t and x0."""
    a = 1.0 / math.sqrt(1.0 - rho)
    b = -math.sqrt(rho / (1.0 - rho))
    return 1.0 - ndtr(a * ndtri(1.0 - np.asarray(t)) + b * np.asarray(x0))


def bh_no_rejection_given_x0(m: int, alpha: float, rho: float, x0) -> np.ndarray:
    """P(BH rejects nothing | X0 = x0) for each entry of the 1-d array x0."""
    x0 = np.asarray(x0, dtype=float)
    log_fact = gammaln(np.arange(m + 1) + 1.0)
    t = np.arange(m + 1) * alpha / m                      # t_0 = 0, ..., t_m = alpha
    cdf = bh_null_cdf(t[:, None], rho, x0[None, :])      # (m + 1, nodes)
    state = np.zeros((x0.size, m + 1))                    # P(N(t_k) = j, none rejected)
    state[:, 0] = 1.0
    for k in range(1, m + 1):
        above = 1.0 - cdf[k - 1]
        # Where F_{k-1} rounds to 1, every surviving state already holds
        # negligible mass; q = 1 keeps the step finite without a 0/0.
        q = np.divide(cdf[k] - cdf[k - 1], above, out=np.ones_like(above),
                      where=above > 0.0)[:, None]
        new = np.zeros_like(state)
        for j in range(k):                                # states allowed after step k - 1
            n, i = m - j, np.arange(k - j)                # land on j + i <= k - 1
            log_pmf = (log_fact[n] - log_fact[i] - log_fact[n - i]
                       + xlogy(i, q) + xlog1py(n - i, -q))
            new[:, j:k] += state[:, j:j + 1] * np.exp(log_pmf)
        state = new
    return state.sum(axis=1)


def bh_all_null_fdr(m: int, alpha: float, rho: float, nodes: int = 80) -> float:
    """The exact FDR of BH at level alpha on m null p-values at correlation
    rho: one minus E[P(no rejection | X0)], by Gauss-Hermite quadrature."""
    x0, w = hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    return float(1.0 - w @ bh_no_rejection_given_x0(m, alpha, rho, x0))

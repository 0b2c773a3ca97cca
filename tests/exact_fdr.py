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

With q that step's chance, a move from j to l = j + i has chance

    C(m - j, i) q^i (1 - q)^(m - l) = (a_j / a_l) b_i (1 - q)^(m - l),
    a_j = m^j (m - j)! / m!,  b_i = (q m)^i / i!,

so the program carries each state times a_j, and a step is a convolution
with b followed by a factor per landing state: one product of every state
with a Toeplitz matrix of b, for all nodes at once.  a_j grows from 1 to
below e^m and b_i is at most e^(q m), so up to m = M_MAX = 350 nothing
overflows, and a larger m is refused; a b_i that underflows bounds a move chance below the smallest double,
since a_j <= a_l.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import gammaln, ndtr, ndtri, xlog1py, xlogy

M_MAX = 350  # a_j b_i stays below e^(2m), which overflows past m = 354


def bh_null_cdf(t, rho: float, x0):
    """F(t | x0): the chance that one null p-value is at or below t given
    X0 = x0, broadcast over t and x0."""
    a = 1.0 / math.sqrt(1.0 - rho)
    b = -math.sqrt(rho / (1.0 - rho))
    return 1.0 - ndtr(a * ndtri(1.0 - np.asarray(t)) + b * np.asarray(x0))


def bh_no_rejection_given_x0(m: int, alpha: float, rho: float, x0) -> np.ndarray:
    """P(BH rejects nothing | X0 = x0) for each entry of the 1-d array x0."""
    if m > M_MAX:
        raise ValueError(f"m = {m} is above {M_MAX}, where the scaled program can overflow")
    x0 = np.asarray(x0, dtype=float)
    n = np.arange(m + 1)
    log_fact = gammaln(n + 1.0)
    t = n * alpha / m                                     # t_0 = 0, ..., t_m = alpha
    cdf = bh_null_cdf(t[:, None], rho, x0[None, :])      # (m + 1, nodes)
    log_a = log_fact[m - n] - log_fact[m] + n * math.log(m)
    scaled = np.zeros((x0.size, m))                       # a_j P(N(t_k) = j, none rejected)
    scaled[:, 0] = 1.0
    grow = np.zeros((x0.size, 2 * m - 1))                 # m - 1 zeros, then b_0, ..., b_{m-1}
    for k in range(1, m + 1):
        above = 1.0 - cdf[k - 1]
        # Where F_{k-1} rounds to 1, every surviving state already holds
        # negligible mass; q = 1 keeps the step finite without a 0/0.
        q = np.divide(cdf[k] - cdf[k - 1], above, out=np.ones_like(above),
                      where=above > 0.0)[:, None]
        grow[:, m - 1:m - 1 + k] = np.exp(xlogy(n[:k], q * m) - log_fact[:k])
        # toeplitz[:, l, i] = b_{l + i - (k - 1)}, zero where that index is
        # negative; it meets the states j = k - 1 - i, so it holds b_{l - j}.
        toeplitz = sliding_window_view(grow[:, m - k:m - 1 + k], k, axis=1)
        scaled[:, :k] = (np.exp(xlog1py(m - n[:k], -q))   # land on l <= k - 1
                         * np.einsum("nli,ni->nl", toeplitz, scaled[:, k - 1::-1]))
    return scaled @ np.exp(-log_a[:m])


def bh_all_null_fdr(m: int, alpha: float, rho: float, nodes: int = 80) -> float:
    """The exact FDR of BH at level alpha on m null p-values at correlation
    rho: one minus E[P(no rejection | X0)], by Gauss-Hermite quadrature."""
    x0, w = hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    return float(1.0 - w @ bh_no_rejection_given_x0(m, alpha, rho, x0))

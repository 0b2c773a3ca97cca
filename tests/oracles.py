"""Reference implementations that the tests compare the package against.

A test helper, not part of the package: each function here is a slow or
independent restatement of something the package computes, kept only so
that the tests can check the package's answer against it.
"""

import math

import numpy as np

from gbh_fdr.normal import _scalar_in, phi
from gbh_fdr.procedures import RejectionResult, _validate_alpha, _validate_scores


def step_up_oracle(scores, alpha: float) -> RejectionResult:
    """Brute-force reference for bh_step_up.

    Walks k = m, m-1, ..., 1 and takes the first k whose threshold k*alpha/m
    already covers at least k scores (a counting restatement of the sorted
    condition; it never sorts, so it shares no code path with bh_step_up).
    """
    s = _validate_scores(scores)
    _validate_alpha(alpha)
    m = s.size
    for k in range(m, 0, -1):
        t = k * alpha / m
        if int(np.count_nonzero(s <= t)) >= k:
            rejected = tuple(int(i) for i in np.nonzero(s <= t)[0])
            return RejectionResult(rejected=rejected, k_star=k, threshold=t,
                                   weighted_pvalues=s)
    return RejectionResult(rejected=(), k_star=0, threshold=0.0, weighted_pvalues=s)


def tail_lower_bound(x):
    """Strict lower bound 2*phi(x)/(sqrt(4+x^2)+x) on the upper tail, x >= 0.

    Sharper than the plain phi(x)/x bound near the origin; rejects x < 0.
    """
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any() or (arr < 0.0).any():
        raise ValueError("tail_lower_bound: x must be >= 0")
    out = 2.0 * phi(arr) / (np.sqrt(4.0 + arr * arr) + arr)
    return float(out) if _scalar_in(x) else out


def tail_by_continued_fraction(x: float, depth: int = 80) -> float:
    """Upper tail via the Mills-ratio continued fraction, accurate for x >= 2."""
    assert x >= 2.0
    acc = 0.0
    for k in range(depth, 0, -1):
        acc = k / (x + acc)
    dens = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return dens / (x + acc)


def loo_sides_exact(n_j: int, m: int, g: int, p_exceed: float, h_choice: str) -> tuple:
    """(left, right) of verify.check_loo_expectation's comparison for the
    first group, of n_j hypotheses out of m in g groups, all null.  Given x0
    each p-value is at or below lambda with chance q = 1 - p_exceed, so with
    A ~ Bin(n_j - 1, q), B ~ Bin(m - n_j, q) and R_j ~ Bin(n_j, q)
    independent, left = n_j E[h(A, A + B)/(n_j - A)] and right =
    E[h(R_j, R_j + B)]/p_exceed."""
    q = 1.0 - p_exceed

    def pmf(n):
        return [math.comb(n, k) * q ** k * p_exceed ** (n - k) for k in range(n + 1)]

    def h(r_group, r_all):
        return (r_group + 1.0) / (r_all + g) if h_choice == "paper_h" else 1.0

    p_a, p_b, p_r = pmf(n_j - 1), pmf(m - n_j), pmf(n_j)
    left = n_j * math.fsum(wa * wb * h(a, a + b) / (n_j - a)
                           for a, wa in enumerate(p_a) for b, wb in enumerate(p_b))
    right = math.fsum(wr * wb * h(r, r + b)
                      for r, wr in enumerate(p_r) for b, wb in enumerate(p_b)) / p_exceed
    return left, right

"""Closed-form FDR upper bound for the grouped adaptive procedure under
equicorrelated one-sided normal means.

Model: Y_i = mu_i + sqrt(1-rho)*X_i + sqrt(rho)*X0 with X0, X_i iid standard
normal and one-sided p-values p_i = 1 - cdf(Y_i).  Conditioning on the shared
factor X0 = x0 makes null p-values iid with
    Pr(p_i <= t | x0) = 1 - cdf(a*quantile(1-t) + b),
    a = 1/sqrt(1-rho),  b = -sqrt(rho/(1-rho)) * x0.

The bound is alpha*(1-lambda) times a sum of seven terms.  Terms 2-7 are
closed forms of six Gaussian-type integrals over the shared-factor scale b
(divided by sqrt(a^2-1), the Jacobian of b <-> x0); term 1 folds in a seventh
integral over b >= 0 against the conditional-probability floor.  The whole
expression is finite iff 2 - a^2 > 0 and 5a + 1 - 3a^3 - a^2 > 0; the latter
cubic's root pins the largest admissible correlation (rho_max, about 0.3439).

Two independently coded parameterizations are exposed: fdr_bound works in
(rho, sqrt(1-rho)) and fdr_bound_aform converts to a = 1/sqrt(1-rho) first
and works in a alone.  They must agree termwise to 1e-12 relative; the test
suite enforces this on a grid.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

from .normal import SQRT_2PI, norm_cdf, norm_quantile, phi


class DomainError(ValueError):
    """A bound evaluation outside its guarantee domain.

    constraint names the violated restriction ("lambda", "rho", "alpha",
    "a", "2-a^2", "cubic", "x0", "b").
    """

    def __init__(self, constraint: str, message: str):
        super().__init__(message)
        self.constraint = constraint


@dataclass(frozen=True)
class BoundInput:
    """Evaluation point (lambda, rho, alpha) for the FDR bound."""

    lam: float
    rho: float
    alpha: float


@dataclass(frozen=True)
class BoundBreakdown:
    """Seven bound terms (already scaled by alpha*(1-lambda)) and their sum."""

    terms: tuple
    total: float


def _cubic_in_a(a: float) -> float:
    """5a + 1 - 3a^3 - a^2; positive on (1, a*) and negative past the root a*."""
    return 5.0 * a + 1.0 - 3.0 * a ** 3 - a * a


@lru_cache(maxsize=1)
def rho_max() -> float:
    """Largest admissible correlation: the root of 5a+1-3a^3-a^2 under
    a = 1/sqrt(1-rho), bracketed by bisection to 1e-12 absolute in rho.

    The commonly quoted 0.34 is this value rounded down.
    """
    lo, hi = 1.0, math.sqrt(2.0)
    assert _cubic_in_a(lo) > 0.0 and _cubic_in_a(hi) < 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _cubic_in_a(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    a_star = 0.5 * (lo + hi)
    return 1.0 - 1.0 / (a_star * a_star)


def _alpha_in_domain(alpha: float) -> bool:
    """alpha in (0, 1) and normal: a subnormal alpha leaves each term few bits."""
    return sys.float_info.min <= alpha < 1.0


def check_point(lam: float, rho: float, alpha: float, *,
                allow_out_of_domain: bool = False,
                override: str | None = "the out-of-domain override") -> None:
    """Raise the DomainError that fdr_bound and fdr_bound_aform raise at
    (lam, rho, alpha): alpha is checked first, then rho, then lambda.  A
    refused lambda's message tells how to pass the override, named by
    override, or names none when override is None."""
    if not _alpha_in_domain(alpha):
        raise DomainError("alpha", f"alpha={alpha} is below the smallest normal float "
                          f"{sys.float_info.min!r}" if 0.0 < alpha < 1.0
                          else f"alpha={alpha} outside (0, 1)")
    cap = rho_max()
    if not (0.0 < rho < cap):
        # Past the cubic root the closed form takes square roots of
        # negatives, so no override can ever reach there.
        raise DomainError("rho", f"rho={rho} outside (0, {cap:.6f}); the bound's "
                                 "integrals are finite only below the cubic root")
    # Even the override stops short of lambda = 1, where the first term is 0/0.
    ok = 0.0 < lam < 1.0 if allow_out_of_domain else 0.0 < lam <= 0.5
    if not ok:
        hint = "" if override is None else f" (pass {override} to explore lambda > 1/2)"
        raise DomainError("lambda", f"lambda={lam} outside "
                          + ("(0, 1)" if allow_out_of_domain else "(0, 0.5]" + hint))


@lru_cache(maxsize=1)
def _float_quantile(p: float) -> float:
    """norm_quantile(p) for a float p, kept for the last p, since a curve runs
    lambda-major.  norm_quantile is looked up at each miss, so a wrapper put
    on this module's name sees every one."""
    return norm_quantile(p)


def _upper_quantile(lam):
    """norm_quantile(1.0 - lam), with its bits and errors."""
    p = 1.0 - lam
    if not isinstance(p, float):  # an array, or a scalar of another width
        return norm_quantile(p)
    return _float_quantile(p)


def in_theorem_domain(lam: float, rho: float, alpha: float) -> bool:
    """True iff (lam, rho, alpha) lies inside the guaranteed-domain box."""
    return _alpha_in_domain(alpha) and (0.0 < rho < rho_max()) and (0.0 < lam <= 0.5)


def _finite_x0(x0) -> float:
    """x0 as a float; DomainError when it is a bool, not a real number or not
    finite.  Every function of the shared factor applies this one rule
    before using x0."""
    if isinstance(x0, bool):
        raise DomainError("x0", f"x0: {x0!r} is a bool, not a number")
    if not isinstance(x0, numbers.Real):
        raise DomainError("x0", f"x0={x0!r} must be a real number")
    x0 = float(x0)
    if not math.isfinite(x0):
        raise DomainError("x0", f"x0={x0} must be finite")
    return x0


def ab_from_rho(rho: float, x0: float) -> tuple:
    """Conditional-CDF parameters (a, b) for correlation rho and factor x0."""
    if not (0.0 < rho < 1.0):
        raise DomainError("rho", f"rho={rho} outside (0, 1)")
    x0 = _finite_x0(x0)
    a = 1.0 / math.sqrt(1.0 - rho)
    b = -math.sqrt(rho / (1.0 - rho)) * x0
    return a, b


def m_factor(rho: float, x0: float) -> float:
    """Cap claimed for the conditional rejection-rate ratio at factor value x0.

    x0 <= 0 branch: 1/sqrt(1-rho).  x0 > 0 branch: an explicit expression
    growing like exp(c*x0^2).  The two branches intentionally disagree in the
    limit x0 -> 0+ (the claim is per-branch, not continuous).  The audits in
    the verify module treat this cap as a reported claim, not a fact: the
    x0 > 0 branch can be exceeded by the actual supremum.
    """
    if not (0.0 < rho < rho_max()):
        raise DomainError("rho", f"rho={rho} outside (0, {rho_max():.6f})")
    x0 = _finite_x0(x0)
    s = math.sqrt(1.0 - rho)
    if x0 <= 0.0:
        return 1.0 / s
    one_minus_s = rho / (1.0 + s)  # 1 - sqrt(1-rho), cancellation-free
    num = 4.0 * one_minus_s ** 2 + rho * x0 * x0
    den = 4.0 * (s - 1.0 + rho)
    expo = rho * x0 * x0 / (4.0 * one_minus_s + 2.0 * rho)
    return 1.0 + (num / den) * math.exp(expo)


def m_factor_ab(a: float, b: float) -> float:
    """Same cap in the (a, b) parameterization: a for b >= 0, else
    1 + ((4(a-1)^2 + b^2)/(4(a-1))) * exp(b^2/(8a^2 - 2(a+1)^2))."""
    if not a > 1.0:
        raise DomainError("a", f"a={a} must exceed 1")
    if not math.isfinite(b):
        raise DomainError("b", f"b={b} must be finite")
    if b >= 0.0:
        return a
    return 1.0 + ((4.0 * (a - 1.0) ** 2 + b * b) / (4.0 * (a - 1.0))
                  * math.exp(b * b / (8.0 * a * a - 2.0 * (a + 1.0) ** 2)))


def p_lower(lam: float, rho: float, x0: float) -> float:
    """Lower bound on the conditional chance a null p-value exceeds lambda.

    b >= 0 (x0 <= 0): cdf(a * quantile(1-lambda)); b < 0: phi(-b)/(1-b).
    Requires lambda in (0, 1/2].
    """
    if not (0.0 < lam <= 0.5):
        raise DomainError("lambda", f"lambda={lam} outside (0, 0.5]")
    a, b = ab_from_rho(rho, x0)
    if b >= 0.0:
        return norm_cdf(a * _upper_quantile(lam))
    return phi(-b) / (1.0 - b)


def exact_p_conditional(lam: float, rho: float, x0: float) -> float:
    """Exact conditional chance a null p-value exceeds lambda:
    cdf(a * quantile(1-lambda) + b)."""
    if not (0.0 < lam < 1.0):
        raise DomainError("lambda", f"lambda={lam} outside (0, 1)")
    a, b = ab_from_rho(rho, x0)
    return norm_cdf(a * _upper_quantile(lam) + b)


def integrals_closed(a: float) -> tuple:
    """Closed forms of the seven Gaussian-type integrals over the
    shared-factor scale b that assemble the bound, as functions of a alone.

    i1..i6 integrate over b <= 0, i7 over b >= 0.  Preconditions: a > 1,
    2 - a^2 > 0, and 5a + 1 - 3a^3 - a^2 > 0 (each raised by name).
    """
    if not a > 1.0:
        raise DomainError("a", f"a={a} must exceed 1")
    two_minus_a2 = 2.0 - a * a
    if not two_minus_a2 > 0.0:
        raise DomainError("2-a^2", f"2 - a^2 = {two_minus_a2} must be positive")
    cubic = _cubic_in_a(a)
    if not cubic > 0.0:
        raise DomainError("cubic", f"5a + 1 - 3a^3 - a^2 = {cubic} must be positive")
    a2m1 = a * a - 1.0
    q = a2m1 * (3.0 * a + 1.0) / cubic
    i1 = (SQRT_2PI / 2.0) * math.sqrt(a2m1 / two_minus_a2)
    i2 = (a - 1.0) * (SQRT_2PI / 2.0) * math.sqrt(q)
    i3 = (1.0 / (4.0 * (a - 1.0))) * (SQRT_2PI / 2.0) * q ** 1.5
    i4 = a2m1 / two_minus_a2
    i5 = (a - 1.0) * q
    i6 = (1.0 / (2.0 * (a - 1.0))) * q * q
    i7 = 0.5 * math.sqrt(a2m1)
    return (i1, i2, i3, i4, i5, i6, i7)


def fdr_bound(inp: BoundInput, *, allow_out_of_domain: bool = False) -> BoundBreakdown:
    """Seven-term bound evaluated in the rho parameterization.

    Writing s = sqrt(1-rho) and C = (3+s)/(2 - 5*rho - rho*s), the sum is
      1/(2 s cdf(quantile(1-lambda)/s))
      + (sqrt(2pi)/2) sqrt((1-rho)/(1-2rho))
      + (sqrt(2pi)/2) (1-s) sqrt(C)
      + (sqrt(2pi)/8) (1-rho)(1+s) C^(3/2)
      + sqrt(rho(1-rho))/(1-2rho)
      + sqrt(rho) (1-s) C
      + (1/2) sqrt(rho) (1-rho)(1+s) C^2,
    all scaled by alpha*(1-lambda).
    """
    lam, rho, alpha = inp.lam, inp.rho, inp.alpha
    check_point(lam, rho, alpha, allow_out_of_domain=allow_out_of_domain)
    s = math.sqrt(1.0 - rho)
    one_minus_s = rho / (1.0 + s)  # 1 - s without cancellation
    c = (3.0 + s) / (2.0 - 5.0 * rho - rho * s)
    q = _upper_quantile(lam)
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


def fdr_bound_aform(inp: BoundInput, *, allow_out_of_domain: bool = False) -> BoundBreakdown:
    """Same bound, independently coded in a = 1/sqrt(1-rho) alone.

    With Q = (a^2-1)(3a+1)/(5a+1-3a^3-a^2) the sum is
      a/(2 cdf(a quantile(1-lambda)))
      + sqrt(2pi)/(2 sqrt(2-a^2))
      + (a-1)(sqrt(2pi)/2) sqrt((3a+1)/(5a+1-3a^3-a^2))
      + (sqrt(2pi)/(8(a-1)sqrt(a^2-1))) Q^(3/2)
      + sqrt(a^2-1)/(2-a^2)
      + (a-1) sqrt(a^2-1) (3a+1)/(5a+1-3a^3-a^2)
      + Q^2/(2(a-1)sqrt(a^2-1)),
    scaled by alpha*(1-lambda).
    """
    lam, rho, alpha = inp.lam, inp.rho, inp.alpha
    check_point(lam, rho, alpha, allow_out_of_domain=allow_out_of_domain)
    a = 1.0 / math.sqrt(1.0 - rho)
    a2m1 = a * a - 1.0
    two_minus_a2 = 2.0 - a * a
    cubic = _cubic_in_a(a)
    big_q = a2m1 * (3.0 * a + 1.0) / cubic
    sqrt_a2m1 = math.sqrt(a2m1)
    q = _upper_quantile(lam)
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


def curve_points(lams, rhos, alpha: float):
    """Iterator over the grid's (lambda, rho), lambda-major with rho ascending.
    A bad grid is refused before it is returned: one DomainError names every
    rho outside (0, rho_max()), then each lambda and alpha is checked at the
    first rho, naming no override.  An empty grid checks no lambda."""
    cap = rho_max()
    bad = [r for r in rhos if not (0.0 < r < cap)]
    if bad:
        raise DomainError("rho", "rho grid outside (0, %.6f): %s"
                          % (cap, ", ".join(repr(r) for r in bad)))
    lams, rhos = list(lams), sorted(rhos)
    for lam in lams if rhos else ():
        check_point(lam, rhos[0], alpha, override=None)
    return ((lam, rho) for lam in lams for rho in rhos)


def bound_curve(lams, rhos, alpha: float) -> list:
    """Rows (lambda, rho, bound, bound/alpha) over curve_points' grid."""
    return [(float(lam), float(rho), (total := fdr_bound(BoundInput(lam, rho, alpha)).total),
             total / alpha) for lam, rho in curve_points(lams, rhos, alpha)]

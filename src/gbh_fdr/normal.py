"""Standard-normal primitives: density, CDF, quantile, and a lower tail bound.

Every other module routes its distributional arithmetic through here, so this
is the one accuracy-audited path in the package.  The CDF goes through the
complementary error function (platform rational/continued-fraction kernel,
abs error well below 1e-12).  The quantile is Acklam's piecewise rational
approximation polished by a single Newton step on the CDF, which drives the
round-trip error |cdf(quantile(p)) - p| to machine precision for
p in [1e-12, 1 - 1e-12].  Endpoints map to the +-inf sentinels and those
propagate through ordinary float arithmetic; nothing here clips.

All functions accept scalars or numpy arrays and return matching shapes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / SQRT_2PI
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def _scalar_in(x) -> bool:
    return np.ndim(x) == 0


def phi(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi)."""
    arr = np.asarray(x, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return float(out) if _scalar_in(x) else out


def norm_cdf(x):
    """Standard normal CDF via 0.5*erfc(-x/sqrt(2)).

    Accepts finite values and the +-inf sentinels (mapping to 1 and 0);
    rejects NaN.
    """
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("norm_cdf: NaN is not a valid argument")
    out = 0.5 * erfc(-arr * _INV_SQRT_2)
    return float(out) if _scalar_in(x) else out


def norm_sf(x):
    """Upper tail probability 1 - cdf(x), computed as 0.5*erfc(x/sqrt(2)).

    Cancellation-free in the right tail, unlike literal 1 - norm_cdf(x).
    """
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("norm_sf: NaN is not a valid argument")
    out = 0.5 * erfc(arr * _INV_SQRT_2)
    return float(out) if _scalar_in(x) else out


# Acklam's rational approximation to the normal quantile: three pieces with
# relative error < 1.15e-9 before refinement.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)
_ACKLAM_SPLIT = 0.02425


def _acklam_central(p):
    a, b = _ACKLAM_A, _ACKLAM_B
    q = p - 0.5
    r = q * q
    num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    den = (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r) + 1.0
    return num * q / den


def _acklam_tail(p):
    # Lower tail; callers mirror for the upper one.
    c, d = _ACKLAM_C, _ACKLAM_D
    q = np.sqrt(-2.0 * np.log(p))
    num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    den = ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q) + 1.0
    return num / den


def norm_quantile(p):
    """Inverse of norm_cdf on [0, 1]; 0 -> -inf, 1 -> +inf.

    Acklam's approximation plus one Newton step x -= (cdf(x)-p)/phi(x).
    Rejects arguments outside [0, 1] and NaN.
    """
    if _scalar_in(p):
        return _quantile_scalar(float(p))
    arr = np.asarray(p, dtype=float)
    if np.isnan(arr).any() or (arr < 0.0).any() or (arr > 1.0).any():
        raise ValueError("norm_quantile: p must lie in [0, 1]")

    shape = arr.shape
    flat = arr.ravel()

    # Invert on the lower half only: for p >= 1/2 the complement 1-p is exact
    # in IEEE arithmetic, and the lower-tail CDF keeps full relative accuracy,
    # so the Newton polish never runs through the cancellation-limited side.
    mirror = flat > 0.5
    pm = np.where(mirror, 1.0 - flat, flat)

    out = _acklam_central(pm)
    tail = pm < _ACKLAM_SPLIT
    if tail.any():
        edge = pm == 0.0
        tail &= ~edge
        out[tail] = _acklam_tail(pm[tail])
        out[edge] = -np.inf

    # Newton is only safe where the density has not underflowed; beyond
    # |x| ~ 38 the raw approximation is already the best we can do.  At the
    # -inf sentinel the density is 0 too, so the step is 0 there.
    dens = _INV_SQRT_2PI * np.exp(-0.5 * out * out)
    cdf = 0.5 * erfc(-out * _INV_SQRT_2)
    live = dens > 0.0
    if live.all():  # the masked form costs several passes more
        out -= (cdf - pm) / dens
    else:
        out -= np.where(live, (cdf - pm) / np.where(live, dens, 1.0), 0.0)

    np.negative(out, out=out, where=mirror)
    return out.reshape(shape)


def _quantile_scalar(p: float) -> float:
    """norm_quantile for one float: the array path's arithmetic, element for
    element, without the masks.  Transcendentals go through numpy and scipy
    so that every bit matches the array path."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("norm_quantile: p must lie in [0, 1]")
    mirror = p > 0.5
    pm = 1.0 - p if mirror else p
    if pm == 0.0:
        x = -math.inf
    else:
        x = _acklam_tail(pm) if pm < _ACKLAM_SPLIT else _acklam_central(pm)
        dens = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        if dens > 0.0:
            x = x - (0.5 * erfc(-x * _INV_SQRT_2) - pm) / dens
    return float(-x if mirror else x)


def tail_lower_bound(x):
    """Strict lower bound 2*phi(x)/(sqrt(4+x^2)+x) on the upper tail, x >= 0.

    Sharper than the plain phi(x)/x bound near the origin; rejects x < 0.
    """
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any() or (arr < 0.0).any():
        raise ValueError("tail_lower_bound: x must be >= 0")
    out = 2.0 * (_INV_SQRT_2PI * np.exp(-0.5 * arr * arr)) / (np.sqrt(4.0 + arr * arr) + arr)
    return float(out) if _scalar_in(x) else out

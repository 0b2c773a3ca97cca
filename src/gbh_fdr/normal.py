"""Standard-normal primitives: density, CDF, quantile, and a lower tail bound.

Every other module routes its distributional arithmetic through here, so this
is the one accuracy-audited path in the package.  The CDF goes through the
complementary error function, a port of the Cephes kernel that
scipy.special.erfc compiles: a pure-Python one for scalars and a numpy one for
arrays, each returning scipy's bits, so that nothing here loads scipy.  The
quantile is Acklam's piecewise rational approximation polished by a single
Newton step on the CDF, which drives the round-trip error
|cdf(quantile(p)) - p| to machine precision for p in [1e-12, 1 - 1e-12].
Endpoints map to the +-inf sentinels and those propagate through ordinary
float arithmetic; nothing here clips.

The array paths work in place: each result is built in one new buffer (the
quantile and erfc in a few) by the same IEEE operations, in the same order,
as the plain expressions they spell out, so they hold the same bits and never
write into the caller's array.

All functions accept scalars or numpy arrays and return matching shapes.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / SQRT_2PI
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def _scalar_in(x) -> bool:
    return type(x) is float or np.ndim(x) == 0


# Cephes ndtr.c (S. L. Moshier): erfc(x) = exp(-x^2) P(x)/Q(x) for
# 1 <= |x| < 8, exp(-x^2) R(x)/S(x) for |x| >= 8, and 1 - erf(x) with
# erf(x) = x T(x^2)/U(x^2) for |x| < 1.  scipy.special.erfc compiles the same
# code; the coefficients, the Horner order and the libm exp below reproduce it
# bit for bit.  Plain np.exp must not stand in for math.exp: it can differ in
# the last bit (see _libm_exp).
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
# Cephes MAXLOG = log(DBL_MAX): below exp(-MAXLOG) erfc returns 0 (or 2).
_MAXLOG = 7.09782712893383996732e2


def _erfc_scalar(a: float) -> float:
    """Complementary error function of one float, bit-identical to
    scipy.special.erfc; NaN in gives NaN out."""
    x = -a if a < 0.0 else a
    if x < 1.0:
        t, u = _ERF_T, _ERF_U
        z = x * x
        erf = x * ((((t[0] * z + t[1]) * z + t[2]) * z + t[3]) * z + t[4]) / (
            ((((z + u[0]) * z + u[1]) * z + u[2]) * z + u[3]) * z + u[4])
        return 1.0 + erf if a < 0.0 else 1.0 - erf
    if x != x:
        return math.nan
    if -a * a < -_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    if x < 8.0:
        p, q = _ERFC_P, _ERFC_Q
        num = (((((((p[0] * x + p[1]) * x + p[2]) * x + p[3]) * x + p[4]) * x + p[5]) * x
                + p[6]) * x + p[7]) * x + p[8]
        den = (((((((x + q[0]) * x + q[1]) * x + q[2]) * x + q[3]) * x + q[4]) * x
                + q[5]) * x + q[6]) * x + q[7]
    else:
        r, s = _ERFC_R, _ERFC_S
        num = ((((r[0] * x + r[1]) * x + r[2]) * x + r[3]) * x + r[4]) * x + r[5]
        den = (((((x + s[0]) * x + s[1]) * x + s[2]) * x + s[3]) * x + s[4]) * x + s[5]
    y = math.exp(-a * a) * num / den
    return 2.0 - y if a < 0.0 else y


def _polevl(x, coefs, out=None):
    # ((c0*x + c1)*x + ...)*x + cn, as Cephes polevl, in out or a new buffer.
    acc = np.multiply(coefs[0], x, out=out)
    for c in coefs[1:-1]:
        acc += c
        acc *= x
    acc += coefs[-1]
    return acc


def _p1evl(x, coefs, out=None):
    # ((x + c0)*x + c1)*x + ... + cn, as Cephes p1evl, in out or a new buffer.
    acc = np.add(x, coefs[0], out=out)
    for c in coefs[1:]:
        acc *= x
        acc += c
    return acc


def _libm_exp(v: np.ndarray) -> np.ndarray:
    """exp of each element with libm's bits, as math.exp gives them.  np.exp
    on floats may take a SIMD kernel that differs in the last bit; on complex
    numbers it calls libm's exp on the real part and multiplies by cos(0) = 1,
    which is exact."""
    w = v.astype(np.complex128)
    return np.exp(w, out=w).real


def _erfc_outer(a: np.ndarray) -> np.ndarray:
    """_erfc_scalar's |a| >= 1 and NaN branches on a gathered 1-d array."""
    # x*x exceeds MAXLOG from |a| ~ 26.64 on: the clamp at 27 keeps those
    # entries past the cut and every polynomial finite, and maps NaN to 27.
    x = np.abs(a)
    np.fmin(x, 27.0, out=x)
    num = _polevl(x, _ERFC_P)
    den = _p1evl(x, _ERFC_Q)
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        xf = x[far]
        num[far] = _polevl(xf, _ERFC_R)
        den[far] = _p1evl(xf, _ERFC_S)
    # -a*a is exactly -(x*x); past the cut the result is 0, or 2 for a < 0.
    sq = np.multiply(x, x, out=x)
    y = _libm_exp(np.negative(sq))
    y[sq > _MAXLOG] = 0.0
    y *= num
    y /= den
    np.subtract(2.0, y, out=y, where=a < 0.0)
    y[np.isnan(a)] = np.nan
    return y


def _erfc_array(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """erfc of each element of the float array a, written into out (which may
    be a itself) and returned.  Each element gets _erfc_scalar's operations in
    its order, so its bits, which are scipy.special.erfc's."""
    # |a| < 1: 1 - erf(a) with erf(a) = a T(z)/U(z) and z = a*a, which for
    # a < 0 is exactly the port's 1 + x T/U, x = |a|.  The clip keeps the
    # other entries finite.
    c = np.clip(a, -1.0, 1.0, out=np.empty(a.shape))
    z = c * c
    # z < 1 exactly where |a| < 1.  The other entries and NaN take the outer
    # branches; they are gathered first, because out may be a.  Then out
    # holds erf, and c's buffer, once used, holds U.
    outer = np.flatnonzero(~(z < 1.0))
    rest = _erfc_outer(np.take(a, outer))
    erf = _polevl(z, _ERF_T, out)
    erf *= c
    erf /= _p1evl(z, _ERF_U, c)
    np.subtract(1.0, erf, out=out)
    np.put(out, outer, rest)
    return out


def phi(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi)."""
    arr = np.asarray(x, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return float(out) if _scalar_in(x) else out


def _half_erfc(x, scale: float, name: str):
    """0.5*erfc(scale*x), rejecting NaN; a float for a scalar, else an array."""
    if _scalar_in(x):
        v = float(x)
        if v != v:
            raise ValueError(f"{name}: NaN is not a valid argument")
        return 0.5 * _erfc_scalar(v * scale)
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError(f"{name}: NaN is not a valid argument")
    out = arr * scale
    _erfc_array(out, out)
    out *= 0.5
    return out


def norm_cdf(x):
    """Standard normal CDF via 0.5*erfc(-x/sqrt(2)).

    Accepts finite values and the +-inf sentinels (mapping to 1 and 0);
    rejects NaN.
    """
    return _half_erfc(x, -_INV_SQRT_2, "norm_cdf")


def norm_sf(x):
    """Upper tail probability 1 - cdf(x), computed as 0.5*erfc(x/sqrt(2)).

    Cancellation-free in the right tail, unlike literal 1 - norm_cdf(x).
    """
    return _half_erfc(x, _INV_SQRT_2, "norm_sf")


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
    # num*q/den with num = ((((a0*r + a1)*r + a2)*r + a3)*r + a4)*r + a5 and den
    # the same in b, ending in *r + 1.0: Horner in place, one buffer each.  On a
    # float, += and *= rebind instead.
    a, b = _ACKLAM_A, _ACKLAM_B
    q = p - 0.5
    r = q * q
    num = a[0] * r
    num += a[1]
    num *= r
    num += a[2]
    num *= r
    num += a[3]
    num *= r
    num += a[4]
    num *= r
    num += a[5]
    den = b[0] * r
    den += b[1]
    den *= r
    den += b[2]
    den *= r
    den += b[3]
    den *= r
    den += b[4]
    den *= r
    den += 1.0
    num *= q
    num /= den
    return num


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
    # argmin and argmax land on the first NaN if there is one, and NaN fails
    # both comparisons; an empty array has nothing to check.
    if arr.size and not (arr.flat[arr.argmin()] >= 0.0 and arr.flat[arr.argmax()] <= 1.0):
        raise ValueError("norm_quantile: p must lie in [0, 1]")

    # Invert on the lower half only: for p >= 1/2 the complement 1-p is exact
    # in IEEE arithmetic, and the lower-tail CDF keeps full relative accuracy,
    # so the Newton polish never runs through the cancellation-limited side.
    # On [0, 1] the smaller of p and 1-p is exactly the mirrored p.
    mirror = arr > 0.5
    pm = np.minimum(arr, 1.0 - arr)

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
    # The density _INV_SQRT_2PI*exp(-0.5*x*x) and the step
    # (0.5*erfc(-x*_INV_SQRT_2) - pm)/density, operation for operation, each in
    # one buffer (x*-c is exactly -x*c).
    dens = -0.5 * out
    dens *= out
    np.exp(dens, out=dens)
    dens *= _INV_SQRT_2PI
    step = out * -_INV_SQRT_2
    _erfc_array(step, step)
    step *= 0.5
    step -= pm
    live = dens > 0.0
    np.divide(step, dens, out=step, where=live)
    np.subtract(out, step, out=out, where=live)

    np.negative(out, out=out, where=mirror)
    return out


def _quantile_scalar(p: float) -> float:
    """norm_quantile for one float: the array path's arithmetic, element for
    element, without the masks.  exp, log and sqrt go through numpy and
    erfc through its bit-identical port, so that every bit matches the array
    path."""
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
            x = x - (0.5 * _erfc_scalar(float(-x * _INV_SQRT_2)) - pm) / dens
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

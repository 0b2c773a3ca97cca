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

One Horner evaluator, _polevl, computes every polynomial: on a float it stays
a float, on an array it works in place.
The array paths compute each element by the same IEEE operations, in the same
order, as the scalar ones, so they hold the same bits.  norm_quantile and
norm_sf write their result into a new array or into the out= array given,
which may be the input itself; without out= the input is never written.
Their work arrays are new on each call, except inside _scratch(), where each
thread reuses one set of them from block to block.

All functions accept scalars or numpy arrays and return matching shapes.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / SQRT_2PI
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def _scalar_in(x) -> bool:
    return type(x) is float or np.ndim(x) == 0


# The calling thread's work arrays, name -> flat buffer, while it is inside
# _scratch(); None outside.
_SCRATCH = threading.local()


@contextlib.contextmanager
def _scratch():
    """Inside this context the array kernels of this thread take their work
    arrays from one set, a buffer per name grown to the largest call,
    instead of new ones; the set is dropped on exit.  Its one user is the
    campaign loop, simulator._mc_loop, which enters it once so that its
    blocks do not fault freshly mapped temporaries in anew each time."""
    saved = getattr(_SCRATCH, "bufs", None)
    _SCRATCH.bufs = {}
    try:
        yield
    finally:
        _SCRATCH.bufs = saved


def _work(name: str, shape, dtype=float) -> np.ndarray:
    """An uninitialised C-ordered work array of the given shape: the
    thread's buffer called name inside _scratch(), else a new one.  Two
    arrays alive at once need two names."""
    bufs = getattr(_SCRATCH, "bufs", None)
    if bufs is None:
        return np.empty(shape, dtype)
    n = math.prod(shape)
    buf = bufs.get(name)
    if buf is None or buf.size < n:
        buf = bufs[name] = np.empty(n, dtype)
    return buf[:n].reshape(shape)


# Cephes ndtr.c (S. L. Moshier): erfc(x) = exp(-x^2) P(x)/Q(x) for
# 1 <= |x| < 8, exp(-x^2) R(x)/S(x) for |x| >= 8, and 1 - erf(x) with
# erf(x) = x T(x^2)/U(x^2) for |x| < 1.  scipy.special.erfc compiles the same
# code; the coefficients, the Horner order and the libm exp below reproduce it
# bit for bit.  Q, S and U carry the leading 1.0 that Cephes' p1evl leaves
# implicit: 1.0*x is exact, so _polevl then does p1evl's operations.  Plain
# np.exp must not stand in for math.exp: it can differ in the last bit (see
# _libm_exp).
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
# Cephes MAXLOG = log(DBL_MAX): below exp(-MAXLOG) erfc returns 0 (or 2).
_MAXLOG = 7.09782712893383996732e2


def _erfc_scalar(a: float) -> float:
    """Complementary error function of one float, bit-identical to
    scipy.special.erfc; NaN in gives NaN out."""
    x = -a if a < 0.0 else a
    if x < 1.0:
        z = x * x
        erf = x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
        return 1.0 + erf if a < 0.0 else 1.0 - erf
    if x != x:
        return math.nan
    if -a * a < -_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    y = math.exp(-a * a) * _polevl(x, p) / _polevl(x, q)
    return 2.0 - y if a < 0.0 else y


def _polevl(x, coefs, out=None):
    # ((c0*x + c1)*x + ...)*x + cn, as Cephes polevl, in out (which must not
    # overlap x) or, without one, in a new buffer; a float stays a float.
    acc = coefs[0] * x if out is None else np.multiply(coefs[0], x, out=out)
    for c in coefs[1:-1]:
        acc += c
        acc *= x
    acc += coefs[-1]
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
    den = _polevl(x, _ERFC_Q)
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        xf = x[far]
        num[far] = _polevl(xf, _ERFC_R)
        den[far] = _polevl(xf, _ERFC_S)
    # -a*a is exactly -(x*x); past the cut the result is 0, or 2 for a < 0.
    sq = np.multiply(x, x, out=x)
    y = _libm_exp(np.negative(sq))
    y[sq > _MAXLOG] = 0.0
    y *= num
    y /= den
    y = np.where(a < 0.0, 2.0 - y, y)
    y[np.isnan(a)] = np.nan
    return y


def _erfc_array(a: np.ndarray) -> np.ndarray:
    """erfc of each element of the float array a, written over a and
    returned.  Each element gets _erfc_scalar's operations in its order, so
    its bits, which are scipy.special.erfc's."""
    # |a| < 1: 1 - erf(a) with erf(a) = a T(z)/U(z) and z = a*a, which for
    # a < 0 is exactly the port's 1 + x T/U, x = |a|.  The clip keeps the
    # other entries finite.
    c = np.clip(a, -1.0, 1.0, out=_work("clip", a.shape))
    z = np.multiply(c, c, out=_work("square", a.shape))
    # z < 1 exactly where |a| < 1.  The other entries and NaN take the outer
    # branches; they are gathered first, because a is overwritten.  Then a
    # holds erf, and c's buffer, once used, holds U.  (take and put copy an
    # a that is not C-contiguous; norm_quantile and norm_sf pass their work
    # arrays, which are.)
    inner = np.less(z, 1.0, out=_work("inner", a.shape, bool))
    outer = np.flatnonzero(np.logical_not(inner, out=inner))
    rest = _erfc_outer(np.take(a, outer))
    erf = _polevl(z, _ERF_T, a)
    erf *= c
    erf /= _polevl(z, _ERF_U, c)
    np.subtract(1.0, erf, out=a)
    np.put(a, outer, rest)
    return a


def phi(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi)."""
    arr = np.asarray(x, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return float(out) if _scalar_in(x) else out


def _half_erfc(x, scale: float, name: str, out=None):
    """0.5*erfc(scale*x), rejecting NaN; a float for a scalar without out,
    else an array: out, which may be x itself, or a new one."""
    if out is None and _scalar_in(x):
        v = float(x)
        if v != v:
            raise ValueError(f"{name}: NaN is not a valid argument")
        return 0.5 * _erfc_scalar(v * scale)
    arr = np.asarray(x, dtype=float)
    # min is NaN exactly when an entry is.
    if arr.size and np.isnan(arr.min()):
        raise ValueError(f"{name}: NaN is not a valid argument")
    out = _out_array(name, arr, out)
    # erfc runs in a C-ordered work array, whatever out's layout: the one
    # norm_quantile uses for Acklam's r and then its Newton step.
    arg = np.multiply(arr, scale, out=_work("r", arr.shape))
    _erfc_array(arg)
    return np.multiply(arg, 0.5, out=out)


def _out_array(name: str, arr: np.ndarray, out) -> np.ndarray:
    """A new array of arr's shape for out None; else out, refused unless it
    is a writeable float64 array of that shape."""
    if out is None:
        return np.empty(arr.shape)
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == arr.shape and out.flags.writeable):
        raise ValueError(f"{name}: out must be a writeable float64 array of shape {arr.shape}")
    return out


def norm_cdf(x):
    """Standard normal CDF via 0.5*erfc(-x/sqrt(2)).

    Accepts finite values and the +-inf sentinels (mapping to 1 and 0);
    rejects NaN.
    """
    return _half_erfc(x, -_INV_SQRT_2, "norm_cdf")


def norm_sf(x, out=None):
    """Upper tail probability 1 - cdf(x), computed as 0.5*erfc(x/sqrt(2)).

    Cancellation-free in the right tail, unlike literal 1 - norm_cdf(x).
    With out (a float64 array of x's shape, which may be x itself) the
    result is written there and out is returned.
    """
    return _half_erfc(x, _INV_SQRT_2, "norm_sf", out)


# Acklam's rational approximation to the normal quantile: three pieces with
# relative error < 1.15e-9 before refinement.  B and D end in their constant 1.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01, 1.0)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00, 1.0)
_ACKLAM_SPLIT = 0.02425


def _acklam_central(p, out=None):
    # q*A(r)/B(r) with r = q*q, in out (which must not overlap p) or, without
    # one, in a new buffer; a float stays a float.  With out, q's buffer,
    # once used, holds B.
    q = p - 0.5 if out is None else np.subtract(p, 0.5, out=_work("q", p.shape))
    r = q * q if out is None else np.multiply(q, q, out=_work("r", p.shape))
    num = _polevl(r, _ACKLAM_A, out)
    num *= q
    num /= _polevl(r, _ACKLAM_B, None if out is None else q)
    return num


def _acklam_tail(p):
    # C(q)/D(q) with q = sqrt(-2 log p), the lower tail; callers mirror it.
    q = np.sqrt(-2.0 * np.log(p))
    num = _polevl(q, _ACKLAM_C)
    num /= _polevl(q, _ACKLAM_D)
    return num


def norm_quantile(p, out=None):
    """Inverse of norm_cdf on [0, 1]; 0 -> -inf, 1 -> +inf.

    Acklam's approximation plus one Newton step x -= (cdf(x)-p)/phi(x).
    Rejects arguments outside [0, 1] and NaN.  With out (a float64 array of
    p's shape, which may be p itself) the result is written there and out is
    returned.
    """
    if out is None and _scalar_in(p):
        return _quantile_scalar(float(p))
    arr = np.asarray(p, dtype=float)
    # argmin and argmax land on the first NaN if there is one, and NaN fails
    # both comparisons; an empty array has nothing to check.
    if arr.size and not (arr.flat[arr.argmin()] >= 0.0 and arr.flat[arr.argmax()] <= 1.0):
        raise ValueError("norm_quantile: p must lie in [0, 1]")
    out = _out_array("norm_quantile", arr, out)

    # Invert on the lower half only: for p >= 1/2 the complement 1-p is exact
    # in IEEE arithmetic, and the lower-tail CDF keeps full relative accuracy,
    # so the Newton polish never runs through the cancellation-limited side.
    # On [0, 1] the smaller of p and 1-p is exactly the mirrored p.  Nothing
    # below reads arr, so out may be arr.
    mirror = np.greater(arr, 0.5, out=_work("mirror", arr.shape, bool))
    pm = np.subtract(1.0, arr, out=_work("pm", arr.shape))
    np.minimum(arr, pm, out=pm)

    _acklam_central(pm, out)
    tail = np.less(pm, _ACKLAM_SPLIT, out=_work("tail", arr.shape, bool))
    if tail.any():
        edge = np.equal(pm, 0.0, out=_work("edge", arr.shape, bool))
        tail ^= edge  # every edge entry is a tail entry: this drops them
        out[tail] = _acklam_tail(pm[tail])
        out[edge] = -np.inf

    # Newton is only safe where the density has not underflowed; beyond
    # |x| ~ 38 the raw approximation is already the best we can do.  At the
    # -inf sentinel the density is 0 too, so the step is 0 there.
    # The density _INV_SQRT_2PI*exp(-0.5*x*x) and the step
    # (0.5*erfc(-x*_INV_SQRT_2) - pm)/density, operation for operation, each in
    # one buffer (x*-c is exactly -x*c): Acklam's q and r, free again.
    dens = np.multiply(-0.5, out, out=_work("q", arr.shape))
    dens *= out
    np.exp(dens, out=dens)
    dens *= _INV_SQRT_2PI
    step = np.multiply(out, -_INV_SQRT_2, out=_work("r", arr.shape))
    _erfc_array(step)
    step *= 0.5
    step -= pm
    live = np.greater(dens, 0.0, out=tail)
    np.divide(step, dens, out=step, where=live)
    np.subtract(out, step, out=out, where=live)

    # Mirror by an exact multiply by -1.0 or 1.0, held in q's buffer, free
    # again; a masked negation costs about ten times as much.
    sign = np.multiply(mirror, -2.0, out=_work("q", arr.shape))
    sign += 1.0
    out *= sign
    return out


def _quantile_scalar(p: float) -> float:
    """norm_quantile for one float: the array path's arithmetic, element for
    element, without the masks.  exp, log and sqrt go through numpy and
    erfc through its bit-identical port, so that every bit matches the array
    path; the rest is the same IEEE operations on Python floats."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("norm_quantile: p must lie in [0, 1]")
    mirror = p > 0.5
    pm = 1.0 - p if mirror else p
    if pm == 0.0:
        x = -math.inf
    else:
        x = float(_acklam_tail(pm)) if pm < _ACKLAM_SPLIT else _acklam_central(pm)
        dens = _INV_SQRT_2PI * float(np.exp(-0.5 * x * x))
        if dens > 0.0:
            x -= (0.5 * _erfc_scalar(-x * _INV_SQRT_2) - pm) / dens
    return -x if mirror else x


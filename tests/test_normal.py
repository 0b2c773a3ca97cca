"""Tests for the standard-normal primitives.

Each implementation route is checked against an independently coded oracle:
the CDF against adaptive quadrature of the density, the upper tail against a
continued-fraction Mills-ratio evaluation, and the quantile against bisection
on the quadrature CDF.  Frozen literals were produced by those oracles.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from gbh_fdr import norm_cdf, norm_quantile, norm_sf, phi
from oracles import tail_by_continued_fraction, tail_lower_bound


# ---------------------------------------------------------------------------
# oracles (independent of the implementation under test)

def cdf_by_quadrature(x: float) -> float:
    """0.5 + integral of the density from 0 to x, via adaptive quadrature."""
    val, err = scipy.integrate.quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        0.0, x, epsabs=1e-15, epsrel=1e-13, limit=200,
    )
    assert err < 1e-12
    return 0.5 + val

def quantile_by_bisection(p: float) -> float:
    """Invert the quadrature CDF by bisection to ~1e-13."""
    lo, hi = -10.0, 10.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if cdf_by_quadrature(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# density

def test_phi_at_zero():
    assert phi(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)
    assert phi(0.0) == pytest.approx(0.3989422804, abs=1e-10)

def test_phi_at_one_frozen():
    # oracle: direct evaluation of exp(-1/2)/sqrt(2 pi)
    assert phi(1.0) == pytest.approx(0.24197072451914337, abs=1e-15)
    assert phi(1.0) == pytest.approx(0.2419707245, abs=1e-10)

@given(st.floats(-38.0, 38.0))
def test_phi_symmetric_and_positive(x):
    assert phi(x) == phi(-x)
    assert phi(x) >= 0.0

def test_phi_vectorized():
    xs = np.array([-2.0, 0.0, 1.0, 3.0])
    out = phi(xs)
    assert out.shape == xs.shape
    for i, x in enumerate(xs):
        assert out[i] == phi(float(x))


# ---------------------------------------------------------------------------
# CDF against the quadrature oracle

def test_cdf_at_zero_exact():
    assert norm_cdf(0.0) == 0.5

def test_cdf_frozen_values():
    assert norm_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-13)
    assert norm_cdf(1.96) == pytest.approx(0.9750021049, abs=1e-10)
    # tail point checked against the continued-fraction oracle
    assert norm_cdf(-3.5) == pytest.approx(2.326290790355250e-04, rel=1e-12)
    assert norm_cdf(-3.5) == pytest.approx(2.3263e-4, rel=1e-4)

def test_cdf_matches_quadrature_on_grid():
    for x in np.linspace(-6.0, 6.0, 97):
        assert norm_cdf(float(x)) == pytest.approx(
            cdf_by_quadrature(float(x)), abs=1e-13)

def test_sf_matches_continued_fraction_in_tail():
    for x in [2.0, 3.0, 3.5, 5.0, 8.0, 12.0, 20.0]:
        assert norm_sf(x) == pytest.approx(
            tail_by_continued_fraction(x), rel=1e-12)

def test_cdf_infinite_sentinels():
    assert norm_cdf(-math.inf) == 0.0
    assert norm_cdf(math.inf) == 1.0

@given(st.floats(-38.0, 38.0))
def test_cdf_complement_identity(x):
    assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-12)
    assert norm_sf(x) == pytest.approx(norm_cdf(-x), rel=1e-13, abs=1e-300)

def test_cdf_strictly_increasing_on_grid():
    xs = np.linspace(-8.0, 8.0, 321)
    vals = norm_cdf(xs)
    assert np.all(np.diff(vals) > 0.0)

def test_cdf_vectorized_matches_scalar():
    xs = np.linspace(-4.0, 4.0, 17)
    out = norm_cdf(xs)
    for i, x in enumerate(xs):
        assert out[i] == norm_cdf(float(x))


# ---------------------------------------------------------------------------
# quantile

def test_quantile_median_exact():
    assert norm_quantile(0.5) == 0.0

def test_quantile_frozen_value():
    # oracle: bisection on the quadrature CDF
    assert norm_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert norm_quantile(0.975) == pytest.approx(1.9599640, abs=1e-7)

def test_quantile_matches_bisection_oracle():
    for p in [1e-6, 0.001, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 0.999, 1 - 1e-6]:
        q = quantile_by_bisection(p)
        # oracle precision: ~1e-16 CDF rounding amplified by 1/density
        tol = 1e-12 + 1e-15 / phi(q)
        assert norm_quantile(p) == pytest.approx(q, abs=tol)

def test_quantile_matches_reference_inverse():
    # cross-check against an independent library implementation
    ps = np.linspace(1e-12, 1.0 - 1e-12, 10001)
    ours = norm_quantile(ps)
    ref = scipy.special.ndtri(ps)
    assert np.max(np.abs(ours - ref)) <= 1e-9

def test_quantile_sentinels():
    assert norm_quantile(0.0) == -math.inf
    assert norm_quantile(1.0) == math.inf

def test_quantile_rejects_out_of_range():
    with pytest.raises(ValueError):
        norm_quantile(-0.1)
    with pytest.raises(ValueError):
        norm_quantile(1.1)
    with pytest.raises(ValueError):
        norm_quantile(math.nan)

def test_round_trip_tight():
    # 10^4-point grid; the documented tolerance is 1e-9 but the
    # Newton-polished approximation does far better
    ps = np.linspace(1e-9, 1.0 - 1e-9, 10000)
    back = norm_cdf(norm_quantile(ps))
    assert np.max(np.abs(back - ps)) <= 1e-9

def test_round_trip_extreme_tails():
    for p in [1e-12, 1e-10, 1 - 1e-10, 1 - 1e-12]:
        assert norm_cdf(norm_quantile(p)) == pytest.approx(p, abs=1e-9)

@given(st.floats(1e-9, 1.0 - 1e-9))
@settings(max_examples=200)
def test_round_trip_property(p):
    assert norm_cdf(norm_quantile(p)) == pytest.approx(p, abs=1e-9)

def test_quantile_strictly_increasing():
    ps = np.linspace(1e-8, 1.0 - 1e-8, 500)
    qs = norm_quantile(ps)
    assert np.all(np.diff(qs) > 0.0)

@given(st.floats(0.5, 1.0))
@settings(max_examples=200)
def test_quantile_reflection_exact_upper_half(p):
    # the implementation inverts at the (exactly computed) complement and
    # negates, so this holds to the bit
    assert norm_quantile(p) == -norm_quantile(1.0 - p)

@given(st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=200)
def test_quantile_reflection(p):
    # away from the far tails, rounding of 1-p costs well under 1e-9 in x
    assert norm_quantile(1.0 - p) == pytest.approx(-norm_quantile(p), abs=1e-9)


# ---------------------------------------------------------------------------
# tail lower bound

def test_tail_bound_at_zero():
    assert tail_lower_bound(0.0) == pytest.approx(phi(0.0), abs=1e-15)
    assert tail_lower_bound(0.0) < 0.5

def test_tail_bound_frozen_at_two():
    expected = 2.0 * phi(2.0) / (math.sqrt(8.0) + 2.0)
    assert tail_lower_bound(2.0) == pytest.approx(expected, abs=1e-15)
    assert tail_lower_bound(2.0) == pytest.approx(0.0224, abs=1e-4)
    assert tail_lower_bound(2.0) < 0.02275

def test_tail_bound_asymptotically_sharp():
    # at x=10 the bound captures more than 90% of the true tail mass
    true_tail = tail_by_continued_fraction(10.0)
    assert 0.9 * true_tail <= tail_lower_bound(10.0) < true_tail

def test_tail_bound_strictly_below_tail_dense_grid():
    for x in np.linspace(0.0, 10.0, 2001):
        assert tail_lower_bound(float(x)) < norm_sf(float(x))

def test_tail_bound_rejects_negative():
    with pytest.raises(ValueError):
        tail_lower_bound(-0.5)

"""Bit-for-bit tests of the per-replication fast paths.

The quantile's single-pass array path and its scalar path, the re-keyed
Philox behind the block sampler, the one-pass procedures with their shared
step-up core and threshold cache, GroupedPValues.with_pvalues and the
sort-based GroupedPValues.from_labels each replaced simpler code, and the
leave-one-out weights now reuse gbh1's weight formula.  That earlier code is
kept below as the oracle, and every output is compared byte for byte.  The
scalar erfc port is compared with scipy.special.erfc, the kernel it ports.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from gbh_fdr import (GBHWeights, GroupedPValues, RejectionResult, bh_step_up,
                     gbh1, gbh1_weights, gbh1_weights_loo, norm_cdf, norm_quantile,
                     norm_sf, procedures, simulator, storey)
from gbh_fdr.normal import (_ACKLAM_SPLIT, _INV_SQRT_2, _INV_SQRT_2PI, _MAXLOG,
                            _acklam_central, _acklam_tail, _erfc_array, _erfc_scalar,
                            _libm_exp)


# ---------------------------------------------------------------------------
# oracles: the masked array quantile and the per-group procedures

def oracle_quantile(p) -> np.ndarray:
    flat = np.asarray(p, dtype=float).ravel()
    mirror = flat > 0.5
    pm = np.where(mirror, 1.0 - flat, flat)
    out = np.empty_like(pm)
    edge = pm == 0.0
    tail = (~edge) & (pm < _ACKLAM_SPLIT)
    mid = ~(edge | tail)
    out[edge] = -np.inf
    if tail.any():
        out[tail] = _acklam_tail(pm[tail])
    if mid.any():
        out[mid] = _acklam_central(pm[mid])
    finite = np.isfinite(out)
    if finite.any():
        x = out[finite]
        dens = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        cdf = 0.5 * erfc(-x * _INV_SQRT_2)
        step = np.where(dens > 0.0, (cdf - pm[finite]) / np.where(dens > 0.0, dens, 1.0), 0.0)
        out[finite] = x - step
    return np.where(mirror, -out, out).reshape(np.shape(p))


def oracle_bh_step_up(scores, alpha) -> RejectionResult:
    s = np.asarray(scores, dtype=float)
    m = s.size
    sorted_s = np.sort(s)
    thresholds = alpha * np.arange(1, m + 1) / m
    ok = np.nonzero(sorted_s <= thresholds)[0]
    k_star = int(ok[-1] + 1) if ok.size else 0
    threshold = k_star * alpha / m
    rejected = tuple(int(i) for i in np.nonzero(s <= threshold)[0]) if k_star else ()
    return RejectionResult(rejected=rejected, k_star=k_star, threshold=threshold,
                           weighted_pvalues=s)


def oracle_gbh1_weights(gp, lam) -> GBHWeights:
    p = gp.pvalues
    m, g = gp.m, gp.g
    r_per_group = tuple(int(np.count_nonzero(p[idx] <= lam)) for idx in gp.groups)
    r_total = sum(r_per_group)
    w = []
    for j, idx in enumerate(gp.groups):
        n_j, r_j = idx.size, r_per_group[j]
        if r_j == 0:
            w.append(math.inf)
        else:
            w.append((n_j - r_j + 1) * (r_total + g - 1) / (m * (1.0 - lam) * r_j))
    return GBHWeights(w=tuple(w), r_total=r_total, r_per_group=r_per_group)


def oracle_gbh1_weights_loo(gp, lam, k) -> GBHWeights:
    m, g = gp.m, gp.g
    below = gp.pvalues <= lam
    counts = np.bincount(gp.labels[below], minlength=g)
    if below[k]:
        counts[gp.labels[k]] -= 1
    r_per_group = counts.tolist()
    r_total = sum(r_per_group)
    w = tuple((n_j - r_j) * (r_total + g) / (m * (1.0 - lam) * (r_j + 1))
              for n_j, r_j in zip(gp.group_sizes, r_per_group))
    return GBHWeights(w=w, r_total=r_total, r_per_group=tuple(r_per_group))


def oracle_gbh1(gp, lam, alpha) -> RejectionResult:
    wts = oracle_gbh1_weights(gp, lam)
    w_by_index = np.asarray(wts.w, dtype=float)[gp.labels]
    infinite = np.isinf(w_by_index)
    scores = np.where(infinite, np.inf, gp.pvalues * np.where(infinite, 1.0, w_by_index))
    return oracle_bh_step_up(scores, alpha)


def oracle_storey(pvalues, lam, alpha) -> RejectionResult:
    p = np.asarray(pvalues, dtype=float)
    m = p.size
    r = int(np.count_nonzero(p <= lam))
    w = (m - r + 1) / (m * (1.0 - lam))
    return oracle_bh_step_up(p * w, alpha)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_result(got: RejectionResult, want: RejectionResult) -> None:
    assert got.rejected == want.rejected
    assert all(type(i) is int for i in got.rejected)
    assert type(got.k_star) is int and got.k_star == want.k_star
    assert bits(got.threshold) == bits(want.threshold)
    assert got.weighted_pvalues.tobytes() == want.weighted_pvalues.tobytes()


# ---------------------------------------------------------------------------
# norm_quantile, array path

EDGES = np.array([
    0.0, 1.0, 5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-20,
    0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
    _ACKLAM_SPLIT, np.nextafter(_ACKLAM_SPLIT, 0.0), np.nextafter(_ACKLAM_SPLIT, 1.0),
    1.0 - _ACKLAM_SPLIT, np.nextafter(1.0 - _ACKLAM_SPLIT, 0.0),
    np.nextafter(1.0 - _ACKLAM_SPLIT, 1.0),
    0.5 / 2 ** 53, 1.5 / 2 ** 53, 1.0 - 0.5 / 2 ** 53, 1.0 - 1.5 / 2 ** 53,
    np.nextafter(1.0, 0.0), 1.0 - 1e-12, 1e-12, 0.025, 0.975,
])

unit_floats = st.floats(min_value=0.0, max_value=1.0)
log_tails = st.floats(min_value=-323.0, max_value=0.0).map(lambda e: 10.0 ** e)
probabilities = st.one_of(unit_floats, log_tails, log_tails.map(lambda t: 1.0 - t))


def test_array_quantile_matches_oracle_on_edges():
    assert norm_quantile(EDGES).tobytes() == oracle_quantile(EDGES).tobytes()
    rng = np.random.default_rng(5)
    dense = np.concatenate([rng.random(20000), 10.0 ** rng.uniform(-323.0, 0.0, 20000),
                            (rng.integers(0, 2 ** 53, 20000) + 0.5) / 2 ** 53])
    assert norm_quantile(dense).tobytes() == oracle_quantile(dense).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(probabilities, min_size=1, max_size=40))
def test_array_quantile_matches_oracle_property(ps):
    p = np.array(ps)
    assert norm_quantile(p).tobytes() == oracle_quantile(p).tobytes()


def test_array_quantile_keeps_shape():
    grid = EDGES[:24].reshape(4, 6)
    out = norm_quantile(grid)
    assert out.shape == (4, 6)
    assert out.tobytes() == oracle_quantile(grid).tobytes()
    strided = grid[:, ::2]
    assert norm_quantile(strided).tobytes() == oracle_quantile(strided).tobytes()
    for empty in (np.empty(0), np.empty((3, 0))):
        assert norm_quantile(empty).shape == empty.shape


def test_quantile_endpoints_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = norm_quantile(np.array([0.0, 1.0, 5e-324]))
        assert out[0] == -np.inf and out[1] == np.inf and np.isfinite(out[2])
        for p in (0.0, 1.0, 5e-324):
            norm_quantile(p)


# ---------------------------------------------------------------------------
# norm_quantile, scalar path

@settings(max_examples=400, deadline=None)
@given(probabilities)
def test_scalar_quantile_matches_array_path(p):
    want = norm_quantile(np.array([p]))[0]
    for arg in (p, np.float64(p), np.array(p)):
        got = norm_quantile(arg)
        assert type(got) is float
        assert bits(got) == want.tobytes()


def test_scalar_quantile_matches_array_path_on_edges():
    want = norm_quantile(EDGES)
    for p, w in zip(EDGES.tolist(), want):
        assert bits(norm_quantile(p)) == w.tobytes()


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1])
def test_scalar_quantile_rejects_like_array_path(bad):
    with pytest.raises(ValueError) as scalar_err:
        norm_quantile(bad)
    with pytest.raises(ValueError) as array_err:
        norm_quantile(np.array([0.5, bad]))
    assert str(scalar_err.value) == str(array_err.value)


@pytest.mark.parametrize("bad", [math.nan, -math.nan, -0.1, 1.1, -math.inf, math.inf, -5e-324,
                                 np.nextafter(1.0, 2.0)])
def test_array_quantile_rejects_a_bad_value_anywhere_in_a_block(bad):
    # One argmin/argmax pair checks the range; each cell of a 2-d block, in
    # either memory order, must still be seen.
    for order in ("C", "F"):
        for cell in ((0, 0), (1, 2), (2, 3)):
            block = np.full((3, 4), 0.5, order=order)
            block[cell] = bad
            with pytest.raises(ValueError, match=r"^norm_quantile: p must lie in \[0, 1\]$"):
                norm_quantile(block)


# ---------------------------------------------------------------------------
# the scalar erfc port against scipy.special.erfc, and the scalar cdf and sf

def _around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# Branch edges of the Cephes kernel (|x| = 1 and 8), its underflow cut at
# |x| = sqrt(MAXLOG) ~ 26.64, signed zeros, subnormals, infinities and NaNs
# (scipy returns the default NaN whatever the payload or sign).
_EDGE_MAGNITUDES = np.array(
    [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-8]
    + _around(1.0) + _around(8.0) + _around(math.sqrt(_MAXLOG))
    + [26.0, 27.0, 1e10, 1.7976931348623157e308, np.inf])
ERFC_EDGES = np.concatenate([
    _EDGE_MAGNITUDES, -_EDGE_MAGNITUDES,
    [np.nan, -np.nan, np.array([0x7FF8000000000123]).view(np.float64)[0]],
])


def assert_erfc_bits(xs) -> None:
    xs = np.asarray(xs, dtype=float)
    got = np.array([_erfc_scalar(x) for x in xs.tolist()]).view(np.int64)
    want = erfc(xs).view(np.int64)
    assert [x for x, g, w in zip(xs.tolist(), got, want) if g != w] == []


def _erfc_random_sets():
    rng = np.random.default_rng(11)
    return np.concatenate([rng.uniform(-30.0, 30.0, 40000),
                           rng.standard_normal(20000) * 5.0,
                           rng.uniform(-1.5, 1.5, 20000),
                           rng.uniform(-8.5, 8.5, 20000)])


def test_erfc_port_is_bitwise_scipy_on_edges():
    assert_erfc_bits(ERFC_EDGES)
    assert_erfc_bits(_erfc_random_sets())


@settings(max_examples=3000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_erfc_port_is_bitwise_scipy(x):
    assert_erfc_bits([x])


# ---------------------------------------------------------------------------
# the array erfc kernel against scipy.special.erfc

def assert_erfc_array_bits(xs) -> None:
    xs = np.asarray(xs, dtype=float)
    got = _erfc_array(xs, np.empty_like(xs)).view(np.int64)
    want = erfc(xs).view(np.int64)
    assert [x for x, g, w in zip(xs.tolist(), got, want) if g != w] == []


def test_erfc_array_is_bitwise_scipy_on_edges():
    assert_erfc_array_bits(ERFC_EDGES)
    assert_erfc_array_bits(_erfc_random_sets())


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(min_value=-30.0, max_value=30.0),
                          st.sampled_from(ERFC_EDGES.tolist())), max_size=60))
def test_erfc_array_is_bitwise_scipy(xs):
    assert_erfc_array_bits(xs)


# The edges and a few ordinary values as a 6 x 8 grid.
ERFC_GRID = np.concatenate([ERFC_EDGES, np.linspace(-9.0, 9.0, 7)]).reshape(6, 8)


@pytest.mark.parametrize("layout", ["C", "Fortran", "strided", "strided out", "read-only",
                                    "aliased", "aliased strided", "empty"])
def test_erfc_array_handles_every_layout(layout):
    grid = ERFC_GRID.copy()
    base = np.repeat(grid, 2, axis=1)  # the strided cases use its even columns
    if layout == "read-only":
        grid.flags.writeable = False
    arg, out = {
        "C": (grid, np.empty_like(grid)),
        "Fortran": (np.asfortranarray(grid), np.empty(grid.shape, order="F")),
        "strided": (base[:, ::2], np.empty_like(grid)),
        "strided out": (grid, base[:, ::2]),
        "read-only": (grid, np.empty_like(grid)),
        "aliased": (grid, grid),
        "aliased strided": (base[:, ::2],) * 2,
        "empty": (np.empty((3, 0)), np.empty((3, 0))),
    }[layout]
    want = erfc(arg).tobytes()
    arg_before, base_before = arg.tobytes(), base.copy()
    got = _erfc_array(arg, out)
    assert got is out and got.shape == arg.shape
    assert got.tobytes() == want
    if out is not arg:
        assert arg.tobytes() == arg_before
    # Only out's own elements are written: the odd columns of base stay.
    assert base[:, 1::2].tobytes() == base_before[:, 1::2].tobytes()


def test_erfc_array_takes_0d_arrays():
    for v in ERFC_GRID.ravel().tolist():
        arg = np.array(v)
        got = _erfc_array(arg, np.empty(()))
        assert got.shape == () and got.tobytes() == erfc(arg).tobytes()
        assert _erfc_array(arg, arg) is arg and arg.tobytes() == erfc(v).tobytes()


def test_libm_exp_route_is_math_exp():
    # The outer branches take exp through numpy's complex exp to get libm's
    # bits; this holds that route to math.exp down to the subnormal results.
    grid = np.concatenate([np.linspace(0.0, -746.0, 746001),
                           -np.random.default_rng(2).uniform(0.0, 746.0, 200000),
                           [-0.0, -5e-324, -708.3964185322641, -745.1332191019411,
                            -745.1332191019412, -746.0]])
    got = _libm_exp(grid).view(np.int64)
    want = np.array([math.exp(v) for v in grid.tolist()]).view(np.int64)
    assert [v for v, g, w in zip(grid.tolist(), got, want) if g != w] == []


def test_erfc_array_does_not_warn_at_the_extremes():
    xs = np.array([np.inf, -np.inf, 1e308, -1e308, 1.7976931348623157e308,
                   5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 27.0, -27.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _erfc_array(xs, np.empty_like(xs))
        cdf = norm_cdf(xs)
        sf = norm_sf(xs)
    assert got.tobytes() == erfc(xs).tobytes()
    assert cdf.tobytes() == (0.5 * erfc(xs * -_INV_SQRT_2)).tobytes()
    assert sf.tobytes() == (0.5 * erfc(xs * _INV_SQRT_2)).tobytes()


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.floats(allow_nan=False),
                 st.sampled_from(ERFC_EDGES[:-3].tolist()).map(lambda e: e * math.sqrt(2.0))))
def test_scalar_cdf_and_sf_match_array_path(x):
    for fn in (norm_cdf, norm_sf):
        want = fn(np.array([x]))[0]
        for arg in (x, np.float64(x), np.array(x)):
            got = fn(arg)
            assert type(got) is float
            assert bits(got) == want.tobytes()


@pytest.mark.parametrize("fn", [norm_cdf, norm_sf])
def test_scalar_cdf_and_sf_reject_nan_like_array_path(fn):
    messages = set()
    for arg in (math.nan, np.float64("nan"), np.array(-math.nan), np.array([0.5, math.nan])):
        with pytest.raises(ValueError) as err:
            fn(arg)
        messages.add(str(err.value))
    assert messages == {f"{fn.__name__}: NaN is not a valid argument"}


def _clipped_sf(y):
    return np.clip(0.5 * erfc(y * _INV_SQRT_2), 1e-300, np.nextafter(1.0, 0.0))


_REALS = np.concatenate([-_EDGE_MAGNITUDES, _EDGE_MAGNITUDES,
                         np.random.default_rng(3).standard_normal(600) * 9.0])


# The array kernels build their results in place; each runs on an input it may
# not write (read-only, or a strided view of a larger array) and must give the
# oracle's bits and leave every byte of that input as it was.
@pytest.mark.parametrize("kernel, oracle, values", [
    (norm_quantile, oracle_quantile, EDGES),
    (norm_sf, lambda x: 0.5 * erfc(x * _INV_SQRT_2), _REALS),
    (norm_cdf, lambda x: 0.5 * erfc(x * -_INV_SQRT_2), _REALS),
    (simulator.pvalues_from_sample, _clipped_sf, _REALS),
], ids=["norm_quantile", "norm_sf", "norm_cdf", "pvalues_from_sample"])
@pytest.mark.parametrize("layout", ["read-only", "strided"])
def test_array_kernels_leave_their_input_alone(kernel, oracle, values, layout):
    base = np.tile(values, 3)
    if layout == "read-only":
        arg = base
        arg.flags.writeable = False
    else:
        arg = base.reshape(3, -1)[:, ::2]
    before = base.tobytes()
    out = kernel(arg)
    assert out.shape == arg.shape
    assert out.tobytes() == oracle(arg).tobytes()
    assert base.tobytes() == before


# ---------------------------------------------------------------------------
# re-keyed Philox

@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(min_value=-(2 ** 63), max_value=-1),
                   st.integers(min_value=0, max_value=2 ** 20),
                   st.integers(min_value=2 ** 63, max_value=2 ** 64 - 1)),
    lo=st.one_of(st.integers(min_value=0, max_value=2 ** 40),
                 st.just(2 ** 64 - 2)),
    count=st.sampled_from((1, 2, 5)),
    width=st.sampled_from((1, 3, 4, 5, 201)),
)
def test_rekeyed_rows_equal_fresh_philox(seed, lo, count, width):
    words = simulator._block_words(seed, lo, lo + count, width)
    assert words.shape == (count, width)
    for i in range(count):
        key = np.array([seed % 2 ** 64, (lo + i) % 2 ** 64], dtype=np.uint64)
        assert words[i].tobytes() == np.random.Philox(key=key).random_raw(width).tobytes()


# ---------------------------------------------------------------------------
# procedures against the oracles

LAMBDAS = (0.05, 0.3, 0.5)


@st.composite
def grouped_instances(draw):
    m = draw(st.integers(min_value=1, max_value=14))
    g = draw(st.integers(min_value=1, max_value=min(m, 6)))
    lam = draw(st.sampled_from(LAMBDAS))
    # A small pool makes ties, p == lambda, 0 and 1 common.
    pool = st.sampled_from((0.0, 1.0, lam, 0.001, 0.01, 0.2, 0.7, 0.95))
    pvalues = draw(st.lists(st.one_of(pool, unit_floats), min_size=m, max_size=m))
    # Every group nonempty; labels in random, non-contiguous order.
    labels = list(range(g)) + draw(st.lists(st.integers(0, g - 1), min_size=m - g,
                                            max_size=m - g))
    labels = draw(st.permutations(labels))
    alpha = draw(st.sampled_from((0.05, 0.2, 0.5)))
    return GroupedPValues.from_labels(np.array(pvalues), labels), lam, alpha


@st.composite
def wide_instances(draw):
    """m from 15 to 300, drawn from a seeded generator to keep hypothesis fast."""
    m = draw(st.integers(min_value=15, max_value=300))
    g = draw(st.integers(min_value=1, max_value=12))
    lam = draw(st.sampled_from(LAMBDAS))
    alpha = draw(st.sampled_from((0.05, 0.2, 0.5)))
    signal_share = draw(st.sampled_from((0.0, 0.1, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = np.array([0.0, 1.0, lam, 0.001, 0.01, 0.2, 0.7, 0.95])
    p = np.where(rng.random(m) < 0.3, rng.choice(pool, m), rng.random(m))
    p[rng.random(m) < signal_share] *= 1e-3
    labels = rng.permutation(np.concatenate([np.arange(g), rng.integers(0, g, m - g)]))
    return GroupedPValues.from_labels(p, labels.tolist()), lam, alpha


def assert_procedures_match_oracles(gp, lam, alpha):
    wts, want = gbh1_weights(gp, lam), oracle_gbh1_weights(gp, lam)
    assert wts == want
    assert all(type(r) is int for r in wts.r_per_group) and type(wts.r_total) is int
    assert_same_result(gbh1(gp, lam, alpha), oracle_gbh1(gp, lam, alpha))
    assert_same_result(storey(gp.pvalues, lam, alpha), oracle_storey(gp.pvalues, lam, alpha))
    assert_same_result(bh_step_up(gp.pvalues, alpha), oracle_bh_step_up(gp.pvalues, alpha))


@settings(max_examples=400, deadline=None)
@given(grouped_instances())
def test_procedures_match_oracles(instance):
    assert_procedures_match_oracles(*instance)


@settings(max_examples=300, deadline=None)
@given(wide_instances())
def test_procedures_match_oracles_up_to_m300(instance):
    assert_procedures_match_oracles(*instance)


def assert_loo_weights_match_oracle(gp, lam):
    for k in range(gp.m):
        got, want = gbh1_weights_loo(gp, lam, k), oracle_gbh1_weights_loo(gp, lam, k)
        assert bits(got.w) == bits(want.w)
        assert got.r_total == want.r_total and type(got.r_total) is int
        assert got.r_per_group == want.r_per_group
        assert all(type(r) is int for r in got.r_per_group)


@settings(max_examples=400, deadline=None)
@given(grouped_instances())
def test_loo_weights_match_oracle(instance):
    assert_loo_weights_match_oracle(*instance[:2])


@settings(max_examples=100, deadline=None)
@given(wide_instances())
def test_loo_weights_match_oracle_up_to_m300(instance):
    assert_loo_weights_match_oracle(*instance[:2])


def _ulp_split_k(m, a, b):
    """A k whose threshold differs between the alphas a < b, or None."""
    apart = np.flatnonzero(a * np.arange(1, m + 1) / m != b * np.arange(1, m + 1) / m)
    return int(apart[0]) + 1 if apart.size else None


def test_threshold_cache_is_keyed_by_m_and_alpha():
    # Scores sit exactly on the thresholds of the larger of two alphas one
    # ulp apart, so a threshold array reused across m or alpha changes k_star.
    a = 0.05
    b = float(np.nextafter(a, 1.0))
    pairs = [(m, alpha) for m in (7, 20, 21, 64, 300)
             for alpha in (a, b, np.float64(b), 0.2, np.array(0.2))]
    rng = np.random.default_rng(3)
    split = 0
    for i in np.concatenate([rng.permutation(len(pairs)) for _ in range(3)]):
        m, alpha = pairs[i]
        k = _ulp_split_k(m, a, b) or m
        scores = np.ones(m)
        scores[:k] = b * np.arange(1, k + 1) / m
        scores = rng.permutation(scores)
        got = bh_step_up(scores, alpha)
        assert_same_result(got, oracle_bh_step_up(scores, alpha))
        split += alpha == a and got.k_star < k
        gp = GroupedPValues.from_labels(scores / 2.0, rng.integers(0, 3, m).tolist())
        assert_same_result(gbh1(gp, 0.3, alpha), oracle_gbh1(gp, 0.3, alpha))
        assert_same_result(storey(gp.pvalues, 0.3, alpha), oracle_storey(gp.pvalues, 0.3, alpha))
    assert split > 0


def test_threshold_cache_stays_bounded_and_read_only():
    cache = procedures._cached_thresholds
    cache.cache_clear()
    for m in range(1, 1001):
        bh_step_up(np.full(m, 0.5), 0.05)
        assert cache.cache_info().currsize <= procedures._THRESHOLD_CACHE_SIZE
    assert cache.cache_info().currsize == procedures._THRESHOLD_CACHE_SIZE
    cache.cache_clear()
    big = np.full(procedures._CACHED_M + 1, 0.01)
    assert_same_result(bh_step_up(big, 0.05), oracle_bh_step_up(big, 0.05))
    assert cache.cache_info().currsize == 0
    thresholds = cache(20, 0.05)
    assert thresholds.tobytes() == (0.05 * np.arange(1, 21) / 20).tobytes()
    with pytest.raises(ValueError):
        thresholds[0] = 1.0


def test_procedures_match_oracles_on_fixed_cases():
    cases = [
        # an infinite-weight group next to a group with ties at lambda
        (np.array([0.5, 0.5, 0.01, 0.7, 0.8, 0.9]), [0, 0, 0, 1, 1, 1], 0.5),
        # g = 1 with p of 0 and 1
        (np.array([0.0, 1.0, 0.0, 0.3, 1.0]), [7, 7, 7, 7, 7], 0.3),
        # non-contiguous labels, every group infinite but one
        (np.array([0.9, 0.01, 0.8, 0.02, 0.99, 0.6]), ["b", "a", "c", "a", "b", "c"], 0.05),
    ]
    for p, labels, lam in cases:
        gp = GroupedPValues.from_labels(p, labels)
        assert gbh1_weights(gp, lam) == oracle_gbh1_weights(gp, lam)
        assert_loo_weights_match_oracle(gp, lam)
        scores = np.array([0.0, np.inf, 0.01, 0.01, 2.0])
        assert_same_result(bh_step_up(scores, 0.2), oracle_bh_step_up(scores, 0.2))
        for alpha in (0.05, 0.5):
            assert_same_result(gbh1(gp, lam, alpha), oracle_gbh1(gp, lam, alpha))
            assert_same_result(storey(p, lam, alpha), oracle_storey(p, lam, alpha))


# ---------------------------------------------------------------------------
# GroupedPValues.with_pvalues

GROUPS = (np.array([4, 0, 2]), np.array([1, 3]))


def test_with_pvalues_matches_constructor():
    base = GroupedPValues(np.full(5, 0.5), GROUPS)
    p = np.array([0.01, 0.5, 0.0, 1.0, 0.3])
    got, want = base.with_pvalues(p), GroupedPValues(p, GROUPS)
    assert type(got) is GroupedPValues
    assert got.pvalues.tobytes() == want.pvalues.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert len(got.groups) == len(want.groups)
    for a, b in zip(got.groups, want.groups):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (got.m, got.g, got.group_sizes) == (want.m, want.g, want.group_sizes)
    assert_same_result(gbh1(got, 0.5, 0.1), gbh1(want, 0.5, 0.1))
    got_list = base.with_pvalues([0.01, 0.5, 0.0, 1.0, 0.3])
    assert got_list.pvalues.tobytes() == want.pvalues.tobytes()


def test_with_pvalues_shares_the_partition():
    base = GroupedPValues(np.full(5, 0.5), GROUPS)
    new = base.with_pvalues(np.linspace(0.0, 1.0, 5))
    assert new.groups is base.groups
    assert new.labels is base.labels
    assert new.pvalues is not base.pvalues


RANGE = "every p-value must lie in [0, 1]"
SHAPE = "pvalues must be a nonempty 1-d vector"
PARTITION = "groups must partition the index range exactly"
BH_RANGE = "scores must be >= 0 (inf allowed, NaN not)"
BH_SHAPE = "scores must be a nonempty 1-d vector"


# The messages of GroupedPValues and with_pvalues (which gbh1 runs on), of
# storey and of bh_step_up; None where the input is accepted, as bh_step_up
# accepts scores above 1 and neither takes a partition.
REJECTED = [
    (np.array([0.1, np.nan, 0.2, 0.3, 0.4]), RANGE, RANGE, BH_RANGE),
    (np.array([0.1, -0.01, 0.2, 0.3, 0.4]), RANGE, RANGE, BH_RANGE),
    (np.array([0.1, 1.01, 0.2, 0.3, 0.4]), RANGE, RANGE, None),
    (np.full(4, 0.5), PARTITION, None, None),
    (np.full(6, 0.5), PARTITION, None, None),
    (np.full((5, 1), 0.5), SHAPE, SHAPE, BH_SHAPE),
    (np.empty(0), SHAPE, SHAPE, BH_SHAPE),
    (np.array([0.1, 0.2, 0.3, 0.4, np.nan]), RANGE, RANGE, BH_RANGE),
    (np.array([0.1, 0.2, 0.3, 0.4, np.nan, 0.5, 0.6, 0.7, 0.8, 0.9])[::2], RANGE, RANGE,
     BH_RANGE),
    ([0.1, -np.inf, 0.2, 0.3, 0.4], RANGE, RANGE, BH_RANGE),
    (np.array([0.1, np.inf, 0.2, 0.3, 0.4]), RANGE, RANGE, None),
    (np.array([0, 1, 2, 0, 1]), RANGE, RANGE, None),
    (np.array([0.1, 1.5, 0.2, 0.3, 0.4], dtype=np.float32), RANGE, RANGE, None),
]


@pytest.mark.parametrize("bad, message, storey_message, bh_message", REJECTED,
                         ids=[f"bad{i}" for i in range(len(REJECTED))])
def test_with_pvalues_rejects_like_constructor(bad, message, storey_message, bh_message):
    base = GroupedPValues(np.full(5, 0.5), GROUPS)
    with pytest.raises(ValueError) as from_base:
        base.with_pvalues(bad)
    with pytest.raises(ValueError) as from_constructor:
        GroupedPValues(bad, GROUPS)
    assert str(from_base.value) == str(from_constructor.value) == f"GroupedPValues: {message}"
    storey_want = storey_message and f"storey: {storey_message}"
    for call, want in ((lambda: storey(bad, 0.5, 0.05), storey_want),
                       (lambda: bh_step_up(bad, 0.05), bh_message)):
        if want is None:
            call()
        else:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == want


@pytest.mark.parametrize("convert", [
    lambda p: p.tolist(),
    lambda p: p.astype(np.float32),
    lambda p: np.repeat(p, 2)[::2],
    lambda p: (p > 0.4).astype(np.int64),
])
def test_public_procedures_accept_array_likes(convert):
    base = GroupedPValues(np.full(5, 0.5), GROUPS)
    given = convert(np.array([0.01, 0.5, 0.0, 1.0, 0.3]))
    p = np.asarray(given, dtype=float)
    assert base.with_pvalues(given).pvalues.tobytes() == p.tobytes()
    assert_same_result(gbh1(base.with_pvalues(given), 0.5, 0.2),
                       oracle_gbh1(GroupedPValues(p, GROUPS), 0.5, 0.2))
    assert_same_result(storey(given, 0.5, 0.2), oracle_storey(p, 0.5, 0.2))
    assert_same_result(bh_step_up(given, 0.2), oracle_bh_step_up(p, 0.2))


# ---------------------------------------------------------------------------
# GroupedPValues.from_labels

def oracle_from_labels(pvalues, labels) -> GroupedPValues:
    order: dict = {}
    for i, lab in enumerate(list(labels)):
        order.setdefault(lab, []).append(i)
    return GroupedPValues(np.asarray(pvalues, dtype=float),
                          tuple(np.asarray(v) for v in order.values()))


def built_or_error(build, pvalues, labels):
    try:
        return build(pvalues, labels)
    except ValueError as exc:
        return f"ValueError: {exc}"


# 1, 1.0, True and np.int64(1) are one dict key, as are 0, 0.0 and False.
label_values = st.one_of(st.integers(-2, 3), st.integers(-2, 3).map(np.int64),
                         st.sampled_from([1.0, True, 0.0, False, "1", "a", "", " a"]))


@settings(max_examples=400, deadline=None)
@given(labels=st.lists(label_values, max_size=40), extra=st.sampled_from([0, 0, 0, 1, -1]),
       data=st.data())
def test_from_labels_matches_oracle(labels, extra, data):
    n = max(len(labels) + extra, 0)
    pvalues = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    got = built_or_error(GroupedPValues.from_labels, pvalues, labels)
    want = built_or_error(oracle_from_labels, pvalues, labels)
    if isinstance(want, str):
        assert got == want
        return
    assert got.pvalues.tobytes() == want.pvalues.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert len(got.groups) == len(want.groups)
    for a, b in zip(got.groups, want.groups):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_from_labels_empty_input_raises_like_oracle():
    for labels in ([], iter(())):
        with pytest.raises(ValueError) as got:
            GroupedPValues.from_labels([], labels)
        with pytest.raises(ValueError) as want:
            oracle_from_labels([], [])
        assert str(got.value) == str(want.value)


def test_from_labels_many_groups_take_a_wider_code():
    labels = [f"g{i % 70_000}" for i in range(140_000)]
    gp = GroupedPValues.from_labels(np.full(len(labels), 0.5), labels)
    assert gp.g == 70_000
    assert gp.groups[69_999].tolist() == [69_999, 139_999]
    assert gp.labels[-1] == 69_999

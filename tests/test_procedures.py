"""Tests for the step-up procedures and the adaptive group weights.

The step-up rule is cross-validated against a brute-force counting oracle on
an exhaustive small grid, and the weight formulas against hand-derived frozen
examples plus seeded random instances for the order properties (leave-one-out
domination, monotonicity in a single p-value, single-group equivalence).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbh_fdr import (
    GroupedPValues,
    bh_step_up,
    gbh1,
    gbh1_weights,
    gbh1_weights_loo,
    storey,
)
from oracles import step_up_oracle


# ---------------------------------------------------------------------------
# container validation

def test_grouped_pvalues_basic_properties():
    gp = GroupedPValues(np.array([0.1, 0.2, 0.3, 0.4]), (np.array([0, 1]), np.array([2, 3])))
    assert gp.m == 4
    assert gp.g == 2
    assert gp.group_sizes == (2, 2)
    assert list(gp.labels) == [0, 0, 1, 1]

def test_grouped_pvalues_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GroupedPValues(np.array([0.1, 1.2]), (np.array([0, 1]),))
    with pytest.raises(ValueError):
        GroupedPValues(np.array([0.1, -0.1]), (np.array([0, 1]),))
    with pytest.raises(ValueError):
        GroupedPValues(np.array([0.1, math.nan]), (np.array([0, 1]),))
    with pytest.raises(ValueError):
        GroupedPValues(np.array([]), ())
    with pytest.raises(ValueError):
        GroupedPValues(np.array([0.1, 0.2]), ())
    with pytest.raises(ValueError):
        GroupedPValues(np.array([0.1, 0.2]), (np.array([0, 1]), np.array([], dtype=int)))
    # overlap and gap are both partition violations
    with pytest.raises(ValueError):
        GroupedPValues(np.array([0.1, 0.2]), (np.array([0]), np.array([0])))
    with pytest.raises(ValueError):
        GroupedPValues(np.array([0.1, 0.2, 0.3]), (np.array([0]), np.array([2])))

@pytest.mark.parametrize("group", [(0.9, 1.2), (0.0, 1.0), ("0", "1"), (True, False),
                                   np.array([0, 1], dtype=object)])
def test_grouped_pvalues_rejects_non_integer_indices(group):
    # The indices are checked, not cast: a cast would read 1.2 and True as 1.
    with pytest.raises(ValueError, match=r"^GroupedPValues: group indices must be integers"):
        GroupedPValues(np.array([0.1, 0.2]), (group,))
    with pytest.raises(ValueError, match=r"^GroupedPValues: group indices must be integers"):
        GroupedPValues(np.array([0.1, 0.2, 0.3]), (np.array([2]), group))

def test_grouped_pvalues_takes_any_integer_dtype():
    for dtype in (np.int8, np.uint16, np.int32, np.int64, np.uint64):
        gp = GroupedPValues(np.array([0.1, 0.2, 0.3]),
                            (np.array([2, 0], dtype=dtype), np.array([1], dtype=dtype)))
        assert all(g.dtype == np.intp for g in gp.groups)
        assert [g.tolist() for g in gp.groups] == [[2, 0], [1]]
    gp = GroupedPValues(np.array([0.1, 0.2]), ((0, 1),))
    assert gp.groups[0].dtype == np.intp and gp.groups[0].tolist() == [0, 1]

@pytest.mark.parametrize("groups, message", [
    ((), "at least one group is required"),
    (((0, 1), ()), "empty groups are not allowed"),
    (((0,), (0,)), "groups must partition the index range exactly"),
])
def test_grouped_pvalues_keeps_its_messages(groups, message):
    with pytest.raises(ValueError) as e:
        GroupedPValues(np.array([0.1, 0.2]), groups)
    assert str(e.value) == f"GroupedPValues: {message}"

def test_from_labels_orders_by_first_appearance():
    gp = GroupedPValues.from_labels([0.5, 0.6, 0.7], ["b", "a", "b"])
    assert gp.g == 2
    assert list(gp.groups[0]) == [0, 2]
    assert list(gp.groups[1]) == [1]
    assert list(gp.labels) == [0, 1, 0]


# ---------------------------------------------------------------------------
# step-up rule vs. the counting oracle

def test_step_up_exhaustive_small_grid():
    """Every p-vector over {0.01, 0.5, 1}^m for m <= 8, at two alpha levels."""
    for m in range(1, 9):
        for combo in itertools.product((0.01, 0.5, 1.0), repeat=m):
            for alpha in (0.05, 0.5):
                got = bh_step_up(np.array(combo), alpha)
                want = step_up_oracle(np.array(combo), alpha)
                assert got.rejected == want.rejected
                assert got.k_star == want.k_star
                assert got.threshold == pytest.approx(want.threshold)

def test_step_up_frozen_example():
    # thresholds 0.025/0.05/0.075/0.1: the two smallest clear their ranks
    res = bh_step_up(np.array([0.01, 0.02, 0.2, 0.9]), 0.1)
    assert res.k_star == 2
    assert res.rejected == (0, 1)
    assert res.threshold == pytest.approx(0.05)

def test_step_up_frozen_example_three_values():
    # thresholds 0.0167/0.0333/0.05
    res = bh_step_up(np.array([0.01, 0.02, 0.9]), 0.05)
    assert res.k_star == 2
    assert res.rejected == (0, 1)

def test_step_up_single_value():
    assert bh_step_up(np.array([0.04]), 0.05).rejected == (0,)
    assert bh_step_up(np.array([0.06]), 0.05).rejected == ()

@given(
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=25),
    st.floats(0.05, 0.9),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_step_up_monotone_under_score_decrease(scores, alpha, data):
    """Lowering any one score never shrinks the rejected set."""
    s = np.array(scores)
    i = data.draw(st.integers(0, s.size - 1))
    before = set(bh_step_up(s, alpha).rejected)
    lowered = s.copy()
    lowered[i] = data.draw(st.floats(0.0, float(s[i]))) if s[i] > 0 else 0.0
    after = set(bh_step_up(lowered, alpha).rejected)
    assert before <= after

def test_step_up_boundary_is_inclusive():
    # a score exactly at k*alpha/m is rejected
    res = bh_step_up(np.array([0.05, 0.05]), 0.1)
    assert res.k_star == 2
    assert res.rejected == (0, 1)

def test_step_up_no_rejections():
    res = bh_step_up(np.array([0.9, 0.8, 1.0]), 0.05)
    assert res.k_star == 0
    assert res.rejected == ()
    assert res.threshold == 0.0

def test_step_up_handles_infinite_scores():
    res = bh_step_up(np.array([math.inf, 0.01]), 0.05)
    assert res.rejected == (1,)
    assert res.k_star == 1

def test_step_up_input_validation():
    with pytest.raises(ValueError):
        bh_step_up(np.array([0.1, -0.2]), 0.05)
    with pytest.raises(ValueError):
        bh_step_up(np.array([0.1, math.nan]), 0.05)
    with pytest.raises(ValueError):
        bh_step_up(np.array([]), 0.05)
    with pytest.raises(ValueError):
        bh_step_up(np.array([0.1]), 1.5)

@given(
    st.lists(st.one_of(st.floats(0.0, 1.5), st.just(math.inf)), min_size=1, max_size=40),
    st.floats(0.01, 0.9),
)
@settings(max_examples=300, deadline=None)
def test_step_up_matches_oracle_property(scores, alpha):
    got = bh_step_up(np.array(scores), alpha)
    want = step_up_oracle(np.array(scores), alpha)
    assert got.rejected == want.rejected
    assert got.k_star == want.k_star

@given(
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=30),
    st.floats(0.01, 0.9),
)
@settings(max_examples=200, deadline=None)
def test_step_up_rejection_count_equals_k_star(scores, alpha):
    res = bh_step_up(np.array(scores), alpha)
    assert len(res.rejected) == res.k_star
    assert list(res.rejected) == sorted(res.rejected)
    for i in res.rejected:
        assert res.weighted_pvalues[i] <= res.threshold


# ---------------------------------------------------------------------------
# adaptive weights: frozen hand-derived examples

def test_weights_single_group_frozen():
    # m=4, lambda=0.5: R=2, w = (4-2+1)*(2+1-1)/(4*0.5*2) = 3*2/4 = 1.5
    gp = GroupedPValues(np.array([0.01, 0.2, 0.6, 0.9]), (np.arange(4),))
    wts = gbh1_weights(gp, 0.5)
    assert wts.r_total == 2
    assert wts.r_per_group == (2,)
    assert wts.w == (1.5,)

def test_weights_two_groups_with_degenerate_group():
    # group 0 has both values above lambda -> infinite weight;
    # group 1: w = (2-2+1)*(2+2-1)/(4*0.5*2) = 3/4
    gp = GroupedPValues(np.array([0.8, 0.9, 0.01, 0.3]),
                        (np.array([0, 1]), np.array([2, 3])))
    wts = gbh1_weights(gp, 0.5)
    assert wts.r_per_group == (0, 2)
    assert wts.w[0] == math.inf
    assert wts.w[1] == pytest.approx(0.75)

def test_weights_two_groups_all_below_frozen():
    # m=6, two groups of 3, every p below lambda=0.5:
    # w_j = (3-3+1)*(6+2-1)/(6*0.5*3) = 7/9 for both groups
    gp = GroupedPValues(np.full(6, 0.1), (np.arange(3), np.arange(3, 6)))
    wts = gbh1_weights(gp, 0.5)
    assert wts.r_total == 6
    assert wts.w[0] == pytest.approx(7.0 / 9.0, rel=1e-15)
    assert wts.w[1] == pytest.approx(7.0 / 9.0, rel=1e-15)

def test_weights_infinite_iff_zero_count_seeded_instances():
    rng = np.random.default_rng(99)
    for _ in range(300):
        gp = _random_instance(rng)
        lam = float(rng.choice([0.2, 0.5]))
        wts = gbh1_weights(gp, lam)
        for j in range(gp.g):
            assert math.isinf(wts.w[j]) == (wts.r_per_group[j] == 0)
            assert wts.w[j] > 0.0

def test_loo_weights_frozen():
    gp = GroupedPValues(np.array([0.01, 0.2, 0.6, 0.9]), (np.arange(4),))
    # k=2 has p=0.6 > lambda: counts unchanged, so
    # w_loo = (4-2)*(2+1)/(4*0.5*(2+1)) = 6/6 = 1.0, strictly below w = 1.5
    loo_hi = gbh1_weights_loo(gp, 0.5, 2)
    assert loo_hi.r_per_group == (2,)
    assert loo_hi.w == (1.0,)
    # k=0 has p=0.01 <= lambda: count drops to 1 and the formula lands
    # exactly back on the full-data weight
    loo_lo = gbh1_weights_loo(gp, 0.5, 0)
    assert loo_lo.r_per_group == (1,)
    assert loo_lo.w == (1.5,)

def test_loo_identity_above_threshold_seeded_instances():
    """For p_k > lambda the leave-one-out weight factors out of the full one:
    w_loo = w * (n_j - R_j) R_j (R + g) / ((n_j - R_j + 1)(R_j + 1)(R + g - 1))
    whenever R_j > 0.  (Dropping the (n_j - R_j)/(n_j - R_j + 1) factor breaks
    on the worked example above: it would predict 1.5 instead of 1.0.)"""
    rng = np.random.default_rng(2026)
    checked = 0
    for _ in range(1000):
        gp = _random_instance(rng)
        lam = float(rng.choice([0.2, 0.5]))
        k = int(rng.integers(gp.m))
        if gp.pvalues[k] <= lam:
            continue
        j = int(gp.labels[k])
        wts = gbh1_weights(gp, lam)
        n_j = gp.group_sizes[j]
        r_j, r = wts.r_per_group[j], wts.r_total
        if r_j == 0:
            continue
        g = gp.g
        factor = ((n_j - r_j) * r_j * (r + g)) / ((n_j - r_j + 1) * (r_j + 1) * (r + g - 1))
        loo = gbh1_weights_loo(gp, lam, k)
        assert loo.w[j] == pytest.approx(wts.w[j] * factor, rel=1e-12)
        checked += 1
    assert checked > 200

def test_loo_weights_always_finite():
    # even when every p-value in the group is above lambda
    gp = GroupedPValues(np.array([0.9, 0.95]), (np.arange(2),))
    loo = gbh1_weights_loo(gp, 0.5, 0)
    assert all(math.isfinite(v) for v in loo.w)

def test_loo_index_validation():
    gp = GroupedPValues(np.array([0.1, 0.2]), (np.arange(2),))
    with pytest.raises(ValueError):
        gbh1_weights_loo(gp, 0.5, 2)
    with pytest.raises(ValueError):
        gbh1_weights_loo(gp, 0.5, -1)

@pytest.mark.parametrize("k, message", [
    (1.7, "index k=1.7 must be an integer"),
    (1.0, "index k=1.0 must be an integer"),
    ("1", "index k='1' must be an integer"),
    (None, "index k=None must be an integer"),
    (True, "index k=True must be an integer"),
    (False, "index k=False must be an integer"),
    (np.True_, "index k=np.True_ must be an integer"),
])
def test_loo_index_must_be_an_integer(k, message):
    gp = GroupedPValues(np.array([0.1, 0.2, 0.7]), (np.arange(3),))
    with pytest.raises(ValueError) as exc:
        gbh1_weights_loo(gp, 0.5, k)
    assert str(exc.value) == message

def test_loo_index_accepts_numpy_integers():
    gp = GroupedPValues(np.array([0.1, 0.2, 0.7]), (np.array([0, 2]), np.array([1])))
    for k in range(3):
        want = gbh1_weights_loo(gp, 0.5, k)
        assert gbh1_weights_loo(gp, 0.5, np.int64(k)) == want
        assert gbh1_weights_loo(gp, 0.5, np.intp(k)) == want


# ---------------------------------------------------------------------------
# weight order properties on seeded random instances

def _random_instance(rng):
    g = int(rng.integers(1, 5))
    sizes = rng.integers(1, 8, size=g)
    m = int(sizes.sum())
    # mix of small and large p-values so threshold counts vary
    p = np.where(rng.random(m) < 0.5, rng.random(m) * 0.5, 0.5 + rng.random(m) * 0.5)
    edges = np.concatenate(([0], np.cumsum(sizes)))
    groups = tuple(np.arange(edges[j], edges[j + 1]) for j in range(g))
    return GroupedPValues(p, groups)

def test_loo_domination_seeded_instances():
    """Full-data weight of k's group >= its leave-one-out weight, with
    equality exactly when p_k <= lambda."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        gp = _random_instance(rng)
        lam = float(rng.choice([0.2, 0.5]))
        wts = gbh1_weights(gp, lam)
        k = int(rng.integers(gp.m))
        j = int(gp.labels[k])
        loo = gbh1_weights_loo(gp, lam, k)
        if gp.pvalues[k] <= lam:
            assert wts.w[j] == loo.w[j]
        else:
            assert wts.w[j] > loo.w[j]

def test_weight_monotone_in_single_pvalue_seeded_instances():
    """Moving one p-value from below lambda to above it never lowers its own
    group's weight; moving it within one side changes nothing."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        gp = _random_instance(rng)
        lam = float(rng.choice([0.2, 0.5]))
        k = int(rng.integers(gp.m))
        j = int(gp.labels[k])
        p_lo, p_hi = gp.pvalues.copy(), gp.pvalues.copy()
        p_lo[k] = lam * rng.random()
        p_hi[k] = lam + (1.0 - lam) * max(rng.random(), 1e-12)
        w_lo = gbh1_weights(GroupedPValues(p_lo, gp.groups), lam).w[j]
        w_hi = gbh1_weights(GroupedPValues(p_hi, gp.groups), lam).w[j]
        assert w_hi >= w_lo
        # invariance within a side of the threshold
        p_lo2 = p_lo.copy()
        p_lo2[k] = lam * rng.random()
        assert gbh1_weights(GroupedPValues(p_lo2, gp.groups), lam).w == \
            gbh1_weights(GroupedPValues(p_lo, gp.groups), lam).w

def test_single_group_matches_storey_seeded_instances():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        m = int(rng.integers(1, 40))
        p = np.where(rng.random(m) < 0.4, rng.random(m) * 0.1, rng.random(m))
        lam = float(rng.choice([0.2, 0.5]))
        alpha = float(rng.choice([0.05, 0.1, 0.2]))
        gp = GroupedPValues(p, (np.arange(m),))
        a = gbh1(gp, lam, alpha)
        b = storey(p, lam, alpha)
        assert a.rejected == b.rejected
        assert a.k_star == b.k_star
        if np.count_nonzero(p <= lam) > 0:
            # with at least one small p-value the two weight formulas are
            # literally the same expression, so the scores agree too
            assert np.allclose(a.weighted_pvalues, b.weighted_pvalues)

def test_storey_reduction_corner_when_no_small_pvalues():
    """With zero threshold counts the single-group reduction holds for the
    rejected sets only in the usual parameter range: the grouped rule assigns
    weight +inf (never reject) while the one-group estimate stays finite, and
    at tiny lambda with a large alpha the two can genuinely part ways.  The
    grouped rule is the conservative one."""
    p = np.array([0.21, 0.22])
    gp = GroupedPValues(p, (np.arange(2),))
    grouped = gbh1(gp, 0.2, 0.5)
    single = storey(p, 0.2, 0.5)
    assert grouped.rejected == ()              # weight is +inf
    assert single.rejected == (0, 1)           # w = 1.875, both clear 0.5
    # at the standard operating point the divergence cannot bite
    assert gbh1(gp, 0.5, 0.05).rejected == storey(p, 0.5, 0.05).rejected == ()


# ---------------------------------------------------------------------------
# end-to-end procedure behavior

def test_gbh1_worked_example():
    gp = GroupedPValues(np.array([0.01, 0.2, 0.6, 0.9]), (np.arange(4),))
    res = gbh1(gp, 0.5, 0.1)
    assert np.allclose(res.weighted_pvalues, [0.015, 0.3, 0.9, 1.35])
    assert res.k_star == 1
    assert res.rejected == (0,)

def test_gbh1_infinite_group_members_never_rejected():
    gp = GroupedPValues(np.array([0.6, 0.7, 0.001, 0.002]),
                        (np.array([0, 1]), np.array([2, 3])))
    res = gbh1(gp, 0.5, 0.1)
    assert set(res.rejected) <= {2, 3}
    assert math.isinf(res.weighted_pvalues[0])
    assert math.isinf(res.weighted_pvalues[1])
    assert len(res.rejected) > 0

def test_storey_frozen_example():
    # m=3, R=2: w = (3-2+1)/(3*0.5) = 4/3; weighted (0.0133, 0.0533, 1.2)
    # against thresholds (0.0667, 0.1333, 0.2) -> two rejections
    res = storey(np.array([0.01, 0.04, 0.9]), 0.5, 0.2)
    assert res.k_star == 2
    assert res.rejected == (0, 1)

def test_storey_all_large_rejects_nothing():
    res = storey(np.array([0.9, 0.95, 0.99]), 0.5, 0.05)
    assert res.rejected == ()

def test_storey_all_tiny_rejects_everything():
    # m=5, R=5: w = (5-5+1)/(5*0.5) = 0.4, weighted 0.0004 clears alpha/5
    res = storey(np.full(5, 0.001), 0.5, 0.05)
    assert res.k_star == 5
    assert res.rejected == (0, 1, 2, 3, 4)
    assert np.allclose(res.weighted_pvalues, 0.0004)

def test_lambda_validation():
    gp = GroupedPValues(np.array([0.1, 0.2]), (np.arange(2),))
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            gbh1_weights(gp, bad)
        with pytest.raises(ValueError):
            storey(np.array([0.1, 0.2]), bad, 0.05)

@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=25),
       st.floats(0.05, 0.95))
@example(pvals=[0.0625, 0.0625], lam=0.0546875)
@settings(max_examples=200, deadline=None)
def test_gbh1_single_group_equals_storey_property(pvals, lam):
    # One group reduces gbh1 to storey whenever some p-value is <= lambda.
    # With none, gbh1 gives the group weight +inf and rejects nothing, while
    # storey keeps the finite estimate (m + 1)/(m(1 - lambda)) and may reject:
    # at p = (0.0625, 0.0625), lambda = 0.0546875 it rejects both at 0.1.
    p = np.array(pvals)
    gp = GroupedPValues(p, (np.arange(p.size),))
    a = gbh1(gp, lam, 0.1)
    b = storey(p, lam, 0.1)
    if (p <= lam).any():
        assert a.rejected == b.rejected
    else:
        assert a.rejected == ()

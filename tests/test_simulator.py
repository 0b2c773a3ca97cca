"""Tests for the Monte Carlo engine.

Distributional claims are checked against closed-form targets (pairwise
correlation, null uniformity, the conditional p-value CDF, the conditional
vs. marginal decomposition) with seeded draws, so every tolerance below is a
deterministic margin for the pinned seed, not a flaky confidence interval.
"""

import math
import os
import string
import tempfile

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from gbh_fdr import (
    BoundInput,
    ConfigError,
    SimConfig,
    ab_from_rho,
    exact_p_conditional,
    fdr_bound,
    generate_sample,
    generate_sample_conditional,
    norm_cdf,
    norm_quantile,
    pvalues_from_sample,
    run_mc,
    run_mc_conditional,
)
from gbh_fdr.cli import (
    CONFIG_FLAGS,
    LOG_HEADER,
    append_log,
    flag_updates,
    load_config_file,
    log_csv_line,
    summary_json_dict,
)
from gbh_fdr.simulator import PROCEDURES, _summarize, config_with_updates, mean_and_se


def small_config(**kw) -> SimConfig:
    base = dict(m=40, group_sizes=(10, 10, 10, 10), nonnull_counts=(0, 0, 0, 0),
                rho=0.1, lam=0.5, alpha=0.05, procedure="gbh1",
                replications=500, seed=11)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation and derived views

def test_config_defaults_are_valid():
    cfg = SimConfig()
    assert cfg.m == 200
    assert cfg.group_sizes == (50, 50, 50, 50)
    assert cfg.n_alternatives() == 0

@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan,
                                (1.5, math.inf), (math.nan, 2.0)])
def test_config_rejects_non_finite_effect_mu(mu):
    with pytest.raises(ConfigError, match="effect_mu must be finite and > 0"):
        SimConfig(m=10, group_sizes=(5, 5), nonnull_counts=(1, 1), effect_mu=mu)

def test_config_rejects_inconsistencies():
    with pytest.raises(ConfigError):
        SimConfig(m=10, group_sizes=(5, 4))              # sizes don't sum to m
    with pytest.raises(ConfigError):
        SimConfig(m=10, group_sizes=(5, 5), nonnull_counts=(6, 0))
    with pytest.raises(ConfigError):
        SimConfig(m=10, group_sizes=(5, 5), nonnull_counts=(1,))
    with pytest.raises(ConfigError):
        SimConfig(m=10, group_sizes=(5, 5), nonnull_counts=(0, 0), effect_mu=-1.0)
    with pytest.raises(ConfigError):
        SimConfig(m=10, group_sizes=(5, 5), nonnull_counts=(0, 0),
                  effect_mu=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError):
        small_config(rho=1.0)
    with pytest.raises(ConfigError):
        small_config(rho=-0.1)
    with pytest.raises(ConfigError):
        small_config(lam=0.0)
    with pytest.raises(ConfigError):
        small_config(alpha=1.0)
    with pytest.raises(ConfigError):
        small_config(procedure="bonferroni")
    with pytest.raises(ConfigError):
        small_config(replications=0)

@pytest.mark.parametrize("seed", [1.5, "7"])
def test_config_rejects_non_integral_seed(seed):
    with pytest.raises(ConfigError, match="seed"):
        small_config(seed=seed)

def test_config_accepts_numpy_integer_seed():
    cfg = small_config(seed=np.int64(5), replications=50)
    assert type(cfg.seed) is int
    assert summary_json_dict(run_mc(cfg)) == summary_json_dict(run_mc(small_config(
        seed=5, replications=50)))

@pytest.mark.parametrize("field, value, message", [
    ("m", 200.0, "m=200.0 must be an integer"),
    ("replications", 50.0, "replications=50.0 must be an integer"),
    ("m", "200", "m='200' must be an integer"),
    ("seed", 1.5, "seed=1.5 must be an integer"),
])
def test_config_rejects_non_integral_counts(field, value, message):
    with pytest.raises(ConfigError) as exc:
        SimConfig(**{field: value})
    assert str(exc.value) == message

def test_config_accepts_numpy_integer_counts():
    cfg = SimConfig(m=np.int64(200), replications=np.int64(50))
    assert (type(cfg.m), type(cfg.replications)) == (int, int)
    assert cfg == SimConfig(m=200, replications=50)

@pytest.mark.parametrize("field, value, message", [
    ("group_sizes", (2.9, 2.1), "group_sizes=(2.9, 2.1) must be a sequence of integers"),
    ("group_sizes", ("2", "2"), "group_sizes=('2', '2') must be a sequence of integers"),
    ("group_sizes", 5, "group_sizes=5 must be a sequence of integers"),
    ("nonnull_counts", (0.7, 0), "nonnull_counts=(0.7, 0) must be a sequence of integers"),
    ("nonnull_counts", ("1", 0), "nonnull_counts=('1', 0) must be a sequence of integers"),
])
def test_config_rejects_non_integral_group_entries(field, value, message):
    kwargs = dict(m=4, group_sizes=(2, 2), nonnull_counts=(0, 0), replications=10)
    with pytest.raises(ConfigError) as exc:
        SimConfig(**{**kwargs, field: value})
    assert str(exc.value) == message

def test_config_accepts_numpy_integer_group_entries():
    cfg = SimConfig(m=4, group_sizes=(np.int64(2), 2), nonnull_counts=[np.int32(1), 0],
                    replications=10)
    assert cfg.group_sizes == (2, 2) and cfg.nonnull_counts == (1, 0)
    assert all(type(n) is int for n in cfg.group_sizes + cfg.nonnull_counts)

@pytest.mark.parametrize("field, value, bad", [
    ("seed", True, True),
    ("m", False, False),
    ("replications", np.True_, np.True_),
    ("group_sizes", (True, 3), True),
    ("nonnull_counts", (0, False), False),
    ("effect_mu", True, True),
    ("effect_mu", (1.0, True), True),
    ("rho", False, False),
    ("lam", np.False_, np.False_),
    ("alpha", True, True),
])
def test_config_refuses_a_bool_as_a_number(field, value, bad):
    # bool subclasses int: operator.index(True) is 1 and False passes 0 <= rho.
    kwargs = dict(m=4, group_sizes=(1, 3), nonnull_counts=(0, 1), replications=10)
    with pytest.raises(ConfigError) as exc:
        SimConfig(**{**kwargs, field: value})
    assert str(exc.value) == f"{field}: {bad!r} is a bool, not a number"

@pytest.mark.parametrize("field, value, bad", [
    ("rho", "0.1", "0.1"),
    ("alpha", None, None),
    ("lam", [0.5], [0.5]),
    ("rho", np.array(0.1), np.array(0.1)),
    ("effect_mu", "2", "2"),
    ("effect_mu", (1.0, "2"), "2"),
    ("effect_mu", np.array(2.0), np.array(2.0)),
])
def test_config_refuses_a_non_real_value(field, value, bad):
    # Unchecked, a string or None fails later in a comparison with a bare
    # TypeError, and a 0-d array passes and breaks the JSON summary.
    kwargs = dict(m=4, group_sizes=(1, 3), nonnull_counts=(0, 1), replications=10)
    with pytest.raises(ConfigError) as exc:
        SimConfig(**{**kwargs, field: value})
    assert str(exc.value) == f"{field}={bad!r} must be a real number"

def test_config_stores_real_fields_as_floats():
    cfg = SimConfig(m=4, group_sizes=(2, 2), nonnull_counts=(1, 0), rho=0,
                    lam=np.float32(0.5), alpha=np.float64(0.05),
                    effect_mu=(np.int64(2), 1.5), replications=10)
    values = (cfg.rho, cfg.lam, cfg.alpha, *cfg.effect_mu)
    assert values == (0.0, 0.5, 0.05, 2.0, 1.5)
    assert all(type(v) is float for v in values)
    assert log_csv_line(run_mc(cfg)).startswith("gbh1,4,0.0,0.5,0.05,10,")


def test_config_element_budget_bounds_replications_and_m():
    # Building a config allocates nothing, so the largest sizes it accepts
    # are built here too.
    assert SimConfig(replications=2 ** 24).replications == 2 ** 24
    assert SimConfig(m=2 ** 24 - 1, group_sizes=(2 ** 24 - 1,), nonnull_counts=(0,)).m \
        == 2 ** 24 - 1
    with pytest.raises(ConfigError) as exc:
        SimConfig(replications=2 ** 24 + 1)
    assert str(exc.value) == "replications=16777217 exceeds 16777216 array elements"
    with pytest.raises(ConfigError) as exc:
        SimConfig(m=2 ** 24, group_sizes=(2 ** 24,), nonnull_counts=(0,))
    assert str(exc.value) == "m=16777216: m + 1 exceeds 16777216 array elements"

def test_config_mask_and_means():
    cfg = SimConfig(m=6, group_sizes=(3, 3), nonnull_counts=(2, 1),
                    effect_mu=(1.5, 2.5), replications=1)
    assert list(cfg.null_mask()) == [False, False, True, False, True, True]
    assert list(cfg.mu_vector()) == [1.5, 1.5, 0.0, 2.5, 0.0, 0.0]
    assert cfg.n_alternatives() == 3
    groups = cfg.groups()
    assert [list(g) for g in groups] == [[0, 1, 2], [3, 4, 5]]


# ---------------------------------------------------------------------------
# sampling determinism

def test_generate_sample_deterministic():
    cfg = small_config()
    y1, mask1 = generate_sample(cfg, 7)
    y2, mask2 = generate_sample(cfg, 7)
    assert np.array_equal(y1, y2)
    assert np.array_equal(mask1, mask2)

def test_substreams_differ_between_replications():
    cfg = small_config()
    y1, _ = generate_sample(cfg, 0)
    y2, _ = generate_sample(cfg, 1)
    assert not np.array_equal(y1, y2)

def test_seed_changes_samples():
    y1, _ = generate_sample(small_config(seed=1), 0)
    y2, _ = generate_sample(small_config(seed=2), 0)
    assert not np.array_equal(y1, y2)

@pytest.mark.parametrize("rep_index", [True, False, np.bool_(True), 1.5, np.float64(1.9),
                                       1.0, "1", None])
def test_generate_sample_refuses_a_non_integer_rep_index_before_drawing(monkeypatch,
                                                                        rep_index):
    # True used to draw replication 1; 1.5 and "1" failed inside numpy.
    def trap(*_):
        raise AssertionError("a non-integer rep_index reached the sampler")
    monkeypatch.setattr("gbh_fdr.simulator._block_uniforms", trap)
    cfg = small_config()
    for draw in (lambda: generate_sample(cfg, rep_index),
                 lambda: generate_sample_conditional(cfg, rep_index, 0.5)):
        with pytest.raises(ConfigError, match=r"^rep_index"):
            draw()

def test_generate_sample_reads_an_integer_rep_index_modulo_2_64():
    cfg = small_config()
    one = generate_sample(cfg, 1)[0].tobytes()
    assert generate_sample(cfg, np.int64(1))[0].tobytes() == one
    assert generate_sample(cfg, 2 ** 64 + 1)[0].tobytes() == one
    assert generate_sample(cfg, -1)[0].tobytes() == generate_sample(cfg, 2 ** 64 - 1)[0].tobytes()
    assert generate_sample_conditional(cfg, np.uint8(1), 0.5)[0].tobytes() == \
        generate_sample_conditional(cfg, 1, 0.5)[0].tobytes()

def test_run_mc_thread_count_invariant():
    cfg = small_config(replications=400)
    s1 = run_mc(cfg, threads=1)
    s4 = run_mc(cfg, threads=4)
    assert s1.fdr_hat == s4.fdr_hat
    assert s1.fdr_se == s4.fdr_se
    assert s1.power_hat == s4.power_hat
    assert s1.bound_value == s4.bound_value

def test_one_replication_has_no_standard_error(monkeypatch):
    def trap(*args, **kwargs):
        raise AssertionError("a replication was drawn before the count was refused")
    monkeypatch.setattr("gbh_fdr.simulator._sample_block", trap)
    cfg = small_config(replications=1)
    for run in (lambda: run_mc(cfg), lambda: run_mc_conditional(cfg, 0.5)):
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == ("a Monte Carlo standard error needs at least 2 "
                                  "replications, got 1")

def test_run_mc_repeatable():
    cfg = small_config(replications=300)
    assert run_mc(cfg) == run_mc(cfg)


# ---------------------------------------------------------------------------
# distributional checks against closed-form targets

def test_pairwise_correlation_independent_case():
    # 10^4 replications x 100 disjoint pairs = 10^6 pairs
    cfg = SimConfig(m=200, group_sizes=(200,), nonnull_counts=(0,),
                    rho=0.0, replications=1, seed=101)
    ys = np.stack([generate_sample(cfg, r)[0] for r in range(10000)])
    left, right = ys[:, 0::2].ravel(), ys[:, 1::2].ravel()
    r_hat = np.corrcoef(left, right)[0, 1]
    assert abs(r_hat) <= 0.01

def test_pairwise_correlation_strong_case():
    cfg = SimConfig(m=200, group_sizes=(200,), nonnull_counts=(0,),
                    rho=0.5, replications=1, seed=102)
    ys = np.stack([generate_sample(cfg, r)[0] for r in range(10000)])
    left, right = ys[:, 0::2].ravel(), ys[:, 1::2].ravel()
    r_hat = np.corrcoef(left, right)[0, 1]
    assert abs(r_hat - 0.5) <= 0.01

def test_null_pvalues_uniform_at_rho_zero():
    cfg = SimConfig(m=100, group_sizes=(100,), nonnull_counts=(0,),
                    rho=0.0, replications=1, seed=103)
    ps = np.concatenate([pvalues_from_sample(generate_sample(cfg, r)[0])
                         for r in range(1000)])
    assert ps.size == 100000
    stat = scipy.stats.kstest(ps, "uniform")
    assert stat.pvalue > 0.01

def test_pvalues_frozen_points():
    assert pvalues_from_sample(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-15)
    # quantile oracle: y at the upper-5% point maps to p = 0.05
    y = norm_quantile(0.95)
    assert pvalues_from_sample(np.array([y]))[0] == pytest.approx(0.05, abs=1e-12)
    assert y == pytest.approx(1.6449, abs=1e-4)

def test_pvalues_clipped_into_open_interval():
    p = pvalues_from_sample(np.array([-60.0, 60.0]))
    assert 0.0 < p[1] < p[0] < 1.0
    assert p[0] <= float(np.nextafter(1.0, 0.0))
    assert p[1] >= 1e-300

def test_alternatives_shift_pvalues_down():
    cfg = SimConfig(m=20, group_sizes=(20,), nonnull_counts=(20,),
                    effect_mu=3.0, rho=0.0, replications=1, seed=104)
    ps = np.concatenate([pvalues_from_sample(generate_sample(cfg, r)[0])
                         for r in range(200)])
    assert np.mean(ps <= 0.05) > 0.5      # far above the null 5%


# ---------------------------------------------------------------------------
# FDP bookkeeping

def _fdp_mean(k_star, false):
    """fdr_hat that _summarize gives for hand-made counts R and V, each
    replication taken twice: a standard error needs two replications."""
    cfg = small_config()
    return _summarize(cfg, np.array(k_star * 2), np.array(false * 2), None).fdr_hat

def test_fdp_zero_when_no_rejections():
    assert _fdp_mean([0], [0]) == 0.0

def test_fdp_half_when_one_of_two_is_null():
    # rejected (0, 1) with nulls at 0, 2 and 3: R = 2, V = 1
    assert _fdp_mean([2], [1]) == 0.5

def test_fdp_zero_when_only_alternatives_rejected():
    # rejected (1, 2) with nulls at 0 and 3: R = 2, V = 0
    assert _fdp_mean([2], [0]) == 0.0

def test_summarize_takes_fdp_and_tpp_from_the_counts():
    cfg = SimConfig(m=8, group_sizes=(4, 4), nonnull_counts=(2, 2), replications=3)
    s = _summarize(cfg, np.array([0, 2, 3]), np.array([0, 1, 0]), 0.25)
    assert (s.fdr_hat, s.fdr_se) == mean_and_se(np.array([0.0, 0.5, 0.0]))
    assert (s.power_hat, s.power_se) == mean_and_se(np.array([0.0, 0.25, 0.75]))
    assert (s.bound_value, s.replications_run, s.config) == (0.25, 3, cfg)


# ---------------------------------------------------------------------------
# campaign summaries

def test_power_sentinel_for_all_null():
    s = run_mc(small_config(replications=50))
    assert s.power_hat is None and s.power_se is None
    assert 0.0 <= s.fdr_hat <= 1.0
    assert s.fdr_se >= 0.0

def test_power_reported_with_alternatives():
    cfg = small_config(nonnull_counts=(5, 5, 5, 5), effect_mu=3.0,
                       replications=200)
    s = run_mc(cfg)
    assert s.power_hat is not None and 0.0 < s.power_hat <= 1.0
    assert s.power_se is not None and s.power_se > 0.0

def test_bound_attached_only_inside_theorem_domain():
    inside = run_mc(small_config(replications=20))
    assert inside.bound_value == pytest.approx(
        fdr_bound(BoundInput(0.5, 0.1, 0.05)).total, rel=1e-15)
    at_zero_rho = run_mc(small_config(rho=0.0, replications=20))
    assert at_zero_rho.bound_value is None
    past_cap = run_mc(small_config(rho=0.4, replications=20))
    assert past_cap.bound_value is None

def test_bh_independence_calibration_scaled_down():
    # exact BH FDR equals alpha under independence with all nulls
    cfg = SimConfig(m=50, group_sizes=(50,), nonnull_counts=(0,), rho=0.0,
                    procedure="bh", alpha=0.05, replications=4000, seed=11)
    s = run_mc(cfg)
    assert abs(s.fdr_hat - 0.05) <= 3.0 * s.fdr_se

def test_gbh1_respects_bound_scaled_down():
    cfg = small_config(m=40, replications=3000, seed=12)
    s = run_mc(cfg)
    assert s.bound_value is not None
    assert s.fdr_hat <= s.bound_value + 3.0 * s.fdr_se


# ---------------------------------------------------------------------------
# conditional sampling

def test_conditional_deterministic_and_unbounded():
    cfg = small_config(replications=100)
    a = run_mc_conditional(cfg, 1.0)
    b = run_mc_conditional(cfg, 1.0)
    assert a == b
    assert a.bound_value is None

@pytest.mark.parametrize("rho", [0.0, 0.1])
@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_conditional_rejects_a_non_finite_x0_before_drawing(monkeypatch, rho, x0):
    def trap(*_):
        raise AssertionError("a non-finite x0 reached the sampler")
    monkeypatch.setattr("gbh_fdr.simulator._block_uniforms", trap)
    cfg = small_config(rho=rho, replications=10)
    for run in (lambda: run_mc_conditional(cfg, x0),
                lambda: generate_sample_conditional(cfg, 0, x0)):
        with pytest.raises(ValueError, match=rf"^x0={x0} must be finite$"):
            run()

def test_conditional_pvalue_cdf_matches_closed_form():
    rho = 0.2
    cfg = SimConfig(m=100, group_sizes=(100,), nonnull_counts=(0,), rho=rho,
                    replications=1, seed=105)
    for x0 in (-2.0, 0.0, 2.0):
        ps = np.concatenate([
            pvalues_from_sample(generate_sample_conditional(cfg, r, x0)[0])
            for r in range(200)])
        n = ps.size
        for t in (0.05, 0.25, 0.5):
            target = 1.0 - exact_p_conditional(t, rho, x0)
            se = math.sqrt(target * (1.0 - target) / n)
            assert abs(np.mean(ps <= t) - target) <= 3.0 * se

def test_conditional_pvalues_stochastically_smaller_for_positive_x0():
    cfg = SimConfig(m=200, group_sizes=(200,), nonnull_counts=(0,), rho=0.2,
                    replications=1, seed=106)
    ps = np.concatenate([
        pvalues_from_sample(generate_sample_conditional(cfg, r, 3.0)[0])
        for r in range(100)])
    for t in (0.05, 0.1, 0.25, 0.5, 0.75):
        assert np.mean(ps <= t) > t + 0.05

def test_conditional_at_zero_matches_independent_marginal():
    # pinning the factor at 0 with rho -> 0 degenerates to the rho=0 model
    base = small_config(replications=2000, seed=14)
    tiny = small_config(rho=1e-12, replications=2000, seed=14)
    zero = small_config(rho=0.0, replications=2000, seed=15)
    cond = run_mc_conditional(tiny, 0.0)
    marg = run_mc(zero)
    width = 3.0 * math.sqrt(cond.fdr_se ** 2 + marg.fdr_se ** 2)
    assert abs(cond.fdr_hat - marg.fdr_hat) <= max(width, 5e-3)
    del base

def test_conditional_marginal_decomposition_gauss_hermite():
    """Mixing conditional campaigns over quadrature nodes of the factor
    reproduces the marginal FDR (law of total expectation)."""
    nodes, weights = np.polynomial.hermite.hermgauss(21)
    x0s = nodes * math.sqrt(2.0)
    probs = weights / math.sqrt(math.pi)
    cfg = SimConfig(m=40, group_sizes=(10, 10, 10, 10), nonnull_counts=(0, 0, 0, 0),
                    rho=0.15, lam=0.5, alpha=0.05, procedure="gbh1",
                    replications=1500, seed=16)
    mix, mix_var = 0.0, 0.0
    for x0, pr in zip(x0s, probs):
        s = run_mc_conditional(cfg, float(x0))
        mix += pr * s.fdr_hat
        mix_var += (pr * s.fdr_se) ** 2
    marg = run_mc(SimConfig(m=40, group_sizes=(10, 10, 10, 10),
                            nonnull_counts=(0, 0, 0, 0), rho=0.15, lam=0.5,
                            alpha=0.05, procedure="gbh1", replications=4000,
                            seed=17))
    width = 3.0 * math.sqrt(marg.fdr_se ** 2 + mix_var)
    assert abs(mix - marg.fdr_hat) <= width

def test_exchangeability_between_groups_paired_runs():
    # moving the alternatives to a different group changes nothing in law
    left = SimConfig(m=40, group_sizes=(10, 10, 10, 10),
                     nonnull_counts=(5, 0, 0, 0), effect_mu=2.0, rho=0.1,
                     replications=3000, seed=18)
    right = SimConfig(m=40, group_sizes=(10, 10, 10, 10),
                      nonnull_counts=(0, 0, 5, 0), effect_mu=2.0, rho=0.1,
                      replications=3000, seed=19)
    a, b = run_mc(left), run_mc(right)
    width = 3.0 * math.sqrt(a.fdr_se ** 2 + b.fdr_se ** 2)
    assert abs(a.fdr_hat - b.fdr_hat) <= width
    pwidth = 3.0 * math.sqrt(a.power_se ** 2 + b.power_se ** 2)
    assert abs(a.power_hat - b.power_hat) <= pwidth


# ---------------------------------------------------------------------------
# config files and serialization

def test_load_config_file_round_trip(tmp_path):
    path = tmp_path / "campaign.cfg"
    path.write_text(
        "# desk campaign\n"
        "m = 20\n"
        "group_sizes = 10,10\n"
        "nonnull_counts = 2, 0\n"
        "effect_mu = 2.5\n"
        "rho = 0.2   # correlation\n"
        "lambda = 0.4\n"
        "alpha = 0.1\n"
        "procedure = storey\n"
        "replications = 50\n"
        "seed = 99\n")
    updates = load_config_file(path)
    cfg = config_with_updates(SimConfig(), updates)
    assert cfg.m == 20
    assert cfg.group_sizes == (10, 10)
    assert cfg.nonnull_counts == (2, 0)
    assert cfg.effect_mu == 2.5
    assert cfg.rho == 0.2
    assert cfg.lam == 0.4          # file key is "lambda"
    assert cfg.alpha == 0.1
    assert cfg.procedure == "storey"
    assert cfg.replications == 50
    assert cfg.seed == 99

def test_load_config_file_errors_carry_line_numbers(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("m = 20\nwavelength = 3\n")
    with pytest.raises(ConfigError, match=r"bad_key\.cfg:2"):
        load_config_file(bad_key)
    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("rho = fast\n")
    with pytest.raises(ConfigError, match=r"bad_value\.cfg:1"):
        load_config_file(bad_value)
    no_equals = tmp_path / "no_eq.cfg"
    no_equals.write_text("# fine\njust words\n")
    with pytest.raises(ConfigError, match=r"no_eq\.cfg:2"):
        load_config_file(no_equals)

# The config-file grammar, fuzzed.  Each line is drawn with its verdict: True
# when load_config_file must reject it.  Integers stay at 1000 or below.
_INTS = st.integers(-5, 1000).map(str)
_FLOATS = st.one_of(st.sampled_from(("0.05", "0.3", "nan", "-inf")), st.floats().map(repr))
_INT_LISTS = st.lists(_INTS, max_size=5).map(", ".join)
_VALUES = {    # the first choice of each key fits the defaults' four groups of 50
    "m": st.one_of(st.just("200"), _INTS),
    "group_sizes": st.one_of(st.just("50,50,50,50"), _INT_LISTS),
    "nonnull_counts": st.one_of(st.just("0, 0, 10, 50"), _INT_LISTS),
    "effect_mu": st.lists(_FLOATS, min_size=1, max_size=4).map(",".join),
    "rho": _FLOATS, "lambda": _FLOATS, "alpha": _FLOATS,
    "procedure": st.sampled_from((*PROCEDURES, "bonferroni", "")),
    "replications": _INTS, "seed": _INTS,
}
_VALID_LINE = st.sampled_from(sorted(_VALUES)).flatmap(
    lambda key: _VALUES[key].map(lambda v: (f"{key} = {v}", False)))
_BAD_NUMBERS = st.sampled_from(("fast", "1.5.2", "0x1g", "--3", "1e", "one,two"))
_BAD_NUMBER_LINE = st.tuples(
    st.sampled_from(sorted(set(_VALUES) - {"procedure"})), _BAD_NUMBERS,
).map(lambda kv: (f"{kv[0]}={kv[1]}", True))
_UNKNOWN_KEY_LINE = st.one_of(
    st.sampled_from(("M", "lam", "threads", "group-sizes", "")),
    st.text(string.ascii_lowercase + "_", min_size=1, max_size=12),
).filter(lambda k: k not in _VALUES).map(lambda k: (f"{k} = 1", True))
_NO_EQUALS_LINE = st.text(string.ascii_letters + string.digits + " .,", max_size=20).filter(
    str.strip).map(lambda t: (t, True))
_BLANK_LINE = st.sampled_from(("", "   ", "\t")).map(lambda t: (t, False))
_COMMENT = st.one_of(st.just(""), st.text(max_size=10).map(lambda c: " # " + c)
                     .filter(lambda c: "\n" not in c and "\r" not in c))
_GOOD_LINE = st.tuples(st.one_of(_VALID_LINE, _BLANK_LINE), _COMMENT)
_BAD_LINE = st.tuples(st.one_of(_BAD_NUMBER_LINE, _UNKNOWN_KEY_LINE, _NO_EQUALS_LINE), _COMMENT)

@settings(max_examples=200, deadline=None)
@given(good=st.lists(_GOOD_LINE, max_size=8),
       bad=st.lists(st.tuples(st.integers(0, 8), _BAD_LINE), max_size=2),
       eol=st.sampled_from(("\n", "\r\n", "\r")), stray=st.one_of(st.none(), st.integers(0, 9)))
def test_config_grammar_fuzz_raises_only_config_errors(good, bad, eol, stray):
    lines = [(text + comment, is_bad) for (text, is_bad), comment in good]
    for at, ((text, is_bad), comment) in bad:
        lines.insert(at, (text + comment, is_bad))
    data = [(text + eol).encode("utf-8") for text, _ in lines]
    byte_line = None
    if stray is not None and stray < len(data):
        data[stray] = b"\xff" + data[stray]      # not UTF-8
        byte_line = stray + 1
    bad_lines = [n for n, (_, is_bad) in enumerate(lines, start=1) if is_bad]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "wb") as fh:
            fh.write(b"".join(data))
        if byte_line is None and not bad_lines:
            try:
                config_with_updates(SimConfig(), load_config_file(path))
            except ConfigError:
                pass
            return
        with pytest.raises(ConfigError) as exc:
            load_config_file(path)
    message = str(exc.value)
    named = int(message[len(path) + 1:].split(":", 1)[0])
    assert message.startswith(f"{path}:{named}: ")
    if message.endswith("is not UTF-8"):
        assert named == byte_line
    else:
        assert named == bad_lines[0] and (byte_line is None or bad_lines[0] < byte_line)

# The simulate flags, fuzzed at the library level as cmd_simulate takes them:
# raw strings through flag_updates, then config_with_updates.  Each value is
# drawn with its verdict: True when flag_updates must reject it.
_FLAG_OF = {key: "--" + key.replace("_", "-") for key in _VALUES}
_FIELD_OF = {key: dict(CONFIG_FLAGS)[flag] for key, flag in _FLAG_OF.items()}
_FLAG_VALUES = st.fixed_dictionaries({}, optional={
    key: st.tuples(
        st.one_of(values.map(lambda v: (v, False)),
                  st.nothing() if key == "procedure" else _BAD_NUMBERS.map(lambda v: (v, True))),
        st.sampled_from(("", " ", "\t")))
    for key, values in _VALUES.items()})

def test_flag_fuzz_covers_every_simulate_flag():
    assert sorted(_FLAG_OF.values()) == sorted(flag for flag, _ in CONFIG_FLAGS)

@settings(max_examples=200, deadline=None)
@given(flags=_FLAG_VALUES)
def test_simulate_flag_fuzz_raises_only_config_errors(flags):
    raw = {field: None for _, field in CONFIG_FLAGS}
    raw.update({_FIELD_OF[key]: pad + value + pad for key, ((value, _), pad) in flags.items()})
    # flag_updates parses in CONFIG_FLAGS order, so the first bad flag is named.
    order = [flag for flag, _ in CONFIG_FLAGS]
    bad = sorted((key for key, ((_, is_bad), _) in flags.items() if is_bad),
                 key=lambda key: order.index(_FLAG_OF[key]))
    if not bad:
        try:
            config_with_updates(SimConfig(), flag_updates(raw))
        except ConfigError:
            pass
        return
    with pytest.raises(ConfigError) as exc:
        flag_updates(raw)
    shown = raw[_FIELD_OF[bad[0]]]
    assert str(exc.value).startswith(f"{_FLAG_OF[bad[0]]}: bad value {shown!r}: ")

def test_per_group_effect_mu_from_file(tmp_path):
    path = tmp_path / "mu.cfg"
    path.write_text("m = 20\ngroup_sizes = 10,10\nnonnull_counts = 1,1\n"
                    "effect_mu = 1.5, 2.5\n")
    cfg = config_with_updates(SimConfig(), load_config_file(path))
    assert cfg.effect_mu == (1.5, 2.5)

def test_summary_json_key_order():
    s = run_mc(small_config(replications=20))
    d = summary_json_dict(s, config_source="builtin-defaults")
    assert list(d) == ["config", "config_source", "defaults_note",
                       "replications_run", "fdr_hat", "fdr_se", "power_hat",
                       "power_se", "bound_value"]
    assert list(d["config"]) == ["m", "group_sizes", "nonnull_counts",
                                 "effect_mu", "rho", "lambda", "alpha",
                                 "procedure", "replications", "seed"]
    assert d["config"]["lambda"] == 0.5
    assert d["power_hat"] is None

def test_log_csv_line_format():
    s = run_mc(small_config(replications=20))
    line = log_csv_line(s)
    fields = line.split(",")
    assert len(fields) == len(LOG_HEADER.split(","))
    assert fields[0] == "gbh1"
    assert fields[1] == "40"
    assert fields[2] == repr(0.1)
    assert fields[8] == "" and fields[9] == ""    # all-null: no power columns
    assert float(fields[10]) == pytest.approx(s.bound_value)

def test_append_log_writes_header_once(tmp_path):
    path = tmp_path / "runs.csv"
    s = run_mc(small_config(replications=20))
    append_log(s, path)
    append_log(s, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == LOG_HEADER
    assert len(lines) == 3
    assert lines[1] == lines[2] == log_csv_line(s)

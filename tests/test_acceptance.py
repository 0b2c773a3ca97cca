"""Acceptance gate: the eleven headline checks, one per test, each printing a
single "criterion NN <name>: PASS/FAIL" line (visible with pytest -s or in
captured output).  Tolerances are the contract values; nothing here is tuned
to the implementation.

Run just this gate with:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gbh_fdr import (
    BoundInput,
    DomainError,
    GroupedPValues,
    SimConfig,
    bh_step_up,
    bound_curve,
    exact_p_conditional,
    fdr_bound,
    fdr_bound_aform,
    gbh1,
    gbh1_weights,
    gbh1_weights_loo,
    integrals_closed,
    norm_cdf,
    norm_quantile,
    norm_sf,
    quad_integrals,
    rho_max,
    run_mc,
    storey,
)
from gbh_fdr.simulator import generate_sample_conditional, pvalues_from_sample
from gbh_fdr.verify import INTEGRAL_AS, run_m_bound_section, run_mvt_section
from oracles import step_up_oracle, tail_lower_bound


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL", flush=True)
        raise
    print(f"criterion {num:02d} {name}: PASS", flush=True)


def test_criterion_01_bound_limit_ratio():
    with criterion(1, "small-correlation bound ratio 2.013"):
        bd = fdr_bound(BoundInput(lam=0.5, rho=1e-6, alpha=0.05))
        assert bd.total / 0.05 == pytest.approx(2.013, abs=5e-3)


def test_criterion_02_ratio_surface_grid():
    with criterion(2, "ratio surface: monotone, <10 and <20 caps"):
        lams = [round(0.05 * k, 2) for k in range(1, 11)]
        rhos = [round(0.005 * k, 3) for k in range(1, 68)]
        start = time.perf_counter()
        rows = bound_curve(lams, rhos, alpha=0.05)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        ratio = {(r[0], r[1]): r[3] for r in rows}
        for lam in lams:
            for lo, hi in zip(rhos, rhos[1:]):
                assert ratio[(lam, lo)] < ratio[(lam, hi)]
        for rho in rhos:
            for lo, hi in zip(lams, lams[1:]):
                assert ratio[(lo, rho)] > ratio[(hi, rho)]
        assert max(v for (l, r), v in ratio.items() if r <= 0.149) < 10.0
        assert max(v for (l, r), v in ratio.items() if r <= 0.219) < 20.0


def test_criterion_03_parameterization_identity():
    with criterion(3, "rho-form vs a-form termwise 1e-12"):
        lams = np.linspace(0.02, 0.5, 50)
        rhos = np.linspace(0.005, 0.34, 50)
        for lam in lams:
            for rho in rhos:
                inp = BoundInput(lam=float(lam), rho=float(rho), alpha=0.05)
                t_rho = fdr_bound(inp).terms
                t_a = fdr_bound_aform(inp).terms
                for u, v in zip(t_rho, t_a):
                    assert abs(u - v) <= 1e-12 * abs(u)


def test_criterion_04_integral_oracle():
    with criterion(4, "quadrature vs closed forms 1e-6"):
        assert set(INTEGRAL_AS) == {1.02, 1.05, 1.1, 1.15, 1.2, 1.23}
        for a in INTEGRAL_AS:
            for closed, numeric in zip(integrals_closed(a), quad_integrals(a)):
                assert numeric == pytest.approx(closed, rel=1e-6)


def test_criterion_05_domain_boundary():
    with criterion(5, "correlation cap location and enforcement"):
        cap = rho_max()
        assert 0.3435 < cap < 0.3445
        cubic = lambda a: 5.0 * a + 1.0 - 3.0 * a ** 3 - a ** 2
        a_of = lambda rho: 1.0 / math.sqrt(1.0 - rho)
        assert cubic(a_of(0.3435)) > 0.0
        assert cubic(a_of(0.3445)) < 0.0
        fdr_bound(BoundInput(lam=0.5, rho=0.34, alpha=0.05))   # must succeed
        with pytest.raises(DomainError):
            fdr_bound(BoundInput(lam=0.5, rho=0.35, alpha=0.05))


def _random_grouped(rng):
    g = int(rng.integers(1, 5))
    sizes = [int(rng.integers(1, 8)) for _ in range(g)]
    m = sum(sizes)
    p = rng.uniform(0.0, 1.0, size=m)
    small = rng.random(m) < 0.3
    p[small] = rng.uniform(0.0, 0.1, size=int(small.sum()))
    groups = []
    start = 0
    for s in sizes:
        groups.append(tuple(range(start, start + s)))
        start += s
    return GroupedPValues(pvalues=p, groups=tuple(groups))


def test_criterion_06_procedure_correctness():
    with criterion(6, "step-up oracle, single-group reduction, weight order"):
        # exhaustive step-up check
        for m in range(1, 9):
            for combo in itertools.product((0.01, 0.5, 1.0), repeat=m):
                p = np.array(combo)
                for alpha in (0.05, 0.5):
                    fast = bh_step_up(p, alpha)
                    slow = step_up_oracle(p, alpha)
                    assert fast.rejected == slow.rejected
                    assert fast.k_star == slow.k_star
        # single-group reduction against the ungrouped adaptive procedure
        rng = np.random.default_rng(20260101)
        for _ in range(1000):
            m = int(rng.integers(1, 30))
            p = rng.uniform(0.0, 1.0, size=m)
            p[rng.random(m) < 0.3] /= 50.0
            lam = float(rng.choice([0.1, 0.3, 0.5]))
            alpha = float(rng.choice([0.05, 0.2]))
            gp = GroupedPValues(pvalues=p, groups=(tuple(range(m)),))
            a = gbh1(gp, lam, alpha)
            b = storey(p, lam, alpha)
            assert a.rejected == b.rejected
            assert a.k_star == b.k_star
        # weight ordering properties
        rng = np.random.default_rng(20260102)
        for _ in range(1000):
            gp = _random_grouped(rng)
            lam = float(rng.choice([0.2, 0.5]))
            k = int(rng.integers(0, gp.m))
            j_k = next(jj for jj, grp in enumerate(gp.groups) if k in grp)
            # raising one p-value across the threshold never lowers its own
            # group's weight
            lo, hi = gp.pvalues.copy(), gp.pvalues.copy()
            lo[k] = lam * 0.5
            hi[k] = lam + (1.0 - lam) * 0.5
            w_lo = gbh1_weights(GroupedPValues(lo, gp.groups), lam).w[j_k]
            w_hi = gbh1_weights(GroupedPValues(hi, gp.groups), lam).w[j_k]
            assert w_hi >= w_lo
            # full-sample weight dominates the leave-one-out weight
            full = gbh1_weights(gp, lam).w
            for idx in range(gp.m):
                j = next(jj for jj, grp in enumerate(gp.groups) if idx in grp)
                assert full[j] >= gbh1_weights_loo(gp, lam, idx).w[j]


def test_criterion_07_mc_bound_respected():
    with criterion(7, "Monte Carlo FDR under the closed-form bound"):
        for rho in (0.1, 0.2):
            cfg = SimConfig(m=200, group_sizes=(50,) * 4,
                            nonnull_counts=(0,) * 4, rho=rho, lam=0.5,
                            alpha=0.05, procedure="gbh1",
                            replications=20000, seed=20260822)
            s = run_mc(cfg, threads=4)
            assert s.bound_value is not None
            assert s.fdr_hat <= s.bound_value + 3.0 * s.fdr_se


def test_criterion_08_independent_bh_calibration():
    with criterion(8, "independent-case step-up calibration at alpha"):
        cfg = SimConfig(m=200, group_sizes=(50,) * 4, nonnull_counts=(0,) * 4,
                        rho=0.0, lam=0.5, alpha=0.05, procedure="bh",
                        replications=20000, seed=20260822)
        s = run_mc(cfg, threads=4)
        assert abs(s.fdr_hat - 0.05) <= 3.0 * s.fdr_se


def test_criterion_09_conditional_pvalue_cdf():
    with criterion(9, "conditional null p-value distribution"):
        cfg = SimConfig(m=100, group_sizes=(100,), nonnull_counts=(0,),
                        rho=0.2, lam=0.5, alpha=0.05, procedure="gbh1",
                        replications=1, seed=20260822)
        for x0 in (-2.0, 0.0, 2.0):
            chunks = [pvalues_from_sample(
                          generate_sample_conditional(cfg, r, x0)[0])
                      for r in range(1000)]
            draws = np.concatenate(chunks)
            assert draws.size == 100000
            for t in (0.05, 0.25, 0.5):
                target = 1.0 - exact_p_conditional(t, 0.2, x0)
                se = math.sqrt(target * (1.0 - target) / draws.size)
                assert abs(np.mean(draws <= t) - target) <= 3.0 * se


def test_criterion_10_audit_sections():
    with criterion(10, "deterministic audit scans with recorded findings"):
        start = time.perf_counter()
        mb = run_m_bound_section()
        mvt = run_mvt_section()
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert run_m_bound_section() == mb
        assert run_mvt_section() == mvt
        rep = mb.reports[0]
        assert sorted({g[0] for g in rep.grid}) == pytest.approx(
            [0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
        assert sorted({g[1] for g in rep.grid}) == pytest.approx(
            list(range(-4, 5)))
        i = rep.grid.index((0.2, 2.0))
        assert rep.observed[i] - rep.claimed[i] > 0.0   # the recorded finding
        assert mb.asserted_pass
        assert mvt.asserted_pass
        assert mvt.reports[0].max_violation > 0.0       # residuals are nonzero


def test_criterion_11_normal_primitives():
    with criterion(11, "quantile round-trip and tail lower bound"):
        ps = np.linspace(1e-8, 1.0 - 1e-8, 10000)
        back = norm_cdf(norm_quantile(ps))
        assert float(np.max(np.abs(back - ps))) <= 1e-9
        xs = np.linspace(0.0, 10.0, 2001)
        assert np.all(tail_lower_bound(xs) < norm_sf(xs))

"""In-process timings of each layer's public functions.

Every timing calls the function once before the clock starts (the first call
pays lazy imports and fills `rho_max`'s cache) and reports the median of its
repeats.  Set-up cost reaches the results only through `setup_s` and
`cli.import_s`.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

from gbh_fdr import bound, normal, procedures, simulator, verify


def _samples_per_call(fn, repeat: int, number: int = 1) -> list:
    """Seconds per call of fn(), one sample per repeat, after one warm-up call."""
    fn()
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return samples


def _contiguous_groups(m: int, g: int) -> tuple:
    return tuple(np.arange(j * m // g, (j + 1) * m // g) for j in range(g))


def measure(seed: int, threads: int) -> dict:
    """Metric name -> (unit, list of samples).  Sizes keep the whole set near
    fifteen seconds on a 2-core machine."""
    rng = np.random.default_rng(seed)
    out = {}

    def put(name, unit, samples, scale):
        out[name] = (unit, [s * scale for s in samples])

    # normal: per element at m+1-sized and audit-sized arrays, and per scalar call.
    for n, tag, number in ((1_000, "n1e3", 200), (1_000_000, "n1e6", 1)):
        u = rng.random(n) * 0.999 + 0.0005
        put(f"normal.norm_quantile.ns_per_el.{tag}", "ns",
            _samples_per_call(lambda: normal.norm_quantile(u), 7, number), 1e9 / n)
        put(f"normal.norm_sf.ns_per_el.{tag}", "ns",
            _samples_per_call(lambda: normal.norm_sf(u), 7, number), 1e9 / n)
    put("normal.norm_quantile.us_per_call.scalar", "us",
        _samples_per_call(lambda: normal.norm_quantile(0.975), 7, 500), 1e6)
    put("normal.norm_cdf.us_per_call.scalar", "us",
        _samples_per_call(lambda: normal.norm_cdf(1.96), 7, 500), 1e6)

    # procedures: per call on all-null-like p-values with a few signals.
    for m, number in ((20, 500), (200, 300), (2000, 50), (200_000, 1)):
        p = rng.random(m)
        p[: m // 20] *= 1e-4
        gp = procedures.GroupedPValues(p, _contiguous_groups(m, 2 if m == 20 else 4))
        put(f"procedures.gbh1.us_per_call.m{m}", "us",
            _samples_per_call(lambda: procedures.gbh1(gp, 0.5, 0.05), 7, number), 1e6)
        if m in (200, 200_000):
            put(f"procedures.storey.us_per_call.m{m}", "us",
                _samples_per_call(lambda: procedures.storey(p, 0.5, 0.05), 7, number), 1e6)
            put(f"procedures.bh_step_up.us_per_call.m{m}", "us",
                _samples_per_call(lambda: procedures.bh_step_up(p, 0.05), 7, number), 1e6)
        if m == 200:
            groups = _contiguous_groups(m, 4)
            put("procedures.GroupedPValues.us_per_call.m200", "us",
                _samples_per_call(lambda: procedures.GroupedPValues(p, groups), 7, number), 1e6)
    p = rng.random(200_000)
    labels = [f"grp{j:02d}" for j in rng.permutation(50)]
    labels = [labels[j] for j in rng.integers(0, 50, size=p.size)]
    put("procedures.GroupedPValues.from_labels.ms.n200000_g50", "ms",
        _samples_per_call(lambda: procedures.GroupedPValues.from_labels(p, labels), 5), 1e3)

    # simulator: one replication's draw, and whole campaigns per replication.
    cfg200 = simulator.SimConfig(seed=20260822 + seed)
    cfg2000 = simulator.SimConfig(m=2000, group_sizes=(500,) * 4, nonnull_counts=(50,) * 4,
                                  effect_mu=3.0, seed=20260822 + seed)
    for cfg, reps in ((cfg200, 200), (cfg2000, 50)):
        def draw(cfg=cfg, reps=reps):
            for r in range(reps):
                simulator.generate_sample(cfg, r)
        put(f"simulator.generate_sample.us_per_rep.m{cfg.m}", "us",
            _samples_per_call(draw, 5), 1e6 / reps)
    for cfg, reps, t, tag in ((cfg200, 1000, 1, "m200.t1"),
                              (cfg200, 1000, threads, "m200.t_nproc"),
                              (cfg2000, 100, 1, "m2000.t1")):
        small = simulator.config_with_updates(cfg, {"replications": reps})
        put(f"simulator.run_mc.us_per_rep.{tag}", "us",
            _samples_per_call(lambda: simulator.run_mc(small, threads=t), 3), 1e6 / reps)

    # bound: per point on a 10 x 20 in-domain grid.
    lams = [0.05 * k for k in range(1, 11)]
    rhos = [0.005 + 0.0165 * k for k in range(20)]
    points = [bound.BoundInput(lam=lam, rho=rho, alpha=0.05) for lam in lams for rho in rhos]
    for fn in (bound.fdr_bound, bound.fdr_bound_aform):
        def evaluate(fn=fn):
            for inp in points:
                fn(inp)
        put(f"bound.{fn.__name__}.us_per_point", "us", _samples_per_call(evaluate, 5),
            1e6 / len(points))
    put("bound.bound_curve.us_per_point", "us",
        _samples_per_call(lambda: bound.bound_curve(lams, rhos, 0.05), 5), 1e6 / len(points))

    # verify: each audit section, and one call of each lemma check, at defaults.
    for section, repeat in (("integrals", 3), ("m_bound", 3), ("mvt", 3)):
        put(f"verify.{section}.s", "s",
            _samples_per_call(getattr(verify, f"run_{section}_section"), repeat), 1.0)
    verify.run_lemmas_section(replications=200)   # warm-up at a small size
    put("verify.lemmas.s", "s", _timed_once(verify.run_lemmas_section), 1.0)
    lemma_cfg = simulator.SimConfig(m=20, group_sizes=(10, 10), nonnull_counts=(0, 0),
                                    rho=0.2, replications=20000, seed=20260822)
    put("verify.check_rejection_expectation.s", "s",
        _timed_once(lambda: verify.check_rejection_expectation(lemma_cfg, 0.0, 0.0025)), 1.0)
    put("verify.check_loo_expectation.s", "s",
        _samples_per_call(lambda: verify.check_loo_expectation(lemma_cfg, 0.0), 3), 1.0)
    return out


def _timed_once(fn) -> list:
    start = time.perf_counter()
    fn()
    return [time.perf_counter() - start]


def import_seconds(env: dict, cwd, repeat: int = 5) -> list:
    """`import gbh_fdr.cli` timed inside fresh interpreters, one after another."""
    code = ("import time; t = time.perf_counter(); import gbh_fdr.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(repeat):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout))
    return samples

"""Tests for the block sampler behind the Monte Carlo engine.

The golden digests were frozen from the per-replication sampler that the
block sampler replaced (one Philox Generator and one quantile call per
replication), so they pin every output byte of the engine.  The oracle below
is that per-replication code, kept here as the reference the block rows must
match bit for bit.
"""

import hashlib
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbh_fdr import (SimConfig, generate_sample, generate_sample_conditional,
                     norm_quantile, pvalues_from_sample, run_mc, run_mc_conditional,
                     simulator)
from gbh_fdr.cli import main
from gbh_fdr.simulator import summary_json_dict
from gbh_fdr.verify import _conditional_pvalue_matrix


def small_config(**kw) -> SimConfig:
    base = dict(m=40, group_sizes=(10, 10, 10, 10), nonnull_counts=(0, 0, 0, 0),
                rho=0.1, lam=0.5, alpha=0.05, procedure="gbh1",
                replications=300, seed=11)
    base.update(kw)
    return SimConfig(**base)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary_digest(summary) -> str:
    return sha256(json.dumps(summary_json_dict(summary)).encode())


def oracle_row(config: SimConfig, r: int, x0=None) -> np.ndarray:
    """Replication r's y, drawn the way the per-replication sampler drew it."""
    key = np.array([config.seed % (2 ** 64), r % (2 ** 64)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    width = config.m + 1 if x0 is None else config.m
    u = (gen.integers(0, 2 ** 53, size=width).astype(float) + 0.5) / float(2 ** 53)
    z = norm_quantile(u)
    if x0 is None:
        x0, z = z[0], z[1:]
    return config.mu_vector() + math.sqrt(1.0 - config.rho) * z + math.sqrt(config.rho) * x0


# ---------------------------------------------------------------------------
# golden digests

@pytest.mark.parametrize("name, config, digest", [
    ("gbh1", small_config(),
     "325108b2936766b6f2278fcc3b6cefcc91d485fbaa0a78f1ebd4b2053ebd9e98"),
    ("storey", small_config(procedure="storey"),
     "21fe4691d64d5890e48d35fcd71470b94cbc38a8ce36b1557933f7f94528844a"),
    ("bh", small_config(procedure="bh"),
     "ab4ae3c4594aeec40458726f74972de17ae6ab9b19652890ebbfee9010d24fc5"),
    ("gbh1_alternatives",
     small_config(nonnull_counts=(5, 0, 3, 10), effect_mu=(2.5, 1.0, 3.0, 2.0),
                  rho=0.3, seed=-5),
     "4639f5bb30a099364b91780b710512b438b046cf5aba1ba0e1c59ed7e4868f82"),
])
def test_run_mc_summary_golden(name, config, digest):
    assert summary_digest(run_mc(config)) == digest


def test_run_mc_conditional_summary_golden():
    cfg = small_config(nonnull_counts=(2, 2, 0, 0), seed=2 ** 64 - 3)
    assert summary_digest(run_mc_conditional(cfg, 1.5)) == \
        "31442d0c4a3ca79aaff8b7224b697d32b7d7a8c0ead9b1ddaa3623c477de602d"


@pytest.mark.parametrize("r, digest", [
    (0, "1733993588b82475c21ed48cd78b5fcf017c43cb03f5eecae2f981fa0ef47063"),
    (1, "333145e1ac7a3282957b36d88c0def009ce3b3173cd5895d9b732369eb284f81"),
    (19999, "821f983b40b7b6b5c9f888c74ccc1ea5706d1820cdb3ed1d499815f7e7363bab"),
    (2 ** 40, "090731bc5451eef34e1116c2e499cf0d8a109524d84fd065835a7de8f8b9e56d"),
])
def test_generate_sample_golden(r, digest):
    y, _ = generate_sample(SimConfig(seed=20260822), r)
    assert sha256(y.tobytes()) == digest


@pytest.mark.parametrize("r, digest", [
    (0, "5e83de5de9418d55efe261d134f5b5c7712ae7c44f9d0ee50bae8ee6436077df"),
    (3, "0eba5cfbeb01ee166f0338fb0e56d43cb9c020b5eefbdffcf5dbd5932f52f381"),
])
def test_generate_sample_conditional_golden(r, digest):
    y, _ = generate_sample_conditional(SimConfig(seed=20260822), r, -0.75)
    assert sha256(y.tobytes()) == digest


def test_conditional_pvalue_matrix_golden():
    cfg = SimConfig(m=20, group_sizes=(10, 10), nonnull_counts=(0, 0), rho=0.2,
                    replications=500, seed=20260822)
    assert sha256(_conditional_pvalue_matrix(cfg, 2.0, tag=1).tobytes()) == \
        "7d3b8c8d06f9d5522d3fe4a8120ba1ea7e972947e86e0993b3666fc980cb1fbe"


# ---------------------------------------------------------------------------
# the audits' block draw against the one-shot draw it replaced

def oracle_stream_uniforms(seed: int, index: int, n: int) -> np.ndarray:
    """n lattice uniforms from the one Philox stream keyed (seed, index)."""
    key = np.array([seed % (2 ** 64), index % (2 ** 64)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return (gen.integers(0, 2 ** 53, size=n).astype(float) + 0.5) / float(2 ** 53)


def oracle_conditional_pvalue_matrix(config: SimConfig, x0: float, tag: int) -> np.ndarray:
    """The whole matrix through one quantile call, as the audits drew it
    before they drew it a block of rows at a time."""
    u = oracle_stream_uniforms(config.seed, tag, config.replications * config.m).reshape(
        config.replications, config.m)
    z = norm_quantile(u)
    y = config.mu_vector()[None, :] + math.sqrt(1.0 - config.rho) * z \
        + math.sqrt(config.rho) * x0
    return pvalues_from_sample(y)


@pytest.mark.parametrize("replications, m, block_elements", [
    (3277, 20, None),   # 1,638 rows a block: two blocks and one row
    (4682, 7, None),    # 7 does not divide 2^15: 4,681 rows and one row
    (2, 33, None),
    (41, 20, 20),       # one row a block
    (41, 20, 64),       # three rows a block, and two in the last
    (9, 3, 1),          # a block budget below one row still draws one row
])
@pytest.mark.parametrize("x0", [-1.25, 0.0, 2.0])
@pytest.mark.parametrize("signals", [False, True])
def test_block_draw_matches_the_one_shot_oracle(monkeypatch, replications, m, block_elements,
                                                x0, signals):
    if block_elements is not None:
        monkeypatch.setattr(simulator, "_BLOCK_ELEMENTS", block_elements)
    sizes = (m // 2, m - m // 2)
    cfg = SimConfig(m=m, group_sizes=sizes,
                    nonnull_counts=(1, sizes[1] // 2) if signals else (0, 0),
                    effect_mu=(2.5, 1.0), rho=0.2, replications=replications,
                    seed=20260822)
    got = _conditional_pvalue_matrix(cfg, x0, tag=3)
    assert got.shape == (replications, m)
    assert got.tobytes() == oracle_conditional_pvalue_matrix(cfg, x0, tag=3).tobytes()


def test_block_draw_holds_little_beyond_its_output():
    # numpy reports its buffers to tracemalloc.  The one-shot draw peaked at
    # 21.7 MiB for this 3.05 MiB matrix; a block's temporaries take under 4 MiB.
    cfg = SimConfig(m=20, group_sizes=(10, 10), nonnull_counts=(0, 0), rho=0.2,
                    replications=20000, seed=20260822)
    _conditional_pvalue_matrix(SimConfig(m=20, group_sizes=(10, 10), nonnull_counts=(0, 0),
                                         replications=2), 2.0, tag=1)  # one-time allocations
    tracemalloc.start()
    try:
        out = _conditional_pvalue_matrix(cfg, 2.0, tag=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 4 * 2 ** 20


# ---------------------------------------------------------------------------
# block rows against the per-replication oracle

@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=60),
    seed=st.one_of(st.integers(min_value=-(2 ** 63), max_value=-1),
                   st.integers(min_value=0, max_value=2 ** 20),
                   st.integers(min_value=2 ** 63, max_value=2 ** 64 - 1)),
    lo=st.integers(min_value=0, max_value=2 ** 40),
    count=st.sampled_from((1, 2, 7, 33)),
    x0=st.one_of(st.none(), st.floats(min_value=-6.0, max_value=6.0)),
    rho=st.sampled_from((0.0, 0.1, 0.45)),
)
def test_sample_block_rows_match_oracle(m, seed, lo, count, x0, rho):
    cfg = SimConfig(m=m, group_sizes=(m,), nonnull_counts=(m // 3,), effect_mu=2.5,
                    rho=rho, seed=seed)
    block = simulator._sample_block(cfg, lo, lo + count, x0)
    assert block.shape == (count, m)
    for i in range(count):
        assert block[i].tobytes() == oracle_row(cfg, lo + i, x0).tobytes()


# ---------------------------------------------------------------------------
# results do not depend on block size or thread count

@pytest.mark.parametrize("block_elements", [1, 5 * 41, simulator._BLOCK_ELEMENTS])
def test_results_invariant_to_block_split(monkeypatch, block_elements):
    # 5 * 41 gives 5-replication blocks at m = 40, which do not divide the
    # 303 replications evenly: the last block holds 3.
    cfg = small_config(nonnull_counts=(3, 0, 2, 0), replications=303)
    reference = run_mc(cfg)
    reference_cond = run_mc_conditional(cfg, -1.25)
    monkeypatch.setattr(simulator, "_BLOCK_ELEMENTS", block_elements)
    for t in (1, 2):
        # SimSummary is a dataclass: == compares every field exactly.
        assert run_mc(cfg, threads=t) == reference
        assert run_mc_conditional(cfg, -1.25) == reference_cond


# ---------------------------------------------------------------------------
# threads is accepted and ignored: nothing starts a thread

def test_no_thread_is_started_at_any_thread_count(monkeypatch, capsys):
    cfg = small_config(nonnull_counts=(3, 0, 2, 0), replications=303)
    reference = run_mc(cfg, threads=1)
    reference_cond = run_mc_conditional(cfg, -1.25)
    sim_args = ["simulate", "--m", "20", "--group-sizes", "10,10",
                "--nonnull-counts", "0,0", "--replications", "60", "--seed", "9"]
    assert main(sim_args + ["--threads", "1"]) == 0
    reference_out = capsys.readouterr().out

    def refuse(self):
        raise AssertionError(f"thread {self.name!r} was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for t in (1, 2, 0, -3, 10 ** 6):
        assert run_mc(cfg, threads=t) == reference
        assert run_mc_conditional(cfg, -1.25) == reference_cond
    assert main(sim_args + ["--threads", "2"]) == 0
    assert capsys.readouterr().out == reference_out

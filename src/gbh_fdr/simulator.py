"""Monte Carlo driver for the equicorrelated one-sided normal-means model.

Sampling model per replication: Y_i = mu_i + sqrt(1-rho)*X_i + sqrt(rho)*X0
with X0, X1..Xm iid standard normal and p_i = 1 - cdf(Y_i).  Every
replication owns a counter-based RNG substream keyed by (seed, rep_index), so
results are bit-identical for a fixed seed no matter how replications are
split into sampling blocks.  A block stacks its replications' uniforms into
one matrix and pushes it through the quantile in one call; the procedure
still runs once per replication, in one thread and in index order, and
leaves two counts, its rejections R and the true nulls V among them, which
one reducer turns into the summary after the loop.  A campaign builds every
sampling block in one float block, from the uniforms to the clipped
p-values, in place.

Uniforms are lattice midpoints (k + 0.5)/2^53, k = word >> 11 of a Philox
word: Generator.random() gives k * 2^-53, and half a step added to it rounds
exactly as (k + 0.5)/2^53 does, the two differing by a power-of-two scale.
They are pushed through the package quantile, so normal variates inherit the
audited inverse-CDF path and never hit the 0/1 endpoints.  P-values are
clipped to the open unit interval at the representable edges (1e-300 and
1 - 2^-53).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from . import PROCEDURES, ConfigError
from .bound import BoundInput, _finite_x0, fdr_bound, in_theorem_domain
from .normal import _scratch, _work, norm_quantile, norm_sf
from .procedures import GroupedPValues, RejectionResult, bh_step_up, gbh1, storey

_P_FLOOR = 1e-300
_P_CEIL = float(np.nextafter(1.0, 0.0))
# Half a step of the 2^-53 lattice that Generator.random() draws on.
_HALF_STEP = 2.0 ** -54
# Cap on the uniforms one sampled block holds (m + 1 per replication, at
# least one replication): 256 KiB per float64 array of the block.
_BLOCK_ELEMENTS = 2 ** 15
# The most elements one array of a campaign or audit may hold: 128 MiB as
# float64.  Sizes are checked against it before anything is allocated.
_MAX_ARRAY_ELEMENTS = 2 ** 24


def _not_bool(name: str, value):
    """value, unless it is a bool: bool subclasses int, so operator.index and
    float would read True as 1 and the comparisons would pass False as 0."""
    if isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name}: {value!r} is a bool, not a number")
    return value


def _integer(name: str, value) -> int:
    """value as an int; a bool or a non-integer raises ConfigError naming name."""
    try:
        return operator.index(_not_bool(name, value))
    except TypeError:
        raise ConfigError(f"{name}={value!r} must be an integer") from None


def _real(name: str, value) -> float:
    """value as a float; a bool or anything but a real number (a string, a
    numpy array) raises ConfigError naming name."""
    if not isinstance(_not_bool(name, value), numbers.Real):
        raise ConfigError(f"{name}={value!r} must be a real number")
    return float(value)


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo campaign.

    Groups are contiguous index blocks in the order of group_sizes; within
    each group the first nonnull_counts[j] indices carry the alternative mean
    (exchangeability makes the placement irrelevant in distribution).
    effect_mu is a single alternative mean or one per group.
    """

    m: int = 200
    group_sizes: tuple = (50, 50, 50, 50)
    nonnull_counts: tuple = (0, 0, 0, 0)
    effect_mu: Union[float, tuple] = 2.0
    rho: float = 0.1
    lam: float = 0.5
    alpha: float = 0.05
    procedure: str = "gbh1"
    replications: int = 20000
    seed: int = 20260822

    def __post_init__(self):
        for name in ("group_sizes", "nonnull_counts"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(operator.index(_not_bool(name, v))
                                                     for v in value))
            except TypeError:
                raise ConfigError(f"{name}={value!r} must be a sequence of integers") from None
        mu = self.effect_mu
        # A 0-d array is a scalar to _real, which refuses it as it refuses rho's.
        if isinstance(mu, (tuple, list)) or (isinstance(mu, np.ndarray) and mu.ndim > 0):
            object.__setattr__(self, "effect_mu", tuple(_real("effect_mu", v) for v in mu))
        else:
            object.__setattr__(self, "effect_mu", _real("effect_mu", mu))
        for name in ("m", "replications", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("rho", "lam", "alpha"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.m < 1:
            raise ConfigError(f"m={self.m} must be >= 1")
        if self.m + 1 > _MAX_ARRAY_ELEMENTS:
            raise ConfigError(f"m={self.m}: m + 1 exceeds {_MAX_ARRAY_ELEMENTS} array elements")
        if len(self.group_sizes) == 0 or any(n < 1 for n in self.group_sizes):
            raise ConfigError("group_sizes must be nonempty with every size >= 1")
        if sum(self.group_sizes) != self.m:
            raise ConfigError(f"group_sizes sum to {sum(self.group_sizes)}, expected m={self.m}")
        if len(self.nonnull_counts) != len(self.group_sizes):
            raise ConfigError("nonnull_counts must align with group_sizes")
        if any(c < 0 or c > n for c, n in zip(self.nonnull_counts, self.group_sizes)):
            raise ConfigError("each nonnull count must lie in [0, group size]")
        mus = self.effect_mu if isinstance(self.effect_mu, tuple) else (self.effect_mu,)
        if isinstance(self.effect_mu, tuple) and len(self.effect_mu) != len(self.group_sizes):
            raise ConfigError("per-group effect_mu must align with group_sizes")
        if any(not (0.0 < v < math.inf) for v in mus):
            raise ConfigError("effect_mu must be finite and > 0")
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError(f"rho={self.rho} outside [0, 1)")
        if not (0.0 < self.lam < 1.0):
            raise ConfigError(f"lambda={self.lam} outside (0, 1)")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha={self.alpha} outside (0, 1)")
        if self.procedure not in PROCEDURES:
            raise ConfigError(f"procedure={self.procedure!r} not one of {PROCEDURES}")
        if self.replications < 1:
            raise ConfigError(f"replications={self.replications} must be >= 1")
        if self.replications > _MAX_ARRAY_ELEMENTS:
            raise ConfigError(f"replications={self.replications} exceeds "
                              f"{_MAX_ARRAY_ELEMENTS} array elements")

    def groups(self) -> tuple:
        out, start = [], 0
        for n in self.group_sizes:
            out.append(np.arange(start, start + n, dtype=np.intp))
            start += n
        return tuple(out)

    def null_mask(self) -> np.ndarray:
        """True where the mean is zero (every effect_mu is finite and > 0)."""
        return self.mu_vector() == 0.0

    def mu_vector(self) -> np.ndarray:
        mu = np.zeros(self.m)
        mus = (self.effect_mu,) * len(self.group_sizes) \
            if not isinstance(self.effect_mu, tuple) else self.effect_mu
        start = 0
        for n, c, v in zip(self.group_sizes, self.nonnull_counts, mus):
            mu[start:start + c] = v
            start += n
        return mu

    def n_alternatives(self) -> int:
        return sum(self.nonnull_counts)


@dataclass(frozen=True)
class SimSummary:
    """Campaign outcome: FDR and power estimates with standard errors, the
    closed-form bound when (lambda, rho, alpha) sits in its domain (else
    None), and the config that produced it.  power_hat/power_se are None for
    all-null configs."""

    fdr_hat: float
    fdr_se: float
    power_hat: Optional[float]
    power_se: Optional[float]
    bound_value: Optional[float]
    replications_run: int
    config: SimConfig


def _key(seed: int, index: int) -> np.ndarray:
    """The Philox key of the stream (seed, index), each taken modulo 2^64."""
    return np.array([int(seed) % (2 ** 64), int(index) % (2 ** 64)], dtype=np.uint64)


def _block_uniforms(seed: int, lo: int, out: np.ndarray) -> np.ndarray:
    """Fill the float matrix out, (rows, width), with lattice uniforms and
    return it; row i holds the start of the stream keyed (seed, lo + i).

    One Philox serves the whole block.  For each later row it is re-keyed by
    assigning it the state a fresh Philox(key=[seed, r]) starts in: counter
    zero and an empty buffer.  Constructing one per row would give the same
    words but also gather OS entropy for a SeedSequence that a keyed Philox
    never uses.  The state is given as plain ints and lists, which Philox
    takes in about half the time of uint64 arrays.
    """
    bitgen = np.random.Philox(key=_key(seed, lo))
    gen = np.random.Generator(bitgen)
    key = [int(seed) % (2 ** 64), 0]
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for i, row in enumerate(out):
        if i:
            key[1] = (lo + i) % (2 ** 64)
            bitgen.state = fresh
        gen.random(out=row)
    out += _HALF_STEP
    return out


def stream_uniforms(seed: int, index: int, out: np.ndarray):
    """Fill the float matrix out, (rows, width), with the lattice uniforms
    that the one Philox stream keyed (seed, index) gives row by row, in
    blocks of _BLOCK_ELEMENTS // width rows (at least one), and yield each
    block of out once it is filled: the draw behind the audits' pre-sampled
    p-value matrices.  Each random call continues the stream, so the blocks
    hold the uniforms of one draw of rows x width."""
    gen = np.random.Generator(np.random.Philox(key=_key(seed, index)))
    rows, width = out.shape
    step = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, rows, step):
        block = gen.random(out=out[start:start + step])
        block += _HALF_STEP
        yield block


def _mix(config: SimConfig, z: np.ndarray, x0) -> np.ndarray:
    """y = mu + sqrt(1-rho)*z + sqrt(rho)*x0, summed in that order, in z
    itself, which is returned; x0 is a float or a column of the rows' own
    factors that z does not overlap."""
    z *= math.sqrt(1.0 - config.rho)
    z += config.mu_vector()
    z += math.sqrt(config.rho) * x0
    return z


def _sample_block(config: SimConfig, lo: int, hi: int, x0: Optional[float] = None) -> np.ndarray:
    """(hi - lo, m) matrix of y for replications lo..hi-1.

    Row r - lo holds replication r's draws from its own (seed, r) stream, so
    a row does not depend on which block it was sampled in.  With x0 None the
    stream's first draw is X0 (m + 1 draws per row); otherwise the shared
    factor is pinned at x0 (m draws).  One quantile call covers the block.
    The block is built in place in one float array, the work array "block"
    of normal._work: a new one outside _scratch(), and inside it the scope's
    own, so that the y returned is overwritten by the next call in the scope.
    y is a view of that array.
    """
    width = config.m + 1 if x0 is None else config.m
    z = _block_uniforms(config.seed, lo, _work("block", (hi - lo, width)))
    norm_quantile(z, out=z)
    if x0 is None:
        x0, z = z[:, :1], z[:, 1:]
    return _mix(config, z, x0)


def generate_sample(config: SimConfig, rep_index: int) -> tuple:
    """(y, is_null) for one replication; X0 is the substream's first draw.
    rep_index is an integer, read modulo 2^64 as _key reads it; a bool or a
    non-integer raises ConfigError."""
    r = _integer("rep_index", rep_index)
    return _sample_block(config, r, r + 1)[0], config.null_mask()


def generate_sample_conditional(config: SimConfig, rep_index: int, x0: float) -> tuple:
    """Same model with the shared factor pinned at x0 (m draws, no X0 draw)."""
    r = _integer("rep_index", rep_index)
    return _sample_block(config, r, r + 1, _finite_x0(x0))[0], config.null_mask()


def pvalues_from_sample(y, out=None) -> np.ndarray:
    """One-sided p-values 1 - cdf(y), clipped into the open unit interval.
    With out (a float64 array of y's shape, which may be y itself) they are
    written there and out is returned."""
    p = norm_sf(np.asarray(y, dtype=float), out=out)
    # An array comes back as out or new, so it is clipped in place; a scalar
    # as a float.
    return np.clip(p, _P_FLOOR, _P_CEIL, out=p if isinstance(p, np.ndarray) else None)


def _apply_procedure(config: SimConfig, partition: GroupedPValues,
                     p: np.ndarray) -> RejectionResult:
    if config.procedure == "gbh1":
        return gbh1(partition.with_pvalues(p), config.lam, config.alpha)
    if config.procedure == "storey":
        return storey(p, config.lam, config.alpha)
    return bh_step_up(p, config.alpha)


def _bound_or_none(config: SimConfig) -> Optional[float]:
    if in_theorem_domain(config.lam, config.rho, config.alpha):
        return fdr_bound(BoundInput(lam=config.lam, rho=config.rho, alpha=config.alpha)).total
    return None


def check_se_replications(n: int) -> None:
    """Refuse fewer than 2 replications, which leave no standard error."""
    if n < 2:
        raise ValueError(f"a Monte Carlo standard error needs at least 2 replications, got {n}")


def mean_and_se(values: np.ndarray) -> tuple:
    """Mean of per-replication values and its Monte Carlo standard error."""
    check_se_replications(values.size)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _summarize(config: SimConfig, k_star: np.ndarray, false: np.ndarray,
               bound_value: Optional[float]) -> SimSummary:
    """The campaign's summary from its per-replication counts: k_star holds
    R, the rejections, and false holds V, the true nulls among them.  FDP is
    V/R with 0/0 := 0; TPP, (R - V)/n_alt, only when there are alternatives."""
    fdp = np.divide(false, k_star, out=np.zeros(k_star.size), where=k_star > 0)
    fdr_hat, fdr_se = mean_and_se(fdp)
    n_alt = config.n_alternatives()
    power_hat, power_se = mean_and_se((k_star - false) / n_alt) if n_alt else (None, None)
    return SimSummary(fdr_hat=fdr_hat, fdr_se=fdr_se, power_hat=power_hat,
                      power_se=power_se, bound_value=bound_value,
                      replications_run=k_star.size, config=config)


def _mc_loop(config: SimConfig, x0: Optional[float] = None) -> SimSummary:
    reps = config.replications
    check_se_replications(reps)
    # The groups are fixed for the campaign: check the partition once, then
    # give each replication its p-values through with_pvalues.
    partition = GroupedPValues(np.ones(config.m), config.groups())
    # A list, indexed by the tuple of rejected indices, builds no array.
    is_null = config.null_mask().tolist()
    k_star = np.zeros(reps, dtype=np.int64)
    false = np.zeros(reps, dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // (config.m + 1))
    # The float block and the normal kernels' work arrays live for the
    # campaign, so no block allocates its own.
    with _scratch():
        for start in range(0, reps, rows):
            stop = min(start + rows, reps)
            y = _sample_block(config, start, stop, x0)
            p = pvalues_from_sample(y, out=y)
            for r in range(start, stop):
                res = _apply_procedure(config, partition, p[r - start])
                if res.k_star > 0:
                    k_star[r] = res.k_star
                    false[r] = sum(map(is_null.__getitem__, res.rejected))
    return _summarize(config, k_star, false, _bound_or_none(config) if x0 is None else None)


def run_mc(config: SimConfig, threads: int = 1) -> SimSummary:
    """Run the campaign, deterministic for a fixed seed.  Replications run in
    one thread, in order; threads is ignored, and stays because the
    benchmark's layer timings (perfbench/layers.py) pass it.  Raises
    ValueError below 2 replications, which leave no standard error."""
    return _mc_loop(config)


def run_mc_conditional(config: SimConfig, x0: float) -> SimSummary:
    """Run the campaign with the shared factor pinned at x0.  The attached
    bound_value is None: the closed form speaks to the marginal model."""
    return _mc_loop(config, _finite_x0(x0))


def config_with_updates(base: SimConfig, updates: dict) -> SimConfig:
    return replace(base, **updates) if updates else base

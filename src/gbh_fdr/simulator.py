"""Monte Carlo driver for the equicorrelated one-sided normal-means model.

Sampling model per replication: Y_i = mu_i + sqrt(1-rho)*X_i + sqrt(rho)*X0
with X0, X1..Xm iid standard normal and p_i = 1 - cdf(Y_i).  Every
replication owns a counter-based RNG substream keyed by (seed, rep_index), so
results are bit-identical for a fixed seed no matter how replications are
split into sampling blocks.  A block stacks its replications' uniforms into
one matrix and pushes it through the quantile in one call; the procedure
still runs once per replication, in one thread and in index order.

Uniforms are drawn as lattice midpoints (k + 0.5)/2^53 and pushed through the
package quantile, so normal variates inherit the audited inverse-CDF path and
never hit the 0/1 endpoints.  P-values are clipped to the open unit interval
at the representable edges (1e-300 and 1 - 2^-53).
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .bound import BoundInput, fdr_bound, in_theorem_domain
from .normal import norm_quantile, norm_sf
from .procedures import GroupedPValues, RejectionResult, bh_step_up, gbh1, storey

PROCEDURES = ("gbh1", "storey", "bh")

# Label attached to JSON output when a campaign ran on the built-in desk
# defaults; those defaults are this package's choices, not derived values.
DEFAULTS_SOURCE = "builtin-defaults"

_P_FLOOR = 1e-300
_P_CEIL = float(np.nextafter(1.0, 0.0))
_U_DENOM = float(2 ** 53)
# Cap on the uniforms one sampled block holds (m + 1 per replication, at
# least one replication): 256 KiB per float64 array of the block.
_BLOCK_ELEMENTS = 2 ** 15
# The most elements one array of a campaign or audit may hold: 128 MiB as
# float64.  Sizes are checked against it before anything is allocated.
_MAX_ARRAY_ELEMENTS = 2 ** 24


class ConfigError(ValueError):
    """Invalid simulation configuration."""


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
                object.__setattr__(self, name, tuple(map(operator.index, value)))
            except TypeError:
                raise ConfigError(f"{name}={value!r} must be a sequence of integers") from None
        if isinstance(self.effect_mu, (tuple, list, np.ndarray)):
            object.__setattr__(self, "effect_mu", tuple(float(v) for v in self.effect_mu))
        else:
            object.__setattr__(self, "effect_mu", float(self.effect_mu))
        for name in ("m", "replications", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ConfigError(f"{name}={getattr(self, name)!r} must be an integer") from None
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


def _lattice(words: np.ndarray) -> np.ndarray:
    """Raw Philox words -> lattice-midpoint uniforms (k + 0.5)/2^53.  k is the
    word shifted right by 11, which is exactly what
    Generator.integers(0, 2**53) returns: with a power-of-two range its
    bounded draw never rejects a word."""
    u = (words >> np.uint64(11)).astype(float)
    u += 0.5
    u /= _U_DENOM
    return u


def _key(seed: int, index: int) -> np.ndarray:
    """The Philox key of the stream (seed, index), each taken modulo 2^64."""
    return np.array([int(seed) % (2 ** 64), int(index) % (2 ** 64)], dtype=np.uint64)


def _block_words(seed: int, lo: int, hi: int, width: int) -> np.ndarray:
    """(hi - lo, width) raw Philox words; row r - lo starts the stream keyed
    (seed, r).

    One Philox serves the whole block.  For each later row it is re-keyed by
    assigning it the state a fresh Philox(key=[seed, r]) starts in: counter
    zero and an empty buffer.  Constructing one per row would give the same
    words but also gather OS entropy for a SeedSequence that a keyed Philox
    never uses.  The state is given as plain ints and lists, which Philox
    takes in about half the time of uint64 arrays.
    """
    bitgen = np.random.Philox(key=_key(seed, lo))
    words = np.empty((hi - lo, width), dtype=np.uint64)
    words[0] = bitgen.random_raw(width)
    if hi - lo > 1:
        key = [int(seed) % (2 ** 64), 0]
        fresh = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for i in range(1, hi - lo):
            key[1] = (lo + i) % (2 ** 64)
            bitgen.state = fresh
            words[i] = bitgen.random_raw(width)
    return words


def stream_uniforms(seed: int, index: int, rows: int, width: int):
    """The (rows, width) matrix of lattice uniforms that the one Philox stream
    keyed (seed, index) fills row by row, yielded in blocks of
    _BLOCK_ELEMENTS // width rows (at least one): the draw behind the audits'
    pre-sampled p-value matrices.  Each random_raw call continues the stream,
    so the blocks hold the words of one draw of rows x width."""
    bitgen = np.random.Philox(key=_key(seed, index))
    step = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, rows, step):
        n = min(step, rows - start)
        yield _lattice(bitgen.random_raw(n * width).reshape(n, width))


def _mix(config: SimConfig, z: np.ndarray, x0) -> np.ndarray:
    """y = mu + sqrt(1-rho)*z + sqrt(rho)*x0, summed in that order, in one new
    array; x0 is a float or a column of the rows' own factors."""
    y = math.sqrt(1.0 - config.rho) * z
    y += config.mu_vector()
    y += math.sqrt(config.rho) * x0
    return y


def _sample_block(config: SimConfig, lo: int, hi: int, x0: Optional[float] = None) -> np.ndarray:
    """(hi - lo, m) matrix of y for replications lo..hi-1.

    Row r - lo holds replication r's draws from its own (seed, r) stream, so
    a row does not depend on which block it was sampled in.  With x0 None the
    stream's first draw is X0 (m + 1 draws per row); otherwise the shared
    factor is pinned at x0 (m draws).  One quantile call covers the block.
    """
    width = config.m + 1 if x0 is None else config.m
    z = norm_quantile(_lattice(_block_words(config.seed, lo, hi, width)))
    if x0 is None:
        x0, z = z[:, :1], z[:, 1:]
    return _mix(config, z, x0)


def generate_sample(config: SimConfig, rep_index: int) -> tuple:
    """(y, is_null) for one replication; X0 is the substream's first draw."""
    return _sample_block(config, rep_index, rep_index + 1)[0], config.null_mask()


def generate_sample_conditional(config: SimConfig, rep_index: int, x0: float) -> tuple:
    """Same model with the shared factor pinned at x0 (m draws, no X0 draw)."""
    return _sample_block(config, rep_index, rep_index + 1, float(x0))[0], config.null_mask()


def pvalues_from_sample(y) -> np.ndarray:
    """One-sided p-values 1 - cdf(y), clipped into the open unit interval."""
    p = norm_sf(np.asarray(y, dtype=float))
    # An array comes back new, so it is clipped in place; a scalar as a float.
    return np.clip(p, _P_FLOOR, _P_CEIL, out=p if isinstance(p, np.ndarray) else None)


def false_discovery_proportion(result: RejectionResult, is_null) -> float:
    """V/R with the 0/0 := 0 convention."""
    if result.k_star == 0:
        return 0.0
    is_null = np.asarray(is_null, dtype=bool)
    v = int(is_null[list(result.rejected)].sum())
    return v / result.k_star


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


def mean_and_se(values: np.ndarray) -> tuple:
    """Mean of per-replication values and its Monte Carlo standard error."""
    if values.size < 2:
        raise ValueError("a Monte Carlo standard error needs at least 2 replications, "
                         f"got {values.size}")
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _mc_loop(config: SimConfig, x0: Optional[float] = None) -> SimSummary:
    reps = config.replications
    # The groups are fixed for the campaign: check the partition once, then
    # give each replication its p-values through with_pvalues.
    partition = GroupedPValues(np.ones(config.m), config.groups())
    is_null = config.null_mask()
    n_alt = config.n_alternatives()
    fdp = np.zeros(reps)
    tpp = np.zeros(reps)
    rows = max(1, _BLOCK_ELEMENTS // (config.m + 1))
    for start in range(0, reps, rows):
        stop = min(start + rows, reps)
        p = pvalues_from_sample(_sample_block(config, start, stop, x0))
        for r in range(start, stop):
            res = _apply_procedure(config, partition, p[r - start])
            if res.k_star > 0:
                v = int(np.count_nonzero(is_null.take(res.rejected)))
                fdp[r] = v / res.k_star
                tpp[r] = (res.k_star - v) / max(n_alt, 1)
    fdr_hat, fdr_se = mean_and_se(fdp)
    power_hat, power_se = mean_and_se(tpp) if n_alt else (None, None)
    bound_value = _bound_or_none(config) if x0 is None else None
    return SimSummary(fdr_hat=fdr_hat, fdr_se=fdr_se, power_hat=power_hat,
                      power_se=power_se, bound_value=bound_value,
                      replications_run=reps, config=config)


def run_mc(config: SimConfig, threads: int = 1) -> SimSummary:
    """Run the campaign, deterministic for a fixed seed.  Replications run in
    one thread, in order; threads is ignored, and stays because the
    benchmark's layer timings (perfbench/layers.py) pass it.  Raises
    ValueError below 2 replications, which leave no standard error."""
    return _mc_loop(config)


def run_mc_conditional(config: SimConfig, x0: float) -> SimSummary:
    """Run the campaign with the shared factor pinned at x0.  The attached
    bound_value is None: the closed form speaks to the marginal model."""
    return _mc_loop(config, float(x0))


# --- flat key=value config files ------------------------------------------

def _int_list(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split(",") if v.strip() != "")


def _float_or_list(raw: str):
    parts = [v for v in raw.split(",") if v.strip() != ""]
    return float(parts[0]) if len(parts) == 1 else tuple(float(v) for v in parts)


# key -> (SimConfig field, parser), in the JSON summary's order.  Parsers get
# the value already stripped; list parsers skip empty items.
_CONFIG_KEYS = {
    "m": ("m", int),
    "group_sizes": ("group_sizes", _int_list),
    "nonnull_counts": ("nonnull_counts", _int_list),
    "effect_mu": ("effect_mu", _float_or_list),
    "rho": ("rho", float),
    "lambda": ("lam", float),
    "alpha": ("alpha", float),
    "procedure": ("procedure", str),
    "replications": ("replications", int),
    "seed": ("seed", int),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# (flag, field) per config key: the command line spells each key as a flag.
CONFIG_FLAGS = tuple((_flag(key), field) for key, (field, _) in _CONFIG_KEYS.items())


def flag_updates(values: dict) -> dict:
    """Field updates from raw flag strings keyed by field name (None: flag
    not given), parsed with the config-file grammar."""
    updates = {}
    for key, (field, parse) in _CONFIG_KEYS.items():
        raw = values.get(field)
        if raw is not None:
            try:
                updates[field] = parse(raw.strip())
            except ValueError as exc:
                raise ConfigError(f"{_flag(key)}: bad value {raw!r}: {exc}") from exc
    return updates


@contextlib.contextmanager
def open_utf8(path, newline=None):
    """open(path) as UTF-8 text; a leading byte-order mark is skipped, not
    read as text.  A byte that is not UTF-8 raises ConfigError naming
    path:line, lines ending at \\n, \\r\\n or \\r as in text mode."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = data[:exc.start].replace(b"\r\n", b"\n")
                line = head.count(b"\n") + head.count(b"\r") + 1
                raise ConfigError(f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None
            raise


def load_config_file(path) -> dict:
    """Parse a flat key=value file ('#' starts a comment) into field updates."""
    updates = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            field, parse = _CONFIG_KEYS[key]
            try:
                updates[field] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return updates


def config_with_updates(base: SimConfig, updates: dict) -> SimConfig:
    return replace(base, **updates) if updates else base


# --- serialization ---------------------------------------------------------

def summary_json_dict(summary: SimSummary, config_source: str = DEFAULTS_SOURCE) -> dict:
    """Fixed-key-order dict for JSON output; floats keep full repr precision."""
    config = {}
    for key, (field, _) in _CONFIG_KEYS.items():
        value = getattr(summary.config, field)
        config[key] = list(value) if isinstance(value, tuple) else value
    return {
        "config": config,
        "config_source": config_source,
        "defaults_note": "default campaign settings are this package's desk-scale choices",
        "replications_run": summary.replications_run,
        "fdr_hat": summary.fdr_hat,
        "fdr_se": summary.fdr_se,
        "power_hat": summary.power_hat,
        "power_se": summary.power_se,
        "bound_value": summary.bound_value,
    }


LOG_HEADER = "procedure,m,rho,lambda,alpha,reps,fdr_hat,fdr_se,power_hat,power_se,bound"


def log_csv_line(summary: SimSummary) -> str:
    cfg = summary.config
    opt = lambda v: "" if v is None else repr(v)
    return ",".join([
        cfg.procedure, str(cfg.m), repr(cfg.rho), repr(cfg.lam), repr(cfg.alpha),
        str(summary.replications_run), repr(summary.fdr_hat), repr(summary.fdr_se),
        opt(summary.power_hat), opt(summary.power_se), opt(summary.bound_value),
    ])


def append_log(summary: SimSummary, path) -> None:
    """Append one campaign line, writing the header first on a fresh file."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(LOG_HEADER + "\n")
        fh.write(log_csv_line(summary) + "\n")

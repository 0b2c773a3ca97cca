"""Step-up multiple-testing procedures over grouped p-values.

The grouped adaptive procedure estimates, per group, how many hypotheses look
null (via the count of p-values above a tuning level lambda), turns that into
a data-driven weight per group, and runs the usual step-up rule on the
weighted p-values.  With a single group it collapses to the classic adaptive
procedure with null-proportion estimate (m - R + 1)/(m*(1 - lambda)) whenever
R >= 1; at R = 0 the grouped procedure rejects nothing (see below).

A group in which no p-value lies at or below lambda gets weight +inf: its
members can never be rejected.  Weighted p-values are deliberately not
clipped to [0, 1]; the step-up rule compares raw products against k*alpha/m.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

_PARTITION_MESSAGE = "GroupedPValues: groups must partition the index range exactly"


def _validate_pvalues(pvalues, who: str) -> np.ndarray:
    """pvalues as a float array; rejects anything but a nonempty 1-d vector
    with every entry in [0, 1].  argmin and argmax land on the first NaN if
    there is one, and NaN fails both comparisons."""
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{who}: pvalues must be a nonempty 1-d vector")
    if not (p[p.argmin()] >= 0.0 and p[p.argmax()] <= 1.0):
        raise ValueError(f"{who}: every p-value must lie in [0, 1]")
    return p


@dataclass(frozen=True, eq=False)
class GroupedPValues:
    """A p-value vector plus a partition of its indices into groups.

    pvalues: 1-d array, entries in [0, 1].
    groups: tuple of integer index arrays forming a partition of range(m).
    labels (index -> group position) and group_sizes are set from groups.
    """

    pvalues: np.ndarray
    groups: tuple

    def __post_init__(self):
        p = _validate_pvalues(self.pvalues, "GroupedPValues")
        if len(self.groups) == 0:
            raise ValueError("GroupedPValues: at least one group is required")
        groups = tuple(np.asarray(g).ravel() for g in self.groups)
        for g in groups:
            if g.size == 0:
                raise ValueError("GroupedPValues: empty groups are not allowed")
            # Checked, not cast: a cast would truncate 1.2 and read True as 1.
            if g.dtype.kind not in "iu":
                raise ValueError(f"GroupedPValues: group indices must be integers, "
                                 f"got {g.dtype} entries")
        groups = tuple(g.astype(np.intp, copy=False) for g in groups)
        flat = np.concatenate(groups)
        if flat.size != p.size or not np.array_equal(np.sort(flat), np.arange(p.size)):
            raise ValueError(_PARTITION_MESSAGE)
        labels = np.empty(p.size, dtype=np.intp)
        for j, g in enumerate(groups):
            labels[g] = j
        object.__setattr__(self, "pvalues", p)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "group_sizes", tuple(g.size for g in groups))

    def with_pvalues(self, pvalues) -> "GroupedPValues":
        """The same partition over new p-values.

        The groups, labels and group sizes are shared with this instance, not
        copied or re-checked; only the p-values are validated.  Equal to
        GroupedPValues(pvalues, self.groups) in every field.
        """
        p = _validate_pvalues(pvalues, "GroupedPValues")
        if p.size != self.pvalues.size:
            raise ValueError(_PARTITION_MESSAGE)
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, pvalues=p)
        return out

    @property
    def m(self) -> int:
        return self.pvalues.size

    @property
    def g(self) -> int:
        return len(self.groups)

    @classmethod
    def from_labels(cls, pvalues, labels) -> "GroupedPValues":
        """Build from an arbitrary label per index; groups ordered by first appearance."""
        labels = list(labels)
        code_of = {lab: j for j, lab in enumerate(dict.fromkeys(labels))}
        # The narrowest code dtype lets numpy's stable sort run as a radix sort;
        # a stable sort keeps each group's indices ascending.
        codes = np.fromiter(map(code_of.__getitem__, labels),
                            dtype=np.min_scalar_type(len(code_of)), count=len(labels))
        members = np.argsort(codes, kind="stable")
        groups = np.split(members, np.cumsum(np.bincount(codes))[:-1]) if code_of else ()
        return cls(np.asarray(pvalues, dtype=float), tuple(groups))


@dataclass(frozen=True)
class GBHWeights:
    """Per-group weights plus the threshold counts they were built from.

    w[j] is +inf exactly when group j has no p-value <= lambda.
    """

    w: tuple
    r_total: int
    r_per_group: tuple


@dataclass(frozen=True, eq=False)
class RejectionResult:
    """Outcome of a step-up rule: sorted rejected indices, the step count
    k_star, the acting threshold k_star*alpha/m, and the scores it ran on."""

    rejected: tuple
    k_star: int
    threshold: float
    weighted_pvalues: np.ndarray


def _validate_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha={alpha} outside (0, 1)")


def _validate_lambda(lam: float) -> None:
    if not (0.0 < lam < 1.0):
        raise ValueError(f"lambda={lam} outside (0, 1)")


def _validate_scores(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a nonempty 1-d vector")
    if not s[s.argmin()] >= 0.0:
        raise ValueError("scores must be >= 0 (inf allowed, NaN not)")
    return s


# Step-up thresholds are cached for m up to _CACHED_M: at most
# _THRESHOLD_CACHE_SIZE arrays of 32 KiB each, read-only so no caller can
# change a shared one.
_CACHED_M = 4096
_THRESHOLD_CACHE_SIZE = 64


def _new_thresholds(m: int, alpha: float) -> np.ndarray:
    """k*alpha/m for k = 1..m, evaluated as alpha*k/m."""
    thresholds = alpha * np.arange(1, m + 1) / m
    thresholds.flags.writeable = False
    return thresholds


_cached_thresholds = functools.lru_cache(maxsize=_THRESHOLD_CACHE_SIZE)(_new_thresholds)


def _step_up(scores: np.ndarray, alpha: float) -> RejectionResult:
    """The step-up rule with no validation: scores must be a nonempty 1-d
    float64 array with no NaN or negative entry, and alpha in (0, 1)."""
    m = scores.size
    # float() gives a float, an np.float64 and a 0-d array one hashable key
    # and the same thresholds bit for bit.
    thresholds = (_cached_thresholds if m <= _CACHED_M else _new_thresholds)(m, float(alpha))
    sorted_s = scores.copy()
    sorted_s.sort()
    ok = (sorted_s <= thresholds).nonzero()[0]
    k_star = int(ok[-1]) + 1 if ok.size else 0
    threshold = k_star * alpha / m
    rejected = tuple((scores <= threshold).nonzero()[0].tolist()) if k_star else ()
    # The frozen dataclass's __init__ sets each field through
    # object.__setattr__; filling __dict__ builds the same instance in about
    # half the time, as with_pvalues does.
    out = object.__new__(RejectionResult)
    out.__dict__.update(rejected=rejected, k_star=k_star, threshold=threshold,
                        weighted_pvalues=scores)
    return out


def bh_step_up(scores, alpha: float) -> RejectionResult:
    """Step-up rule at level alpha on nonnegative scores (may exceed 1 or be inf).

    k_star = max{k : s_(k) <= k*alpha/m}; rejects every index whose score is
    <= k_star*alpha/m, so ties at the boundary are decided jointly by value.
    """
    s = _validate_scores(scores)
    _validate_alpha(alpha)
    return _step_up(s, alpha)


def _gbh1_weights(gp: GroupedPValues, r_per_group, r_total: int, lam: float) -> list:
    """w_j = (n_j - R_j + 1)(R + g - 1)/(m(1-lambda)R_j) at the given counts,
    +inf where R_j = 0, as a Python list."""
    scale = r_total + len(gp.group_sizes) - 1
    denom = gp.pvalues.size * (1.0 - lam)
    return [(n_j - r_j + 1) * scale / (denom * r_j) if r_j else math.inf
            for n_j, r_j in zip(gp.group_sizes, r_per_group)]


def _gbh1_counts_and_weights(gp: GroupedPValues, lam: float) -> tuple:
    """(R_j per group, R, w_j per group), the two lists as Python lists."""
    r_per_group = np.bincount(gp.labels.compress(gp.pvalues <= lam),
                              minlength=len(gp.group_sizes)).tolist()
    r_total = sum(r_per_group)
    return r_per_group, r_total, _gbh1_weights(gp, r_per_group, r_total, lam)


def gbh1_weights(gp: GroupedPValues, lam: float) -> GBHWeights:
    """Adaptive group weights w_j = (n_j - R_j + 1)(R + g - 1)/(m(1-lambda)R_j).

    R_j counts p-values <= lambda inside group j, R their total.  R_j = 0
    yields w_j = +inf (the group is never rejected).
    """
    _validate_lambda(lam)
    r_per_group, r_total, w = _gbh1_counts_and_weights(gp, lam)
    return GBHWeights(w=tuple(w), r_total=r_total, r_per_group=tuple(r_per_group))


def gbh1_weights_loo(gp: GroupedPValues, lam: float, k: int) -> GBHWeights:
    """Leave-one-out weights with index k removed from every threshold count.

    w_j = (n_j - R_j^(-k)) * (R^(-k) + g) / (m (1-lambda) (R_j^(-k) + 1)),
    evaluated for every group with its own leave-one-out counts (for groups
    not containing k the counts are unchanged).  Always finite: removing k
    from its group of size n_j caps that group's count at n_j - 1, and the
    denominator count enters as R_j^(-k) + 1 >= 1.  The entry for k's own
    group is the quantity the domination and monotonicity results speak to.
    """
    _validate_lambda(lam)
    # Checked, not cast: operator.index would read True as 1.
    if isinstance(k, bool) or not hasattr(type(k), "__index__"):
        raise ValueError(f"index k={k!r} must be an integer")
    k = operator.index(k)
    if not (0 <= k < gp.m):
        raise ValueError(f"index k={k} outside range(0, {gp.m})")
    below = gp.pvalues <= lam
    below[k] = False
    r_per_group = np.bincount(gp.labels.compress(below), minlength=len(gp.group_sizes)).tolist()
    r_total = sum(r_per_group)
    # The formula above is gbh1's weight at the counts R_j^(-k) + 1 and R^(-k) + 1.
    w = _gbh1_weights(gp, [r + 1 for r in r_per_group], r_total + 1, lam)
    return GBHWeights(w=tuple(w), r_total=r_total, r_per_group=tuple(r_per_group))


def gbh1(gp: GroupedPValues, lam: float, alpha: float) -> RejectionResult:
    """Grouped adaptive procedure: weight each group, then step up at alpha.

    The weighted value for members of an infinite-weight group is +inf
    regardless of the raw p-value: weight +inf means no group member sits at
    or below lambda, so those p-values all exceed lambda > 0 and the
    0 * inf corner cannot arise.  The scores need no check: validated
    p-values times weights that are > 0 or +inf.
    """
    _validate_lambda(lam)
    _validate_alpha(alpha)
    w = _gbh1_counts_and_weights(gp, lam)[2]
    w_by_index = np.array(w, dtype=float).take(gp.labels)
    if math.inf in w:
        assert (gp.pvalues[np.isinf(w_by_index)] > lam).all()
    return _step_up(gp.pvalues * w_by_index, alpha)


def storey(pvalues, lam: float, alpha: float) -> RejectionResult:
    """Single-group adaptive procedure: scale all p-values by the estimated
    null fraction (m - R + 1)/(m(1-lambda)) and step up at alpha."""
    _validate_lambda(lam)
    _validate_alpha(alpha)
    p = _validate_pvalues(pvalues, "storey")
    m = p.size
    r = int(np.count_nonzero(p <= lam))
    w = (m - r + 1) / (m * (1.0 - lam))
    return _step_up(p * w, alpha)

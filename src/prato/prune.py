"""Score token relevance against a prompted region and build the prune mask.

The chain: pooled region features and tokens are projected into a
shared low-dimensional space, scaled dot products give a similarity map
S (one row per region vector, one column per token), each row is
softmaxed into a distribution over tokens, and the Shannon entropy of
that distribution measures how confidently the region vector singles
out tokens. Confident rows are weighted up through inverse rank
weights, the weighted similarities are averaged into one relevance
score per token, and a threshold turns relevance into a binary
keep/drop mask.

Rank weights are computed from reflected integer ranks,
(M-1-rank)/(M-1), so the sorted weights are bit-for-bit the uniform
grid {0, 1/(M-1), ..., 1}; this equals 1 - rank/(M-1) exactly in the
rationals and within one ulp in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError, ValidationError
from .numerics import as_matrix, logistic, make_rng, parse_float


@dataclass
class Projections:
    """Frozen projection pair mapping features and tokens to width d_v.

    By default both maps share one seeded Gaussian draw (``tied``), so
    the similarity map is a randomly compressed inner product in the
    original embedding space. Untied draws randomize the sign of the
    region-token affinity and are only useful for ablation.
    """

    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        self.f1 = as_matrix(self.f1, "f1")
        self.f2 = as_matrix(self.f2, "f2")
        if self.f1.shape != self.f2.shape:
            raise ShapeError(f"projection shapes {self.f1.shape} and {self.f2.shape} differ")

    @property
    def d_v(self) -> int:
        return self.f1.shape[1]


def make_projections(width: int, d_v: int, seed: int = 0, tied: bool = True) -> Projections:
    rng = make_rng(seed)
    std = 1.0 / math.sqrt(width)
    f1 = rng.normal(0.0, std, (width, d_v))
    f2 = f1.copy() if tied else rng.normal(0.0, std, (width, d_v))
    return Projections(f1=f1, f2=f2)


@dataclass(frozen=True)
class ThresholdPolicy:
    """Retention rule: fixed sigmoid threshold or adaptive percentile.

    fixed: keep token i iff logistic(relevance_i) > value, value in (0, 1).
    percentile: keep the ceil(Z*(100-value)/100) highest-relevance tokens,
    value in (0, 100); ties at the cut keep the lower token index first.
    """

    mode: str
    value: float

    def __post_init__(self):
        parse_float(self.value, "policy value")  # checked, not converted
        if self.mode == "fixed":
            if not 0.0 < self.value < 1.0:
                raise ConfigurationError(f"fixed threshold {self.value} must lie in (0, 1)")
        elif self.mode == "percentile":
            if not 0.0 < self.value < 100.0:
                raise ConfigurationError(f"percentile {self.value} must lie in (0, 100)")
        else:
            raise ConfigurationError(f"unknown threshold mode {self.mode!r}")


@dataclass
class RelevanceBundle:
    """Full audit trail of one pruning decision over N candidate tokens.

    N is Z at the first stage and the live count at later ones.
    """

    similarity: np.ndarray  # (M, N)
    entropies: np.ndarray  # (M,), bits, of the softmax of each similarity row
    weights: np.ndarray  # (M,), inverse entropy-rank weights in [0, 1]
    relevance: np.ndarray  # (N,)
    mask: np.ndarray  # (N,), values in {0, 1}
    tau_effective: float


@dataclass
class PrunedTokens:
    """Tokens after mask application.

    compact mode gathers the retained rows and remembers their grid
    coordinates for scatter-back; zero mode is that result scattered
    back onto the full grid, with zero rows at dropped positions.
    """

    mode: str
    tokens: np.ndarray
    retained_coords: np.ndarray  # (Z', 2) grid (row, col) of retained tokens
    grid_h: int
    grid_w: int

    @property
    def retained_count(self) -> int:
        return self.retained_coords.shape[0]


def compute_similarity(region, tokens, proj: Projections) -> np.ndarray:
    """Scaled dot products between projected (M, C) region rows and projected (N, C) tokens."""
    f = as_matrix(region, "region")
    y = as_matrix(tokens, "tokens")
    if f.shape[1] != proj.f1.shape[0] or y.shape[1] != proj.f2.shape[0]:
        raise ShapeError(
            f"feature widths {f.shape[1]}/{y.shape[1]} do not match projection "
            f"rows {proj.f1.shape[0]}"
        )
    v1 = f @ proj.f1
    v2 = y @ proj.f2
    return (v1 @ v2.T) / math.sqrt(proj.d_v)


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a row-stochastic matrix."""
    p = as_matrix(probs, "probs")
    mask = p > 0
    logs = np.zeros_like(p)
    logs[mask] = np.log2(p[mask])
    return -(p * logs).sum(axis=1)


def inverse_entropy_weights(entropies) -> np.ndarray:
    """Inverse weights 1 - R of the normalized ascending entropy ranks R.

    Ties rank by original index. Sorted weights are exactly the uniform
    grid {0, 1/(M-1), ..., 1}; a single entry gives weights = [1].
    """
    e = np.asarray(entropies, dtype=np.float64).ravel()
    m = e.size
    if m == 0:
        raise ValidationError("empty entropy vector")
    if m == 1:
        return np.ones(1)
    order = np.argsort(e, kind="stable")
    ranks_int = np.empty(m, dtype=np.int64)
    ranks_int[order] = np.arange(m)
    return (m - 1 - ranks_int) / float(m - 1)


def relevance_scores(similarity, weights) -> np.ndarray:
    """Mean over region rows of the row-weighted similarity map."""
    s = as_matrix(similarity, "similarity")
    w = np.asarray(weights, dtype=np.float64).ravel()
    if s.shape[0] == 0:
        raise ShapeError("similarity must have at least one row")
    if w.size != s.shape[0]:
        raise ShapeError(f"{w.size} weights do not match {s.shape[0]} similarity rows")
    return (w[:, None] * s).mean(axis=0)


def retention_target(z: int, percentile: float) -> int:
    """Tokens kept by a percentile policy: ceil(Z * (100 - q) / 100)."""
    return int(math.ceil(round(z * (100.0 - percentile) / 100.0, 9)))


def build_mask(relevance, policy: ThresholdPolicy) -> tuple[np.ndarray, float]:
    """Binary keep mask plus the effective threshold.

    fixed mode thresholds the logistic of relevance strictly above the
    configured value. percentile mode keeps the exact retention target
    count of highest-relevance tokens (ties broken toward the lower
    index) and reports the linearly interpolated percentile as the
    effective threshold. Non-finite relevance raises ValidationError.
    """
    r = np.asarray(relevance, dtype=np.float64).ravel()
    z = r.size
    if z == 0:
        raise ValidationError("empty relevance vector")
    if not np.isfinite(r).all():
        raise ValidationError("relevance contains non-finite entries")
    if policy.mode == "fixed":
        mask = (logistic(r) > policy.value).astype(np.uint8)
        return mask, float(policy.value)
    n_keep = retention_target(z, policy.value)
    order = np.argsort(-r, kind="stable")  # stable: ties keep lower index first
    mask = np.zeros(z, dtype=np.uint8)
    mask[order[:n_keep]] = 1
    ascending = r[order[::-1]]  # tau: np.percentile's linear rule; the same bits unless +0 ties -0
    v = (z - 1) * (policy.value / 100)
    i = -1 if v >= z - 1 else math.floor(v)  # at or past the last index: the top value
    lo, hi, t = ascending[i], ascending[i + 1 if i >= 0 else -1], v - i
    tau = hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t
    return mask, float(tau)


def scatter_tokens(pruned: PrunedTokens) -> np.ndarray:
    """Replace tokens on the full grid, zeros at dropped positions."""
    if pruned.mode == "zero":
        return pruned.tokens.copy()
    width = pruned.tokens.shape[1]
    out = np.zeros((pruned.grid_h * pruned.grid_w, width))
    flat = pruned.retained_coords[:, 0] * pruned.grid_w + pruned.retained_coords[:, 1]
    out[flat] = pruned.tokens
    return out

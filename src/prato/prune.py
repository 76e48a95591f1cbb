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

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    EmptyRetentionError,
    ShapeError,
    ValidationError,
)
from .numerics import as_matrix, gaussian_matrix, logistic, make_rng, save_matrix
from .roi import RegionFeature
from .tokens import TokenGrid


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
    d_v: int

    def __post_init__(self):
        self.f1 = as_matrix(self.f1, "f1")
        self.f2 = as_matrix(self.f2, "f2")
        if self.f1.shape != self.f2.shape:
            raise ShapeError(f"projection shapes {self.f1.shape} and {self.f2.shape} differ")
        if self.f1.shape[1] != self.d_v:
            raise ShapeError(f"projection width {self.f1.shape[1]} does not match d_v {self.d_v}")


def make_projections(width: int, d_v: int, seed: int = 0, tied: bool = True) -> Projections:
    rng = make_rng(seed)
    std = 1.0 / math.sqrt(width)
    f1 = gaussian_matrix(rng, width, d_v, std)
    f2 = f1.copy() if tied else gaussian_matrix(rng, width, d_v, std)
    return Projections(f1=f1, f2=f2, d_v=d_v)


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
    probs: np.ndarray  # (M, N), softmax of similarity rows
    entropies: np.ndarray  # (M,), bits
    ranks: np.ndarray  # (M,), normalized ascending entropy ranks in [0, 1]
    weights: np.ndarray  # (M,), inverse rank weights in [0, 1]
    weighted_similarity: np.ndarray  # (M, N)
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


def compute_similarity(region, grid, proj: Projections) -> np.ndarray:
    """Scaled dot products between projected region vectors and projected tokens."""
    f = region.data if isinstance(region, RegionFeature) else as_matrix(region, "region")
    y = grid.tokens if isinstance(grid, TokenGrid) else as_matrix(grid, "tokens")
    if f.shape[1] != proj.f1.shape[0] or y.shape[1] != proj.f2.shape[0]:
        raise ShapeError(
            f"feature widths {f.shape[1]}/{y.shape[1]} do not match projection "
            f"rows {proj.f1.shape[0]}"
        )
    v1 = f @ proj.f1
    v2 = y @ proj.f2
    return (v1 @ v2.T) / math.sqrt(proj.d_v)


def compute_entropy(probs) -> float:
    """Shannon entropy in bits of one probability row; 0*log(0) counts as 0."""
    p = np.asarray(probs, dtype=np.float64).ravel()
    if p.size == 0:
        raise ValidationError("empty probability vector")
    if np.any(p < 0):
        raise ValidationError("probabilities must be nonnegative")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"probabilities sum to {total!r}, not 1 within 1e-9")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a row-stochastic matrix."""
    p = as_matrix(probs, "probs")
    out = np.zeros(p.shape[0])
    mask = p > 0
    logs = np.zeros_like(p)
    logs[mask] = np.log2(p[mask])
    np.negative((p * logs).sum(axis=1), out=out)
    return out


def inverse_entropy_weights(entropies) -> tuple[np.ndarray, np.ndarray]:
    """Normalized ascending ranks R and inverse weights 1 - R.

    Ties rank by original index. Sorted R and sorted weights are both
    exactly the uniform grid {0, 1/(M-1), ..., 1}; a single entry gives
    R = [0], weights = [1].
    """
    e = np.asarray(entropies, dtype=np.float64).ravel()
    m = e.size
    if m == 0:
        raise ValidationError("empty entropy vector")
    if m == 1:
        return np.zeros(1), np.ones(1)
    order = np.argsort(e, kind="stable")
    ranks_int = np.empty(m, dtype=np.int64)
    ranks_int[order] = np.arange(m)
    denom = float(m - 1)
    ranks = ranks_int / denom
    weights = (m - 1 - ranks_int) / denom
    return ranks, weights


def relevance_scores(similarity, weights) -> np.ndarray:
    """Mean over region rows of the row-weighted similarity map."""
    s = as_matrix(similarity, "similarity")
    w = np.asarray(weights, dtype=np.float64).ravel()
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
    effective threshold.
    """
    r = np.asarray(relevance, dtype=np.float64).ravel()
    z = r.size
    if z == 0:
        raise ValidationError("empty relevance vector")
    if policy.mode == "fixed":
        mask = (logistic(r) > policy.value).astype(np.uint8)
        return mask, float(policy.value)
    n_keep = retention_target(z, policy.value)
    order = np.argsort(-r, kind="stable")  # stable: ties keep lower index first
    mask = np.zeros(z, dtype=np.uint8)
    mask[order[:n_keep]] = 1
    tau = float(np.percentile(r, policy.value))
    return mask, tau


def apply_mask(grid: TokenGrid, mask, mode: str = "compact") -> PrunedTokens:
    """Apply a keep mask: zero out dropped rows, or gather the kept ones."""
    m = np.asarray(mask).ravel()
    if m.size != grid.z:
        raise ShapeError(f"mask length {m.size} does not match {grid.z} tokens")
    keep = m.astype(bool)
    coords = grid.token_index_map[keep]
    if mode == "zero":
        out = grid.tokens * keep[:, None]
        return PrunedTokens(mode="zero", tokens=out, retained_coords=coords,
                            grid_h=grid.grid_h, grid_w=grid.grid_w)
    if mode == "compact":
        if not keep.any():
            raise EmptyRetentionError("mask retained zero tokens; nothing to compact")
        return PrunedTokens(mode="compact", tokens=grid.tokens[keep],
                            retained_coords=coords, grid_h=grid.grid_h, grid_w=grid.grid_w)
    raise ConfigurationError(f"unknown mask mode {mode!r}")


def scatter_tokens(pruned: PrunedTokens) -> np.ndarray:
    """Replace tokens on the full grid, zeros at dropped positions."""
    if pruned.mode == "zero":
        return pruned.tokens.copy()
    width = pruned.tokens.shape[1]
    out = np.zeros((pruned.grid_h * pruned.grid_w, width))
    flat = pruned.retained_coords[:, 0] * pruned.grid_w + pruned.retained_coords[:, 1]
    out[flat] = pruned.tokens
    return out


def save_bundle(bundle: RelevanceBundle, out_dir) -> str:
    """Audit dump: vectors inline in JSON, matrices as binary matrix files."""
    os.makedirs(out_dir, exist_ok=True)
    mats = {
        "similarity": bundle.similarity,
        "probs": bundle.probs,
        "weighted_similarity": bundle.weighted_similarity,
    }
    record = {
        "entropies": bundle.entropies.tolist(),
        "ranks": bundle.ranks.tolist(),
        "weights": bundle.weights.tolist(),
        "relevance": bundle.relevance.tolist(),
        "mask": bundle.mask.astype(int).tolist(),
        "tau_effective": bundle.tau_effective,
        "matrices": {},
    }
    for name, mat in mats.items():
        fname = name + ".prtm"
        save_matrix(os.path.join(out_dir, fname), mat)
        record["matrices"][name] = fname
    path = os.path.join(out_dir, "bundle.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    return path

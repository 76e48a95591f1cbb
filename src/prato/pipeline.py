"""Chain tokenizer, encoder blocks, and pruning stages; account the cost.

A pipeline run embeds the image, pushes tokens through ``depth``
encoder blocks, and after each configured stage scores the live tokens
against the box prompt and drops the low-relevance ones. In compact
mode the surviving tokens travel as a reduced set (their grid
coordinates ride along, and later region pooling sees dropped cells as
zeros); in zero mode the grid shape is kept and dropped rows are
zeroed. The cost model counts multiply-accumulates as 2 FLOPs and
assumes compaction, so zero-mode reports describe the savings that
compaction of the same mask would realize.

A run has two halves. The prefix validates the image, builds the
weights (unless they are passed), tokenizes, and runs blocks
``0..stage_indices[0]``; none of that reads the prompt, the threshold
policy or ``roi_k``. The continuation scores, masks and encodes the
remaining blocks and builds the :class:`CostReport`. ``run_pipeline``
is prefix-then-continuation, and a caller may pass a prefix it encoded
earlier to run only the continuation: the sweep encodes one prefix per
scene seed and reuses it for every (policy, k, perturbation) cell, and
its CSV and JSON output stay byte-identical to running each cell from
scratch. A prefix is only reused under its key, the config fields and
image shape that determine the weights and the prefix tokens (seed,
depth, first stage, patch size, embed width, heads, d_v, positional
mode, projection tying, residual mode, LN epsilon, and the image's
channels, height and width), and only on the image it was encoded from.

Per block over n tokens of width C:
    qkv projections   3 * 2n*C^2
    attention scores + weighted sum   2 * 2n^2*C
    output projection 2n*C^2
    feed-forward      2 * (2n*C*4C) = 16n*C^2
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .encoder import encode_tokens, init_block_weights
from .errors import ConfigurationError, EmptyRetentionError, ShapeError
from .prune import (
    Projections,
    PrunedTokens,
    RelevanceBundle,
    ThresholdPolicy,
    build_mask,
    compute_similarity,
    entropy_rows,
    inverse_entropy_weights,
    make_projections,
    relevance_scores,
)
from .numerics import softmax_rows
from .roi import BoxPrompt, GridBox, map_box_to_grid, roi_align
from .tokens import TokenGrid, make_embedder, row_major_index_map, tokenize_image, validate_image


@dataclass(frozen=True)
class PromptPerturbation:
    """Prompt degradation kinds used by the robustness protocol."""

    kind: str
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("tight", "oversized", "partial", "misleading"):
            raise ConfigurationError(f"unknown perturbation kind {self.kind!r}")
        if self.magnitude < 0:
            raise ConfigurationError("perturbation magnitude must be >= 0")
        if self.kind == "tight" and self.magnitude != 0:
            raise ConfigurationError("tight prompts take magnitude 0")
        if self.kind == "partial" and not 0.0 < self.magnitude <= 1.0:
            raise ConfigurationError("partial prompts need an area fraction in (0, 1]")


@dataclass
class PipelineConfig:
    depth: int = 4
    stage_indices: tuple = None  # defaults to one stage after the middle block
    patch_size: int = 16
    embed_dim: int = 64
    heads: int = 4
    roi_k: int = 5
    d_v: int = 64
    policy: ThresholdPolicy = field(default_factory=lambda: ThresholdPolicy("percentile", 25.0))
    mask_mode: str = "compact"
    sampling_ratio: int = 2
    seed: int = 0
    residual: str = "block"
    positional: str = "sinusoidal"
    ln_eps: float = 1e-6
    proj_tied: bool = True

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigurationError("depth must be >= 1")
        if self.stage_indices is None:
            self.stage_indices = ((self.depth - 1) // 2,)
        self.stage_indices = tuple(sorted(set(int(s) for s in self.stage_indices)))
        if any(s < 0 or s >= self.depth for s in self.stage_indices):
            raise ConfigurationError(
                f"stage indices {self.stage_indices} must lie in [0, {self.depth})"
            )
        if self.mask_mode not in ("zero", "compact"):
            raise ConfigurationError(f"unknown mask mode {self.mask_mode!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "stage_indices": list(self.stage_indices),
            "patch_size": self.patch_size,
            "embed_dim": self.embed_dim,
            "heads": self.heads,
            "roi_k": self.roi_k,
            "d_v": self.d_v,
            "tau_mode": self.policy.mode,
            "tau_value": self.policy.value,
            "mask_mode": self.mask_mode,
            "sampling_ratio": self.sampling_ratio,
            "seed": self.seed,
            "residual": self.residual,
            "positional": self.positional,
        }


def config_from_dict(d: dict) -> PipelineConfig:
    policy = ThresholdPolicy(d.get("tau_mode", "percentile"), float(d.get("tau_value", 25.0)))
    kwargs = {}
    for name in ("depth", "patch_size", "embed_dim", "heads", "roi_k", "d_v",
                 "sampling_ratio", "seed"):
        if name in d:
            kwargs[name] = int(d[name])
    for name in ("mask_mode", "residual", "positional"):
        if name in d:
            kwargs[name] = str(d[name])
    # leave stage_indices unset unless given, so the default tracks the depth
    if "stage_indices" in d:
        kwargs["stage_indices"] = tuple(int(s) for s in d["stage_indices"])
    return PipelineConfig(policy=policy, **kwargs)


@dataclass
class CostReport:
    tokens_full: int
    tokens_retained: list  # retained count after each pruning stage
    token_sparsity: float
    flops_full: int
    flops_pruned: int
    flops_reduction: float

    def to_dict(self) -> dict:
        return {
            "Z": self.tokens_full,
            "retained": list(self.tokens_retained),
            "token_sparsity": self.token_sparsity,
            "flops_full": self.flops_full,
            "flops_pruned": self.flops_pruned,
            "flops_reduction": self.flops_reduction,
        }


def block_flop_terms(n_tokens: int, width: int) -> dict:
    """FLOPs of one encoder block over n tokens, split by term."""
    n, c = int(n_tokens), int(width)
    return {
        "qkv": 3 * 2 * n * c * c,
        "attention": 2 * 2 * n * n * c,
        "projection": 2 * n * c * c,
        "ffn": 16 * n * c * c,
    }


def estimate_flops(z: int, width: int, depth: int, tokens_per_block) -> tuple[int, int]:
    """Total FLOPs of the full and pruned forward passes.

    ``tokens_per_block`` lists the live token count entering each block.
    """
    counts = [int(n) for n in tokens_per_block]
    if len(counts) != depth:
        raise ShapeError(f"{len(counts)} per-block counts do not match depth {depth}")
    if any(n < 0 or n > z for n in counts):
        raise ConfigurationError(f"per-block counts {counts} must lie in [0, {z}]")
    full = depth * sum(block_flop_terms(z, width).values())
    pruned = sum(sum(block_flop_terms(n, width).values()) for n in counts)
    return full, pruned


def box_iou(a: BoxPrompt, b: BoxPrompt) -> float:
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    return inter / union if union > 0 else 0.0


def perturb_prompt(box: BoxPrompt, perturbation: PromptPerturbation, rng: np.random.Generator) -> BoxPrompt:
    """Degrade a box prompt: dilate, shrink to a corner, or move it off-target."""
    kind, mag = perturbation.kind, perturbation.magnitude
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    if kind == "tight":
        return box
    if kind == "oversized":
        return BoxPrompt(
            x1=max(0.0, box.x1 - mag * w),
            y1=max(0.0, box.y1 - mag * h),
            x2=min(1.0, box.x2 + mag * w),
            y2=min(1.0, box.y2 + mag * h),
        )
    if kind == "partial":
        scale = np.sqrt(mag)
        nw, nh = w * scale, h * scale
        corner = int(rng.integers(4))
        x1 = box.x1 if corner in (0, 2) else box.x2 - nw
        y1 = box.y1 if corner in (0, 1) else box.y2 - nh
        return BoxPrompt(x1=x1, y1=y1, x2=x1 + nw, y2=y1 + nh)
    # misleading: same-size box at a non-overlapping spot, chosen from the
    # disjoint slabs left/right/above/below; if the box is too large for any
    # slab, fall back to the farthest corner placement.
    slabs = []
    if box.x1 - w >= 0:
        slabs.append(((0.0, box.x1 - w), (0.0, 1.0 - h)))
    if box.x2 <= 1.0 - w:
        slabs.append(((box.x2, 1.0 - w), (0.0, 1.0 - h)))
    if box.y1 - h >= 0:
        slabs.append(((0.0, 1.0 - w), (0.0, box.y1 - h)))
    if box.y2 <= 1.0 - h:
        slabs.append(((0.0, 1.0 - w), (box.y2, 1.0 - h)))
    if slabs:
        (xlo, xhi), (ylo, yhi) = slabs[int(rng.integers(len(slabs)))]
        x1 = float(rng.uniform(xlo, xhi)) if xhi > xlo else xlo
        y1 = float(rng.uniform(ylo, yhi)) if yhi > ylo else ylo
    else:
        cx, cy = (box.x1 + box.x2) / 2, (box.y1 + box.y2) / 2
        corners = [(0.0, 0.0), (1.0 - w, 0.0), (0.0, 1.0 - h), (1.0 - w, 1.0 - h)]
        x1, y1 = max(
            corners,
            key=lambda c: (c[0] + w / 2 - cx) ** 2 + (c[1] + h / 2 - cy) ** 2,
        )
    return BoxPrompt(x1=x1, y1=y1, x2=x1 + w, y2=y1 + h)


def token_in_box_mask(grid_h: int, grid_w: int, gbox: GridBox) -> np.ndarray:
    """Boolean (Z,) flag of tokens whose cell center lies inside the grid box."""
    rows, cols = np.divmod(np.arange(grid_h * grid_w), grid_w)
    cx = cols + 0.5
    cy = rows + 0.5
    return (gbox.x1 <= cx) & (cx <= gbox.x2) & (gbox.y1 <= cy) & (cy <= gbox.y2)


@dataclass
class PipelineWeights:
    embedder: object
    blocks: list
    projections: Projections


def build_pipeline_weights(cfg: PipelineConfig, channels: int, grid_h: int, grid_w: int) -> PipelineWeights:
    """Materialize all weights from the config seed, one substream per component."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(cfg.depth + 2, dtype=np.uint64)
    embedder = make_embedder(
        channels, cfg.patch_size, cfg.embed_dim, grid_h, grid_w,
        seed=int(seeds[0]), positional=cfg.positional,
    )
    blocks = [
        init_block_weights(cfg.embed_dim, cfg.heads, seed=int(seeds[1 + b]))
        for b in range(cfg.depth)
    ]
    projections = make_projections(cfg.embed_dim, cfg.d_v, seed=int(seeds[-1]), tied=cfg.proj_tied)
    return PipelineWeights(embedder=embedder, blocks=blocks, projections=projections)


def _stage_bundle(
    feature_grid: TokenGrid,
    candidates: np.ndarray,
    box: BoxPrompt,
    proj: Projections,
    cfg: PipelineConfig,
) -> RelevanceBundle:
    """Score candidate tokens against the prompted region of the feature grid."""
    gbox = map_box_to_grid(box, feature_grid.grid_h, feature_grid.grid_w)
    region = roi_align(feature_grid, gbox, cfg.roi_k, cfg.sampling_ratio)
    similarity = compute_similarity(region, candidates, proj)
    probs = softmax_rows(similarity)
    entropies = entropy_rows(probs)
    ranks, weights = inverse_entropy_weights(entropies)
    relevance = relevance_scores(similarity, weights)
    mask, tau = build_mask(relevance, cfg.policy)
    return RelevanceBundle(
        similarity=similarity,
        probs=probs,
        entropies=entropies,
        ranks=ranks,
        weights=weights,
        weighted_similarity=weights[:, None] * similarity,
        relevance=relevance,
        mask=mask,
        tau_effective=tau,
    )


@dataclass(frozen=True)
class EncodedPrefix:
    """The work of a run before its first pruning stage, reusable across prompts.

    ``tokens`` are the read-only (Z, C) tokens after block
    ``stage_indices[0]``. ``key`` is :func:`prefix_key` of the config
    and image the prefix was encoded under, and ``image`` is that image,
    which must not be modified in place while the prefix is reused.
    """

    key: dict
    image: np.ndarray
    weights: PipelineWeights
    tokens: np.ndarray


def prefix_key(cfg: PipelineConfig, image_shape) -> dict:
    """Config fields and image shape that determine the weights and the prefix tokens."""
    return {
        "seed": cfg.seed, "depth": cfg.depth, "first_stage": cfg.stage_indices[0],
        "patch_size": cfg.patch_size, "embed_dim": cfg.embed_dim, "heads": cfg.heads,
        "d_v": cfg.d_v, "positional": cfg.positional, "proj_tied": cfg.proj_tied,
        "residual": cfg.residual, "ln_eps": cfg.ln_eps, "image_shape": tuple(image_shape),
    }


def _check_weights(weights: PipelineWeights, cfg: PipelineConfig, channels: int, z: int) -> None:
    """Raise ConfigurationError unless the weights have the shapes the config and image need."""
    c, p = cfg.embed_dim, cfg.patch_size
    found_expected = {
        "blocks": (len(weights.blocks), cfg.depth),
        "block widths": ({blk.width for blk in weights.blocks}, {c}),
        "block heads": ({blk.heads for blk in weights.blocks}, {cfg.heads}),
        "embedder projection": (weights.embedder.projection.shape, (channels * p * p, c)),
        "positional table": (weights.embedder.positional.shape, (z, c)),
        "relevance projections": (weights.projections.f1.shape, (c, cfg.d_v)),
    }
    bad = [f"{name} {found} != {expected}"
           for name, (found, expected) in found_expected.items() if found != expected]
    if bad:
        raise ConfigurationError("weights do not fit the config: " + "; ".join(bad))


def encode_prefix(img, cfg: PipelineConfig, weights: PipelineWeights = None) -> EncodedPrefix:
    """Validate, build or check the weights, tokenize, and run blocks up to the first stage."""
    img = validate_image(img)
    channels, h, w_px = img.shape
    p = cfg.patch_size
    if h % p != 0 or w_px % p != 0:
        raise ConfigurationError(f"image {h}x{w_px} is not divisible by patch size {p}")
    grid_h, grid_w = h // p, w_px // p
    if weights is None:
        weights = build_pipeline_weights(cfg, channels, grid_h, grid_w)
    else:
        _check_weights(weights, cfg, channels, grid_h * grid_w)

    tokens = tokenize_image(img, weights.embedder, p).tokens
    # no token is dropped before the first stage, so zero mode's mask is all ones
    for b in range(cfg.stage_indices[0] + 1):
        tokens = encode_tokens(tokens, weights.blocks[b], residual=cfg.residual, ln_eps=cfg.ln_eps)
    tokens.flags.writeable = False
    return EncodedPrefix(key=prefix_key(cfg, img.shape), image=img, weights=weights, tokens=tokens)


def _check_prefix(prefix: EncodedPrefix, img, cfg: PipelineConfig) -> None:
    img = np.asarray(img, dtype=np.float64)
    key = prefix_key(cfg, img.shape)
    bad = [f"{name} {prefix.key[name]!r} != {key[name]!r}"
           for name in key if prefix.key[name] != key[name]]
    if bad:
        raise ConfigurationError("prefix was encoded under a different key: " + "; ".join(bad))
    if not np.array_equal(img, prefix.image):
        raise ConfigurationError("prefix was encoded from a different image")


def run_pipeline(img, box: BoxPrompt, cfg: PipelineConfig, weights: PipelineWeights = None,
                 prefix: EncodedPrefix = None):
    """Run embed -> encode -> prune stages; returns (tokens, bundles, report).

    Deterministic for a fixed (image, box, config, seed). ``weights``
    may be passed to reuse materialized weights across runs of the same
    config; ``prefix``, from :func:`encode_prefix` on the same image and
    a config with the same :func:`prefix_key`, skips everything before
    the first stage. The output is bit-identical either way.
    """
    if prefix is None:
        prefix = encode_prefix(img, cfg, weights)
    elif weights is not None:
        raise ConfigurationError("pass weights or a prefix, not both")
    else:
        _check_prefix(prefix, img, cfg)
    weights = prefix.weights
    p = cfg.patch_size
    grid_h, grid_w = prefix.image.shape[1] // p, prefix.image.shape[2] // p
    z = grid_h * grid_w
    first = cfg.stage_indices[0]

    live_tokens = prefix.tokens
    live_coords = row_major_index_map(grid_h, grid_w)
    live_mask = np.ones(z, dtype=bool)  # zero-mode bookkeeping

    bundles: list[RelevanceBundle] = []
    retained_per_stage: list[int] = []
    tokens_per_block: list[int] = [z] * (first + 1)

    for b in range(first, cfg.depth):
        if b > first:
            tokens_per_block.append(live_tokens.shape[0] if cfg.mask_mode == "compact"
                                    else int(live_mask.sum()))
            live_tokens = encode_tokens(live_tokens, weights.blocks[b],
                                        residual=cfg.residual, ln_eps=cfg.ln_eps)
            if cfg.mask_mode == "zero":
                live_tokens = live_tokens * live_mask[:, None]
        if b not in cfg.stage_indices:
            continue

        if cfg.mask_mode == "compact":
            full = np.zeros((z, cfg.embed_dim))
            full[live_coords[:, 0] * grid_w + live_coords[:, 1]] = live_tokens
            feature_grid = TokenGrid(tokens=full, grid_h=grid_h, grid_w=grid_w, patch_size=p)
            bundle = _stage_bundle(feature_grid, live_tokens, box, weights.projections, cfg)
            keep = bundle.mask.astype(bool)
            if not keep.any():
                raise EmptyRetentionError(f"stage after block {b} retained zero tokens", stage=b)
            live_tokens = live_tokens[keep]
            live_coords = live_coords[keep]
            retained_per_stage.append(int(keep.sum()))
        else:
            feature_grid = TokenGrid(tokens=live_tokens, grid_h=grid_h, grid_w=grid_w, patch_size=p)
            bundle = _stage_bundle(feature_grid, live_tokens, box, weights.projections, cfg)
            live_mask = live_mask & bundle.mask.astype(bool)
            if not live_mask.any():
                raise EmptyRetentionError(f"stage after block {b} retained zero tokens", stage=b)
            live_tokens = live_tokens * live_mask[:, None]
            retained_per_stage.append(int(live_mask.sum()))
        bundles.append(bundle)

    if cfg.mask_mode == "zero":
        live_coords = live_coords[live_mask]
    pruned = PrunedTokens(mode=cfg.mask_mode, tokens=live_tokens,
                          retained_coords=live_coords, grid_h=grid_h, grid_w=grid_w)

    final_live = pruned.retained_count
    flops_full, flops_pruned = estimate_flops(z, cfg.embed_dim, cfg.depth, tokens_per_block)
    report = CostReport(
        tokens_full=z,
        tokens_retained=retained_per_stage,
        token_sparsity=1.0 - final_live / z,
        flops_full=flops_full,
        flops_pruned=flops_pruned,
        flops_reduction=1.0 - flops_pruned / flops_full,
    )
    return pruned, bundles, report


def run_batch(images, boxes, cfg: PipelineConfig):
    """Run the pipeline per image with derived seeds (seed XOR index)."""
    results = []
    for i, (img, box) in enumerate(zip(images, boxes)):
        sub = replace(cfg, seed=cfg.seed ^ i)
        results.append(run_pipeline(img, box, sub))
    return results


def write_batch_csv(reports, path) -> None:
    """One CSV row per image, for plotting."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "Z", "retained", "token_sparsity",
                         "flops_full", "flops_pruned", "flops_reduction"])
        for i, rep in enumerate(reports):
            writer.writerow([
                i, rep.tokens_full, ";".join(str(n) for n in rep.tokens_retained),
                repr(rep.token_sparsity), rep.flops_full, rep.flops_pruned,
                repr(rep.flops_reduction),
            ])

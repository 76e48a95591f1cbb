"""Chain tokenizer, encoder blocks, and pruning stages; account the cost.

A pipeline run embeds the image, pushes tokens through ``depth``
encoder blocks, and after each configured stage scores the live tokens
against the box prompt and drops the low-relevance ones. A dropped
token is gone: later blocks do not attend to it and later stages do
not score it, so a later stage's bundle covers only the live
candidates (region pooling still sees the full grid, with dropped cells
as zeros). The surviving tokens travel as a reduced set with their grid
coordinates. ``mask_mode`` only chooses the output layout: compact
returns that set, zero returns it scattered back onto the full grid
with zeros at dropped positions. Both modes share one run, so their
masks and :class:`CostReport` are the same. The cost model counts
multiply-accumulates as 2 FLOPs.

A run has two halves. The prefix validates the image, builds the
weights (unless they are passed), tokenizes, and runs blocks
``0..stage_indices[0]``; none of that reads the prompt, the threshold
policy or ``roi_k``. The continuation scores, masks and encodes the
remaining blocks and builds the :class:`CostReport`; a caller that reads no
token values may end the run at its last stage. A caller may pass a prefix
it encoded earlier to run only the continuation, one prompt per call. The
prefix keeps the first-stage scoring of the last region (box, ``roi_k``,
``sampling_ratio``) run on it, read-only, so consecutive prompts on one
region pool and score it once and differ only in the mask their policy
cuts. Threads sharing a prefix at worst score a region twice.
Reuse goes by key, never by shape: weights carry their
:func:`weights_key` (seed, depth, patch size, embed width, heads, d_v,
positional mode, projection tying, and the image's channels, height and
width), and a prefix its :func:`prefix_key` (that key plus the first
stage, residual mode and LN epsilon). Each is only accepted under an
equal key, and a prefix only on the image it was encoded from.

Per block over n tokens of width C:
    qkv projections   3 * 2n*C^2
    attention scores + weighted sum   2 * 2n^2*C
    output projection 2n*C^2
    feed-forward      2 * (2n*C*4C) = 16n*C^2
"""

from __future__ import annotations

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
    scatter_tokens,
)
from .numerics import as_int, fan_out, parse_float, parse_int, parse_list, parse_record, softmax_rows
from .roi import BoxPrompt, GridBox, map_box_to_grid, roi_align
from .tokens import TokenGrid, make_embedder, row_major_index_map, tokenize_image, validate_image

MAX_ROI_SAMPLES = 128  # roi_k * sampling_ratio, roi_align's lattice side: 33.3 MiB peak at width 64
_INT_FIELDS = ("depth", "patch_size", "embed_dim", "heads", "roi_k", "d_v", "sampling_ratio", "seed")


@dataclass(frozen=True)
class PromptPerturbation:
    """Prompt degradation kinds used by the robustness protocol."""

    kind: str
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("tight", "oversized", "partial", "misleading"):
            raise ConfigurationError(f"unknown perturbation kind {self.kind!r}")
        number = isinstance(self.magnitude, (int, float, np.integer, np.floating))
        if number and not 0 <= self.magnitude < np.inf:
            raise ConfigurationError(f"perturbation magnitude {self.magnitude} must be finite and >= 0")
        parse_float(self.magnitude, "perturbation magnitude")  # any other value, bools too, raises
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
        for name in _INT_FIELDS:
            setattr(self, name, as_int(getattr(self, name), name, 0 if name == "seed" else 1))
        if self.stage_indices is None:
            self.stage_indices = ((self.depth - 1) // 2,)
        self.stage_indices = tuple(sorted(set(as_int(s, "stage_indices") for s in self.stage_indices)))
        if not self.stage_indices or any(s < 0 or s >= self.depth for s in self.stage_indices):
            raise ConfigurationError(
                f"stage indices {self.stage_indices} must be a non-empty subset of "
                f"[0, {self.depth})"
            )
        if self.roi_k * self.sampling_ratio > MAX_ROI_SAMPLES:
            raise ConfigurationError(f"roi_k * sampling_ratio must be <= {MAX_ROI_SAMPLES}, "
                                     f"got {self.roi_k} * {self.sampling_ratio}")
        if parse_float(self.ln_eps, "ln_eps") <= 0:  # checked, not converted
            raise ConfigurationError(f"ln_eps must be finite and > 0, got {self.ln_eps}")
        if self.embed_dim % self.heads:
            raise ConfigurationError(f"heads={self.heads} must divide embed_dim={self.embed_dim}")
        choices = {"mask_mode": ("zero", "compact"), "residual": ("block", "sublayer"),
                   "positional": ("sinusoidal", "learned", "none"), "proj_tied": (True, False)}
        for name, allowed in choices.items():
            value = getattr(self, name)
            if type(value) is not type(allowed[0]) or value not in allowed:  # 1 == True, 0 == False
                raise ConfigurationError(f"{name} must be one of {allowed}, got {value!r}")

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


# config-file fields and their parsers (value, key); tau_mode and tau_value make the policy
_CONFIG_FIELDS = {
    **dict.fromkeys(_INT_FIELDS, parse_int),
    **dict.fromkeys(("mask_mode", "residual", "positional", "proj_tied", "tau_mode"), lambda v, key: v),
    **dict.fromkeys(("ln_eps", "tau_value"), parse_float),
    "stage_indices": lambda v, key: tuple(parse_int(s, key) for s in parse_list(v, key)),
}


def config_from_dict(d: dict, **overrides) -> PipelineConfig:
    """A config from a JSON object of its fields; ``overrides``, fields too, replace those of ``d``
    before any field is range-checked. Fields not given keep their defaults, and stage_indices
    its default after the given depth."""
    fields = parse_record(d, "config", _CONFIG_FIELDS)
    fields.update(parse_record(overrides, "config", _CONFIG_FIELDS))
    policy = ThresholdPolicy(fields.pop("tau_mode", "percentile"), fields.pop("tau_value", 25.0))
    return PipelineConfig(policy=policy, **fields)


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
    n, c = as_int(n_tokens, "n_tokens", 0), as_int(width, "width", 1)
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
    counts = [as_int(n, "tokens_per_block") for n in tokens_per_block]
    if len(counts) != as_int(depth, "depth", 1):
        raise ShapeError(f"{len(counts)} per-block counts do not match depth {depth}")
    if any(n < 0 or n > z for n in counts):
        raise ConfigurationError(f"per-block counts {counts} must lie in [0, {z}]")
    full = len(counts) * sum(block_flop_terms(z, width).values())
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
    rows, cols = row_major_index_map(grid_h, grid_w).T
    cx = cols + 0.5
    cy = rows + 0.5
    return (gbox.x1 <= cx) & (cx <= gbox.x2) & (gbox.y1 <= cy) & (cy <= gbox.y2)


@dataclass
class PipelineWeights:
    """All seeded weights of a run and the :func:`weights_key` they were built under."""

    embedder: object
    blocks: list
    projections: Projections
    key: dict


def weights_key(cfg: PipelineConfig, image_shape) -> dict:
    """Config fields and image shape that determine the weights."""
    return {"seed": cfg.seed, "depth": cfg.depth, "patch_size": cfg.patch_size,
            "embed_dim": cfg.embed_dim, "heads": cfg.heads, "d_v": cfg.d_v,
            "positional": cfg.positional, "proj_tied": cfg.proj_tied,
            "image_shape": tuple(image_shape)}


def build_pipeline_weights(cfg: PipelineConfig, channels: int, grid_h: int, grid_w: int) -> PipelineWeights:
    """Materialize all weights from the config seed, one substream per component."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(cfg.depth + 2, dtype=np.uint64)
    embedder = make_embedder(
        channels, cfg.patch_size, cfg.embed_dim, grid_h, grid_w,
        seed=int(seeds[0]), positional=cfg.positional,
    )
    blocks = fan_out(lambda b: init_block_weights(cfg.embed_dim, cfg.heads, seed=int(seeds[1 + b])),
                     cfg.depth)
    projections = make_projections(cfg.embed_dim, cfg.d_v, seed=int(seeds[-1]), tied=cfg.proj_tied)
    key = weights_key(cfg, (channels, grid_h * cfg.patch_size, grid_w * cfg.patch_size))
    return PipelineWeights(embedder=embedder, blocks=blocks, projections=projections, key=key)


def prato_score(
    grid: TokenGrid,
    box: BoxPrompt,
    proj: Projections,
    k: int = 5,
    policy: ThresholdPolicy = ThresholdPolicy("percentile", 25.0),
    sampling_ratio: int = 2,
    tokens: np.ndarray = None,
) -> RelevanceBundle:
    """Full scoring chain from box prompt to prune mask, with audit trail.

    The region is pooled from ``grid``; the candidates scored and masked
    are ``tokens``, every token of ``grid`` by default. A pipeline stage
    passes the live tokens scattered onto the full grid as ``grid`` and
    the live tokens themselves as ``tokens``.
    """
    gbox = map_box_to_grid(box, grid.grid_h, grid.grid_w)
    region = roi_align(grid, gbox, k, sampling_ratio)
    similarity = compute_similarity(region, grid.tokens if tokens is None else tokens, proj)
    entropies = entropy_rows(softmax_rows(similarity))
    weights = inverse_entropy_weights(entropies)
    relevance = relevance_scores(similarity, weights)
    mask, tau = build_mask(relevance, policy)
    return RelevanceBundle(
        similarity=similarity,
        entropies=entropies,
        weights=weights,
        relevance=relevance,
        mask=mask,
        tau_effective=tau,
    )


@dataclass(frozen=True)
class EncodedPrefix:
    """The work of a run before its first pruning stage, reusable across prompts.

    ``tokens`` are the read-only (Z, C) tokens after block
    ``stage_indices[0]`` and ``coords`` their read-only grid (row, col).
    ``key`` is :func:`prefix_key` of the config and image the prefix was
    encoded under, and ``image`` is that image, which must not be modified
    in place while the prefix is reused. ``scored`` maps the last region
    scored at the first stage to its read-only bundle.
    """

    key: dict
    image: np.ndarray
    weights: PipelineWeights
    tokens: np.ndarray
    coords: np.ndarray
    scored: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def prefix_key(cfg: PipelineConfig, image_shape) -> dict:
    """The weights key plus the config fields that determine the prefix tokens."""
    return {**weights_key(cfg, image_shape), "first_stage": cfg.stage_indices[0],
            "residual": cfg.residual, "ln_eps": cfg.ln_eps}


def _check_key(found: dict, expected: dict, message: str) -> None:
    """Raise ConfigurationError naming every field where ``found`` differs from ``expected``."""
    bad = [f"{name} {found[name]!r} != {expected[name]!r}"
           for name in expected if found[name] != expected[name]]
    if bad:
        raise ConfigurationError(f"{message}: " + "; ".join(bad))


def encode_prefix(img, cfg: PipelineConfig, weights: PipelineWeights = None) -> EncodedPrefix:
    """Validate, build the weights or check their :func:`weights_key`, tokenize, and run
    blocks up to the first stage; the prefix records its :func:`prefix_key`."""
    img = validate_image(img)
    channels, h, w_px = img.shape
    p = cfg.patch_size
    if h % p != 0 or w_px % p != 0:
        raise ConfigurationError(f"image {h}x{w_px} is not divisible by patch size {p}")
    grid_h, grid_w = h // p, w_px // p
    if weights is None:
        weights = build_pipeline_weights(cfg, channels, grid_h, grid_w)
    else:
        _check_key(weights.key, weights_key(cfg, img.shape), "weights do not fit the config")

    tokens = tokenize_image(img, weights.embedder, p).tokens
    for b in range(cfg.stage_indices[0] + 1):
        tokens = encode_tokens(tokens, weights.blocks[b], residual=cfg.residual, ln_eps=cfg.ln_eps)
    coords = row_major_index_map(grid_h, grid_w)
    tokens.flags.writeable = coords.flags.writeable = False
    return EncodedPrefix(key=prefix_key(cfg, img.shape), image=img, weights=weights, tokens=tokens,
                         coords=coords)


def run_pipeline(img, box, cfg, weights: PipelineWeights = None, prefix: EncodedPrefix = None,
                 stop_at_last_stage: bool = False):
    """Run embed -> encode -> prune stages; returns (tokens, bundles, report).

    Deterministic for a fixed (image, box, config, seed). ``weights``
    from :func:`build_pipeline_weights` may be passed to reuse them
    across runs whose config and image have the same :func:`weights_key`;
    ``prefix``, from :func:`encode_prefix` on the same image and a config
    with the same :func:`prefix_key`, skips everything before the first
    stage. Either raises ConfigurationError under another key, and the
    output is bit-identical to a fresh run. On a passed prefix the first
    stage's similarity, entropies, weights and relevance are read-only: a
    run on the region the prefix scored last shares them.

    With ``stop_at_last_stage`` no block after the last stage runs: the tokens are those that
    stage kept, and the bundles and report are the full run's, bit for bit. Only a later block
    could fail, on non-finite tokens, which the sweep and the CLI (they read no token) cannot
    meet: images lie in [0, 1] (``validate_image``) and their weights are small-std draws.
    """
    given = prefix is not None
    if given and weights is not None:
        raise ConfigurationError("pass weights or a prefix, not both")
    prefix = prefix if given else encode_prefix(img, cfg, weights)
    _check_key(prefix.key, prefix_key(cfg, np.shape(img)), "prefix was encoded under a different key")
    if given and img is not prefix.image and not np.array_equal(img, prefix.image):
        raise ConfigurationError("prefix was encoded from a different image")

    grid_h, grid_w = (n // cfg.patch_size for n in prefix.image.shape[1:])
    first, tokens, coords, bundles = cfg.stage_indices[0], prefix.tokens, prefix.coords, []
    live = [len(coords)] * (first + 1)
    for b in range(first, cfg.stage_indices[-1] + 1 if stop_at_last_stage else cfg.depth):
        if b > first:  # the prefix ran block first
            live.append(len(coords))
            tokens = encode_tokens(tokens, prefix.weights.blocks[b], residual=cfg.residual,
                                   ln_eps=cfg.ln_eps)
        if b not in cfg.stage_indices:
            continue
        region, memo = (box, cfg.roi_k, cfg.sampling_ratio), given and b == first
        bundle = prefix.scored.get(region) if memo else None
        if bundle is not None:
            bundle = replace(bundle)
            bundle.mask, bundle.tau_effective = build_mask(bundle.relevance, cfg.policy)
        else:
            grid = TokenGrid(scatter_tokens(PrunedTokens("compact", tokens, coords, grid_h, grid_w)),
                             grid_h, grid_w)
            bundle = prato_score(grid, box, prefix.weights.projections, cfg.roi_k, cfg.policy,
                                 cfg.sampling_ratio, tokens=tokens)
            if memo:
                for a in (bundle.similarity, bundle.entropies, bundle.weights, bundle.relevance):
                    a.flags.writeable = False
                prefix.scored.clear()
                prefix.scored[region] = replace(bundle)
        keep = bundle.mask.astype(bool)
        if not keep.any():
            raise EmptyRetentionError(f"stage after block {b} retained zero tokens")
        tokens, coords = tokens[keep], coords[keep]
        bundles.append(bundle)

    z = grid_h * grid_w
    pruned = PrunedTokens("compact", tokens, coords, grid_h, grid_w)
    if cfg.mask_mode == "zero":
        pruned = replace(pruned, mode="zero", tokens=scatter_tokens(pruned))
    live += [len(coords)] * (cfg.depth - len(live))  # no block ran after the last stage
    flops_full, flops_pruned = estimate_flops(z, cfg.embed_dim, cfg.depth, live)
    return pruned, bundles, CostReport(
        tokens_full=z, tokens_retained=[int(bundle.mask.sum()) for bundle in bundles],
        token_sparsity=1.0 - pruned.retained_count / z, flops_full=flops_full,
        flops_pruned=flops_pruned, flops_reduction=1.0 - flops_pruned / flops_full)


def run_batch(images, boxes, cfg: PipelineConfig):
    """Run the pipeline per image with derived seeds (seed XOR index); results in image order.

    Images run at once across cores (:func:`numerics.fan_out`). The error of the lowest failing
    image is raised once every image in flight has finished, as a loop over the images raises it.
    Unequal numbers of images and boxes raise ShapeError before any image runs.
    """
    if len(images) != len(boxes):
        raise ShapeError(f"{len(images)} images do not pair with {len(boxes)} boxes")
    pairs = list(zip(images, boxes))
    return fan_out(lambda i: run_pipeline(*pairs[i], replace(cfg, seed=cfg.seed ^ i)), len(pairs))

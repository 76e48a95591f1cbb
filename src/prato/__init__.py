"""Prompt-driven adaptive token pruning for vision-transformer token sequences.

Given an image and a box prompt, the library scores every token's
relevance to the prompted region (region pooling, entropy-weighted
similarity) and prunes the low-relevance tokens, reporting retained
counts, token sparsity, and modeled FLOPs savings.
"""

from .errors import (
    ConfigurationError,
    DegeneratePromptError,
    EmptyRetentionError,
    PratoError,
    RangeError,
    ShapeError,
    UndefinedMetricError,
    ValidationError,
)
from .numerics import layer_norm, logistic, make_rng, softmax_rows
from .tokens import EmbedderWeights, TokenGrid, embed_tokens, make_embedder, patchify, tokenize_image
from .encoder import BlockWeights, attention_map, encode_block, encode_tokens, init_block_weights
from .roi import BoxPrompt, GridBox, RegionFeature, map_box_to_grid, roi_align
from .prune import (
    Projections,
    PrunedTokens,
    RelevanceBundle,
    ThresholdPolicy,
    apply_mask,
    build_mask,
    compute_entropy,
    compute_similarity,
    inverse_entropy_weights,
    make_projections,
    relevance_scores,
    scatter_tokens,
)
from .pipeline import (
    CostReport,
    EncodedPrefix,
    PipelineConfig,
    PromptPerturbation,
    encode_prefix,
    estimate_flops,
    perturb_prompt,
    prato_score,
    run_pipeline,
)
from .metrics import (
    ce_loss,
    combo_loss,
    dice_loss,
    dsc_metric,
    hd95_metric,
    iou_metric,
    loss_gradient,
)
from .synth import Scene, SweepSpec, generate_scene, run_sweep, tight_box

__version__ = "0.1.0"

"""Synthetic scenes with known targets, and the sweep harness over them.

Scenes are single-channel: a noisy dark background with one
bright target shape (ellipse, rectangle, or a blob built from
overlapping ellipses). The ground-truth mask marks target pixels and
the tight box is the exact bounding box of that mask, so every scene
comes with a prompt whose quality is known by construction.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ValidationError
from .numerics import as_int, make_rng, open_new, parse_float, parse_int, parse_list, parse_record
from .pipeline import (
    PipelineConfig,
    PromptPerturbation,
    box_iou,
    config_from_dict,
    encode_prefix,
    perturb_prompt,
    run_pipeline,
    token_in_box_mask,
)
from .prune import ThresholdPolicy
from .roi import BoxPrompt, map_box_to_grid, save_box
from .tokens import save_image

TARGET_KINDS = ("ellipse", "rectangle", "blob")
# below 15 px the widest blob draw leaves no room for its margin; one 4096^2 plane is 128 MiB
SCENE_SIZE_MIN, SCENE_SIZE_MAX = 16, 4096
# rows a sweep holds until it writes them, about 670 B each (sys.getsizeof): about 67 MB at the bound
MAX_SWEEP_ROWS = 100_000


@dataclass
class Scene:
    image: np.ndarray  # (C, H, W) in [0, 1]
    truth: np.ndarray  # (H, W) int, 1 marks the target
    tight_box: BoxPrompt
    target_kind: str
    seed: int


def tight_box(truth) -> BoxPrompt:
    """Exact bounding box of the foreground, pixel-edge convention.

    x1 = col_min / W and x2 = (col_max + 1) / W, so the box spans the
    outer edges of the extreme foreground pixels; same for rows.
    """
    truth = np.asarray(truth)
    ys, xs = np.nonzero(truth)
    if ys.size == 0:
        raise ValidationError("truth mask has no foreground pixels")
    h, w = truth.shape
    return BoxPrompt(
        x1=xs.min() / w,
        y1=ys.min() / h,
        x2=(xs.max() + 1) / w,
        y2=(ys.max() + 1) / h,
    )


def _ellipse_mask(h, w, cy, cx, ry, rx) -> np.ndarray:
    yy, xx = np.ogrid[0:h, 0:w]
    return ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0


def _target_mask(kind: str, h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    area = rng.uniform(0.05, 0.2) * h * w
    aspect = rng.uniform(0.6, 1.6)
    if kind == "ellipse":
        rx = np.sqrt(area * aspect / np.pi)
        ry = rx / aspect
        cx = rng.uniform(rx + 1, w - rx - 1)
        cy = rng.uniform(ry + 1, h - ry - 1)
        return _ellipse_mask(h, w, cy, cx, ry, rx)
    if kind == "rectangle":
        bw = np.sqrt(area * aspect)
        bh = bw / aspect
        x0 = rng.uniform(1, w - bw - 1)
        y0 = rng.uniform(1, h - bh - 1)
        yy, xx = np.ogrid[0:h, 0:w]
        return (xx >= x0) & (xx < x0 + bw) & (yy >= y0) & (yy < y0 + bh)
    rx = np.sqrt(0.6 * area * aspect / np.pi)  # a blob: generate_scene has checked the kind
    ry = rx / aspect
    margin = 1.7 * max(rx, ry) + 1
    cx = rng.uniform(margin, w - margin)
    cy = rng.uniform(margin, h - margin)
    mask = _ellipse_mask(h, w, cy, cx, ry, rx)
    for _ in range(2):
        angle = rng.uniform(0, 2 * np.pi)
        sx = cx + 0.8 * rx * np.cos(angle)
        sy = cy + 0.8 * ry * np.sin(angle)
        sr = 0.5 * min(rx, ry)
        mask |= _ellipse_mask(h, w, sy, sx, sr, sr)
    return mask


def _check_scene(kind: str, size: int) -> None:
    if kind not in TARGET_KINDS:
        raise ConfigurationError(f"unknown target kind {kind!r}")
    if not SCENE_SIZE_MIN <= size <= SCENE_SIZE_MAX:
        raise ConfigurationError(f"scene size {size} must lie in [{SCENE_SIZE_MIN}, {SCENE_SIZE_MAX}]")


def generate_scene(kind: str, size: int, seed: int) -> Scene:
    """Deterministic textured scene with one bright target and its tight box."""
    h = w = as_int(size, "size")
    _check_scene(kind, h)
    rng = make_rng(seed)
    truth = _target_mask(kind, h, w, rng).astype(np.int64)
    background = 0.05 + 0.3 * rng.random((1, h, w))
    foreground = 0.75 + 0.2 * rng.random((1, h, w))
    image = np.where(truth[None, :, :] == 1, foreground, background)
    return Scene(image=image, truth=truth, tight_box=tight_box(truth),
                 target_kind=kind, seed=seed)


def save_scene(scene: Scene, out_dir, index: int) -> dict:
    """Write image, truth, and box files; returns the manifest entry."""
    os.makedirs(out_dir, exist_ok=True)
    stem = f"scene_{index:04d}"
    image_path = os.path.join(out_dir, stem + ".prti")
    truth_path = os.path.join(out_dir, stem + "_truth.csv")
    box_path = os.path.join(out_dir, stem + "_box.json")
    save_image(image_path, scene.image)
    with open_new(truth_path) as f:
        np.savetxt(f, scene.truth, fmt="%d", delimiter=",")
    save_box(box_path, scene.tight_box)
    return {
        "index": index,
        "seed": scene.seed,
        "target_kind": scene.target_kind,
        "image": os.path.basename(image_path),
        "truth": os.path.basename(truth_path),
        "box": os.path.basename(box_path),
    }


@dataclass
class SweepSpec:
    policies: list  # ThresholdPolicy
    k_values: list
    perturbations: list  # PromptPerturbation
    seeds: int
    size: int = 128
    target_kind: str = "ellipse"
    base_seed: int = 0
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        if not self.policies or not self.k_values or not self.perturbations:
            raise ConfigurationError("sweep lists must be non-empty")
        self.seeds = as_int(self.seeds, "seeds", 1)
        self.base_seed = as_int(self.base_seed, "base_seed", 0)
        self.size = as_int(self.size, "size")
        for k in self.k_values:  # kept as given; a k below 1 is an error row of its cells
            as_int(k, "k_values")
        rows = len(self.policies) * len(self.k_values) * len(self.perturbations) * self.seeds
        if rows > MAX_SWEEP_ROWS:
            raise ConfigurationError(f"sweep has {rows} rows (cells x seeds), more than {MAX_SWEEP_ROWS}")
        _check_scene(self.target_kind, self.size)


def _policy(d) -> ThresholdPolicy:
    fields = parse_record(d, "policy", {"mode": lambda v, key: v, "value": parse_float},
                          required=("mode", "value"))
    return ThresholdPolicy(**fields)


def _perturbation(d) -> PromptPerturbation:
    fields = parse_record(d, "perturbation", {"kind": lambda v, key: v, "magnitude": parse_float},
                          required=("kind",))
    default = 0.0 if fields["kind"] in ("tight", "misleading") else 0.5
    return PromptPerturbation(fields["kind"], fields.get("magnitude", default))


# sweep-spec fields and their parsers (value, key); the four lists and seeds are required
_SPEC_FIELDS = {
    "policies": lambda v, key: [_policy(p) for p in parse_list(v, key)],
    "k_values": lambda v, key: [parse_int(k, key) for k in parse_list(v, key)],
    "perturbations": lambda v, key: [_perturbation(p) for p in parse_list(v, key)],
    **dict.fromkeys(("seeds", "size", "base_seed"), parse_int),
    "target_kind": lambda v, key: v,
    "pipeline": lambda v, key: config_from_dict(v),
}


def sweep_spec_from_dict(d: dict) -> SweepSpec:
    fields = parse_record(d, "sweep spec", _SPEC_FIELDS,
                          required=("policies", "k_values", "perturbations", "seeds"))
    return SweepSpec(**fields)


CSV_COLUMNS = [
    "policy_mode", "policy_value", "k", "perturbation", "magnitude", "seed",
    "Z", "retained_final", "token_sparsity", "flops_full", "flops_pruned",
    "flops_reduction", "in_box_density", "out_box_density",
    "original_box_density", "box_iou_with_tight", "error",
]


def _cell_row(cell, box: BoxPrompt, prefix, base: PipelineConfig, scene: Scene, in_box) -> dict:
    """A cell's CSV row of values: its run on ``prefix`` under ``base`` with the cell's policy and
    k, or the error of that run or of the prefix; ``in_box`` masks a box. The densities are the
    shares of retained tokens inside the box, outside it and inside the tight box."""
    policy, k, pert = cell
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(policy_mode=policy.mode, policy_value=policy.value, k=k,
               perturbation=pert.kind, magnitude=pert.magnitude, seed=base.seed)
    try:
        if isinstance(prefix, Exception):
            raise prefix
        cfg = replace(base, policy=policy, roi_k=k)  # a k below 1 fails here
        pruned, _, report = run_pipeline(scene.image, box, cfg, prefix=prefix, stop_at_last_stage=True)
        used, tight = in_box(box), in_box(scene.tight_box)
        kept = np.zeros_like(used)
        kept[np.ravel_multi_index(pruned.retained_coords.T, (pruned.grid_h, pruned.grid_w))] = True
        for name, tokens in (("in_box", used), ("out_box", ~used), ("original_box", tight)):
            row[name + "_density"] = float(kept[tokens].mean()) if tokens.any() else 0.0
        row.update((key, value) for key, value in report.to_dict().items() if key in row)
        row.update(retained_final=pruned.retained_count, box_iou_with_tight=box_iou(box, scene.tight_box))
    except Exception as exc:  # record and continue
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(spec: SweepSpec, out_dir) -> dict:
    """Run every (policy, k, perturbation, seed) cell; write CSV and a JSON summary.

    Output is deterministic: rerunning the same spec reproduces the CSV
    byte for byte. Failures of individual cells are recorded in the
    ``error`` column and the sweep continues. Each scene seed's scene,
    weights and encoded prefix are computed once, and so are each
    perturbation's box and each box's in-box tokens. Each cell is one
    :func:`run_pipeline` call on the prefix that runs no block after the
    last stage, since a row reads no token value. The loop runs a seed's
    cells region by region, (perturbation, k), so the prefix scores each
    region once for all its policies, and memory holds one cell's result
    at a time. A prefix failure is recorded in every cell of that seed.
    Rows are written policy, then k, then perturbation, then seed; each
    float as Python's shortest round-trip text.
    """
    os.makedirs(out_dir, exist_ok=True)
    shape = len(spec.policies), len(spec.k_values), len(spec.perturbations), spec.seeds
    rows = np.empty(shape, dtype=object)  # each row at its (policy, k, perturbation, seed) index
    grid = spec.size // spec.pipeline.patch_size  # positive wherever a prefix encodes
    for s in range(spec.seeds):
        base = replace(spec.pipeline, seed=spec.base_seed ^ s)
        scene = generate_scene(spec.target_kind, spec.size, base.seed)
        try:
            prefix = encode_prefix(scene.image, base)
        except Exception as exc:  # recorded in every cell of this seed
            prefix = exc
        in_box = functools.cache(lambda bx: token_in_box_mask(grid, grid, map_box_to_grid(bx, grid, grid)))
        for c, pert in enumerate(spec.perturbations):
            # every cell reseeds the rng, so its box depends on its perturbation alone
            box = perturb_prompt(scene.tight_box, pert, make_rng(base.seed ^ 0x5EED))
            for b, k in enumerate(spec.k_values):
                for a, policy in enumerate(spec.policies):
                    rows[a, b, c, s] = _cell_row((policy, k, pert), box, prefix, base, scene, in_box)
    rows = list(rows.flat)

    csv_path = os.path.join(out_dir, "sweep.csv")
    with open_new(csv_path, newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    summary = _summarize(rows)
    summary_path = os.path.join(out_dir, "summary.json")
    with open_new(summary_path) as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return summary


_MEAN_COLUMNS = ("token_sparsity", "flops_reduction", "in_box_density", "out_box_density",
                 "original_box_density")


def _summarize(rows) -> dict:
    cells: dict = {}
    for row in rows:
        if not row["error"]:
            key = f"{row['policy_mode']}={row['policy_value']}|k={row['k']}|{row['perturbation']}"
            cells.setdefault(key, []).append(row)
    out = {"cells": {}, "total_rows": len(rows),
           "failed_rows": sum(1 for r in rows if r["error"])}
    for key, group in sorted(cells.items()):
        out["cells"][key] = {"runs": len(group), **{
            "mean_" + name: float(np.mean([r[name] for r in group])) for name in _MEAN_COLUMNS}}
    return out

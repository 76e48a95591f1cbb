"""Synthetic scenes with known targets, and the sweep harness over them.

Scenes are single-channel by default: a noisy dark background with one
bright target shape (ellipse, rectangle, or a blob built from
overlapping ellipses). The ground-truth mask marks target pixels and
the tight box is the exact bounding box of that mask, so every scene
comes with a prompt whose quality is known by construction.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ValidationError
from .numerics import make_rng
from .pipeline import (
    PipelineConfig,
    PromptPerturbation,
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
AREA_BOUNDS = (0.02, 0.4)


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
    yy, xx = np.mgrid[0:h, 0:w]
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
        yy, xx = np.mgrid[0:h, 0:w]
        return (xx >= x0) & (xx < x0 + bw) & (yy >= y0) & (yy < y0 + bh)
    if kind == "blob":
        rx = np.sqrt(0.6 * area * aspect / np.pi)
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
    raise ConfigurationError(f"unknown target kind {kind!r}")


def generate_scene(kind: str, size: int, seed: int, channels: int = 1) -> Scene:
    """Deterministic textured scene with one bright target and its tight box."""
    if kind not in TARGET_KINDS:
        raise ConfigurationError(f"unknown target kind {kind!r}")
    rng = make_rng(seed)
    h = w = int(size)
    truth = _target_mask(kind, h, w, rng).astype(np.int64)
    background = 0.05 + 0.3 * rng.random((channels, h, w))
    foreground = 0.75 + 0.2 * rng.random((channels, h, w))
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
    np.savetxt(truth_path, scene.truth, fmt="%d", delimiter=",")
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
        if self.seeds < 1:
            raise ConfigurationError("sweep needs at least one seed")
        if self.base_seed < 0:
            raise ConfigurationError(f"base seed must be >= 0, got {self.base_seed}")


def sweep_spec_from_dict(d: dict) -> SweepSpec:
    policies = [ThresholdPolicy(p["mode"], float(p["value"])) for p in d["policies"]]
    perts = [
        PromptPerturbation(p["kind"], float(p.get("magnitude", _default_magnitude(p["kind"]))))
        for p in d["perturbations"]
    ]
    pipeline = config_from_dict(d.get("pipeline", {}))
    return SweepSpec(
        policies=policies,
        k_values=[int(k) for k in d["k_values"]],
        perturbations=perts,
        seeds=int(d["seeds"]),
        size=int(d.get("size", 128)),
        target_kind=str(d.get("target_kind", "ellipse")),
        base_seed=int(d.get("base_seed", 0)),
        pipeline=pipeline,
    )


def _default_magnitude(kind: str) -> float:
    return 0.0 if kind in ("tight", "misleading") else 0.5


CSV_COLUMNS = [
    "policy_mode", "policy_value", "k", "perturbation", "magnitude", "seed",
    "Z", "retained_final", "token_sparsity", "flops_full", "flops_pruned",
    "flops_reduction", "in_box_density", "out_box_density",
    "original_box_density", "box_iou_with_tight", "error",
]


def _retention_densities(pruned, used_box: BoxPrompt, original_box: BoxPrompt):
    """Fraction of tokens retained inside/outside the used box and inside the tight box."""
    gh, gw = pruned.grid_h, pruned.grid_w
    retained = np.zeros(gh * gw, dtype=bool)
    flat = pruned.retained_coords[:, 0] * gw + pruned.retained_coords[:, 1]
    retained[flat] = True

    def _density(box):
        inside = token_in_box_mask(gh, gw, map_box_to_grid(box, gh, gw))
        if not inside.any():
            return 0.0
        return float(retained[inside].mean())

    in_used = _density(used_box)
    outside = ~token_in_box_mask(gh, gw, map_box_to_grid(used_box, gh, gw))
    out_used = float(retained[outside].mean()) if outside.any() else 0.0
    return in_used, out_used, _density(original_box)


def run_sweep(spec: SweepSpec, out_dir) -> dict:
    """Run every (policy, k, perturbation, seed) cell; write CSV and a JSON summary.

    Output is deterministic: rerunning the same spec reproduces the CSV
    byte for byte. Failures of individual cells are recorded in the
    ``error`` column and the sweep continues. Each scene seed's scene,
    weights and encoded prefix are computed once and shared by all its
    cells; a prefix failure is recorded in every cell of that seed.
    Rows are written policy, then k, then perturbation, then seed.
    """
    os.makedirs(out_dir, exist_ok=True)
    from .pipeline import box_iou  # local import to keep module deps one-way

    cells = list(itertools.product(spec.policies, spec.k_values, spec.perturbations))
    rows = [[None] * spec.seeds for _ in cells]
    for s in range(spec.seeds):
        scene_seed = spec.base_seed ^ s
        scene = generate_scene(spec.target_kind, spec.size, scene_seed)
        prefix, prefix_error = None, ""
        try:
            prefix = encode_prefix(scene.image, replace(spec.pipeline, seed=scene_seed))
        except Exception as exc:  # recorded in every cell of this seed
            prefix_error = f"{type(exc).__name__}: {exc}"
        for i, (policy, k, pert) in enumerate(cells):
            cfg = replace(spec.pipeline, policy=policy, roi_k=int(k), seed=scene_seed)
            pert_rng = make_rng(scene_seed ^ 0x5EED)
            box = perturb_prompt(scene.tight_box, pert, pert_rng)
            row = {
                "policy_mode": policy.mode,
                "policy_value": repr(policy.value),
                "k": k,
                "perturbation": pert.kind,
                "magnitude": repr(pert.magnitude),
                "seed": scene_seed,
                "error": "",
            }
            error = prefix_error
            if not error:
                try:
                    pruned, _, report = run_pipeline(scene.image, box, cfg, prefix=prefix)
                    in_d, out_d, orig_d = _retention_densities(pruned, box, scene.tight_box)
                    row.update({
                        "Z": report.tokens_full,
                        "retained_final": pruned.retained_count,
                        "token_sparsity": repr(report.token_sparsity),
                        "flops_full": report.flops_full,
                        "flops_pruned": report.flops_pruned,
                        "flops_reduction": repr(report.flops_reduction),
                        "in_box_density": repr(in_d),
                        "out_box_density": repr(out_d),
                        "original_box_density": repr(orig_d),
                        "box_iou_with_tight": repr(box_iou(box, scene.tight_box)),
                    })
                except Exception as exc:  # record and continue
                    error = f"{type(exc).__name__}: {exc}"
            if error:
                row.update({c: "" for c in CSV_COLUMNS if c not in row})
                row["error"] = error
            rows[i][s] = row
    rows = [row for per_seed in rows for row in per_seed]

    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

    summary = _summarize(rows)
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return summary


def _summarize(rows) -> dict:
    cells: dict = {}
    for row in rows:
        if row["error"]:
            continue
        key = f"{row['policy_mode']}={row['policy_value']}|k={row['k']}|{row['perturbation']}"
        cells.setdefault(key, []).append(row)
    out = {"cells": {}, "total_rows": len(rows),
           "failed_rows": sum(1 for r in rows if r["error"])}
    for key, group in sorted(cells.items()):
        out["cells"][key] = {
            "runs": len(group),
            "mean_token_sparsity": float(np.mean([float(r["token_sparsity"]) for r in group])),
            "mean_flops_reduction": float(np.mean([float(r["flops_reduction"]) for r in group])),
            "mean_in_box_density": float(np.mean([float(r["in_box_density"]) for r in group])),
            "mean_out_box_density": float(np.mean([float(r["out_box_density"]) for r in group])),
            "mean_original_box_density": float(
                np.mean([float(r["original_box_density"]) for r in group])
            ),
        }
    return out

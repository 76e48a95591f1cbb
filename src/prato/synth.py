"""Synthetic scenes with known targets, and the sweep harness over them.

Scenes are single-channel: a noisy dark background with one
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
from .numerics import make_rng, open_new, parse_float, parse_int
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
AREA_BOUNDS = (0.02, 0.4)
# below 15 px the widest blob draw leaves no room for its margin; one 4096^2 plane is 128 MiB
SCENE_SIZE_MIN, SCENE_SIZE_MAX = 16, 4096


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


def generate_scene(kind: str, size: int, seed: int) -> Scene:
    """Deterministic textured scene with one bright target and its tight box."""
    if kind not in TARGET_KINDS:
        raise ConfigurationError(f"unknown target kind {kind!r}")
    h = w = int(size)
    if not SCENE_SIZE_MIN <= h <= SCENE_SIZE_MAX:
        raise ConfigurationError(f"scene size {h} must lie in [{SCENE_SIZE_MIN}, {SCENE_SIZE_MAX}]")
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
        if self.seeds < 1:
            raise ConfigurationError("sweep needs at least one seed")
        if self.base_seed < 0:
            raise ConfigurationError(f"base seed must be >= 0, got {self.base_seed}")


_SPEC_REQUIRED = ("policies", "k_values", "perturbations", "seeds")
_SPEC_OPTIONAL = ("size", "target_kind", "base_seed", "pipeline")


def sweep_spec_from_dict(d: dict) -> SweepSpec:
    if not isinstance(d, dict):
        raise ConfigurationError(f"sweep spec must be a JSON object, got {type(d).__name__}")
    missing = [k for k in _SPEC_REQUIRED if k not in d]
    if missing:
        raise ConfigurationError(f"sweep spec is missing keys: {', '.join(missing)}")
    unknown = sorted(set(d) - set(_SPEC_REQUIRED) - set(_SPEC_OPTIONAL))
    if unknown:
        raise ConfigurationError(f"unknown sweep spec keys: {', '.join(unknown)}")
    try:
        policies = [ThresholdPolicy(p["mode"], parse_float(p["value"], "value")) for p in d["policies"]]
        perts = [
            PromptPerturbation(p["kind"], parse_float(p.get("magnitude", _default_magnitude(p["kind"])),
                                                      "magnitude"))
            for p in d["perturbations"]
        ]
        scalars = dict(k_values=[parse_int(k, "k_values") for k in d["k_values"]],
                       seeds=parse_int(d["seeds"], "seeds"), size=parse_int(d.get("size", 128), "size"),
                       base_seed=parse_int(d.get("base_seed", 0), "base_seed"),
                       target_kind=str(d.get("target_kind", "ellipse")))
    except KeyError as exc:
        raise ConfigurationError(f"sweep spec record is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad sweep spec value: {exc}") from None
    return SweepSpec(policies=policies, perturbations=perts,
                     pipeline=config_from_dict(d.get("pipeline", {})), **scalars)


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

    def density(tokens):
        return float(retained[tokens].mean()) if tokens.any() else 0.0

    used = token_in_box_mask(gh, gw, map_box_to_grid(used_box, gh, gw))
    return (density(used), density(~used),
            density(token_in_box_mask(gh, gw, map_box_to_grid(original_box, gh, gw))))


SWEEP_CELLS = 8  # cells per run_pipeline call: stacks of up to 8 sets, 8 cells in memory at once


def _cell_row(cell, box: BoxPrompt, result, scene: Scene, seed: int) -> dict:
    """A cell's CSV row from its (tokens, bundles, report), or the exception it raised."""
    policy, k, pert = cell
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(policy_mode=policy.mode, policy_value=repr(policy.value), k=k,
               perturbation=pert.kind, magnitude=repr(pert.magnitude), seed=seed)
    try:
        if isinstance(result, Exception):
            raise result
        pruned, _, report = result
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
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(spec: SweepSpec, out_dir) -> dict:
    """Run every (policy, k, perturbation, seed) cell; write CSV and a JSON summary.

    Output is deterministic: rerunning the same spec reproduces the CSV
    byte for byte. Failures of individual cells are recorded in the
    ``error`` column and the sweep continues. Each scene seed's scene,
    weights and encoded prefix are computed once; its cells then run
    ``SWEEP_CELLS`` at a time as list-form :func:`run_pipeline` calls, which
    run the cells with the same live token count through each block
    together. A prefix failure is recorded in every cell of that seed.
    Rows are written policy, then k, then perturbation, then seed.
    """
    os.makedirs(out_dir, exist_ok=True)
    cells = list(itertools.product(spec.policies, spec.k_values, spec.perturbations))
    rows = [[None] * spec.seeds for _ in cells]
    for s in range(spec.seeds):
        scene_seed = spec.base_seed ^ s
        scene = generate_scene(spec.target_kind, spec.size, scene_seed)
        try:
            prefix = encode_prefix(scene.image, replace(spec.pipeline, seed=scene_seed))
        except Exception as exc:  # recorded in every cell of this seed
            prefix = exc
        boxes = [perturb_prompt(scene.tight_box, pert, make_rng(scene_seed ^ 0x5EED))
                 for _, _, pert in cells]
        results = {}  # cell index: the prefix error, or its config (or error), then its result
        for i, (policy, k, _) in enumerate(cells):
            try:  # a bad k fails here, in the cell's own config
                results[i] = prefix if isinstance(prefix, Exception) else replace(
                    spec.pipeline, policy=policy, roi_k=int(k), seed=scene_seed)
            except Exception as exc:
                results[i] = exc
        for start in range(0, len(cells), SWEEP_CELLS):
            chunk = range(start, min(start + SWEEP_CELLS, len(cells)))
            ok = [i for i in chunk if isinstance(results[i], PipelineConfig)]
            if ok:
                results.update(zip(ok, run_pipeline(scene.image, [boxes[i] for i in ok],
                                                    [results[i] for i in ok], prefix=prefix)))
            for i in chunk:  # a row drops its cell's tokens and bundles
                rows[i][s] = _cell_row(cells[i], boxes[i], results.pop(i), scene, scene_seed)
    rows = [row for per_seed in rows for row in per_seed]

    csv_path = os.path.join(out_dir, "sweep.csv")
    with open_new(csv_path, newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

    summary = _summarize(rows)
    summary_path = os.path.join(out_dir, "summary.json")
    with open_new(summary_path) as f:
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

"""Segmentation losses (with analytic gradients) and quality metrics.

Predictions are (H, W, N) probability maps summing to 1 per pixel;
ground truth is an (H, W) integer label mask. Hard metrics (overlap
scores and the 95th-percentile boundary distance) take two label
masks. Empty-vs-empty classes score 1.0 on the overlap metrics; the
boundary distance is undefined on empty regions and raises instead of
returning a misleading 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, UndefinedMetricError, ValidationError

PRED_FLOOR = 1e-12
DICE_EPS = 1e-5  # smoothing of each class's dice term (2I + eps) / (T + eps)


def _check_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    # Loss functions tolerate slightly off-simplex inputs so finite-difference
    # probes of single entries remain evaluable.
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 3:
        raise ShapeError(f"prediction must be (H, W, N), got {pred.shape}")
    if not np.all(np.isfinite(pred)) or pred.min() < -1e-5 or pred.max() > 1 + 1e-5:
        raise ValidationError("prediction entries must lie in [0, 1]")
    truth = np.asarray(truth)
    if truth.shape != pred.shape[:2]:
        raise ShapeError(f"truth shape {truth.shape} does not match prediction {pred.shape[:2]}")
    n = pred.shape[2]
    if truth.min() < 0 or truth.max() >= n:
        raise ValidationError(f"label values must lie in [0, {n})")
    return pred, truth.astype(np.int64)


def one_hot(truth: np.ndarray, n_classes: int) -> np.ndarray:
    return np.eye(n_classes)[truth]


def dice_loss(pred, truth) -> float:
    """Soft multi-class overlap loss, N minus the summed smoothed dice terms."""
    pred, truth = _check_pair(pred, truth)
    n = pred.shape[2]
    y = one_hot(truth, n)
    inter = (pred * y).sum(axis=(0, 1))
    total = (pred + y).sum(axis=(0, 1))
    terms = (2.0 * inter + DICE_EPS) / (total + DICE_EPS)
    return float(n - terms.sum())


def ce_loss(pred, truth) -> float:
    """Mean categorical cross-entropy over pixels, natural log, floored predictions."""
    pred, truth = _check_pair(pred, truth)
    clamped = np.clip(pred, PRED_FLOOR, 1.0)
    h, w, n = pred.shape
    y = one_hot(truth, n)
    return float(-(y * np.log(clamped)).sum() / (h * w))


def combo_loss(pred, truth) -> float:
    return dice_loss(pred, truth) + ce_loss(pred, truth)


def loss_gradient(pred, truth) -> np.ndarray:
    """Analytic d(combo)/d(pred) per pixel per class; pred must be interior."""
    pred, truth = _check_pair(pred, truth)
    if np.any(pred <= 0.0) or np.any(pred >= 1.0):
        raise ValidationError("gradient requires probabilities strictly inside (0, 1)")
    h, w, n = pred.shape
    y = one_hot(truth, n)
    inter = (pred * y).sum(axis=(0, 1))  # per class
    total = (pred + y).sum(axis=(0, 1))
    # dice term (2I+eps)/(T+eps): d/dp = (2y(T+eps) - (2I+eps)) / (T+eps)^2
    denom = (total + DICE_EPS) ** 2
    d_dice_term = (2.0 * y * (total + DICE_EPS) - (2.0 * inter + DICE_EPS)) / denom
    grad_dice = -d_dice_term
    grad_ce = -y / (pred * h * w)
    return grad_dice + grad_ce


def confusion_counts(pred_hard, truth, cls: int) -> tuple[int, int, int]:
    pred_hard = np.asarray(pred_hard)
    truth = np.asarray(truth)
    if pred_hard.shape != truth.shape:
        raise ShapeError(f"mask shapes {pred_hard.shape} and {truth.shape} differ")
    p = pred_hard == cls
    t = truth == cls
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    return tp, fp, fn


def dsc_metric(pred_hard, truth, cls: int) -> float:
    """Overlap score 2TP / (2TP + FP + FN); both-empty counts as 1.0."""
    tp, fp, fn = confusion_counts(pred_hard, truth, cls)
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def iou_metric(pred_hard, truth, cls: int) -> float:
    """Overlap score TP / (TP + FP + FN); both-empty counts as 1.0."""
    tp, fp, fn = confusion_counts(pred_hard, truth, cls)
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    return tp / (tp + fp + fn)


def _directed_distances(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    from scipy.spatial import cKDTree  # here, so `import prato` skips scipy.spatial (~40 ms)
    tree = cKDTree(dst)
    d, _ = tree.query(src, k=1)
    return np.asarray(d, dtype=np.float64)


def hd95_metric(pred_hard, truth, cls: int) -> float:
    """Boundary distance between the two class regions, in pixels.

    The 95th percentile, linear interpolation, of the pooled directed
    point-to-set distances in both directions.
    """
    pred_hard = np.asarray(pred_hard)
    truth = np.asarray(truth)
    if pred_hard.shape != truth.shape:
        raise ShapeError(f"mask shapes {pred_hard.shape} and {truth.shape} differ")
    a = np.argwhere(pred_hard == cls).astype(np.float64)
    b = np.argwhere(truth == cls).astype(np.float64)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise UndefinedMetricError(f"class {cls} region is empty; boundary distance undefined")
    d_ab = _directed_distances(a, b)
    d_ba = _directed_distances(b, a)
    return float(np.percentile(np.concatenate([d_ab, d_ba]), 95))


def metrics_report(pred_hard, truth, classes) -> list[dict]:
    """Per-class rows: {"class", "dsc", "iou", "hd95"}; hd95 is None when undefined."""
    rows = []
    for cls in classes:
        try:
            hd = hd95_metric(pred_hard, truth, cls)
        except UndefinedMetricError:
            hd = None
        rows.append({
            "class": int(cls),
            "dsc": dsc_metric(pred_hard, truth, cls),
            "iou": iou_metric(pred_hard, truth, cls),
            "hd95": hd,
        })
    return rows


def aggregate_report(rows) -> dict:
    """Mean DSC/IoU over all rows; mean hd95 over the defined entries only."""
    dscs = [r["dsc"] for r in rows]
    ious = [r["iou"] for r in rows]
    hds = [r["hd95"] for r in rows if r["hd95"] is not None]
    return {
        "mdsc": float(np.mean(dscs)) if dscs else None,
        "miou": float(np.mean(ious)) if ious else None,
        "mhd95": float(np.mean(hds)) if hds else None,
    }

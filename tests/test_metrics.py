"""Loss and metric tests: analytic values, summation oracles, distance oracles."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import prato
from prato.errors import ShapeError, UndefinedMetricError, ValidationError
from prato.metrics import (
    DICE_EPS,
    aggregate_report,
    ce_loss,
    combo_loss,
    dice_loss,
    dsc_metric,
    hd95_metric,
    iou_metric,
    loss_gradient,
    metrics_report,
)
from prato.numerics import make_rng


def softmax_pred(rng, h, w, n, scale=1.0):
    logits = rng.normal(scale=scale, size=(h, w, n))
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def one_hot_pred(truth, n):
    return np.eye(n)[np.asarray(truth)]


class TestDiceLoss:
    def test_perfect_prediction(self):
        truth = make_rng(0).integers(0, 3, size=(10, 10))
        pred = one_hot_pred(truth, 3)
        assert dice_loss(pred, truth) < 1e-4

    def test_uniform_binary_against_summation_oracle(self):
        h = w = 10
        truth = np.zeros((h, w), dtype=int)
        truth[:, : w // 2] = 1  # balanced
        pred = np.full((h, w, 2), 0.5)
        eps = DICE_EPS
        v = h * w
        got = dice_loss(pred, truth)
        # direct summation per class
        want = 2.0
        for cls in range(2):
            inter = sum(0.5 for i in range(h) for j in range(w) if truth[i, j] == cls)
            total = 0.5 * v + v / 2
            want -= (2 * inter + eps) / (total + eps)
        assert abs(got - want) < 1e-12

    def test_disjoint_hard_prediction(self):
        truth = np.zeros((8, 8), dtype=int)
        pred = one_hot_pred(np.ones((8, 8), dtype=int), 2)
        loss = dice_loss(pred, truth)
        assert abs(loss - 2.0) < 1e-3

    def test_range(self):
        rng = make_rng(1)
        truth = rng.integers(0, 3, size=(6, 6))
        pred = softmax_pred(rng, 6, 6, 3)
        assert 0.0 <= dice_loss(pred, truth) <= 3.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dice_loss(np.full((4, 4, 2), 0.5), np.zeros((5, 4), dtype=int))


class TestCeLoss:
    def test_perfect_prediction(self):
        truth = make_rng(2).integers(0, 4, size=(6, 6))
        assert ce_loss(one_hot_pred(truth, 4), truth) == 0.0

    def test_uniform_prediction(self):
        for n in (2, 3, 5):
            truth = make_rng(3).integers(0, n, size=(8, 8))
            pred = np.full((8, 8, n), 1.0 / n)
            assert abs(ce_loss(pred, truth) - math.log(n)) < 1e-12

    def test_double_loop_oracle(self):
        rng = make_rng(4)
        truth = rng.integers(0, 3, size=(5, 7))
        pred = softmax_pred(rng, 5, 7, 3)
        want = 0.0
        for i in range(5):
            for j in range(7):
                want -= math.log(max(pred[i, j, truth[i, j]], 1e-12))
        want /= 35
        assert abs(ce_loss(pred, truth) - want) < 1e-12


class TestComboLoss:
    def test_is_sum_of_components(self):
        rng = make_rng(5)
        truth = rng.integers(0, 3, size=(6, 6))
        pred = softmax_pred(rng, 6, 6, 3)
        assert combo_loss(pred, truth) == dice_loss(pred, truth) + ce_loss(pred, truth)

    def test_perfect_prediction(self):
        truth = make_rng(6).integers(0, 2, size=(12, 12))
        assert combo_loss(one_hot_pred(truth, 2), truth) < 1e-4

    def test_non_negative(self):
        rng = make_rng(18)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            truth = rng.integers(0, n, size=(7, 7))
            pred = softmax_pred(rng, 7, 7, n, scale=3.0)
            assert dice_loss(pred, truth) >= 0.0
            assert ce_loss(pred, truth) >= 0.0
            assert combo_loss(pred, truth) >= 0.0


class TestLossGradient:
    def test_finite_difference_oracle(self):
        rng = make_rng(7)
        step = 1e-6
        for _ in range(12):
            truth = rng.integers(0, 3, size=(8, 8))
            pred = softmax_pred(rng, 8, 8, 3)
            grad = loss_gradient(pred, truth)
            for _ in range(6):
                i, j, c = rng.integers(8), rng.integers(8), rng.integers(3)
                up, dn = pred.copy(), pred.copy()
                up[i, j, c] += step
                dn[i, j, c] -= step
                fd = (combo_loss(up, truth) - combo_loss(dn, truth)) / (2 * step)
                assert abs(fd - grad[i, j, c]) < 1e-4 * max(1.0, abs(fd))

    def test_ce_gradient_at_uniform(self):
        n = 4
        truth = make_rng(8).integers(0, n, size=(6, 6))
        pred = np.full((6, 6, n), 1.0 / n)
        v = 36
        # CE part: -y / (V * p) = -y * N / V; dice part computed symbolically
        y = np.eye(n)[truth]
        eps = 1e-5
        inter = (pred * y).sum(axis=(0, 1))
        total = (pred + y).sum(axis=(0, 1))
        dice_part = -(2 * y * (total + eps) - (2 * inter + eps)) / (total + eps) ** 2
        want = dice_part + (-y * n / v)
        got = loss_gradient(pred, truth)
        assert np.abs(got - want).max() < 1e-12

    def test_dice_gradient_vanishes_in_absent_channel(self):
        # channel 2 has small predicted mass and no truth pixels: the dice
        # gradient there is eps/(B+eps)^2, zero up to smoothing effects
        h = w = 8
        truth = make_rng(9).integers(0, 2, size=(h, w))  # classes 0 and 1 only
        pred = np.full((h, w, 3), 0.01)
        pred[:, :, :2] = 0.495
        eps = DICE_EPS
        grad_total = loss_gradient(pred, truth)
        # CE contributes nothing in channel 2 (y == 0); isolate dice part
        b = pred[:, :, 2].sum()
        symbolic = eps / (b + eps) ** 2
        assert np.abs(grad_total[:, :, 2] - symbolic).max() < 1e-15
        assert abs(symbolic) < 10 * eps

    def test_boundary_probabilities_rejected(self):
        truth = np.zeros((2, 2), dtype=int)
        pred = one_hot_pred(truth, 2)
        with pytest.raises(ValidationError):
            loss_gradient(pred, truth)


class TestOverlapMetrics:
    def test_identical_masks(self):
        m = make_rng(10).integers(0, 3, size=(16, 16))
        for cls in range(3):
            assert dsc_metric(m, m, cls) == 1.0
            assert iou_metric(m, m, cls) == 1.0

    def test_disjoint_nonempty(self):
        a = np.zeros((4, 4), dtype=int)
        a[:2] = 1
        b = np.zeros((4, 4), dtype=int)
        b[2:] = 1
        assert dsc_metric(a, b, 1) == 0.0
        assert iou_metric(a, b, 1) == 0.0

    def test_half_coverage(self):
        truth = np.zeros((4, 4), dtype=int)
        truth[:, :2] = 1  # 8 pixels
        pred = np.zeros((4, 4), dtype=int)
        pred[:, 0] = 1  # covers half the truth, no false positives
        assert dsc_metric(pred, truth, 1) == pytest.approx(2 / 3)
        assert iou_metric(pred, truth, 1) == pytest.approx(1 / 2)

    def test_empty_empty_convention(self):
        z = np.zeros((4, 4), dtype=int)
        assert dsc_metric(z, z, 1) == 1.0
        assert iou_metric(z, z, 1) == 1.0

    def test_set_count_oracle(self):
        rng = make_rng(11)
        for _ in range(50):
            a = rng.integers(0, 2, size=(12, 12))
            b = rng.integers(0, 2, size=(12, 12))
            pa = {(i, j) for i, j in zip(*np.nonzero(a == 1))}
            pb = {(i, j) for i, j in zip(*np.nonzero(b == 1))}
            if pa or pb:
                want = len(pa & pb) / len(pa | pb)
                assert iou_metric(a, b, 1) == pytest.approx(want, abs=1e-12)

    def test_dsc_iou_identity(self):
        rng = make_rng(12)
        for _ in range(200):
            a = rng.integers(0, 2, size=(10, 10))
            b = rng.integers(0, 2, size=(10, 10))
            dsc = dsc_metric(a, b, 1)
            iou = iou_metric(a, b, 1)
            assert abs(dsc - 2 * iou / (1 + iou)) < 1e-12

    def test_symmetry(self):
        rng = make_rng(13)
        a = rng.integers(0, 2, size=(9, 9))
        b = rng.integers(0, 2, size=(9, 9))
        assert dsc_metric(a, b, 1) == dsc_metric(b, a, 1)
        assert iou_metric(a, b, 1) == iou_metric(b, a, 1)


def hd95_oracle(a_mask, b_mask, cls):
    """All-pairs distance matrix, pooled directed minima, 95th percentile."""
    a = np.argwhere(np.asarray(a_mask) == cls).astype(float)
    b = np.argwhere(np.asarray(b_mask) == cls).astype(float)
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    pooled = np.concatenate([d.min(axis=1), d.min(axis=0)])
    return float(np.percentile(pooled, 95))


class TestHd95:
    def test_identical_sets(self):
        m = np.zeros((8, 8), dtype=int)
        m[2:5, 3:6] = 1
        assert hd95_metric(m, m, 1) == 0.0

    def test_two_offset_pixels(self):
        a = np.zeros((10, 10), dtype=int)
        b = np.zeros((10, 10), dtype=int)
        a[0, 0] = 1
        b[3, 4] = 1
        assert hd95_metric(a, b, 1) == 5.0

    def test_all_pairs_oracle(self):
        rng = make_rng(14)
        for _ in range(30):
            a = (rng.random((32, 32)) < 0.2).astype(int)
            b = (rng.random((32, 32)) < 0.2).astype(int)
            if a.sum() == 0 or b.sum() == 0:
                continue
            assert abs(hd95_metric(a, b, 1) - hd95_oracle(a, b, 1)) < 1e-9

    def test_symmetric(self):
        rng = make_rng(15)
        a = (rng.random((16, 16)) < 0.3).astype(int)
        b = (rng.random((16, 16)) < 0.3).astype(int)
        assert hd95_metric(a, b, 1) == hd95_metric(b, a, 1)

    def test_empty_region_rejected(self):
        a = np.zeros((4, 4), dtype=int)
        b = np.ones((4, 4), dtype=int)
        with pytest.raises(UndefinedMetricError):
            hd95_metric(a, b, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", [dsc_metric, iou_metric, hd95_metric])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_masks_refused(metric, bad):
    truth = np.zeros((4, 4), dtype=int)
    truth[:2] = 1
    pred = truth.astype(np.float64)
    pred[3, 3] = bad  # counted as background, it would match the truth perfectly
    for a, b, name in ((pred, truth, "prediction"), (truth, pred, "truth")):
        with pytest.raises(ValidationError, match=f"^{name} mask contains non-finite entries$"):
            metric(a, b, 1)
    assert metric(truth.astype(np.float64), truth, 1) == metric(truth, truth, 1)


class TestReports:
    def test_report_rows_and_aggregation(self):
        rng = make_rng(17)
        truth = rng.integers(0, 3, size=(12, 12))
        pred = truth.copy()
        pred[rng.random((12, 12)) < 0.2] = 0
        rows = metrics_report(pred, truth, classes=range(3))
        assert [r["class"] for r in rows] == [0, 1, 2]
        agg = aggregate_report(rows)
        assert 0.0 <= agg["mdsc"] <= 1.0
        assert agg["miou"] <= agg["mdsc"]

    def test_undefined_hd95_becomes_null_and_skipped(self):
        truth = np.zeros((6, 6), dtype=int)
        pred = np.zeros((6, 6), dtype=int)
        rows = metrics_report(pred, truth, classes=[0, 1])
        assert rows[1]["hd95"] is None
        agg = aggregate_report(rows)
        assert agg["mhd95"] == 0.0  # only class 0 contributes


def test_import_prato_does_not_load_scipy_spatial():
    """hd95 imports cKDTree on first use, so no other path pays for scipy.spatial."""
    src = os.path.dirname(os.path.dirname(prato.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, prato; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"

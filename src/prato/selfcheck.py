"""Built-in oracle and property checks, runnable without a test harness.

Each check recomputes an expected result through an independent route
(brute-force loops, analytic values, recounts) and compares. The CLI
``check`` subcommand runs them all and exits nonzero on any failure.
"""

from __future__ import annotations

import math

import numpy as np

from . import encoder, numerics, prune, roi
from .pipeline import PipelineConfig, block_flop_terms, estimate_flops, run_pipeline
from .metrics import combo_loss, dsc_metric, iou_metric, loss_gradient
from .prune import ThresholdPolicy, build_mask, inverse_entropy_weights, retention_target
from .roi import GridBox
from .synth import generate_scene
from .tokens import TokenGrid


def check_softmax_rows(rng) -> bool:
    m = rng.normal(scale=500.0, size=(8, 16))
    s = numerics.softmax_rows(m)
    return bool(np.all(s >= 0) and np.abs(s.sum(axis=1) - 1).max() < 1e-12)


def check_entropy_analytic(rng) -> bool:
    ok = prune.entropy_rows([np.full(16, 1 / 16)])[0] == 4.0
    ok &= prune.entropy_rows([np.eye(8)[3]])[0] == 0.0
    ok &= abs(prune.entropy_rows([[0.5, 0.25, 0.25]])[0] - 1.5) < 1e-15
    p = rng.dirichlet(np.ones(64))
    ok &= abs(prune.entropy_rows([p])[0] - entropy_oracle(p)) < 1e-9
    return bool(ok)


def entropy_oracle(p) -> float:
    """Shannon entropy in bits of one probability row by direct summation; 0*log(0) is 0."""
    return -sum(v * math.log2(v) for v in p if v > 0)


def check_rank_uniformity(rng) -> bool:
    m = 25
    grid = np.arange(m) / (m - 1)
    for _ in range(50):
        w = inverse_entropy_weights(rng.normal(size=m))
        if not np.array_equal(np.sort(w), grid):
            return False
    return True


def check_concentrated_retention(rng) -> bool:
    eps = 1e-3
    for z in (16, 64):
        m = 9
        size_t = int(rng.integers(1, z // 4 + 1))
        members = rng.choice(z, size=size_t, replace=False)
        probs = np.full((m, z), eps / (z - size_t))
        for i in range(m):
            wts = rng.uniform(0.5, 1.5, size=size_t)
            probs[i, members] = (1 - eps) * wts / wts.sum()
        s = np.log(probs)
        weights = inverse_entropy_weights(prune.entropy_rows(numerics.softmax_rows(s)))
        mask, _ = build_mask(prune.relevance_scores(s, weights), ThresholdPolicy("percentile", 75.0))
        if not (np.all(mask[members] == 1) and size_t < z):
            return False
    return True


def check_roi_align(rng) -> bool:
    fmap = rng.random((8, 8, 4))
    grid = TokenGrid(tokens=fmap.reshape(64, 4), grid_h=8, grid_w=8)
    const = TokenGrid(tokens=np.full((64, 4), 0.7), grid_h=8, grid_w=8)
    out = roi.roi_align(const, GridBox(1.3, 2.1, 5.7, 6.2), k=5)
    if not np.all(out == 0.7):
        return False
    got = roi.roi_align(grid, GridBox(1.3, 2.1, 5.7, 6.2), k=5, sampling_ratio=2)
    want = roi_oracle(fmap, (1.3, 2.1, 5.7, 6.2), 5, 2)
    return np.abs(got - want).max() < 1e-9


def roi_oracle(fmap, box, k, n):
    """Brute-force region pooling of an (h, w, c) map: k x k bins, n x n samples per bin."""
    x1, y1, x2, y2 = box
    h, w, c = fmap.shape
    out = np.zeros((k * k, c))
    bw, bh = (x2 - x1) / k, (y2 - y1) / k
    for by in range(k):
        for bx in range(k):
            acc = np.zeros(c)
            for sy in range(n):
                for sx in range(n):
                    y = y1 + (by + (sy + 0.5) / n) * bh
                    x = x1 + (bx + (sx + 0.5) / n) * bw
                    acc += bilinear_oracle(fmap, y, x)
            out[by * k + bx] = acc / (n * n)
    return out


def bilinear_oracle(fmap, y, x):
    """Bilinear sample of an (h, w, c) map at one point, clamped at the border."""
    h, w, _ = fmap.shape
    fy, fx = y - 0.5, x - 0.5
    y0, x0 = math.floor(fy), math.floor(fx)
    wy, wx = min(max(fy - y0, 0.0), 1.0), min(max(fx - x0, 0.0), 1.0)
    y0c, y1c = min(max(y0, 0), h - 1), min(max(y0 + 1, 0), h - 1)
    x0c, x1c = min(max(x0, 0), w - 1), min(max(x0 + 1, 0), w - 1)
    top = fmap[y0c, x0c] * (1 - wx) + fmap[y0c, x1c] * wx
    bot = fmap[y1c, x0c] * (1 - wx) + fmap[y1c, x1c] * wx
    return top * (1 - wy) + bot * wy


def check_retention_counts(rng) -> bool:
    for z in (4, 17, 256, 1024):
        for q in (25, 35, 50, 55, 75):
            r = rng.normal(size=z)
            r[rng.random(z) < 0.3] = 0.0  # tie-heavy
            mask, _ = build_mask(r, ThresholdPolicy("percentile", float(q)))
            if int(mask.sum()) != retention_target(z, q):
                return False
    return True


def check_flops_recount(rng) -> bool:
    z, c, depth = 256, 64, 4
    counts = [256, 128, 128, 128]
    full, pruned = estimate_flops(z, c, depth, counts)
    want_full = depth * (6 * z * c * c + 4 * z * z * c + 2 * z * c * c + 16 * z * c * c)
    want_pruned = sum(6 * n * c * c + 4 * n * n * c + 2 * n * c * c + 16 * n * c * c for n in counts)
    half = block_flop_terms(128, c)["attention"]
    return full == want_full and pruned == want_pruned and half * 4 == block_flop_terms(256, c)["attention"]


def check_metric_identity(rng) -> bool:
    for _ in range(20):
        a = rng.integers(0, 2, size=(16, 16))
        b = rng.integers(0, 2, size=(16, 16))
        dsc = dsc_metric(a, b, 1)
        iou = iou_metric(a, b, 1)
        if abs(dsc - 2 * iou / (1 + iou)) > 1e-12:
            return False
    return True


def check_gradient_fd(rng) -> bool:
    h = w = 6
    n = 3
    logits = rng.normal(size=(h, w, n))
    pred = np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)
    truth = rng.integers(0, n, size=(h, w))
    grad = loss_gradient(pred, truth)
    step = 1e-6
    for _ in range(10):
        i, j, c = rng.integers(h), rng.integers(w), rng.integers(n)
        up, dn = pred.copy(), pred.copy()
        up[i, j, c] += step
        dn[i, j, c] -= step
        fd = (combo_loss(up, truth) - combo_loss(dn, truth)) / (2 * step)
        if abs(fd - grad[i, j, c]) > 1e-4 * max(1.0, abs(fd)):
            return False
    return True


def check_pipeline_determinism(rng) -> bool:
    scene = generate_scene("ellipse", 64, seed=7)
    cfg = PipelineConfig(depth=2, patch_size=16, seed=11)
    a = run_pipeline(scene.image, scene.tight_box, cfg)
    b = run_pipeline(scene.image, scene.tight_box, cfg)
    return (
        np.array_equal(a[0].tokens, b[0].tokens)
        and a[2].to_dict() == b[2].to_dict()
        and np.array_equal(a[1][0].mask, b[1][0].mask)
    )


def check_encoder_identity(rng) -> bool:
    x = rng.normal(size=(12, 64))
    w = encoder.init_block_weights(64, 4, std=0.0)
    return np.array_equal(encoder.encode_tokens(x, w), x)


def check_attention_rows(rng) -> bool:
    # two cores: heads {0, 2} and {1} (or {1, 3}), rows 0-149 and 150-300 (or 0-255 and 256-511);
    # OpenBLAS rounds products of 256 and 512 rows apart at width 52: a core-count layout fails
    saved = numerics._CORES
    ok = True
    try:
        for width, heads, n in ((48, 3, encoder.QUERY_BLOCK + 45), (52, 4, 2 * encoder.QUERY_BLOCK)):
            x = rng.normal(size=(n, width))
            w = encoder.init_block_weights(width, heads, seed=5)
            a = attention_oracle(numerics.layer_norm(x), w) @ w.wo
            ffn = lambda h: encoder.gelu(numerics.layer_norm(h) @ w.ffn_in) @ w.ffn_out
            for residual, want in (("block", ffn(a) + x), ("sublayer", ffn(x + a) + x + a)):
                got = []
                for numerics._CORES in (1, 2):
                    np.full(x.shape, np.nan)  # freed at once, so a skipped group or part reads NaN, not the last run
                    got.append(encoder.encode_tokens(x, w, residual))
                ok &= np.abs(got[0] - want).max() <= 1e-14 * np.abs(want).max()
                ok &= np.array_equal(got[0], got[1])
    finally:
        numerics._CORES = saved
    return bool(ok)


def attention_oracle(x, w):
    """Unblocked attention: softmax((q * 1/sqrt(d_h)) k^T) v per head, concatenated (before wo)."""
    scale = 1.0 / np.sqrt(x.shape[1] // w.heads)
    heads = [numerics.softmax_rows((x @ wq * scale) @ (x @ wk).T, v=x @ wv)
             for wq, wk, wv in zip(w.wq, w.wk, w.wv)]
    return np.concatenate(heads, axis=1)


CHECKS = [
    ("softmax rows normalize", check_softmax_rows),
    ("entropy analytic values", check_entropy_analytic),
    ("rank weights form a uniform grid", check_rank_uniformity),
    ("concentrated mass survives pruning", check_concentrated_retention),
    ("region pooling vs dense bilinear oracle", check_roi_align),
    ("percentile retention counts", check_retention_counts),
    ("flops recount", check_flops_recount),
    ("overlap metric identity", check_metric_identity),
    ("loss gradient vs finite differences", check_gradient_fd),
    ("pipeline determinism", check_pipeline_determinism),
    ("zero-weight block is the identity", check_encoder_identity),
    ("encoder block: blocked vs unblocked, pooled vs serial", check_attention_rows),
]


def run_all() -> bool:
    """Run every check in ``CHECKS`` and print one ``ok`` or ``FAIL`` line each; True if all pass."""
    rng = np.random.Generator(np.random.Philox(20240817))
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok = fn(rng)
        except Exception as exc:
            ok = False
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(("ok   " if ok else "FAIL ") + name)
        all_ok &= ok
    return all_ok

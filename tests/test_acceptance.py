"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Every tolerance is pinned here; nothing is calibrated at
run time. Each runtime budget counts the CPU time of this process, over all
its threads (``time.process_time``), so other load on the host does not
count against it.
"""

import time

import numpy as np

from prato.metrics import combo_loss, dsc_metric, hd95_metric, iou_metric, loss_gradient
from prato.numerics import make_rng, softmax_rows
from prato.pipeline import (
    PipelineConfig,
    PromptPerturbation,
    block_flop_terms,
    perturb_prompt,
    run_pipeline,
    token_in_box_mask,
)
from prato.prune import (
    ThresholdPolicy,
    build_mask,
    entropy_rows,
    inverse_entropy_weights,
    relevance_scores,
    retention_target,
)
from prato.roi import GridBox, map_box_to_grid, roi_align
from prato.selfcheck import entropy_oracle, roi_oracle
from prato.synth import SweepSpec, generate_scene, run_sweep
from prato.tokens import TokenGrid


def _report(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"{status} criterion {num}: {name}{extra} [{elapsed:.2f}s CPU / budget {budget}s]")
    assert ok, f"criterion {num} failed: {name} {extra}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget ({elapsed:.2f}s CPU)"


def test_criterion_01_token_reduction_claim():
    t0 = time.process_time()
    z = 256
    worst = 0.0
    for q in (35.0, 45.0, 55.0):
        for seed in range(100):
            scene = generate_scene("ellipse", 256, seed=seed)
            cfg = PipelineConfig(policy=ThresholdPolicy("percentile", q), seed=seed)
            _, _, report = run_pipeline(scene.image, scene.tight_box, cfg)
            assert report.tokens_full == z
            worst = max(worst, abs(report.token_sparsity - q / 100.0))
    elapsed = time.process_time() - t0
    _report(1, "token sparsity tracks percentile (q in 35/45/55, Z=256, 100 scenes)",
            worst <= 1.0 / z, elapsed, 30, f"max deviation {worst:.5f} <= {1 / z:.5f}")


def test_criterion_02_flops_model():
    t0 = time.process_time()
    scene = generate_scene("ellipse", 256, seed=0)
    cfg = PipelineConfig(policy=ThresholdPolicy("percentile", 50.0), seed=0)
    _, _, report = run_pipeline(scene.image, scene.tight_box, cfg)
    z, c = 256, 64
    kept = report.tokens_retained[0]
    assert kept == retention_target(z, 50.0)
    attn_full = block_flop_terms(z, c)["attention"]
    attn_pruned = block_flop_terms(kept, c)["attention"]
    ratio = attn_pruned / attn_full
    # independent recount of the whole pruned pass
    def one_block(n):
        return 3 * 2 * n * c * c + 2 * 2 * n * n * c + 2 * n * c * c + 16 * n * c * c
    counts = [z] * (cfg.stage_indices[0] + 1) + [kept] * (cfg.depth - cfg.stage_indices[0] - 1)
    recount_full = cfg.depth * one_block(z)
    recount_pruned = sum(one_block(n) for n in counts)
    ok = (
        abs(ratio - 0.25) < 1e-12
        and report.flops_pruned < report.flops_full
        and report.flops_full == recount_full
        and report.flops_pruned == recount_pruned
    )
    _report(2, "q=50 quarters the attention term and the recount matches",
            ok, time.process_time() - t0, 1, f"attention ratio {ratio}")


def test_criterion_03_rank_weight_uniformity():
    t0 = time.process_time()
    m = 25
    grid = np.arange(m) / (m - 1)
    rng = make_rng(303)
    ok = True
    sup_worst = 0.0
    for _ in range(1000):
        w = inverse_entropy_weights(rng.normal(size=m))
        ok &= np.array_equal(np.sort(w), grid)
        xs = np.sort(w)
        ecdf_hi = np.abs((np.arange(1, m + 1) / m) - xs).max()
        ecdf_lo = np.abs(xs - (np.arange(m) / m)).max()
        sup = max(ecdf_hi, ecdf_lo)
        sup_worst = max(sup_worst, sup)
        ok &= sup <= 1.0 / m + 1e-15
    _report(3, "sorted weights are bit-equal to the uniform grid (M=25, 1000 draws)",
            ok, time.process_time() - t0, 1, f"sup-norm CDF deviation {sup_worst:.4f} <= {1 / m}")


def test_criterion_04_concentrated_retention():
    t0 = time.process_time()
    rng = make_rng(404)
    eps, delta = 1e-3, 2
    zs = (16, 64, 256)
    violations = 0
    for trial in range(500):
        z = zs[trial % 3]
        m = 9
        cap = int(z * 2.0 ** (-delta))
        size_t = int(rng.integers(1, cap + 1))
        members = rng.choice(z, size=size_t, replace=False)
        probs = np.full((m, z), eps / (z - size_t))
        for i in range(m):
            wts = rng.uniform(0.5, 1.5, size=size_t)
            probs[i, members] = (1 - eps) * wts / wts.sum()
        assert size_t <= z * 2.0 ** (-delta)
        assert np.all(probs[:, members].sum(axis=1) >= 1 - eps - 1e-12)
        scores = np.log(probs)
        weights = inverse_entropy_weights(entropy_rows(softmax_rows(scores)))
        relevance = relevance_scores(scores, weights)
        mask, _ = build_mask(relevance, ThresholdPolicy("percentile", 75.0))
        assert int(mask.sum()) >= size_t  # policy retains at least |S_T| tokens
        if not (np.all(mask[members] == 1) and size_t < z):
            violations += 1
    _report(4, "designated concentrated token set survives pruning (500 trials)",
            violations == 0, time.process_time() - t0, 5, f"{violations} violations")


def test_criterion_05_entropy_oracle():
    t0 = time.process_time()
    rng = make_rng(505)
    z = 32
    probs = np.array([rng.dirichlet(np.full(z, 0.5)) for _ in range(10_000)])
    probs /= probs.sum(axis=1, keepdims=True)
    direct = np.array([entropy_oracle(p) for p in probs])
    worst = float(np.abs(entropy_rows(probs) - direct).max())
    exact = (
        entropy_rows([np.full(256, 1 / 256)])[0] == 8.0
        and entropy_rows([np.full(16, 1 / 16)])[0] == 4.0
        and entropy_rows([np.eye(32)[7]])[0] == 0.0
    )
    _report(5, "entropy matches direct summation on 10^4 distributions",
            worst < 1e-9 and exact, time.process_time() - t0, 1, f"max |diff| {worst:.2e}")


def test_criterion_06_roi_align_oracle():
    t0 = time.process_time()
    rng = make_rng(606)
    worst = 0.0
    for _ in range(500):
        h, w = int(rng.integers(4, 11)), int(rng.integers(4, 11))
        fmap = rng.random((h, w, 3))
        grid = TokenGrid(tokens=fmap.reshape(h * w, 3), grid_h=h, grid_w=w)
        x1, y1 = rng.uniform(0, w - 1), rng.uniform(0, h - 1)
        x2, y2 = rng.uniform(x1 + 0.2, w), rng.uniform(y1 + 0.2, h)
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        got = roi_align(grid, GridBox(x1, y1, x2, y2), k, n)
        want = roi_oracle(fmap, (x1, y1, x2, y2), k, n)
        worst = max(worst, float(np.abs(got - want).max()))
    const_ok = True
    const = TokenGrid(tokens=np.full((49, 2), 1.25), grid_h=7, grid_w=7)
    for _ in range(200):
        x1, y1 = rng.uniform(0, 6, size=2)
        box = GridBox(x1, y1, rng.uniform(x1 + 0.1, 7), rng.uniform(y1 + 0.1, 7))
        out = roi_align(const, box, int(rng.integers(1, 7)))
        const_ok &= bool(np.all(out == 1.25))
    _report(6, "region pooling matches the dense bilinear oracle (500 triples)",
            worst < 1e-9 and const_ok, time.process_time() - t0, 5, f"max |diff| {worst:.2e}")


def test_criterion_07_metric_oracles():
    t0 = time.process_time()
    rng = make_rng(707)
    ok = True
    worst_identity = 0.0
    for _ in range(1000):
        a = rng.integers(0, 2, size=(16, 16))
        b = rng.integers(0, 2, size=(16, 16))
        pa = {(i, j) for i, j in zip(*np.nonzero(a == 1))}
        pb = {(i, j) for i, j in zip(*np.nonzero(b == 1))}
        tp, fp, fn = len(pa & pb), len(pa - pb), len(pb - pa)
        dsc = dsc_metric(a, b, 1)
        iou = iou_metric(a, b, 1)
        if tp + fp + fn == 0:
            ok &= dsc == 1.0 and iou == 1.0
        else:
            ok &= dsc == 2 * tp / (2 * tp + fp + fn)
            ok &= iou == tp / (tp + fp + fn)
        worst_identity = max(worst_identity, abs(dsc - 2 * iou / (1 + iou)))
    ok &= worst_identity < 1e-12
    worst_hd = 0.0
    pairs = 0
    while pairs < 200:
        a = (rng.random((32, 32)) < 0.15).astype(int)
        b = (rng.random((32, 32)) < 0.15).astype(int)
        if a.sum() == 0 or b.sum() == 0:
            continue
        pairs += 1
        pa = np.argwhere(a == 1).astype(float)
        pb = np.argwhere(b == 1).astype(float)
        d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))
        pooled = np.concatenate([d.min(axis=1), d.min(axis=0)])
        want = float(np.percentile(pooled, 95))
        worst_hd = max(worst_hd, abs(hd95_metric(a, b, 1) - want))
    ok &= worst_hd < 1e-9
    _report(7, "overlap metrics match count oracles; boundary distance matches all-pairs",
            ok, time.process_time() - t0, 10,
            f"identity dev {worst_identity:.2e}, hd95 dev {worst_hd:.2e}")


def test_criterion_08_gradient_check():
    t0 = time.process_time()
    rng = make_rng(808)
    step = 1e-6
    worst = 0.0
    for _ in range(50):
        truth = rng.integers(0, 3, size=(8, 8))
        logits = rng.normal(size=(8, 8, 3))
        e = np.exp(logits - logits.max(axis=2, keepdims=True))
        pred = e / e.sum(axis=2, keepdims=True)
        grad = loss_gradient(pred, truth)
        fd = np.zeros_like(grad)
        for i in range(8):
            for j in range(8):
                for c in range(3):
                    up, dn = pred.copy(), pred.copy()
                    up[i, j, c] += step
                    dn[i, j, c] -= step
                    fd[i, j, c] = (combo_loss(up, truth) - combo_loss(dn, truth)) / (2 * step)
        rel = np.abs(fd - grad) / np.maximum(np.maximum(np.abs(fd), np.abs(grad)), 1e-8)
        worst = max(worst, float(rel.max()))
    _report(8, "analytic loss gradient matches central differences (50 instances)",
            worst < 1e-4, time.process_time() - t0, 5, f"max relative error {worst:.2e}")


def test_criterion_09_prompt_localization():
    t0 = time.process_time()
    n = 100
    relevance_wins = 0
    density_wins = 0
    for seed in range(n):
        scene = generate_scene("ellipse", 256, seed=seed)
        cfg = PipelineConfig(policy=ThresholdPolicy("percentile", 75.0), seed=seed)
        gh = gw = 16
        inb = token_in_box_mask(gh, gw, map_box_to_grid(scene.tight_box, gh, gw))

        pruned_t, bundles_t, _ = run_pipeline(scene.image, scene.tight_box, cfg)
        r = bundles_t[0].relevance
        if r[inb].mean() > r[~inb].mean():
            relevance_wins += 1

        def density(pruned):
            retained = np.zeros(gh * gw, dtype=bool)
            retained[pruned.retained_coords[:, 0] * gw + pruned.retained_coords[:, 1]] = True
            return retained[inb].mean()

        rng = make_rng(seed ^ 0x5EED)
        mis_box = perturb_prompt(scene.tight_box, PromptPerturbation("misleading"), rng)
        pruned_m, _, _ = run_pipeline(scene.image, mis_box, cfg)
        if density(pruned_m) < density(pruned_t):
            density_wins += 1
    ok = relevance_wins >= 90 and density_wins >= 90
    _report(9, "tight prompts localize relevance; misleading prompts degrade it",
            ok, time.process_time() - t0, 60,
            f"relevance {relevance_wins}/100, density drop {density_wins}/100")


def test_criterion_10_sweep_determinism(tmp_path):
    t0 = time.process_time()
    spec_args = dict(
        policies=[ThresholdPolicy("percentile", 25.0), ThresholdPolicy("percentile", 50.0)],
        k_values=[5],
        perturbations=[PromptPerturbation("tight"), PromptPerturbation("misleading")],
        seeds=5,
        size=128,
        target_kind="ellipse",
        base_seed=0,
        pipeline=PipelineConfig(depth=4, seed=0),
    )
    run_sweep(SweepSpec(**spec_args), tmp_path / "a")
    run_sweep(SweepSpec(**spec_args), tmp_path / "b")
    csv_a = (tmp_path / "a" / "sweep.csv").read_bytes()
    csv_b = (tmp_path / "b" / "sweep.csv").read_bytes()
    json_a = (tmp_path / "a" / "summary.json").read_bytes()
    json_b = (tmp_path / "b" / "summary.json").read_bytes()
    ok = csv_a == csv_b and json_a == json_b and len(csv_a) > 0
    _report(10, "repeated sweeps produce byte-identical reports",
            ok, time.process_time() - t0, 60, f"{len(csv_a)} CSV bytes")

"""Pipeline tests: cost model recounts, retention laws, perturbations, determinism."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from prato.errors import ConfigurationError, EmptyRetentionError
from prato.numerics import make_rng
from prato.pipeline import (
    PipelineConfig,
    PromptPerturbation,
    block_flop_terms,
    box_iou,
    build_pipeline_weights,
    config_from_dict,
    encode_prefix,
    estimate_flops,
    perturb_prompt,
    run_batch,
    run_pipeline,
    token_in_box_mask,
    write_batch_csv,
)
from prato.prune import ThresholdPolicy, scatter_tokens
from prato.roi import BoxPrompt, GridBox
from prato.synth import generate_scene


class TestFlopsModel:
    def test_no_pruning_equals_full(self):
        full, pruned = estimate_flops(64, 32, 3, [64, 64, 64])
        assert full == pruned

    def test_halving_scales_terms(self):
        c = 64
        whole = block_flop_terms(256, c)
        half = block_flop_terms(128, c)
        assert half["attention"] * 4 == whole["attention"]
        assert half["qkv"] * 2 == whole["qkv"]
        assert half["projection"] * 2 == whole["projection"]
        assert half["ffn"] * 2 == whole["ffn"]

    def test_manual_recount(self):
        # independent recount of the four term formulas, per block
        z, c, depth = 256, 64, 4
        counts = [256, 128, 128, 128]

        def one_block(n):
            qkv = 3 * (2 * n * c * c)
            attn = 2 * (2 * n * n * c)
            proj = 2 * n * c * c
            ffn = 2 * (2 * n * c * 4 * c)
            return qkv + attn + proj + ffn

        full, pruned = estimate_flops(z, c, depth, counts)
        assert full == depth * one_block(z)
        assert pruned == sum(one_block(n) for n in counts)

    def test_monotone_in_retained(self):
        prev = None
        for kept in (256, 192, 128, 64, 16):
            _, pruned = estimate_flops(256, 64, 4, [256, 256, kept, kept])
            if prev is not None:
                assert pruned < prev
            prev = pruned

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            estimate_flops(64, 32, 2, [65, 64])


def _mid_box():
    return BoxPrompt(0.25, 0.25, 0.75, 0.75)


class TestRunPipeline:
    def test_retain_all_zero_sparsity(self):
        scene = generate_scene("ellipse", 64, seed=0)
        cfg = PipelineConfig(depth=2, policy=ThresholdPolicy("fixed", 1e-6), seed=0)
        _, _, report = run_pipeline(scene.image, scene.tight_box, cfg)
        assert report.token_sparsity == 0.0
        assert report.flops_pruned == report.flops_full
        assert report.flops_reduction == 0.0

    def test_percentile_half_sparsity(self):
        scene = generate_scene("rectangle", 128, seed=1)
        cfg = PipelineConfig(depth=2, policy=ThresholdPolicy("percentile", 50.0), seed=1)
        _, _, report = run_pipeline(scene.image, scene.tight_box, cfg)
        z = report.tokens_full
        assert abs(report.token_sparsity - 0.5) <= 1.0 / z

    def test_two_stage_composition(self):
        scene = generate_scene("ellipse", 128, seed=2)
        z = 64
        cfg = PipelineConfig(
            depth=4, stage_indices=(1, 2), policy=ThresholdPolicy("percentile", 50.0),
            mask_mode="compact", seed=2,
        )
        pruned, bundles, report = run_pipeline(scene.image, scene.tight_box, cfg)
        first = math.ceil(z / 2)
        second = math.ceil(first / 2)
        assert report.tokens_retained == [first, second]
        assert pruned.retained_count == second
        assert len(bundles) == 2

    def test_determinism(self):
        scene = generate_scene("blob", 64, seed=3)
        cfg = PipelineConfig(depth=3, seed=9)
        a = run_pipeline(scene.image, scene.tight_box, cfg)
        b = run_pipeline(scene.image, scene.tight_box, cfg)
        assert np.array_equal(a[0].tokens, b[0].tokens)
        assert np.array_equal(a[0].retained_coords, b[0].retained_coords)
        assert a[2].to_dict() == b[2].to_dict()
        for ba, bb in zip(a[1], b[1]):
            assert np.array_equal(ba.mask, bb.mask)
            assert np.array_equal(ba.relevance, bb.relevance)

    def test_sparsity_tracks_percentile_across_sizes(self):
        for size, q in ((128, 35.0), (256, 50.0), (512, 55.0)):
            scene = generate_scene("ellipse", size, seed=4)
            cfg = PipelineConfig(depth=2, policy=ThresholdPolicy("percentile", q), seed=4)
            _, _, report = run_pipeline(scene.image, scene.tight_box, cfg)
            z = report.tokens_full
            assert z == (size // 16) ** 2
            assert abs(report.token_sparsity - q / 100.0) <= 1.0 / z

    def test_zero_compact_consistency_at_final_stage(self):
        # with the stage after the last block no encoder runs on the masked
        # set, so the two modes must agree exactly at retained positions
        scene = generate_scene("ellipse", 64, seed=5)
        base = dict(depth=2, stage_indices=(1,), seed=5,
                    policy=ThresholdPolicy("percentile", 50.0))
        compact, _, _ = run_pipeline(scene.image, scene.tight_box,
                                     PipelineConfig(mask_mode="compact", **base))
        zero, _, _ = run_pipeline(scene.image, scene.tight_box,
                                  PipelineConfig(mask_mode="zero", **base))
        assert np.array_equal(scatter_tokens(compact), zero.tokens)
        assert np.array_equal(compact.retained_coords, zero.retained_coords)

    def test_empty_retention_error_carries_stage(self):
        scene = generate_scene("ellipse", 64, seed=6)
        cfg = PipelineConfig(depth=2, stage_indices=(0,),
                             policy=ThresholdPolicy("fixed", 0.999999), seed=6)
        with pytest.raises(EmptyRetentionError) as exc:
            run_pipeline(scene.image, scene.tight_box, cfg)
        assert exc.value.stage == 0

    def test_indivisible_image(self):
        img = np.zeros((1, 60, 64))
        with pytest.raises(ConfigurationError):
            run_pipeline(img, _mid_box(), PipelineConfig())

    def test_cost_report_json_fields(self):
        scene = generate_scene("ellipse", 64, seed=7)
        _, _, report = run_pipeline(scene.image, scene.tight_box, PipelineConfig(depth=2, seed=7))
        d = report.to_dict()
        assert set(d) == {"Z", "retained", "token_sparsity", "flops_full",
                          "flops_pruned", "flops_reduction"}
        assert d["flops_pruned"] <= d["flops_full"]
        assert 0.0 <= d["token_sparsity"] <= 1.0


class TestPerturbations:
    def test_tight_identity(self):
        box = BoxPrompt(0.2, 0.3, 0.6, 0.7)
        assert perturb_prompt(box, PromptPerturbation("tight"), make_rng(0)) == box

    def test_oversized_zero_magnitude_identity(self):
        box = BoxPrompt(0.2, 0.3, 0.6, 0.7)
        out = perturb_prompt(box, PromptPerturbation("oversized", 0.0), make_rng(1))
        assert out == box

    def test_oversized_dilates_and_clamps(self):
        box = BoxPrompt(0.1, 0.1, 0.5, 0.9)
        out = perturb_prompt(box, PromptPerturbation("oversized", 0.5), make_rng(2))
        assert out.x1 == 0.0 and out.x2 == pytest.approx(0.7)
        assert out.y1 == 0.0 and out.y2 == 1.0

    def test_partial_area_fraction(self):
        box = BoxPrompt(0.2, 0.2, 0.8, 0.6)
        out = perturb_prompt(box, PromptPerturbation("partial", 0.5), make_rng(3))
        area = (box.x2 - box.x1) * (box.y2 - box.y1)
        out_area = (out.x2 - out.x1) * (out.y2 - out.y1)
        assert out_area == pytest.approx(0.5 * area)
        corners = {(box.x1, box.y1), (box.x2, box.y1), (box.x1, box.y2), (box.x2, box.y2)}
        out_corners = {(out.x1, out.y1), (out.x2, out.y1), (out.x1, out.y2), (out.x2, out.y2)}
        assert corners & out_corners  # anchored at an original corner

    def test_misleading_small_box_disjoint(self):
        box = BoxPrompt(0.4, 0.4, 0.5, 0.5)
        for seed in range(20):
            out = perturb_prompt(box, PromptPerturbation("misleading"), make_rng(seed))
            # independent overlap computation
            ix = max(0.0, min(box.x2, out.x2) - max(box.x1, out.x1))
            iy = max(0.0, min(box.y2, out.y2) - max(box.y1, out.y1))
            inter = ix * iy
            union = (box.x2 - box.x1) * (box.y2 - box.y1) \
                + (out.x2 - out.x1) * (out.y2 - out.y1) - inter
            assert inter / union == 0.0
            assert (out.x2 - out.x1) == pytest.approx(0.1)
            assert (out.y2 - out.y1) == pytest.approx(0.1)

    def test_misleading_huge_box_falls_back(self):
        box = BoxPrompt(0.05, 0.05, 0.95, 0.95)
        out = perturb_prompt(box, PromptPerturbation("misleading"), make_rng(4))
        assert (out.x2 - out.x1) == pytest.approx(0.9)
        assert box_iou(box, out) < 1.0

    def test_kind_validation(self):
        with pytest.raises(ConfigurationError):
            PromptPerturbation("sideways")
        with pytest.raises(ConfigurationError):
            PromptPerturbation("tight", 0.5)
        with pytest.raises(ConfigurationError):
            PromptPerturbation("partial", 0.0)


class TestHelpers:
    def test_box_iou_identity_and_disjoint(self):
        a = BoxPrompt(0.1, 0.1, 0.4, 0.4)
        assert box_iou(a, a) == 1.0
        b = BoxPrompt(0.6, 0.6, 0.9, 0.9)
        assert box_iou(a, b) == 0.0

    def test_token_in_box_full_grid(self):
        mask = token_in_box_mask(4, 4, GridBox(0, 0, 4, 4))
        assert mask.all()

    def test_token_in_box_quadrant(self):
        mask = token_in_box_mask(4, 4, GridBox(0, 0, 2, 2))
        assert mask.sum() == 4
        assert mask.reshape(4, 4)[:2, :2].all()

    def test_config_roundtrip(self):
        cfg = PipelineConfig(depth=6, stage_indices=(2, 4),
                             policy=ThresholdPolicy("fixed", 0.3), mask_mode="zero")
        again = config_from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(depth=2, stage_indices=(5,))
        with pytest.raises(ConfigurationError):
            PipelineConfig(mask_mode="sideways")
        with pytest.raises(ConfigurationError):
            PipelineConfig(seed=-1)

    def test_default_stage_is_middle_block(self):
        assert PipelineConfig(depth=4).stage_indices == (1,)
        assert PipelineConfig(depth=1).stage_indices == (0,)

    def test_config_from_dict_default_stage_tracks_depth(self):
        cfg = config_from_dict({"depth": 2})
        assert cfg.stage_indices == (0,)
        cfg6 = config_from_dict({"depth": 6})
        assert cfg6.stage_indices == (2,)

    def test_run_batch_and_csv(self, tmp_path):
        scenes = [generate_scene("ellipse", 64, seed=s) for s in range(3)]
        cfg = PipelineConfig(depth=2, seed=5)
        results = run_batch([s.image for s in scenes], [s.tight_box for s in scenes], cfg)
        assert len(results) == 3
        path = tmp_path / "batch.csv"
        write_batch_csv([r[2] for r in results], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("index,Z,retained")


def _assert_same_run(a, b):
    (pa, bundles_a, ra), (pb, bundles_b, rb) = a, b
    assert np.array_equal(pa.tokens, pb.tokens)
    assert np.array_equal(pa.retained_coords, pb.retained_coords)
    assert ra == rb
    assert len(bundles_a) == len(bundles_b)
    for ba, bb in zip(bundles_a, bundles_b):
        for f in fields(ba):
            assert np.array_equal(getattr(ba, f.name), getattr(bb, f.name)), f.name


class TestPrefixReuse:
    @pytest.mark.parametrize("stages", [(0,), (1,), (0, 1, 2), (3,)])
    @pytest.mark.parametrize("mask_mode", ["compact", "zero"])
    @pytest.mark.parametrize("residual", ["block", "sublayer"])
    def test_reused_prefix_is_bit_identical(self, stages, mask_mode, residual):
        scene = generate_scene("ellipse", 128, seed=11)
        base = PipelineConfig(depth=4, stage_indices=stages, residual=residual, seed=11)
        # encoded under the default policy, k and mask mode: none of them is in the key
        prefix = encode_prefix(scene.image, base)
        boxes = [scene.tight_box,
                 perturb_prompt(scene.tight_box, PromptPerturbation("oversized", 0.5), make_rng(1))]
        policies = [ThresholdPolicy("percentile", 25.0), ThresholdPolicy("percentile", 60.0),
                    ThresholdPolicy("fixed", 0.5)]
        for box in boxes:
            for policy in policies:
                for k in (3, 5):
                    cfg = replace(base, mask_mode=mask_mode, policy=policy, roi_k=k)
                    fresh = run_pipeline(scene.image, box, cfg)
                    reused = run_pipeline(scene.image, box, cfg, prefix=prefix)
                    _assert_same_run(fresh, reused)

    def test_prefix_tokens_are_read_only(self):
        scene = generate_scene("ellipse", 64, seed=0)
        prefix = encode_prefix(scene.image, PipelineConfig(depth=2, seed=0))
        with pytest.raises(ValueError):
            prefix.tokens[0, 0] = 1.0

    @pytest.mark.parametrize("change", [
        dict(seed=1), dict(depth=5), dict(stage_indices=(2,)), dict(patch_size=8),
        dict(embed_dim=32), dict(heads=2), dict(d_v=32), dict(positional="learned"),
        dict(proj_tied=False), dict(residual="sublayer"), dict(ln_eps=1e-5),
    ])
    def test_prefix_under_other_key_rejected(self, change):
        scene = generate_scene("ellipse", 64, seed=0)
        cfg = PipelineConfig(depth=4, seed=0)
        prefix = encode_prefix(scene.image, cfg)
        with pytest.raises(ConfigurationError, match="different key"):
            run_pipeline(scene.image, scene.tight_box, replace(cfg, **change), prefix=prefix)

    @pytest.mark.parametrize("shape", [(1, 128, 64), (1, 64, 128), (3, 64, 64)])
    def test_prefix_of_other_image_shape_rejected(self, shape):
        cfg = PipelineConfig(depth=2, seed=0)
        prefix = encode_prefix(generate_scene("ellipse", 64, seed=0).image, cfg)
        with pytest.raises(ConfigurationError, match="image_shape"):
            run_pipeline(np.full(shape, 0.5), _mid_box(), cfg, prefix=prefix)

    def test_prefix_of_other_image_rejected(self):
        cfg = PipelineConfig(depth=2, seed=0)
        prefix = encode_prefix(generate_scene("ellipse", 64, seed=0).image, cfg)
        other = generate_scene("ellipse", 64, seed=1)
        with pytest.raises(ConfigurationError, match="different image"):
            run_pipeline(other.image, other.tight_box, cfg, prefix=prefix)

    def test_weights_and_prefix_together_rejected(self):
        scene = generate_scene("ellipse", 64, seed=0)
        cfg = PipelineConfig(depth=2, seed=0)
        prefix = encode_prefix(scene.image, cfg)
        with pytest.raises(ConfigurationError):
            run_pipeline(scene.image, scene.tight_box, cfg, prefix.weights, prefix=prefix)

    def test_prebuilt_weights_match_fresh_run(self):
        scene = generate_scene("blob", 64, seed=4)
        cfg = PipelineConfig(depth=3, seed=4)
        weights = build_pipeline_weights(cfg, 1, 4, 4)
        _assert_same_run(run_pipeline(scene.image, scene.tight_box, cfg),
                         run_pipeline(scene.image, scene.tight_box, cfg, weights))

    @pytest.mark.parametrize("built_with, grid", [
        (dict(depth=2), 4), (dict(embed_dim=32), 4), (dict(heads=2), 4),
        (dict(d_v=32), 4), (dict(patch_size=8), 4), ({}, 8),
    ])
    def test_weights_that_do_not_fit_rejected(self, built_with, grid):
        scene = generate_scene("ellipse", 64, seed=0)
        cfg = PipelineConfig(depth=4, seed=0)
        weights = build_pipeline_weights(replace(cfg, **built_with), 1, grid, grid)
        with pytest.raises(ConfigurationError, match="do not fit"):
            run_pipeline(scene.image, scene.tight_box, cfg, weights)

    def test_weights_for_other_channel_count_rejected(self):
        cfg = PipelineConfig(depth=2, seed=0)
        weights = build_pipeline_weights(cfg, 1, 4, 4)
        with pytest.raises(ConfigurationError, match="do not fit"):
            run_pipeline(np.full((3, 64, 64), 0.5), _mid_box(), cfg, weights)

"""Pipeline tests: cost model recounts, retention laws, perturbations, determinism."""

import math
import pickle
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prato import numerics, pipeline
from prato.errors import (
    ConfigurationError,
    DegeneratePromptError,
    EmptyRetentionError,
    PratoError,
    ShapeError,
    ValidationError,
)
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
    prato_score,
    run_batch,
    run_pipeline,
    token_in_box_mask,
)
from prato.prune import ThresholdPolicy, retention_target, scatter_tokens
from prato.roi import BoxPrompt, GridBox, map_box_to_grid
from prato.selfcheck import attention_oracle, entropy_oracle, roi_oracle
from prato.synth import generate_scene
from prato.encoder import encode_tokens
from prato.tokens import TokenGrid, load_plane_csv, row_major_index_map, tokenize_image


def _docstring_block_flops(n, c):
    """One block's FLOPs over n tokens of width c, recounted from the pipeline docstring."""
    qkv = 3 * (2 * n * c * c)
    attn = 2 * (2 * n * n * c)
    proj = 2 * n * c * c
    ffn = 2 * (2 * n * c * 4 * c)
    return qkv + attn + proj + ffn


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
        full, pruned = estimate_flops(z, c, depth, counts)
        assert full == depth * _docstring_block_flops(z, c)
        assert pruned == sum(_docstring_block_flops(n, c) for n in counts)

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

    @pytest.mark.parametrize("q", [25.0, 50.0])
    @pytest.mark.parametrize("stages", [(0,), (1,), (0, 1), (0, 1, 2), (1, 3), (3,)])
    def test_zero_is_scattered_compact(self, stages, q):
        # zero mode is only an output layout: the same run, scattered onto the grid
        scene = generate_scene("ellipse", 256, seed=3)
        base = dict(depth=4, stage_indices=stages, seed=3,
                    policy=ThresholdPolicy("percentile", q))
        compact, bundles_c, report_c = run_pipeline(scene.image, scene.tight_box,
                                                     PipelineConfig(mask_mode="compact", **base))
        zero, bundles_z, report_z = run_pipeline(scene.image, scene.tight_box,
                                                 PipelineConfig(mask_mode="zero", **base))
        assert zero.mode == "zero"
        assert np.array_equal(zero.tokens, scatter_tokens(compact))
        assert np.array_equal(zero.retained_coords, compact.retained_coords)
        assert report_z.to_dict() == report_c.to_dict()
        assert len(bundles_z) == len(bundles_c) == len(stages)
        for bz, bc in zip(bundles_z, bundles_c):
            assert np.array_equal(bz.mask, bc.mask)
            assert np.array_equal(bz.relevance, bc.relevance)

    def test_empty_retention_error_carries_stage(self):
        scene = generate_scene("ellipse", 64, seed=6)
        cfg = PipelineConfig(depth=2, stage_indices=(0,),
                             policy=ThresholdPolicy("fixed", 0.999999), seed=6)
        with pytest.raises(EmptyRetentionError, match="stage after block 0"):
            run_pipeline(scene.image, scene.tight_box, cfg)

    def test_indivisible_image(self):
        img = np.zeros((1, 60, 64))
        with pytest.raises(ConfigurationError):
            run_pipeline(img, _mid_box(), PipelineConfig())

    @pytest.mark.parametrize("shape", [(0, 16, 16), (1, 0, 16), (1, 16, 0)])
    def test_image_with_a_zero_size_rejected(self, shape):
        img, cfg = np.zeros(shape), PipelineConfig(depth=2)
        with pytest.raises(ShapeError, match="no size 0"):
            encode_prefix(img, cfg)
        with pytest.raises(ShapeError, match="no size 0"):
            run_pipeline(img, _mid_box(), cfg)

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

    @pytest.mark.parametrize("magnitude", [-0.5, math.inf, math.nan])
    def test_magnitude_must_be_finite_and_non_negative(self, magnitude):
        with pytest.raises(ConfigurationError) as info:
            PromptPerturbation("oversized", magnitude)
        assert str(info.value) == (f"perturbation magnitude {magnitude} must be finite and >= 0"
                                   if magnitude < 0 else
                                   f"perturbation magnitude must be a finite number, got {magnitude}")

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

    @pytest.mark.parametrize("bad", [
        dict(patch_size=0), dict(embed_dim=0), dict(heads=0), dict(d_v=0), dict(roi_k=0),
        dict(sampling_ratio=0), dict(heads=3), dict(stage_indices=()), dict(residual="fused"),
        dict(positional="rotary"), dict(ln_eps=0.0), dict(ln_eps=-1e-6), dict(ln_eps=math.nan),
        dict(ln_eps=math.inf),
        dict(proj_tied="false"), dict(proj_tied=1), dict(proj_tied=0), dict(proj_tied=1.0),
        dict(roi_k=129, sampling_ratio=1), dict(roi_k=65), dict(sampling_ratio=26),
    ], ids=repr)
    def test_config_rejects_bad_field(self, bad):
        with pytest.raises(ConfigurationError):
            PipelineConfig(**bad)

    def test_config_bounds_the_region_lattice(self):
        assert PipelineConfig(roi_k=64, sampling_ratio=2).roi_k == 64  # 128 samples a side
        assert PipelineConfig(roi_k=1, sampling_ratio=128).sampling_ratio == 128

    def test_config_from_dict_reads_every_prefix_key_field(self):
        cfg = config_from_dict({"ln_eps": 1e-5, "proj_tied": False})
        assert (cfg.ln_eps, cfg.proj_tied) == (1e-5, False)
        assert config_from_dict({}) == PipelineConfig()

    @pytest.mark.parametrize("d, match", [
        ({"tau_vlaue": 30}, "tau_vlaue"),
        ({"depth": 2, "zz": 1, "aa": 2}, "aa, zz"),
        ({"depth": "four"}, "bad config value"),
        ({"stage_indices": 1}, "bad config value"),
        ({"proj_tied": "false"}, "proj_tied"),
        ({"proj_tied": 1}, r"proj_tied must be one of \(True, False\), got 1"),
        ({"sampling_ratio": 4000}, r"roi_k \* sampling_ratio must be <= 128, got 5 \* 4000"),
        ({"heads": 0}, "heads"),
        ([{"depth": 2}], "config must be a JSON object, got list"),
        ({"patch_size": 16.9}, "patch_size must be an integer, got 16.9"),
        ({"depth": True}, "depth must be an integer, got True"),
        ({"seed": "3"}, "seed must be an integer, got '3'"),
        ({"stage_indices": [1.6]}, "stage_indices must be an integer, got 1.6"),
        ({"ln_eps": True}, "ln_eps must be a finite number, got True"),
        ({"ln_eps": "1e-3"}, "ln_eps must be a finite number, got '1e-3'"),
        ({"ln_eps": math.inf}, "ln_eps must be a finite number, got inf"),
        ({"ln_eps": 10**400}, "ln_eps must be a finite number"),
        ({"tau_value": True}, "tau_value must be a finite number, got True"),
        ({"tau_value": math.nan}, "tau_value must be a finite number, got nan"),
    ])
    def test_config_from_dict_rejects(self, d, match):
        with pytest.raises(ConfigurationError, match=match):
            config_from_dict(d)

    def test_config_from_dict_takes_whole_floats(self):
        cfg = config_from_dict({"depth": 2.0, "patch_size": 8, "stage_indices": [1.0]})
        assert (cfg.depth, cfg.patch_size, cfg.stage_indices) == (2, 8, (1,))
        assert type(cfg.depth) is int and type(cfg.stage_indices[0]) is int

    def test_config_to_dict_keys_unchanged(self):
        # the benchmark's goldens store these keys
        assert list(PipelineConfig().to_dict()) == [
            "depth", "stage_indices", "patch_size", "embed_dim", "heads", "roi_k", "d_v",
            "tau_mode", "tau_value", "mask_mode", "sampling_ratio", "seed", "residual",
            "positional",
        ]

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
        boxes = [s.tight_box for s in scenes]
        results = run_batch([s.image for s in scenes], boxes, cfg)
        assert len(results) == 3
        for i, (scene, (pruned, _, report)) in enumerate(zip(scenes, results)):
            alone = run_pipeline(scene.image, scene.tight_box, replace(cfg, seed=5 ^ i))
            assert np.array_equal(pruned.tokens, alone[0].tokens) and report == alone[2]
        # CSV planes written with 17 significant digits load back to the same batch
        paths = [tmp_path / f"plane{i}.csv" for i in range(3)]
        for path, scene in zip(paths, scenes):
            np.savetxt(path, scene.image[0], fmt="%.17g", delimiter=",")
        from_csv = run_batch([load_plane_csv(p) for p in paths], boxes, cfg)
        assert [r[2] for r in from_csv] == [r[2] for r in results]

    def test_run_batch_image_equals_its_lone_run_at_width_52(self, monkeypatch):
        # Z = 144, then 108: a lone run deals its tail parts to two cores, an image runs them
        # inline in its group; at width 52 OpenBLAS rounds products of some row counts apart
        monkeypatch.setattr(numerics, "_CORES", 2)
        scenes = [generate_scene("ellipse", 192, seed=s) for s in range(3)]
        cfg = PipelineConfig(depth=2, embed_dim=52, seed=5)
        results = run_batch([s.image for s in scenes], [s.tight_box for s in scenes], cfg)
        for i, (scene, got) in enumerate(zip(scenes, results)):
            _assert_same_run(got, run_pipeline(scene.image, scene.tight_box, replace(cfg, seed=5 ^ i)))

    @pytest.mark.parametrize("n_images, n_boxes", [(3, 2), (2, 3)])
    def test_run_batch_rejects_unpaired_images_before_any_runs(self, monkeypatch, n_images,
                                                              n_boxes):
        scenes = [generate_scene("ellipse", 64, seed=s) for s in range(3)]
        calls = []
        monkeypatch.setattr(pipeline, "run_pipeline", lambda *args: calls.append(args))
        with pytest.raises(ShapeError, match=f"{n_images} images do not pair with {n_boxes} boxes"):
            run_batch([s.image for s in scenes[:n_images]], [s.tight_box for s in scenes[:n_boxes]],
                      PipelineConfig(depth=2))
        assert calls == []

    @pytest.mark.parametrize("cores", [1, 2])
    def test_run_batch_raises_the_first_failing_image(self, monkeypatch, cores):
        scenes = [generate_scene("ellipse", 64, seed=s) for s in range(4)]
        images = [s.image for s in scenes]
        images[1] = np.full_like(images[1], np.nan)  # ValidationError, on the pool at G = 2
        images[2] = generate_scene("ellipse", 72, seed=2).image  # ConfigurationError, caller
        log, real = [], pipeline.run_pipeline

        def spy(img, box, cfg):
            log.append(("start", cfg.seed))
            try:
                if cfg.seed == 1:
                    time.sleep(0.05)  # image 1 fails after image 2 did
                return real(img, box, cfg)
            finally:
                log.append(("end", cfg.seed))

        monkeypatch.setattr(pipeline, "run_pipeline", spy)
        monkeypatch.setattr(numerics, "_CORES", cores)
        with pytest.raises(ValidationError, match="non-finite"):
            run_batch(images, [s.tight_box for s in scenes], PipelineConfig(depth=2, seed=0))
        started = sorted(i for event, i in log if event == "start")
        # a loop stops at image 1; the other group (images 0, 2) also ran, and no call is in flight
        assert started == ([0, 1] if cores == 1 else [0, 1, 2])
        assert sorted(i for event, i in log if event == "end") == started

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_run_batch_of_pooled_blocks_matches_one_group(self, monkeypatch, in_child):
        # n = 1024 > QUERY_BLOCK: each image's head fan-outs nest inside the batch's
        scenes = [generate_scene(kind, 512, seed=s) for s, kind in enumerate(("ellipse", "blob"))]
        args = ([s.image for s in scenes], [s.tight_box for s in scenes], PipelineConfig(seed=3))
        monkeypatch.setattr(numerics, "_CORES", 1)
        want = run_batch(*args)
        monkeypatch.setattr(numerics, "_CORES", 2)

        def same():  # a nested fan-out that reached the one pool thread would wait on itself
            return all(np.array_equal(g[0].tokens, w[0].tokens) and g[2] == w[2]
                       and np.array_equal(g[0].retained_coords, w[0].retained_coords)
                       for g, w in zip(run_batch(*args), want))

        assert in_child(same)


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
        scene = generate_scene("ellipse", 64, seed=0)
        prefix = encode_prefix(scene.image, cfg)
        _assert_same_run(run_pipeline(scene.image.copy(), _mid_box(), cfg, prefix=prefix),
                         run_pipeline(scene.image, _mid_box(), cfg))  # an equal copy is accepted
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
        (dict(seed=1), 4), (dict(positional="learned"), 4), (dict(proj_tied=False), 4),
    ])
    def test_weights_that_do_not_fit_rejected(self, built_with, grid):
        scene = generate_scene("ellipse", 64, seed=0)
        cfg = PipelineConfig(depth=4, seed=0)
        weights = build_pipeline_weights(replace(cfg, **built_with), 1, grid, grid)
        with pytest.raises(ConfigurationError, match="do not fit"):
            run_pipeline(scene.image, scene.tight_box, cfg, weights)

    @pytest.mark.parametrize("cores", [2, 3])
    def test_weights_bitwise_equal_for_any_core_count(self, monkeypatch, cores):
        cfg = PipelineConfig(depth=4, seed=5)
        build = lambda _=None: pickle.dumps(build_pipeline_weights(cfg, 1, 4, 4))
        monkeypatch.setattr(numerics, "_CORES", 1)
        want = build()
        threads, draw = [], pipeline.init_block_weights

        def spy(*args, **kw):
            threads.append(threading.get_ident())
            return draw(*args, **kw)

        monkeypatch.setattr(pipeline, "init_block_weights", spy)
        monkeypatch.setattr(numerics, "_CORES", cores)
        assert build() == want and len(set(threads)) > 1  # the draws left the caller
        threads.clear()
        assert numerics.fan_out(build, 2) == [want, want]  # inline inside each group
        assert len(set(threads)) == 2 and len(threads) == 2 * cfg.depth

    def test_weights_for_other_channel_count_rejected(self):
        cfg = PipelineConfig(depth=2, seed=0)
        weights = build_pipeline_weights(cfg, 1, 4, 4)
        with pytest.raises(ConfigurationError, match="do not fit"):
            run_pipeline(np.full((3, 64, 64), 0.5), _mid_box(), cfg, weights)


@st.composite
def _small_runs(draw):
    """A small (image, box, config) triple; images not divisible by the patch size are kept."""
    depth, heads = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 4]))
    cfg = PipelineConfig(
        depth=depth,
        stage_indices=draw(st.sets(st.integers(0, depth - 1), min_size=1)),
        patch_size=draw(st.sampled_from([4, 8])),
        embed_dim=heads * draw(st.sampled_from([2, 4])),
        heads=heads,
        d_v=draw(st.integers(1, 8)),
        roi_k=draw(st.integers(1, 4)),
        sampling_ratio=draw(st.integers(1, 2)),
        policy=draw(st.one_of(
            st.builds(ThresholdPolicy, st.just("percentile"), st.floats(1.0, 99.0)),
            st.builds(ThresholdPolicy, st.just("fixed"), st.floats(0.05, 0.95)),
        )),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        residual=draw(st.sampled_from(["block", "sublayer"])),
        positional=draw(st.sampled_from(["sinusoidal", "learned", "none"])),
        proj_tied=draw(st.booleans()),
        mask_mode=draw(st.sampled_from(["compact", "zero"])),
    )
    shape = (draw(st.integers(1, 2)), 4 * draw(st.integers(1, 6)), 4 * draw(st.integers(1, 6)))
    img = make_rng(draw(st.integers(0, 2 ** 16))).random(shape)
    edges = st.lists(st.integers(0, 16), min_size=2, max_size=2, unique=True).map(sorted)
    (x1, x2), (y1, y2) = draw(edges), draw(edges)
    return img, BoxPrompt(x1 / 16, y1 / 16, x2 / 16, y2 / 16), cfg


class TestRunProperties:
    @settings(max_examples=100, deadline=None)
    @given(_small_runs())
    def test_run_raises_pratoerror_or_keeps_its_laws(self, case):
        img, box, cfg = case
        compact = replace(cfg, mask_mode="compact")
        c, h, w = img.shape
        p = cfg.patch_size
        runs = {
            "fresh": lambda: run_pipeline(img, box, compact),
            "again": lambda: run_pipeline(img, box, compact),
            "prefix": lambda: run_pipeline(img, box, compact, prefix=encode_prefix(img, compact)),
            "weights": lambda: run_pipeline(
                img, box, compact, build_pipeline_weights(compact, c, h // p, w // p)),
            "zero": lambda: run_pipeline(img, box, replace(cfg, mask_mode="zero")),
        }
        outcomes = {}
        for name, run in runs.items():
            try:
                outcomes[name] = run()
            except PratoError as exc:
                outcomes[name] = type(exc)
        fresh = outcomes.pop("fresh")
        if isinstance(fresh, type):
            assert all(outcome is fresh for outcome in outcomes.values()), outcomes
            return
        pruned, bundles, report = fresh
        live = report.tokens_full
        assert len(bundles) == len(report.tokens_retained) == len(cfg.stage_indices)
        for bundle, kept in zip(bundles, report.tokens_retained):
            assert bundle.mask.size == live and int(bundle.mask.sum()) == kept
            if cfg.policy.mode == "percentile":
                assert kept == retention_target(live, cfg.policy.value)
            live = kept
        assert pruned.retained_count == live
        for name in ("again", "prefix", "weights"):
            _assert_same_run(fresh, outcomes[name])
        scattered = replace(pruned, mode="zero", tokens=scatter_tokens(pruned))
        _assert_same_run(outcomes["zero"], (scattered, bundles, report))


def _plain_loop(img, box, cfg):
    """A run written as one loop over the blocks, gathering the kept rows after each stage;
    also the live token count entering each block, and the rows the last stage kept."""
    (c, h, w), p = img.shape, cfg.patch_size
    weights = build_pipeline_weights(cfg, c, h // p, w // p)
    tokens = tokenize_image(img, weights.embedder, p).tokens
    coords, bundles, live = row_major_index_map(h // p, w // p), [], []
    for b, block in enumerate(weights.blocks):
        live.append(len(tokens))
        tokens = encode_tokens(tokens, block, residual=cfg.residual, ln_eps=cfg.ln_eps)
        if b in cfg.stage_indices:
            grid = np.zeros((h // p * (w // p), tokens.shape[1]))
            grid[coords[:, 0] * (w // p) + coords[:, 1]] = tokens
            bundle = prato_score(TokenGrid(grid, h // p, w // p), box, weights.projections,
                                 cfg.roi_k, cfg.policy, cfg.sampling_ratio, tokens=tokens)
            keep = bundle.mask.astype(bool)
            tokens, coords = tokens[keep], coords[keep]
            bundles.append(bundle)
            staged = tokens
    return tokens, coords, bundles, live, staged


def _recount_report(z, width, live, bundles, retained) -> dict:
    """``CostReport.to_dict()`` recounted from the pipeline docstring's per-block formula."""
    full = len(live) * _docstring_block_flops(z, width)
    pruned = sum(_docstring_block_flops(n, width) for n in live)
    return {"Z": z, "retained": [int(bundle.mask.sum()) for bundle in bundles],
            "token_sparsity": 1.0 - retained / z, "flops_full": full, "flops_pruned": pruned,
            "flops_reduction": 1.0 - pruned / full}


# oracle loops sum in other orders than the library: compare within this share of the largest
# magnitude compared, or of 1 if that is smaller
_ORACLE_TOL = 1e-9


def _near(got, want) -> bool:
    return np.abs(got - want).max() <= _ORACLE_TOL * max(1.0, np.abs(want).max())


def _oracle_block(x, w, cfg):
    """One encoder block from ``attention_oracle`` and an explicit LN, GELU FFN and residual."""
    ln = lambda m: (m - m.mean(axis=1, keepdims=True)) / np.sqrt(m.var(axis=1, keepdims=True)
                                                                  + cfg.ln_eps)
    gelu = lambda m: 0.5 * m * (1 + np.vectorize(math.erf)(m / math.sqrt(2)))
    ffn = lambda h: gelu(ln(h) @ w.ffn_in) @ w.ffn_out
    a = attention_oracle(ln(x), w) @ w.wo
    return ffn(a) + x if cfg.residual == "block" else ffn(x + a) + x + a


def _oracle_scores(tokens, coords, box, cfg, proj, grid_h, grid_w):
    """(similarity, entropies, relevance) of the live tokens from ``roi_oracle`` over the
    zero-filled grid, ``entropy_oracle`` and entropy ranks by an explicit stable sort."""
    fmap = np.zeros((grid_h, grid_w, tokens.shape[1]))
    fmap[coords[:, 0], coords[:, 1]] = tokens
    gbox = (box.x1 * grid_w, box.y1 * grid_h, box.x2 * grid_w, box.y2 * grid_h)
    region = roi_oracle(fmap, gbox, cfg.roi_k, cfg.sampling_ratio)
    sim = (region @ proj.f1) @ (tokens @ proj.f2).T / math.sqrt(proj.d_v)
    e = np.exp(sim - sim.max(axis=1, keepdims=True))
    entropies = np.array([entropy_oracle(row / row.sum()) for row in e])
    m = len(entropies)
    weights = np.ones(m)
    for rank, i in enumerate(sorted(range(m), key=lambda i: (entropies[i], i))):
        weights[i] = (m - 1 - rank) / (m - 1) if m > 1 else 1.0
    return sim, entropies, (weights[:, None] * sim).mean(axis=0)


def _oracle_mask(relevance, policy):
    """The keep mask by the logistic test or an explicit stable sort, and whether a token lies
    within the tolerance of the cut, where rounding may decide it."""
    if policy.mode == "fixed":
        p = 1 / (1 + np.exp(-relevance))
        return p > policy.value, bool(np.any(np.abs(p - policy.value) <= _ORACLE_TOL))
    z, n = len(relevance), retention_target(len(relevance), policy.value)
    order = sorted(range(z), key=lambda i: (-relevance[i], i))
    mask = np.zeros(z, bool)
    mask[order[:n]] = True
    gap = relevance[order[n - 1]] - relevance[order[n]] if n < z else np.inf
    return mask, bool(gap <= _ORACLE_TOL * max(1.0, np.abs(relevance).max()))


class TestAgainstPlainLoop:
    @settings(max_examples=60, deadline=None)
    @given(_small_runs())
    def test_run_equals_a_plain_loop_over_the_blocks(self, case):
        img, box, cfg = case
        try:
            pruned, bundles, report = run_pipeline(img, box, cfg)
        except PratoError:
            return  # the laws of failing runs are TestRunProperties'
        tokens, coords, want, live, staged = _plain_loop(img, box, cfg)
        assert report.to_dict() == _recount_report(live[0], cfg.embed_dim, live, want, len(coords))
        if cfg.mask_mode == "zero":
            tokens = scatter_tokens(replace(pruned, mode="compact", tokens=tokens))
        assert np.array_equal(pruned.tokens, tokens)
        assert np.array_equal(pruned.retained_coords, coords)
        for got, bundle in zip(bundles, want, strict=True):
            for f in fields(got):
                assert np.array_equal(getattr(got, f.name), getattr(bundle, f.name)), f.name
        # stopped at its last stage, the run holds the rows that stage kept, and the rest as is
        stopped = run_pipeline(img, box, cfg, stop_at_last_stage=True)
        _assert_same_run(stopped, (_in_mode(pruned, staged), bundles, report))
        assert stopped[0].mode == cfg.mask_mode

    @settings(max_examples=40, deadline=None)
    @given(_small_runs())
    def test_run_is_near_a_loop_of_the_selfcheck_oracles(self, case):
        img, box, cfg = case
        try:
            pruned, bundles, _ = run_pipeline(img, box, cfg)
        except PratoError:
            return
        (c, h, w), p = img.shape, cfg.patch_size
        weights = build_pipeline_weights(cfg, c, h // p, w // p)
        tokens = tokenize_image(img, weights.embedder, p).tokens
        coords, stages = row_major_index_map(h // p, w // p), iter(bundles)
        for b, block in enumerate(weights.blocks):
            tokens = _oracle_block(tokens, block, cfg)
            if b in cfg.stage_indices:
                bundle = next(stages)
                sim, entropies, relevance = _oracle_scores(tokens, coords, box, cfg,
                                                           weights.projections, h // p, w // p)
                assert _near(bundle.similarity, sim) and _near(bundle.entropies, entropies)
                assert _near(bundle.relevance, relevance)
                mask, near_cut = _oracle_mask(relevance, cfg.policy)
                keep = bundle.mask.astype(bool)
                assert near_cut or np.array_equal(keep, mask)
                tokens, coords = tokens[keep], coords[keep]  # the run's cut, if rounding decides
        assert next(stages, None) is None
        assert np.array_equal(pruned.retained_coords, coords)
        assert _near(pruned.tokens, _in_mode(pruned, tokens).tokens)


def _in_mode(pruned, compact_tokens):
    """``pruned`` holding ``compact_tokens`` at its coordinates, in its own mask mode."""
    if pruned.mode == "zero":
        compact_tokens = scatter_tokens(replace(pruned, mode="compact", tokens=compact_tokens))
    return replace(pruned, tokens=compact_tokens)


@st.composite
def _prompt_mixes(draw):
    """One image and 1-6 prompts whose configs share a prefix key and differ after it.

    Percentile values come mostly from a short list, so policies often repeat; 99
    keeps one token, fixed 0.999999 keeps none, and a box 1e-12 wide is
    degenerate. Boxes come from a pool of 1-3 and k and the sampling ratio from short
    lists, so regions repeat, in full or with another k or ratio.
    """
    depth, heads = draw(st.integers(2, 4)), draw(st.sampled_from([1, 2, 4]))
    first = draw(st.integers(0, depth - 1))
    base = PipelineConfig(
        depth=depth, stage_indices=(first,), patch_size=draw(st.sampled_from([4, 8])),
        embed_dim=heads * draw(st.sampled_from([2, 4, 8, 16, 52 // heads])), heads=heads,
        d_v=draw(st.integers(1, 8)), seed=draw(st.integers(0, 2 ** 32 - 1)),
        residual=draw(st.sampled_from(["block", "sublayer"])),
        positional=draw(st.sampled_from(["sinusoidal", "learned", "none"])),
        proj_tied=draw(st.booleans()),
    )
    shape = (draw(st.integers(1, 2)), 8 * draw(st.integers(1, 6)), 8 * draw(st.integers(1, 6)))
    img = make_rng(draw(st.integers(0, 2 ** 16))).random(shape)
    policies = st.one_of(
        st.sampled_from([ThresholdPolicy("percentile", q) for q in (25.0, 50.0, 25.0, 99.0)]
                        + [ThresholdPolicy("fixed", 0.999999)]),
        st.builds(ThresholdPolicy, st.just("percentile"), st.floats(1.0, 99.0)),
        st.builds(ThresholdPolicy, st.just("fixed"), st.floats(0.05, 0.95)),
    )
    edges = st.lists(st.integers(0, 16), min_size=2, max_size=2, unique=True).map(sorted)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        (x1, x2), (y1, y2) = draw(edges), draw(edges)
        width = 1e-12 if draw(st.integers(0, 9)) == 0 else (x2 - x1) / 16  # under 1e-9 tokens
        pool.append(BoxPrompt(x1 / 16, y1 / 16, x1 / 16 + width, y2 / 16))
    boxes, cfgs = [], []
    for _ in range(draw(st.integers(1, 6))):
        boxes.append(draw(st.sampled_from(pool)))
        later = draw(st.sets(st.integers(first + 1, depth - 1))) if first + 1 < depth else set()
        cfgs.append(replace(base, stage_indices={first, *later}, policy=draw(policies),
                            roi_k=draw(st.sampled_from([1, 3, 3, 4])),
                            sampling_ratio=draw(st.sampled_from([2, 2, 1])),
                            mask_mode=draw(st.sampled_from(["compact", "zero"]))))
    return img, boxes, cfgs


def _run_alone(img, box, cfg, **kwargs):
    try:
        return run_pipeline(img, box, cfg, **kwargs)
    except Exception as exc:
        return exc


def _run_on(prefix, img, boxes, cfgs, **kwargs):
    """Each prompt's run on ``prefix``, one call each in order, or its exception."""
    return [_run_alone(img, box, cfg, prefix=prefix, **kwargs) for box, cfg in zip(boxes, cfgs)]


def _first_stage_pools(img, boxes, cfgs) -> int:
    """First-stage pools of these runs in order on one prefix: a region (box, roi_k,
    sampling_ratio) that does not degenerate pools unless it is the last one pooled."""
    grid_h, grid_w = (n // cfgs[0].patch_size for n in img.shape[1:])
    pools, last = 0, None
    for box, cfg in zip(boxes, cfgs):
        try:
            map_box_to_grid(box, grid_h, grid_w)
        except DegeneratePromptError:
            continue
        region = (box, cfg.roi_k, cfg.sampling_ratio)
        pools, last = pools + (region != last), region
    return pools


def _first_stage_arrays(run):
    bundle = run[1][0]
    return bundle.similarity, bundle.entropies, bundle.weights, bundle.relevance


class _CountRoiAlign:
    """Counts ``roi_align`` calls made through ``prato.pipeline`` while it is entered."""

    def __enter__(self):
        self.calls, real = 0, pipeline.roi_align

        def counting(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        self.real, pipeline.roi_align = real, counting
        return self

    def __exit__(self, *exc):
        pipeline.roi_align = self.real


def _assert_same_entry(got, want):
    """A run on a shared prefix is its lone run: the same arrays, report, or exception."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        _assert_same_run(got, want)
        assert got[0].mode == want[0].mode and got[2].to_dict() == want[2].to_dict()


def _stopped_entry(img, box, cfg, full):
    """A full run's result as a run stopped at its last stage returns it: the tokens are the
    rows that stage kept, in the run's mask mode; an exception stays as it is."""
    if isinstance(full, Exception):
        return full
    return (_in_mode(full[0], _plain_loop(img, box, cfg)[-1]), *full[1:])


class TestPromptsOnOnePrefix:
    @settings(max_examples=80, deadline=None)
    @given(_prompt_mixes(), st.sampled_from([1, 2]))
    def test_each_run_on_a_shared_prefix_equals_its_lone_run(self, case, cores):
        img, boxes, cfgs = case
        saved = numerics._CORES
        try:
            numerics._CORES = 1  # a block's bits do not depend on the core count
            with _CountRoiAlign() as lone:
                alone = [_run_alone(img, box, cfg) for box, cfg in zip(boxes, cfgs)]
            numerics._CORES = cores
            prefix = encode_prefix(img, cfgs[-1])
            with _CountRoiAlign() as shared:
                together = _run_on(prefix, img, boxes, cfgs)
        finally:
            numerics._CORES = saved
        for got, want in zip(together, alone, strict=True):
            _assert_same_entry(got, want)
            if not isinstance(want, Exception):  # first-stage arrays are read-only on a prefix
                assert not any(a.flags.writeable for a in _first_stage_arrays(got))
                assert all(a.flags.writeable for a in _first_stage_arrays(want))
        # each lone run pools its first-stage region, if it does not degenerate; on the prefix a
        # region pools again only after another one, and later stages pool as they do alone
        degenerate = sum(isinstance(r, DegeneratePromptError) for r in alone)
        assert shared.calls == lone.calls - (len(alone) - degenerate) \
            + _first_stage_pools(img, boxes, cfgs)

    def test_each_live_prompt_runs_each_later_block_on_its_own_tokens(self, monkeypatch):
        scene = generate_scene("ellipse", 128, seed=3)
        cfg = PipelineConfig(depth=4, seed=3)
        policies = [ThresholdPolicy("percentile", q) for q in (25.0, 50.0, 25.0, 99.0, 99.0)]
        cfgs = [replace(cfg, policy=p) for p in policies]
        calls, real = [], pipeline.encode_tokens

        def spy(x, w, residual="block", ln_eps=1e-6):
            calls.append(len(x))
            return real(x, w, residual, ln_eps)

        monkeypatch.setattr(pipeline, "encode_tokens", spy)
        prefix = encode_prefix(scene.image, cfg)
        results = _run_on(prefix, scene.image, [scene.tight_box] * 5, cfgs)
        # Z = 64: 48 kept at q25, 32 at q50 and 1 at q99; one call per prompt and block
        assert calls == [64] * 2 + [48, 48, 32, 32, 48, 48, 1, 1, 1, 1]
        monkeypatch.undo()
        for got, c in zip(results, cfgs):
            _assert_same_entry(got, _run_alone(scene.image, scene.tight_box, c))

    def test_consecutive_runs_on_one_region_pool_it_once(self):
        scene = generate_scene("ellipse", 128, seed=3)
        base = PipelineConfig(depth=4, stage_indices=(1,), seed=3)
        tight = scene.tight_box
        wide = perturb_prompt(tight, PromptPerturbation("oversized", 0.5), make_rng(0))
        flat = BoxPrompt(0.2, 0.2, 0.2 + 1e-12, 0.6)
        q = lambda v: ThresholdPolicy("percentile", v)
        prompts = [  # (box, config changes); 4 regions pool, and 2 later stages pool once each
            (tight, dict(policy=q(25.0))),
            (tight, dict(policy=q(50.0), mask_mode="zero", stage_indices=(1, 2))),
            (tight, dict(policy=ThresholdPolicy("fixed", 0.999999))),  # keeps nothing
            (tight, dict(policy=q(25.0), roi_k=3)),
            (tight, dict(policy=q(25.0), sampling_ratio=1)),
            (wide, dict(policy=q(99.0), stage_indices=(1, 3))),
            (wide, dict(policy=q(25.0), mask_mode="zero")),
            (flat, dict(policy=q(25.0))),  # degenerate, twice
            (flat, dict(policy=q(50.0))),
        ]
        boxes = [box for box, _ in prompts]
        cfgs = [replace(base, **change) for _, change in prompts]
        prefix = encode_prefix(scene.image, base)
        with _CountRoiAlign() as count:
            together = _run_on(prefix, scene.image, boxes, cfgs)
        assert count.calls == 4 + 2
        alone = [_run_alone(scene.image, box, cfg) for box, cfg in zip(boxes, cfgs)]
        assert [type(r).__name__ for r in alone] == ["tuple"] * 2 + ["EmptyRetentionError"] \
            + ["tuple"] * 4 + ["DegeneratePromptError"] * 2
        for got, want in zip(together, alone):
            _assert_same_entry(got, want)
        # runs of one region share its arrays read-only, so no run can write another's
        ran = [r for r in together if not isinstance(r, Exception)]
        shared = 0
        for name in ("similarity", "entropies", "weights", "relevance"):
            arrays = [getattr(bundle, name) for _, bundles, _ in ran for bundle in bundles]
            for i, a in enumerate(arrays):
                for b in arrays[i + 1:]:
                    if np.shares_memory(a, b):
                        shared += 1
                        assert not a.flags.writeable and not b.flags.writeable, name
        assert shared == 4 * 2  # tight k=5 ratio 2 in runs 0 and 1, wide in 5 and 6
        with pytest.raises(ValueError, match="read-only"):
            together[0][1][0].relevance[:] = 0.0
        assert together[1][1][1].relevance.flags.writeable  # a later stage's arrays are the run's
        # the prefix keeps a bundle of its own: a run may rebind its fields and write its mask
        first = together[5][1][0]
        first.mask[:] = 0
        first.relevance = np.zeros_like(first.relevance)
        with _CountRoiAlign() as count:
            again = run_pipeline(scene.image, wide, cfgs[6], prefix=prefix)
        assert count.calls == 0
        _assert_same_entry(again, alone[6])

    def test_another_region_evicts_the_prefix_scoring(self):
        scene = generate_scene("ellipse", 128, seed=3)
        cfg = PipelineConfig(depth=4, seed=3)
        tight = scene.tight_box
        wide = perturb_prompt(tight, PromptPerturbation("oversized", 0.5), make_rng(0))
        q50 = ThresholdPolicy("percentile", 50.0)
        steps = [  # (box, config, first-stage pools)
            (tight, cfg, 1),
            (tight, replace(cfg, policy=q50), 0),
            (wide, cfg, 1),
            (tight, cfg, 1),
            (tight, replace(cfg, roi_k=3), 1),
            (tight, replace(cfg, sampling_ratio=1), 1),
            (tight, replace(cfg, sampling_ratio=1, policy=q50, mask_mode="zero"), 0),
            (BoxPrompt(0.2, 0.2, 0.2 + 1e-12, 0.6), cfg, 0),  # degenerate: the entry stays
            (tight, replace(cfg, sampling_ratio=1, policy=ThresholdPolicy("fixed", 0.999999)), 0),
            (tight, replace(cfg, policy=ThresholdPolicy("fixed", 0.999999)), 1),  # keeps nothing
            (tight, cfg, 0),
        ]
        prefix, last = encode_prefix(scene.image, cfg), None
        for box, c, pools in steps:
            with _CountRoiAlign() as count:
                got = _run_alone(scene.image, box, c, prefix=prefix)
            assert count.calls == pools
            if not isinstance(got, DegeneratePromptError):
                last = (box, c.roi_k, c.sampling_ratio)
            assert list(prefix.scored) == [last]  # one entry, the last region scored
            _assert_same_entry(got, _run_alone(scene.image, box, c))

    def test_first_stage_arrays_are_read_only_only_on_a_passed_prefix(self):
        scene = generate_scene("ellipse", 64, seed=0)
        cfg = PipelineConfig(depth=3, stage_indices=(0, 1), seed=0)
        runs = {
            "fresh": (run_pipeline(scene.image, scene.tight_box, cfg), True),
            "weights": (run_pipeline(scene.image, scene.tight_box, cfg,
                                     build_pipeline_weights(cfg, 1, 4, 4)), True),
            "prefix": (run_pipeline(scene.image, scene.tight_box, cfg,
                                    prefix=encode_prefix(scene.image, cfg)), False),
        }
        for name, (run, writeable) in runs.items():
            first, later = run[1]
            assert [a.flags.writeable for a in _first_stage_arrays(run)] == [writeable] * 4, name
            assert first.mask.flags.writeable and later.relevance.flags.writeable, name
            assert run[0].tokens.flags.writeable and run[0].retained_coords.flags.writeable, name

    def test_threads_sharing_a_prefix_get_their_lone_runs(self):
        scene = generate_scene("ellipse", 64, seed=2)
        cfg = PipelineConfig(depth=3, seed=2)
        wide = perturb_prompt(scene.tight_box, PromptPerturbation("oversized", 0.5), make_rng(0))
        prompts = [(box, replace(cfg, policy=ThresholdPolicy("percentile", q)))
                   for box in (scene.tight_box, wide) for q in (25.0, 50.0)]
        alone = [_run_alone(scene.image, box, c) for box, c in prompts]
        prefix, barrier, got = encode_prefix(scene.image, cfg), threading.Barrier(4), {}

        def worker(t):
            barrier.wait()
            for r in range(20):  # regions alternate, so each thread keeps evicting the others'
                i = (t + r) % len(prompts)
                got[t, r] = i, _run_alone(scene.image, *prompts[i], prefix=prefix)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(got) == 4 * 20
        for i, run in got.values():
            _assert_same_entry(run, alone[i])

    def test_a_later_block_that_raises_fails_only_its_run(self, monkeypatch):
        scene = generate_scene("blob", 128, seed=4)
        cfg = PipelineConfig(depth=4, seed=4)
        cfgs = [replace(cfg, policy=ThresholdPolicy("percentile", q)) for q in (25.0, 50.0, 25.0)]
        real = pipeline.encode_tokens

        def flaky(x, w, residual="block", ln_eps=1e-6):
            if len(x) == 32:  # the q50 prompt's 32 live tokens fail; the q25 prompts keep 48
                raise ValidationError("tokens contains non-finite entries")
            return real(x, w, residual, ln_eps)

        monkeypatch.setattr(pipeline, "encode_tokens", flaky)
        prefix = encode_prefix(scene.image, cfg)
        results = _run_on(prefix, scene.image, [scene.tight_box] * 3, cfgs)
        alone = [_run_alone(scene.image, scene.tight_box, c) for c in cfgs]
        assert [type(r) for r in alone] == [tuple, ValidationError, tuple]
        for got, want in zip(results, alone):
            _assert_same_entry(got, want)

    @settings(max_examples=60, deadline=None)
    @given(_prompt_mixes())
    def test_stopping_at_the_last_stage_changes_only_the_tokens(self, case):
        img, boxes, cfgs = case
        full = [_run_alone(img, box, cfg) for box, cfg in zip(boxes, cfgs)]
        stopped = _run_on(encode_prefix(img, cfgs[-1]), img, boxes, cfgs, stop_at_last_stage=True)
        for box, cfg, got, want in zip(boxes, cfgs, stopped, full, strict=True):
            want = _stopped_entry(img, box, cfg, want)
            _assert_same_entry(got, want)
            _assert_same_entry(_run_alone(img, box, cfg, stop_at_last_stage=True), want)

    def test_no_block_after_a_prompts_last_stage_runs(self, monkeypatch):
        scene = generate_scene("ellipse", 128, seed=3)
        base = PipelineConfig(depth=4, stage_indices=(0,), seed=3)
        q = lambda v: ThresholdPolicy("percentile", v)
        prompts = [  # (box, config changes); Z = 64
            (scene.tight_box, dict(policy=q(25.0))),  # 48 kept after block 0, its last stage
            (scene.tight_box, dict(policy=q(50.0), stage_indices=(0, 2), mask_mode="zero")),
            (scene.tight_box, dict(policy=q(25.0), stage_indices=(0, 1))),  # 48, then 36
            (scene.tight_box, dict(policy=q(25.0), stage_indices=(0, 3))),
            (scene.tight_box, dict(policy=ThresholdPolicy("fixed", 0.999999),
                                   stage_indices=(0, 2))),  # keeps nothing
            (BoxPrompt(0.2, 0.2, 0.2 + 1e-12, 0.6), dict(stage_indices=(0, 2))),  # degenerate
        ]
        boxes = [box for box, _ in prompts]
        cfgs = [replace(base, **change) for _, change in prompts]
        calls, real = [], pipeline.encode_tokens

        def spy(x, w, residual="block", ln_eps=1e-6):
            calls.append(len(x))
            return real(x, w, residual, ln_eps)

        monkeypatch.setattr(pipeline, "encode_tokens", spy)
        stopped = _run_on(encode_prefix(scene.image, base), scene.image, boxes, cfgs,
                          stop_at_last_stage=True)
        # prompt 0 stops after block 0, the prefix; prompt 1 (32 kept, then 16) stops after
        # block 2, prompt 2 after block 1, and prompt 3 runs blocks 1-3; 4 and 5 fail at block 0
        assert calls == [64, 32, 32, 48, 48, 48, 48]
        del calls[:]
        single = run_pipeline(scene.image, boxes[1], cfgs[1], stop_at_last_stage=True)
        assert calls == [64, 32, 32]
        monkeypatch.undo()
        full = [_run_alone(scene.image, box, cfg) for box, cfg in zip(boxes, cfgs)]
        assert [type(r).__name__ for r in full] == ["tuple"] * 4 + ["EmptyRetentionError",
                                                                    "DegeneratePromptError"]
        assert full[1][2].tokens_retained == [32, 16]
        for box, cfg, got, want in zip(boxes, cfgs, stopped, full):
            _assert_same_entry(got, _stopped_entry(scene.image, box, cfg, want))
        _assert_same_entry(single, _stopped_entry(scene.image, boxes[1], cfgs[1], full[1]))

    @pytest.mark.parametrize("scored", [False, True])
    def test_config_under_other_prefix_key_rejected(self, scored):
        scene = generate_scene("ellipse", 64, seed=0)
        cfg = PipelineConfig(depth=4, seed=0)
        prefix = encode_prefix(scene.image, cfg)
        if scored:  # a prefix that holds the region's scoring still checks the key
            run_pipeline(scene.image, _mid_box(), cfg, prefix=prefix)
        with pytest.raises(ConfigurationError, match="different key: first_stage 1 != 2"):
            run_pipeline(scene.image, _mid_box(), replace(cfg, stage_indices=(2,)), prefix=prefix)

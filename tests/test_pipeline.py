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
from prato.roi import BoxPrompt, GridBox
from prato.synth import generate_scene
from prato.encoder import encode_tokens
from prato.tokens import TokenGrid, load_plane_csv, row_major_index_map, tokenize_image


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

    @pytest.mark.parametrize("magnitude", [-0.5, math.inf, math.nan])
    def test_magnitude_must_be_finite_and_non_negative(self, magnitude):
        with pytest.raises(ConfigurationError, match="must be finite and >= 0"):
            PromptPerturbation("oversized", magnitude)

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
        dict(proj_tied="false"),
    ], ids=repr)
    def test_config_rejects_bad_field(self, bad):
        with pytest.raises(ConfigurationError):
            PipelineConfig(**bad)

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
    """A run written as one loop over the blocks, gathering the kept rows after each stage."""
    (c, h, w), p = img.shape, cfg.patch_size
    weights = build_pipeline_weights(cfg, c, h // p, w // p)
    tokens = tokenize_image(img, weights.embedder, p).tokens
    coords, bundles = row_major_index_map(h // p, w // p), []
    for b, block in enumerate(weights.blocks):
        tokens = encode_tokens(tokens, block, residual=cfg.residual, ln_eps=cfg.ln_eps)
        if b in cfg.stage_indices:
            grid = np.zeros((h // p * (w // p), tokens.shape[1]))
            grid[coords[:, 0] * (w // p) + coords[:, 1]] = tokens
            bundle = prato_score(TokenGrid(grid, h // p, w // p), box, weights.projections,
                                 cfg.roi_k, cfg.policy, cfg.sampling_ratio, tokens=tokens)
            keep = bundle.mask.astype(bool)
            tokens, coords = tokens[keep], coords[keep]
            bundles.append(bundle)
    return tokens, coords, bundles


class TestAgainstPlainLoop:
    @settings(max_examples=60, deadline=None)
    @given(_small_runs())
    def test_run_equals_a_plain_loop_over_the_blocks(self, case):
        img, box, cfg = case
        try:
            pruned, bundles, _ = run_pipeline(img, box, cfg)
        except PratoError:
            return  # the laws of failing runs are TestRunProperties'
        tokens, coords, want = _plain_loop(img, box, cfg)
        if cfg.mask_mode == "zero":
            tokens = scatter_tokens(replace(pruned, mode="compact", tokens=tokens))
        assert np.array_equal(pruned.tokens, tokens)
        assert np.array_equal(pruned.retained_coords, coords)
        for got, bundle in zip(bundles, want, strict=True):
            for f in fields(got):
                assert np.array_equal(getattr(got, f.name), getattr(bundle, f.name)), f.name


@st.composite
def _prompt_mixes(draw):
    """One image and 1-6 prompts whose configs share a prefix key and differ after it.

    Percentile values come mostly from a short list, so live counts often match and
    stack; 99 keeps one token, fixed 0.999999 keeps none, and a box 1e-12 wide is
    degenerate. Width 52 leaves N mod 8 at 4, where OpenBLAS rounds products of short
    and long row parts apart.
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
    boxes, cfgs = [], []
    for _ in range(draw(st.integers(1, 6))):
        (x1, x2), (y1, y2) = draw(edges), draw(edges)
        width = 1e-12 if draw(st.integers(0, 9)) == 0 else (x2 - x1) / 16  # under 1e-9 tokens
        boxes.append(BoxPrompt(x1 / 16, y1 / 16, x1 / 16 + width, y2 / 16))
        later = draw(st.sets(st.integers(first + 1, depth - 1))) if first + 1 < depth else set()
        cfgs.append(replace(base, stage_indices={first, *later}, policy=draw(policies),
                            roi_k=draw(st.integers(1, 4)), sampling_ratio=draw(st.integers(1, 2)),
                            mask_mode=draw(st.sampled_from(["compact", "zero"]))))
    return img, boxes, cfgs


def _run_alone(img, box, cfg):
    try:
        return run_pipeline(img, box, cfg)
    except Exception as exc:
        return exc


def _assert_same_entry(got, want):
    """A list-form entry is its single-prompt run: the same arrays, report, or exception."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        _assert_same_run(got, want)
        assert got[0].mode == want[0].mode and got[2].to_dict() == want[2].to_dict()


class TestManyPrompts:
    @settings(max_examples=80, deadline=None)
    @given(_prompt_mixes(), st.sampled_from([1, 2]), st.booleans())
    def test_each_entry_equals_its_single_prompt_run(self, case, cores, given_prefix):
        img, boxes, cfgs = case
        saved = numerics._CORES
        try:
            # at width 52 OpenBLAS rounds one- and two-core tail parts apart, so compare there
            # at one core count; elsewhere the lone runs also pin the core count
            numerics._CORES = cores if cfgs[0].embed_dim == 52 else 1
            alone = [_run_alone(img, box, cfg) for box, cfg in zip(boxes, cfgs)]
            numerics._CORES = cores
            prefix = encode_prefix(img, cfgs[-1]) if given_prefix else None
            together = run_pipeline(img, boxes, cfgs, prefix=prefix)
        finally:
            numerics._CORES = saved
        assert len(together) == len(alone)
        for got, want in zip(together, alone):
            _assert_same_entry(got, want)

    def test_prompts_with_equal_live_counts_share_each_block(self, monkeypatch):
        scene = generate_scene("ellipse", 128, seed=3)
        cfg = PipelineConfig(depth=4, seed=3)
        policies = [ThresholdPolicy("percentile", q) for q in (25.0, 50.0, 25.0, 99.0, 99.0)]
        cfgs = [replace(cfg, policy=p) for p in policies]
        calls, real = [], pipeline.encode_tokens

        def spy(x, w, residual="block", ln_eps=1e-6, sets=1):
            calls.append((len(x), sets))
            return real(x, w, residual, ln_eps, sets)

        monkeypatch.setattr(pipeline, "encode_tokens", spy)
        prefix = encode_prefix(scene.image, cfg)
        results = run_pipeline(scene.image, [scene.tight_box] * 5, cfgs, prefix=prefix)
        # Z = 64: 48 kept at q25 (two prompts, one stack), 32 at q50, 1 at q99 (each alone)
        assert calls == [(64, 1)] * 2 + [(96, 2), (32, 1), (1, 1), (1, 1)] * 2
        monkeypatch.undo()
        for got, c in zip(results, cfgs):
            _assert_same_entry(got, _run_alone(scene.image, scene.tight_box, c))

    def test_failed_stack_reruns_each_set_alone(self, monkeypatch):
        scene = generate_scene("blob", 128, seed=4)
        cfg = PipelineConfig(depth=4, seed=4)
        cfgs = [replace(cfg, policy=ThresholdPolicy("percentile", q)) for q in (25.0, 50.0, 25.0)]
        real = pipeline.encode_tokens

        def flaky(x, w, residual="block", ln_eps=1e-6, sets=1):
            if sets > 1 or len(x) == 32:  # every stack fails, and the q50 prompt fails alone
                raise ValidationError("tokens contains non-finite entries")
            return real(x, w, residual, ln_eps, sets)

        monkeypatch.setattr(pipeline, "encode_tokens", flaky)
        results = run_pipeline(scene.image, [scene.tight_box] * 3, cfgs)
        alone = [_run_alone(scene.image, scene.tight_box, c) for c in cfgs]
        assert [type(r) for r in alone] == [tuple, ValidationError, tuple]
        for got, want in zip(results, alone):
            _assert_same_entry(got, want)

    def test_single_prompt_raises_what_its_entry_holds(self):
        scene = generate_scene("ellipse", 64, seed=0)
        cfg = PipelineConfig(depth=2, seed=0, policy=ThresholdPolicy("fixed", 0.999999))
        (entry,) = run_pipeline(scene.image, [scene.tight_box], [cfg])
        assert isinstance(entry, EmptyRetentionError)
        with pytest.raises(EmptyRetentionError, match=str(entry)):
            run_pipeline(scene.image, scene.tight_box, cfg)

    @pytest.mark.parametrize("boxes, cfgs", [
        ([_mid_box()] * 2, [PipelineConfig(depth=2)]),
        ([], []),
        ([_mid_box()], PipelineConfig(depth=2)),
        (_mid_box(), [PipelineConfig(depth=2)]),
    ])
    def test_unpaired_lists_rejected(self, boxes, cfgs):
        scene = generate_scene("ellipse", 64, seed=0)
        with pytest.raises(ShapeError, match="lists of equal length"):
            run_pipeline(scene.image, boxes, cfgs)

    @pytest.mark.parametrize("given_prefix", [False, True])
    def test_config_under_other_prefix_key_rejected(self, given_prefix):
        scene = generate_scene("ellipse", 64, seed=0)
        cfg = PipelineConfig(depth=4, seed=0)
        prefix = encode_prefix(scene.image, cfg) if given_prefix else None
        with pytest.raises(ConfigurationError, match="different key: first_stage 1 != 2"):
            run_pipeline(scene.image, [_mid_box()] * 2, [cfg, replace(cfg, stage_indices=(2,))],
                         prefix=prefix)

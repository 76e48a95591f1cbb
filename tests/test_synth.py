"""Scene generator and sweep harness tests."""

import csv
import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import prato.pipeline
import prato.synth
from prato import numerics
from prato.errors import ConfigurationError, ValidationError
from prato.numerics import make_rng
from prato.pipeline import (
    PipelineConfig,
    PromptPerturbation,
    box_iou,
    perturb_prompt,
    run_pipeline,
    token_in_box_mask,
)
from prato.prune import ThresholdPolicy
from prato.roi import map_box_to_grid
from prato.synth import (
    CSV_COLUMNS,
    SCENE_SIZE_MAX,
    SCENE_SIZE_MIN,
    SweepSpec,
    generate_scene,
    run_sweep,
    _retention_densities,
    save_scene,
    sweep_spec_from_dict,
    tight_box,
)

AREA_BOUNDS = (0.02, 0.4)  # target area fraction of any generated scene


def _scene_oracle(kind, size, seed):
    """(image, truth, tight box) of a scene, built on full (H, W) index grids."""
    h = w = size
    rng = make_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]

    def ellipse(cy, cx, ry, rx):
        return ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0

    area = rng.uniform(0.05, 0.2) * h * w
    aspect = rng.uniform(0.6, 1.6)
    if kind == "ellipse":
        rx = np.sqrt(area * aspect / np.pi)
        ry = rx / aspect
        cx, cy = rng.uniform(rx + 1, w - rx - 1), rng.uniform(ry + 1, h - ry - 1)
        truth = ellipse(cy, cx, ry, rx)
    elif kind == "rectangle":
        bw = np.sqrt(area * aspect)
        bh = bw / aspect
        x0, y0 = rng.uniform(1, w - bw - 1), rng.uniform(1, h - bh - 1)
        truth = (xx >= x0) & (xx < x0 + bw) & (yy >= y0) & (yy < y0 + bh)
    else:
        rx = np.sqrt(0.6 * area * aspect / np.pi)
        ry = rx / aspect
        margin = 1.7 * max(rx, ry) + 1
        cx, cy = rng.uniform(margin, w - margin), rng.uniform(margin, h - margin)
        truth = ellipse(cy, cx, ry, rx)
        for _ in range(2):
            angle = rng.uniform(0, 2 * np.pi)
            sr = 0.5 * min(rx, ry)
            truth = truth | ellipse(cy + 0.8 * ry * np.sin(angle), cx + 0.8 * rx * np.cos(angle),
                                    sr, sr)
    background = 0.05 + 0.3 * rng.random((1, h, w))
    foreground = 0.75 + 0.2 * rng.random((1, h, w))
    image = background.copy()
    image[0][truth] = foreground[0][truth]
    rows, cols = np.flatnonzero(truth.any(axis=1)), np.flatnonzero(truth.any(axis=0))
    box = (cols[0] / w, rows[0] / h, (cols[-1] + 1) / w, (rows[-1] + 1) / h)
    return image, truth.astype(np.int64), box


class TestGenerateScene:
    @pytest.mark.parametrize("kind", ["ellipse", "rectangle", "blob"])
    @pytest.mark.parametrize("size", [16, 17, 24, 255, 256, 300, 512])
    def test_equals_a_full_grid_construction(self, kind, size):
        for seed in (0, 1, 7, 41):
            scene = generate_scene(kind, size, seed)
            image, truth, box = _scene_oracle(kind, size, seed)
            assert np.array_equal(scene.image, image) and scene.image.dtype == image.dtype
            assert np.array_equal(scene.truth, truth) and scene.truth.dtype == truth.dtype
            b = scene.tight_box
            assert (b.x1, b.y1, b.x2, b.y2) == box

    def test_determinism(self):
        a = generate_scene("ellipse", 64, seed=42)
        b = generate_scene("ellipse", 64, seed=42)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.truth, b.truth)
        assert a.tight_box == b.tight_box

    def test_seeds_differ(self):
        a = generate_scene("ellipse", 64, seed=1)
        b = generate_scene("ellipse", 64, seed=2)
        assert not np.array_equal(a.image, b.image)

    @pytest.mark.parametrize("kind", ["ellipse", "rectangle", "blob"])
    def test_tight_box_minimality(self, kind):
        # shrinking any side by one pixel must exclude at least one truth pixel,
        # i.e. each extreme row/col of the box contains foreground
        for seed in range(100):
            scene = generate_scene(kind, 64, seed=seed)
            h, w = scene.truth.shape
            ys, xs = np.nonzero(scene.truth)
            y0, y1 = ys.min(), ys.max()
            x0, x1 = xs.min(), xs.max()
            assert scene.truth[y0, :].any() and scene.truth[y1, :].any()
            assert scene.truth[:, x0].any() and scene.truth[:, x1].any()
            assert scene.tight_box.x1 == x0 / w
            assert scene.tight_box.x2 == (x1 + 1) / w
            assert scene.tight_box.y1 == y0 / h
            assert scene.tight_box.y2 == (y1 + 1) / h

    @pytest.mark.parametrize("kind", ["ellipse", "rectangle", "blob"])
    def test_area_fraction_bounds(self, kind):
        lo, hi = AREA_BOUNDS
        for seed in range(100):
            scene = generate_scene(kind, 64, seed=seed)
            frac = scene.truth.mean()
            assert lo <= frac <= hi

    def test_values_in_unit_range(self):
        scene = generate_scene("blob", 64, seed=3)
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0
        assert scene.image.shape == (1, 64, 64)

    def test_target_is_bright(self):
        scene = generate_scene("rectangle", 64, seed=4)
        fg = scene.image[0][scene.truth == 1].mean()
        bg = scene.image[0][scene.truth == 0].mean()
        assert fg > bg + 0.3

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            generate_scene("triangle", 64, seed=0)

    @pytest.mark.parametrize("kind", ["ellipse", "rectangle", "blob"])
    def test_size_limits(self, kind):
        for seed in range(50):
            assert generate_scene(kind, SCENE_SIZE_MIN, seed=seed).image.shape == (1, 16, 16)
        for size in (0, SCENE_SIZE_MIN - 1, SCENE_SIZE_MAX + 1, 10**9):
            with pytest.raises(ConfigurationError, match="scene size"):
                generate_scene(kind, size, seed=0)


class TestTightBox:
    def test_single_pixel(self):
        truth = np.zeros((16, 16), dtype=int)
        truth[0, 0] = 1
        box = tight_box(truth)
        assert (box.x1, box.y1, box.x2, box.y2) == (0.0, 0.0, 1 / 16, 1 / 16)

    def test_full_image(self):
        box = tight_box(np.ones((8, 8), dtype=int))
        assert (box.x1, box.y1, box.x2, box.y2) == (0.0, 0.0, 1.0, 1.0)

    def test_l_shape_hull_scan_oracle(self):
        truth = np.zeros((10, 10), dtype=int)
        truth[2:8, 3] = 1
        truth[7, 3:7] = 1
        box = tight_box(truth)
        xmin = ymin = 10
        xmax = ymax = -1
        for i in range(10):
            for j in range(10):
                if truth[i, j]:
                    ymin, ymax = min(ymin, i), max(ymax, i)
                    xmin, xmax = min(xmin, j), max(xmax, j)
        assert box.x1 == xmin / 10 and box.x2 == (xmax + 1) / 10
        assert box.y1 == ymin / 10 and box.y2 == (ymax + 1) / 10

    def test_empty_truth(self):
        with pytest.raises(ValidationError):
            tight_box(np.zeros((4, 4), dtype=int))


class TestSaveScene:
    def test_files_and_manifest(self, tmp_path):
        from prato.roi import load_box
        from prato.tokens import load_image

        scene = generate_scene("ellipse", 64, seed=5)
        entry = save_scene(scene, tmp_path, 3)
        assert (tmp_path / entry["image"]).exists()
        assert np.array_equal(load_image(tmp_path / entry["image"]), scene.image)
        assert load_box(tmp_path / entry["box"]) == scene.tight_box
        truth = np.loadtxt(tmp_path / entry["truth"], delimiter=",", dtype=int)
        assert np.array_equal(truth, scene.truth)


def _small_spec(**overrides):
    base = dict(
        policies=[ThresholdPolicy("percentile", 25.0)],
        k_values=[3],
        perturbations=[PromptPerturbation("tight")],
        seeds=3,
        size=64,
        target_kind="ellipse",
        base_seed=0,
        pipeline=PipelineConfig(depth=2, seed=0),
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestRunSweep:
    def test_single_cell_matches_direct_run(self, tmp_path):
        spec = _small_spec(seeds=1)
        summary = run_sweep(spec, tmp_path)
        scene = generate_scene("ellipse", 64, seed=0)
        cfg = PipelineConfig(depth=2, seed=0, roi_k=3,
                             policy=ThresholdPolicy("percentile", 25.0))
        _, _, report = run_pipeline(scene.image, scene.tight_box, cfg)
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        cell = summary["cells"]["percentile=25.0|k=3|tight"]
        assert cell["runs"] == 1
        assert cell["mean_token_sparsity"] == pytest.approx(report.token_sparsity)

    def test_percentile_mean_sparsity(self, tmp_path):
        spec = _small_spec(seeds=5)
        summary = run_sweep(spec, tmp_path)
        cell = summary["cells"]["percentile=25.0|k=3|tight"]
        z = 16.0
        assert abs(cell["mean_token_sparsity"] - 0.25) <= 1.0 / z

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = _small_spec(perturbations=[PromptPerturbation("tight"),
                                          PromptPerturbation("misleading")])
        run_sweep(spec, tmp_path / "a")
        run_sweep(spec, tmp_path / "b")
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
            (tmp_path / "b" / "sweep.csv").read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()

    def test_bytes_equal_for_any_core_count(self, monkeypatch, tmp_path):
        # z = 144, and 108 kept at percentile 25: blocks over 96 tokens are pooled at two cores
        spec = _small_spec(seeds=1, size=192, policies=[ThresholdPolicy("percentile", 25.0),
                                                        ThresholdPolicy("percentile", 50.0)],
                           perturbations=[PromptPerturbation("tight"),
                                          PromptPerturbation("misleading")])
        for cores in (1, 2):
            monkeypatch.setattr(numerics, "_CORES", cores)
            run_sweep(spec, tmp_path / str(cores))
        for name in ("sweep.csv", "summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_csv_values_are_plain_floats(self, tmp_path):
        run_sweep(_small_spec(seeds=1), tmp_path)
        content = (tmp_path / "sweep.csv").read_text()
        assert "np.float64" not in content
        assert "np.int64" not in content

    def test_tight_box_fields_are_python_floats(self):
        box = generate_scene("ellipse", 64, seed=0).tight_box
        for v in (box.x1, box.y1, box.x2, box.y2):
            assert type(v) is float

    def test_rows_carry_provenance(self, tmp_path):
        import csv as csvmod

        spec = _small_spec(policies=[ThresholdPolicy("percentile", 25.0),
                                     ThresholdPolicy("fixed", 0.3)],
                           k_values=[3, 5], seeds=2)
        run_sweep(spec, tmp_path)
        with open(tmp_path / "sweep.csv") as f:
            rows = list(csvmod.DictReader(f))
        assert len(rows) == 2 * 2 * 1 * 2
        for row in rows:
            assert row["policy_mode"] in ("percentile", "fixed")
            assert row["k"] in ("3", "5")
            assert row["perturbation"] == "tight"
            assert row["seed"] != ""

    def test_cell_failure_recorded_and_sweep_continues(self, tmp_path):
        # patch size 24 does not divide 64: every cell fails but the sweep
        # still writes its report
        spec = _small_spec(pipeline=PipelineConfig(depth=2, patch_size=24, seed=0))
        summary = run_sweep(spec, tmp_path)
        assert summary["failed_rows"] == 3
        assert (tmp_path / "sweep.csv").exists()
        content = (tmp_path / "sweep.csv").read_text()
        assert "ConfigurationError" in content

    @pytest.mark.parametrize("k", [0, 20000])  # k = 20000 would pool a 40000^2-sample lattice
    def test_bad_k_is_an_error_row(self, tmp_path, k):
        spec = _small_spec(k_values=[k, 3], seeds=2)
        summary = run_sweep(spec, tmp_path)
        assert summary["total_rows"] == 4 and summary["failed_rows"] == 2
        with open(tmp_path / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["k"] for r in rows if r["error"]] == [str(k), str(k)]
        assert all(r["error"].startswith("ConfigurationError: roi_k") for r in rows if r["error"])

    def test_spec_from_dict(self):
        spec = sweep_spec_from_dict({
            "policies": [{"mode": "percentile", "value": 50}],
            "k_values": [5],
            "perturbations": [{"kind": "oversized"}, {"kind": "partial", "magnitude": 0.25}],
            "seeds": 2,
            "size": 64,
            "pipeline": {"depth": 2},
        })
        assert spec.perturbations[0].magnitude == 0.5  # default severity
        assert spec.perturbations[1].magnitude == 0.25
        assert spec.pipeline.depth == 2

    def test_empty_lists_rejected(self):
        with pytest.raises(ConfigurationError):
            _small_spec(k_values=[])

    def test_rows_up_to_the_bound_accepted(self):
        spec = _small_spec(k_values=[3, 5], seeds=prato.synth.MAX_SWEEP_ROWS // 2)
        assert len(spec.k_values) * spec.seeds == prato.synth.MAX_SWEEP_ROWS

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            _small_spec(base_seed=-1)

    @pytest.mark.parametrize("change, message", [
        ({"k_values": None}, "^sweep spec is missing fields: k_values$"),
        ({"policies": None, "seeds": None}, "^sweep spec is missing fields: policies, seeds$"),
        ({"sizee": 64}, "^unknown sweep spec fields: sizee$"),
        ({"policies": [{"value": 25}]}, "^bad sweep spec value: policy is missing fields: mode$"),
        ({"perturbations": [{}]}, "^bad sweep spec value: perturbation is missing fields: kind$"),
        ({"perturbations": [{"kind": "oversized", "magnitdue": 0.9}]},
         "^bad sweep spec value: unknown perturbation fields: magnitdue$"),
        ({"policies": [{"mode": "percentile", "value": 25, "tau": 1, "extra": 2}]},
         "^bad sweep spec value: unknown policy fields: extra, tau$"),
        ({"k_values": ["three"]}, "bad sweep spec value"),
        ({"seeds": [2]}, "bad sweep spec value"),
        ({"policies": ["percentile"]}, "bad sweep spec value"),
        ({"perturbations": [["tight"]]}, "bad sweep spec value"),
        ({"k_values": [3.9]}, "bad sweep spec value: k_values must be an integer, got 3.9"),
        ({"seeds": 2.5}, "seeds must be an integer, got 2.5"),
        ({"seeds": True}, "seeds must be an integer, got True"),
        ({"size": 64.7}, "size must be an integer, got 64.7"),
        ({"base_seed": "0"}, "base_seed must be an integer, got '0'"),
        ({"pipeline": {"stage_indices": [1.6]}}, "stage_indices must be an integer, got 1.6"),
        ({"policies": [{"mode": "percentile", "value": True}]}, "value must be a finite number, got True"),
        ({"policies": [{"mode": "percentile", "value": "25"}]}, "value must be a finite number, got '25'"),
        ({"perturbations": [{"kind": "oversized", "magnitude": math.inf}]},
         "magnitude must be a finite number, got inf"),
        ({"perturbations": [{"kind": "oversized", "magnitude": "0.5"}]},
         "magnitude must be a finite number, got '0.5'"),
        ({"perturbations": [{"kind": "partial", "magnitude": False}]},
         "magnitude must be a finite number, got False"),
        ({"size": 8}, r"scene size 8 must lie in \[16, 4096\]"),
        ({"size": 4097}, r"scene size 4097 must lie in \[16, 4096\]"),
        ({"target_kind": "circle"}, "unknown target kind 'circle'"),
        ({"target_kind": 7}, "unknown target kind 7"),
        ({"seeds": 10**9}, r"^sweep has 1000000000 rows \(cells x seeds\), more than 100000$"),
        ({"k_values": [3, 5], "seeds": 50_001}, "sweep has 100002 rows"),
    ])
    def test_spec_from_dict_rejects(self, change, message):
        spec = {"policies": [{"mode": "percentile", "value": 25}], "k_values": [3],
                "perturbations": [{"kind": "tight"}], "seeds": 1}
        spec.update(change)
        with pytest.raises(ConfigurationError, match=message):
            sweep_spec_from_dict({k: v for k, v in spec.items() if v is not None})

    def test_spec_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="JSON object, got list"):
            sweep_spec_from_dict([{"seeds": 1}])


def _reference_sweep_csv(spec) -> bytes:
    """Every cell from scratch, in row order policy, k, perturbation, seed."""
    out = io.StringIO(newline="")
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for policy in spec.policies:
        for k in spec.k_values:
            for pert in spec.perturbations:
                for s in range(spec.seeds):
                    seed = spec.base_seed ^ s
                    scene = generate_scene(spec.target_kind, spec.size, seed)
                    box = perturb_prompt(scene.tight_box, pert, make_rng(seed ^ 0x5EED))
                    cfg = replace(spec.pipeline, policy=policy, roi_k=k, seed=seed)
                    row = dict.fromkeys(CSV_COLUMNS, "")
                    row.update(policy_mode=policy.mode, policy_value=repr(policy.value), k=k,
                               perturbation=pert.kind, magnitude=repr(pert.magnitude), seed=seed)
                    try:
                        pruned, _, report = run_pipeline(scene.image, box, cfg)
                    except Exception as exc:
                        row["error"] = f"{type(exc).__name__}: {exc}"
                        writer.writerow(row)
                        continue
                    gh, gw = pruned.grid_h, pruned.grid_w
                    used = token_in_box_mask(gh, gw, map_box_to_grid(box, gh, gw))
                    tight = token_in_box_mask(gh, gw, map_box_to_grid(scene.tight_box, gh, gw))
                    in_d, out_d, orig_d = _retention_densities(pruned, used, tight)
                    row.update(
                        Z=report.tokens_full, retained_final=pruned.retained_count,
                        token_sparsity=repr(report.token_sparsity),
                        flops_full=report.flops_full, flops_pruned=report.flops_pruned,
                        flops_reduction=repr(report.flops_reduction),
                        in_box_density=repr(in_d), out_box_density=repr(out_d),
                        original_box_density=repr(orig_d),
                        box_iou_with_tight=repr(box_iou(box, scene.tight_box)),
                    )
                    writer.writerow(row)
    return out.getvalue().encode()


# a cell that keeps no token fails after the prefix; patch size 24 fails the prefix itself;
# stages 0 and 2 of 4 run each cell through blocks 1 and 2, between the stages, and not block 3
_FAILING_SPECS = {
    "cell": dict(policies=[ThresholdPolicy("percentile", 25.0), ThresholdPolicy("fixed", 0.999999)],
                 k_values=[3, 5], seeds=2, base_seed=5,
                 perturbations=[PromptPerturbation("tight"), PromptPerturbation("partial", 0.5)],
                 pipeline=PipelineConfig(depth=3, stage_indices=(0, 1), seed=0)),
    "prefix": dict(k_values=[3, 5], seeds=2,
                   pipeline=PipelineConfig(depth=2, patch_size=24, seed=0)),
    "stages": dict(policies=[ThresholdPolicy("percentile", 25.0), ThresholdPolicy("percentile", 50.0),
                             ThresholdPolicy("fixed", 0.999999)],
                   k_values=[3, 5], seeds=2, base_seed=9,
                   perturbations=[PromptPerturbation("tight"), PromptPerturbation("oversized", 0.5),
                                  PromptPerturbation("misleading")],
                   pipeline=PipelineConfig(depth=4, stage_indices=(0, 2), seed=0)),
}


class TestSweepPrefixReuse:
    @pytest.mark.parametrize("failing", sorted(_FAILING_SPECS))
    def test_matches_per_cell_reference(self, tmp_path, failing):
        spec = _small_spec(**_FAILING_SPECS[failing])
        summary = run_sweep(spec, tmp_path)
        assert summary["failed_rows"] > 0
        assert (tmp_path / "sweep.csv").read_bytes() == _reference_sweep_csv(spec)

    @pytest.mark.parametrize("failing", ["cell", "stages"])
    def test_bytes_equal_when_the_prefix_keeps_no_scoring(self, tmp_path, monkeypatch, failing):
        spec = _small_spec(**_FAILING_SPECS[failing])  # some cells failing
        run_sweep(spec, tmp_path / "kept")
        real = prato.synth.encode_prefix

        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        def forgetful(*args, **kwargs):  # every cell pools and scores its own region
            prefix = real(*args, **kwargs)
            object.__setattr__(prefix, "scored", Forgetful())
            return prefix

        monkeypatch.setattr(prato.synth, "encode_prefix", forgetful)
        run_sweep(spec, tmp_path / "forgot")
        for name in ("sweep.csv", "summary.json"):
            assert (tmp_path / "forgot" / name).read_bytes() == \
                (tmp_path / "kept" / name).read_bytes()

    @pytest.mark.parametrize("failing", sorted(_FAILING_SPECS))
    def test_shared_work_runs_once_per_seed(self, tmp_path, monkeypatch, failing):
        calls, built, results, block_rows = {}, [], [], {}

        def counting(module, name, seen=None):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                out = real(*args, **kwargs)
                if seen is not None:
                    seen(args, out)
                return out

            monkeypatch.setattr(module, name, wrapper)

        def block_of(args, out):  # (seed index, block index): rows of each encode_tokens call
            b = next(b for b, w in enumerate(built[-1].blocks) if w is args[1])
            block_rows.setdefault((len(built) - 1, b), []).append(len(args[0]))

        counting(prato.synth, "generate_scene")
        counting(prato.synth, "encode_prefix")
        counting(prato.synth, "run_pipeline", lambda args, out: results.append((len(built) - 1, out)))
        counting(prato.pipeline, "build_pipeline_weights", lambda args, out: built.append(out))
        counting(prato.pipeline, "encode_tokens", block_of)
        counting(prato.pipeline, "roi_align")
        spec = _small_spec(**_FAILING_SPECS[failing])
        summary = run_sweep(spec, tmp_path)
        n_cells = len(spec.policies) * len(spec.k_values) * len(spec.perturbations)
        regions = len(spec.k_values) * len(spec.perturbations)
        cfg = spec.pipeline
        assert calls["generate_scene"] == spec.seeds
        assert calls["encode_prefix"] == spec.seeds
        if failing == "prefix":  # no cell retries the failed prefix
            assert "run_pipeline" not in calls and "build_pipeline_weights" not in calls
            return
        assert calls["build_pipeline_weights"] == spec.seeds
        # per seed, one run_pipeline call per cell
        assert calls["run_pipeline"] == spec.seeds * n_cells
        assert len(results) == summary["total_rows"] - summary["failed_rows"]
        # cells run region by region, so each region pools once per seed at the first stage;
        # the failing cells keep no token there, and each ok cell pools at each later stage
        assert calls["roi_align"] == spec.seeds * regions + len(results) * (len(cfg.stage_indices) - 1)
        first = cfg.stage_indices[0]
        for s in range(spec.seeds):
            per_seed = [out for seed, out in results if seed == s]
            z = per_seed[0][2].tokens_full
            # the prefix blocks run once per seed
            for b in range(first + 1):
                assert block_rows[s, b] == [z]
            # a block up to the last stage runs once per ok cell, in run order, on that cell's
            # live tokens; the failing cells stop at the first stage, and no block after the
            # last stage runs, since no row reads a token
            for b in range(first + 1, cfg.depth):
                if b > cfg.stage_indices[-1]:
                    assert (s, b) not in block_rows
                    continue
                last = max(i for i, stage in enumerate(cfg.stage_indices) if stage < b)
                assert block_rows[s, b] == [report.tokens_retained[last] for _, _, report in per_seed]
        assert calls["encode_tokens"] == sum(map(len, block_rows.values()))


_PERTURBATIONS = [PromptPerturbation("tight"), PromptPerturbation("oversized", 0.5),
                  PromptPerturbation("partial", 0.5), PromptPerturbation("misleading")]


def _cells_spec(n_policies, **overrides):
    """``n_policies`` x 2 k x 4 perturbations: 8 regions, whatever the cell count."""
    return _small_spec(policies=[ThresholdPolicy("percentile", 10.0 * (q + 1)) for q in range(n_policies)],
                       k_values=[3, 5], perturbations=_PERTURBATIONS, **overrides)


class TestSweepScale:
    def test_a_64_cell_sweep_pools_each_region_once_per_seed(self, tmp_path, monkeypatch):
        spec = _cells_spec(8, seeds=2)
        pools, real = [], prato.pipeline.roi_align
        monkeypatch.setattr(prato.pipeline, "roi_align", lambda *a, **kw: pools.append(1) or real(*a, **kw))
        summary = run_sweep(spec, tmp_path)
        assert summary["total_rows"] == 64 * 2 and summary["failed_rows"] == 0
        assert len(pools) == 8 * 2  # one stage: each of the 8 regions once per seed
        monkeypatch.undo()
        assert (tmp_path / "sweep.csv").read_bytes() == _reference_sweep_csv(spec)

    def test_peak_memory_does_not_grow_with_the_cell_count(self, tmp_path):
        # At 256x256 and Z = 256 a cell's result holds about 0.1 MiB: 48 more results in flight
        # would add about 5 MiB to a peak of about 4.5 MiB. The slack covers the 48 more rows.
        peaks = {}
        for n_policies in (2, 8):  # 16 and 64 cells
            spec = _cells_spec(n_policies, seeds=1, size=256)
            tracemalloc.start()
            try:
                run_sweep(spec, tmp_path / str(n_policies))
                peaks[n_policies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= 1.05 * peaks[2], peaks

"""Scene generator and sweep harness tests."""

import csv
import io
import math
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
)
from prato.prune import ThresholdPolicy
from prato.synth import (
    AREA_BOUNDS,
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


class TestGenerateScene:
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

    def test_bad_k_is_an_error_row(self, tmp_path):
        spec = _small_spec(k_values=[0, 3], seeds=2)
        summary = run_sweep(spec, tmp_path)
        assert summary["total_rows"] == 4 and summary["failed_rows"] == 2
        with open(tmp_path / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["k"] for r in rows if r["error"]] == ["0", "0"]
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

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            _small_spec(base_seed=-1)

    @pytest.mark.parametrize("change, message", [
        ({"k_values": None}, "sweep spec is missing keys: k_values"),
        ({"policies": None, "seeds": None}, "sweep spec is missing keys: policies, seeds"),
        ({"sizee": 64}, "unknown sweep spec keys: sizee"),
        ({"policies": [{"value": 25}]}, "sweep spec record is missing field 'mode'"),
        ({"perturbations": [{}]}, "sweep spec record is missing field 'kind'"),
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
                    in_d, out_d, orig_d = _retention_densities(pruned, box, scene.tight_box)
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


# a cell that keeps no token fails after the prefix; patch size 24 fails the prefix itself
_FAILING_SPECS = {
    "cell": dict(policies=[ThresholdPolicy("percentile", 25.0), ThresholdPolicy("fixed", 0.999999)],
                 k_values=[3, 5], seeds=2, base_seed=5,
                 perturbations=[PromptPerturbation("tight"), PromptPerturbation("partial", 0.5)],
                 pipeline=PipelineConfig(depth=3, stage_indices=(0, 1), seed=0)),
    "prefix": dict(k_values=[3, 5], seeds=2,
                   pipeline=PipelineConfig(depth=2, patch_size=24, seed=0)),
}


class TestSweepPrefixReuse:
    @pytest.mark.parametrize("failing", sorted(_FAILING_SPECS))
    def test_matches_per_cell_reference(self, tmp_path, failing):
        spec = _small_spec(**_FAILING_SPECS[failing])
        summary = run_sweep(spec, tmp_path)
        assert summary["failed_rows"] > 0
        assert (tmp_path / "sweep.csv").read_bytes() == _reference_sweep_csv(spec)

    @pytest.mark.parametrize("per_call", [1, 3])
    def test_bytes_equal_for_any_cells_per_call(self, tmp_path, monkeypatch, per_call):
        spec = _small_spec(**_FAILING_SPECS["cell"])  # 8 cells a seed, some failing
        run_sweep(spec, tmp_path / "one_call")
        monkeypatch.setattr(prato.synth, "SWEEP_CELLS", per_call)
        run_sweep(spec, tmp_path / "chunked")
        for name in ("sweep.csv", "summary.json"):
            assert (tmp_path / "chunked" / name).read_bytes() == \
                (tmp_path / "one_call" / name).read_bytes()

    @pytest.mark.parametrize("per_call", [prato.synth.SWEEP_CELLS, 3])
    @pytest.mark.parametrize("failing", sorted(_FAILING_SPECS))
    def test_shared_work_runs_once_per_seed(self, tmp_path, monkeypatch, failing, per_call):
        monkeypatch.setattr(prato.synth, "SWEEP_CELLS", per_call)
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
        counting(prato.synth, "run_pipeline", lambda args, out: results.append(out))
        counting(prato.pipeline, "build_pipeline_weights", lambda args, out: built.append(out))
        counting(prato.pipeline, "encode_tokens", block_of)
        spec = _small_spec(**_FAILING_SPECS[failing])
        summary = run_sweep(spec, tmp_path)
        n_cells = len(spec.policies) * len(spec.k_values) * len(spec.perturbations)
        cfg = spec.pipeline
        assert calls["generate_scene"] == spec.seeds
        assert calls["encode_prefix"] == spec.seeds
        if failing == "prefix":  # no cell retries the failed prefix
            assert "run_pipeline" not in calls and "build_pipeline_weights" not in calls
            return
        assert calls["build_pipeline_weights"] == spec.seeds
        # per seed, one run_pipeline call per SWEEP_CELLS cells, holding those cells
        chunks = [min(per_call, n_cells - i) for i in range(0, n_cells, per_call)]
        assert calls["run_pipeline"] == spec.seeds * len(chunks)
        assert [len(out) for out in results] == chunks * spec.seeds
        first = cfg.stage_indices[0]
        ok = [[r for r in out if not isinstance(r, Exception)] for out in results]
        assert sum(map(len, ok)) == summary["total_rows"] - summary["failed_rows"]
        for s in range(spec.seeds):
            per_seed = ok[s * len(chunks):(s + 1) * len(chunks)]
            z = per_seed[0][0][2].tokens_full
            # the prefix blocks run once per seed
            for b in range(first + 1):
                assert block_rows[s, b] == [z]
            # a later block runs each ok cell's live tokens once, one call per live count of
            # each call's cells; the failing cells stop at the first stage
            for b in range(first + 1, cfg.depth):
                last = max(i for i, stage in enumerate(cfg.stage_indices) if stage < b)
                live = [[report.tokens_retained[last] for _, _, report in out] for out in per_seed]
                assert sum(block_rows[s, b]) == sum(map(sum, live))
                assert len(block_rows[s, b]) == sum(len(set(counts)) for counts in live)
        assert calls["encode_tokens"] == sum(map(len, block_rows.values()))

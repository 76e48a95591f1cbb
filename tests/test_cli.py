"""CLI surface tests: subcommands, flags, config files, env override."""

import json

import numpy as np
import pytest

from prato.cli import main
from prato.synth import generate_scene, save_scene


@pytest.fixture()
def scene_files(tmp_path):
    scene = generate_scene("ellipse", 64, seed=0)
    entry = save_scene(scene, tmp_path, 0)
    return tmp_path / entry["image"], tmp_path / entry["box"]


class TestSynthCommand:
    def test_writes_scenes(self, tmp_path, capsys):
        out = tmp_path / "scenes"
        rc = main(["synth", "--out", str(out), "--count", "2", "--size", "64",
                   "--kind", "rectangle", "--seed", "7"])
        assert rc == 0
        manifest = json.loads((out / "scenes.json").read_text())
        assert len(manifest) == 2
        for entry in manifest:
            assert (out / entry["image"]).exists()
            assert (out / entry["truth"]).exists()
            assert (out / entry["box"]).exists()


class TestPruneCommand:
    def test_prints_cost_report(self, scene_files, capsys):
        image, box = scene_files
        rc = main(["prune", "--image", str(image), "--box", str(box), "--seed", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["Z"] == 16
        assert report["flops_pruned"] <= report["flops_full"]

    def test_flags_override(self, scene_files, capsys):
        image, box = scene_files
        rc = main(["prune", "--image", str(image), "--box", str(box),
                   "--tau-mode", "percentile", "--tau-value", "50",
                   "--roi-k", "3", "--seed", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["token_sparsity"] - 0.5) <= 1 / 16

    def test_config_file(self, scene_files, tmp_path, capsys):
        image, box = scene_files
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"depth": 2, "tau_mode": "percentile",
                                        "tau_value": 75, "seed": 5}))
        rc = main(["prune", "--image", str(image), "--box", str(box),
                   "--config", str(cfg_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["retained"] == [4]  # ceil(16 * 25 / 100)

    def test_env_seed_override(self, scene_files, capsys, monkeypatch):
        image, box = scene_files

        def run(env_seed):
            if env_seed is None:
                monkeypatch.delenv("PRATO_SEED", raising=False)
            else:
                monkeypatch.setenv("PRATO_SEED", str(env_seed))
            assert main(["prune", "--image", str(image), "--box", str(box),
                         "--seed", "3"]) == 0
            return json.loads(capsys.readouterr().out)

        base = run(None)
        overridden = run(12345)
        same = run(12345)
        assert overridden == same
        assert base["Z"] == overridden["Z"]

    def test_csv_plane_input(self, tmp_path, capsys):
        scene = generate_scene("ellipse", 64, seed=1)
        plane_path = tmp_path / "plane.csv"
        np.savetxt(plane_path, scene.image[0], delimiter=",")
        box_path = tmp_path / "box.json"
        box_path.write_text(json.dumps(scene.tight_box.to_dict()))
        rc = main(["prune", "--image", str(plane_path), "--box", str(box_path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["Z"] == 16


class TestErrors:
    def test_missing_file_is_one_line(self, scene_files, tmp_path, capsys):
        _, box = scene_files
        rc = main(["prune", "--image", str(tmp_path / "missing.prti"), "--box", str(box)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("prato: error: ") and "missing.prti" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["prune", "synth", "sweep"])
    def test_negative_env_seed_is_one_line(self, scene_files, tmp_path, capsys, monkeypatch,
                                           command):
        image, box = scene_files
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"policies": [{"mode": "percentile", "value": 25}],
                                         "k_values": [3], "perturbations": [{"kind": "tight"}],
                                         "seeds": 1, "size": 64}))
        argv = {
            "prune": ["prune", "--image", str(image), "--box", str(box)],
            "synth": ["synth", "--out", str(tmp_path / "scenes"), "--count", "1", "--size", "64"],
            "sweep": ["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "out")],
        }[command]
        monkeypatch.setenv("PRATO_SEED", "-1")
        assert main(argv) == 2
        assert capsys.readouterr().err == "prato: error: PRATO_SEED must be >= 0, got -1\n"

    def test_negative_seed_flag_rejected(self, scene_files):
        image, box = scene_files
        with pytest.raises(SystemExit) as exc:
            main(["prune", "--image", str(image), "--box", str(box), "--seed", "-1"])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_runs_spec(self, tmp_path, capsys):
        spec = {
            "policies": [{"mode": "percentile", "value": 25}],
            "k_values": [3],
            "perturbations": [{"kind": "tight"}],
            "seeds": 2,
            "size": 64,
            "pipeline": {"depth": 2},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        rc = main(["sweep", "--spec", str(spec_path), "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["failed_rows"] == 0
        assert (out / "sweep.csv").exists()
        assert (out / "summary.json").exists()


class TestCheckCommand:
    def test_check_passes(self, capsys):
        rc = main(["check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("ok") >= 10

"""CLI surface tests: subcommands, flags, config files, env override."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prato import selfcheck
from prato.cli import main
from prato.synth import generate_scene, save_scene


@pytest.fixture()
def scene_files(tmp_path):
    scene = generate_scene("ellipse", 64, seed=0)
    entry = save_scene(scene, tmp_path, 0)
    return tmp_path / entry["image"], tmp_path / entry["box"]


@pytest.fixture(scope="module")
def fuzz_grammar(tmp_path_factory):
    """Per subcommand, each flag's (good values, bad values) for the argv fuzz."""
    root = tmp_path_factory.mktemp("fuzz")
    entry = save_scene(generate_scene("ellipse", 64, seed=0), root, 0)
    image, box = str(root / entry["image"]), str(root / entry["box"])
    files = {"config.json": '{"depth": 1}', "bad.json": "{", "bad.csv": "1,2\nfoo,3\n",
             "spec.json": json.dumps({"policies": [{"mode": "percentile", "value": 25}],
                                      "k_values": [3], "perturbations": [{"kind": "tight"}],
                                      "seeds": 1, "size": 32})}
    for name, text in files.items():
        (root / name).write_text(text)
    path = {name: str(root / name) for name in files}
    out, missing = str(root / "out"), str(root / "missing")
    ints = ["0", "-1", "x", "1.5", ""]
    seeds = (["0", "7"], ints)
    return {
        "synth": {"--out": ([out], [image]), "--count": (["1", "2"], ints),
                  "--size": (["16", "32"], ["15", "100000", *ints]),
                  "--kind": (["ellipse", "rectangle", "blob"], ["disc"]), "--seed": seeds},
        "prune": {"--image": ([image], [box, path["bad.csv"], missing]),
                  "--box": ([box], [image, path["bad.json"], missing]),
                  "--config": ([path["config.json"]],
                               [path["bad.json"], path["spec.json"], image, box, missing]),
                  "--patch-size": (["8", "16"], ["1000", *ints]), "--roi-k": (["2", "3"], ints),
                  "--tau-mode": (["fixed", "percentile"], ["median"]),
                  "--tau-value": (["0.5", "50"], ["nan", "inf", "-3", "100", *ints]),
                  "--seed": seeds},
        "sweep": {"--spec": ([path["spec.json"]],
                             [path["config.json"], path["bad.json"], image, box, missing]),
                  "--out": ([out], [image])},
        "check": {},
    }


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

    def test_bad_patch_size_is_one_line(self, scene_files, capsys):
        image, box = scene_files
        rc = main(["prune", "--image", str(image), "--box", str(box), "--patch-size", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "prato: error: patch_size must be > 0, got 0\n"

    def test_unknown_config_key_is_one_line(self, scene_files, tmp_path, capsys):
        image, box = scene_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tau_vlaue": 30}))
        rc = main(["prune", "--image", str(image), "--box", str(box), "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().err == "prato: error: unknown config keys: tau_vlaue\n"

    @pytest.mark.parametrize("argv, spec", [
        (["synth", "--size", "0", "--count", "1"], None),
        (["synth", "--size", "100000", "--count", "1"], None),
        (["synth", "--count", "0"], None),
        (["sweep"], {"k_values": None}),
        (["sweep"], {"sizee": 64}),
        (["sweep"], {"policies": [{"value": 25}]}),
        (["prune"], [0.1, 0.1, 0.5, 0.5]),
        (["prune"], {"x1": "a", "y1": 0.1, "x2": 0.5, "y2": 0.5}),
        (["prune"], {"x1": None, "y1": 0.1, "x2": 0.5, "y2": 0.5}),
        (["prune"], {"x1": False, "y1": False, "x2": True, "y2": True}),
        (["prune"], {"x1": "0.1", "y1": 0.1, "x2": 0.5, "y2": 0.5}),
        (["prune", "--config"], {"ln_eps": True}),
        (["prune", "--config"], {"ln_eps": "1e-3"}),
        (["prune", "--config"], {"ln_eps": math.inf}),
        (["prune", "--config"], {"ln_eps": 10**400}),
        (["prune", "--config"], {"tau_value": True}),
        (["sweep"], {"policies": [{"mode": "percentile", "value": True}]}),
        (["sweep"], {"perturbations": [{"kind": "oversized", "magnitude": math.inf}]}),
        (["sweep"], {"perturbations": [{"kind": "oversized", "magnitude": "0.5"}]}),
    ], ids=["synth-size-0", "synth-size-huge", "synth-count-0", "spec-missing-key",
            "spec-unknown-key", "spec-policy-without-mode", "box-list", "box-text-coordinate",
            "box-null-coordinate", "box-bool-coordinates", "box-numeric-text-coordinate",
            "config-bool-ln-eps", "config-text-ln-eps", "config-infinite-ln-eps",
            "config-huge-int-ln-eps", "config-bool-tau-value", "spec-bool-policy-value",
            "spec-infinite-magnitude", "spec-text-magnitude"])
    def test_bad_input_is_one_line(self, scene_files, tmp_path, capsys, argv, spec):
        if argv[0] == "prune":  # spec is the box record, or with --config the config
            path = tmp_path / "record.json"
            path.write_text(json.dumps(spec))
            image, box = scene_files
            config = argv[1:] + [str(path)] if argv[1:] else []
            argv = ["prune", "--image", str(image), "--box", str(box if config else path), *config]
        elif spec is not None:
            full = {"policies": [{"mode": "percentile", "value": 25}], "k_values": [3],
                    "perturbations": [{"kind": "tight"}], "seeds": 1, "size": 64, **spec}
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({k: v for k, v in full.items() if v is not None}))
            argv = argv + ["--spec", str(path), "--out", str(tmp_path / "out")]
        else:
            argv = argv + ["--out", str(tmp_path / "out")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("prato: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--config", "--box", "--spec"])
    @pytest.mark.parametrize("text", ["{", "\xff"], ids=["truncated", "not-utf8"])
    def test_malformed_json_is_one_line(self, scene_files, tmp_path, capsys, flag, text):
        image, box = scene_files
        bad = tmp_path / "bad.json"
        bad.write_bytes(text.encode("latin-1"))
        argv = {"--config": ["prune", "--image", str(image), "--box", str(box), "--config", str(bad)],
                "--box": ["prune", "--image", str(image), "--box", str(bad)],
                "--spec": ["sweep", "--spec", str(bad), "--out", str(tmp_path / "out")]}[flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"prato: error: {bad}: not valid JSON: ") and err.count("\n") == 1

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_argv_exits_cleanly(self, fuzz_grammar, data):
        command = data.draw(st.sampled_from([*fuzz_grammar, "bogus"]), label="command")
        flags = fuzz_grammar.get(command, {})
        # every flag good, but for at most two that get a bad value, no value or none at all
        broken = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)
                           if flags else st.just([]), label="broken")
        argv = [command]
        for flag, (good, bad) in flags.items():
            how = data.draw(st.sampled_from(["bad", "no value", "omit"]), label=flag) \
                if flag in broken else "good"
            if how != "omit":
                argv.append(flag)
            if how in ("good", "bad"):
                argv.append(data.draw(st.sampled_from(good if how == "good" else bad)))
        # no stray positional: after a flag left without a value it would become an --out path
        argv += data.draw(st.lists(st.sampled_from(["--nope", "--help"]), max_size=1))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                rc = exc.code
            else:
                assert rc in (0, 1) or err.getvalue().startswith("prato: error: ")
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

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
        assert out.splitlines() == [f"ok   {name}" for name, _ in selfcheck.CHECKS]

    def test_check_prints_each_failure(self, capsys, monkeypatch):
        def broken(rng):
            raise RuntimeError("boom")

        monkeypatch.setattr(selfcheck, "CHECKS", [("raises", broken), ("false", lambda rng: False),
                                                  ("true", lambda rng: True)])
        assert main(["check"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL raises: RuntimeError: boom", "FAIL false", "ok   true"]

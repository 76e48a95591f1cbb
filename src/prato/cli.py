"""Command line front end.

Subcommands:
  synth  generate synthetic scenes to disk
  prune  run the pipeline on one image + box and print the cost report
  sweep  run a sweep spec and write CSV / JSON summaries
  check  run the built-in oracle and property suites

A JSON config file supplies pipeline fields; the PRATO_SEED environment
variable overrides the configured seed everywhere. Library errors and
file errors print one line, ``prato: error: <message>``, and exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .errors import ConfigurationError, PratoError
from .numerics import load_json, open_new
from .pipeline import PipelineConfig, config_from_dict, run_pipeline
from .prune import ThresholdPolicy
from .roi import load_box
from .synth import generate_scene, run_sweep, save_scene, sweep_spec_from_dict
from .tokens import load_image, load_plane_csv


def _seed(text, name: str = "seed") -> int:
    """A seed given on the command line or in PRATO_SEED: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise ConfigurationError(f"{name} must be an integer, got {text!r}") from None
    if seed < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {seed}")
    return seed


def _env_seed():
    text = os.environ.get("PRATO_SEED")
    return None if text is None else _seed(text, "PRATO_SEED")


def _load_config(path) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return config_from_dict(load_json(path))


def _apply_overrides(cfg: PipelineConfig, args) -> PipelineConfig:
    kwargs = {}
    if getattr(args, "patch_size", None) is not None:
        kwargs["patch_size"] = args.patch_size
    if getattr(args, "roi_k", None) is not None:
        kwargs["roi_k"] = args.roi_k
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    mode = getattr(args, "tau_mode", None)
    value = getattr(args, "tau_value", None)
    if mode is not None or value is not None:
        kwargs["policy"] = ThresholdPolicy(
            mode or cfg.policy.mode,
            value if value is not None else cfg.policy.value,
        )
    env_seed = _env_seed()
    if env_seed is not None:
        kwargs["seed"] = env_seed
    return replace(cfg, **kwargs) if kwargs else cfg


def _cmd_synth(args) -> int:
    if args.count < 1:
        raise ConfigurationError(f"--count must be >= 1, got {args.count}")
    env_seed = _env_seed()
    seed = args.seed if env_seed is None else env_seed
    manifest = []
    for i in range(args.count):
        scene = generate_scene(args.kind, args.size, seed=seed + i)
        manifest.append(save_scene(scene, args.out, i))
    with open_new(os.path.join(args.out, "scenes.json")) as f:
        json.dump(manifest, f, indent=2)
    print(f"wrote {len(manifest)} scenes to {args.out}")
    return 0


def _cmd_prune(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    if args.image.endswith(".csv"):
        image = load_plane_csv(args.image)
    else:
        image = load_image(args.image)
    box = load_box(args.box)
    _, _, report = run_pipeline(image, box, cfg)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    spec = sweep_spec_from_dict(load_json(args.spec))
    env_seed = _env_seed()
    if env_seed is not None:
        spec = replace(spec, base_seed=env_seed)
    summary = run_sweep(spec, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["failed_rows"] == 0 else 1


def _cmd_check(args) -> int:
    from .selfcheck import run_all

    return 0 if run_all(verbose=True) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prato",
                                     description="Prompt-driven adaptive token pruning")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic scenes to disk")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--count", type=int, default=10)
    p_synth.add_argument("--size", type=int, default=128)
    p_synth.add_argument("--kind", choices=("ellipse", "rectangle", "blob"), default="ellipse")
    p_synth.add_argument("--seed", type=_seed, default=0)
    p_synth.set_defaults(func=_cmd_synth)

    p_prune = sub.add_parser("prune", help="run one image + box and print the cost report")
    p_prune.add_argument("--image", required=True, help="image file (.prti) or CSV plane")
    p_prune.add_argument("--box", required=True, help="box prompt JSON file")
    p_prune.add_argument("--config", default=None, help="pipeline config JSON")
    p_prune.add_argument("--patch-size", dest="patch_size", type=int, default=None)
    p_prune.add_argument("--roi-k", dest="roi_k", type=int, default=None)
    p_prune.add_argument("--tau-mode", dest="tau_mode", choices=("fixed", "percentile"), default=None)
    p_prune.add_argument("--tau-value", dest="tau_value", type=float, default=None)
    p_prune.add_argument("--seed", type=_seed, default=None)
    p_prune.set_defaults(func=_cmd_prune)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec (JSON) and write CSV/JSON reports")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="run the built-in verification suites")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PratoError, OSError) as exc:
        print(f"prato: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

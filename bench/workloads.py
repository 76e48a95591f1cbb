"""The benchmark's workloads: inputs made from a seed, the timed call, and its output checks.

Every workload draws its calls from a fixed pool of inputs whose outputs
were recorded once in ``golden/<name>.json`` (``record_golden.py``
writes them). The run seed only chooses which part of the pool a run
walks, so any seed gives inputs whose outputs can be checked exactly.
All pipelines run in compact mask mode.

The library is reached only through module attributes (``pipeline.run_pipeline``
rather than an imported name), so the wrappers that ``spans.py`` installs
see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from prato import encoder, pipeline, synth, tokens
from prato.prune import ThresholdPolicy, retention_target

KINDS = synth.TARGET_KINDS
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Token values may differ from the recording by float64 rounding from a
# reordered computation, never by more than this share of the matching sum
# of magnitudes; any changed token, row or column order moves a sum far more.
TOKEN_RTOL = 1e-9


def token_fingerprint(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Four weighted sums of a token matrix, and the same sums over magnitudes.

    The row and column ramps make the sums see permuted rows or columns as
    well as changed values.
    """
    t = np.asarray(t, dtype=np.float64)
    rows = np.arange(1, t.shape[0] + 1, dtype=np.float64)[:, None]
    cols = np.arange(1, t.shape[1] + 1, dtype=np.float64)[None, :]
    a = np.abs(t)
    sq = t * t
    sums = np.array([t.sum(), sq.sum(), (rows * t).sum(), (cols * t).sum()])
    scale = np.array([a.sum(), sq.sum(), (rows * a).sum(), (cols * a).sum()])
    return sums, scale


def coords_digest(coords_list) -> str:
    h = hashlib.sha256()
    for c in coords_list:
        c = np.ascontiguousarray(c, dtype=np.int64)
        h.update(repr(c.shape).encode())
        h.update(c.tobytes())
    return h.hexdigest()


def exact_digest(arrays) -> str:
    """Bit-exact digest, for comparing the traced run's outputs with the untraced run's."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_result(pruned, report, cfg, z) -> list[str]:
    """Structural checks of one compact-mode pipeline result against its config."""
    problems = []
    expected, per_block, n = [], [], z
    for b in range(cfg.depth):
        per_block.append(n)
        if b in cfg.stage_indices:
            n = retention_target(n, cfg.policy.value)
            expected.append(n)
    if list(report.tokens_retained) != expected:
        problems.append(f"retained {report.tokens_retained} != retention_target chain {expected}")
    full, pruned_flops = pipeline.estimate_flops(z, cfg.embed_dim, cfg.depth, per_block)
    if (report.tokens_full, report.flops_full, report.flops_pruned) != (z, full, pruned_flops):
        problems.append(
            f"report Z/flops ({report.tokens_full}, {report.flops_full}, {report.flops_pruned}) "
            f"!= recount ({z}, {full}, {pruned_flops})"
        )
    if not math.isclose(report.flops_reduction, 1.0 - pruned_flops / full, rel_tol=1e-12):
        problems.append(f"flops_reduction {report.flops_reduction} disagrees with the recount")
    t = pruned.tokens
    if t.shape != (n, cfg.embed_dim):
        problems.append(f"tokens shaped {t.shape}, expected {(n, cfg.embed_dim)}")
    elif not np.isfinite(t).all():
        problems.append("tokens hold non-finite values")
    if pruned.retained_coords.shape != (n, 2):
        problems.append(f"retained_coords shaped {pruned.retained_coords.shape}, expected {(n, 2)}")
    return problems


def tokens_entry(results) -> dict:
    """Golden entry of one call: coordinate digest plus token fingerprint over all its results."""
    sums, _ = token_fingerprint(np.vstack([p.tokens for p, _, _ in results]))
    return {"coords_sha256": coords_digest([p.retained_coords for p, _, _ in results]),
            "token_sums": [float(s) for s in sums]}


def check_tokens_entry(results, entry) -> list[str]:
    problems = []
    digest = coords_digest([p.retained_coords for p, _, _ in results])
    if digest != entry["coords_sha256"]:
        problems.append("retained_coords differ from the recording")
    sums, scale = token_fingerprint(np.vstack([p.tokens for p, _, _ in results]))
    err = np.abs(sums - np.asarray(entry["token_sums"]))
    if not (err <= TOKEN_RTOL * scale).all():
        problems.append(f"token sums off the recording by {(err / scale).max():.3g} of scale "
                        f"(tolerance {TOKEN_RTOL:g})")
    return problems


def unpruned_forward(img, cfg, weights) -> np.ndarray:
    """Tokenize, then ``depth`` encoder blocks at full Z: the pass pruning is compared against."""
    x = tokens.tokenize_image(img, weights.embedder, cfg.patch_size).tokens
    for block in weights.blocks:
        x = encoder.encode_tokens(x, block, residual=cfg.residual, ln_eps=cfg.ln_eps)
    return x


@dataclass
class Run:
    """Inputs of one run: the pool keys its calls walk, and what set-up built for them."""

    keys: list  # keys[k % len(keys)] is the pool key of call k
    scenes: dict = field(default_factory=dict)
    weights: object = None
    out_dir: Path = None

    def key(self, k: int) -> int:
        return self.keys[k % len(self.keys)]


class Workload:
    name: str
    item: str  # what throughput counts
    items_per_call: int
    pool: int  # number of distinct pool keys
    skipped_spans: frozenset  # traced functions this workload never reaches

    def __init__(self, golden_dir=GOLDEN_DIR):
        self.golden_path = Path(golden_dir) / f"{self.name}.json"

    def load_golden(self) -> dict:
        with open(self.golden_path) as f:
            data = json.load(f)
        if data["config"] != self.describe():
            raise ValueError(f"{self.golden_path} was recorded for another configuration")
        return data["entries"]

    def walk(self, seed: int) -> list:
        """The pool keys a run with this seed visits, in order; the walk wraps around."""
        rng = np.random.Generator(np.random.Philox(seed))
        offset = int(rng.integers(self.pool))
        return [(offset + k) % self.pool for k in range(self.pool)]

    def setup(self, seed: int) -> Run:
        """Build a run's inputs from its seed: the set-up that ``setup_s`` times."""
        return self.run_for(self.walk(seed))

    def run_for(self, keys) -> Run:
        """A run that walks ``keys``, with the inputs built that calls on them need."""
        raise NotImplementedError

    def call(self, run: Run, key: int):
        raise NotImplementedError

    def outcome(self, run: Run, key: int, out, golden: dict) -> tuple[str, list]:
        """Exact digest of a call's output, and the problems its checks found."""
        raise NotImplementedError

    def record(self, run: Run, key: int, out) -> dict:
        raise NotImplementedError

    def saving_cases(self, run: Run) -> list:
        """(image, box, config, weights) cases for timing pruned against unpruned passes."""
        raise NotImplementedError

    def finish(self, run: Run) -> None:
        """Remove whatever the run left on disk."""

    def describe(self) -> dict:
        raise NotImplementedError


class PruneZ1024(Workload):
    """Repeated ``run_pipeline`` on a rotating set of scenes with prebuilt default weights."""

    name = "prune-z1024"
    item = "pipeline runs"
    items_per_call = 1
    skipped_spans = frozenset({"pipeline.run_batch", "synth.run_sweep"})

    def __init__(self, size=512, pool=48, rotation=6, golden_dir=GOLDEN_DIR):
        super().__init__(golden_dir)
        self.size, self.pool, self.rotation = size, pool, rotation
        self.cfg = pipeline.PipelineConfig()

    def describe(self):
        return {"size": self.size, "pool": self.pool, "config": self.cfg.to_dict()}

    def walk(self, seed):
        # an equal share of each target kind; pool key p has kind KINDS[p % 3]
        rng = np.random.Generator(np.random.Philox(seed))
        per_kind = [rng.permutation(np.arange(i, self.pool, len(KINDS)))[: self.rotation // len(KINDS)]
                    for i in range(len(KINDS))]
        return [int(p) for group in zip(*per_kind) for p in group]

    def run_for(self, keys):
        scenes = {p: synth.generate_scene(KINDS[p % len(KINDS)], self.size, p) for p in keys}
        grid = self.size // self.cfg.patch_size
        weights = pipeline.build_pipeline_weights(self.cfg, 1, grid, grid)
        return Run(keys=list(keys), scenes=scenes, weights=weights)

    def call(self, run, key):
        s = run.scenes[key]
        return pipeline.run_pipeline(s.image, s.tight_box, self.cfg, run.weights)

    def outcome(self, run, key, out, golden):
        pruned, _, report = out
        z = (self.size // self.cfg.patch_size) ** 2
        problems = check_result(pruned, report, self.cfg, z)
        if not problems:
            problems = check_tokens_entry([out], golden[str(key)])
        return exact_digest([pruned.tokens, pruned.retained_coords]), problems

    def record(self, run, key, out):
        return tokens_entry([out])

    def saving_cases(self, run):
        return [(s.image, s.tight_box, self.cfg, run.weights) for s in run.scenes.values()]


class SweepZ256(Workload):
    """Repeated ``run_sweep`` of one scene seed: 2 policies x 2 k x 4 prompt perturbations."""

    name = "sweep-z256"
    item = "sweep cells"
    skipped_spans = frozenset({"pipeline.run_batch"})

    def __init__(self, size=256, pool=256, out_root=None, golden_dir=GOLDEN_DIR):
        super().__init__(golden_dir)
        self.size, self.pool = size, pool
        self.out_root = Path(out_root) if out_root else Path(__file__).resolve().parent / "out"
        self.spec = synth.SweepSpec(
            policies=[ThresholdPolicy("percentile", 25.0), ThresholdPolicy("percentile", 50.0)],
            k_values=[3, 5],
            perturbations=[
                pipeline.PromptPerturbation("tight"),
                pipeline.PromptPerturbation("oversized", 0.5),
                pipeline.PromptPerturbation("partial", 0.5),
                pipeline.PromptPerturbation("misleading"),
            ],
            seeds=1,
            size=size,
        )
        self.items_per_call = (len(self.spec.policies) * len(self.spec.k_values)
                               * len(self.spec.perturbations) * self.spec.seeds)

    def describe(self):
        s = self.spec
        return {"size": self.size, "pool": self.pool,
                "policies": [[p.mode, p.value] for p in s.policies], "k_values": s.k_values,
                "perturbations": [[p.kind, p.magnitude] for p in s.perturbations],
                "config": s.pipeline.to_dict()}

    def _spec(self, key):
        return replace(self.spec, base_seed=key, target_kind=KINDS[key % len(KINDS)])

    def run_for(self, keys):
        out_dir = self.out_root / f"sweep-{os.getpid()}"
        out_dir.mkdir(parents=True, exist_ok=True)
        return Run(keys=list(keys), out_dir=out_dir)

    def finish(self, run):
        shutil.rmtree(run.out_dir, ignore_errors=True)

    def call(self, run, key):
        return synth.run_sweep(self._spec(key), run.out_dir)

    def _digests(self, run):
        return (file_digest(run.out_dir / "sweep.csv"), file_digest(run.out_dir / "summary.json"))

    def outcome(self, run, key, out, golden):
        csv_d, summary_d = self._digests(run)
        problems = []
        if out["failed_rows"] != 0:
            problems.append(f"{out['failed_rows']} failed sweep rows")
        if out["total_rows"] != self.items_per_call:
            problems.append(f"{out['total_rows']} sweep rows, expected {self.items_per_call}")
        entry = golden[str(key)]
        if csv_d != entry["sweep_csv_sha256"]:
            problems.append("sweep.csv differs from the recording")
        if summary_d != entry["summary_json_sha256"]:
            problems.append("summary.json differs from the recording")
        return csv_d + summary_d, problems

    def record(self, run, key, out):
        if out["failed_rows"]:
            raise ValueError(f"sweep key {key} has {out['failed_rows']} failed rows")
        csv_d, summary_d = self._digests(run)
        return {"sweep_csv_sha256": csv_d, "summary_json_sha256": summary_d}

    def saving_cases(self, run):
        cases = []
        for key in run.keys[:3]:
            scene = synth.generate_scene(KINDS[key % len(KINDS)], self.size, key)
            cfg = replace(self.spec.pipeline, policy=self.spec.policies[0],
                          roi_k=self.spec.k_values[0], seed=key)
            grid = self.size // cfg.patch_size
            cases.append((scene.image, scene.tight_box, cfg,
                          pipeline.build_pipeline_weights(cfg, 1, grid, grid)))
        return cases


class BatchZ256Staged(Workload):
    """Repeated ``run_batch`` of 8 scenes, stages after blocks 0, 1, 2 at percentile 50.

    Call key e runs config seed 8e, so image i runs seed 8e + i: no
    (config, seed) pair repeats until the walk wraps the pool.
    """

    name = "batch-z256-staged"
    item = "batch images"
    skipped_spans = frozenset({"synth.run_sweep"})

    def __init__(self, size=256, pool=1024, batch=8, scenes=24, golden_dir=GOLDEN_DIR):
        super().__init__(golden_dir)
        self.size, self.pool, self.items_per_call, self.n_scenes = size, pool, batch, scenes
        self.cfg = pipeline.PipelineConfig(stage_indices=(0, 1, 2),
                                           policy=ThresholdPolicy("percentile", 50.0))

    def describe(self):
        return {"size": self.size, "pool": self.pool, "batch": self.items_per_call,
                "scenes": self.n_scenes, "config": self.cfg.to_dict()}

    def run_for(self, keys):
        scenes = {j: synth.generate_scene(KINDS[j % len(KINDS)], self.size, j)
                  for j in range(self.n_scenes)}
        return Run(keys=list(keys), scenes=scenes)

    def _members(self, run, key):
        return [run.scenes[(3 * key + i) % self.n_scenes] for i in range(self.items_per_call)]

    def _config(self, key):
        return replace(self.cfg, seed=self.items_per_call * key)

    def call(self, run, key):
        members = self._members(run, key)
        return pipeline.run_batch([s.image for s in members], [s.tight_box for s in members],
                                  self._config(key))

    def outcome(self, run, key, out, golden):
        z = (self.size // self.cfg.patch_size) ** 2
        problems = [] if len(out) == self.items_per_call else [f"{len(out)} results"]
        for i, (pruned, _, report) in enumerate(out):
            problems += [f"image {i}: {p}" for p in check_result(pruned, report, self.cfg, z)]
        if not problems:
            problems = check_tokens_entry(out, golden[str(key)])
        return exact_digest([a for p, _, _ in out for a in (p.tokens, p.retained_coords)]), problems

    def record(self, run, key, out):
        return tokens_entry(out)

    def saving_cases(self, run):
        key = run.keys[0]
        grid = self.size // self.cfg.patch_size
        cases = []
        for i, s in enumerate(self._members(run, key)):
            cfg = replace(self.cfg, seed=self._config(key).seed ^ i)
            cases.append((s.image, s.tight_box, cfg,
                          pipeline.build_pipeline_weights(cfg, 1, grid, grid)))
        return cases


WORKLOADS = {w.name: w for w in (PruneZ1024, SweepZ256, BatchZ256Staged)}

"""Benchmark runner for prato.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One process runs one workload as a
closed loop with a single caller: each call starts when the previous
one has returned and been checked. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` measures the per-layer metrics from a
separate traced run. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with the machine and provenance, goes to
``bench/out/BENCH_<workload>_seed<N>_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Fixed so that runs compare; at most the 2 cores of the reference machine.
BLAS_THREADS = 1
SETUP_REPEATS = 5  # set-ups in fresh processes behind setup_s
TRACE_SHARES = (0.4, 0.2)  # of --seconds: untraced calls, then the saving comparison
P90_MIN_SAMPLES = 100
# Median time of the speed probe's kernel on the reference machine. Timings are reported
# scaled by REF_PROBE_S / (the probe's median time in the same run), so that
# the minutes-long speed swings of a shared host cancel out of the metrics.
REF_PROBE_S = 1.0e-3

END_TO_END = {
    "setup_s": "s",
    "throughput_items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the monotonic clock, exit (one sample of setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def pin_blas():
    """Fix the BLAS thread count; takes effect only before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    """Import prato from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "prato" / "__init__.py").is_file():
        sys.exit(f"bench: no library source under {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import prato

    if Path(prato.__file__).resolve().parent != SRC / "prato":
        sys.exit(f"bench: imported prato from {prato.__file__}, not from {SRC}")


def measure_setup(args) -> list:
    """Seconds from spawning a fresh process to its end of set-up, SETUP_REPEATS times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def make_speed_probe():
    """A fixed numpy kernel sharing no code with prato; its time tracks the machine's speed."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((192, 64)), rng.random((64, 192))
    samples = []

    def probe():
        t0 = time.perf_counter()
        for _ in range(3):
            s = a @ b
            e = np.exp(s - s.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
        samples.append(time.perf_counter() - t0)

    return probe, samples


def timed_calls(wl, run, golden, budget, first, limit=None, tracer=None, probe=None):
    """Call, time and check until ``budget`` seconds have passed or ``limit`` calls are made.

    ``probe``, if given, runs after each call, outside the timed region.
    """
    lat, digests, problems = [], [], []
    k = first
    t_start = time.perf_counter()

    def more():
        return time.perf_counter() - t_start < budget if limit is None else k - first < limit

    while more():
        key = run.key(k)
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = wl.call(run, key)
                lat.append(time.perf_counter() - t0)
            else:
                tracer.call_id = k
                t0 = time.perf_counter()
                out = tracer.span("bench.call", wl.call, run, key)
                lat.append(time.perf_counter() - t0)
            digest, found = wl.outcome(run, key, out, golden)
        except Exception as exc:  # a raised error counts as a failed operation
            digest, found = None, [f"{type(exc).__name__}: {exc}"]
        digests.append(digest)
        problems.append([f"call {k} (pool key {key}): {p}" for p in found])
        if probe is not None:
            probe()
        k += 1
    return lat, digests, problems


def saving(wl, run, budget):
    """Median wall of pruned and unpruned passes, alternated on the same weights and scenes."""
    from workloads import unpruned_forward
    from prato import pipeline

    cases = wl.saving_cases(run)
    pruned_s, full_s, reductions = [], [], []
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < budget or i < len(cases):
        img, box, cfg, weights = cases[i % len(cases)]
        t0 = time.perf_counter()
        unpruned_forward(img, cfg, weights)
        t1 = time.perf_counter()
        _, _, report = pipeline.run_pipeline(img, box, cfg, weights)
        t2 = time.perf_counter()
        full_s.append(t1 - t0)
        pruned_s.append(t2 - t1)
        reductions.append(report.flops_reduction)
        i += 1
    return {
        "pipeline.wall_saving": 1.0 - statistics.median(pruned_s) / statistics.median(full_s),
        "pipeline.flops_reduction": statistics.fmean(reductions),
        "saving_samples": i,
        "t_pruned_median_s": statistics.median(pruned_s),
        "t_unpruned_median_s": statistics.median(full_s),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed) -> dict:
    import numpy as np
    import scipy

    blas = {"name": "unknown", "version": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict form
        pass
    return {
        "nproc": os.cpu_count(),
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def percentile_ms(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def run_untraced(wl, run, golden, args) -> tuple[dict, dict, list]:
    warm_lat, _, warm_problems = timed_calls(wl, run, golden, 0, 0, limit=1)
    probe, probe_s = make_speed_probe()
    lat, _, problems = timed_calls(wl, run, golden, args.seconds, 1, probe=probe)
    problems = warm_problems + problems
    items = wl.items_per_call * len(lat)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = measure_setup(args)
    raw = {
        "setup_s": statistics.median(setup),
        "throughput_items_per_s": items / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": percentile_ms(lat, 90) if len(lat) >= P90_MIN_SAMPLES else None,
    }
    scale = REF_PROBE_S / statistics.median(probe_s)  # < 1 while the machine runs slow
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "throughput_items_per_s": raw["throughput_items_per_s"] / scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "peak_rss_mb": rss_mb,
    }
    extra = {
        "latency_samples": len(lat),
        "latency_p90_ms": None if raw["latency_p90_ms"] is None else raw["latency_p90_ms"] * scale,
        "raw_unscaled": raw,
        "probe_median_s": statistics.median(probe_s),
        "probe_scale": scale,
        "setup_samples_s": setup,
        "warmup_call_s": warm_lat,
        "latencies_s": lat,
        "distinct_inputs": len({run.key(k) for k in range(len(lat) + 1)}),
    }
    return metrics, extra, problems


def run_traced(wl, seed, run, golden, args) -> tuple[dict, dict, list]:
    from spans import SPAN_NAMES, Tracer

    _, _, problems = timed_calls(wl, run, golden, 0, 0, limit=1)
    lat, digests, found = timed_calls(wl, run, golden, args.seconds * TRACE_SHARES[0], 1)
    problems += found
    tracer = Tracer()
    tracer.install()
    try:
        replay = tracer.span("bench.setup", wl.setup, seed)
        try:
            t_lat, t_digests, found = timed_calls(wl, replay, golden, 0, 1, limit=len(lat),
                                                  tracer=tracer)
        finally:
            wl.finish(replay)
    finally:
        tracer.uninstall()
    for k, (a, b) in enumerate(zip(digests, t_digests)):
        if a != b:
            found[k].append(f"call {k + 1}: traced output differs from the untraced output")
    problems += found
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"SPANS_{wl.name}_seed{seed}.json"
    tracer.write(spans_path)
    seen = dict(tracer.totals()[0])
    missing = sorted(n for n in SPAN_NAMES - wl.skipped_spans if not seen.get(n))
    if missing:
        sys.exit(f"bench: the traced run of {wl.name} recorded no spans for {', '.join(missing)}; "
                 "the library no longer calls these names where bench/spans.py wraps them")
    metrics = tracer.layer_metrics(len(t_lat))
    save = saving(wl, run, args.seconds * TRACE_SHARES[1])
    metrics["pipeline.wall_saving"] = save.pop("pipeline.wall_saving")
    metrics["pipeline.flops_reduction"] = save.pop("pipeline.flops_reduction")
    metrics["trace.overhead_ratio"] = sum(t_lat) / sum(lat) - 1.0
    extra = {"traced_calls": len(t_lat), "untraced_wall_s": sum(lat), "traced_wall_s": sum(t_lat),
             "span_counts": seen, "spans_file": os.path.relpath(spans_path, ROOT), **save}
    return metrics, extra, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    run = wl.setup(args.seed)
    if args.setup_only:
        print(time.monotonic())
        wl.finish(run)
        return 0
    golden = wl.load_golden()
    try:
        if args.trace:
            metrics, extra, problems = run_traced(wl, args.seed, run, golden, args)
            from spans import PER_LAYER
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, extra, problems = run_untraced(wl, run, golden, args)
            units = END_TO_END
    finally:
        wl.finish(run)

    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    record = {
        "workload": wl.name, "trace": args.trace, "seconds": args.seconds,
        "load": "closed loop, 1 caller, 1 process", "item": wl.item,
        "machine": machine(args.seed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "errors": [p for ps in problems for p in ps][:20], **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {wl.name} seed {args.seed}: {attempted} calls, closed loop, 1 caller; "
          f"BLAS threads {BLAS_THREADS}; record in {os.path.relpath(path, ROOT)}")
    for err in record["errors"]:
        print(f"# error: {err}")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    if not args.trace:
        p90 = extra["latency_p90_ms"]
        print(f"latency_p90_ms {p90:.6g} ms" if p90 is not None else
              f"latency_p90_ms n/a ms (needs {P90_MIN_SAMPLES} calls)")
        print(f"latency samples {extra['latency_samples']}")
        print(f"# timings above are scaled by {extra['probe_scale']:.4g} to the reference speed; "
              "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in extra["raw_unscaled"].items()
                                       if v is not None))
    print(f"error_rate {record['error_rate']:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

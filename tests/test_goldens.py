"""The benchmark's recorded outputs, checked on the library as it stands.

Each workload in ``bench/workloads.py`` (imported read-only) runs its first
two recorded pool keys, then six keys spread evenly through its pool, and
checks the outputs against ``bench/golden/``, as ``bench/run.py`` does
before it times anything. The first-two-keys checks rerun in subprocesses
under forced OpenBLAS kernels.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads as W  # noqa: E402


def _check_recorded_keys(name, tmp_path, pick):
    """Check the keys ``pick(recorded keys, ascending)`` of workload ``name`` on their goldens."""
    make = W.WORKLOADS[name]
    wl = make(out_root=tmp_path) if name == "sweep-z256" else make()
    golden = wl.load_golden()
    keys = pick(sorted(int(key) for key in golden))
    run = wl.run_for(keys)
    try:
        for key in keys:
            _, problems = wl.outcome(run, key, wl.call(run, key), golden)
            assert problems == [], f"{name} key {key}"
    finally:
        wl.finish(run)


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_first_recorded_keys_match_their_goldens(name, tmp_path):
    _check_recorded_keys(name, tmp_path, lambda keys: keys[:2])


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_keys_spread_through_the_pool_match_their_goldens(name, tmp_path):
    """Six keys at evenly spaced points of the pool, none of them the first two."""
    _check_recorded_keys(name, tmp_path, lambda keys: keys[len(keys) // 12::len(keys) // 6])


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as f:
            return next((set(line.split(":", 1)[1].split()) for line in f if line.startswith("flags")),
                        set())
    except OSError:
        return set()


@pytest.mark.parametrize("kernel, flag", [("Haswell", "avx2"), ("Sandybridge", "avx")])
def test_goldens_hold_under_a_forced_blas_kernel(kernel, flag):
    """The bundled OpenBLAS picks its kernel at load time, and token bits may differ by kernel;
    the goldens (retained coordinates, sweep bytes) hold under each kernel the CPU can run."""
    if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    if flag not in _cpu_flags():
        pytest.skip(f"the CPU lacks {flag}, which the {kernel} kernel needs")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_VERBOSE": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", __file__,
                           "-k", "first_recorded"], env=env, capture_output=True, text=True, timeout=600)
    assert f"Core: {kernel}" in proc.stdout + proc.stderr  # the kernel was forced
    assert proc.returncode == 0 and f"{len(W.WORKLOADS)} passed" in proc.stdout, proc.stdout[-2000:]

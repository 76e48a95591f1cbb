"""The benchmark's recorded outputs, checked on the library as it stands.

Each workload in ``bench/workloads.py`` (imported read-only) runs its first
two recorded pool keys and checks the outputs against ``bench/golden/``, as
``bench/run.py`` does before it times anything.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads as W  # noqa: E402


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_first_recorded_keys_match_their_goldens(name, tmp_path):
    make = W.WORKLOADS[name]
    wl = make(out_root=tmp_path) if name == "sweep-z256" else make()
    golden = wl.load_golden()
    keys = [int(key) for key in list(golden)[:2]]
    run = wl.run_for(keys)
    try:
        for key in keys:
            _, problems = wl.outcome(run, key, wl.call(run, key), golden)
            assert problems == [], f"{name} key {key}"
    finally:
        wl.finish(run)

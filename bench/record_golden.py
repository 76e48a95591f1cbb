"""Record the outputs of every workload's input pool at the current commit.

    python3 bench/record_golden.py [WORKLOAD ...]

Writes ``bench/golden/<workload>.json``, which the benchmark checks
every timed call against. Re-record only in a change that means to
alter the library's outputs; the benchmark counts any other difference
as a failed operation.
"""

from __future__ import annotations

import json
import sys

import run

CHUNK = 6  # pool keys whose inputs are held in memory at once


def record(wl) -> dict:
    entries = {}
    for lo in range(0, wl.pool, CHUNK):
        chunk = wl.run_for(range(lo, min(lo + CHUNK, wl.pool)))
        try:
            for key in chunk.keys:
                entries[str(key)] = wl.record(chunk, key, wl.call(chunk, key))
        finally:
            wl.finish(chunk)
    return {"workload": wl.name, "config": wl.describe(), "entries": entries}


def main(names) -> int:
    run.pin_blas()
    run.import_library()
    from workloads import WORKLOADS

    for name in names or WORKLOADS:
        wl = WORKLOADS[name]()
        wl.golden_path.parent.mkdir(exist_ok=True)
        wl.golden_path.write_text(json.dumps(record(wl), indent=1, sort_keys=True) + "\n")
        print(f"{name}: {wl.pool} entries -> {wl.golden_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Dense float64 kernels and seeded randomness.

Matrices are plain 2-D ``numpy.ndarray`` objects in row-major order with
dtype float64. Every public operation validates its operands and returns
finite output for finite input. Randomness goes through a counter-based
Philox generator so that a seed fully determines every sample stream.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import ConfigurationError, ShapeError, ValidationError

_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = {}  # "threads": the executor of _CORES - 1 threads; one made by a losing racer never starts
_F64_MAX = float(np.finfo(np.float64).max)  # a Python float compares exactly with any int
_group = threading.local()  # .active while this thread runs a fan-out group
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.clear)  # a child inherits the pool, not its threads


def group_count(count: int) -> int:
    """Groups a fan-out of ``count`` items runs in: 1 inside a group, else min(usable cores, count)."""
    return 1 if getattr(_group, "active", False) else min(_CORES, count)


def fan_out(fn, count: int) -> list:
    """Return ``[fn(0), ..., fn(count - 1)]`` in index order, item i run in group i mod G.

    G = ``group_count(count)``. The caller runs group 0 and one process-wide pool of
    ``_CORES - 1`` threads the rest, each group in index order. A fan-out called inside a group
    runs inline, so nesting never submits work and cannot deadlock. Each group stops at its
    first error; once every group has finished, the error of the lowest item index is raised,
    the error a loop over the items raises. Items must not write what other items read.
    """
    groups = group_count(count)
    if groups <= 1:  # a loop, which leaves the fan-outs inside it free to use the pool
        return [fn(i) for i in range(count)]
    out, failed = [None] * count, {}

    def run(g):
        _group.active = True
        try:
            for i in range(g, count, groups):
                out[i] = fn(i)
        except Exception as exc:  # held until every group has finished
            failed[i] = exc
        finally:
            _group.active = False

    pool = _pool.get("threads") or _pool.setdefault("threads", ThreadPoolExecutor(_CORES - 1))
    futures = [pool.submit(run, g) for g in range(1, groups)]
    try:
        run(0)
    finally:
        wait(futures)
    for f in futures:
        f.result()
    if failed:
        raise failed[min(failed)]
    return out


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a C-contiguous 2-D float64 array, validating finiteness."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def softmax_rows(m, out=None) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction, in a fresh array or in ``out`` (may be m)."""
    m = as_matrix(m, "m")
    e = np.subtract(m, m.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def layer_norm(m, eps: float = 1e-6) -> np.ndarray:
    """Rows to mean 0, variance 1, with no affine part; centred once, bits as np.mean/np.var."""
    m = as_matrix(m, "m")
    if eps <= 0:
        raise ValidationError("eps must be positive")
    c = m.shape[1]
    out = m - m.sum(axis=1, keepdims=True) / c
    out /= np.sqrt(np.square(out).sum(axis=1, keepdims=True) / c + eps)
    return out


def logistic(x):
    """Numerically stable 1/(1 + exp(-x)); accepts scalars or arrays."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox); one stream per seed."""
    return np.random.Generator(np.random.Philox(seed))


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int, std: float = 1.0) -> np.ndarray:
    """Draw a rows x cols float64 matrix of N(0, std^2) samples."""
    return rng.normal(0.0, std, size=(rows, cols))


def open_new(path, mode: str = "w", **kw):
    """Open ``path`` as a new file, unlinking an existing target first.

    This skips ext4's ``auto_da_alloc`` flush on replace-by-truncate (about
    50 ms a file). A crash mid-write leaves a missing or short file, which is
    acceptable because every output is derived and reproducible. A symlink or
    hard link at ``path`` is replaced, not written through.
    """
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, mode, **kw)


def read_container(path, magic: bytes, n_dims: int) -> tuple[tuple, np.ndarray]:
    """Read a binary container: ``magic``, ``n_dims`` u32 sizes, then their product of f64.

    The header is read strictly and its declared payload size is checked
    against the rest of the file before the payload is read, so every
    malformed file raises ValidationError and no size is trusted blindly.
    """
    header = len(magic) + 4 * n_dims
    with open(path, "rb") as f:
        head = f.read(header)
        if head[:len(magic)] != magic:
            raise ValidationError(f"{path}: bad magic {head[:len(magic)]!r}, expected {magic!r}")
        if len(head) != header:
            raise ValidationError(f"{path}: truncated header ({len(head)} of {header} bytes)")
        dims = struct.unpack(f"<{n_dims}I", head[len(magic):])
        size = 8 * math.prod(dims)
        remaining = os.fstat(f.fileno()).st_size - header
        if remaining != size:
            raise ValidationError(
                f"{path}: header declares {'x'.join(map(str, dims))} values "
                f"({size} bytes) but {remaining} payload bytes follow"
            )
        data = np.frombuffer(f.read(size), dtype="<f8")
    return dims, data


def load_json(path):
    """Parse a JSON file; one that is not JSON in UTF-8 raises ValidationError naming it."""
    with open(path, "rb") as f:
        try:
            return json.load(f)
        except ValueError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from None


def parse_int(value, key: str) -> int:
    """A JSON integer, or a float with no fractional part; anything else, bools too, raises."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return value


def parse_float(value, key: str) -> float:
    """A finite JSON number, integers included; bools, strings, NaN and infinities raise."""
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and abs(value) <= _F64_MAX):
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def load_matrix_csv(path) -> np.ndarray:
    with open(path, newline="") as f:
        try:
            rows = [[float(v) for v in row] for row in csv.reader(f) if row]
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: empty CSV")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError(f"{path}: ragged CSV rows")
    return as_matrix(np.array(rows), "csv matrix")

"""Dense float64 kernels, the fan-out over cores, seeded randomness, and input parsing.

Matrices are plain 2-D ``numpy.ndarray`` objects in row-major order with
dtype float64. Every public operation validates its operands and returns
finite output for finite input. Randomness goes through a counter-based
Philox generator so that a seed fully determines every sample stream.
Outside input is read here too: JSON and CSV files, and the JSON records
(config, sweep spec, box) through :func:`parse_record`, which checks every
record by one rule with the value parsers :func:`parse_int`, :func:`parse_float`
and :func:`parse_list`; every integer field and operand goes through :func:`as_int`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import ConfigurationError, ShapeError, ValidationError

_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = {}  # "threads": the executor of _CORES - 1 threads; one made by a losing racer never starts
_F64_MAX = float(np.finfo(np.float64).max)  # a Python float compares exactly with any int
_INT_RULES = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
_group = threading.local()  # .active while this thread runs a fan-out group
# softmax is shift-invariant, and a row whose max lies in [-64, 64] needs no shift: its exps stay
# below n e^64, far from overflow, and its sum at least e^-64, far from underflow
SHIFT_FREE = 64.0
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
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def softmax_rows(m, out=None, v=None) -> np.ndarray:
    """Row-wise softmax of ``m``, or with values ``v`` the product softmax(m) @ v.

    The exponentials go to a fresh array or to ``out`` (may be m). Without ``v`` each row is then
    multiplied by the reciprocal of its sum; with ``v`` the result is (e @ v) * (1 / row sums), so
    the (rows, n) block is never normalized, and its passes are max, min, exp, row sum and @ v.
    A row is shifted by its max only if that max lies outside +-``SHIFT_FREE``, which keeps
    every unshifted row sum within [e^-64, n e^64]. Finiteness is read from the row maxima,
    which a NaN or +inf makes non-finite, and from one minimum for -inf, with no (rows, n) mask;
    a non-finite ``m``, an ``m`` with no columns or a bad ``v`` raises before ``out`` is written.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] == 0:
        raise ShapeError(f"m must be 2-D with at least one column, got shape {m.shape}")
    if v is not None:
        v = as_matrix(v, "v")
        if len(v) != m.shape[1]:
            raise ShapeError(f"v has {len(v)} rows for the {m.shape[1]} columns of m")
    top = m.max(axis=1, keepdims=True)
    if not (np.isfinite(top).all() and m.min(initial=0.0) > -np.inf):  # initial: m may have no rows
        raise ValidationError("m contains non-finite entries")
    # shift only the rows that need it, so a row's bits never depend on the rest of its block
    if np.abs(top).max(initial=0.0) > SHIFT_FREE:
        e = np.subtract(m, np.where(np.abs(top) > SHIFT_FREE, top, 0.0), out=out)
        np.exp(e, out=e)
    else:
        e = np.exp(m, out=out)
    s = np.reciprocal(e.sum(axis=1, keepdims=True))
    r = e if v is None else e @ v
    r *= s
    return r


def layer_norm(m, eps: float = 1e-6) -> np.ndarray:
    """Rows to mean 0, variance 1, with no affine part; centred once, bits as np.mean/np.var."""
    m = as_matrix(m, "m")
    if m.shape[1] == 0:
        raise ShapeError(f"m must have at least one column, got shape {m.shape}")
    if eps <= 0:
        raise ValidationError("eps must be positive")
    c = m.shape[1]
    out = m - m.sum(axis=1, keepdims=True) / c
    out /= np.sqrt(np.square(out).sum(axis=1, keepdims=True) / c + eps)
    return out


def logistic(x):
    """Numerically stable 1/(1 + exp(-x)), elementwise; a scalar gives a 0-d array, +-inf 1 and 0."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValidationError("logistic input contains NaN")
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def as_int(value, key: str, lo: int | None = None) -> int:
    """``value`` as a Python int: a Python or NumPy integer, never a bool, at least ``lo`` (0 or 1)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or lo is not None and value < lo):
        raise ConfigurationError(f"{key} must be {_INT_RULES[lo]}, got {value!r}")
    return int(value)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox); one stream per non-negative integer seed."""
    return np.random.Generator(np.random.Philox(as_int(seed, "seed", 0)))


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
    return as_int(value, key)


def parse_float(value, key: str, error=ConfigurationError) -> float:
    """A finite number, NumPy's too; bools, strings, NaN and infinities raise ``error``."""
    if isinstance(value, bool) or not (isinstance(value, (int, float, np.integer, np.floating))
                                       and abs(value) <= _F64_MAX):
        raise error(f"{key} must be a finite number, got {value!r}")
    return float(value)


def parse_list(value, key: str) -> list:
    """A JSON list, whose elements the caller parses; any other value, a text too, raises."""
    if not isinstance(value, list):
        raise ConfigurationError(f"{key} must be a JSON list, got {type(value).__name__}")
    return value


def parse_record(d, what: str, fields: dict, required=(), error=ConfigurationError) -> dict:
    """The fields of the JSON object record ``d``, each value parsed by ``fields[key](value, key)``.

    A record that is not an object, has a field not in ``fields`` or lacks a ``required`` one
    raises ``error`` naming ``what``. A value its parser refuses with a ValueError (as
    ConfigurationError and ValidationError are) or a TypeError raises ``error`` as
    ``bad {what} value: ...``. Fields not given are left out, so the caller's defaults apply.
    """
    if not isinstance(d, dict):
        raise error(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise error(f"unknown {what} fields: {', '.join(unknown)}")
    missing = [key for key in required if key not in d]
    if missing:
        raise error(f"{what} is missing fields: {', '.join(missing)}")
    try:
        return {key: fields[key](value, key) for key, value in d.items()}
    except (TypeError, ValueError) as exc:
        raise error(f"bad {what} value: {exc}") from None


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

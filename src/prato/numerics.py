"""Dense float64 kernels and seeded randomness.

Matrices are plain 2-D ``numpy.ndarray`` objects in row-major order with
dtype float64. Every public operation validates its operands and returns
finite output for finite input. Randomness goes through a counter-based
Philox generator so that a seed fully determines every sample stream.
"""

from __future__ import annotations

import csv
import math
import os
import struct

import numpy as np

from .errors import ShapeError, ValidationError

MATRIX_MAGIC = b"PRTM"
CSV_MAX_ENTRIES = 10_000


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a C-contiguous 2-D float64 array, validating finiteness."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product with a fixed, repeatable accumulation order.

    Delegates to numpy's dot kernel, which is deterministic for fixed
    shapes on a given platform; repeat calls are bit-identical.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}: inner dimensions differ")
    return a @ b


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    m = as_matrix(m, "m")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def layer_norm(m, gamma, beta, eps: float = 1e-6) -> np.ndarray:
    """Normalize each row to mean 0, variance 1, then apply the affine map."""
    m = as_matrix(m, "m")
    gamma = np.asarray(gamma, dtype=np.float64).ravel()
    beta = np.asarray(beta, dtype=np.float64).ravel()
    if gamma.size != m.shape[1] or beta.size != m.shape[1]:
        raise ShapeError(
            f"affine parameters of length {gamma.size}/{beta.size} "
            f"do not match {m.shape[1]} columns"
        )
    if eps <= 0:
        raise ValidationError("eps must be positive")
    mean = m.mean(axis=1, keepdims=True)
    var = m.var(axis=1, keepdims=True)
    normed = (m - mean) / np.sqrt(var + eps)
    return normed * gamma + beta


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


def save_matrix(path, m) -> None:
    """Write a matrix in the binary container: b"PRTM", u32 rows, u32 cols, f64 data.

    All integers and floats are little-endian; data is row-major.
    """
    m = as_matrix(m, "m")
    rows, cols = m.shape
    with open(path, "wb") as f:
        f.write(MATRIX_MAGIC)
        f.write(struct.pack("<II", rows, cols))
        f.write(m.astype("<f8").tobytes(order="C"))


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


def load_matrix(path) -> np.ndarray:
    (rows, cols), data = read_container(path, MATRIX_MAGIC, 2)
    return data.reshape(rows, cols).astype(np.float64)


def save_matrix_csv(path, m) -> None:
    """CSV export; limited to small matrices (<= 10^4 entries)."""
    m = as_matrix(m, "m")
    if m.size > CSV_MAX_ENTRIES:
        raise ValidationError(f"matrix has {m.size} entries; CSV export is capped at {CSV_MAX_ENTRIES}")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for row in m:
            writer.writerow([repr(float(v)) for v in row])


def load_matrix_csv(path) -> np.ndarray:
    with open(path, newline="") as f:
        rows = [[float(v) for v in row] for row in csv.reader(f) if row]
    if not rows:
        raise ValidationError(f"{path}: empty CSV")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError(f"{path}: ragged CSV rows")
    return as_matrix(np.array(rows), "csv matrix")

"""One transformer encoder block: multi-head self-attention plus feed-forward.

The default wiring follows the fused form with a single residual
spanning both sublayers:

    out = ffn(LN(attn(LN(x)))) + x

``residual="sublayer"`` switches to the conventional two-residual
layout (x + attn(LN(x)), then + ffn(LN(.))). Attention is softmax(Q K^T
/ sqrt(d_h)) V per head, heads concatenated and output-projected; the
feed-forward uses a GELU between a 4x expansion and contraction. No
bias terms, and LN has no affine scale or shift.

Each head walks the queries in blocks of ``QUERY_BLOCK`` (256) rows; a
row's softmax needs only its own scores, so this is exact with no online
softmax, and a head holds O(256 * n) scores instead of O(n^2): one block
at n = 2048, width 64 peaks at 10.8 MiB of allocation against 162.6 MiB.

``sets=S`` stacks S token sets of n rows. LN1 runs once over all S*n rows, each head
projects and attends one set at a time, and the row-wise tail (``wo``, LN2, FFN,
residual) runs each set in the row parts a block over that set alone uses. So every
matmul keeps its lone-block shape and a stacked set's rows equal that block at any
width (past 100^3 multiply-adds OpenBLAS 0.3.31 switches to a kernel that rounds
differently when N mod 8 is 1 to 4), and tail memory is one part's, whatever S is.
A block over more than ``POOL_ABOVE`` (96) rows, where two cores measured faster than
one, runs two :func:`numerics.fan_out` calls. Heads go to group h mod G,
G = ``group_count(heads)``, each group reusing one (min(n, 256), n) score buffer
that the caller allocates; then the tail runs S*P parts, P = ``group_count(n // 2)``
(1 for n <= 96), part i of set s on rows s*n + n*i//P up to s*n + n*(i+1)//P.
A part has at least two rows: numpy sends a one-row matmul to BLAS gemv, whose
bits differ from gemm's, and OpenBLAS 0.3.31 gemm (as measured at widths 48 and 64)
gives a block of two or more rows the bits of the whole product, so output is the
same for all G, P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import numerics
from .errors import ShapeError
from .numerics import as_matrix, fan_out, gaussian_matrix, layer_norm, make_rng, softmax_rows
from .tokens import TokenGrid

QUERY_BLOCK = 256
POOL_ABOVE = 96  # blocks of more tokens fan out heads and tail rows (measured crossover)


@dataclass
class BlockWeights:
    """Per-head QKV projections, output projection and FFN of one block."""

    wq: list  # h matrices, each (width, d_h)
    wk: list
    wv: list
    wo: np.ndarray  # (width, width)
    ffn_in: np.ndarray  # (width, 4*width)
    ffn_out: np.ndarray  # (4*width, width)

    def __post_init__(self):
        self.wq = [as_matrix(w, "wq") for w in self.wq]
        self.wk = [as_matrix(w, "wk") for w in self.wk]
        self.wv = [as_matrix(w, "wv") for w in self.wv]
        self.wo = as_matrix(self.wo, "wo")
        self.ffn_in = as_matrix(self.ffn_in, "ffn_in")
        self.ffn_out = as_matrix(self.ffn_out, "ffn_out")
        width = self.wo.shape[0]
        h = len(self.wq)
        if not (len(self.wk) == len(self.wv) == h) or h == 0:
            raise ShapeError("wq/wk/wv must hold the same nonzero number of heads")
        d_h = self.wq[0].shape[1]
        if h * d_h != width:
            raise ShapeError(f"{h} heads of width {d_h} do not tile embed width {width}")
        for w in (*self.wq, *self.wk, *self.wv):
            if w.shape != (width, d_h):
                raise ShapeError(f"head projection shape {w.shape} != ({width}, {d_h})")
        if self.ffn_in.shape != (width, 4 * width) or self.ffn_out.shape != (4 * width, width):
            raise ShapeError(
                f"ffn shapes {self.ffn_in.shape}/{self.ffn_out.shape} do not match "
                f"({width}, {4 * width})/({4 * width}, {width})"
            )

    @property
    def heads(self) -> int:
        return len(self.wq)

    @property
    def width(self) -> int:
        return self.wo.shape[0]


def gelu(x: np.ndarray) -> np.ndarray:
    t = x / np.sqrt(2.0)
    erf(t, out=t)
    t += 1.0
    t *= x
    t *= 0.5
    return t


def init_block_weights(width: int, heads: int, seed: int = 0, std: float = 0.02) -> BlockWeights:
    """Seeded Gaussian initialization of every projection."""
    if width % heads != 0:
        raise ShapeError(f"embed width {width} is not divisible by {heads} heads")
    d_h = width // heads
    rng = make_rng(seed)
    draw = lambda r, c: gaussian_matrix(rng, r, c, std)
    return BlockWeights(
        wq=[draw(width, d_h) for _ in range(heads)],
        wk=[draw(width, d_h) for _ in range(heads)],
        wv=[draw(width, d_h) for _ in range(heads)],
        wo=draw(width, width),
        ffn_in=draw(width, 4 * width),
        ffn_out=draw(4 * width, width),
    )


def _scores(q: np.ndarray, kt: np.ndarray, out=None) -> np.ndarray:
    """Attention logits of one head: q k^T scaled by 1/sqrt(d_h), into ``out`` if given."""
    s = np.matmul(q, kt, out=out)
    s *= 1.0 / np.sqrt(q.shape[1])
    return s


def _attention(x: np.ndarray, w: BlockWeights, sets: int = 1) -> np.ndarray:
    rows, width = x.shape
    n = rows // sets
    d_h = width // w.heads
    out = np.empty((rows, width))
    # one buffer per fan_out group, allocated here: buffers made on pool threads cost peak RSS
    bufs = [np.empty((min(n, QUERY_BLOCK), n))
            for _ in range(numerics.group_count(w.heads) if rows > POOL_ABOVE else 1)]

    def head(h):
        for s in range(0, rows, n or 1):  # set s attends to its own rows only
            xs = x[s:s + n]
            q, kt, v = xs @ w.wq[h], (xs @ w.wk[h]).T, xs @ w.wv[h]
            for r in range(0, n, QUERY_BLOCK):
                m = min(QUERY_BLOCK, n - r)
                sc = _scores(q[r:r + m], kt, out=bufs[h % len(bufs)][:m])
                out[s + r:s + r + m, h * d_h:(h + 1) * d_h] = softmax_rows(sc, out=sc) @ v

    if len(bufs) > 1:
        fan_out(head, w.heads)
    else:
        for h in range(w.heads):
            head(h)
    return out


def encode_tokens(
    x: np.ndarray,
    w: BlockWeights,
    residual: str = "block",
    ln_eps: float = 1e-6,
    sets: int = 1,
) -> np.ndarray:
    """Run one encoder block over ``sets`` equal token sets stacked in a (sets*n, width) matrix;
    each set's rows come out bit-equal to a block over that set alone."""
    x = as_matrix(x, "tokens")
    if x.shape[1] != w.width:
        raise ShapeError(f"token width {x.shape[1]} does not match block width {w.width}")
    if residual not in ("block", "sublayer"):
        raise ShapeError(f"unknown residual mode {residual!r}")
    rows = len(x)
    if sets < 1 or rows % sets or (sets > 1 and rows == sets):
        raise ShapeError(f"{rows} rows do not stack {sets} equal sets of two or more tokens")
    n = rows // sets
    out = _attention(layer_norm(x, ln_eps), w, sets)  # each part overwrites its own rows
    per = numerics.group_count(n // 2) if n > POOL_ABOVE else 1  # a lone set's tail parts

    def tail(i):  # wo, LN2, FFN and residual of part i % per of set i // per
        s, j = divmod(i, per)
        part = slice(s * n + n * j // per, s * n + n * (j + 1) // per)
        a = out[part] @ w.wo
        r = x[part] if residual == "block" else x[part] + a  # what the FFN output is added to
        h = layer_norm(a if residual == "block" else r, ln_eps)
        np.add(gelu(h @ w.ffn_in) @ w.ffn_out, r, out=out[part])

    if rows > POOL_ABOVE:
        fan_out(tail, sets * per)
    else:
        for i in range(sets):  # per is 1
            tail(i)
    return out


def attention_map(grid: TokenGrid, w: BlockWeights, head: int) -> np.ndarray:
    """Row-stochastic (Z, Z) attention matrix of one head, as ``encode_tokens`` applies it."""
    if not 0 <= head < w.heads:
        raise IndexError(f"head {head} out of range for {w.heads} heads")
    x = layer_norm(grid.tokens)
    q, kt = x @ w.wq[head], (x @ w.wk[head]).T
    return np.vstack([softmax_rows(_scores(q[r:r + QUERY_BLOCK], kt))
                      for r in range(0, grid.z, QUERY_BLOCK)])

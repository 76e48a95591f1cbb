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

A block over n > ``QUERY_BLOCK`` tokens runs two :func:`numerics.fan_out`
calls. Heads go to group h mod G, G = min(usable cores, heads), and each group
reuses one (min(n, 256), n) score buffer that the caller allocates. Then the
row-wise tail (``wo``, LN2, FFN, residual) runs in P = min(usable cores, n // 2)
near-equal parts, part i on rows n*i//P up to n*(i+1)//P of one output array.
A part has at least two rows: numpy sends a one-row matmul to BLAS gemv, whose
bits differ from gemm's, and OpenBLAS 0.3.31 gemm (as measured) gives a block of
two or more rows the bits of the whole product, so output is the same for all G, P.
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


def _attention(x: np.ndarray, w: BlockWeights) -> np.ndarray:
    n, width = x.shape
    d_h = width // w.heads
    out = np.empty((n, width))
    # one buffer per fan_out group, allocated here: buffers made on pool threads cost peak RSS
    bufs = [np.empty((min(n, QUERY_BLOCK), n))
            for _ in range(min(numerics._CORES, w.heads) if n > QUERY_BLOCK else 1)]

    def head(h):
        q, kt, v = x @ w.wq[h], (x @ w.wk[h]).T, x @ w.wv[h]
        for r in range(0, n, QUERY_BLOCK):
            s = _scores(q[r:r + QUERY_BLOCK], kt, out=bufs[h % len(bufs)][:min(QUERY_BLOCK, n - r)])
            out[r:r + QUERY_BLOCK, h * d_h:(h + 1) * d_h] = softmax_rows(s, out=s) @ v

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
) -> np.ndarray:
    """Run one encoder block over a raw (n, width) token matrix."""
    x = as_matrix(x, "tokens")
    if x.shape[1] != w.width:
        raise ShapeError(f"token width {x.shape[1]} does not match block width {w.width}")
    if residual not in ("block", "sublayer"):
        raise ShapeError(f"unknown residual mode {residual!r}")
    n = len(x)
    attn = _attention(layer_norm(x, ln_eps), w)
    out = np.empty_like(x)
    parts = min(numerics._CORES, n // 2) if n > QUERY_BLOCK else 1

    def tail(i):  # wo, LN2, FFN and residual of rows n*i//parts up to n*(i+1)//parts
        rows = slice(n * i // parts, n * (i + 1) // parts)
        a = attn[rows] @ w.wo
        s = x[rows] if residual == "block" else x[rows] + a  # what the FFN output is added to
        h = layer_norm(a if residual == "block" else s, ln_eps)
        np.add(gelu(h @ w.ffn_in) @ w.ffn_out, s, out=out[rows])

    fan_out(tail, parts)
    return out


def attention_map(grid: TokenGrid, w: BlockWeights, head: int) -> np.ndarray:
    """Row-stochastic (Z, Z) attention matrix of one head, as ``encode_tokens`` applies it."""
    if not 0 <= head < w.heads:
        raise IndexError(f"head {head} out of range for {w.heads} heads")
    x = layer_norm(grid.tokens)
    q, kt = x @ w.wq[head], (x @ w.wk[head]).T
    return np.vstack([softmax_rows(_scores(q[r:r + QUERY_BLOCK], kt))
                      for r in range(0, grid.z, QUERY_BLOCK)])

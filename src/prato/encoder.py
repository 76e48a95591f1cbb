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
The (n, d_h) queries carry the 1/sqrt(d_h) scale, applied once per head,
so a (256, n) score block is the plain product q k^T, which ``softmax_rows``
then normalizes in place.

A block over n > ``POOL_ABOVE`` (96) tokens, where two cores measured faster than
one, runs two :func:`numerics.fan_out` calls. Heads go to group h mod G,
G = ``group_count(heads)``, each group reusing one (min(n, 256), n) score buffer
that the caller allocates; then the row-wise tail (``wo``, LN2, FFN, residual) runs
in P = max(2, n // ``TAIL_ROWS``) near-equal parts, part i on rows n*i//P up to n*(i+1)//P.
P depends on n alone: OpenBLAS rounds products of some row counts apart, so a P set by the
core count would change the bits from host to host and inside ``run_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import numerics
from .errors import ShapeError
from .numerics import as_matrix, fan_out, layer_norm, make_rng, softmax_rows
from .tokens import TokenGrid

QUERY_BLOCK = 256
POOL_ABOVE = 96  # blocks of more tokens fan out heads and tail rows (measured crossover)
TAIL_ROWS = 256  # rows per tail part, at least, from n = 512; 64-row parts measured slower


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
    draw = lambda r, c: rng.normal(0.0, std, (r, c))
    return BlockWeights(
        wq=[draw(width, d_h) for _ in range(heads)],
        wk=[draw(width, d_h) for _ in range(heads)],
        wv=[draw(width, d_h) for _ in range(heads)],
        wo=draw(width, width),
        ffn_in=draw(width, 4 * width),
        ffn_out=draw(4 * width, width),
    )


def _queries(x: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """One head's (n, d_h) queries x wq times 1/sqrt(d_h), so its score blocks need no scale pass."""
    q = x @ wq
    q *= 1.0 / np.sqrt(q.shape[1])
    return q


def _attention(x: np.ndarray, w: BlockWeights) -> np.ndarray:
    n, width = x.shape
    d_h = width // w.heads
    out = np.empty((n, width))
    # one buffer per fan_out group, allocated here: buffers made on pool threads cost peak RSS
    bufs = [np.empty((min(n, QUERY_BLOCK), n))
            for _ in range(numerics.group_count(w.heads) if n > POOL_ABOVE else 1)]

    def group(g):  # heads g, g + G, ... through buffer g, G = len(bufs)
        for h in range(g, w.heads, len(bufs)):
            q, kt, v = _queries(x, w.wq[h]), (x @ w.wk[h]).T, x @ w.wv[h]
            for r in range(0, n, QUERY_BLOCK):
                m = min(QUERY_BLOCK, n - r)
                sc = np.matmul(q[r:r + m], kt, out=bufs[g][:m])
                out[r:r + m, h * d_h:(h + 1) * d_h] = softmax_rows(sc, out=sc) @ v

    fan_out(group, len(bufs))
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
    out = _attention(layer_norm(x, ln_eps), w)  # each part overwrites its own rows
    parts = max(2, n // TAIL_ROWS) if n > POOL_ABOVE else 1

    def tail(i):  # wo, LN2, FFN and residual of rows n*i//parts up to n*(i+1)//parts
        rows = slice(n * i // parts, n * (i + 1) // parts)
        a = out[rows] @ w.wo
        r = x[rows] if residual == "block" else x[rows] + a  # what the FFN output is added to
        h = layer_norm(a if residual == "block" else r, ln_eps)
        np.add(gelu(h @ w.ffn_in) @ w.ffn_out, r, out=out[rows])

    fan_out(tail, parts)
    return out


def attention_map(grid: TokenGrid, w: BlockWeights, head: int) -> np.ndarray:
    """Row-stochastic (Z, Z) attention matrix of one head, as ``encode_tokens`` applies it."""
    if not 0 <= head < w.heads:
        raise IndexError(f"head {head} out of range for {w.heads} heads")
    x = layer_norm(grid.tokens)
    q, kt = _queries(x, w.wq[head]), (x @ w.wk[head]).T
    return np.vstack([softmax_rows(q[r:r + QUERY_BLOCK] @ kt)
                      for r in range(0, grid.z, QUERY_BLOCK)])

"""Turn a raster into a position-encoded token sequence.

An image is a (C, H, W) float64 array with values in [0, 1]. It is cut
into non-overlapping p x p patches, each patch flattened channel-major
(channel, then row, then column), linearly projected to the embedding
width, and offset by a positional code. The result travels as a
:class:`TokenGrid`, which keeps the 2-D grid geometry alongside the
token matrix so later stages can map tokens back to space.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError, ValidationError
from .numerics import as_int, as_matrix, load_matrix_csv, make_rng, open_new

IMAGE_MAGIC = b"PRTI"


@dataclass
class TokenGrid:
    """Token matrix (Z x width) plus the grid geometry it was cut from.

    Tokens and grid cells are in row-major bijection: token i sits at
    cell (i // grid_w, i % grid_w), as :func:`row_major_index_map` lists.
    """

    tokens: np.ndarray
    grid_h: int
    grid_w: int

    def __post_init__(self):
        self.tokens = as_matrix(self.tokens, "tokens")
        if self.tokens.shape[0] != self.grid_h * self.grid_w:
            raise ShapeError(
                f"{self.tokens.shape[0]} tokens do not fill a "
                f"{self.grid_h}x{self.grid_w} grid"
            )

    @property
    def z(self) -> int:
        return self.tokens.shape[0]

    @property
    def width(self) -> int:
        return self.tokens.shape[1]

    def feature_map(self) -> np.ndarray:
        """Tokens rearranged to a (grid_h, grid_w, width) spatial map."""
        return self.tokens.reshape(self.grid_h, self.grid_w, self.width)


@dataclass
class EmbedderWeights:
    projection: np.ndarray  # (C*p*p, width)
    positional: np.ndarray  # (Z, width)

    def __post_init__(self):
        self.projection = as_matrix(self.projection, "projection")
        self.positional = as_matrix(self.positional, "positional")
        if self.projection.shape[1] != self.positional.shape[1]:
            raise ShapeError(
                f"projection width {self.projection.shape[1]} differs from "
                f"positional width {self.positional.shape[1]}"
            )


def row_major_index_map(grid_h: int, grid_w: int) -> np.ndarray:
    """(Z, 2) grid (row, col) of each token in row-major order."""
    rows, cols = np.divmod(np.arange(grid_h * grid_w), grid_w)
    return np.stack([rows, cols], axis=1)


def validate_image(img) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or not img.size:
        raise ShapeError(f"image must be (C, H, W) and no size 0, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValidationError("image contains non-finite values")
    if img.min() < 0.0 or img.max() > 1.0:
        raise ValidationError("image values must lie in [0, 1]")
    return img


def patchify(img, patch_size: int) -> np.ndarray:
    """Cut the image into flattened patches, one row per token.

    Row i holds the patch at grid cell (i // W', i % W'), flattened
    channel-major then row-major within the patch. Token count is
    exactly H*W / p^2.
    """
    img = validate_image(img)
    c, h, w = img.shape
    p = as_int(patch_size, "patch_size", 1)
    if h % p != 0 or w % p != 0:
        raise ConfigurationError(f"image {h}x{w} is not divisible into {p}x{p} patches")
    gh, gw = h // p, w // p
    # (C, gh, p, gw, p) -> (gh, gw, C, p, p) -> (Z, C*p*p)
    blocks = img.reshape(c, gh, p, gw, p).transpose(1, 3, 0, 2, 4)
    return np.ascontiguousarray(blocks.reshape(gh * gw, c * p * p))


def sinusoidal_positions(z: int, width: int) -> np.ndarray:
    """Fixed sin/cos positional table over the flattened token index."""
    pos = np.arange(z, dtype=np.float64)[:, None]
    dim = np.arange(width, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (dim // 2) / width)
    table = np.empty((z, width))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def make_embedder(
    channels: int,
    patch_size: int,
    width: int,
    grid_h: int,
    grid_w: int,
    seed: int = 0,
    positional: str = "sinusoidal",
) -> EmbedderWeights:
    """Build embedding weights: seeded N(0, 0.02^2) projection, fixed or learned positions."""
    rng = make_rng(seed)
    proj = rng.normal(0.0, 0.02, (channels * patch_size * patch_size, width))
    z = grid_h * grid_w
    if positional == "sinusoidal":
        pos = sinusoidal_positions(z, width)
    elif positional == "learned":
        pos = rng.normal(0.0, 0.02, (z, width))
    elif positional == "none":
        pos = np.zeros((z, width))
    else:
        raise ConfigurationError(f"unknown positional mode {positional!r}")
    return EmbedderWeights(projection=proj, positional=pos)


def embed_tokens(patches, weights: EmbedderWeights, grid_h: int, grid_w: int) -> TokenGrid:
    """Project flattened patches and add positional codes."""
    patches = as_matrix(patches, "patches")
    if patches.shape[1] != weights.projection.shape[0]:
        raise ShapeError(
            f"patch width {patches.shape[1]} does not match projection rows "
            f"{weights.projection.shape[0]}"
        )
    if patches.shape[0] != weights.positional.shape[0]:
        raise ShapeError(
            f"{patches.shape[0]} patches do not match positional table of "
            f"{weights.positional.shape[0]} rows"
        )
    tokens = patches @ weights.projection + weights.positional
    return TokenGrid(tokens=tokens, grid_h=grid_h, grid_w=grid_w)


def tokenize_image(img, weights: EmbedderWeights, patch_size: int) -> TokenGrid:
    patches = patchify(img, patch_size)  # validates the image
    _, h, w = np.shape(img)
    return embed_tokens(patches, weights, h // patch_size, w // patch_size)


def save_image(path, img) -> None:
    """Binary image container: b"PRTI", u32 C, H, W, then per-channel f64 planes."""
    img = validate_image(img)
    c, h, w = img.shape
    with open_new(path, "wb") as f:
        f.write(IMAGE_MAGIC)
        f.write(struct.pack("<III", c, h, w))
        f.write(img.astype("<f8").tobytes(order="C"))


def load_image(path) -> np.ndarray:
    """Read a :func:`save_image` container.

    The header is read strictly and its declared payload size is checked
    against the rest of the file before the payload is read, so every
    malformed file raises ValidationError and no size is trusted blindly.
    """
    header = len(IMAGE_MAGIC) + 12
    with open(path, "rb") as f:
        head = f.read(header)
        magic = head[:len(IMAGE_MAGIC)]
        if magic != IMAGE_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}, expected {IMAGE_MAGIC!r}")
        if len(head) != header:
            raise ValidationError(f"{path}: truncated header ({len(head)} of {header} bytes)")
        c, h, w = struct.unpack("<III", head[len(IMAGE_MAGIC):])
        size = 8 * c * h * w
        remaining = os.fstat(f.fileno()).st_size - header
        if remaining != size:
            raise ValidationError(f"{path}: header declares {c}x{h}x{w} values ({size} bytes) "
                                  f"but {remaining} payload bytes follow")
        data = np.frombuffer(f.read(size), dtype="<f8")
    return validate_image(data.reshape(c, h, w).astype(np.float64))


def load_plane_csv(path) -> np.ndarray:
    """Read one channel plane from CSV and wrap it as a (1, H, W) image."""
    return load_matrix_csv(path)[None, :, :]

"""Map a normalized box prompt onto the token grid and pool region features.

The box prompt is an axis-aligned rectangle in normalized image
coordinates. Scaling it by the grid dimensions gives continuous
token-grid coordinates; no rounding happens, so the box usually cuts
through cells. Region pooling samples the feature map bilinearly at
sub-cell positions inside the box (a soft crop), which keeps the
extracted features spatially coherent where hard token selection could
not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegeneratePromptError, RangeError, ValidationError
from .numerics import load_json, open_new, parse_float
from .tokens import TokenGrid


@dataclass(frozen=True)
class BoxPrompt:
    """Normalized rectangle: 0 <= x1 < x2 <= 1, 0 <= y1 < y2 <= 1."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for name in ("x1", "y1", "x2", "y2"):
            object.__setattr__(self, name, float(getattr(self, name)))
        vals = (self.x1, self.y1, self.x2, self.y2)
        if not all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in vals):
            raise ValidationError(f"box coordinates {vals} must lie in [0, 1]")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValidationError(f"box {vals} must have positive extent")

    def to_dict(self) -> dict:
        return {"x1": self.x1, "y1": self.y1, "x2": self.x2, "y2": self.y2}


def box_from_dict(d: dict) -> BoxPrompt:
    """A box from a JSON object of four numbers; any other record raises ValidationError."""
    if not isinstance(d, dict):
        raise ValidationError(f"box record must be a JSON object, got {type(d).__name__}")
    try:
        coords = [parse_float(d[name], name) for name in ("x1", "y1", "x2", "y2")]
    except KeyError as exc:
        raise ValidationError(f"box record is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad box record value: {exc}") from None
    return BoxPrompt(*coords)


def load_box(path) -> BoxPrompt:
    return box_from_dict(load_json(path))


def save_box(path, box: BoxPrompt) -> None:
    with open_new(path) as f:
        json.dump(box.to_dict(), f)


@dataclass(frozen=True)
class GridBox:
    """Continuous box in token-grid units: x in [0, W'], y in [0, H']."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1


def map_box_to_grid(box: BoxPrompt, grid_h: int, grid_w: int) -> GridBox:
    """Scale a normalized box by the grid dimensions; coordinates stay continuous."""
    g = GridBox(
        x1=box.x1 * grid_w,
        y1=box.y1 * grid_h,
        x2=box.x2 * grid_w,
        y2=box.y2 * grid_h,
    )
    if g.width < 1e-9 or g.height < 1e-9:
        raise DegeneratePromptError(
            f"box {box.to_dict()} degenerates to {g.width:.3g}x{g.height:.3g} tokens "
            f"on a {grid_h}x{grid_w} grid"
        )
    return g


def _bilinear(fmap: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample (H', W', C) map at continuous points; cell (i, j) is centered at (j+0.5, i+0.5).

    Points beyond the border interpolate against clamped (edge) cells.
    """
    h, w, _ = fmap.shape
    # shift so integer coordinates land on cell centers
    fy = ys - 0.5
    fx = xs - 0.5
    y0 = np.floor(fy).astype(int)
    x0 = np.floor(fx).astype(int)
    wy = fy - y0
    wx = fx - x0
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    wy = np.clip(wy, 0.0, 1.0)[..., None]
    wx = np.clip(wx, 0.0, 1.0)[..., None]
    top = fmap[y0c, x0c] * (1 - wx) + fmap[y0c, x1c] * wx
    bot = fmap[y1c, x0c] * (1 - wx) + fmap[y1c, x1c] * wx
    return top * (1 - wy) + bot * wy


def roi_align(grid: TokenGrid, box: GridBox, k: int, sampling_ratio: int = 2) -> np.ndarray:
    """Pool the box into a (k*k, C) region array by averaged bilinear samples.

    The box is split into k x k equal bins; each bin is probed at
    sampling_ratio^2 regularly spaced interior points, every probe
    bilinearly interpolated from the four nearest cell centers, and the
    bin value is the mean of its probes. Rows are in row-major bin
    order: bin (by, bx) is row by*k + bx.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if sampling_ratio < 1:
        raise ConfigurationError(f"sampling_ratio must be >= 1, got {sampling_ratio}")
    eps = 1e-9
    if box.x1 < -eps or box.y1 < -eps or box.x2 > grid.grid_w + eps or box.y2 > grid.grid_h + eps:
        raise RangeError(
            f"box ({box.x1}, {box.y1}, {box.x2}, {box.y2}) exceeds the "
            f"{grid.grid_h}x{grid.grid_w} grid"
        )
    fmap = grid.feature_map()
    n = sampling_ratio
    bin_w = box.width / k
    bin_h = box.height / k
    # sample offsets at (s + 0.5)/n of each bin, s = 0..n-1
    off = (np.arange(n) + 0.5) / n
    bx = np.arange(k)
    ys = box.y1 + (bx[:, None] + off[None, :]) * bin_h  # (k, n)
    xs = box.x1 + (bx[:, None] + off[None, :]) * bin_w
    # full sample lattice: (k, k, n, n)
    yy = np.broadcast_to(ys[:, None, :, None], (k, k, n, n))
    xx = np.broadcast_to(xs[None, :, None, :], (k, k, n, n))
    samples = _bilinear(fmap, yy, xx)  # (k, k, n, n, C)
    return samples.mean(axis=(2, 3)).reshape(k * k, grid.width)

"""Region pooling tests against a scalar brute-force bilinear oracle."""

import math

import numpy as np
import pytest

from prato.errors import (
    ConfigurationError,
    DegeneratePromptError,
    RangeError,
    ValidationError,
)
from prato.numerics import make_rng
from prato.roi import BoxPrompt, GridBox, box_from_dict, load_box, map_box_to_grid, roi_align, save_box
from prato.selfcheck import roi_oracle
from prato.tokens import TokenGrid


def _grid_from_map(fmap):
    h, w, c = fmap.shape
    return TokenGrid(tokens=fmap.reshape(h * w, c), grid_h=h, grid_w=w)


class TestBoxPrompt:
    def test_valid(self):
        BoxPrompt(0.1, 0.2, 0.3, 0.4)

    @pytest.mark.parametrize("coords", [
        (0.5, 0.2, 0.5, 0.4),   # zero width
        (0.3, 0.2, 0.1, 0.4),   # inverted
        (-0.1, 0.2, 0.3, 0.4),  # below range
        (0.1, 0.2, 0.3, 1.4),   # above range
    ])
    def test_invalid(self, coords):
        with pytest.raises(ValidationError):
            BoxPrompt(*coords)

    def test_json_roundtrip(self, tmp_path):
        box = BoxPrompt(0.1, 0.2, 0.3, 0.4)
        path = tmp_path / "box.json"
        save_box(path, box)
        assert load_box(path) == box
        assert box_from_dict(box.to_dict()) == box

    def test_missing_field(self):
        with pytest.raises(ValidationError):
            box_from_dict({"x1": 0, "y1": 0, "x2": 1})

    def test_unknown_field(self):
        with pytest.raises(ValidationError, match="unknown box record fields: x3"):
            box_from_dict({"x1": 0, "y1": 0, "x2": 1, "y2": 1, "x3": 1})

    @pytest.mark.parametrize("x1", [False, "0.1", math.inf, math.nan, None, [0.1]])
    def test_coordinate_must_be_a_finite_number(self, x1):
        with pytest.raises(ValidationError, match="x1 must be a finite number"):
            box_from_dict({"x1": x1, "y1": 0.1, "x2": 0.5, "y2": 0.5})

    def test_integer_coordinates_are_numbers(self):
        assert box_from_dict({"x1": 0, "y1": 0, "x2": 1, "y2": 1}) == BoxPrompt(0.0, 0.0, 1.0, 1.0)


class TestMapBoxToGrid:
    def test_full_image_box(self):
        g = map_box_to_grid(BoxPrompt(0, 0, 1, 1), 16, 16)
        assert (g.x1, g.y1, g.x2, g.y2) == (0, 0, 16, 16)

    def test_linear_scaling_centered(self):
        g = map_box_to_grid(BoxPrompt(0.25, 0.25, 0.75, 0.75), 16, 16)
        assert (g.x1, g.y1, g.x2, g.y2) == (4, 4, 12, 12)

    def test_linear_scaling_asymmetric(self):
        g = map_box_to_grid(BoxPrompt(0.1, 0.2, 0.3, 0.4), 10, 10)
        np.testing.assert_allclose([g.x1, g.y1, g.x2, g.y2], [1, 2, 3, 4], atol=1e-12)

    def test_degenerate_after_scaling(self):
        tiny = BoxPrompt(0.5, 0.5, 0.5 + 1e-12, 0.6)
        with pytest.raises(DegeneratePromptError):
            map_box_to_grid(tiny, 4, 4)


class TestRoiAlign:
    def test_constant_field_invariance(self):
        rng = make_rng(0)
        grid = _grid_from_map(np.full((8, 8, 3), 2.5))
        for _ in range(200):
            x1, y1 = rng.uniform(0, 7, size=2)
            x2 = rng.uniform(x1 + 0.1, 8)
            y2 = rng.uniform(y1 + 0.1, 8)
            k = int(rng.integers(1, 7))
            out = roi_align(grid, GridBox(x1, y1, x2, y2), k)
            assert out.shape == (k * k, 3)
            assert np.all(out == 2.5)

    def test_linear_field_exactness(self):
        # value = x-center of the cell; bilinear reproduces linear ramps, so
        # bin values equal the mean sample x exactly (box away from borders)
        fmap = np.zeros((8, 8, 1))
        for j in range(8):
            fmap[:, j, 0] = j + 0.5
        grid = _grid_from_map(fmap)
        box = GridBox(1.25, 1.5, 6.75, 6.5)
        k, n = 3, 2
        out = roi_align(grid, box, k, sampling_ratio=n)
        bw = box.width / k
        for bx in range(k):
            xs = [box.x1 + (bx + (s + 0.5) / n) * bw for s in range(n)]
            want = sum(xs) / n
            for by in range(k):
                assert abs(out[by * k + bx, 0] - want) < 1e-12

    def test_specific_box_against_oracle(self):
        fmap = make_rng(1).random((8, 8, 4))
        got = roi_align(_grid_from_map(fmap), GridBox(1.3, 2.1, 5.7, 6.2), 5, 2)
        want = roi_oracle(fmap, (1.3, 2.1, 5.7, 6.2), 5, 2)
        assert np.abs(got - want).max() < 1e-9

    def test_random_boxes_against_oracle(self):
        rng = make_rng(2)
        for _ in range(60):
            h, w = int(rng.integers(4, 10)), int(rng.integers(4, 10))
            fmap = rng.random((h, w, 3))
            x1, y1 = rng.uniform(0, w - 1), rng.uniform(0, h - 1)
            x2 = rng.uniform(x1 + 0.2, w)
            y2 = rng.uniform(y1 + 0.2, h)
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 4))
            got = roi_align(_grid_from_map(fmap), GridBox(x1, y1, x2, y2), k, n)
            want = roi_oracle(fmap, (x1, y1, x2, y2), k, n)
            assert np.abs(got - want).max() < 1e-9

    def test_translation_consistency(self):
        rng = make_rng(3)
        base = rng.random((4, 4, 2))
        fmap = np.zeros((12, 12, 2))
        fmap[2:6, 2:6] = base
        shifted = np.zeros((12, 12, 2))
        shifted[5:9, 4:8] = base  # +3 rows, +2 cols
        box = GridBox(2.3, 2.2, 5.6, 5.7)
        sbox = GridBox(box.x1 + 2, box.y1 + 3, box.x2 + 2, box.y2 + 3)
        a = roi_align(_grid_from_map(fmap), box, 4)
        b = roi_align(_grid_from_map(shifted), sbox, 4)
        assert np.abs(a - b).max() < 1e-12

    def test_output_shape(self):
        fmap = make_rng(4).random((6, 6, 5))
        for k in (1, 2, 5):
            out = roi_align(_grid_from_map(fmap), GridBox(0.5, 0.5, 5.5, 5.5), k)
            assert out.shape == (k * k, 5)

    def test_box_outside_grid(self):
        grid = _grid_from_map(np.zeros((4, 4, 1)))
        with pytest.raises(RangeError):
            roi_align(grid, GridBox(1.0, 1.0, 5.0, 3.0), 2)

    def test_zero_k(self):
        grid = _grid_from_map(np.zeros((4, 4, 1)))
        with pytest.raises(ConfigurationError):
            roi_align(grid, GridBox(0.5, 0.5, 3.0, 3.0), 0)

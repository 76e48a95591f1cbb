"""Tokenizer tests: patch partitioning, embedding, grid bookkeeping, image IO."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prato.errors import ConfigurationError, ShapeError, ValidationError
from prato.numerics import make_rng
from prato.tokens import (
    EmbedderWeights,
    embed_tokens,
    load_image,
    load_plane_csv,
    make_embedder,
    patchify,
    save_image,
    sinusoidal_positions,
    tokenize_image,
    unpatchify,
)


class TestPatchify:
    def test_single_patch_raster_order(self):
        img = np.arange(16, dtype=float).reshape(1, 4, 4) / 16.0
        patches = patchify(img, 4)
        assert patches.shape == (1, 16)
        assert np.array_equal(patches[0], img.ravel())

    def test_four_patches_partition(self):
        img = make_rng(0).random((1, 4, 4))
        patches = patchify(img, 2)
        assert patches.shape == (4, 4)
        assert np.array_equal(unpatchify(patches, 1, 2, 2, 2), img)

    def test_constant_image_identical_rows(self):
        patches = patchify(np.full((2, 8, 8), 0.25), 4)
        assert np.all(patches == patches[0])

    def test_channel_major_flattening(self):
        # patch row layout: channel, then row, then column
        img = np.zeros((2, 2, 2))
        img[0] = [[1, 2], [3, 4]]
        img[1] = [[5, 6], [7, 8]]
        img = img / 8.0
        patches = patchify(img, 2)
        assert np.array_equal(patches[0] * 8.0, np.arange(1.0, 9.0))

    def test_indivisible_dimensions(self):
        with pytest.raises(ConfigurationError):
            patchify(np.zeros((1, 6, 6)), 4)

    def test_out_of_range_values_rejected(self):
        from prato.errors import ValidationError

        with pytest.raises(ValidationError):
            patchify(np.full((1, 4, 4), 1.5), 2)

    def test_token_count(self):
        assert patchify(np.zeros((3, 32, 48)), 8).shape[0] == (32 * 48) // 64

    @given(st.sampled_from([(8, 8, 2), (8, 8, 4), (16, 32, 8), (32, 16, 4), (48, 48, 16)]))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_and_count_grid(self, dims):
        h, w, p = dims
        img = make_rng(h * w + p).random((2, h, w))
        patches = patchify(img, p)
        assert patches.shape[0] == h * w // (p * p)
        assert np.array_equal(unpatchify(patches, 2, p, h // p, w // p), img)


class TestEmbed:
    def test_zero_weights(self):
        patches = make_rng(1).random((4, 8))
        w = EmbedderWeights(projection=np.zeros((8, 6)), positional=np.zeros((4, 6)))
        grid = embed_tokens(patches, w, 2, 2, 2)
        assert np.array_equal(grid.tokens, np.zeros((4, 6)))

    def test_identity_projection(self):
        patches = make_rng(2).random((4, 4))
        w = EmbedderWeights(projection=np.eye(4), positional=np.zeros((4, 4)))
        grid = embed_tokens(patches, w, 2, 2, 2)
        assert np.array_equal(grid.tokens, patches)

    def test_matches_composition_oracle(self):
        rng = make_rng(3)
        patches = rng.random((6, 12))
        proj = rng.normal(size=(12, 5))
        pos = rng.normal(size=(6, 5))
        w = EmbedderWeights(projection=proj, positional=pos)
        grid = embed_tokens(patches, w, 2, 3, 2)
        want = np.zeros((6, 5))
        for i in range(6):
            for j in range(5):
                want[i, j] = sum(patches[i, t] * proj[t, j] for t in range(12)) + pos[i, j]
        assert np.abs(grid.tokens - want).max() < 1e-12

    def test_shape_mismatch(self):
        w = EmbedderWeights(projection=np.zeros((9, 6)), positional=np.zeros((4, 6)))
        with pytest.raises(ShapeError):
            embed_tokens(np.zeros((4, 8)), w, 2, 2, 2)

    def test_index_map_is_row_major_bijection(self):
        img = make_rng(4).random((1, 8, 8))
        w = make_embedder(1, 4, 16, 2, 2, seed=0)
        grid = tokenize_image(img, w, 4)
        assert grid.z == 4
        assert np.array_equal(grid.token_index_map, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_learned_positional_is_seeded(self):
        a = make_embedder(1, 4, 8, 2, 2, seed=5, positional="learned")
        b = make_embedder(1, 4, 8, 2, 2, seed=5, positional="learned")
        assert np.array_equal(a.positional, b.positional)

    def test_sinusoidal_range(self):
        table = sinusoidal_positions(64, 32)
        assert table.shape == (64, 32)
        assert np.abs(table).max() <= 1.0


class TestImageIO:
    def test_prti_roundtrip(self, tmp_path):
        img = make_rng(5).random((3, 8, 4))
        path = tmp_path / "img.prti"
        save_image(path, img)
        assert np.array_equal(load_image(path), img)
        assert path.read_bytes()[:4] == b"PRTI"

    def test_out_of_range_payload_rejected_on_load(self, tmp_path):
        path = tmp_path / "img.prti"
        save_image(path, np.zeros((1, 2, 2)))
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError):
            load_image(path)

    def test_csv_plane(self, tmp_path):
        plane = make_rng(6).random((4, 4))
        path = tmp_path / "plane.csv"
        np.savetxt(path, plane, delimiter=",")
        loaded = load_plane_csv(path)
        assert loaded.shape == (1, 4, 4)
        np.testing.assert_allclose(loaded[0], plane, atol=1e-12)

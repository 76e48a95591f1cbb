"""Kernel tests: analytic cases, brute-force oracles, and properties."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prato.errors import ShapeError, ValidationError
from prato.numerics import (
    layer_norm,
    load_matrix,
    load_matrix_csv,
    logistic,
    make_rng,
    save_matrix,
    save_matrix_csv,
    softmax_rows,
)
from prato.tokens import load_image, save_image


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = softmax_rows(np.array([[1.0, 1.0, 1.0]]))
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_analytic_row(self):
        out = softmax_rows(np.array([[0.0, math.log(2.0)]]))
        np.testing.assert_allclose(out, [[1 / 3, 2 / 3]], atol=1e-15)

    def test_large_values_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.array_equal(out, [[0.5, 0.5]])

    def test_rows_sum_to_one_with_large_spread(self):
        rng = make_rng(4)
        m = rng.normal(scale=2000.0, size=(50, 64))
        s = softmax_rows(m)
        assert np.all(s >= 0)
        assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_property(self, seed):
        m = make_rng(seed).normal(scale=10.0, size=(4, 9))
        s = softmax_rows(m)
        assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-12


class TestLayerNorm:
    def test_constant_row_goes_to_beta(self):
        out = layer_norm(np.full((2, 5), 3.7), np.ones(5), np.zeros(5), eps=1e-6)
        assert np.array_equal(out, np.zeros((2, 5)))

    def test_already_normalized_row(self):
        out = layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2), eps=1e-12)
        np.testing.assert_allclose(out, [[1.0, -1.0]], atol=1e-9)

    def test_moments_oracle(self):
        rng = make_rng(5)
        m = rng.normal(loc=2.0, scale=3.0, size=(6, 32))
        out = layer_norm(m, np.ones(32), np.zeros(32), eps=1e-12)
        for row in out:
            mean = sum(row) / len(row)
            var = sum((v - mean) ** 2 for v in row) / len(row)
            assert abs(mean) < 1e-10
            assert abs(var - 1.0) < 1e-10

    def test_affine(self):
        out = layer_norm(np.array([[1.0, -1.0]]), 2 * np.ones(2), 5 * np.ones(2), eps=1e-12)
        np.testing.assert_allclose(out, [[7.0, 3.0]], atol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(np.zeros((2, 4)), np.ones(3), np.zeros(4), eps=1e-6)


class TestLogistic:
    def test_zero(self):
        assert logistic(0.0) == 0.5

    def test_value_at_three(self):
        assert abs(logistic(3.0) - 1.0 / (1.0 + math.exp(-3.0))) < 1e-15

    @given(st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_identity(self, x):
        assert abs(logistic(x) - (1.0 - logistic(-x))) < 1e-15

    @given(st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, x, y):
        # pairs closer than ~1e-12 can map to the same float64 value
        if x + 1e-9 < y:
            assert logistic(x) < logistic(y)

    def test_extremes_stay_finite(self):
        assert 0.0 <= logistic(-1e6) <= logistic(1e6) <= 1.0


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(99).normal(size=100)
        b = make_rng(99).normal(size=100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).normal(size=10), make_rng(2).normal(size=10))


class TestMatrixIO:
    def test_binary_roundtrip(self, tmp_path):
        rng = make_rng(6)
        m = rng.normal(size=(7, 5))
        path = tmp_path / "m.prtm"
        save_matrix(path, m)
        assert np.array_equal(load_matrix(path), m)

    def test_binary_header(self, tmp_path):
        path = tmp_path / "m.prtm"
        save_matrix(path, np.zeros((2, 3)))
        blob = path.read_bytes()
        assert blob[:4] == b"PRTM"
        assert int.from_bytes(blob[4:8], "little") == 2
        assert int.from_bytes(blob[8:12], "little") == 3
        assert len(blob) == 12 + 6 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.prtm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValidationError):
            load_matrix(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.prtm"
        path.write_bytes(b"PRTM" + struct.pack("<I", 2) + b"\x03")
        with pytest.raises(ValidationError, match="truncated header"):
            load_matrix(path)

    def test_declared_size_checked_before_payload(self, tmp_path):
        path = tmp_path / "huge.prtm"
        path.write_bytes(b"PRTM" + struct.pack("<II", 2**31, 2**31) + b"\x00" * 16)
        with pytest.raises(ValidationError, match="payload bytes"):
            load_matrix(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.prtm"
        save_matrix(path, np.zeros((2, 3)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValidationError):
            load_matrix(path)

    def test_csv_roundtrip(self, tmp_path):
        rng = make_rng(7)
        m = rng.normal(size=(9, 11))
        path = tmp_path / "m.csv"
        save_matrix_csv(path, m)
        assert np.array_equal(load_matrix_csv(path), m)

    def test_csv_cap(self, tmp_path):
        with pytest.raises(ValidationError):
            save_matrix_csv(tmp_path / "big.csv", np.zeros((101, 101)))


_LOADERS = [(load_matrix, save_matrix, np.zeros((2, 3))),
            (load_image, save_image, np.full((2, 3, 2), 0.5))]


@pytest.mark.parametrize("load, save, value", _LOADERS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_malformed_containers_raise_only_validation_error(tmp_path_factory, load, save, value, data):
    path = tmp_path_factory.mktemp("fuzz") / "blob"
    save(path, value)
    valid = path.read_bytes()
    blob = data.draw(st.one_of(
        st.binary(max_size=96),
        st.binary(max_size=96).map(lambda tail: valid[:4] + tail),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
    ))
    path.write_bytes(blob)
    try:
        out = load(path)
    except ValidationError:
        return
    header = len(valid) - 8 * value.size
    assert out.dtype == np.float64 and 8 * out.size == len(blob) - header

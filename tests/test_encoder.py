"""Encoder block tests: residual identity, equivariance, attention properties."""

import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from prato import encoder, numerics
from prato.encoder import (
    POOL_ABOVE,
    attention_map,
    encode_tokens,
    gelu,
    init_block_weights,
)
from prato.errors import ShapeError, ValidationError
from prato.numerics import make_rng, softmax_rows
from prato.selfcheck import attention_oracle
from prato.tokens import TokenGrid


def _grid(tokens, gh, gw):
    return TokenGrid(tokens=tokens, grid_h=gh, grid_w=gw)


class TestEncodeBlock:
    def test_zero_weights_is_identity(self):
        x = make_rng(0).normal(size=(12, 64))
        w = init_block_weights(64, 4, std=0.0)
        assert np.array_equal(encode_tokens(x, w), x)
        assert np.array_equal(encode_tokens(x, w, residual="sublayer"), x)

    def test_output_shape(self):
        x = make_rng(1).normal(size=(9, 32))
        w = init_block_weights(32, 4, seed=3)
        out = encode_tokens(x, w)
        assert out.shape == (9, 32)

    def test_permutation_equivariance(self):
        rng = make_rng(2)
        x = rng.normal(size=(10, 32))
        w = init_block_weights(32, 4, seed=4)
        perm = rng.permutation(10)
        out = encode_tokens(x, w)
        out_perm = encode_tokens(x[perm], w)
        assert np.abs(out_perm - out[perm]).max() < 1e-10

    def test_residual_modes_differ_on_random_weights(self):
        x = make_rng(3).normal(size=(6, 16))
        w = init_block_weights(16, 2, seed=5)
        a = encode_tokens(x, w, residual="block")
        b = encode_tokens(x, w, residual="sublayer")
        assert not np.allclose(a, b)

    def test_width_mismatch(self):
        w = init_block_weights(16, 2, seed=6)
        with pytest.raises(ShapeError):
            encode_tokens(np.zeros((4, 8)), w)

    @pytest.mark.parametrize("tokens, residual, error, match", [
        (np.zeros(16), "block", ShapeError, "tokens must be 2-D"),
        (np.zeros((2, 4, 16)), "block", ShapeError, "tokens must be 2-D"),
        (np.full((4, 16), np.nan), "block", ValidationError, "tokens contains non-finite"),
        (np.full((4, 16), np.inf), "sublayer", ValidationError, "tokens contains non-finite"),
        (np.zeros((4, 16)), "fused", ShapeError, "unknown residual mode 'fused'"),
    ])
    def test_bad_tokens_or_residual_rejected(self, tokens, residual, error, match):
        w = init_block_weights(16, 2, seed=1)
        with pytest.raises(error, match=match):
            encode_tokens(tokens, w, residual=residual)


class TestBlockedAttention:
    @pytest.mark.parametrize("residual", ["block", "sublayer"])
    @pytest.mark.parametrize("width,heads", [(64, 4), (48, 3), (32, 8)])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 1000])
    def test_matches_unblocked_oracle(self, monkeypatch, n, width, heads, residual):
        x = make_rng(n).normal(size=(n, width))
        w = init_block_weights(width, heads, seed=width + heads)
        got = encode_tokens(x, w, residual=residual)
        monkeypatch.setattr(encoder, "_attention", attention_oracle)
        want = encode_tokens(x, w, residual=residual)
        if n <= encoder.QUERY_BLOCK or n % encoder.QUERY_BLOCK == 0:
            assert np.array_equal(got, want)
        else:
            # BLAS edge kernels for a short last block may move the last ulp
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_peak_memory_below_one_score_matrix(self, monkeypatch):
        n = 2048
        x = make_rng(7).normal(size=(n, 64))
        w = init_block_weights(64, 4, seed=7)
        for cores in (1, 2):  # one thread, then two head groups on the pool
            monkeypatch.setattr(numerics, "_CORES", cores)
            tracemalloc.start()
            try:
                encode_tokens(x, w)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8


class TestPooledAttention:
    """Head groups on the worker pool, forced to two groups so one core covers them too."""

    @pytest.mark.parametrize("residual", ["block", "sublayer"])
    @pytest.mark.parametrize("heads", [1, 3, 4, 8])
    @pytest.mark.parametrize("n", [257, 300, 513, 768, 1000, 1024])
    def test_bitwise_equal_to_one_group(self, monkeypatch, n, heads, residual):
        x = make_rng(n + heads).normal(size=(n, 48))
        w = init_block_weights(48, heads, seed=heads)
        monkeypatch.setattr(numerics, "_CORES", 1)
        serial = encode_tokens(x, w, residual=residual)
        monkeypatch.setattr(numerics, "_CORES", 2)
        assert np.array_equal(encode_tokens(x, w, residual=residual), serial)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad_head", [0, 1])  # head 0 runs on the caller, head 1 on a worker
    def test_error_surfaces_after_every_group(self, monkeypatch, bad_head):
        monkeypatch.setattr(numerics, "_CORES", 2)
        x = make_rng(11).normal(size=(600, 32))  # 3 query blocks
        w = init_block_weights(32, 4, seed=11)
        w.wq[bad_head] = np.full_like(w.wq[bad_head], np.inf)
        done = []

        def slow_softmax(m, out=None):
            time.sleep(0.01)
            result = softmax_rows(m, out=out)
            done.append(threading.get_ident())
            return result

        monkeypatch.setattr(encoder, "softmax_rows", slow_softmax)
        with pytest.raises(ValidationError):
            encode_tokens(x, w)
        finished = len(done)
        time.sleep(0.05)
        # the other group's two heads ran all 3 blocks; the bad group stopped at its first
        assert finished == len(done) == 6

    @pytest.mark.parametrize("residual", ["block", "sublayer"])
    @pytest.mark.parametrize("width", [32, 36, 44, 48, 52, 64, 100])
    @pytest.mark.parametrize("n", [97, 128, 160, 192, 256, 257, 258, 259, 300, 511, 513, 768, 769,
                                   1024, 1025, 2048])
    def test_tail_parts_bitwise_equal_for_any_core_count(self, monkeypatch, n, width, residual):
        # OpenBLAS rounds products of some row counts apart at widths 36, 44, 52 and 100; the
        # parts' row counts are set by n alone, so the bits hold there too. Odd n split unevenly:
        # 769 rows make parts of 256, 256 and 257, and 1025 rows end in a 257-row part
        x = make_rng(n).normal(size=(n, width))
        w = init_block_weights(width, 4, seed=n)
        outs = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(numerics, "_CORES", cores)
            outs.append(encode_tokens(x, w, residual=residual))
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])

    @pytest.mark.parametrize("residual", ["block", "sublayer"])
    @pytest.mark.parametrize("width, heads", [(48, 1), (48, 3), (48, 4), (48, 8),
                                              (64, 1), (64, 4), (64, 8)])
    @pytest.mark.parametrize("n", [POOL_ABOVE + 1, POOL_ABOVE + 2, 160, 192, 255, 256])
    def test_small_pooled_blocks_bitwise_equal_for_any_core_count(self, monkeypatch, n, width,
                                                                   heads, residual):
        # one query block per head, split across head groups and row parts
        x = make_rng(n + width + heads).normal(size=(n, width))
        w = init_block_weights(width, heads, seed=n + heads)
        outs = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(numerics, "_CORES", cores)
            outs.append(encode_tokens(x, w, residual=residual))
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])

    def test_block_inside_a_group_keeps_one_thread_and_one_buffer(self, monkeypatch):
        monkeypatch.setattr(numerics, "_CORES", 2)
        n = 256
        x = make_rng(n).normal(size=(n, 32))
        w = init_block_weights(32, 4, seed=2)
        serial = encode_tokens(x, w)
        seen = []

        class SpyNumpy:  # records score buffers; everything else is numpy's
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape):
                if shape == (n, n):
                    seen.append((threading.get_ident(), "buffer"))
                return np.empty(shape)

        def spy_queries(x, wq):
            seen.append((threading.get_ident(), "head"))
            return queries(x, wq)

        def spy_gelu(m):
            seen.append((threading.get_ident(), len(m)))
            return gelu(m)

        queries = encoder._queries
        monkeypatch.setattr(encoder, "np", SpyNumpy())
        monkeypatch.setattr(encoder, "_queries", spy_queries)
        monkeypatch.setattr(encoder, "gelu", spy_gelu)
        groups = numerics.fan_out(lambda _: (threading.get_ident(), encode_tokens(x, w)), 2)
        assert len({ident for ident, _ in groups}) == 2
        for ident, out in groups:
            assert np.array_equal(out, serial)
            assert Counter(what for who, what in seen if who == ident) == \
                {"buffer": 1, "head": 4, 128: 2}  # one buffer, 4 heads and 2 row parts of one block
        assert {who for who, _ in seen} == {ident for ident, _ in groups}

    @pytest.mark.parametrize("n, parts, threads", [(40, 1, 1), (POOL_ABOVE, 1, 1),
                                                   (POOL_ABOVE + 1, 2, 2), (1024, 4, 2)])
    def test_tail_rows_leave_the_caller_above_the_threshold(self, monkeypatch, n, parts, threads):
        monkeypatch.setattr(numerics, "_CORES", 2)
        x = make_rng(n).normal(size=(n, 32))
        w = init_block_weights(32, 4, seed=1)
        seen = []

        def spy(m):
            seen.append((threading.get_ident(), len(m)))
            return gelu(m)

        monkeypatch.setattr(encoder, "gelu", spy)
        encode_tokens(x, w)
        idents = {ident for ident, _ in seen}
        assert len(idents) == threads and len(seen) == parts and threading.get_ident() in idents
        assert sorted(rows for _, rows in seen) == sorted(n * (i + 1) // parts - n * i // parts
                                                          for i in range(parts))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("residual", ["block", "sublayer"])
    @pytest.mark.parametrize("bad_part", [0, 1])  # part 0 runs on the caller, part 1 on a worker
    def test_tail_error_surfaces_after_every_part(self, monkeypatch, bad_part, residual):
        monkeypatch.setattr(numerics, "_CORES", 2)
        x = make_rng(12).normal(size=(600, 32))  # rows 0-299 and 300-599
        w = init_block_weights(32, 4, seed=12)
        attention, done = encoder._attention, []

        def poisoned(x, w):
            out = attention(x, w)
            out[300 * bad_part + 7] = np.inf
            return out

        def slow_gelu(m):
            time.sleep(0.02)
            done.append(threading.get_ident())
            return gelu(m)

        monkeypatch.setattr(encoder, "_attention", poisoned)
        monkeypatch.setattr(encoder, "gelu", slow_gelu)
        with pytest.raises(ValidationError):
            encode_tokens(x, w, residual=residual)
        finished = len(done)
        time.sleep(0.05)
        # the good part ran its FFN; the bad part stopped at its LN2 check
        assert finished == len(done) == 1


class TestAnyCoreCount:
    """One block over one token set at 1, 2 and 3 cores, which change its groups, not its parts."""

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 96, 97, 128, 192, 256, 257, 300])
    def test_matches_unblocked_oracle(self, monkeypatch, n, cores):
        monkeypatch.setattr(numerics, "_CORES", cores)
        for width, heads in [(48, 1), (48, 3), (48, 4), (48, 8), (64, 1), (64, 4), (64, 8)]:
            x = make_rng(n + width + heads).normal(size=(n, width))
            w = init_block_weights(width, heads, seed=n + heads)
            for residual in ("block", "sublayer"):
                got = encode_tokens(x, w, residual=residual)
                with monkeypatch.context() as m:
                    m.setattr(encoder, "_attention", attention_oracle)
                    want = encode_tokens(x, w, residual=residual)
                if n <= encoder.QUERY_BLOCK:
                    assert np.array_equal(got, want), (width, heads, residual)
                else:  # a short last query block may move the last ulp, as above
                    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 40, POOL_ABOVE + 1, 128, 192, 257, 768, 1024])
    def test_tail_runs_in_near_equal_parts(self, monkeypatch, n, cores):
        monkeypatch.setattr(numerics, "_CORES", cores)
        x = make_rng(n).normal(size=(n, 32))
        w = init_block_weights(32, 4, seed=4)
        seen = []

        def spy(m):
            seen.append((threading.get_ident(), len(m)))
            return gelu(m)

        monkeypatch.setattr(encoder, "gelu", spy)
        encode_tokens(x, w)
        parts = max(2, n // encoder.TAIL_ROWS) if n > POOL_ABOVE else 1  # set by n alone
        assert sorted(rows for _, rows in seen) == sorted(
            n * (i + 1) // parts - n * i // parts for i in range(parts))
        # the pool keeps the thread count of its first use, so count only caller and workers
        idents = {ident for ident, _ in seen}
        assert threading.get_ident() in idents and (len(idents) > 1) == (min(cores, parts) > 1)


class TestElementwiseHelpers:
    @pytest.mark.parametrize("name", ["softmax_rows", "gelu", "layer_norm"])
    def test_input_untouched_and_output_fresh(self, name):
        x = make_rng(9).normal(size=(5, 6))
        before = x.copy()
        fn = getattr(encoder, name)
        out = fn(x)
        assert np.array_equal(x, before)
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_softmax_rejects_non_finite(self, bad):
        m = np.zeros((3, 4))
        m[1, 2] = bad
        with pytest.raises(ValidationError):
            encoder.softmax_rows(m)


class TestAttentionMap:
    def test_rows_are_distributions(self):
        x = make_rng(4).normal(size=(8, 32))
        w = init_block_weights(32, 4, seed=7)
        for head in range(4):
            attn = attention_map(_grid(x, 2, 4), w, head)
            assert attn.shape == (8, 8)
            assert np.all(attn >= 0)
            assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-12

    def test_identical_tokens_uniform_rows(self):
        x = np.tile(make_rng(5).normal(size=(1, 32)), (6, 1))
        w = init_block_weights(32, 4, seed=8)
        attn = attention_map(_grid(x, 2, 3), w, 0)
        np.testing.assert_allclose(attn, np.full((6, 6), 1 / 6), atol=1e-12)

    def test_matches_naive_oracle(self):
        from prato.numerics import layer_norm

        rng = make_rng(6)
        x = rng.normal(size=(7, 16))
        w = init_block_weights(16, 2, seed=9)
        head = 1
        got = attention_map(_grid(x, 1, 7), w, head)
        normed = layer_norm(x, 1e-6)
        d_h = 8
        logits = np.zeros((7, 7))
        for i in range(7):
            qi = normed[i] @ w.wq[head]
            for j in range(7):
                kj = normed[j] @ w.wk[head]
                logits[i, j] = float(qi @ kj) / np.sqrt(d_h)
        want = softmax_rows(logits)
        assert np.abs(got - want).max() < 1e-10

    @staticmethod
    def _applied_and_maps(monkeypatch, n, grid_w):
        """Per thread, the weights its softmax calls returned in call order; per head, the map."""
        monkeypatch.setattr(numerics, "_CORES", 2)
        x = make_rng(8).normal(size=(n, 24))
        w = init_block_weights(24, 3, seed=14)  # d_h = 8, whose sqrt is not a power of two
        applied = {}

        def spy(m, out=None):
            result = softmax_rows(m, out=out)
            applied.setdefault(threading.get_ident(), []).append(result.copy())
            return result

        monkeypatch.setattr(encoder, "softmax_rows", spy)
        encode_tokens(x, w)
        monkeypatch.undo()
        maps = [attention_map(_grid(x, n // grid_w, grid_w), w, head) for head in range(3)]
        caller = np.vstack(applied.pop(threading.get_ident()))
        return caller, [np.vstack(blocks) for blocks in applied.values()], maps

    def test_equals_block_weights_bitwise(self, monkeypatch):
        caller, workers, maps = self._applied_and_maps(monkeypatch, 20, 5)
        assert not workers  # one query block: no pool
        assert np.array_equal(caller, np.vstack(maps))

    def test_equals_pooled_block_weights_bitwise(self, monkeypatch):
        # two query blocks on two head groups: {0, 2} on the caller, {1} on the worker
        caller, (worker,), maps = self._applied_and_maps(monkeypatch, 300, 20)
        assert np.array_equal(caller, np.vstack([maps[0], maps[2]]))
        assert np.array_equal(worker, maps[1])

    def test_head_out_of_range(self):
        w = init_block_weights(16, 2, seed=10)
        with pytest.raises(IndexError):
            attention_map(_grid(np.zeros((4, 16)), 2, 2), w, 2)


class TestWeightsIO:
    def test_init_is_seeded(self):
        a = init_block_weights(32, 4, seed=13)
        b = init_block_weights(32, 4, seed=13)
        assert np.array_equal(a.wo, b.wo)
        assert np.array_equal(a.wq[2], b.wq[2])

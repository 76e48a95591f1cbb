"""Kernel tests: analytic cases, brute-force oracles, and properties."""

import ast
import json
import math
import os
import struct
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prato import numerics
from prato.cli import main
from prato.errors import ConfigurationError, ShapeError, ValidationError
from prato.numerics import (
    SHIFT_FREE,
    fan_out,
    layer_norm,
    load_matrix_csv,
    logistic,
    make_rng,
    open_new,
    parse_float,
    softmax_rows,
)
from prato.pipeline import PipelineConfig, PromptPerturbation, block_flop_terms, estimate_flops
from prato.prune import ThresholdPolicy
from prato.roi import BoxPrompt, GridBox, load_box, roi_align, save_box
from prato.synth import SweepSpec, generate_scene
from prato.tokens import IMAGE_MAGIC, TokenGrid, load_image, patchify, save_image


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

    @pytest.mark.parametrize("with_v", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first column", "last column", "row max", "all -inf row"])
    @pytest.mark.parametrize("into", ["fresh", "out", "in place"])
    def test_non_finite_refused_before_out_is_written(self, bad, where, into, with_v):
        m = make_rng(3).normal(size=(4, 7))
        if where == "all -inf row":
            m[2] = -np.inf
        col = {"first column": 0, "last column": 6, "row max": int(np.argmax(m[2]))}.get(where, 3)
        m[2, col] = bad
        out = {"fresh": None, "out": np.full(m.shape, 7.0), "in place": m}[into]
        v = make_rng(4).normal(size=(7, 3)) if with_v else None
        held = [a for a in (m, out) if a is not None]
        before = [a.copy() for a in held]
        with pytest.raises(ValidationError, match="non-finite"):
            softmax_rows(m, out=out, v=v)
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(held, before))

    @pytest.mark.parametrize("bad_v, error", [
        (np.ones(7), ShapeError),  # 1-D
        (np.ones((6, 3)), ShapeError),  # rows != columns of m
        (np.where(np.eye(7, 3) > 0, np.nan, 1.0), ValidationError),
        (np.where(np.eye(7, 3) > 0, -np.inf, 1.0), ValidationError),
    ])
    def test_bad_v_refused_before_out_is_written(self, bad_v, error):
        m = make_rng(3).normal(size=(4, 7))
        before = m.copy()
        with pytest.raises(error, match="^v "):
            softmax_rows(m, out=m, v=bad_v)
        assert np.array_equal(m, before)

    def test_zero_columns_refused_zero_rows_empty(self):
        with pytest.raises(ShapeError, match="m must"):
            softmax_rows(np.zeros((3, 0)))
        with pytest.raises(ShapeError, match="m must"):
            softmax_rows(np.zeros((3, 0)), v=np.zeros((0, 2)))
        assert softmax_rows(np.zeros((0, 5))).shape == (0, 5)
        assert softmax_rows(np.zeros((0, 5)), v=np.ones((5, 2))).shape == (0, 2)

    @pytest.mark.parametrize("row_max", [None, 1000.0, -1000.0])
    def test_v_path_equals_softmax_then_product(self, row_max):
        rng = make_rng(6)
        m = rng.normal(scale=8.0, size=(9, 40))
        v = rng.normal(size=(40, 16))
        if row_max is None:  # the shift-free branch
            assert np.abs(m.max(axis=1)).max() <= SHIFT_FREE
        else:  # one row is shifted; unshifted, a -1000 row's exps all underflow to 0
            m[4] += row_max - m[4].max()
            with np.errstate(over="ignore"):
                assert np.exp(m[4]).sum() in (0.0, np.inf)
        want = softmax_rows(m) @ v
        for out in (None, m.copy()):
            got = softmax_rows(m, out=out, v=v)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        e = np.exp(m - m.max(axis=1, keepdims=True))  # the shifted textbook form
        textbook = (e / e.sum(axis=1, keepdims=True)) @ v
        assert np.abs(want - textbook).max() <= 1e-14 * np.abs(want).max()

    def test_a_row_does_not_depend_on_its_block(self):
        # one row past +-SHIFT_FREE does not move the bits of the rows that need no shift
        m = make_rng(7).normal(scale=8.0, size=(6, 30))
        shifted = m.copy()
        shifted[2] += 500.0
        v = make_rng(8).normal(size=(30, 4))
        others = [0, 1, 3, 4, 5]
        for values in (None, v):
            want = softmax_rows(m, v=values)
            assert np.array_equal(softmax_rows(shifted, v=values)[others], want[others])

    def test_in_place_block_makes_no_block_sized_temporary(self):
        m = make_rng(5).normal(size=(256, 1024))
        v = make_rng(6).normal(size=(1024, 16))
        want = softmax_rows(m)
        want_v = want @ v
        for values in (None, v):
            a = m.copy()
            tracemalloc.start()
            try:
                got = softmax_rows(a, out=a, v=values)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if values is None:
                assert got is a and np.array_equal(a, want)
            else:
                assert np.abs(got - want_v).max() <= 1e-14 * np.abs(want_v).max()
            assert peak < m.nbytes // 16  # not even a (rows, n) bool mask, m.nbytes // 8


class TestLayerNorm:
    def test_constant_row_goes_to_beta(self):
        out = layer_norm(np.full((2, 5), 3.7), eps=1e-6)
        assert np.array_equal(out, np.zeros((2, 5)))

    def test_already_normalized_row(self):
        out = layer_norm(np.array([[1.0, -1.0]]), eps=1e-12)
        np.testing.assert_allclose(out, [[1.0, -1.0]], atol=1e-9)

    def test_moments_oracle(self):
        rng = make_rng(5)
        m = rng.normal(loc=2.0, scale=3.0, size=(6, 32))
        out = layer_norm(m, eps=1e-12)
        for row in out:
            mean = sum(row) / len(row)
            var = sum((v - mean) ** 2 for v in row) / len(row)
            assert abs(mean) < 1e-10
            assert abs(var - 1.0) < 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow at the extreme rows
    @pytest.mark.parametrize("width", [1, 2, 7, 48, 64, 129, 300])
    @pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 3e5, 1e150, 1e300])
    def test_bitwise_equal_to_mean_and_var(self, width, scale):
        rng = make_rng(width)
        m = np.vstack([
            rng.normal(size=(3, width)) * scale,
            np.full((1, width), 3.7 * scale),  # a constant row
            rng.normal(loc=1e6, size=(1, width)) * min(scale, 1.0),  # mean far above spread
            np.linspace(-1.0, 1.0, width)[None, :] * np.finfo(np.float64).max,
        ])
        for eps in (1e-12, 1e-6):
            want = m - m.mean(axis=1, keepdims=True)
            want /= np.sqrt(m.var(axis=1, keepdims=True) + eps)
            assert np.array_equal(layer_norm(m, eps), want, equal_nan=True)

    @pytest.mark.filterwarnings("error")
    def test_zero_columns_refused(self):
        with pytest.raises(ShapeError, match="m must"):
            layer_norm(np.zeros((3, 0)))
        assert layer_norm(np.zeros((0, 4))).shape == (0, 4)


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

    @pytest.mark.filterwarnings("error")
    def test_infinities_keep_their_limits_and_nan_is_refused(self):
        assert logistic(np.array([np.inf, -np.inf])).tolist() == [1.0, 0.0]
        for x in (np.array([np.nan]), np.array([0.5, np.nan, -np.inf]), math.nan):
            with pytest.raises(ValidationError, match="NaN"):
                logistic(x)


class TestParseFloat:
    @pytest.mark.parametrize("value", [0, -3, 2**53 + 1, 2.5, 1e-300, -1.7e308])
    def test_finite_numbers_pass_as_float(self, value):
        got = parse_float(value, "k")
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value", [True, False, "1.0", None, [1.0], math.inf, -math.inf,
                                       math.nan, 10**400, -10**400], ids=lambda v: repr(v)[:8])
    def test_other_values_raise_naming_the_key(self, value):
        with pytest.raises(ConfigurationError, match="^eps must be a finite number, got "):
            parse_float(value, "eps")


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(99).normal(size=100)
        b = make_rng(99).normal(size=100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).normal(size=10), make_rng(2).normal(size=10))

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int32(7), np.uint8(7)])
    def test_numpy_integers_give_the_python_integer_stream(self, seed):
        assert np.array_equal(make_rng(seed).normal(size=10), make_rng(7).normal(size=10))

    def test_large_seeds_accepted(self):
        assert len({make_rng(seed).random() for seed in (0, 2**64 - 1, 2**200)}) == 3

    @pytest.mark.parametrize("seed", [1.5, 2.0, -1, np.int64(-3), True, np.bool_(True), "3", None,
                                      [1], np.array([1, 2])], ids=repr)
    def test_other_seeds_raise_naming_the_seed(self, seed):
        with pytest.raises(ConfigurationError, match="^seed must be a non-negative integer, got "):
            make_rng(seed)


# The number law. Each integer field or operand of the public API: its key, its lower bound (None
# for one whose range check has a message of its own), a call that puts a value there, and a
# valid value. Python-built records obey the rule a JSON file does.
_GRID, _BOX = TokenGrid(np.zeros((16, 8)), 4, 4), dict(x1=0.1, y1=0.1, x2=0.9, y2=0.9)
_POLICIES, _PERTURBATIONS = [ThresholdPolicy("percentile", 25.0)], [PromptPerturbation("tight")]
_CONFIG_INTS = dict(depth=4, patch_size=16, embed_dim=64, heads=4, roi_k=5, d_v=64,
                    sampling_ratio=2, seed=3)
_INTEGERS = {
    **{f"config.{key}": (key, 0 if key == "seed" else 1,
                         lambda v, key=key: PipelineConfig(**{key: v}), good)
       for key, good in _CONFIG_INTS.items()},
    "config.stage_indices": ("stage_indices", None, lambda v: PipelineConfig(stage_indices=(v,)), 1),
    "spec.k_values": ("k_values", None, lambda v: SweepSpec(_POLICIES, [v], _PERTURBATIONS, 1), 3),
    "spec.seeds": ("seeds", 1, lambda v: SweepSpec(_POLICIES, [3], _PERTURBATIONS, v), 2),
    "spec.base_seed": ("base_seed", 0,
                       lambda v: SweepSpec(_POLICIES, [3], _PERTURBATIONS, 1, base_seed=v), 0),
    "spec.size": ("size", None, lambda v: SweepSpec(_POLICIES, [3], _PERTURBATIONS, 1, size=v), 64),
    "generate_scene.size": ("size", None, lambda v: generate_scene("ellipse", v, 0), 16),
    "roi_align.k": ("k", 1, lambda v: roi_align(_GRID, GridBox(0, 0, 2, 2), v), 2),
    "roi_align.sampling_ratio": ("sampling_ratio", 1,
                                 lambda v: roi_align(_GRID, GridBox(0, 0, 2, 2), 2, v), 2),
    "patchify.patch_size": ("patch_size", 1, lambda v: patchify(np.zeros((1, 16, 16)), v), 4),
    "block_flop_terms.n_tokens": ("n_tokens", 0, lambda v: block_flop_terms(v, 8), 4),
    "block_flop_terms.width": ("width", 1, lambda v: block_flop_terms(4, v), 8),
    "estimate_flops.count": ("tokens_per_block", None, lambda v: estimate_flops(4, 8, 1, [v]), 4),
    "estimate_flops.depth": ("depth", 1, lambda v: estimate_flops(4, 8, v, [4]), 1),
}
_RULES = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
# Each float field: its key, its error class and a call that puts a value there. A magnitude's
# NaN, infinities and negatives keep the range message that TestPerturbations holds, and every
# float's below-range message is unchanged, so those values are not cases here.
_FLOATS = {
    "policy.value": ("policy value", ConfigurationError, lambda v: ThresholdPolicy("percentile", v)),
    "perturbation.magnitude": ("perturbation magnitude", ConfigurationError,
                               lambda v: PromptPerturbation("oversized", v)),
    "config.ln_eps": ("ln_eps", ConfigurationError, lambda v: PipelineConfig(ln_eps=v)),
    **{f"box.{key}": (key, ValidationError, lambda v, key=key: BoxPrompt(**{**_BOX, key: v}))
       for key in _BOX},
}


def _law_cases():
    for case, (key, lo, call, _) in _INTEGERS.items():
        for v in [True, np.bool_(True), 2.5, "3", None] + ([] if lo is None else [lo - 1]):
            yield pytest.param(call, v, ConfigurationError, f"{key} must be {_RULES[lo]}, got {v!r}",
                               id=f"{case}={v!r}")
    for case, (key, error, call) in _FLOATS.items():
        non_finite = [] if case == "perturbation.magnitude" else [math.nan, math.inf, -math.inf]
        for v in [True, np.bool_(True), "3", None] + non_finite:
            yield pytest.param(call, v, error, f"{key} must be a finite number, got {v!r}",
                               id=f"{case}={v!r}")


class TestNumberLaw:
    @pytest.mark.parametrize("call, value, error, message", _law_cases())
    def test_a_bad_number_raises_one_message(self, call, value, error, message):
        with pytest.raises(error) as info:
            call(value)
        assert str(info.value) == message

    def test_numpy_integers_are_accepted_and_records_hold_python_ints(self):
        for *_, call, good in _INTEGERS.values():
            for cast in (np.int64, np.uint8):
                call(cast(good))
        cfg = PipelineConfig(stage_indices=(np.int64(1),),
                             **{key: np.int64(v) for key, v in _CONFIG_INTS.items()})
        assert cfg == PipelineConfig(stage_indices=(1,), **_CONFIG_INTS)
        assert {type(getattr(cfg, key)) for key in _CONFIG_INTS} | {type(cfg.stage_indices[0])} == {int}
        assert json.loads(json.dumps(cfg.to_dict())) == PipelineConfig(**_CONFIG_INTS).to_dict()
        spec = SweepSpec(_POLICIES, [np.int64(3)], _PERTURBATIONS, np.int64(2), size=np.int32(64),
                         base_seed=np.uint8(5))
        assert [type(v) for v in (spec.seeds, spec.size, spec.base_seed)] == [int, int, int]
        assert type(spec.k_values[0]) is np.int64  # checked, kept as given

    def test_as_int_returns_a_python_int_at_each_bound(self):
        assert numerics.as_int(np.uint64(2**64 - 1), "n") == 2**64 - 1
        assert [type(numerics.as_int(np.int8(v), "n", v)) for v in (0, 1)] == [int, int]
        assert numerics.as_int(-(2**70), "n") == -(2**70)

    def test_count_below_one_is_one_cli_line(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "scenes"), "--count", "0"]) == 2
        assert capsys.readouterr().err == "prato: error: --count must be a positive integer, got 0\n"
        assert not (tmp_path / "scenes").exists()


class TestMatrixIO:
    """The binary image container and CSV import."""

    def test_binary_roundtrip(self, tmp_path):
        img = make_rng(6).random((2, 7, 5))
        path = tmp_path / "m.prti"
        save_image(path, img)
        loaded = load_image(path)
        assert loaded.shape == (2, 7, 5) and loaded.dtype == np.float64
        assert np.array_equal(loaded, img)

    def test_binary_header(self, tmp_path):
        path = tmp_path / "m.prti"
        save_image(path, np.zeros((1, 2, 3)))
        blob = path.read_bytes()
        assert blob[:4] == b"PRTI"
        assert struct.unpack("<III", blob[4:16]) == (1, 2, 3)
        assert len(blob) == 16 + 6 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.prti"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValidationError):
            load_image(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.prti"
        path.write_bytes(b"PRTI" + struct.pack("<II", 1, 2) + b"\x03")
        with pytest.raises(ValidationError, match="truncated header"):
            load_image(path)

    def test_declared_size_checked_before_payload(self, tmp_path):
        path = tmp_path / "huge.prti"
        path.write_bytes(b"PRTI" + struct.pack("<III", 1, 2**31, 2**31) + b"\x00" * 16)
        with pytest.raises(ValidationError, match="payload bytes"):
            load_image(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.prti"
        save_image(path, np.zeros((1, 2, 3)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValidationError):
            load_image(path)

    def test_csv_roundtrip(self, tmp_path):
        m = make_rng(7).normal(size=(9, 11))
        path = tmp_path / "m.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in m))
        assert np.array_equal(load_matrix_csv(path), m)

    def test_csv_non_numeric_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,abc\n0.2,0.3\n")
        with pytest.raises(ValidationError, match="abc"):
            load_matrix_csv(path)


_LOADERS = [(load_image, save_image, np.full((2, 3, 2), 0.5))]


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


class TestOpenNew:
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("a much longer old content\n" * 20)
        with open_new(path) as f:
            f.write("new")
        assert path.read_bytes() == b"new"

    def test_creates_missing_target(self, tmp_path):
        path = tmp_path / "fresh.bin"
        with open_new(path, "wb") as f:
            f.write(b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"

    @pytest.mark.parametrize("make_link", [lambda link, target: link.symlink_to(target),
                                           lambda link, target: os.link(target, link)],
                             ids=["symlink", "hard link"])
    def test_link_is_replaced_not_written_through(self, tmp_path, make_link):
        target = tmp_path / "target.txt"
        target.write_text("keep me")
        link = tmp_path / "link.txt"
        make_link(link, target)
        with open_new(link) as f:
            f.write("new")
        assert not link.is_symlink() and link.read_text() == "new"
        assert target.read_text() == "keep me"


# (writer, loader or None, a value, a larger value written first)
_WRITERS = {
    "image": (save_image, load_image, np.full((1, 4, 4), 0.25), np.zeros((3, 8, 8))),
    "box": (save_box, load_box, BoxPrompt(0.1, 0.2, 0.5, 0.75),
            BoxPrompt(0.123456789, 0.223456789, 0.523456789, 0.723456789)),
}


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_writer_rewrites_round_trip_byte_identically(tmp_path, name):
    save, load, value, bigger = _WRITERS[name]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    save(fresh, value)
    save(reused, bigger)
    for _ in range(2):
        save(reused, value)
        assert reused.read_bytes() == fresh.read_bytes()
    if load is not None:
        again = load(reused)
        assert np.array_equal(again, value) if isinstance(value, np.ndarray) else again == value


_SRC = Path(__file__).resolve().parents[1] / "src" / "prato"


def _write_opens(tree) -> list:
    """Line numbers of open() calls that may write, outside the body of ``open_new``."""
    exempt = {id(n) for d in ast.walk(tree)
              if isinstance(d, ast.FunctionDef) and d.name == "open_new" for n in ast.walk(d)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                lines.append(node.lineno)
    return lines


def test_write_guard_flags_writers_and_spares_readers():
    flagged = _write_opens(ast.parse(
        "def f(p, m):\n"
        "    open(p, 'w'); open(p, mode='ab'); open(p, 'r+'); open(p, m); p.write_text('x')\n"
        "    open(p); open(p, 'rb'); open(p, newline='')\n"
        "def open_new(p, mode='w'):\n"
        "    return open(p, mode)\n"))
    assert flagged == [2] * 5


def test_library_writes_go_through_open_new():
    """Replace-by-truncate makes ext4 flush; every library writer must unlink first."""
    files = sorted(_SRC.glob("*.py"))
    assert files
    offenders = [f"{path.name}:{line}" for path in files
                 for line in _write_opens(ast.parse(path.read_text()))]
    assert offenders == [], f"open a written file with numerics.open_new: {offenders}"


_SPAWNERS = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "start_new_thread",
             "multiprocessing"}


def _concurrency_uses(tree) -> list:
    """Line numbers that name a thread, pool or process API outside the body of ``fan_out``."""
    exempt = {id(n) for d in ast.walk(tree)
              if isinstance(d, ast.FunctionDef) and d.name == "fan_out" for n in ast.walk(d)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "multiprocessing" for a in node.names)
        elif isinstance(node, ast.ImportFrom):  # a renamed import would hide its uses
            hit = (node.module or "").split(".")[0] == "multiprocessing" or any(
                a.name in _SPAWNERS and a.asname for a in node.names)
        else:
            hit = getattr(node, "id", getattr(node, "attr", None)) in _SPAWNERS
        if hit:
            lines.append(node.lineno)
    return lines


def test_concurrency_guard_flags_spawners_and_spares_fan_out():
    flagged = _concurrency_uses(ast.parse(
        "import multiprocessing.pool; from multiprocessing import Pool\n"
        "from threading import Thread as T; t = threading.Thread(target=f); ThreadPoolExecutor(2)\n"
        "from concurrent.futures import ThreadPoolExecutor, wait; import threading, os\n"
        "def fan_out(fn, count):\n"
        "    return ThreadPoolExecutor(1), threading.Thread, local()\n"))
    assert flagged == [1, 1, 2, 2, 2]


def test_library_concurrency_goes_through_fan_out():
    """One concurrency path: a second pool would not share fan_out's nesting and error rules."""
    files = sorted(_SRC.glob("*.py"))
    assert files
    offenders = [f"{path.name}:{line}" for path in files
                 for line in _concurrency_uses(ast.parse(path.read_text()))]
    assert offenders == [], f"run concurrent work with numerics.fan_out: {offenders}"


class TestFanOut:
    """Group counts are forced through ``numerics._CORES``, so one core covers the pool too."""

    @pytest.fixture
    def fresh_pool(self, monkeypatch):
        monkeypatch.setattr(numerics, "_pool", {})
        yield
        if "threads" in numerics._pool:
            numerics._pool["threads"].shutdown(wait=False)

    @pytest.mark.parametrize("cores", [1, 2, 3, 5])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 7])
    def test_index_order_and_groups(self, monkeypatch, fresh_pool, cores, count):
        monkeypatch.setattr(numerics, "_CORES", cores)
        thread = {}

        def square(i):
            thread[i] = threading.get_ident()
            return i * i

        assert fan_out(square, count) == [i * i for i in range(count)]
        groups = min(cores, count)
        assert all(thread[i] == thread[i % groups] for i in range(count))  # group i mod G
        assert all(thread[i] == threading.get_ident() for i in range(0, count, groups or 1))

    def test_pool_is_sized_by_the_cores_not_the_first_call(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(numerics, "_CORES", 4)
        assert fan_out(lambda i: i, 2) == [0, 1]  # the first call needs one pool thread
        meet = threading.Barrier(4, timeout=10)

        def together(i):
            meet.wait()  # passes only while all four items run at once
            return threading.get_ident()

        assert len(set(fan_out(together, 4))) == 4

    def test_error_of_the_lowest_index_after_every_group(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(numerics, "_CORES", 3)
        ran, late, failed = [], threading.Event(), []

        def item(i):
            ran.append(i)
            if i == 2:
                late.set()
                raise ValidationError("item 2")
            if i == 4:  # group 1 fails after group 2 did
                late.wait(10)
                time.sleep(0.05)
                failed.append(i)
                raise ShapeError("item 4")
            return i

        with pytest.raises(ValidationError, match="item 2"):
            fan_out(item, 9)
        assert failed == [4]  # raised once the slow group finished
        # each failed group stopped at its first error; group 0 ran to the end
        assert sorted(ran) == [0, 1, 2, 3, 4, 6]

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_nested_fan_out_runs_inline(self, monkeypatch, in_child):
        monkeypatch.setattr(numerics, "_CORES", 2)

        def nest():
            threads = fan_out(lambda i: fan_out(lambda j: threading.get_ident(), 3), 2)
            return all(len(set(t)) == 1 for t in threads) and len({t[0] for t in threads}) == 2

        # one pool thread: a nested fan-out that submitted from it would wait on itself
        assert in_child(nest)
        assert nest()
        assert not numerics._group.active  # the caller's flag is reset
        # a one-group fan-out is a plain loop: the fan-outs inside it still use the pool
        assert len(set(fan_out(lambda i: fan_out(lambda j: threading.get_ident(), 2), 1)[0])) == 2

    def test_concurrent_callers_share_the_pool(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(numerics, "_CORES", 3)  # a pool of 2 threads, for 4 callers
        x = make_rng(13).normal(size=(64, 64))

        def item(i):
            return softmax_rows(x * (i + 1)) @ x

        want = [item(i) for i in range(5)]
        got = [None] * 4

        def call(c):
            got[c] = fan_out(item, 5)

        threads = [threading.Thread(target=call, args=(c,)) for c in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(g is not None and all(np.array_equal(a, b) for a, b in zip(g, want))
                   for g in got)

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_runs_a_fan_out(self, monkeypatch, in_child):
        monkeypatch.setattr(numerics, "_CORES", 2)
        assert fan_out(lambda i: i, 2) == [0, 1]  # starts the process pool's thread
        assert in_child(lambda: fan_out(lambda i: 3 * i, 4) == [0, 3, 6, 9])

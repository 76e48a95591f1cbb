"""Relevance scoring and mask tests: analytic cases, oracles, rank laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prato.errors import EmptyRetentionError, ShapeError, ValidationError
from prato.numerics import make_rng, softmax_rows
from prato.pipeline import PipelineConfig, encode_prefix, prato_score, run_pipeline
from prato.prune import (
    Projections,
    PrunedTokens,
    ThresholdPolicy,
    build_mask,
    compute_similarity,
    entropy_rows,
    inverse_entropy_weights,
    make_projections,
    relevance_scores,
    retention_target,
    scatter_tokens,
)
from prato.roi import BoxPrompt
from prato.selfcheck import entropy_oracle
from prato.tokens import make_embedder, row_major_index_map, tokenize_image


class TestComputeSimilarity:
    def test_identity_projections_identity_features(self):
        d = 6
        proj = Projections(f1=np.eye(d), f2=np.eye(d))
        s = compute_similarity(np.eye(d), np.eye(d), proj)
        assert np.abs(s - np.eye(d) / math.sqrt(d)).max() < 1e-15

    def test_zero_region(self):
        proj = make_projections(8, 4, seed=0)
        s = compute_similarity(np.zeros((5, 8)), make_rng(0).normal(size=(9, 8)), proj)
        assert np.array_equal(s, np.zeros((5, 9)))

    def test_per_pair_oracle(self):
        rng = make_rng(1)
        f = rng.normal(size=(4, 8))
        y = rng.normal(size=(7, 8))
        proj = make_projections(8, 5, seed=2, tied=False)
        got = compute_similarity(f, y, proj)
        v1 = f @ proj.f1
        v2 = y @ proj.f2
        want = np.zeros((4, 7))
        for i in range(4):
            for j in range(7):
                want[i, j] = sum(v1[i, t] * v2[j, t] for t in range(5)) / math.sqrt(5)
        assert np.abs(got - want).max() < 1e-12

    def test_width_mismatch(self):
        proj = make_projections(8, 4, seed=3)
        with pytest.raises(ShapeError):
            compute_similarity(np.zeros((2, 9)), np.zeros((3, 8)), proj)

    def test_tied_projections_share_draw(self):
        proj = make_projections(16, 8, seed=4, tied=True)
        assert np.array_equal(proj.f1, proj.f2)
        untied = make_projections(16, 8, seed=4, tied=False)
        assert not np.array_equal(untied.f1, untied.f2)


class TestComputeEntropy:
    """``entropy_rows``, the entropy the pipeline runs, against analytic values and the oracle."""

    def test_uniform(self):
        assert entropy_rows([np.full(16, 1 / 16)])[0] == 4.0

    def test_one_hot(self):
        assert entropy_rows([[0.0, 0.0, 1.0, 0.0]])[0] == 0.0

    def test_analytic(self):
        assert abs(entropy_rows([[0.5, 0.25, 0.25]])[0] - 1.5) < 1e-15

    def test_rows_helper_matches(self):
        rng = make_rng(5)
        probs = softmax_rows(rng.normal(size=(6, 12)))
        rows = entropy_rows(probs)
        for i in range(6):
            assert abs(rows[i] - entropy_oracle(probs[i])) < 1e-12


class TestInverseEntropyWeights:
    def test_rank_definition(self):
        assert np.array_equal(inverse_entropy_weights([0.2, 0.9, 0.5]), [1.0, 0.0, 0.5])

    def test_tie_rule_by_index(self):
        assert np.array_equal(inverse_entropy_weights([0.7, 0.7, 0.7]), [1.0, 0.5, 0.0])

    def test_single_entry(self):
        assert np.array_equal(inverse_entropy_weights([3.2]), [1.0])

    def test_one_column_similarity_ranks_by_index(self):
        # every row's softmax is exactly 1, so every entropy is 0; a row sum taken as a
        # reciprocal left rows 0 and 2 at 1 - 1 ulp, and ranked them last
        s = np.array([[-2.1], [0.3], [-4.8], [1.5]])
        assert np.array_equal(softmax_rows(s), np.ones((4, 1)))
        weights = inverse_entropy_weights(entropy_rows(softmax_rows(s)))
        assert np.array_equal(weights, [1, 2 / 3, 1 / 3, 0])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match=r"^entropies must be 1-D with at least one entry, got shape \(0,\)$"):
            inverse_entropy_weights([])

    def test_sorted_weights_are_exact_uniform_grid(self):
        # distinct entropies: sorted weights must be bit-equal to the grid
        m = 25
        grid = np.arange(m) / (m - 1)
        rng = make_rng(6)
        for _ in range(100):
            w = inverse_entropy_weights(rng.normal(size=m))
            assert np.array_equal(np.sort(w), grid)

    def test_weights_reflect_ranks(self):
        e = make_rng(7).normal(size=25)
        # in stable entropy order the weights step down from 1 to 0 by exactly 1/(M-1)
        assert np.array_equal(inverse_entropy_weights(e)[np.argsort(e, kind="stable")],
                              np.arange(24, -1, -1) / 24)


class TestRelevanceScores:
    def test_unit_weights_give_column_means(self):
        s = make_rng(8).normal(size=(5, 7))
        r = relevance_scores(s, np.ones(5))
        np.testing.assert_allclose(r, s.mean(axis=0), atol=1e-15)

    def test_zero_weights(self):
        s = make_rng(9).normal(size=(5, 7))
        assert np.array_equal(relevance_scores(s, np.zeros(5)), np.zeros(7))

    def test_double_loop_oracle(self):
        rng = make_rng(10)
        s = rng.normal(size=(6, 9))
        w = rng.random(6)
        got = relevance_scores(s, w)
        for j in range(9):
            want = sum(w[i] * s[i, j] for i in range(6)) / 6
            assert abs(got[j] - want) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            relevance_scores(np.zeros((4, 3)), np.ones(5))

    @pytest.mark.filterwarnings("error")
    def test_no_similarity_rows_refused(self):
        with pytest.raises(ShapeError, match="at least one row"):
            relevance_scores(np.zeros((0, 5)), np.zeros(0))
        with pytest.raises(ShapeError, match="^similarity must be 2-D with at least one column"):
            relevance_scores(np.zeros((2, 0)), np.ones(2))


class TestBuildMask:
    def test_percentile_count(self):
        r = make_rng(11).normal(size=8)
        mask, _ = build_mask(r, ThresholdPolicy("percentile", 75.0))
        assert int(mask.sum()) == 2

    def test_fixed_strict_boundary(self):
        mask, tau = build_mask(np.zeros(4), ThresholdPolicy("fixed", 0.5))
        assert tau == 0.5
        assert np.array_equal(mask, [0, 0, 0, 0])

    def test_fixed_logistic_evaluation(self):
        # sigma(3) ~ 0.9526 > 0.3, sigma(-3) ~ 0.0474 < 0.3
        mask, _ = build_mask(np.array([3.0, -3.0]), ThresholdPolicy("fixed", 0.3))
        assert np.array_equal(mask, [1, 0])
        assert 1 / (1 + math.exp(-3)) > 0.3 > 1 / (1 + math.exp(3))

    def test_percentile_tie_rule_prefers_lower_index(self):
        r = np.array([1.0, 1.0, 1.0, 1.0])
        mask, _ = build_mask(r, ThresholdPolicy("percentile", 50.0))
        assert np.array_equal(mask, [1, 1, 0, 0])

    def test_retention_count_law(self):
        rng = make_rng(12)
        for z in (4, 5, 17, 64, 101, 256, 1024, 4096):
            for q in (25, 35, 50, 55, 75):
                r = rng.normal(size=z)
                r[rng.random(z) < 0.4] = 0.25  # tie-heavy
                mask, _ = build_mask(r, ThresholdPolicy("percentile", float(q)))
                assert int(mask.sum()) == retention_target(z, q) == math.ceil(z * (100 - q) / 100)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([25.0, 50.0, 75.0]))
    @settings(max_examples=50, deadline=None)
    def test_monotone_invariance(self, seed, q):
        r = make_rng(seed).normal(size=32)
        policy = ThresholdPolicy("percentile", q)
        base, _ = build_mask(r, policy)
        for transform in (lambda v: 3 * v + 7, np.tanh, lambda v: v**3):
            mask, _ = build_mask(transform(r), policy)
            assert np.array_equal(mask, base)

    def test_percentile_tau_is_linear_interpolation(self):
        r = np.arange(1.0, 9.0)
        _, tau = build_mask(r, ThresholdPolicy("percentile", 75.0))
        assert tau == 6.25

    def test_percentile_tau_has_the_bits_of_np_percentile(self):
        # np.percentile's partition may order tied +0 and -0 either way, so where both signs
        # occur only the value is compared; elsewhere the sign of a zero tau is compared too
        rng = make_rng(13)
        qs = (1e-9, 0.1, 1.0, 12.5, 25.0, 100 / 3, 37.123456789, 50.0, 60.0, 66.7, 75.0, 90.0,
              99.0, 99.9, 100 - 1e-13, float(np.nextafter(100.0, 0.0)))
        for z in [*range(1, 257), 511, 512, 1000, 1023, 1024]:
            ints = rng.integers(-2, 3, size=z) * 1.0
            for r, signed_zeros in ((rng.normal(size=z), False), (1e-300 * rng.normal(size=z), False),
                                    (ints, False), (np.where(ints == 0, -0.0, ints), False),
                                    (np.where(rng.random(z) < 0.5, 0.0, -0.0) * ints, True)):
                for q in qs:
                    _, tau = build_mask(r, ThresholdPolicy("percentile", q))
                    want = float(np.percentile(r, q))
                    assert tau == want, (z, q)
                    assert signed_zeros or math.copysign(1, tau) == math.copysign(1, want), (z, q)

    @pytest.mark.parametrize("policy", [ThresholdPolicy("fixed", 0.5),
                                        ThresholdPolicy("percentile", 25.0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_relevance_rejected(self, policy, bad):
        with pytest.raises(ValidationError, match="relevance contains non-finite entries"):
            build_mask(np.array([0.1, bad, 0.3]), policy)

    def test_invalid_policies(self):
        from prato.errors import ConfigurationError

        for mode, value in (("fixed", 0.0), ("fixed", 1.5), ("percentile", 0.0),
                            ("percentile", 100.0), ("nope", 0.5)):
            with pytest.raises(ConfigurationError):
                ThresholdPolicy(mode, value)


class TestApplyMask:
    """A stage's keep mask as ``run_pipeline`` applies it: gather the kept rows, scatter back."""

    def _run(self, policy, mask_mode):
        img = make_rng(13).random((1, 64, 64))
        cfg = PipelineConfig(depth=2, stage_indices=(1,), policy=policy, mask_mode=mask_mode)
        return img, cfg, run_pipeline(img, BoxPrompt(0.2, 0.2, 0.7, 0.7), cfg)

    def test_all_ones_identity(self):
        # percentile 1e-3 keeps ceil(16 * 0.99999) = 16 of 16 tokens
        for mode in ("zero", "compact"):
            img, cfg, (out, _, report) = self._run(ThresholdPolicy("percentile", 1e-3), mode)
            assert np.array_equal(out.tokens, encode_prefix(img, cfg).tokens)
            assert out.retained_count == 16 and report.token_sparsity == 0.0

    def test_all_zeros(self):
        for mode in ("zero", "compact"):
            with pytest.raises(EmptyRetentionError):
                self._run(ThresholdPolicy("fixed", 1 - 1e-12), mode)

    def test_compact_count_and_scatter_roundtrip(self):
        rng = make_rng(14)
        tokens = rng.normal(size=(8, 4))
        coords = row_major_index_map(2, 4)
        for _ in range(20):
            keep = rng.integers(0, 2, size=8).astype(bool)
            compact = PrunedTokens(mode="compact", tokens=tokens[keep],
                                   retained_coords=coords[keep], grid_h=2, grid_w=4)
            assert compact.retained_count == int(keep.sum())
            assert np.array_equal(scatter_tokens(compact), tokens * keep[:, None])


def _scene_grid(seed=0, size=64, p=16, width=32):
    img = make_rng(seed).random((1, size, size))
    emb = make_embedder(1, p, width, size // p, size // p, seed=seed)
    return tokenize_image(img, emb, p)


class TestPratoScore:
    def test_constant_image_ties_resolve_to_target_count(self):
        size, p, width = 64, 16, 32
        img = np.full((1, size, size), 0.5)
        emb = make_embedder(1, p, width, size // p, size // p, seed=0, positional="none")
        grid = tokenize_image(img, emb, p)
        proj = make_projections(width, 16, seed=1)
        bundle = prato_score(grid, BoxPrompt(0.2, 0.2, 0.8, 0.8), proj, k=3,
                             policy=ThresholdPolicy("percentile", 75.0))
        assert np.abs(bundle.relevance - bundle.relevance[0]).max() < 1e-12
        n_keep = retention_target(grid.z, 75.0)
        assert int(bundle.mask.sum()) == n_keep
        assert np.array_equal(np.flatnonzero(bundle.mask), np.arange(n_keep))

    def test_bundle_invariants_on_random_inputs(self):
        grid = _scene_grid(seed=2)
        proj = make_projections(32, 16, seed=3)
        bundle = prato_score(grid, BoxPrompt(0.1, 0.3, 0.6, 0.9), proj, k=4,
                             policy=ThresholdPolicy("percentile", 25.0))
        m = bundle.similarity.shape[0]
        assert m == 16
        assert np.array_equal(bundle.entropies, entropy_rows(softmax_rows(bundle.similarity)))
        assert np.array_equal(bundle.weights, inverse_entropy_weights(bundle.entropies))
        assert np.all(bundle.entropies >= 0.0)
        assert np.all(bundle.entropies <= math.log2(grid.z) + 1e-12)
        assert set(np.unique(bundle.mask)) <= {0, 1}
        assert bundle.relevance.shape == (grid.z,)
        assert np.array_equal(
            bundle.relevance, (bundle.weights[:, None] * bundle.similarity).mean(0)
        )

    def test_degenerate_prompt_surfaces(self):
        from prato.errors import DegeneratePromptError

        grid = _scene_grid(seed=4)
        proj = make_projections(32, 16, seed=5)
        with pytest.raises(DegeneratePromptError):
            prato_score(grid, BoxPrompt(0.5, 0.5, 0.5 + 1e-13, 0.9), proj)


class TestConcentratedRetention:
    """Constructed concentrated distributions keep their designated token set."""

    def _trial(self, rng, z, eps=1e-3, delta=2):
        m = 9
        size_t = int(rng.integers(1, max(2, z // (2 ** delta) + 1)))
        members = rng.choice(z, size=size_t, replace=False)
        probs = np.full((m, z), eps / (z - size_t))
        for i in range(m):
            wts = rng.uniform(0.5, 1.5, size=size_t)
            probs[i, members] = (1 - eps) * wts / wts.sum()
        assert size_t <= z * 2.0 ** (-delta)
        assert np.all(probs[:, members].sum(axis=1) >= 1 - eps - 1e-12)
        s = np.log(probs)
        recovered = softmax_rows(s)
        weights = inverse_entropy_weights(entropy_rows(recovered))
        relevance = relevance_scores(s, weights)
        mask, _ = build_mask(relevance, ThresholdPolicy("percentile", 75.0))
        assert int(mask.sum()) >= size_t
        assert np.all(mask[members] == 1)
        assert size_t < z

    def test_retention_over_constructions(self):
        rng = make_rng(15)
        for z in (16, 64):
            for _ in range(50):
                self._trial(rng, z)

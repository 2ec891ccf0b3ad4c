"""Tests for the reference forward kernels and the attention cost model."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pointedge import (
    CoefSet,
    DecoderSchedule,
    FeatureMap,
    QuerySet,
    coef_head,
    cross_attention_cost,
    default_schedule,
    dense_head,
    scaled_dot_attention,
)

from pointedge.kernels import _DENSE_BLOCK, _SIG_HI, _SIG_LO, _sigmoid_open

from helpers import attention_oracle, dense_head_oracle


class TestScaledDotAttention:
    def test_single_key_passes_value_through(self):
        q = np.array([[1.0, -2.0, 0.5]])
        k = np.array([[0.3, 0.3, 0.3]])
        v = np.array([[7.0, 8.0, 9.0]])
        out, weights = scaled_dot_attention(q, k, v)
        assert np.allclose(out, v, atol=1e-15)
        assert weights.tolist() == [[1.0]]

    def test_identical_keys_give_uniform_weights(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((3, 4))
        k = np.tile(rng.standard_normal(4), (5, 1))
        v = rng.standard_normal((5, 4))
        _, weights = scaled_dot_attention(q, k, v)
        assert np.allclose(weights, 0.2, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 4))
        out, weights = scaled_dot_attention(q, k, v)
        want_out, want_weights = attention_oracle(q, k, v)
        assert np.abs(out - want_out).max() <= 1e-10
        assert np.abs(weights - want_weights).max() <= 1e-10

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, m, d = rng.integers(1, 9, size=3)
            q = rng.standard_normal((n, d)) * rng.uniform(0.1, 30)
            k = rng.standard_normal((m, d)) * rng.uniform(0.1, 30)
            v = rng.standard_normal((m, d))
            _, weights = scaled_dot_attention(q, k, v)
            assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-6

    def test_shift_invariance(self):
        # Adding one common vector to every key shifts each query's scores
        # by a per-row constant, which softmax ignores.
        rng = np.random.default_rng(3)
        q = rng.standard_normal((4, 5))
        k = rng.standard_normal((7, 5))
        v = rng.standard_normal((7, 5))
        shift = rng.standard_normal(5) * 3.0
        _, w1 = scaled_dot_attention(q, k, v)
        _, w2 = scaled_dot_attention(q, k + shift, v)
        assert np.abs(w1 - w2).max() <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scaled_dot_attention(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError):
            scaled_dot_attention(np.ones((2, 3)), np.ones((2, 3)), np.ones((5, 3)))

    def test_zero_keys_rejected_by_name(self):
        with pytest.raises(ValueError, match="at least one key"):
            scaled_dot_attention(np.ones((2, 3)), np.ones((0, 3)), np.ones((0, 3)))


class TestCoefHead:
    def test_zero_projection_gives_half(self):
        queries = QuerySet(np.random.default_rng(0).standard_normal((3, 4)))
        coefs = coef_head(queries, np.zeros((4, 6)), np.zeros(6))
        assert (coefs.data == 0.5).all()

    def test_saturated_bias_stays_inside_open_interval(self):
        queries = QuerySet(np.zeros((2, 3)))
        coefs = coef_head(queries, np.zeros((3, 2)), np.full(2, 50.0))
        assert (coefs.data > 1.0 - 1e-9).all()
        assert (coefs.data < 1.0).all()

    @pytest.mark.parametrize("logit", [-1000.0, 1000.0])
    def test_saturated_logits_stay_open_without_warnings(self, logit):
        queries = QuerySet(np.zeros((2, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coefs = coef_head(queries, np.zeros((3, 2)), np.full(2, logit))
        assert ((coefs.data > 0.0) & (coefs.data < 1.0)).all()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        coefs = coef_head(QuerySet(q), w, b)
        want = 1.0 / (1.0 + np.exp(-(q @ w + b)))
        assert np.abs(coefs.data - want).max() <= 1e-10

    def test_dimension_mismatch(self):
        queries = QuerySet(np.ones((2, 3)))
        with pytest.raises(ValueError):
            coef_head(queries, np.ones((4, 5)), np.ones(5))
        with pytest.raises(ValueError):
            coef_head(queries, np.ones((3, 5)), np.ones(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_bias_is_named(self, bad):
        queries = QuerySet(np.ones((2, 3)))
        bias = np.zeros(5)
        bias[2] = bad
        with pytest.raises(ValueError, match="^bias must be finite$"):
            coef_head(queries, np.ones((3, 5)), bias)


class TestDenseHead:
    def test_near_selector_row_picks_channel(self):
        rng = np.random.default_rng(5)
        features = FeatureMap(rng.standard_normal((3, 4, 4)))
        eps = 1e-12
        coefs = CoefSet([[1.0 - eps, eps, eps]])
        maps = dense_head(coefs, features)
        want = 1.0 / (1.0 + np.exp(-features.data[0]))
        assert np.abs(maps[0].values - want).max() <= 1e-9

    def test_near_zero_row_gives_half(self):
        rng = np.random.default_rng(6)
        features = FeatureMap(rng.standard_normal((3, 4, 4)))
        coefs = CoefSet(np.full((1, 3), 1e-15))
        maps = dense_head(coefs, features)
        assert np.abs(maps[0].values - 0.5).max() <= 1e-12

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        coefs = CoefSet(rng.uniform(0.01, 0.99, size=(2, 3)))
        features = FeatureMap(rng.standard_normal((3, 4, 4)))
        maps = dense_head(coefs, features)
        want = dense_head_oracle(coefs.data, features.data)
        assert len(maps) == 2
        for i, m in enumerate(maps):
            assert np.abs(m.values - want[i]).max() <= 1e-10

    def test_matches_triple_loop_oracle_on_non_square_frame(self):
        # 5 x 7 features: a reshape that swapped height and width would fail.
        rng = np.random.default_rng(10)
        coefs = CoefSet(rng.uniform(0.01, 0.99, size=(3, 4)))
        features = FeatureMap(rng.standard_normal((4, 5, 7)))
        maps = dense_head(coefs, features)
        want = dense_head_oracle(coefs.data, features.data)
        assert len(maps) == 3
        for i, m in enumerate(maps):
            assert m.values.shape == (5, 7)
            assert np.abs(m.values - want[i]).max() <= 1e-10

    @pytest.mark.parametrize(
        "shape",
        [(5, 7), (8, _DENSE_BLOCK // 8), (1, 2 * _DENSE_BLOCK + 1)],
        ids=["below-one-block", "one-block", "one-past-whole-blocks"],
    )
    def test_matches_triple_loop_oracle_across_block_edges(self, shape):
        rng = np.random.default_rng(13)
        coefs = CoefSet(rng.uniform(0.01, 0.99, size=(2, 3)))
        features = FeatureMap(rng.standard_normal((3, *shape)))
        maps = dense_head(coefs, features)
        want = dense_head_oracle(coefs.data, features.data)
        for i, m in enumerate(maps):
            assert m.values.shape == shape
            assert np.abs(m.values - want[i]).max() <= 1e-10

    def test_builds_no_frame_sized_logits(self):
        # Logits for all 8 queries at once would take 2.5 MiB.
        rng = np.random.default_rng(14)
        coefs = CoefSet(rng.uniform(0.01, 0.99, size=(8, 4)))
        features = FeatureMap(rng.standard_normal((4, 128, 320)))
        tracemalloc.start()
        try:
            maps = dense_head(coefs, features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sum(m.values.nbytes for m in maps) + 2 * 2**20

    def test_each_map_owns_a_read_only_array(self):
        rng = np.random.default_rng(11)
        coefs = CoefSet(rng.uniform(0.01, 0.99, size=(3, 2)))
        maps = dense_head(coefs, FeatureMap(rng.standard_normal((2, 4, 6))))
        for m in maps:
            assert not m.values.flags.writeable
            assert m.values.base is None
        for i, a in enumerate(maps):
            for b in maps[i + 1:]:
                assert not np.shares_memory(a.values, b.values)

    @pytest.mark.parametrize("scale", [-1000.0, 1000.0])
    def test_saturated_logits_stay_open_without_warnings(self, scale):
        coefs = CoefSet([[0.5]])
        features = FeatureMap(np.full((1, 2, 3), 2.0 * scale))  # logits = scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            maps = dense_head(coefs, features)
        assert ((maps[0].values > 0.0) & (maps[0].values < 1.0)).all()

    def test_output_open_interval(self):
        rng = np.random.default_rng(8)
        coefs = CoefSet(rng.uniform(0.5, 0.99, size=(2, 2)))
        features = FeatureMap(rng.standard_normal((2, 3, 3)) * 100)
        for m in dense_head(coefs, features):
            assert (m.values > 0.0).all() and (m.values < 1.0).all()

    def test_monotone_in_coefficient_for_nonnegative_channel(self):
        features = FeatureMap(np.abs(np.random.default_rng(9).standard_normal((1, 4, 4))))
        low = dense_head(CoefSet([[0.2]]), features)[0].values
        high = dense_head(CoefSet([[0.8]]), features)[0].values
        assert (high >= low).all()
        assert (high > low)[features.data[0] > 0].all()

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            dense_head(CoefSet([[0.5, 0.5]]), FeatureMap(np.ones((3, 2, 2))))


def test_sigmoid_is_bit_identical_to_the_clipped_textbook_formula():
    x = np.array([0.0, 1e-300, 36.7, 709.0, 745.0, 1000.0])
    x = np.concatenate([x, -x])
    with np.errstate(over="ignore"):
        want = np.clip(1.0 / (1.0 + np.exp(-x)), _SIG_LO, _SIG_HI)
    got = x.copy()
    assert _sigmoid_open(got) is got  # computed in place
    assert np.array_equal(got, want)


class TestSchedule:
    def test_default_schedule_values(self):
        schedule = default_schedule()
        assert schedule.downsample_factors == (32, 32, 32, 32, 16, 8)
        assert len(schedule.downsample_factors) == 6
        factors = schedule.downsample_factors
        assert all(a >= b for a, b in zip(factors, factors[1:]))

    def test_factor_must_be_known(self):
        with pytest.raises(ValueError):
            DecoderSchedule((64, 32))

    def test_factors_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            DecoderSchedule((16, 32))


class TestCrossAttentionCost:
    def test_documented_value(self):
        assert cross_attention_cost(2, 4, 3, 1) == 168

    def test_unit_case(self):
        assert cross_attention_cost(1, 1, 1, 1) == 2

    def test_resolution_scaling(self):
        n, d, h, w = 3, 8, 5, 7
        hw = h * w
        first = n * d * hw * hw
        second = n * d * d * hw
        assert cross_attention_cost(n, d, h, w) == first + second
        assert cross_attention_cost(n, d, 2 * h, 2 * w) == 16 * first + 4 * second

    def test_schedule_ratio_between_32_and_8(self):
        n, d = 4, 16
        h = w = 64
        at32 = (h // 32) * (w // 32)
        at8 = (h // 8) * (w // 8)
        first32 = n * d * at32 * at32
        first8 = n * d * at8 * at8
        assert first8 == first32 * (at8 / at32) ** 2
        assert cross_attention_cost(n, d, h // 8, w // 8) > cross_attention_cost(
            n, d, h // 32, w // 32
        )

    def test_exact_integer_arithmetic_at_scale(self):
        n, d, h, w = 1024, 512, 4096, 4096
        cost = cross_attention_cost(n, d, h, w)
        assert isinstance(cost, int)
        assert cost == n * d * (h * w) ** 2 + n * d * d * (h * w)
        assert cost > 2**63  # would wrap in any fixed-width integer

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            cross_attention_cost(0, 1, 1, 1)
        with pytest.raises(ValueError):
            cross_attention_cost(1, 1, 1, 0)


class TestTypeValidation:
    def test_queryset_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            QuerySet(np.ones((3,)))
        with pytest.raises(ValueError):
            QuerySet([[np.inf, 0.0]])
        qs = QuerySet([[1.0, 2.0]])
        assert (qs.n, qs.d) == (1, 2)

    def test_featuremap_validation(self):
        with pytest.raises(ValueError):
            FeatureMap(np.ones((2, 2)))
        fm = FeatureMap(np.zeros((2, 3, 4)))
        assert (fm.channels, fm.height, fm.width) == (2, 3, 4)

    def test_coefset_open_interval(self):
        with pytest.raises(ValueError):
            CoefSet([[0.0, 0.5]])
        with pytest.raises(ValueError):
            CoefSet([[0.5, 1.0]])

    def test_data_is_read_only(self):
        qs = QuerySet([[1.0, 2.0]])
        with pytest.raises(ValueError):
            qs.data[0, 0] = 5.0

    @pytest.mark.parametrize(
        "kind, shape",
        [(QuerySet, (3, 4)), (FeatureMap, (2, 3, 4)), (CoefSet, (3, 4))],
        ids=["QuerySet", "FeatureMap", "CoefSet"],
    )
    def test_keeps_a_read_only_array_it_owns_and_copies_anything_else(self, kind, shape):
        data = np.full(shape, 0.5)
        held = kind(data).data
        data[(0,) * len(shape)] = 0.25
        assert held[(0,) * len(shape)] == 0.5
        assert not np.shares_memory(held, data)
        assert not held.flags.writeable

        owned = np.full(shape, 0.5)
        owned.flags.writeable = False
        assert np.shares_memory(kind(owned).data, owned)

        view = np.full(shape[:-1] + (2 * shape[-1],), 0.5)[..., ::2]
        view.flags.writeable = False
        held = kind(view).data
        assert (held == view).all()
        assert not np.shares_memory(held, view)
        assert not held.flags.writeable

"""Tests for the focal/dice losses, their gradients, and the ratio diagnostic."""

import math

import numpy as np
import pytest

from pointedge import (
    TUNNEL_VALUE,
    FocalConfig,
    GrayMap,
    LossResult,
    TunnelTarget,
    UndefinedLossError,
    build_tunnel_target,
    dice_loss,
    finite_diff_check,
    gradient_ratio,
    penalty_reduced_focal,
)

from helpers import focal_oracle, make_instance

# The default, gamma 1 (tunnel pixels take the negative branch), a
# non-integer alpha, alpha = beta = 0 (powers of 0 and -1) and gamma 0.5.
FOCAL_CONFIGS = [
    FocalConfig(),
    FocalConfig(gamma=1.0),
    FocalConfig(alpha=1.5, beta=3.0),
    FocalConfig(alpha=0.0, beta=0.0),
    FocalConfig(alpha=3.0, gamma=0.5),
]


def target_from(values, keypoint_count=None) -> TunnelTarget:
    arr = np.asarray(values, dtype=np.float64)
    if keypoint_count is None:
        keypoint_count = int((arr == 1.0).sum())
    return TunnelTarget(GrayMap(arr), keypoint_count)


class TestPenaltyReducedFocal:
    def test_keypoint_value_example(self):
        # Single keypoint pixel predicted at 0.6.
        res = penalty_reduced_focal([[0.6]], target_from([[1.0]]))
        expected = -(0.4**2) * math.log(0.6)
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert res.value == pytest.approx(0.08173, abs=1e-5)

    def test_background_value_example(self):
        # Background pixel at 0.5 next to a perfectly predicted keypoint;
        # the keypoint term is negligible at the clamp boundary.
        pred = [[0.5, 1.0]]
        res = penalty_reduced_focal(pred, target_from([[0.0, 1.0]]))
        expected = -(0.5**2) * math.log(0.5)
        assert res.value == pytest.approx(expected, abs=1e-9)
        assert res.value == pytest.approx(0.17329, abs=1e-5)

    def test_perfect_keypoint_term_vanishes(self):
        res = penalty_reduced_focal([[1.0]], target_from([[1.0]]))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_value_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pred = rng.uniform(1e-4, 1 - 1e-4, size=(4, 4))
            values = rng.choice([0.0, TUNNEL_VALUE, 1.0], size=(4, 4))
            if not (values == 1.0).any():
                values[0, 0] = 1.0
            res = penalty_reduced_focal(pred, target_from(values))
            assert res.value >= 0.0
            assert math.isfinite(res.value)

    def test_tunnel_pixels_take_positive_branch(self):
        cfg = FocalConfig()
        p = 0.4
        res = penalty_reduced_focal(
            [[p, 1.0]], target_from([[TUNNEL_VALUE, 1.0]]), cfg
        )
        positive_term = -TUNNEL_VALUE * (1 - p) ** cfg.alpha * math.log(p)
        negative_term = -((1 - TUNNEL_VALUE) ** cfg.beta) * p**cfg.alpha * math.log(1 - p)
        assert res.value == pytest.approx(positive_term, abs=1e-9)
        assert abs(res.value - negative_term) > 0.1

    def test_beta_acts_only_where_tunnel_pixels_are_negatives(self):
        # At the default gamma every nonzero pixel of a tunnel target is a
        # positive and a zero pixel's weight (1-0)^beta is 1, so beta changes
        # nothing; with gamma 1 the tunnel pixels are weighted (1-0.7)^beta.
        target = build_tunnel_target(
            make_instance(((4, 3), (30, 5), (26, 20), (6, 18))), 24, 36
        )
        pred = np.random.default_rng(30).random((24, 36))
        for gamma, same in ((TUNNEL_VALUE, True), (1.0, False)):
            zero, four = (
                penalty_reduced_focal(pred, target, FocalConfig(beta=beta, gamma=gamma))
                for beta in (0.0, 4.0)
            )
            assert (zero.value == four.value) is same
            assert np.array_equal(zero.gradient, four.gradient) is same

    def test_normalized_by_keypoint_count(self):
        # Both keypoints are predicted perfectly, so their terms vanish and
        # the shared background terms are divided by the keypoint count.
        one = penalty_reduced_focal(
            [[0.3, 0.3], [1.0, 0.0]], target_from([[0.0, 0.0], [1.0, 0.0]])
        )
        two = penalty_reduced_focal(
            [[0.3, 0.3], [1.0, 1.0]], target_from([[0.0, 0.0], [1.0, 1.0]])
        )
        assert two.value == pytest.approx(one.value / 2, abs=1e-9)

    def test_clamped_pixels_zero_gradient(self):
        pred = [[0.0, 0.5], [1.0, 0.5]]
        res = penalty_reduced_focal(pred, target_from([[1.0, 0.0], [0.0, 0.0]]))
        assert res.gradient[0, 0] == 0.0
        assert res.gradient[1, 0] == 0.0
        assert res.gradient[0, 1] != 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            penalty_reduced_focal([[0.5]], target_from([[1.0, 0.0]]))

    @pytest.mark.parametrize("cfg", FOCAL_CONFIGS, ids=repr)
    def test_bit_identical_to_the_dense_formula(self, cfg):
        rng = np.random.default_rng(29)
        for trial in range(40):
            h, w = (int(v) for v in rng.integers(2, 40, size=2))
            u = rng.random((h, w))
            values = np.where(u < 0.08, TUNNEL_VALUE, 0.0)
            values[u < 0.03] = 1.0
            if trial % 4 == 0:
                values[values == TUNNEL_VALUE] = 0.0  # no tunnel pixels
            values[0, 0], values[-1, -1] = 1.0, TUNNEL_VALUE
            pred = rng.random((h, w))
            pred[rng.random((h, w)) < 0.05] = 0.0
            pred[rng.random((h, w)) < 0.05] = 1.0
            pred[-1, -1] = (0.0, 1.0, 1e-9)[trial % 3]  # a clamped tunnel pixel
            target = target_from(values)
            want_value, want_gradient = focal_oracle(pred, target, cfg)
            for given in (pred, pred.tolist(), GrayMap(pred)):
                res = penalty_reduced_focal(given, target, cfg)
                assert res.value == want_value
                assert np.array_equal(res.gradient, want_gradient)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prediction_rejected(self, bad):
        target = target_from([[1.0, 0.0]])
        for pred in ([[0.5, bad]], np.array([[0.5, bad]])):
            with pytest.raises(ValueError, match="grid values must be finite"):
                penalty_reduced_focal(pred, target)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            pred = rng.uniform(0.1, 0.9, size=(4, 4))
            values = rng.choice([0.0, TUNNEL_VALUE, 1.0], size=(4, 4))
            if not (values == 1.0).any():
                values[2, 2] = 1.0
            target = target_from(values)
            err = finite_diff_check(
                lambda p, t: penalty_reduced_focal(p, t), pred, target
            )
            assert err <= 1e-5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FocalConfig(alpha=-1.0)
        for bad in (
            {"alpha": math.nan},
            {"beta": math.nan},
            {"alpha": math.inf},
            {"beta": math.inf},
        ):
            with pytest.raises(ValueError, match="alpha and beta must be >= 0 and finite"):
                FocalConfig(**bad)
        with pytest.raises(ValueError):
            FocalConfig(gamma=0.0)
        with pytest.raises(ValueError):
            FocalConfig(gamma=1.5)


class TestDiceLoss:
    def test_perfect_binary_prediction(self):
        y = [[1.0, 0.0], [1.0, 1.0]]
        res = dice_loss(y, y)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_zero_overlap(self):
        res = dice_loss([[0.0, 0.0]], [[1.0, 1.0]])
        assert res.value == 1.0

    def test_half_half_example(self):
        res = dice_loss([[0.5, 0.5]], [[1.0, 0.0]])
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform(0, 1, size=(3, 5))
            y = (rng.random((3, 5)) < 0.5).astype(float)
            if not y.any() and not p.any():
                continue
            assert 0.0 <= dice_loss(p, y).value <= 1.0

    def test_undefined_when_both_zero(self):
        with pytest.raises(UndefinedLossError):
            dice_loss([[0.0, 0.0]], [[0.0, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dice_loss([[0.5]], [[1.0, 0.0]])


class TestDiceGrad:
    def test_zero_at_perfect_binary_prediction(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.abs(dice_loss(y, y).gradient).max() == 0.0

    def test_bit_identical_to_the_textbook_formula(self):
        # -2 (y b - p a) / b^2, taken as (p a / b - y) 2 / b with the sums
        # as dot products; the first form's own rounding is a few ulp away.
        rng = np.random.default_rng(19)
        p = rng.uniform(0.0, 1.0, size=(7, 9))
        y = (rng.random((7, 9)) < 0.3).astype(float)
        b = float(np.dot(p.ravel(), p.ravel()) + np.dot(y.ravel(), y.ravel()))
        a = 2.0 * float(np.dot(p.ravel(), y.ravel()))
        gradient = dice_loss(GrayMap(p), GrayMap(y)).gradient
        assert np.array_equal(gradient, (p * (a / b) - y) * (2.0 / b))
        textbook = -2.0 * (y * b - p * a) / (b * b)
        assert np.abs(gradient - textbook).max() <= 8 * np.finfo(float).eps * np.abs(textbook).max()
        assert dice_loss(GrayMap(p), GrayMap(y)).value == 1.0 - a / b

    def test_zero_when_gt_empty(self):
        grad = dice_loss([[0.2, 0.8]], [[0.0, 0.0]]).gradient
        assert np.abs(grad).max() == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = rng.uniform(0.05, 0.95, size=(5, 5))
            y = (rng.random((5, 5)) < 0.4).astype(float)
            err = finite_diff_check(lambda q, t: dice_loss(q, t), p, y)
            assert err <= 1e-5


def square_defect_maps(k: int):
    """Filled k x k mask and its perimeter edge, perfect except one pixel.

    The defect sits at a boundary pixel (set to 0 in both framings).
    """
    mask_gt = np.ones((k, k))
    mask_pred = mask_gt.copy()
    mask_pred[0, k // 2] = 0.0
    edge_gt = np.zeros((k, k))
    edge_gt[0, :] = edge_gt[-1, :] = 1.0
    edge_gt[:, 0] = edge_gt[:, -1] = 1.0
    edge_pred = edge_gt.copy()
    edge_pred[0, k // 2] = 0.0
    return mask_pred, mask_gt, edge_pred, edge_gt


class TestGradientRatio:
    def test_identical_tensors_give_one(self):
        m = [[0.5, 0.25], [1.0, 0.0]]
        assert gradient_ratio(m, m, m, m) == 1.0

    def test_ten_by_ten_square_example(self):
        mask_pred, mask_gt, edge_pred, edge_gt = square_defect_maps(10)
        assert float(mask_pred.sum()) == 99.0 and float(edge_pred.sum()) == 35.0
        ratio = gradient_ratio(mask_pred, mask_gt, edge_pred, edge_gt)
        assert ratio == 199.0 / 71.0

    def test_zero_edge_denominator_rejected(self):
        z = [[0.0]]
        with pytest.raises(ValueError):
            gradient_ratio([[1.0]], [[1.0]], z, z)

    def test_defect_gradient_dominance(self):
        # The ratio > 1 regime must show up as a strictly larger gradient
        # magnitude at the defect pixel under edge framing.
        mask_pred, mask_gt, edge_pred, edge_gt = square_defect_maps(10)
        mask_g = abs(dice_loss(mask_pred, mask_gt).gradient[0, 5])
        edge_g = abs(dice_loss(edge_pred, edge_gt).gradient[0, 5])
        assert gradient_ratio(mask_pred, mask_gt, edge_pred, edge_gt) > 1.0
        assert mask_g < edge_g


class TestFiniteDiffCheck:
    def test_constant_loss_has_zero_error(self):
        def constant(pred, aux):
            grid = np.asarray(pred, dtype=np.float64)
            return LossResult(value=1.0, gradient=np.zeros_like(grid))

        assert finite_diff_check(constant, np.full((3, 3), 0.5), None) == 0.0

    def test_detects_a_wrong_gradient(self):
        def broken(pred, aux):
            grid = np.asarray(pred, dtype=np.float64)
            res = dice_loss(grid, aux)
            return LossResult(value=res.value, gradient=res.gradient * 1.5)

        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = np.array([[0.7, 0.2], [0.4, 0.9]])
        assert finite_diff_check(broken, p, y) > 1e-3

    def test_step_must_be_positive(self):
        for step in (0.0, math.nan):
            with pytest.raises(ValueError, match="step must be positive"):
                finite_diff_check(
                    lambda p, a: dice_loss(p, [[1.0]]), [[0.5]], None, step=step
                )

    def test_nan_gradient_fails(self):
        def nan_at_last_pixel(pred, aux):
            res = dice_loss(pred, aux)
            gradient = res.gradient.copy()
            gradient[-1, -1] = np.nan
            return LossResult(value=res.value, gradient=gradient)

        y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        p = np.full((3, 3), 0.5)
        assert math.isnan(finite_diff_check(nan_at_last_pixel, p, y))

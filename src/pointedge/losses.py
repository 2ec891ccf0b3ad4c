"""Edge and mask training losses with exact analytical gradients.

Implements the penalty-reduced pixel-wise focal loss over quantized tunnel
targets, the dice overlap loss, their per-pixel gradients, a finite-difference
verification oracle, and the edge-versus-mask gradient dominance ratio that
explains why boundary defects pull harder on an edge objective than on a mask
objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .raster import TUNNEL_VALUE, GrayMap, TunnelTarget

__all__ = [
    "FocalConfig",
    "LossResult",
    "UndefinedLossError",
    "penalty_reduced_focal",
    "dice_loss",
    "gradient_ratio",
    "finite_diff_check",
]

# Predictions are clamped into [CLAMP_EPS, 1 - CLAMP_EPS] before logarithms;
# pixels outside the clamp range get zero gradient.
CLAMP_EPS = 1e-7


class UndefinedLossError(ValueError):
    """Dice loss is undefined when prediction and target are both all-zero."""


@dataclass(frozen=True)
class FocalConfig:
    """Focal-loss hyperparameters.

    ``alpha`` tempers well-classified pixels, ``beta`` attenuates the penalty
    near soft-positive (tunnel) regions, and ``gamma`` is the target value at
    or above which a pixel counts as positive: by default the tunnel value,
    so tunnel pixels are positives.
    """

    alpha: float = 2.0
    beta: float = 4.0
    gamma: float = TUNNEL_VALUE

    def __post_init__(self) -> None:
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be >= 0 and finite")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")


@dataclass(frozen=True)
class LossResult:
    """A scalar loss together with its per-pixel gradient grid."""

    value: float
    gradient: np.ndarray


def _grid(x) -> np.ndarray:
    if isinstance(x, GrayMap):
        return x.values  # checked finite when the map was built
    values = np.asarray(x, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("grid values must be finite")
    return values


def penalty_reduced_focal(
    pred, target: TunnelTarget, cfg: FocalConfig = FocalConfig()
) -> LossResult:
    """Penalty-reduced pixel-wise logistic focal loss over a tunnel target.

    Pixels with target value at or above ``cfg.gamma`` take the positive
    branch ``Y (1-p)^alpha log p`` (tunnel pixels at 0.7 are therefore
    down-weighted positives); the rest take ``(1-Y)^beta p^alpha log(1-p)``.
    The sum is negated and divided by the target's keypoint count.

    A tunnel target is zero almost everywhere, and at a zero pixel the
    negative branch's weight ``(1-0)^beta`` is exactly 1 (``gamma > 0``, so
    such a pixel is never positive). Every pixel's term and gradient are
    therefore first computed as if its target were 0, over the whole frame;
    only the nonzero target pixels are then recomputed with both branches
    in full and overwritten. Each pixel gets the same floating-point result
    as the dense two-branch formula, and the sum runs over the same array.
    """
    p_raw = _grid(pred)
    y = target.map.values
    if p_raw.shape != y.shape:
        raise ValueError(f"prediction shape {p_raw.shape} != target shape {y.shape}")
    n = target.keypoint_count
    # C order, so that ravel() below is a view that takes the fix-up writes.
    p = np.ascontiguousarray(np.clip(p_raw, CLAMP_EPS, 1.0 - CLAMP_EPS))
    clamped = p != p_raw  # the clip moved exactly the pixels outside its range
    alpha = cfg.alpha

    log_1p = np.negative(p)
    np.log1p(log_1p, out=log_1p)
    p_alpha = p ** alpha
    # Negative branch at Y = 0: alpha p^(alpha-1) log(1-p) - p^alpha / (1-p).
    gradient = p ** (alpha - 1.0)
    gradient *= alpha
    gradient *= log_1p
    ratio = 1.0 - p
    np.divide(p_alpha, ratio, out=ratio)
    gradient -= ratio
    term = p_alpha
    term *= log_1p  # p^alpha log(1-p)

    idx = np.flatnonzero(y)
    yv, pv, lv = y.ravel()[idx], p.ravel()[idx], log_1p.ravel()[idx]
    log_p = np.log(pv)
    pos_term = yv * (1.0 - pv) ** alpha * log_p
    neg_term = (1.0 - yv) ** cfg.beta * pv ** alpha * lv
    pos_grad = yv * (
        (1.0 - pv) ** alpha / pv - alpha * (1.0 - pv) ** (alpha - 1.0) * log_p
    )
    neg_grad = (1.0 - yv) ** cfg.beta * (
        alpha * pv ** (alpha - 1.0) * lv - pv ** alpha / (1.0 - pv)
    )
    positive = yv >= cfg.gamma
    term.ravel()[idx] = np.where(positive, pos_term, neg_term)
    gradient.ravel()[idx] = np.where(positive, pos_grad, neg_grad)

    value = -float(term.sum()) / n
    np.negative(gradient, out=gradient)
    gradient /= n
    gradient[clamped] = 0.0
    return LossResult(value=value, gradient=gradient)


def _dice_sums(pred, gt) -> tuple[np.ndarray, np.ndarray, float, float]:
    p = _grid(pred)
    y = _grid(gt)
    if p.shape != y.shape:
        raise ValueError(f"prediction shape {p.shape} != target shape {y.shape}")
    return p, y, float((p * p).sum() + (y * y).sum()), float((p * y).sum())


def dice_loss(pred, gt) -> LossResult:
    """Dice overlap loss ``1 - 2<p,y> / (|p|^2 + |y|^2)``, with no smoothing.

    Raises:
        UndefinedLossError: prediction and target are both all-zero. The
            train chain never gets there, since ``dense_head`` outputs lie
            strictly inside (0, 1).
    """
    p, y, b, overlap = _dice_sums(pred, gt)
    if b == 0.0:
        raise UndefinedLossError(
            "dice loss undefined: prediction and target are both all-zero"
        )
    a = 2.0 * overlap
    gradient = y * b  # -2 (y b - p a) / b^2, in the same operation order
    gradient -= p * a
    gradient *= -2.0
    gradient /= b * b
    return LossResult(value=1.0 - a / b, gradient=gradient)


def gradient_ratio(mask_pred, mask_gt, edge_pred, edge_gt) -> float:
    """Ratio of mask-framing to edge-framing dice normalizers.

    For a boundary pixel with an identical prediction defect, the dice
    gradient magnitude under the edge objective exceeds the one under the
    mask objective by exactly this factor, which is much greater than 1 for
    any shape whose area dominates its perimeter.
    """
    _, _, mask_sums, _ = _dice_sums(mask_pred, mask_gt)
    _, _, edge_sums, _ = _dice_sums(edge_pred, edge_gt)
    if edge_sums == 0.0:
        raise ValueError("edge squared sums must be positive")
    if mask_sums == 0.0:
        raise ValueError("mask squared sums must be positive")
    return mask_sums / edge_sums


def finite_diff_check(
    loss: Callable[[np.ndarray, object], LossResult],
    pred,
    aux,
    step: float = 1e-6,
) -> float:
    """Max relative error between analytical and central-difference gradients.

    ``loss(pred_grid, aux)`` must return a :class:`LossResult`; only its
    ``value`` feeds the numerical side. Relative error at a pixel is
    ``|a - n| / max(1, |a|, |n|)``, and a NaN error at any pixel makes the
    result NaN.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    p = _grid(pred).copy()
    analytical = loss(p, aux).gradient
    errors = []
    for idx in np.ndindex(p.shape):
        saved = p[idx]
        p[idx] = saved + step
        upper = loss(p, aux).value
        p[idx] = saved - step
        lower = loss(p, aux).value
        p[idx] = saved
        numerical = (upper - lower) / (2.0 * step)
        a = float(analytical[idx])
        errors.append(abs(a - numerical) / max(1.0, abs(a), abs(numerical)))
    return float(np.max(errors, initial=0.0))

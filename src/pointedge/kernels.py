"""Reference forward kernels for query-based dense edge prediction.

Forward-only numpy implementations of the architectural pieces that turn a
set of object queries into per-instance probability maps: scaled dot-product
cross attention, the sigmoid coefficient head, the dense prediction head
(per-query 1x1 convolution over shared features), the coarse-to-fine decoder
resolution schedule, and the cross-attention operation-count model that
motivates that schedule.

``QuerySet``, ``FeatureMap`` and ``CoefSet`` hold their arrays as every map
does: each keeps a read-only float64 array it owns, as the heads hand their
outputs over, and copies anything else, so no caller's writes reach it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import GrayMap, _frozen, _kept

__all__ = [
    "QuerySet",
    "FeatureMap",
    "CoefSet",
    "DecoderSchedule",
    "scaled_dot_attention",
    "coef_head",
    "dense_head",
    "default_schedule",
    "cross_attention_cost",
]

# Open-interval bounds for sigmoid outputs: saturated logits stay strictly
# inside (0, 1) instead of rounding to the endpoints in float64.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


# Pixel columns per block of the dense head's matrix product: the logits
# block for 16 queries is 512 KiB, never the whole (n, h*w) frame.
_DENSE_BLOCK = 4096


def _sigmoid_open(x: np.ndarray) -> np.ndarray:
    """Overwrite ``x`` with ``clip(1 / (1 + exp(-x)))`` and return it.

    A logit below about -709 overflows ``exp`` to inf and the sigmoid to 0,
    which the clip lifts to ``_SIG_LO``; the overflow is expected, so it is
    not reported.
    """
    np.negative(x, out=x)
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    np.clip(x, _SIG_LO, _SIG_HI, out=x)
    return x


def _matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class QuerySet:
    """``n`` object queries of dimension ``d`` as a read-only n x d matrix."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = _matrix(_kept(self.data, np.float64), "queries")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("queries need n >= 1 and d >= 1")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """A read-only channels x height x width feature tensor."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = _kept(self.data, np.float64)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"features must be [c, h, w] with positive dims, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("features must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class CoefSet:
    """Read-only per-query channel coefficients in the open interval (0, 1)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = _matrix(_kept(self.data, np.float64), "coefficients")
        if arr.size and (arr.min() <= 0.0 or arr.max() >= 1.0):
            raise ValueError("coefficients must lie strictly inside (0, 1)")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def f(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class DecoderSchedule:
    """Per-layer feature downsample factors, coarse to fine."""

    downsample_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        allowed = {32, 16, 8, 4}
        for factor in self.downsample_factors:
            if factor not in allowed:
                raise ValueError(f"downsample factor {factor} not in {sorted(allowed)}")
        if any(
            a < b
            for a, b in zip(self.downsample_factors, self.downsample_factors[1:])
        ):
            raise ValueError("downsample factors must be non-increasing")


def scaled_dot_attention(
    queries, keys, values
) -> tuple[np.ndarray, np.ndarray]:
    """Single-head scaled dot-product attention.

    Returns ``(output, weights)`` where ``weights`` is the row-wise softmax
    of ``queries @ keys.T / sqrt(d)`` (stabilized by row-max subtraction)
    and ``output = weights @ values``.
    """
    q = _matrix(queries, "queries")
    k = _matrix(keys, "keys")
    v = _matrix(values, "values")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"query dim {q.shape[1]} != key dim {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"{k.shape[0]} keys but {v.shape[0]} values")
    if k.shape[0] < 1:
        raise ValueError("attention needs at least one key, got 0")
    scores = q @ k.T / np.sqrt(q.shape[1])
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ v, weights


def coef_head(queries: QuerySet, weight, bias) -> CoefSet:
    """Project queries to per-channel coefficients with a sigmoid linear head."""
    w = _matrix(weight, "weight")
    b = np.asarray(bias, dtype=np.float64)
    if w.shape[0] != queries.d:
        raise ValueError(f"weight rows {w.shape[0]} != query dim {queries.d}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"bias shape {b.shape} != ({w.shape[1]},)")
    if not np.isfinite(b).all():
        raise ValueError("bias must be finite")
    return CoefSet(_frozen(_sigmoid_open(queries.data @ w + b)))


def dense_head(coefs: CoefSet, features: FeatureMap) -> list[GrayMap]:
    """Decode one probability map per query.

    Each query's coefficient row acts as a 1x1 convolution over the shared
    feature tensor: ``O_i[y, x] = sigmoid(sum_c coefs[i, c] * F[c, y, x])``.
    All queries are one matrix product over the flattened channels,
    ``coefs (n x c) @ F (c x h*w)``, taken in blocks of ``_DENSE_BLOCK``
    pixel columns: each block's logits go through the sigmoid in place and
    each row is copied into its query's map, so no ``n x h*w`` logits array
    is ever built. Every map is its own read-only array, which ``GrayMap``
    keeps without a copy.
    """
    c, h, w = features.data.shape
    if coefs.f != c:
        raise ValueError(f"coefficient width {coefs.f} != feature channels {c}")
    flat = features.data.reshape(c, h * w)
    maps = [np.empty((h, w)) for _ in range(coefs.n)]
    rows = [m.reshape(-1) for m in maps]
    for start in range(0, h * w, _DENSE_BLOCK):
        cols = slice(start, start + _DENSE_BLOCK)
        block = _sigmoid_open(coefs.data @ flat[:, cols])
        for row, values in zip(rows, block):
            row[cols] = values
    return [GrayMap(_frozen(m)) for m in maps]


def default_schedule() -> DecoderSchedule:
    """The six-layer coarse-to-fine decoder schedule: four 1/32 layers, then 1/16 and 1/8."""
    return DecoderSchedule((32, 32, 32, 32, 16, 8))


def cross_attention_cost(n: int, d: int, h: int, w: int) -> int:
    """Dominant-term operation count of cross attention at one resolution.

    Counts ``n*d*(h*w)^2 + n*d^2*(h*w)`` multiply-accumulates for ``n``
    queries of dimension ``d`` attending over an ``h x w`` feature map.
    Evaluated in exact integer arithmetic, so the result cannot overflow
    or wrap.
    """
    if min(n, d, h, w) < 1:
        raise ValueError("all arguments must be >= 1")
    hw = h * w
    return n * d * hw * hw + n * d * d * hw

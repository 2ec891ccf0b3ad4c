"""Rasterization of keypoint annotations into pixel grids.

Produces binary edge maps (8-connected polyline rasters) and penalty-reduced
"tunnel" training targets quantized to {0, 0.7, 1.0}, and binarizes gray
maps at a threshold.

Pixel (x, y) covers the unit square with center (x + 0.5, y + 0.5), and
annotation coordinates live on the pixel-center lattice: keypoint (2, 2)
refers to the center of pixel (2, 2) and rounds to that pixel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import KW_ONLY, dataclass, field
from functools import cached_property

import numpy as np

from .annotations import InstanceAnnotation, Keypoint

__all__ = [
    "BitMap",
    "GrayMap",
    "TunnelTarget",
    "TUNNEL_VALUE",
    "binarize",
    "rasterize_polyline",
    "build_tunnel_target",
]

TUNNEL_VALUE = 0.7


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Make a freshly built array read-only and return it, so that a map
    keeps it without a copy (see :func:`_kept`)."""
    arr.flags.writeable = False
    return arr


def _kept(arr: object, dtype: type | np.dtype) -> np.ndarray:
    """The array a map holds for ``arr``: ``arr`` itself where it is a
    read-only ``dtype`` ndarray that owns its memory, as a function that
    built it hands it over; otherwise a read-only C-order copy as ``dtype``,
    which no caller's later writes reach."""
    if (
        type(arr) is np.ndarray
        and arr.dtype == dtype
        and not arr.flags.writeable
        and arr.base is None
    ):
        return arr
    return _frozen(np.array(arr, dtype=dtype, order="C"))


def _pair(pair: object, kind: str, name: str) -> tuple[int, int]:
    """``pair`` as two ints, or a ``ValueError`` that names the type and field."""
    try:
        first, second = map(operator.index, pair)
    except (TypeError, ValueError):
        raise ValueError(f"{kind} {name} must be two integers, got {pair!r}") from None
    return first, second


@dataclass(frozen=True, eq=False)
class _Placed:
    """The one box rule of every map: its array is a box of its frame,
    placed by the keyword-only ``frame`` and ``origin``, and 0 outside it."""

    _: KW_ONLY
    frame: tuple[int, int] | None = None
    origin: tuple[int, int] = (0, 0)

    def _place(self, shape: tuple[int, int]) -> None:
        """Check and keep the placement of a box of ``shape``; a bad field
        raises a ``ValueError`` that names the map's type and the field."""
        kind = type(self).__name__
        height, width = shape if self.frame is None else _pair(self.frame, kind, "frame")
        top, left = _pair(self.origin, kind, "origin")
        if top < 0 or left < 0:
            raise ValueError(f"{kind} origin must not be negative, got {(top, left)}")
        if top + shape[0] > height or left + shape[1] > width:
            raise ValueError(
                f"{kind} box of {shape[0]}x{shape[1]} at {(top, left)} "
                f"leaves its {height}x{width} frame"
            )
        object.__setattr__(self, "frame", (height, width))
        object.__setattr__(self, "origin", (top, left))

    @property
    def height(self) -> int:
        return self.frame[0]

    @property
    def width(self) -> int:
        return self.frame[1]


@dataclass(frozen=True, eq=False)
class BitMap(_Placed):
    """A 2-D binary grid, over its whole frame or over a box of it.

    Like every map, a ``BitMap`` keeps a read-only array it owns, copies
    anything else, and computes each derived array once, on first read. So a
    function that built a bool array hands it over without a copy, and no
    caller's later writes reach the map; 0/1 integers and lists are
    converted. ``box`` holds the bits of a box of the frame, placed by the
    keyword-only ``frame=(height, width)`` and ``origin=(top, left)`` (by
    default the box's shape and ``(0, 0)``, so ``BitMap(bits)`` holds a
    frame map); every pixel outside it is unset, and ``height`` and
    ``width`` are the frame's. ``bits``, the read-only array of the whole
    frame, is built on first read; ``flat``, the set pixels' ascending frame
    flat indices, read-only, is taken from the box. ``binarize``,
    ``rasterize_polyline`` and ``thin`` return boxes, and the sweep reads
    only ``flat``, so none of their maps is put in a frame.
    """

    box: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.box)
        if arr.dtype != np.bool_ and not np.isin(arr, (0, 1)).all():
            raise ValueError("BitMap values must be 0 or 1")
        arr = _kept(arr, np.bool_)
        if arr.ndim != 2:
            raise ValueError(f"BitMap needs a 2-D grid, got shape {arr.shape}")
        self._place(arr.shape)
        object.__setattr__(self, "box", arr)

    @cached_property
    def bits(self) -> np.ndarray:
        """The read-only bits of the whole frame, built on first use."""
        return _frozen(_placed(self, self.box))

    @cached_property
    def flat(self) -> np.ndarray:
        """The set pixels' sorted frame flat indices, read-only, taken on first use."""
        return _frozen(_frame_flat(self.box, self.origin, self.width))


@dataclass(frozen=True, eq=False)
class GrayMap(_Placed):
    """A 2-D grid of values in [0, 1], held as floats or as integer samples,
    over its whole frame or over a box of it.

    Like every map, a ``GrayMap`` keeps a read-only array it owns, copies
    anything else, and computes each derived array once, on first read.

    ``GrayMap(values)`` holds float values, kept as a float64 array and
    checked to be finite and within [0, 1].

    ``GrayMap(samples, maxval)`` holds unsigned integer samples that stand
    for the values ``sample / maxval``, as a PGM stores them, kept in native
    byte order. The samples are checked to be at most ``maxval``, unless
    ``maxval`` is their dtype's maximum. Their float values are computed
    as ``np.divide(samples, maxval, dtype=np.float64)``.

    Either way the grid must be 2-D, and ``levels`` is the array a threshold
    is compared against (the values, or the samples). It is a box of the
    frame, placed as a ``BitMap``'s box is, and checks and thresholds look
    only at the box. ``values`` is the read-only float64 array of the whole
    frame, built on first read (the levels themselves for a float map whose
    box is its frame).
    """

    levels: np.ndarray
    maxval: int | None = None

    def __post_init__(self) -> None:
        arr, maxval = self.levels, self.maxval
        if maxval is None:
            arr = _kept(arr, np.float64)
        else:
            if not (type(arr) is np.ndarray and arr.dtype.kind == "u"):
                raise ValueError("GrayMap samples must be an unsigned integer array")
            if not (isinstance(maxval, (int, np.integer)) and maxval >= 1):
                raise ValueError(f"GrayMap maxval must be a positive integer, got {maxval!r}")
            maxval = int(maxval)
            object.__setattr__(self, "maxval", maxval)
            arr = _kept(arr, arr.dtype.newbyteorder("="))
        if arr.ndim != 2:
            raise ValueError(f"GrayMap needs a 2-D grid, got shape {arr.shape}")
        self._place(arr.shape)
        if maxval is None:
            # A NaN fails both tests and an infinity the range test, so
            # finiteness is only looked at to choose the message.
            if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
                if not np.isfinite(arr).all():
                    raise ValueError("GrayMap values must be finite")
                raise ValueError("GrayMap values must lie in [0, 1]")
        elif maxval < np.iinfo(arr.dtype).max and arr.max(initial=0) > maxval:
            raise ValueError(f"sample exceeds declared maxval {maxval}")
        object.__setattr__(self, "levels", arr)

    @cached_property
    def values(self) -> np.ndarray:
        """The read-only float64 values of the whole frame, computed on first use."""
        return _frozen(_placed(self, _box_values(self)))


def _box_values(graymap: GrayMap) -> np.ndarray:
    """The float64 values inside the map's box: the levels of a float map,
    else ``sample / maxval`` computed afresh."""
    if graymap.maxval is None:
        return graymap.levels
    return np.divide(graymap.levels, graymap.maxval, dtype=np.float64)


def _placed(m: _Placed, box: np.ndarray) -> np.ndarray:
    """``box``, an array of the map's box shape, at its origin in a zero
    frame of its dtype, or ``box`` itself if it fills the frame."""
    if box.shape == m.frame:
        return box
    out = np.zeros(m.frame, dtype=box.dtype)
    top, left = m.origin
    out[top:top + box.shape[0], left:left + box.shape[1]] = box
    return out


def _box_rows(graymap: GrayMap) -> tuple[int, int]:
    """The frame rows ``[start, stop)`` that the map's box spans."""
    top = graymap.origin[0]
    return top, top + graymap.levels.shape[0]


def _frame_flat(box: np.ndarray, origin: tuple[int, int], width: int) -> np.ndarray:
    """The ascending frame flat indices of the nonzero pixels of ``box`` at ``origin``."""
    y, x = np.divmod(np.flatnonzero(box), box.shape[1])
    return (y + origin[0]) * width + (x + origin[1])


def _set_box(edges: BitMap) -> tuple[np.ndarray, tuple[int, int]]:
    """The bounding box of the map's set pixels, found in its box: its bits
    (a view) and its frame origin; 0x0 at (0, 0) if no pixel is set."""
    rows = np.flatnonzero(edges.box.any(axis=1))
    if not rows.size:
        return edges.box[:0, :0], (0, 0)
    cols = np.flatnonzero(edges.box.any(axis=0))
    bits = edges.box[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    return bits, (edges.origin[0] + int(rows[0]), edges.origin[1] + int(cols[0]))


def _nonzero(graymap: GrayMap) -> tuple[np.ndarray, np.ndarray]:
    """The map's nonzero pixels, from its box: ascending frame flat indices, values."""
    box = _box_values(graymap)
    return _frame_flat(box, graymap.origin, graymap.width), box[box != 0.0]


# A float map cut here at thresholds at or below 0 fires exactly ``values > 0``.
_SMALLEST_POSITIVE = 5e-324


def _cut(graymap: GrayMap, threshold: float) -> float | int:
    """The level ``L`` at which ``graymap.levels >= L`` binarizes at ``threshold``.

    For float values ``L`` is the threshold itself, or the smallest positive
    float where the threshold is at most 0, so zero never fires. For samples
    it is the smallest sample ``s >= 1`` whose value ``s / maxval`` passes
    the float test ``>= threshold``, or ``maxval + 1`` where none does (a
    threshold above 1, or NaN). It starts from ``ceil(threshold * maxval)``
    and steps by one while the float test says so; the division is
    correctly rounded, so ``s / maxval`` is exactly the value the map's
    ``values`` hold, and it never decreases as ``s`` grows.
    """
    maxval = graymap.maxval
    if maxval is None:
        return _SMALLEST_POSITIVE if threshold <= 0.0 else threshold
    if threshold <= 0.0:
        return 1
    if not threshold <= 1.0:
        return maxval + 1
    level = max(math.ceil(threshold * maxval), 1)
    while level > 1 and (level - 1) / maxval >= threshold:
        level -= 1
    while level / maxval < threshold:
        level += 1
    return level


def binarize(graymap: GrayMap, threshold: float) -> BitMap:
    """Pixels with probability >= threshold; zero-probability pixels never fire.

    One comparison of the map's levels, float values or integer samples,
    with the level :func:`_cut` finds for the threshold. A map of samples is
    never turned into floats, and the result is exactly that of comparing
    them: above 0, ``values >= threshold`` implies ``values > 0``, and at or
    below 0 only ``values > 0`` decides. So only a map's box is compared,
    and the result is that box of bits, placed in the map's frame.
    """
    box = _frozen(graymap.levels >= _cut(graymap, threshold))
    return BitMap(box, frame=graymap.frame, origin=graymap.origin)


def _firing_counts(graymap: GrayMap, thresholds: tuple[float, ...]) -> list[int]:
    """How many pixels fire at each of two or more ascending ``thresholds``.

    The counts compare the map's levels with the cut levels :func:`binarize`
    uses (see :func:`_cut`), in two passes over the frame: the first counts
    the pixels at or above the lowest cut; the second keeps the levels at
    or above the next cut, and the other thresholds are counted on those
    alone, since the cuts ascend with the thresholds. So a never-zero map,
    which fires everywhere at threshold 0, is compared whole only twice.
    Every cut is positive, so only a map's box is counted: the zeros
    outside it never fire.
    """
    cuts = [_cut(graymap, t) for t in thresholds]
    levels = graymap.levels
    first = np.count_nonzero(levels >= cuts[0])
    fires = levels[levels >= cuts[1]]
    return [first] + [np.count_nonzero(fires >= cut) for cut in cuts[1:]]


@dataclass(frozen=True, eq=False)
class TunnelTarget:
    """A training target whose values are exactly {0, 0.7, 1.0}.

    ``keypoint_count``, the focal loss's normalizer, is counted by the check:
    one pixel at 1.0 per distinct keypoint pixel, and a map with none is
    rejected. Only the box is checked, since every pixel outside it is 0.
    """

    map: GrayMap
    keypoint_count: int = field(init=False)

    def __post_init__(self) -> None:
        v = _box_values(self.map)
        # One box comparison, then counts over the few placed values, not
        # np.unique: sorting is slower and loads numpy.ma. The sorted values
        # are taken only for the message, with the zeros outside the box.
        placed = v[v != 0.0].tolist()
        ones = placed.count(1.0)
        if placed.count(TUNNEL_VALUE) + ones != len(placed):
            if v.shape != self.map.frame:
                v = np.append(v, 0.0)
            allowed = {0.0, TUNNEL_VALUE, 1.0}
            raise ValueError(
                f"tunnel target values must be in {allowed}, got {np.unique(v)}"
            )
        if not ones:
            raise ValueError("tunnel target has no pixel at 1.0, so no keypoint")
        object.__setattr__(self, "keypoint_count", ones)


def _check_dims(height: int, width: int) -> None:
    if height < 1 or width < 1:
        raise ValueError(f"dimensions must be positive, got {height}x{width}")


def _to_pixel(kp: Keypoint, height: int, width: int) -> tuple[int, int]:
    # Round half up, then clip so boundary-touching coordinates stay inside.
    px = min(width - 1, max(0, math.floor(kp.x + 0.5)))
    py = min(height - 1, max(0, math.floor(kp.y + 0.5)))
    return px, py


def _draw_segment(bits: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> None:
    """Set the pixels of an 8-connected Bresenham segment (inclusive ends)."""
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        bits[y, x] = True
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def _ring_pixels(
    inst: InstanceAnnotation, height: int, width: int
) -> list[list[tuple[int, int]]]:
    """Each ring's keypoints as their (x, y) pixels."""
    return [[_to_pixel(kp, height, width) for kp in ring] for ring in inst.rings]


def _draw_rings(
    rings: list[list[tuple[int, int]]], height: int, width: int, margin: int
) -> tuple[np.ndarray, int, int]:
    """Draw closed rings of (x, y) pixels into their box: ``(bits, top, left)``.

    The box spans the rings' pixels grown by ``margin`` on every side and
    clipped to the frame; ``bits[y - top, x - left]`` is frame pixel (x, y).
    Consecutive pixels of each ring, and its last and first, are joined by
    8-connected Bresenham segments. Without rings the box is empty.
    """
    xs = [x for ring in rings for x, _ in ring]
    ys = [y for ring in rings for _, y in ring]
    if not xs:
        return np.zeros((0, 0), dtype=bool), 0, 0
    top, left = max(min(ys) - margin, 0), max(min(xs) - margin, 0)
    bottom, right = min(max(ys) + margin, height - 1), min(max(xs) + margin, width - 1)
    bits = np.zeros((bottom - top + 1, right - left + 1), dtype=bool)
    for ring in rings:
        for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]):
            _draw_segment(bits, x0 - left, y0 - top, x1 - left, y1 - top)
    return bits, top, left


def rasterize_polyline(inst: InstanceAnnotation, height: int, width: int) -> BitMap:
    """Rasterize the closed boundary polylines of an instance.

    Consecutive keypoints of each ring (including the closing segment) are
    connected with 8-connected discrete lines between their rounded pixels.
    The lines are drawn into the rings' pixel box, and the map holds that
    box, placed in the ``height`` x ``width`` frame.
    """
    _check_dims(height, width)
    box, top, left = _draw_rings(_ring_pixels(inst, height, width), height, width, 0)
    return BitMap(_frozen(box), frame=(height, width), origin=(top, left))


def _dilate3x3(bits: np.ndarray) -> np.ndarray:
    """Pixels whose 3x3 box neighborhood contains a set pixel; outside is unset.

    The box is separable: a 3-row dilation, then a 3-column one, each from
    shifted slices of the grid.
    """
    rows = bits.copy()
    rows[1:] |= bits[:-1]
    rows[:-1] |= bits[1:]
    out = rows.copy()
    out[:, 1:] |= rows[:, :-1]
    out[:, :-1] |= rows[:, 1:]
    return out


def build_tunnel_target(
    inst: InstanceAnnotation, height: int, width: int
) -> TunnelTarget:
    """Build the quantized soft target for point-supervised edge training.

    The rasterized boundary is blurred with a 3x3 box filter; every pixel with
    a positive response becomes 0.7 (the "tunnel" of plausible edge
    locations), and every pixel hosting a keypoint is overwritten with 1.0.

    Only the rings' box, grown by the filter's 1-pixel reach, is drawn,
    dilated and checked: no pixel outside it is within reach of the
    boundary. The target's map keeps that box grid without a copy, placed
    in the ``height`` x ``width`` frame; no frame-sized array is built
    until something reads the map's ``values``.
    """
    _check_dims(height, width)
    rings = _ring_pixels(inst, height, width)
    keypoints = {pixel for ring in rings for pixel in ring}
    if not keypoints:
        raise ValueError(
            f"instance {inst.instance_id} has no keypoints; cannot build a target"
        )
    tunnel, top, left = _draw_rings(rings, height, width, 1)
    box = np.zeros(tunnel.shape)
    box[_dilate3x3(tunnel)] = TUNNEL_VALUE
    for px, py in keypoints:
        box[py - top, px - left] = 1.0
    return TunnelTarget(GrayMap(_frozen(box), frame=(height, width), origin=(top, left)))

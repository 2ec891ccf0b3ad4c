"""Rasterization of keypoint annotations into pixel grids.

Produces binary edge maps (8-connected polyline rasters) and penalty-reduced
"tunnel" training targets quantized to {0, 0.7, 1.0}.

Pixel (x, y) covers the unit square with center (x + 0.5, y + 0.5), and
annotation coordinates live on the pixel-center lattice: keypoint (2, 2)
refers to the center of pixel (2, 2) and rounds to that pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .annotations import InstanceAnnotation, Keypoint

__all__ = [
    "BitMap",
    "GrayMap",
    "TunnelTarget",
    "TUNNEL_VALUE",
    "rasterize_polyline",
    "build_tunnel_target",
]

TUNNEL_VALUE = 0.7


def _owned_read_only(arr: object, dtype: np.dtype) -> bool:
    """Whether ``arr`` is an ndarray of ``dtype`` a map can keep uncopied."""
    return (
        type(arr) is np.ndarray
        and arr.dtype == dtype
        and not arr.flags.writeable
        and arr.base is None
    )


@dataclass(frozen=True, eq=False)
class BitMap:
    """A 2-D binary grid. ``bits`` is a read-only boolean array.

    A bool ndarray that is already read-only and owns its memory is kept as
    it is, so a function that built it hands it over without a copy; any
    other input (a writable array, a view, 0/1 integers or a list) is
    copied, so no caller's later writes reach the map. ``flat`` holds the
    set pixels' flat indices in ascending order, computed on first read
    and then kept read-only.
    """

    bits: np.ndarray
    _flat: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        arr = self.bits
        if not _owned_read_only(arr, np.dtype(np.bool_)):
            arr = np.asarray(arr)
            if arr.dtype != np.bool_ and not np.isin(arr, (0, 1)).all():
                raise ValueError("BitMap values must be 0 or 1")
            arr = arr.astype(bool)
        if arr.ndim != 2:
            raise ValueError(f"BitMap needs a 2-D grid, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    @property
    def flat(self) -> np.ndarray:
        """The set pixels' sorted flat indices, read-only, taken on first use."""
        if self._flat is None:
            flat = np.flatnonzero(self.bits)
            flat.flags.writeable = False
            object.__setattr__(self, "_flat", flat)
        return self._flat

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def count(self) -> int:
        """Number of set pixels."""
        return int(self.bits.sum())


@dataclass(frozen=True, eq=False)
class GrayMap:
    """A 2-D grid of values in [0, 1], held as floats or as integer samples.

    ``GrayMap(values)`` holds float values. A float64 ndarray that is already
    read-only and owns its memory is kept as it is, so a function that built
    it hands it over without a copy; any other input (a writable array, a
    view, another dtype or a list) is copied, so no caller's later writes
    reach the map. The values are checked to be finite and within [0, 1].

    ``GrayMap(samples, maxval)`` holds unsigned integer samples that stand
    for the values ``sample / maxval``, as a PGM stores them. A native-order
    ndarray that is read-only and owns its memory is kept; any other
    unsigned integer array is copied into native byte order. The samples
    are checked to be at most ``maxval``, unless ``maxval`` is their dtype's
    maximum. Their float ``values`` are computed when first read, as
    ``np.divide(samples, maxval, dtype=np.float64)``, and then kept.

    Either way the grid must be 2-D, ``levels`` is the array a threshold is
    compared against (the values, or the samples), and ``values`` is a
    read-only float64 array. Shape and size come from ``levels``, so they
    never build the float values of a sample map.
    """

    levels: np.ndarray
    maxval: int | None = None
    _values: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        arr, maxval = self.levels, self.maxval
        if maxval is None:
            if not _owned_read_only(arr, np.dtype(np.float64)):
                arr = np.array(arr, dtype=np.float64, order="C")
        else:
            if not (type(arr) is np.ndarray and arr.dtype.kind == "u"):
                raise ValueError("GrayMap samples must be an unsigned integer array")
            if not (isinstance(maxval, (int, np.integer)) and maxval >= 1):
                raise ValueError(f"GrayMap maxval must be a positive integer, got {maxval!r}")
            maxval = int(maxval)
            object.__setattr__(self, "maxval", maxval)
            native = arr.dtype.newbyteorder("=")
            if not _owned_read_only(arr, native):
                arr = arr.astype(native, order="C")
        if arr.ndim != 2:
            raise ValueError(f"GrayMap needs a 2-D grid, got shape {arr.shape}")
        if maxval is None:
            # A NaN fails both tests and an infinity the range test, so
            # finiteness is only looked at to choose the message.
            if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
                if not np.isfinite(arr).all():
                    raise ValueError("GrayMap values must be finite")
                raise ValueError("GrayMap values must lie in [0, 1]")
            object.__setattr__(self, "_values", arr)
        elif maxval < np.iinfo(arr.dtype).max and arr.max(initial=0) > maxval:
            raise ValueError(f"sample exceeds declared maxval {maxval}")
        arr.flags.writeable = False
        object.__setattr__(self, "levels", arr)

    @property
    def values(self) -> np.ndarray:
        """The read-only float64 values, computed on first use for samples."""
        if self._values is None:
            values = np.divide(self.levels, self.maxval, dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, "_values", values)
        return self._values

    @property
    def height(self) -> int:
        return self.levels.shape[0]

    @property
    def width(self) -> int:
        return self.levels.shape[1]


@dataclass(frozen=True, eq=False)
class TunnelTarget:
    """A training target whose values are exactly {0, 0.7, 1.0}.

    ``keypoint_count`` is the number of distinct keypoint pixels (coincident
    keypoints deduplicate) and equals the number of 1.0-valued pixels; it is
    the normalizer of the penalty-reduced focal loss.
    """

    map: GrayMap
    keypoint_count: int

    def __post_init__(self) -> None:
        if self.keypoint_count < 1:
            raise ValueError("keypoint_count must be >= 1")
        v = self.map.values
        # One frame comparison, then counts over the few placed values, not
        # np.unique: sorting the frame is slower and loads numpy.ma. The
        # sorted values are taken only for the message. The placed values
        # are counted as a list: comparing them as an array raised
        # make-targets' peak RSS by about 0.3 MiB in the benchmark's workers.
        placed = v[v != 0.0].tolist()
        ones = placed.count(1.0)
        if placed.count(TUNNEL_VALUE) + ones != len(placed):
            allowed = {0.0, TUNNEL_VALUE, 1.0}
            raise ValueError(
                f"tunnel target values must be in {allowed}, got {np.unique(v)}"
            )
        if ones != self.keypoint_count:
            raise ValueError(
                f"{ones} pixels at 1.0 but keypoint_count={self.keypoint_count}"
            )


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
    The lines are drawn into the rings' pixel box, which is then pasted into
    a zero frame.
    """
    _check_dims(height, width)
    box, top, left = _draw_rings(_ring_pixels(inst, height, width), height, width, 0)
    bits = np.zeros((height, width), dtype=bool)
    bits[top:top + box.shape[0], left:left + box.shape[1]] = box
    bits.flags.writeable = False
    return BitMap(bits)


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

    Only the rings' box, grown by the filter's 1-pixel reach, is drawn and
    dilated: no pixel outside it is within reach of the boundary. The
    result is written into a zero float frame, which the target's map keeps
    without a copy.
    """
    _check_dims(height, width)
    rings = _ring_pixels(inst, height, width)
    keypoints = {pixel for ring in rings for pixel in ring}
    if not keypoints:
        raise ValueError(
            f"instance {inst.instance_id} has no keypoints; cannot build a target"
        )
    tunnel, top, left = _draw_rings(rings, height, width, 1)
    values = np.zeros((height, width))
    box = values[top:top + tunnel.shape[0], left:left + tunnel.shape[1]]
    box[_dilate3x3(tunnel)] = TUNNEL_VALUE
    for px, py in keypoints:
        values[py, px] = 1.0
    values.flags.writeable = False
    return TunnelTarget(map=GrayMap(values), keypoint_count=len(keypoints))

"""Rasterization of keypoint annotations into pixel grids.

Produces binary edge maps (8-connected polyline rasters) and penalty-reduced
"tunnel" training targets quantized to {0, 0.7, 1.0}.

Pixel (x, y) covers the unit square with center (x + 0.5, y + 0.5), and
annotation coordinates live on the pixel-center lattice: keypoint (2, 2)
refers to the center of pixel (2, 2) and rounds to that pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class BitMap:
    """A 2-D binary grid. ``bits`` is a read-only boolean array.

    A bool ndarray that is already read-only and owns its memory is kept as
    it is, so a function that built it hands it over without a copy; any
    other input (a writable array, a view, 0/1 integers or a list) is
    copied, so no caller's later writes reach the map.
    """

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = self.bits
        if not (
            type(arr) is np.ndarray
            and arr.dtype == np.bool_
            and not arr.flags.writeable
            and arr.base is None
        ):
            arr = np.asarray(arr)
            if arr.dtype != np.bool_ and not np.isin(arr, (0, 1)).all():
                raise ValueError("BitMap values must be 0 or 1")
            arr = arr.astype(bool)
        if arr.ndim != 2:
            raise ValueError(f"BitMap needs a 2-D grid, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

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
    """A 2-D grid of values in [0, 1]. ``values`` is a read-only float array.

    A float64 ndarray that is already read-only and owns its memory is kept
    as it is, so a reader that built it hands it over without a copy; any
    other input (a writable array, a view, another dtype or a list) is
    copied, so no caller's later writes reach the map. Every input is
    checked to be 2-D, finite and within [0, 1].
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = self.values
        if not (
            type(arr) is np.ndarray
            and arr.dtype == np.float64
            and not arr.flags.writeable
            and arr.base is None
        ):
            arr = np.array(arr, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise ValueError(f"GrayMap needs a 2-D grid, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("GrayMap values must be finite")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("GrayMap values must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


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
        # Elementwise tests, not np.unique: sorting the frame is slower and
        # loads numpy.ma. The sorted values are taken only for the message.
        if not ((v == 0.0) | (v == TUNNEL_VALUE) | (v == 1.0)).all():
            allowed = {0.0, TUNNEL_VALUE, 1.0}
            raise ValueError(
                f"tunnel target values must be in {allowed}, got {np.unique(v)}"
            )
        ones = int((v == 1.0).sum())
        if ones != self.keypoint_count:
            raise ValueError(
                f"{ones} pixels at 1.0 but keypoint_count={self.keypoint_count}"
            )


def _check_dims(height: int, width: int) -> None:
    if height < 1 or width < 1:
        raise ValueError(f"dimensions must be positive, got {height}x{width}")


def _to_pixel(kp: Keypoint, height: int, width: int) -> tuple[int, int]:
    # Round half up, then clip so boundary-touching coordinates stay inside.
    px = min(width - 1, max(0, int(np.floor(kp.x + 0.5))))
    py = min(height - 1, max(0, int(np.floor(kp.y + 0.5))))
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


def rasterize_polyline(inst: InstanceAnnotation, height: int, width: int) -> BitMap:
    """Rasterize the closed boundary polylines of an instance.

    Consecutive keypoints of each ring (including the closing segment) are
    connected with 8-connected discrete lines between their rounded pixels.
    """
    _check_dims(height, width)
    bits = np.zeros((height, width), dtype=bool)
    for ring in inst.rings:
        pixels = [_to_pixel(kp, height, width) for kp in ring]
        for (x0, y0), (x1, y1) in zip(pixels, pixels[1:] + pixels[:1]):
            _draw_segment(bits, x0, y0, x1, y1)
    return BitMap(bits)


def _dilate3x3(bits: np.ndarray) -> np.ndarray:
    """Pixels whose 3x3 box neighborhood contains a set pixel."""
    h, w = bits.shape
    padded = np.pad(bits, 1)
    out = np.zeros_like(bits)
    for dy in range(3):
        for dx in range(3):
            out |= padded[dy:dy + h, dx:dx + w]
    return out


def build_tunnel_target(
    inst: InstanceAnnotation, height: int, width: int
) -> TunnelTarget:
    """Build the quantized soft target for point-supervised edge training.

    The rasterized boundary is blurred with a 3x3 box filter; every pixel with
    a positive response becomes 0.7 (the "tunnel" of plausible edge
    locations), and every pixel hosting a keypoint is overwritten with 1.0.
    """
    _check_dims(height, width)
    keypoints = {_to_pixel(kp, height, width) for kp in inst.all_keypoints()}
    if not keypoints:
        raise ValueError(
            f"instance {inst.instance_id} has no keypoints; cannot build a target"
        )
    edges = rasterize_polyline(inst, height, width).bits
    values = np.where(_dilate3x3(edges), TUNNEL_VALUE, 0.0)
    for px, py in keypoints:
        values[py, px] = 1.0
    return TunnelTarget(map=GrayMap(values), keypoint_count=len(keypoints))

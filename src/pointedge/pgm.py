"""Binary PGM ("P5") serialization for gray maps.

GrayMaps are stored with maxval 65535 (two big-endian bytes per sample,
sample = round(value * 65535)). The reader accepts any maxval in [1, 65535]
and '#' comments in the header, each ending at CR or LF, and hands the
samples themselves, with their maxval, to the map it returns.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .raster import GrayMap

__all__ = ["read_graymap", "write_graymap"]

GRAY_MAXVAL = 65535

# The netpbm header: the magic, then width, height and maxval, each after
# at least one separator, and one whitespace byte before the samples. A
# separator is whitespace or a comment, '#' through the next CR or LF. No
# file holds 10^20 samples, and int() refuses very long digit runs.
_SEPARATED_NUMBER = rb"(?:\s|#[^\r\n]*[\r\n])+(\d{1,20})"
_HEADER = re.compile(rb"P5" + _SEPARATED_NUMBER * 3 + rb"\s")


def write_graymap(graymap: GrayMap, path: str | Path) -> None:
    """Write ``rint(value * 65535)`` as big-endian 16-bit samples.

    The scaled values are rounded in place and converted once; the header
    and the sample buffer are written one after the other, uncopied.
    """
    scaled = graymap.values * GRAY_MAXVAL
    samples = np.rint(scaled, out=scaled).astype(">u2")
    header = f"P5\n{graymap.width} {graymap.height}\n{GRAY_MAXVAL}\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(samples.data)


def _read_raw(path: str | Path) -> tuple[np.ndarray, int]:
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (missing P5 magic)")
    header = _HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: malformed PGM header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1 or not (1 <= maxval <= 65535):
        raise ValueError(f"{path}: invalid PGM dimensions {width}x{height} maxval {maxval}")
    pos = header.end()
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    count = width * height
    found = len(data) - pos
    if found != count * dtype.itemsize:
        raise ValueError(
            f"{path}: expected {count} samples of {dtype.itemsize} byte(s), "
            f"found {found} bytes"
        )
    # A read-only view of the file's bytes; the map makes its native copy.
    samples = np.frombuffer(data, dtype=dtype, count=count, offset=pos).reshape(height, width)
    return samples, maxval


def read_graymap(path: str | Path) -> GrayMap:
    """Read a PGM as a map of its samples and maxval, standing for ``sample / maxval``.

    The map keeps the samples in native byte order without dividing them:
    a threshold is applied to the samples themselves (see
    :func:`pointedge.metrics.binarize`), and the map's read-only float64
    ``values`` are computed only if something reads them. The map checks
    that no sample exceeds ``maxval``; every error names the file.
    """
    samples, maxval = _read_raw(path)
    try:
        return GrayMap(samples, maxval)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


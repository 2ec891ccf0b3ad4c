"""Binary PGM ("P5") serialization for gray maps.

GrayMaps are stored with maxval 65535 (two big-endian bytes per sample,
sample = round(value * 65535)). The reader accepts any maxval in [1, 65535]
and '#' comments in the header, and hands the samples themselves, with their
maxval, to the map it returns.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .raster import GrayMap

__all__ = ["read_graymap", "write_graymap"]

GRAY_MAXVAL = 65535


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
    # Tokenize the header: three whitespace-separated integers after the
    # magic, with '#' starting a comment through end of line.
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            pos = len(data) if eol < 0 else eol + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        # No file holds 10^20 samples, and int() refuses very long digit runs.
        if not token.isdigit() or len(token) > 20:
            raise ValueError(f"{path}: malformed PGM header near byte {start}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1 or not (1 <= maxval <= 65535):
        raise ValueError(f"{path}: invalid PGM dimensions {width}x{height} maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    count = width * height
    found = max(len(data) - pos, 0)
    if found != count * dtype.itemsize:
        raise ValueError(
            f"{path}: expected {count} samples of {dtype.itemsize} byte(s), "
            f"found {found} bytes"
        )
    samples = np.frombuffer(data, dtype=dtype, count=count, offset=pos).reshape(height, width)
    # A native-order copy, which the map keeps as it is.
    samples = samples.astype(dtype.newbyteorder("="))
    samples.flags.writeable = False
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


"""Binary PGM ("P5") serialization for gray maps.

GrayMaps are stored with maxval 65535 (two big-endian bytes per sample,
sample = round(value * 65535)). The reader accepts any maxval in [1, 65535]
and '#' comments in the header.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .raster import GrayMap

__all__ = ["read_graymap", "write_graymap"]

GRAY_MAXVAL = 65535


def write_graymap(graymap: GrayMap, path: str | Path) -> None:
    samples = np.rint(graymap.values * GRAY_MAXVAL).astype(">u2")
    header = f"P5\n{graymap.width} {graymap.height}\n{GRAY_MAXVAL}\n".encode("ascii")
    Path(path).write_bytes(header + samples.tobytes())


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
    samples = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    if samples.max(initial=0) > maxval:
        raise ValueError(f"{path}: sample exceeds declared maxval {maxval}")
    return samples.reshape(height, width), maxval


def read_graymap(path: str | Path) -> GrayMap:
    """Read a PGM as values ``sample / maxval``, a read-only float64 array.

    The values are computed once, into an array the map then keeps.
    """
    samples, maxval = _read_raw(path)
    values = np.divide(samples, maxval, dtype=np.float64)
    values.flags.writeable = False
    return GrayMap(values)


"""
Rasterizing point annotations into training targets
===================================================

Walks one annotated instance from keypoints to a quantized tunnel target:
the closed boundary polyline is drawn as an 8-connected pixel chain, a one
pixel band around it becomes the 0.7 "tunnel", and the pixels hosting the
annotated keypoints are set to 1.0. Run with python3; output is plain text.
"""

import tempfile
from pathlib import Path

from pointedge import (
    InstanceAnnotation,
    Keypoint,
    build_tunnel_target,
    rasterize_polyline,
    read_graymap,
    subsample_keypoints,
    write_graymap,
)

GLYPHS = {0.0: ".", 0.7: "o", 1.0: "#"}


def show(values):
    for row in values:
        print("  " + " ".join(GLYPHS[v] for v in row))


# An octagonal boundary on a 16 x 16 image, annotated with 8 keypoints.
ring = tuple(
    Keypoint(x, y)
    for x, y in [(4, 2), (8, 2), (12, 5), (12, 9), (9, 13), (5, 13), (2, 9), (2, 5)]
)
inst = InstanceAnnotation(
    instance_id=1, category_id=0, rings=(ring,), bbox=(2.0, 2.0, 10.0, 11.0)
)

edges = rasterize_polyline(inst, 16, 16)
print(f"boundary raster: {len(edges.flat)} edge pixels")
show([[0.7 * b for b in row] for row in edges.bits])

target = build_tunnel_target(inst, 16, 16)
print()
print(
    f"tunnel target: {target.keypoint_count} keypoint pixels at 1.0, "
    "a 0.7 band elsewhere on and around the boundary"
)
show(target.map.values)

# Sparser supervision: keep half of the keypoints (at least 3 per ring).
# The same seed always keeps the same subset, so targets are reproducible.
half = subsample_keypoints(inst, 0.5, seed=7)
half_target = build_tunnel_target(half, 16, 16)
print()
print(
    f"after 0.5 subsampling: {half.keypoint_count} of {inst.keypoint_count} "
    f"keypoints kept, {half_target.keypoint_count} pixels at 1.0"
)
show(half_target.map.values)

# Targets serialize as 16-bit binary graymaps; values survive the round
# trip to within half a quantization step.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "target.pgm"
    write_graymap(target.map, path)
    raw = path.read_bytes()
    print()
    print(f"graymap file: {len(raw)} bytes, header {raw[:13]!r}")
    back = read_graymap(path)
    worst = abs(back.values - target.map.values).max()
    print(f"worst round-trip error: {worst:.2e} (half step is {0.5 / 65535:.2e})")

"""
Scoring edge predictions with ODS and OIS
=========================================

Builds a tiny two-image dataset whose two instances peak at different
binarization thresholds, then walks the full evaluation: thinning, node
matching within a diagonal-scaled distance, per-image precision/recall,
and the two summary scores. ODS fixes one threshold for the whole dataset;
OIS lets every image pick its own, so it can only do better.
"""

import numpy as np

from pointedge import (
    BitMap,
    Dataset,
    EvalConfig,
    GrayMap,
    ImageRecord,
    InstanceAnnotation,
    Keypoint,
    evaluate,
    match_instance,
    rasterize_polyline,
    thin,
)


def segment(x0, x1, y, instance_id):
    # A degenerate flat ring: rasterizes to one horizontal pixel run.
    return InstanceAnnotation(
        instance_id=instance_id,
        category_id=0,
        rings=((Keypoint(x0, y), Keypoint(x1, y), Keypoint((x0 + x1) / 2, y)),),
        bbox=(float(x0), float(y), float(x1 - x0), 1.0),
    )


def show(bits):
    for row in bits:
        print("  " + "".join("#" if b else "." for b in row))


# Thinning first: a 3-pixel-thick bar collapses to a single-pixel path
# while staying a subset and keeping one connected component.
thick = np.zeros((7, 14), dtype=bool)
thick[2:5, 2:12] = True
thinned = thin(BitMap(thick))
print(f"thinning a thick bar: {int(thick.sum())} pixels down to {len(thinned.flat)}")
show(thinned.bits)

# Matching is strict: with the default lambda, the maximum node distance on
# a 16 x 16 image is well under one pixel, so only coincident pixels pair.
gt = rasterize_polyline(segment(2, 7, 3, 1), 16, 16)
offset = BitMap(np.roll(gt.bits, 1, axis=0))
cfg = EvalConfig()
print()
print(f"max matching distance at 16 x 16: {cfg.max_distance(16, 16):.3f} pixels")
print(f"exact copy matches {match_instance(gt, gt).matched} of {len(gt.flat)} nodes")
print(f"one-row offset matches {match_instance(offset, gt).matched}")

# Two images, one instance each. Image 1's prediction is confident at 0.31
# with weaker decoys at 0.26; image 2 repeats the pattern shifted up to
# 0.81 and 0.76. A single shared threshold cannot avoid both decoy bands,
# but a per-image threshold can.
images = (
    ImageRecord(image_id=1, height=16, width=16, instances=(segment(2, 7, 3, 1),)),
    ImageRecord(image_id=2, height=16, width=16, instances=(segment(2, 7, 3, 2),)),
)
dataset = Dataset(images=images, categories={0: "thing"})


def prediction(edge_level, decoy_level):
    values = np.zeros((16, 16))
    values[3, 2:8] = edge_level
    values[10, 2:4] = decoy_level
    return GrayMap(values)


predictions = {
    1: {1: prediction(0.31, 0.26)},
    2: {2: prediction(0.81, 0.76)},
}
summary = evaluate(predictions, dataset, cfg)
print()
print("threshold sweep (dataset means):")
for pt in summary.curve:
    marker = " <- best shared threshold" if pt.fscore == max(
        q.fscore for q in summary.curve
    ) else ""
    if pt.precision < 1.0 or 0.0 < pt.recall:
        print(
            f"  t={pt.threshold:.2f}  precision {pt.precision:.3f}  "
            f"recall {pt.recall:.3f}  F {pt.fscore:.3f}{marker}"
        )
print()
print(f"ODS (one threshold for the whole dataset): {summary.ods:.4f}")
print(f"OIS (each image picks its own threshold):  {summary.ois:.4f}")
print(
    "note: the sweep shows F of the mean precision/recall, while ODS "
    "averages each image's F before maximizing, so the two can differ"
)

"""Instance edge evaluation: thinning, matching, and ODS/OIS scoring.

The pipeline binarizes per-instance probability maps over a threshold sweep,
thins each binary map to (near) pixel width, solves a distance-gated
one-to-one assignment between predicted and ground-truth edge pixels, and
accumulates per-image precision/recall into ODS (best mean F at a single
shared threshold) and OIS (mean of each image's best F).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .annotations import Dataset, ImageRecord, InstanceAnnotation
from .raster import BitMap, GrayMap, rasterize_polyline

__all__ = [
    "EvalConfig",
    "MatchResult",
    "PRPoint",
    "EvalSummary",
    "PredictedInstance",
    "thin",
    "edge_nodes",
    "match_instance",
    "image_pr",
    "fscore",
    "pair_instances",
    "bbox_iou",
    "evaluate",
]

DEFAULT_THRESHOLDS = tuple(k / 20 for k in range(20))


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings.

    ``max_dist_fraction`` scales the image diagonal into the maximum
    node-matching distance ``d = sqrt(H^2 + W^2) * fraction``; 0.0075 is the
    long-standing boundary-benchmark convention. ``thresholds`` is the
    binarization sweep, by default 20 evenly spaced values in [0, 1).
    """

    max_dist_fraction: float = 0.0075
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self) -> None:
        if not (0.0 < self.max_dist_fraction < 1.0):
            raise ValueError("max_dist_fraction must be in (0, 1)")
        if not self.thresholds:
            raise ValueError("thresholds must be non-empty")
        for t in self.thresholds:
            if not (0.0 <= t < 1.0):
                raise ValueError(f"threshold {t} outside [0, 1)")

    def max_distance(self, height: int, width: int) -> float:
        return math.hypot(height, width) * self.max_dist_fraction


@dataclass(frozen=True)
class MatchResult:
    """One instance's pixel-matching outcome.

    ``matched_pairs`` holds (gt node index, pred node index) pairs; node
    indices follow the row-major scan order of :func:`edge_nodes`.
    """

    matched_pairs: tuple[tuple[int, int], ...]
    pred_total: int
    gt_total: int

    def __post_init__(self) -> None:
        gt_side = [g for g, _ in self.matched_pairs]
        pred_side = [p for _, p in self.matched_pairs]
        if len(set(gt_side)) != len(gt_side) or len(set(pred_side)) != len(pred_side):
            raise ValueError("matched pairs must be one-to-one on both sides")
        if len(self.matched_pairs) > min(self.pred_total, self.gt_total):
            raise ValueError("more matches than nodes on one side")

    @property
    def matched(self) -> int:
        return len(self.matched_pairs)


@dataclass(frozen=True)
class PRPoint:
    """Dataset-level precision/recall at one threshold (per-image means)."""

    threshold: float
    precision: float
    recall: float
    fscore: float


@dataclass(frozen=True)
class EvalSummary:
    """Threshold sweep plus the two headline scores.

    ``ods`` maximizes the mean per-image F over a single shared threshold;
    ``ois`` averages each image's own best F, so ``ois >= ods`` up to
    rounding: the two means are summed in different orders, and with 8 or
    more images ``ois`` can be 1 ulp below ``ods``.
    """

    curve: tuple[PRPoint, ...]
    ods: float
    ois: float


@dataclass(frozen=True)
class PredictedInstance:
    """A detector output: category, box, and an edge-probability map."""

    category_id: int
    bbox: tuple[float, float, float, float]
    map: GrayMap


# ---------------------------------------------------------------------------
# Thinning
# ---------------------------------------------------------------------------

def _codes(a: np.ndarray) -> np.ndarray:
    """Each pixel's 8-bit neighbour code; outside the grid counts as unset.

    Bit k is the k-th neighbour in the order N, NE, E, SE, S, SW, W, NW,
    with north meaning row - 1; the offsets index the zero-padded grid.
    """
    h, w = a.shape
    z = np.pad(a, 1).view(np.uint8)
    codes = np.zeros((h, w), dtype=np.uint8)
    offsets = ((0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0), (0, 0))
    for k, (dy, dx) in enumerate(offsets):
        codes += z[dy:dy + h, dx:dx + w] * np.uint8(1 << k)
    return codes


def _rule_tables() -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Guo-Hall conditions over all 256 neighbour codes.

    Returns the codes of crossing number 1 (deleting the centre keeps local
    connectivity) and, per subiteration, the codes whose centre it deletes.
    """
    bits = (np.arange(256) >> np.arange(8)[:, None]) & 1
    n, ne, e, se, s, sw, w, nw = bits.astype(bool)
    crossing = (
        (~n & (ne | e)).astype(np.uint8)
        + (~e & (se | s)).astype(np.uint8)
        + (~s & (sw | w)).astype(np.uint8)
        + (~w & (nw | n)).astype(np.uint8)
    )
    simple = crossing == 1
    n1 = (nw | n).astype(np.uint8) + (ne | e).astype(np.uint8) \
        + (se | s).astype(np.uint8) + (sw | w).astype(np.uint8)
    n2 = (n | ne).astype(np.uint8) + (e | se).astype(np.uint8) \
        + (s | sw).astype(np.uint8) + (w | nw).astype(np.uint8)
    count = np.minimum(n1, n2)
    stubs = ((s | sw | ~nw) & w, (n | ne | ~se) & e)
    deletable = tuple(simple & (count >= 2) & (count <= 3) & ~stub for stub in stubs)
    return simple, deletable


_SIMPLE, _DELETABLE = _rule_tables()


def _thin_pass(a: np.ndarray) -> bool:
    """One two-subiteration parallel thinning pass; returns True if changed."""
    changed = False
    for table in _DELETABLE:
        removable = a & np.take(table, _codes(a))
        if removable.any():
            a[removable] = False
            changed = True
    return changed


def _break_blocks(a: np.ndarray) -> bool:
    """Sequentially delete simple pixels from 2x2 all-ones blocks.

    Each step takes the first block, in row-major order, that holds a pixel
    with crossing number 1 and deletes that block's first such pixel in
    top-left, top-right, bottom-left, bottom-right order.
    """
    changed = False
    while True:
        simple = a & np.take(_SIMPLE, _codes(a))
        full = a[:-1, :-1] & a[:-1, 1:] & a[1:, :-1] & a[1:, 1:]
        some = simple[:-1, :-1] | simple[:-1, 1:] | simple[1:, :-1] | simple[1:, 1:]
        qualifies = full & some
        if not qualifies.any():
            return changed
        by, bx = np.unravel_index(np.argmax(qualifies), qualifies.shape)
        for y, x in ((by, bx), (by, bx + 1), (by + 1, bx), (by + 1, bx + 1)):
            if simple[y, x]:
                a[y, x] = False
                break
        changed = True


def thin(edges: BitMap) -> BitMap:
    """Morphologically thin a binary edge map to (near) single-pixel width.

    Applies the Guo-Hall two-subiteration parallel rule (Guo & Hall, CACM
    1989) through a 256-entry neighbourhood table until a fixed point, then
    breaks any residual 2x2 all-ones block by deleting pixels of crossing
    number 1, and repeats until globally stable. The output is a subset of
    the input, preserves 8-connectivity, contains no 2x2 all-ones block, and
    is a fixed point of the procedure (so ``thin`` is idempotent).
    """
    a = edges.bits.copy()
    while True:
        while _thin_pass(a):
            pass
        # The passes just reached a fixed point, so an unbroken map is final.
        if not _break_blocks(a):
            return BitMap(a)


# ---------------------------------------------------------------------------
# Matching and accumulation
# ---------------------------------------------------------------------------

def edge_nodes(edges: BitMap) -> np.ndarray:
    """Set-pixel coordinates as an (n, 2) array of (row, col), row-major order."""
    return np.argwhere(edges.bits)


def match_instance(pred: BitMap, gt: BitMap, cfg: EvalConfig = EvalConfig()) -> MatchResult:
    """Optimally match predicted to ground-truth edge pixels.

    Candidate pairs are those with euclidean distance strictly below
    ``cfg.max_distance(H, W)``. Among all one-to-one assignments the result
    maximizes the number of matched pairs first and the total matched
    distance (minimized) second; both maps are expected to be thinned.
    """
    if pred.bits.shape != gt.bits.shape:
        raise ValueError(
            f"prediction shape {pred.bits.shape} != ground truth shape {gt.bits.shape}"
        )
    gt_xy = edge_nodes(gt)
    pred_xy = edge_nodes(pred)
    n_gt, n_pred = len(gt_xy), len(pred_xy)
    if n_gt == 0 or n_pred == 0:
        return MatchResult((), pred_total=n_pred, gt_total=n_gt)
    d = cfg.max_distance(*pred.bits.shape)
    diff = gt_xy[:, None, :].astype(np.float64) - pred_xy[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=2))
    candidate = dists < d
    if not candidate.any():
        return MatchResult((), pred_total=n_pred, gt_total=n_gt)
    # An unmatched-pair cost exceeding any feasible total distance makes the
    # assignment maximize cardinality before minimizing distance.
    big = (min(n_gt, n_pred) + 1.0) * max(d, 1.0)
    cost = np.where(candidate, dists, big)
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple(
        (int(g), int(p)) for g, p in zip(rows, cols) if candidate[g, p]
    )
    return MatchResult(pairs, pred_total=n_pred, gt_total=n_gt)


def image_pr(per_instance: Sequence[MatchResult]) -> tuple[float, float]:
    """Pool instance matches into one image's precision and recall.

    Conventions for empty sides: no predicted pixels gives precision 1, no
    ground-truth pixels gives recall 1.
    """
    matched = sum(r.matched for r in per_instance)
    pred_total = sum(r.pred_total for r in per_instance)
    gt_total = sum(r.gt_total for r in per_instance)
    precision = matched / pred_total if pred_total else 1.0
    recall = matched / gt_total if gt_total else 1.0
    return precision, recall


def fscore(precision: float, recall: float) -> float:
    """Harmonic F-measure; 0 when precision + recall is 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def bbox_iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def pair_instances(
    pred_instances: Sequence[PredictedInstance],
    gt_instances: Sequence[InstanceAnnotation],
) -> list[tuple[int, int]]:
    """Greedily pair predictions with ground-truth instances.

    Only same-category pairs with positive bbox IoU are eligible; pairs are
    taken in descending IoU order (ties broken by prediction then ground
    truth index), each side used at most once. Returns (pred index, gt index)
    pairs sorted by prediction index.
    """
    candidates = sorted(
        (-bbox_iou(pred.bbox, gt.bbox), i, j)
        for i, pred in enumerate(pred_instances)
        for j, gt in enumerate(gt_instances)
        if pred.category_id == gt.category_id
        and bbox_iou(pred.bbox, gt.bbox) > 0.0
    )
    used_pred: set[int] = set()
    used_gt: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, i, j in candidates:
        if i in used_pred or j in used_gt:
            continue
        used_pred.add(i)
        used_gt.add(j)
        pairs.append((i, j))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# Dataset evaluation
# ---------------------------------------------------------------------------

def binarize(graymap: GrayMap, threshold: float) -> BitMap:
    """Pixels with probability >= threshold; zero-probability pixels never fire."""
    return BitMap((graymap.values >= threshold) & (graymap.values > 0.0))


def _image_curves(
    image: ImageRecord,
    inst_maps: Mapping[int, GrayMap],
    extra_maps: Sequence[GrayMap],
    cfg: EvalConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-threshold precision, recall, and F arrays for one image."""
    gt_thin = [
        thin(rasterize_polyline(inst, image.height, image.width))
        for inst in image.instances
    ]
    thin_cache: dict[bytes, BitMap] = {}

    def thinned(bits: BitMap) -> BitMap:
        key = bits.bits.tobytes()
        if key not in thin_cache:
            thin_cache[key] = thin(bits)
        return thin_cache[key]

    empty_gt = BitMap(np.zeros((image.height, image.width), dtype=bool))
    precisions, recalls, fs = [], [], []
    for t in cfg.thresholds:
        results = []
        for inst, gt_map in zip(image.instances, gt_thin):
            pm = inst_maps.get(inst.instance_id)
            if pm is None:
                results.append(MatchResult((), pred_total=0, gt_total=gt_map.count()))
                continue
            results.append(match_instance(thinned(binarize(pm, t)), gt_map, cfg))
        for extra in extra_maps:
            results.append(match_instance(thinned(binarize(extra, t)), empty_gt, cfg))
        p, r = image_pr(results)
        precisions.append(p)
        recalls.append(r)
        fs.append(fscore(p, r))
    return np.array(precisions), np.array(recalls), np.array(fs)


def evaluate(
    predictions: Mapping[int, Mapping[int, GrayMap]],
    gts: Dataset,
    cfg: EvalConfig = EvalConfig(),
    *,
    unpaired: Mapping[int, Sequence[GrayMap]] | None = None,
    workers: int = 1,
) -> EvalSummary:
    """Score a dataset of per-instance edge-probability maps.

    ``predictions`` maps image_id -> instance_id -> probability map for
    predictions already paired to ground-truth instances (see
    :func:`pair_instances`); instances without a map are scored as empty.
    ``unpaired`` optionally carries leftover prediction maps per image, which
    count toward the prediction totals with zero matches.

    Per-image evaluations are independent and run on ``workers`` threads; the
    reduction is ordered by image id, so results do not depend on ``workers``.

    Raises:
        ValueError: a prediction references an unknown image or instance, or
            a map's dimensions disagree with its image.
    """
    if not gts.images:
        raise ValueError("dataset has no images")
    by_id = {image.image_id: image for image in gts.images}
    unpaired = unpaired or {}
    for image_id, inst_maps in predictions.items():
        if image_id not in by_id:
            raise ValueError(f"prediction for unknown image_id {image_id}")
        image = by_id[image_id]
        known = {inst.instance_id for inst in image.instances}
        for instance_id, graymap in inst_maps.items():
            if instance_id not in known:
                raise ValueError(
                    f"image {image_id}: prediction for unknown instance_id {instance_id}"
                )
            if (graymap.height, graymap.width) != (image.height, image.width):
                raise ValueError(
                    f"image {image_id}: prediction map is "
                    f"{graymap.height}x{graymap.width}, image is "
                    f"{image.height}x{image.width}"
                )
    for image_id, extras in unpaired.items():
        if image_id not in by_id:
            raise ValueError(f"unpaired prediction for unknown image_id {image_id}")
        image = by_id[image_id]
        for graymap in extras:
            if (graymap.height, graymap.width) != (image.height, image.width):
                raise ValueError(
                    f"image {image_id}: unpaired map dimensions disagree with image"
                )

    ordered = sorted(by_id)

    def run(image_id: int):
        return _image_curves(
            by_id[image_id],
            predictions.get(image_id, {}),
            unpaired.get(image_id, ()),
            cfg,
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_image = list(pool.map(run, ordered))
    else:
        per_image = [run(image_id) for image_id in ordered]

    p_stack = np.stack([p for p, _, _ in per_image])
    r_stack = np.stack([r for _, r, _ in per_image])
    f_stack = np.stack([f for _, _, f in per_image])
    mean_p = p_stack.mean(axis=0)
    mean_r = r_stack.mean(axis=0)
    mean_f = f_stack.mean(axis=0)
    curve = tuple(
        PRPoint(
            threshold=t,
            precision=float(mean_p[i]),
            recall=float(mean_r[i]),
            fscore=fscore(float(mean_p[i]), float(mean_r[i])),
        )
        for i, t in enumerate(cfg.thresholds)
    )
    return EvalSummary(
        curve=curve,
        ods=float(mean_f.max()),
        ois=float(f_stack.max(axis=1).mean()),
    )

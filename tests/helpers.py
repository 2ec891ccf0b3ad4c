"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: matching is
re-solved by exhaustive search, the forward kernels by naive loops, and the
evaluation curves by a from-scratch sweep. Tests compare library outputs
against these.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np
from scipy import ndimage
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from pointedge import (
    BitMap,
    Dataset,
    GrayMap,
    ImageRecord,
    InstanceAnnotation,
    Keypoint,
)

EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


# ---------------------------------------------------------------------------
# Geometry builders
# ---------------------------------------------------------------------------

def ring_of(*coords: tuple[float, float]) -> tuple[Keypoint, ...]:
    return tuple(Keypoint(float(x), float(y)) for x, y in coords)


def bbox_of(rings: tuple[tuple[Keypoint, ...], ...]) -> tuple[float, float, float, float]:
    xs = [kp.x for ring in rings for kp in ring]
    ys = [kp.y for ring in rings for kp in ring]
    return (
        min(xs),
        min(ys),
        max(max(xs) - min(xs), 1e-3),
        max(max(ys) - min(ys), 1e-3),
    )


def make_instance(
    *rings: tuple[tuple[float, float], ...],
    instance_id: int = 1,
    category_id: int = 0,
) -> InstanceAnnotation:
    built = tuple(ring_of(*ring) for ring in rings)
    return InstanceAnnotation(
        instance_id=instance_id,
        category_id=category_id,
        rings=built,
        bbox=bbox_of(built),
    )


def square_instance(
    x0: float, y0: float, side: float, instance_id: int = 1, category_id: int = 0
) -> InstanceAnnotation:
    return make_instance(
        ((x0, y0), (x0, y0 + side), (x0 + side, y0 + side), (x0 + side, y0)),
        instance_id=instance_id,
        category_id=category_id,
    )


def star_polygon(
    rng: np.random.Generator,
    cx: float,
    cy: float,
    r_lo: float,
    r_hi: float,
    n_points: int,
) -> tuple[tuple[float, float], ...]:
    """A random simple polygon around a center.

    Angles are evenly spaced with bounded jitter so that every angular gap
    stays below pi; each boundary chord then remains inside its angular
    wedge, which guarantees the ring cannot self-intersect.
    """
    spacing = 2.0 * math.pi / n_points
    angles = np.arange(n_points) * spacing + rng.uniform(
        -0.2 * spacing, 0.2 * spacing, size=n_points
    )
    radii = rng.uniform(r_lo, r_hi, size=n_points)
    return tuple(
        (cx + r * math.cos(a), cy + r * math.sin(a))
        for a, r in zip(angles, radii)
    )


def random_star_instance(
    rng: np.random.Generator,
    height: int,
    width: int,
    instance_id: int = 1,
    category_id: int = 0,
) -> InstanceAnnotation:
    cx = rng.uniform(width * 0.3, width * 0.7)
    cy = rng.uniform(height * 0.3, height * 0.7)
    r_hi = min(cx, cy, width - 1 - cx, height - 1 - cy)
    poly = star_polygon(rng, cx, cy, r_hi * 0.4, r_hi, int(rng.integers(3, 9)))
    return make_instance(poly, instance_id=instance_id, category_id=category_id)


def flat_ring_instance(
    x0: int, x1: int, y: int, instance_id: int, category_id: int = 0
) -> InstanceAnnotation:
    """A degenerate flat ring rasterizing to a single horizontal segment."""
    mid = (x0 + x1) / 2
    return make_instance(
        ((x0, y), (x1, y), (mid, y)),
        instance_id=instance_id,
        category_id=category_id,
    )


# ---------------------------------------------------------------------------
# Binary-map helpers
# ---------------------------------------------------------------------------

def bitmap_from_pixels(height: int, width: int, pixels) -> BitMap:
    bits = np.zeros((height, width), dtype=bool)
    for row, col in pixels:
        bits[row, col] = True
    return BitMap(bits)


def to_graymap(bitmap: BitMap) -> GrayMap:
    """Reinterpret set pixels as probability 1.0."""
    return GrayMap(bitmap.bits.astype(np.float64))


def component_count(bits: np.ndarray) -> int:
    _, count = ndimage.label(bits, structure=EIGHT_CONNECTED)
    return count


def random_blob(rng: np.random.Generator, height: int = 24, width: int = 24) -> BitMap:
    """Union of a few random rectangles and discs, possibly empty."""
    bits = np.zeros((height, width), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.5:
            y0 = int(rng.integers(0, height - 2))
            x0 = int(rng.integers(0, width - 2))
            y1 = int(rng.integers(y0 + 1, min(height, y0 + 10)))
            x1 = int(rng.integers(x0 + 1, min(width, x0 + 10)))
            bits[y0:y1, x0:x1] = True
        else:
            cy = rng.uniform(3, height - 3)
            cx = rng.uniform(3, width - 3)
            radius = rng.uniform(1.5, 5.0)
            yy, xx = np.mgrid[0:height, 0:width]
            bits |= (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2
    return BitMap(bits)


# ---------------------------------------------------------------------------
# Thinning oracle
# ---------------------------------------------------------------------------

def _full_frame_codes(a: np.ndarray) -> np.ndarray:
    """Each pixel's 8-bit neighbour code (N, NE, E, SE, S, SW, W, NW = bits 0-7)."""
    h, w = a.shape
    z = np.pad(a, 1).view(np.uint8)
    codes = np.zeros((h, w), dtype=np.uint8)
    offsets = ((0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0), (0, 0))
    for k, (dy, dx) in enumerate(offsets):
        codes += z[dy:dy + h, dx:dx + w] * np.uint8(1 << k)
    return codes


def reference_thin(bits: np.ndarray) -> np.ndarray:
    """Guo-Hall thinning recomputed over the whole frame at every step.

    Each subiteration rebuilds every neighbour code and looks the whole frame
    up in the library's rule tables; block breaking rescans the whole frame
    after every single deletion, taking the first qualifying 2x2 block in
    row-major order and its first simple pixel in TL, TR, BL, BR order. Only
    the 256-entry tables are shared with :func:`pointedge.thin`, so this
    checks the order and extent of its deletions, not the Guo-Hall rule.
    """
    from pointedge.metrics import _DELETABLE, _SIMPLE

    a = np.array(bits, dtype=bool)
    while True:
        changed = True
        while changed:
            changed = False
            for table in _DELETABLE:
                removable = a & table[_full_frame_codes(a)]
                if removable.any():
                    a[removable] = False
                    changed = True
        broke = False
        while True:
            simple = a & _SIMPLE[_full_frame_codes(a)]
            full = a[:-1, :-1] & a[:-1, 1:] & a[1:, :-1] & a[1:, 1:]
            some = simple[:-1, :-1] | simple[:-1, 1:] | simple[1:, :-1] | simple[1:, 1:]
            qualifies = full & some
            if not qualifies.any():
                break
            by, bx = np.unravel_index(np.argmax(qualifies), qualifies.shape)
            for y, x in ((by, bx), (by, bx + 1), (by + 1, bx), (by + 1, bx + 1)):
                if simple[y, x]:
                    a[y, x] = False
                    break
            broke = True
        if not broke:
            return a


# ---------------------------------------------------------------------------
# Raster oracles
# ---------------------------------------------------------------------------

def _oracle_pixel(kp: Keypoint, height: int, width: int) -> tuple[int, int]:
    # Round half up, then clip to the frame.
    px = min(width - 1, max(0, int(np.floor(kp.x + 0.5))))
    py = min(height - 1, max(0, int(np.floor(kp.y + 0.5))))
    return px, py


def polyline_oracle(inst: InstanceAnnotation, height: int, width: int) -> np.ndarray:
    """Every ring's closed Bresenham polyline, drawn into a full-frame bool grid."""
    bits = np.zeros((height, width), dtype=bool)
    for ring in inst.rings:
        pixels = [_oracle_pixel(kp, height, width) for kp in ring]
        for (x0, y0), (x1, y1) in zip(pixels, pixels[1:] + pixels[:1]):
            dx, dy = abs(x1 - x0), -abs(y1 - y0)
            sx, sy = (1 if x0 < x1 else -1), (1 if y0 < y1 else -1)
            err, x, y = dx + dy, x0, y0
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
    return bits


def tunnel_target_oracle(
    inst: InstanceAnnotation, height: int, width: int
) -> tuple[np.ndarray, int]:
    """The tunnel target built over the whole frame: ``(values, keypoint_count)``.

    The full-frame polyline is dilated by a 3x3 box through a zero-padded
    copy, every dilated pixel becomes 0.7 through ``np.where``, and every
    distinct keypoint pixel is then set to 1.0.
    """
    from pointedge import TUNNEL_VALUE

    keypoints = {_oracle_pixel(kp, height, width) for kp in inst.all_keypoints()}
    edges = polyline_oracle(inst, height, width)
    padded = np.pad(edges, 1)
    dilated = np.zeros_like(edges)
    for dy in range(3):
        for dx in range(3):
            dilated |= padded[dy:dy + height, dx:dx + width]
    values = np.where(dilated, TUNNEL_VALUE, 0.0)
    for px, py in keypoints:
        values[py, px] = 1.0
    return values, len(keypoints)


# ---------------------------------------------------------------------------
# Matching oracle
# ---------------------------------------------------------------------------

def brute_force_match(gt_nodes, pred_nodes, max_dist: float) -> tuple[int, float]:
    """Exhaustively best assignment: max cardinality, then min total distance.

    Nodes are (row, col) pairs; candidate pairs require euclidean distance
    strictly below ``max_dist``. Feasible only for small node sets. The
    search state keeps only the used pred nodes that a later gt node can
    still reach, since no other used node changes what is left to solve.
    """
    gt_nodes = [tuple(map(float, g)) for g in gt_nodes]
    pred_nodes = [tuple(map(float, p)) for p in pred_nodes]
    dist = [
        [math.dist(g, p) for p in pred_nodes]
        for g in gt_nodes
    ]
    reach = [0] * (len(gt_nodes) + 1)
    for i in reversed(range(len(gt_nodes))):
        near = sum(1 << j for j, dj in enumerate(dist[i]) if dj < max_dist)
        reach[i] = reach[i + 1] | near

    @lru_cache(maxsize=None)
    def solve(i: int, used: int) -> tuple[int, float]:
        if i == len(gt_nodes):
            return (0, 0.0)
        count, cost = solve(i + 1, used & reach[i + 1])
        best = (count, -cost)
        for j in range(len(pred_nodes)):
            if used >> j & 1 or dist[i][j] >= max_dist:
                continue
            sub_count, sub_cost = solve(i + 1, (used | 1 << j) & reach[i + 1])
            cand = (sub_count + 1, -(sub_cost + dist[i][j]))
            if cand > best:
                best = cand
        return (best[0], -best[1])

    result = solve(0, 0)
    solve.cache_clear()
    return result


def dense_match(gt_nodes, pred_nodes, max_dist: float) -> tuple[int, float]:
    """Best assignment from one dense ``n_gt x n_pred`` distance matrix.

    The full-matrix formulation: every pair's distance from ``cdist``,
    pairs at or beyond ``max_dist`` priced above any feasible total, one
    ``linear_sum_assignment`` over the whole matrix. Returns the matched
    count and total distance, as :func:`brute_force_match` does, but stays
    feasible for a few hundred nodes a side.
    """
    gt_nodes = np.asarray(gt_nodes, dtype=float).reshape(-1, 2)
    pred_nodes = np.asarray(pred_nodes, dtype=float).reshape(-1, 2)
    if len(gt_nodes) == 0 or len(pred_nodes) == 0:
        return (0, 0.0)
    dists = cdist(gt_nodes, pred_nodes)
    candidate = dists < max_dist
    big = (min(dists.shape) + 1.0) * max(max_dist, 1.0)
    rows, cols = linear_sum_assignment(np.where(candidate, dists, big))
    kept = candidate[rows, cols]
    return (int(kept.sum()), math.fsum(dists[rows[kept], cols[kept]]))


# ---------------------------------------------------------------------------
# Loss oracle
# ---------------------------------------------------------------------------

def focal_oracle(pred, target, cfg) -> tuple[float, np.ndarray]:
    """The penalty-reduced focal loss by its dense two-branch formula.

    Both branches, their gradients and the positive mask are evaluated over
    every pixel and selected with ``np.where``; returns ``(value, gradient)``.
    ``pred`` is a 2-D float array, ``target`` a ``TunnelTarget``.
    """
    from pointedge.losses import CLAMP_EPS

    p_raw = np.asarray(pred, dtype=np.float64)
    y = target.map.values
    n = target.keypoint_count
    clamped = (p_raw < CLAMP_EPS) | (p_raw > 1.0 - CLAMP_EPS)
    p = np.clip(p_raw, CLAMP_EPS, 1.0 - CLAMP_EPS)
    positive = y >= cfg.gamma
    log_p = np.log(p)
    log_1p = np.log1p(-p)
    pos_term = y * (1.0 - p) ** cfg.alpha * log_p
    neg_term = (1.0 - y) ** cfg.beta * p ** cfg.alpha * log_1p
    value = -float(np.where(positive, pos_term, neg_term).sum()) / n
    pos_grad = y * (
        (1.0 - p) ** cfg.alpha / p
        - cfg.alpha * (1.0 - p) ** (cfg.alpha - 1.0) * log_p
    )
    neg_grad = (1.0 - y) ** cfg.beta * (
        cfg.alpha * p ** (cfg.alpha - 1.0) * log_1p - p ** cfg.alpha / (1.0 - p)
    )
    gradient = -np.where(positive, pos_grad, neg_grad) / n
    gradient[clamped] = 0.0
    return value, gradient


# ---------------------------------------------------------------------------
# Kernel oracles
# ---------------------------------------------------------------------------

def attention_oracle(queries, keys, values):
    q = np.asarray(queries, dtype=np.float64)
    k = np.asarray(keys, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    n, d = q.shape
    m = k.shape[0]
    weights = np.zeros((n, m))
    for i in range(n):
        scores = [float(q[i] @ k[j]) / math.sqrt(d) for j in range(m)]
        top = max(scores)
        exps = [math.exp(s - top) for s in scores]
        total = sum(exps)
        for j in range(m):
            weights[i, j] = exps[j] / total
    output = np.zeros((n, v.shape[1]))
    for i in range(n):
        for j in range(m):
            output[i] += weights[i, j] * v[j]
    return output, weights


def dense_head_oracle(coef_rows, features):
    coef_rows = np.asarray(coef_rows, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    n = coef_rows.shape[0]
    _, h, w = features.shape
    out = np.zeros((n, h, w))
    for i in range(n):
        for y in range(h):
            for x in range(w):
                total = 0.0
                for c in range(coef_rows.shape[1]):
                    total += coef_rows[i, c] * features[c, y, x]
                out[i, y, x] = 1.0 / (1.0 + math.exp(-total))
    return out


# ---------------------------------------------------------------------------
# Evaluation sweep oracle
# ---------------------------------------------------------------------------

def eval_oracle(predictions, dataset: Dataset, thresholds, max_dist_fraction: float):
    """From-scratch ODS/OIS/curve; matching by exhaustive search.

    Reuses only rasterize_polyline and thin from the library (their contracts
    are tested separately); binarization, matching, accumulation, and the
    threshold sweep are all recomputed independently. Returns
    (ods, ois, curve) with curve rows (threshold, precision, recall, fscore).
    """
    from pointedge import rasterize_polyline, thin

    per_image_f: list[list[float]] = []
    per_image_p: list[list[float]] = []
    per_image_r: list[list[float]] = []
    for image in sorted(dataset.images, key=lambda im: im.image_id):
        d = math.hypot(image.height, image.width) * max_dist_fraction
        gt_nodes = {}
        for inst in image.instances:
            thin_gt = thin(rasterize_polyline(inst, image.height, image.width))
            gt_nodes[inst.instance_id] = [tuple(p) for p in np.argwhere(thin_gt.bits)]
        f_row, p_row, r_row = [], [], []
        for t in thresholds:
            matched = pred_total = gt_total = 0
            for inst in image.instances:
                graymap = predictions.get(image.image_id, {}).get(inst.instance_id)
                if graymap is None:
                    pred_nodes = []
                else:
                    bits = (graymap.values >= t) & (graymap.values > 0.0)
                    thin_pred = thin(BitMap(bits))
                    pred_nodes = [tuple(p) for p in np.argwhere(thin_pred.bits)]
                count, _ = brute_force_match(gt_nodes[inst.instance_id], pred_nodes, d)
                matched += count
                pred_total += len(pred_nodes)
                gt_total += len(gt_nodes[inst.instance_id])
            p = matched / pred_total if pred_total else 1.0
            r = matched / gt_total if gt_total else 1.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            p_row.append(p)
            r_row.append(r)
            f_row.append(f)
        per_image_p.append(p_row)
        per_image_r.append(r_row)
        per_image_f.append(f_row)

    f_arr = np.array(per_image_f)
    mean_p = np.array(per_image_p).mean(axis=0)
    mean_r = np.array(per_image_r).mean(axis=0)
    ods = float(f_arr.mean(axis=0).max())
    ois = float(f_arr.max(axis=1).mean())
    curve = []
    for i, t in enumerate(thresholds):
        p, r = float(mean_p[i]), float(mean_r[i])
        curve.append((t, p, r, 2 * p * r / (p + r) if p + r else 0.0))
    return ods, ois, curve


# ---------------------------------------------------------------------------
# Dataset fixtures
# ---------------------------------------------------------------------------

def serialize_dataset(dataset: Dataset) -> str:
    """Write a :class:`Dataset` back out as an annotation document.

    ``parse_dataset(serialize_dataset(ds))`` is the identity on valid datasets.
    """
    doc = {
        "images": [
            {"id": im.image_id, "height": im.height, "width": im.width}
            for im in dataset.images
        ],
        "annotations": [
            {
                "id": inst.instance_id,
                "image_id": im.image_id,
                "category_id": inst.category_id,
                "bbox": list(inst.bbox),
                "segmentation": [
                    [coord for kp in ring for coord in (kp.x, kp.y)]
                    for ring in inst.rings
                ],
            }
            for im in dataset.images
            for inst in im.instances
        ],
        "categories": [
            {"id": cid, "name": dataset.categories[cid]}
            for cid in sorted(dataset.categories)
        ],
    }
    return json.dumps(doc, indent=1)


def two_image_fixture() -> tuple[Dataset, dict[int, dict[int, GrayMap]]]:
    """Two images whose per-image optimal thresholds differ, forcing OIS > ODS.

    Each image holds one 6-pixel horizontal gt segment. Image 1's prediction
    marks the segment at 0.31 plus two decoy pixels at 0.26 (best at
    threshold 0.30); image 2 uses 0.81 and 0.76 (best at 0.80). No single
    shared threshold is optimal for both.
    """
    inst_a = flat_ring_instance(2, 7, 3, instance_id=1)
    inst_b = flat_ring_instance(2, 7, 3, instance_id=2)
    images = (
        ImageRecord(image_id=1, height=16, width=16, instances=(inst_a,)),
        ImageRecord(image_id=2, height=16, width=16, instances=(inst_b,)),
    )
    dataset = Dataset(images=images, categories={0: "thing"})

    def pred_map(edge_level: float, decoy_level: float) -> GrayMap:
        values = np.zeros((16, 16))
        values[3, 2:8] = edge_level
        values[10, 2:4] = decoy_level
        return GrayMap(values)

    predictions = {
        1: {1: pred_map(0.31, 0.26)},
        2: {2: pred_map(0.81, 0.76)},
    }
    return dataset, predictions


def random_dataset(
    rng: np.random.Generator, n_images: int = 3, size: int = 16
) -> tuple[Dataset, dict[int, dict[int, GrayMap]]]:
    """A random tiny dataset with noisy predictions derived from the gt."""
    from pointedge import rasterize_polyline

    images = []
    predictions: dict[int, dict[int, GrayMap]] = {}
    for image_id in range(1, n_images + 1):
        instances = []
        predictions[image_id] = {}
        for instance_id in range(1, int(rng.integers(1, 4)) + 1):
            inst = random_star_instance(
                rng, size, size, instance_id=instance_id
            )
            instances.append(inst)
            edges = rasterize_polyline(inst, size, size).bits
            values = np.where(edges, rng.uniform(0.3, 1.0, edges.shape), 0.0)
            # Sprinkle false positives at random levels.
            noise = rng.random(edges.shape) < 0.03
            values = np.where(noise & ~edges, rng.uniform(0.1, 0.9, edges.shape), values)
            if rng.random() < 0.2:
                values[:] = 0.0
            predictions[image_id][instance_id] = GrayMap(values)
        images.append(
            ImageRecord(
                image_id=image_id,
                height=size,
                width=size,
                instances=tuple(instances),
            )
        )
    return Dataset(images=tuple(images), categories={0: "thing"}), predictions


# ---------------------------------------------------------------------------
# Call counting
# ---------------------------------------------------------------------------

def count_calls(monkeypatch, module, *names: str) -> dict[str, list[tuple]]:
    """Record every call of the named functions of ``module``.

    Each name is replaced, through ``monkeypatch``, by a wrapper that appends
    the call's positional arguments to the returned list for that name and
    then calls the real function. ``monkeypatch.undo()`` or the test's end
    restores the originals.
    """
    calls: dict[str, list[tuple]] = {}
    for name in names:
        real, log = getattr(module, name), calls.setdefault(name, [])

        def recording(*args, _real=real, _log=log, **kwargs):
            _log.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    return calls

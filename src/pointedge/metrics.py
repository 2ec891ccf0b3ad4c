"""Instance edge evaluation: thinning, matching, and ODS/OIS scoring.

The pipeline binarizes per-instance probability maps over a threshold sweep,
thins each binary map to (near) pixel width, counts a maximum distance-gated
one-to-one matching between predicted and ground-truth edge pixels, and
accumulates per-image precision/recall into ODS (best mean F at a single
shared threshold) and OIS (mean of each image's best F).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .annotations import Dataset, ImageRecord
from .raster import BitMap, GrayMap, rasterize_polyline

__all__ = [
    "EvalConfig",
    "MatchResult",
    "PRPoint",
    "EvalSummary",
    "binarize",
    "thin",
    "edge_nodes",
    "match_instance",
    "image_pr",
    "fscore",
    "evaluate",
]

# The binarization sweep: 20 evenly spaced values in [0, 1), ascending.
THRESHOLDS = tuple(k / 20 for k in range(20))


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings.

    ``max_dist_fraction`` scales the image diagonal into the maximum
    node-matching distance ``d = sqrt(H^2 + W^2) * fraction``; 0.0075 is the
    long-standing boundary-benchmark convention.
    """

    max_dist_fraction: float = 0.0075

    def __post_init__(self) -> None:
        if not (0.0 < self.max_dist_fraction < 1.0):
            raise ValueError("max_dist_fraction must be in (0, 1)")

    def max_distance(self, height: int, width: int) -> float:
        return math.hypot(height, width) * self.max_dist_fraction


@dataclass(frozen=True)
class MatchResult:
    """One instance's pixel-matching outcome, as the matcher returns it.

    ``mates`` gives each gt node's matched pred node, or -1, with nodes in
    the row-major order of :func:`edge_nodes`; the counts and pairs are
    derived from it when read. From :func:`match_instance` it is *a* maximum
    matching: which pairs are chosen among ties is unspecified, and only the
    counts enter a score.
    """

    mates: tuple[int, ...]
    pred_total: int

    def __post_init__(self) -> None:
        # C-level passes: a numpy check costs more at a few hundred nodes.
        mated = set(self.mates) - {-1}
        if mated and not (0 <= min(mated) and max(mated) < self.pred_total):
            raise ValueError("mate names a node outside the prediction")
        if len(mated) != self.matched:
            raise ValueError("a pred node is mated twice")

    @property
    def gt_total(self) -> int:
        return len(self.mates)

    @property
    def matched(self) -> int:
        return self.gt_total - self.mates.count(-1)

    @property
    def matched_pairs(self) -> tuple[tuple[int, int], ...]:
        """The (gt node, pred node) pairs, sorted by gt node."""
        return tuple((g, p) for g, p in enumerate(self.mates) if p != -1)


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


# ---------------------------------------------------------------------------
# Thinning
# ---------------------------------------------------------------------------

def _codes(a: np.ndarray) -> np.ndarray:
    """Each pixel's 8-bit neighbour code; outside the grid counts as unset.

    Bit k is the k-th neighbour in the order N, NE, E, SE, S, SW, W, NW,
    with north meaning row - 1; the offsets index a zero-bordered copy.
    """
    h, w = a.shape
    z = np.zeros((h + 2, w + 2), dtype=np.uint8)
    z[1:-1, 1:-1] = a
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

# The bit a neighbour in direction k loses from its own code when the centre
# is unset: the centre lies in direction k + 4 (mod 8) from it.
_OPPOSITE_BITS = np.array([1 << ((k + 4) % 8) for k in range(8)], dtype=np.uint8)


def _neighbour_offsets(stride: int) -> np.ndarray:
    """Flat offsets of the eight neighbours, in code-bit order, for a row stride."""
    return np.array(
        [-stride, 1 - stride, 1, stride + 1, stride, stride - 1, -1, -stride - 1],
        dtype=np.intp,
    )


_Marks = tuple[np.ndarray, np.ndarray]


def _unset(
    a: np.ndarray, codes: np.ndarray, marks: _Marks, offsets: np.ndarray, gone: np.ndarray
) -> None:
    """Unset the flat pixels ``gone``; update their neighbours' codes and marks.

    A neighbour shared by several deleted pixels loses one bit for each of
    them, which ``np.subtract.at`` applies in full.
    """
    a[gone] = False
    near = (gone[:, None] + offsets).ravel()
    np.subtract.at(codes, near, np.broadcast_to(_OPPOSITE_BITS, (len(gone), 8)).ravel())
    for mark in marks:
        mark[near] = True


def _passes(a: np.ndarray, codes: np.ndarray, marks: _Marks, offsets: np.ndarray) -> None:
    """Parallel Guo-Hall subiterations, each over the pixels marked for its table.

    A subiteration reads every marked code before it deletes anything, clears
    its table's marks, and marks the neighbours of what it deleted for both
    tables. Two subiterations in a row that delete nothing are a full pass
    that changes nothing, the fixed point.
    """
    k, idle = 0, 0
    while idle < 2:
        candidates = np.flatnonzero(marks[k])
        marks[k][candidates] = False
        gone = candidates[a[candidates] & _DELETABLE[k][codes[candidates]]]
        del candidates  # before _unset: the first work-list is every set pixel
        if gone.size:
            _unset(a, codes, marks, offsets, gone)
            idle = 0
        else:
            idle += 1
        k = 1 - k


def _full_blocks(a: np.ndarray) -> np.ndarray:
    """Top-left corners of 2x2 all-ones blocks."""
    return a[:-1, :-1] & a[:-1, 1:] & a[1:, :-1] & a[1:, 1:]


def _qualifying_blocks(full: np.ndarray, simple: np.ndarray) -> np.ndarray:
    """The blocks of ``full`` that hold a simple pixel."""
    return full & (simple[:-1, :-1] | simple[:-1, 1:] | simple[1:, :-1] | simple[1:, 1:])


def _break_blocks(a: np.ndarray, codes: np.ndarray, marks: _Marks, offsets: np.ndarray) -> bool:
    """Sequentially delete simple pixels from 2x2 all-ones blocks.

    Each step takes the first qualifying block in row-major order and deletes
    its first simple pixel in top-left, top-right, bottom-left, bottom-right
    order. A deletion changes the simple mask only in the pixel's 3x3 window
    and the block mask only for blocks with top-left in rows ``y-2..y+1`` and
    columns ``x-2..x+1``, so only those are recomputed, and the next block is
    searched from the earlier of that window and the block just broken.
    Returns True if anything was deleted.
    """
    full = _full_blocks(a)
    if not full.any():
        return False
    simple = a & np.take(_SIMPLE, codes)
    blocks = _qualifying_blocks(full, simple)
    flat_blocks, width = blocks.ravel(), blocks.shape[1]
    first = int(np.argmax(flat_blocks))
    broke = False
    while flat_blocks[first]:
        by, bx = divmod(first, width)
        for y, x in ((by, bx), (by, bx + 1), (by + 1, bx), (by + 1, bx + 1)):
            if simple[y, x]:
                break
        _unset(a.ravel(), codes.ravel(), marks, offsets, np.array([y * a.shape[1] + x]))
        window = (slice(y - 1, y + 2), slice(x - 1, x + 2))
        simple[window] = a[window] & _SIMPLE[codes[window]]
        y0, x0 = max(y - 2, 0), max(x - 2, 0)
        near = (slice(y0, y + 3), slice(x0, x + 3))
        blocks[y0:y + 2, x0:x + 2] = _qualifying_blocks(_full_blocks(a[near]), simple[near])
        start = min(first, y0 * width + x0)
        first = start + int(np.argmax(flat_blocks[start:]))
        broke = True
    return broke


def _owned(bits: np.ndarray) -> BitMap:
    """Hand a freshly built bool array to a :class:`BitMap` without a copy."""
    bits.flags.writeable = False
    return BitMap(bits)


def thin(edges: BitMap) -> BitMap:
    """Morphologically thin a binary edge map to (near) single-pixel width.

    Applies the Guo-Hall two-subiteration parallel rule (Guo & Hall, CACM
    1989) through a 256-entry neighbourhood table until a fixed point, then
    breaks any residual 2x2 all-ones block by deleting pixels of crossing
    number 1, and repeats until globally stable. The output is a subset of
    the input, preserves 8-connectivity, contains no 2x2 all-ones block, and
    is a fixed point of the procedure (so ``thin`` is idempotent).

    Each step costs in proportion to what changed, not to the frame. The
    map is copied once into a zero-bordered grid and its neighbour codes
    are built once, then kept up to date: unsetting a pixel clears the
    matching bit in each neighbour's code. Each subiteration table has a
    work-list mask, at first every set pixel; a subiteration looks up only
    the pixels marked for its table and clears those marks, and every
    deletion marks its eight neighbours for both tables, since no other
    pixel's code has changed. Block breaking recomputes the simple and
    block masks only around each deletion. The deletions, and so the
    output, are exactly those of recomputing every code over the whole
    frame at every step.

    Only the bounding box of the set pixels is thinned: outside it every
    pixel is unset, which the zero border around the box reproduces, and
    row-major order within the box is row-major order in the frame.

    A box whose every pixel is set is a solid h x w rectangle, as every
    never-zero map gives at threshold 0. One pass (table 0, then table 1)
    turns a solid H x W rectangle with H, W >= 3 into exactly its interior,
    and each table deletes something: a pixel's fate in one pass depends
    only on its 5x5 neighbourhood, so the sizes up to 13 x 13 that the
    tests check cover every rectangle. So ``thin`` skips the first
    (min(h, w) - 1) // 2 passes, which peel one ring each, and thins only
    the 1- or 2-pixel-thick core they leave: the output is the same.
    """
    out = np.zeros_like(edges.bits)
    rows = np.flatnonzero(edges.bits.any(axis=1))
    if not rows.size:
        return _owned(out)
    cols = np.flatnonzero(edges.bits.any(axis=0))
    top, bottom, left, right = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
    if edges.bits[top:bottom, left:right].all():
        k = (min(bottom - top, right - left) - 1) // 2
        top, bottom, left, right = top + k, bottom - k, left + k, right - k
    box = (slice(top, bottom), slice(left, right))
    # A zero border: every neighbour of a set pixel is in the grid.
    a = np.zeros((bottom - top + 2, right - left + 2), dtype=bool)
    a[1:-1, 1:-1] = edges.bits[box]
    codes = _codes(a)
    offsets = _neighbour_offsets(a.shape[1])
    marks = (a.ravel().copy(), a.ravel().copy())
    while True:
        _passes(a.ravel(), codes.ravel(), marks, offsets)
        # The passes just reached a fixed point, so an unbroken map is final.
        if not _break_blocks(a, codes, marks, offsets):
            out[box] = a[1:-1, 1:-1]
            return _owned(out)


# ---------------------------------------------------------------------------
# Matching and accumulation
# ---------------------------------------------------------------------------

def edge_nodes(edges: BitMap) -> np.ndarray:
    """Set-pixel coordinates as an (n, 2) array of (row, col), row-major order."""
    return np.stack(np.divmod(edges.flat, edges.width), axis=1)


def _candidates(
    gt_flat: np.ndarray, pred_flat: np.ndarray, shape: tuple[int, int], d: float
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate graph as CSR ``(indptr, indices)``: row i lists, in
    ascending order, the pred nodes strictly closer than ``d`` to gt node i.

    ``gt_flat`` and ``pred_flat`` hold the two maps' sorted flat pixel
    indices in a frame of ``shape``; the gt rows and columns are derived
    from ``gt_flat`` on each call. For each row offset ``dy``, ``reach`` is
    the largest ``dx`` that passes the float64 test
    ``np.sqrt(dy*dy + dx*dx) < d``, so pairs at exactly ``d`` never match.
    Within one row a gt node's candidates are one contiguous run of
    ``pred_flat``, found by two binary searches; rows outside the frame give
    empty runs. Memory is O(gt nodes x rows within ``d`` + candidate pairs).
    """
    height, width = shape
    # No row offset reaches past the frame, and every dy < d keeps dx = 0.
    dy = np.arange(min(math.ceil(d), height))
    # Start one past the float estimate; step back until the exact test holds.
    dx = np.floor(np.sqrt(d * d - dy * dy)).astype(np.intp) + 1
    while (outside := np.sqrt(dy * dy + dx * dx) >= d).any():
        dx -= outside
    rows = np.concatenate((-dy[:0:-1], dy))
    reach = np.concatenate((dx[:0:-1], dx))
    gy, gx = np.divmod(gt_flat[:, None], width)
    base = (gy + rows) * width
    start = np.searchsorted(pred_flat, base + np.maximum(gx - reach, 0)).ravel()
    stop = np.searchsorted(pred_flat, base + np.minimum(gx + reach, width - 1) + 1).ravel()
    count = stop - start
    ends = np.cumsum(count)  # runs ordered by gt node, then by image row
    indptr = np.zeros(len(gt_flat) + 1, dtype=np.int32)
    indptr[1:] = ends[len(rows) - 1::len(rows)]
    indices = np.arange(ends[-1]) + np.repeat(start - (ends - count), count)
    return indptr, indices.astype(np.int32)


def _maximum_matching(
    indptr: np.ndarray, indices: np.ndarray, n_pred: int
) -> list[int]:
    """A maximum one-to-one matching of the CSR candidate graph: the pred
    node each gt node is matched to, or -1.

    A greedy pass first gives each gt node with candidates, in index order,
    its first free candidate. Breadth-first augmenting paths then grow from
    each free pred node with candidates, over the transposed graph; once
    every such root has been searched, no augmenting path is left, so the
    matching is maximum (Berge). A search that reaches no free gt node has
    grown a Hungarian tree, whose gt nodes lie on no later augmenting path:
    they are marked dead and never entered again, so failed searches cost
    O(E) in all. Each successful search costs at most O(E), so the worst
    case is about V x E, where each node's degree is bounded by the pixels
    in a disc of radius ``d``. The search runs from the pred side because
    greedy leaves far fewer free pred nodes than gt nodes: over one eval of
    the eval-noisy benchmark, 52 pred roots against 6013 free gt nodes with
    candidates.
    """
    n_gt = len(indptr) - 1
    bounds, adjacent = indptr.tolist(), indices.tolist()
    gt_mate, pred_mate = [-1] * n_gt, [-1] * n_pred
    for g in np.flatnonzero(np.diff(indptr)).tolist():  # gt nodes with candidates
        for p in adjacent[bounds[g]:bounds[g + 1]]:
            if pred_mate[p] < 0:
                pred_mate[p], gt_mate[g] = g, p
                break
    degree = np.bincount(indices, minlength=n_pred)
    if np.count_nonzero(degree) == n_gt - gt_mate.count(-1):
        return gt_mate  # every pred node with a candidate is matched
    roots = np.flatnonzero((np.array(pred_mate) < 0) & (degree > 0)).tolist()
    # The transposed graph: each pred node's gt candidates, ascending.
    t_bounds = np.concatenate(([0], np.cumsum(degree))).tolist()
    t_adjacent = np.repeat(np.arange(n_gt), np.diff(indptr))[
        np.argsort(indices, kind="stable")
    ].tolist()
    dead = [False] * n_gt
    seen = [-1] * n_gt  # the root whose search last reached a gt node
    via = [0] * n_gt  # the pred node it was reached from
    for root in roots:
        queue, reached, free = [root], [], -1
        for p in queue:  # the queue grows as the search runs
            for g in t_adjacent[t_bounds[p]:t_bounds[p + 1]]:
                if dead[g] or seen[g] == root:
                    continue
                seen[g], via[g] = root, p
                reached.append(g)
                if gt_mate[g] < 0:
                    free = g
                    break
                queue.append(gt_mate[g])
            if free >= 0:
                break
        if free < 0:
            for g in reached:
                dead[g] = True
            continue
        g = free
        while True:  # flip the path back to the root
            p = via[g]
            g_next = pred_mate[p]
            pred_mate[p], gt_mate[g] = g, p
            if p == root:
                break
            g = g_next
    return gt_mate


def match_instance(pred: BitMap, gt: BitMap, cfg: EvalConfig = EvalConfig()) -> MatchResult:
    """Match predicted to ground-truth edge pixels, as many as possible.

    Candidate pairs are those with euclidean distance strictly below
    ``cfg.max_distance(H, W)``; both maps are expected to be thinned. The
    result is *a* maximum one-to-one matching of the candidate pairs, from a
    greedy pass and breadth-first augmenting paths (see
    :func:`_maximum_matching`): its count is fixed, but which pairs are
    chosen among ties is unspecified, and distances are never weighed.

    Both maps are read through their :attr:`~pointedge.BitMap.flat`
    indices, which a map computes once, so a ground truth matched against
    many predictions has its flat indices taken once; the gt rows and
    columns are derived from them on each call. Candidates come from binary
    searches of the prediction's flat indices, one per gt node and image row
    within reach (see :func:`_candidates`), so memory never grows as
    ``n_gt x n_pred``.
    """
    shape = pred.bits.shape
    if shape != gt.bits.shape:
        raise ValueError(f"prediction shape {shape} != ground truth shape {gt.bits.shape}")
    n_gt, n_pred = len(gt.flat), len(pred.flat)
    if n_gt == 0 or n_pred == 0:
        return MatchResult((-1,) * n_gt, pred_total=n_pred)
    indptr, indices = _candidates(gt.flat, pred.flat, shape, cfg.max_distance(*shape))
    return MatchResult(tuple(_maximum_matching(indptr, indices, n_pred)), pred_total=n_pred)


def image_pr(counts: np.ndarray) -> tuple[float, float]:
    """Pool count rows into one image's precision and recall.

    ``counts`` holds one (matched, predicted, GT) node-count row per
    instance, as an ``(n, 3)`` array; any leading shape is flattened into
    rows. Conventions for empty sides: no predicted pixels gives precision
    1, no ground-truth pixels gives recall 1.
    """
    matched, pred_total, gt_total = np.asarray(counts).reshape(-1, 3).sum(axis=0).tolist()
    precision = matched / pred_total if pred_total else 1.0
    recall = matched / gt_total if gt_total else 1.0
    return precision, recall


def fscore(precision: float, recall: float) -> float:
    """Harmonic F-measure; 0 when precision + recall is 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Dataset evaluation
# ---------------------------------------------------------------------------

# The level a float map's values are cut at for thresholds at or below 0:
# ``values >= _SMALLEST_POSITIVE`` is exactly ``values > 0``.
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

    This takes one comparison of the map's levels, its float values or its
    integer samples, with the level :func:`_cut` finds for the threshold.
    For a map of samples, as :func:`pointedge.read_graymap` gives, the
    float values are never computed, and the result is exactly that of
    comparing them: above 0, ``values >= threshold`` already implies
    ``values > 0``, and at or below 0 only ``values > 0`` decides.
    """
    return _owned(graymap.levels >= _cut(graymap, threshold))


def _slot_counts(graymap: GrayMap | None, gt: BitMap, cfg: EvalConfig) -> np.ndarray:
    """One instance slot's (matched, predicted, GT) node counts, one row per
    threshold of :data:`THRESHOLDS`.

    A map's binarized maps shrink as the threshold rises, so two thresholds
    give the same one exactly when as many pixels fire at both. Those firing
    counts are taken first; the sweep then walks the ascending thresholds
    and binarizes, thins and matches only where the count changes. The
    counts compare the map's levels with the same cut levels
    :func:`binarize` uses (see :func:`_cut`), first keeping the levels that
    fire at the lowest threshold, so a map of PGM samples is never turned
    into floats. Where nothing fires, as everywhere for a missing map, the
    row is (0, 0, GT nodes) and nothing is called. Every other distinct map
    is thinned by :func:`thin`, the whole frame included (see there for how
    it thins a solid rectangle), and matched against the one thinned ``gt``
    map, whose flat indices are computed on the first read; the thinned
    prediction is kept only for its match. A row needs
    only how many nodes match, which is the size of the maximum matching
    :func:`match_instance` returns, whichever pairs it chose.
    """
    counts = np.tile([0, 0, len(gt.flat)], (len(THRESHOLDS), 1))
    if graymap is None:
        return counts
    cuts = [_cut(graymap, t) for t in THRESHOLDS]
    levels = graymap.levels
    fires = levels[levels >= cuts[0]]  # the cuts ascend with the thresholds
    fired = [np.count_nonzero(fires >= cut) for cut in cuts]
    del fires
    previous = None
    for i, (t, n) in enumerate(zip(THRESHOLDS, fired)):
        if n == 0:
            break
        if n != previous:
            result = match_instance(thin(binarize(graymap, t)), gt, cfg)
            row = (result.matched, result.pred_total, result.gt_total)
            previous = n
        counts[i] = row
    return counts


def _image_counts(
    image: ImageRecord,
    inst_maps: Mapping[int, GrayMap],
    cfg: EvalConfig,
) -> np.ndarray:
    """One image's counts, shaped (instance slots, thresholds, 3).

    The slots are scored one at a time, in instance order. A slot's map is
    looked up, and its size checked, when the slot starts, and released
    when the slot ends, as is its thinned ground truth. That is rasterized
    and thinned once, and the one map goes to every match of the slot, so
    its flat indices are taken once (see :attr:`~pointedge.BitMap.flat`).
    """
    shape = (image.height, image.width)
    counts = np.empty((len(image.instances), len(THRESHOLDS), 3), dtype=np.intp)
    for slot, inst in enumerate(image.instances):
        graymap = inst_maps.get(inst.instance_id)
        if graymap is not None and graymap.levels.shape != shape:
            raise ValueError(
                f"image {image.image_id}: prediction for instance {inst.instance_id} is "
                f"{graymap.height}x{graymap.width}, image is {image.height}x{image.width}"
            )
        try:
            gt = thin(rasterize_polyline(inst, *shape))
            counts[slot] = _slot_counts(graymap, gt, cfg)
        except (ValueError, MemoryError) as exc:  # an image too large to allocate
            raise ValueError(
                f"image {image.image_id} ({image.height}x{image.width}): {exc}"
            ) from exc
        del graymap, gt  # before the next slot's map is looked up and its gt drawn
    return counts


def evaluate(
    predictions: Mapping[int, Mapping[int, GrayMap]],
    gts: Dataset,
    cfg: EvalConfig = EvalConfig(),
) -> EvalSummary:
    """Score a dataset of per-instance edge-probability maps.

    ``predictions`` maps image_id -> instance_id -> probability map, each
    map scored against the ground-truth instance of that id; an instance
    without a map predicts nothing.

    Ids are checked from the mapping keys before any map is looked up. The
    images are then scored one at a time in image-id order, and within an
    image one instance slot at a time (see :func:`_image_counts`): each map
    is looked up once, when its slot is scored, and released when the slot
    is done, so one map is in use at a time.

    Raises:
        ValueError: a prediction references an unknown image or instance, a
            map's dimensions disagree with its image, or an image is too
            large to allocate (the last two found when that image is scored).
    """
    if not gts.images:
        raise ValueError("dataset has no images")
    by_id = {image.image_id: image for image in gts.images}
    for image_id in predictions:
        if image_id not in by_id:
            raise ValueError(f"prediction for unknown image {image_id}")
    for image_id, inst_maps in predictions.items():
        known = {inst.instance_id for inst in by_id[image_id].instances}
        for instance_id in inst_maps:
            if instance_id not in known:
                raise ValueError(
                    f"image {image_id}: prediction for unknown instance_id {instance_id}"
                )
    # Precision, recall and F of each image at each threshold.
    per_image = np.empty((len(by_id), len(THRESHOLDS), 3))
    for row, image_id in enumerate(sorted(by_id)):
        counts = _image_counts(by_id[image_id], predictions.get(image_id, {}), cfg)
        for i in range(len(THRESHOLDS)):
            precision, recall = image_pr(counts[:, i])
            per_image[row, i] = precision, recall, fscore(precision, recall)
    mean_p, mean_r, mean_f = per_image.mean(axis=0).T
    curve = tuple(
        PRPoint(
            threshold=t,
            precision=float(mean_p[i]),
            recall=float(mean_r[i]),
            fscore=fscore(float(mean_p[i]), float(mean_r[i])),
        )
        for i, t in enumerate(THRESHOLDS)
    )
    return EvalSummary(
        curve=curve,
        ods=float(mean_f.max()),
        ois=float(per_image[:, :, 2].max(axis=1).mean()),
    )

"""Tests for thinning, matching, accumulation, and ODS/OIS."""

import gc
import hashlib
import math
import tracemalloc
import warnings
import weakref
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointedge.metrics
from pointedge import (
    BitMap,
    EvalConfig,
    GrayMap,
    MatchResult,
    binarize,
    build_tunnel_target,
    edge_nodes,
    evaluate,
    fscore,
    image_pr,
    match_instance,
    rasterize_polyline,
    read_graymap,
    thin,
    write_graymap,
)
from pointedge.metrics import _DELETABLE, THRESHOLDS
from pointedge.raster import _cut, _firing_counts

from helpers import (
    _full_frame_codes,
    bitmap_from_pixels,
    brute_force_match,
    component_count,
    count_calls,
    dense_match,
    eval_oracle,
    flat_ring_instance,
    random_blob,
    random_dataset,
    reference_thin,
    to_graymap,
    two_image_fixture,
)
from pointedge import Dataset, ImageRecord


def has_2x2_block(bits: np.ndarray) -> bool:
    return bool((bits[:-1, :-1] & bits[:-1, 1:] & bits[1:, :-1] & bits[1:, 1:]).any())


def pinned_thin_inputs() -> dict[str, np.ndarray]:
    """Seeded maps for the pinned thinning digests.

    The dense speckle fields leave 2x2 blocks after the parallel passes, so
    their digests depend on the order in which blocks are broken.
    """
    rng = np.random.default_rng(2205)
    maps = {f"speckle{d}": rng.random((48, 64)) < d for d in (0.3, 0.5, 0.7)}
    for k in range(4):
        maps[f"blob{k}"] = random_blob(rng).bits
    maps["row"] = rng.random((1, 23)) < 0.6
    maps["col"] = rng.random((23, 1)) < 0.6
    maps["full"] = np.ones((9, 13), dtype=bool)
    return maps


# SHA-256 of packbits(thin(map)) followed by repr(shape), one per input above.
PINNED_THIN_DIGESTS = {
    "speckle0.3": "3de5a551f345763cb1c71685387a7ba52556dfc30d8ef5a0bedac4e0ecd44339",
    "speckle0.5": "6d92fbc1018f1ab6d34d91af77a671462445b1838c3c0445021206004de22747",
    "speckle0.7": "f44a179e3b13f7e3436e368ac55f9812b77fa8801f77cb2942edb1bfae1a6df7",
    "blob0": "309409caa4be96bfe28338ed50ed2849cdecb91a623e55e76bf92dc1b8da895c",
    "blob1": "78e52150ef4e6a9e7e95d573198f524e8cad23d5a1fc48e5b4ab51f417e2419d",
    "blob2": "24fbdfadebb98af78615e746fa68d6d1cb4824a8fd5181735cc2f2642d55886a",
    "blob3": "7e942768e9fb61f3bba86bd1b4a23937badf0bbd81109181720e41dd551620ae",
    "row": "2f1e666b4c14abf0f5638369dff3b25a4efc334e209840f9e111dbaed0e6f521",
    "col": "b16742d9a4026fed1f726fa2008071f4b283e1f143b549e49ebb747ea851206f",
    "full": "ef4243652ec2dcd3d092e2f72a6b5a20b670af8b8548b53d4d187cdd9610c099",
}


@st.composite
def bool_maps(draw) -> np.ndarray:
    """Maps from 1x1 to 32x32 at any density, full and empty included."""
    shape = (draw(st.integers(1, 32)), draw(st.integers(1, 32)))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(shape) < density


def assert_flat_is_its_set_pixels(edges: BitMap) -> None:
    """``edges.flat`` is the sorted, read-only ``np.flatnonzero(edges.bits)``."""
    assert not edges.flat.flags.writeable
    assert edges.flat.dtype == np.intp
    assert np.array_equal(edges.flat, np.flatnonzero(edges.bits))


def assert_thin_matches_reference(bits: np.ndarray) -> None:
    before = bits.copy()
    thinned = thin(BitMap(bits))
    out = thinned.bits
    assert (bits == before).all(), "thin modified its input"
    assert out.shape == bits.shape
    assert (out == reference_thin(bits)).all()
    assert_flat_is_its_set_pixels(thinned)


class TestThin:
    def test_empty_map(self):
        out = thin(BitMap(np.zeros((6, 6), dtype=bool)))
        assert out.count() == 0
        assert_flat_is_its_set_pixels(out)

    def test_diagonal_line_unchanged(self):
        bits = np.zeros((8, 8), dtype=bool)
        for i in range(8):
            bits[i, i] = True
        assert (thin(BitMap(bits)).bits == bits).all()

    def test_single_pixel_kept(self):
        bits = np.zeros((5, 5), dtype=bool)
        bits[2, 2] = True
        assert (thin(BitMap(bits)).bits == bits).all()

    def test_solid_bar_becomes_thin_path(self):
        bits = np.zeros((7, 14), dtype=bool)
        bits[2:5, 2:12] = True
        out = thin(BitMap(bits)).bits
        assert (out <= bits).all()
        assert not has_2x2_block(out)
        assert component_count(out) == 1
        # The skeleton spans (nearly) the bar's length.
        cols = np.flatnonzero(out.any(axis=0))
        assert cols.max() - cols.min() >= 7

    def test_contracts_on_random_blobs(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            blob = random_blob(rng)
            out = thin(blob)
            assert_flat_is_its_set_pixels(out)
            assert (out.bits <= blob.bits).all()
            assert not has_2x2_block(out.bits)
            assert component_count(out.bits) == component_count(blob.bits)
            again = thin(out)
            assert (again.bits == out.bits).all()

    def test_idempotent_on_lines(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[4, 1:9] = True
        once = thin(BitMap(bits))
        assert (once.bits == bits).all()

    def test_outputs_match_pinned_digests(self):
        for name, bits in pinned_thin_inputs().items():
            out = thin(BitMap(bits)).bits
            digest = hashlib.sha256(np.packbits(out).tobytes() + repr(out.shape).encode())
            assert digest.hexdigest() == PINNED_THIN_DIGESTS[name], name

    @settings(max_examples=200, deadline=None)
    @given(bool_maps())
    def test_matches_full_frame_reference_on_small_maps(self, bits):
        assert_thin_matches_reference(bits)

    def test_matches_full_frame_reference_on_seeded_small_maps(self):
        rng = np.random.default_rng(1907)
        for _ in range(300):
            shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            assert_thin_matches_reference(rng.random(shape) < rng.random())

    @pytest.mark.parametrize("density", [0.3, 0.5, 0.7, 1.0])
    def test_matches_full_frame_reference_on_speckle(self, density):
        rng = np.random.default_rng(int(density * 10) + 61)
        assert_thin_matches_reference(rng.random((96, 128)) < density)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 40), (40, 1)])
    def test_matches_full_frame_reference_on_degenerate_shapes(self, shape):
        rng = np.random.default_rng(shape[1])
        for density in (0.0, 0.5, 1.0):
            assert_thin_matches_reference(rng.random(shape) < density)

    def test_one_pass_peels_a_solid_rectangle_to_its_interior(self):
        # Table 0 and then table 1, each recomputed over the whole grid, turn
        # a solid H x W rectangle with H, W >= 3 into exactly its interior,
        # and each table deletes something, so no peeled pass is idle. A
        # pixel's fate in one pass depends only on its 5x5 neighbourhood,
        # and in a solid rectangle that depends only on the pixel's distances
        # to the four sides, capped at 3; so these sizes cover every
        # rectangle, which is what lets thin skip straight to the core.
        for height in range(3, 14):
            for width in range(3, 14):
                a = np.ones((height, width), dtype=bool)
                for table in _DELETABLE:
                    removable = a & table[_full_frame_codes(a)]
                    assert removable.any(), (height, width)
                    a[removable] = False
                interior = np.zeros_like(a)
                interior[1:-1, 1:-1] = True
                assert np.array_equal(a, interior), (height, width)

    def test_solid_rectangles_match_full_frame_reference(self):
        for height in range(1, 41):
            for width in range(1, 41):
                assert_thin_matches_reference(np.ones((height, width), dtype=bool))

    @pytest.mark.parametrize("length", [41, 481])
    def test_solid_strips_match_full_frame_reference(self, length):
        # Longer than the rectangles above; one or two pixels thick, so
        # nothing is peeled.
        for shape in ((1, length), (length, 1), (2, length), (length, 2)):
            assert_thin_matches_reference(np.ones(shape, dtype=bool))

    def test_whole_benchmark_frame_matches_full_frame_reference(self):
        assert_thin_matches_reference(np.ones((321, 481), dtype=bool))

    def test_solid_rectangle_off_centre_matches_full_frame_reference(self):
        bits = np.zeros((40, 50), dtype=bool)
        bits[3:20, 21:48] = True
        assert_thin_matches_reference(bits)

    @pytest.mark.parametrize("touch", [(2, 10), (20, 30), (10, 30), (10, 9)])
    def test_rectangle_with_a_touching_pixel_is_not_peeled(self, touch):
        # The extra pixel widens the bounding box past the rectangle, so the
        # box is not solid and the whole map is thinned.
        bits = np.zeros((24, 36), dtype=bool)
        bits[3:20, 10:30] = True
        bits[touch] = True
        assert_thin_matches_reference(bits)


# 4x4 windows whose gaps exceed every d drawn below, so each window's nodes
# form their own components.
CLUSTER_ORIGINS = ((2, 2), (2, 16), (2, 30), (16, 2), (16, 16), (16, 30))


@st.composite
def clustered_nodes(draw) -> tuple[list, list, EvalConfig]:
    """Up to 8 GT and 8 predicted nodes in one to four windows of a 30x40 map.

    ``d`` is exactly 2 or 2.5, so pairs at distance exactly ``d`` occur, and
    a window is small enough for its pairs to compete for the same nodes.
    """
    origins = draw(st.lists(st.sampled_from(CLUSTER_ORIGINS), min_size=1, max_size=4, unique=True))
    cell = st.tuples(st.sampled_from(origins), st.integers(0, 3), st.integers(0, 3)).map(
        lambda t: (t[0][0] + t[1], t[0][1] + t[2])
    )
    gt = draw(st.lists(cell, max_size=8, unique=True))
    pred = draw(st.lists(cell, max_size=8, unique=True))
    fraction = draw(st.sampled_from((0.04, 0.05)))
    return gt, pred, EvalConfig(max_dist_fraction=fraction)


def match_both(pred: BitMap, gt: BitMap, cfg: EvalConfig = EvalConfig()) -> MatchResult:
    """``match_instance`` called on both sides of the maps keeping their
    flat indices: the first call takes them, the second reads them.

    The two calls must give equal results: counts, totals and the chosen
    pairs. The pairs must be one-to-one, sorted by gt index and strictly
    within ``d``. Returns the result.
    """
    result = match_instance(pred, gt, cfg)
    assert match_instance(pred, gt, cfg) == result
    gt_side = [g for g, _ in result.matched_pairs]
    pred_side = [p for _, p in result.matched_pairs]
    assert gt_side == sorted(set(gt_side))
    assert len(set(pred_side)) == len(pred_side)
    gxy, pxy = np.argwhere(gt.bits), np.argwhere(pred.bits)
    d = cfg.max_distance(*gt.bits.shape)
    assert all(math.dist(gxy[g], pxy[p]) < d for g, p in result.matched_pairs)
    return result


def assert_optimal_match(pred: BitMap, gt: BitMap, cfg: EvalConfig, oracle) -> tuple[int, int]:
    """Check :func:`match_both` against an oracle's matched count.

    Compares cardinality only: ties may resolve to any maximum matching, and
    the oracle's total distance is not a property of the result. Returns the
    (gt, pred) node counts.
    """
    gxy, pxy = np.argwhere(gt.bits), np.argwhere(pred.bits)
    d = cfg.max_distance(*gt.bits.shape)
    result = match_both(pred, gt, cfg)
    assert (result.gt_total, result.pred_total) == (len(gxy), len(pxy))
    want_count, _ = oracle(gxy, pxy, d)
    assert result.matched == want_count
    return len(gxy), len(pxy)


class TestMatchInstance:
    def test_perfect_map_fully_matched(self):
        bits = np.zeros((12, 12), dtype=bool)
        bits[3, 2:9] = True
        bm = BitMap(bits)
        result = match_both(bm, bm)
        assert result.matched == result.pred_total == result.gt_total == 7
        for g, p in result.matched_pairs:
            assert g == p

    def test_translation_beyond_d_matches_nothing(self):
        gt = bitmap_from_pixels(16, 16, [(3, c) for c in range(2, 8)])
        pred = bitmap_from_pixels(16, 16, [(9, c) for c in range(2, 8)])
        result = match_both(pred, gt)  # default d is below one pixel
        assert result.matched == 0
        assert result.pred_total == result.gt_total == 6

    def test_distance_bound_is_strict(self):
        # 3x4 image diagonal is 5; lambda 0.2 puts d exactly at 1.0, so
        # nodes one pixel apart are not candidates.
        cfg = EvalConfig(max_dist_fraction=0.2)
        gt = bitmap_from_pixels(3, 4, [(1, 1)])
        pred = bitmap_from_pixels(3, 4, [(1, 2)])
        assert match_both(pred, gt, cfg).matched == 0
        just_over = EvalConfig(max_dist_fraction=0.21)
        assert match_both(pred, gt, just_over).matched == 1

    def test_empty_sides(self):
        empty = BitMap(np.zeros((8, 8), dtype=bool))
        some = bitmap_from_pixels(8, 8, [(1, 1), (2, 2)])
        a = match_both(empty, some)
        assert (a.matched, a.pred_total, a.gt_total) == (0, 0, 2)
        b = match_both(some, empty)
        assert (b.matched, b.pred_total, b.gt_total) == (0, 2, 0)

    def test_prefers_cardinality_over_distance(self):
        # Pred p reaches both gts (nearer to b), pred q reaches only b.
        # A cost-greedy matcher would take p-b and strand both q and a;
        # the assignment must instead take p-a and q-b for two matches.
        cfg = EvalConfig(max_dist_fraction=0.35)  # d ~ 4.95 on 10x10
        gt = bitmap_from_pixels(10, 10, [(5, 2), (5, 6)])  # a, b
        pred = bitmap_from_pixels(10, 10, [(5, 5), (5, 9)])  # p, q
        result = match_both(pred, gt, cfg)
        assert result.matched == 2
        assert set(result.matched_pairs) == {(0, 0), (1, 1)}

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(21)
        cfg = EvalConfig(max_dist_fraction=0.12)
        for _ in range(40):
            h, w = 20, 20
            n_gt = int(rng.integers(0, 9))
            n_pred = int(rng.integers(0, 9))
            cells = rng.choice(h * w, size=n_gt + n_pred, replace=False)
            gt_nodes = [(int(c) // w, int(c) % w) for c in cells[:n_gt]]
            pred_nodes = [(int(c) // w, int(c) % w) for c in cells[n_gt:]]
            gt = bitmap_from_pixels(h, w, gt_nodes)
            pred = bitmap_from_pixels(h, w, pred_nodes)
            assert_optimal_match(pred, gt, cfg, brute_force_match)

    def test_matches_dense_assignment_on_thinned_blobs(self):
        rng = np.random.default_rng(606)
        cfg = EvalConfig(max_dist_fraction=0.03)  # d ~ 3.46 on 64x96
        sizes = []
        for _ in range(12):
            bits = np.zeros((64, 96), dtype=bool)
            for _ in range(int(rng.integers(8, 30))):
                bits |= random_blob(rng, 64, 96).bits
            shift = tuple(int(v) for v in rng.integers(-3, 4, size=2))
            speckle = rng.random(bits.shape) < rng.uniform(0.0, 0.05)
            gt = thin(BitMap(bits))
            pred = thin(BitMap(np.roll(bits, shift, axis=(0, 1)) | speckle))
            sizes.append(assert_optimal_match(pred, gt, cfg, dense_match))
        assert max(max(s) for s in sizes) >= 250

    def test_matches_dense_assignment_on_separated_clusters(self):
        rng = np.random.default_rng(607)
        cfg = EvalConfig(max_dist_fraction=0.02)  # d = 2.0 on 60x80
        for _ in range(10):
            gt_bits = np.zeros((60, 80), dtype=bool)
            pred_bits = np.zeros_like(gt_bits)
            # 5x5 windows 10 px apart: no candidate pair spans two windows.
            for y0 in range(2, 60, 10):
                for x0 in range(2, 80, 10):
                    gt_bits[y0:y0 + 5, x0:x0 + 5] = rng.random((5, 5)) < rng.random()
                    pred_bits[y0:y0 + 5, x0:x0 + 5] = rng.random((5, 5)) < rng.random()
            assert_optimal_match(BitMap(pred_bits), BitMap(gt_bits), cfg, dense_match)

    def test_matches_dense_assignment_on_equidistant_lattices(self):
        cfg = EvalConfig(max_dist_fraction=0.025)  # d = 2.5 on 60x80
        yy, xx = np.mgrid[0:60, 0:80]
        checker = (yy + xx) % 2 == 0
        even_cols = (xx % 2 == 0) & (yy % 3 == 0)
        for gt_bits, pred_bits in (
            (checker, ~checker),
            (even_cols, np.roll(even_cols, 1, axis=1)),
            (even_cols, np.roll(even_cols, 1, axis=0) | np.roll(even_cols, -1, axis=0)),
            (checker & (yy < 7), ~checker & (yy > 3) & (yy < 12)),
        ):
            assert_optimal_match(BitMap(pred_bits), BitMap(gt_bits), cfg, dense_match)

    def test_pairs_exactly_at_the_bound_never_match(self):
        cfg = EvalConfig(max_dist_fraction=0.1)  # d = 5.0 on 30x40
        assert cfg.max_distance(30, 40) == 5.0
        # Every pred sits exactly 5 px (offsets (3, 4), (0, 5), (5, 0)) from
        # its gt, and no nearer gt exists.
        gt = bitmap_from_pixels(30, 40, [(2, 2), (2, 20), (20, 2)])
        pred = bitmap_from_pixels(30, 40, [(5, 6), (2, 25), (25, 2)])
        result = match_both(pred, gt, cfg)
        assert (result.matched, result.pred_total, result.gt_total) == (0, 3, 3)
        # Mixed with pairs just inside the bound, only those match.
        gt = bitmap_from_pixels(30, 40, [(2, 2), (2, 20), (20, 2), (20, 30)])
        pred = bitmap_from_pixels(30, 40, [(5, 6), (2, 24), (25, 2), (24, 32)])
        assert_optimal_match(pred, gt, cfg, dense_match)
        assert match_both(pred, gt, cfg).matched_pairs == ((1, 0), (3, 2))

    def test_candidates_are_the_pairs_strictly_within_d(self):
        # The row-range search against an exhaustive distance test, on maps
        # with nodes along all four borders, for d = 0.5, 1.5, 5 (exactly:
        # 3-4-5 pairs sit on it), 25 and 49.5 (past the frame's diagonal).
        rng = np.random.default_rng(609)
        for fraction in (0.01, 0.03, 0.1, 0.5, 0.99):
            d = EvalConfig(max_dist_fraction=fraction).max_distance(30, 40)
            for _ in range(4):
                gt_bits = rng.random((30, 40)) < 0.05
                pred_bits = rng.random((30, 40)) < 0.1
                for bits in (gt_bits, pred_bits):
                    bits[[0, -1], :] |= rng.random((2, 40)) < 0.3
                    bits[:, [0, -1]] |= rng.random((30, 2)) < 0.3
                gxy, pxy = np.argwhere(gt_bits), np.argwhere(pred_bits)
                want = [
                    (i, j)
                    for i, g in enumerate(gxy.tolist())
                    for j, p in enumerate(pxy.tolist())
                    if math.dist(g, p) < d
                ]
                lo, hi = pointedge.metrics._windows(np.flatnonzero(gt_bits), (30, 40), d)
                indptr, indices = pointedge.metrics._candidates(
                    lo, hi, np.flatnonzero(pred_bits)
                )
                rows = np.repeat(np.arange(len(gxy)), np.diff(indptr))
                assert list(zip(rows.tolist(), indices.tolist())) == want

    def test_candidates_drop_a_pair_exactly_at_d(self):
        gt = bitmap_from_pixels(30, 40, [(10, 10)])
        # Offsets (3, 4), (-3, -4), (0, 5) and (5, 0) lie at exactly 5;
        # (3, 3), the third node in row-major order, lies inside.
        pred = bitmap_from_pixels(30, 40, [(13, 14), (7, 6), (10, 15), (15, 10), (13, 13)])
        lo, hi = pointedge.metrics._windows(gt.flat, (30, 40), 5.0)
        indptr, indices = pointedge.metrics._candidates(lo, hi, pred.flat)
        assert indptr.tolist() == [0, 1]
        assert indices.tolist() == [2]

    def test_row_ends_are_not_neighbours(self):
        # (r, W-1) and (r+1, 0) are adjacent flat indices, W-1 pixels apart.
        cfg = EvalConfig(max_dist_fraction=0.1)  # d = 5.0 on 30x40
        gt = bitmap_from_pixels(30, 40, [(4, 39), (10, 0), (20, 39)])
        pred = bitmap_from_pixels(30, 40, [(5, 0), (9, 39), (21, 0)])
        assert_optimal_match(pred, gt, cfg, brute_force_match)
        assert match_both(pred, gt, cfg).matched == 0
        # Along one border column, nodes do match.
        pred = bitmap_from_pixels(30, 40, [(5, 0), (6, 39), (9, 39), (12, 1)])
        assert_optimal_match(pred, gt, cfg, brute_force_match)
        assert match_both(pred, gt, cfg).matched_pairs == ((0, 1), (1, 3))

    def test_below_one_pixel_only_coincident_nodes_match(self):
        cfg = EvalConfig(max_dist_fraction=0.015)  # d = 0.75 on 30x40
        gt = bitmap_from_pixels(30, 40, [(0, 0), (0, 39), (5, 5), (12, 12), (29, 20)])
        pred = bitmap_from_pixels(30, 40, [(0, 0), (1, 39), (5, 6), (13, 13), (29, 20)])
        assert_optimal_match(pred, gt, cfg, brute_force_match)
        assert match_both(pred, gt, cfg).matched_pairs == ((0, 0), (4, 4))

    def test_reach_past_the_frame_makes_every_pair_a_candidate(self):
        cfg = EvalConfig(max_dist_fraction=0.99)  # d = 49.5 on 30x40
        gt = bitmap_from_pixels(30, 40, [(0, 0), (0, 39), (29, 39)])
        pred = bitmap_from_pixels(30, 40, [(0, 1), (15, 20), (29, 0), (29, 39)])
        lo, hi = pointedge.metrics._windows(gt.flat, (30, 40), cfg.max_distance(30, 40))
        indptr, _ = pointedge.metrics._candidates(lo, hi, pred.flat)
        assert np.diff(indptr).tolist() == [4, 4, 4]
        assert_optimal_match(pred, gt, cfg, dense_match)
        assert match_both(pred, gt, cfg).matched == 3

    def test_nodes_on_the_top_and_bottom_rows(self):
        cfg = EvalConfig(max_dist_fraction=0.1)  # d = 5.0 on 30x40
        gt = bitmap_from_pixels(
            30, 40, [(0, c) for c in range(0, 40, 3)] + [(29, c) for c in range(1, 40, 3)]
        )
        pred = bitmap_from_pixels(
            30, 40, [(r, c) for r in (0, 3, 4, 25, 26, 29) for c in range(0, 40, 7)]
        )
        assert assert_optimal_match(pred, gt, cfg, dense_match) == (27, 36)

    @settings(max_examples=200, deadline=None)
    @given(clustered_nodes())
    def test_matches_brute_force_on_clustered_nodes(self, case):
        gt_nodes, pred_nodes, cfg = case
        gt = bitmap_from_pixels(30, 40, gt_nodes)
        pred = bitmap_from_pixels(30, 40, pred_nodes)
        assert_optimal_match(pred, gt, cfg, brute_force_match)

    def test_large_prediction_stays_within_memory_cap(self):
        # A dense 600 x 100000 distance matrix alone would take 458 MiB.
        h, w = 321, 481
        yy, xx = np.mgrid[0:h, 0:w]
        gt = thin(BitMap(np.abs(np.hypot(yy - 160, xx - 240) - 106) < 1.0))
        flat = np.zeros(h * w, dtype=bool)
        flat[np.random.default_rng(5).choice(h * w, size=100_000, replace=False)] = True
        pred = BitMap(flat.reshape(h, w))
        results = []
        for _ in range(2):  # the first call takes the flat indices, the second reuses them
            tracemalloc.start()
            try:
                results.append(match_instance(pred, gt))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20
        result = results[0]
        assert results[1] == result
        assert (result.gt_total, result.pred_total) == (600, 100_000)
        assert result.matched == 600  # every GT node has ~38 candidates

    def test_long_reach_stays_within_memory_cap(self):
        # --dist-fraction 0.5 gives d ~ 289 on 321x481. The row ranges take
        # 600 GT nodes x 579 image rows; every offset within d for each GT
        # node would be 600 x ~262k entries.
        h, w = 321, 481
        yy, xx = np.mgrid[0:h, 0:w]
        gt = thin(BitMap(np.abs(np.hypot(yy - 160, xx - 240) - 106) < 1.0))
        flat = np.zeros(h * w, dtype=bool)
        flat[np.random.default_rng(6).choice(h * w, size=200, replace=False)] = True
        pred = BitMap(flat.reshape(h, w))
        tracemalloc.start()
        try:
            result = match_instance(pred, gt, EvalConfig(max_dist_fraction=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert (result.gt_total, result.pred_total, result.matched) == (600, 200, 200)

    def test_candidates_are_sorted_within_each_row(self, monkeypatch):
        # The greedy pass gives each gt node its first free candidate, in
        # the ascending order _candidates lists them.
        rng = np.random.default_rng(608)
        graphs, real = [], pointedge.metrics._candidates

        def recording(*args):
            graphs.append(real(*args))
            return graphs[-1]

        monkeypatch.setattr(pointedge.metrics, "_candidates", recording)
        cfg = EvalConfig(max_dist_fraction=0.03)  # d ~ 3.46 on 64x96
        for _ in range(6):
            bits = np.zeros((64, 96), dtype=bool)
            for _ in range(int(rng.integers(8, 30))):
                bits |= random_blob(rng, 64, 96).bits
            speckle = rng.random(bits.shape) < 0.05
            match_instance(thin(BitMap(bits | speckle)), thin(BitMap(bits)), cfg)
        dataset, predictions = random_dataset(rng)
        evaluate(predictions, dataset)
        assert len(graphs) > 6
        assert max(np.diff(indptr).max() for indptr, _ in graphs) > 1
        for indptr, indices in graphs:
            rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
            same_row = rows[1:] == rows[:-1]
            assert (np.diff(indices)[same_row] > 0).all()

    def test_shape_mismatch(self):
        pred = BitMap(np.zeros((4, 4), dtype=bool))
        gt = BitMap(np.zeros((5, 4), dtype=bool))
        message = r"prediction shape \(4, 4\) != ground truth shape \(5, 4\)"
        with pytest.raises(ValueError, match=message):
            match_instance(pred, gt)

    def test_index_holds_the_edge_nodes(self):
        # The nodes are the map's flat indices as (row, col), row-major.
        gt = bitmap_from_pixels(6, 7, [(4, 1), (0, 5), (4, 0)])
        assert edge_nodes(gt).tolist() == [[0, 5], [4, 0], [4, 1]]
        assert gt.flat.tolist() == [5, 28, 29]
        assert edge_nodes(BitMap(np.zeros((6, 7), dtype=bool))).shape == (0, 2)

    def test_match_result_validation(self):
        with pytest.raises(ValueError, match="mated twice"):
            MatchResult((0, 0, -1), pred_total=3)
        with pytest.raises(ValueError, match="outside the prediction"):
            MatchResult((0, 2), pred_total=2)
        with pytest.raises(ValueError, match="outside the prediction"):
            MatchResult((0, -2), pred_total=2)
        with pytest.raises(ValueError, match="pred_total must be >= 0"):
            MatchResult((-1,), pred_total=-5)
        result = MatchResult((1, -1, 0), pred_total=2)
        assert (result.matched, result.gt_total) == (2, 3)
        assert result.matched_pairs == ((0, 1), (2, 0))


def csr_graph(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``(indptr, indices)`` of gt rows of pred candidates."""
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(np.int32)
    return indptr, np.array([p for row in rows for p in row], dtype=np.int32)


def maximum_matching(rows: list[list[int]], n_pred: int) -> list[int]:
    """``_maximum_matching`` of a graph given as rows, checked to be a
    one-to-one matching of candidate edges. Returns each gt node's mate."""
    gt_mate = pointedge.metrics._maximum_matching(*csr_graph(rows), n_pred)
    assert len(gt_mate) == len(rows)
    matched = [(g, p) for g, p in enumerate(gt_mate) if p >= 0]
    assert all(p in rows[g] for g, p in matched)
    assert len({p for _, p in matched}) == len(matched)
    return gt_mate


class TestMaximumMatching:
    def test_augments_where_greedy_falls_short(self):
        # Greedy gives gt0 its first candidate p0 and leaves gt1 free; the
        # search from p1 reroutes gt0 to p1.
        assert maximum_matching([[0, 1], [0]], 2) == [1, 0]

    def test_long_augmenting_path(self):
        # gt i reaches p i and p i+1, the last gt only p0: greedy strands it,
        # and the one augmenting path runs through every node.
        n = 50
        rows = [[i, i + 1] for i in range(n - 1)] + [[0]]
        assert maximum_matching(rows, n) == list(range(1, n)) + [0]

    def test_free_nodes_on_both_sides_without_an_augmenting_path(self):
        # p1 and p2 stay free and reach only gt0, matched to p0; gt2 stays
        # free and reaches only p3, matched to gt1. Both searches fail: the
        # first marks gt0 dead and the second skips it.
        rows = [[0, 1, 2], [3], [3]]
        assert maximum_matching(rows, 5) == [0, 3, -1]

    def test_dead_tree_stays_dead_after_later_augmentations(self):
        # The search from p1 fails on the tree {gt0}; the search from p3
        # then augments through gt1 and gt2, which lie outside that tree.
        rows = [[0, 1], [2, 3], [2]]
        assert maximum_matching(rows, 4) == [0, 3, 2]

    def test_empty_rows_and_isolated_pred_nodes(self):
        assert maximum_matching([[], [1], []], 3) == [-1, 1, -1]
        assert maximum_matching([[], []], 4) == [-1, -1]

    def test_size_equals_scipy_on_seeded_random_graphs(self):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        rng = np.random.default_rng(616)
        for trial in range(300):
            n_gt, n_pred = (int(v) for v in rng.integers(1, 40, size=2))
            density = float(rng.choice([0.02, 0.05, 0.1, 0.3]))
            adjacency = rng.random((n_gt, n_pred)) < density
            rows = [np.flatnonzero(row).tolist() for row in adjacency]
            gt_mate = maximum_matching(rows, n_pred)
            graph = csr_matrix(adjacency.astype(np.int8))
            want = int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())
            assert sum(p >= 0 for p in gt_mate) == want, trial


class TestWindowsCache:
    def test_released_with_each_slots_ground_truth(self, monkeypatch):
        # Each slot's windows are derived once and cached under its ground
        # truth, weakly: once evaluate returns, every slot's gt is gone, and
        # its cache entry with it.
        dataset, predictions = random_dataset(np.random.default_rng(8), n_images=3)
        gc.collect()
        cached = len(pointedge.metrics._WINDOWS)
        refs, derived = [], []
        real_slot, real_windows = pointedge.metrics._slot_counts, pointedge.metrics._windows

        def recording_slot(graymap, gt, cfg):
            refs.append(weakref.ref(gt))
            return real_slot(graymap, gt, cfg)

        def recording_windows(gt_flat, shape, d):
            derived.append(len(refs))
            return real_windows(gt_flat, shape, d)

        monkeypatch.setattr(pointedge.metrics, "_slot_counts", recording_slot)
        monkeypatch.setattr(pointedge.metrics, "_windows", recording_windows)
        evaluate(predictions, dataset)
        monkeypatch.undo()

        assert len(refs) == sum(len(image.instances) for image in dataset.images)
        assert derived == sorted(set(derived)) and len(derived) > 1
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(pointedge.metrics._WINDOWS) == cached

    def test_keyed_on_the_distance(self):
        # One ground truth matched at several distances, back and forth:
        # every match uses the windows of its own d.
        gt = bitmap_from_pixels(30, 40, [(10, 10), (10, 20)])
        pred = bitmap_from_pixels(30, 40, [(10, 13), (10, 26)])
        matched = []
        for fraction in (0.1, 0.2, 0.03, 0.1, 0.2):  # d = 5, 10, 1.5 on 30x40
            cfg = EvalConfig(max_dist_fraction=fraction)
            assert_optimal_match(pred, gt, cfg, brute_force_match)
            matched.append(match_instance(pred, gt, cfg).matched)
        assert matched == [1, 2, 0, 1, 2]


class TestImagePR:
    # Rows are (matched, predicted, GT) node counts, one per instance.
    def test_counts_example(self):
        p, r = image_pr(np.array([[6, 8, 10]]))
        assert (p, r) == (0.75, 0.6)

    def test_perfect_instances(self):
        assert image_pr(np.array([[2, 2, 2], [1, 1, 1]])) == (1.0, 1.0)

    def test_zero_predictions_convention(self):
        p, r = image_pr(np.array([[0, 0, 4]]))
        assert (p, r) == (1.0, 0.0)

    def test_zero_gt_convention(self):
        p, r = image_pr(np.array([[0, 4, 0]]))
        assert (p, r) == (0.0, 1.0)

    def test_empty_list(self):
        assert image_pr(np.zeros((0, 3), dtype=int)) == (1.0, 1.0)

    def test_pooling_across_instances(self):
        p, r = image_pr(np.array([[1, 2, 1], [0, 2, 3]]))
        assert p == 0.25 and r == 0.25

    def test_leading_shape_flattened(self):
        counts = np.array([[[1, 2, 1], [0, 2, 3]], [[3, 4, 4], [0, 0, 0]]])
        assert image_pr(counts) == image_pr(counts.reshape(-1, 3)) == (0.5, 0.5)


def test_fscore_conventions():
    assert fscore(0.0, 0.0) == 0.0
    assert fscore(1.0, 1.0) == 1.0
    assert fscore(0.5, 1.0) == pytest.approx(2 / 3)


class TestBinarize:
    def test_threshold_zero_keeps_positive_pixels_only(self):
        gm = GrayMap([[0.0, 0.2, 1.0]])
        out = binarize(gm, 0.0)
        assert out.bits.tolist() == [[False, True, True]]

    def test_inclusive_threshold(self):
        gm = GrayMap([[0.3, 0.29]])
        assert binarize(gm, 0.3).bits.tolist() == [[True, False]]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(14)
        gm = GrayMap(rng.random((6, 6)))
        previous = binarize(gm, 0.0).bits
        for t in np.linspace(0.05, 0.95, 19):
            current = binarize(gm, float(t)).bits
            assert (current <= previous).all()
            previous = current

    @pytest.mark.parametrize("threshold", [-0.5, 0.0, 5e-324, 0.05, 0.7, 0.999])
    def test_equals_threshold_and_positive(self, threshold):
        rng = np.random.default_rng(15)
        levels = np.array([0.0, 5e-324, 0.05, 0.7, 0.999, 1.0])
        grids = [
            np.where(rng.random((9, 11)) < 0.3, 0.0, rng.random((9, 11))),
            rng.choice(levels, size=(9, 11)),
            np.zeros((4, 5)),
            np.ones((4, 5)),
        ]
        for values in grids:
            out = binarize(GrayMap(values), threshold).bits
            assert np.array_equal(out, (values >= threshold) & (values > 0.0))


    @pytest.mark.parametrize("maxval", [1, 2, 3, 7, 255, 1000, 4095, 65535])
    def test_sample_maps_cut_where_their_float_copies_do(self, tmp_path, maxval):
        # Every sample value, at thresholds on, just below and just above
        # each level, and at the sweep's and the edge cases' thresholds.
        samples = np.arange(maxval + 1).reshape(1, -1)
        dtype = ">u2" if maxval > 255 else np.uint8
        path = tmp_path / "s.pgm"
        path.write_bytes(
            f"P5\n{maxval + 1} 1\n{maxval}\n".encode("ascii") + samples.astype(dtype).tobytes()
        )
        read = read_graymap(path)
        floats = GrayMap(samples / maxval)
        rng = np.random.default_rng(maxval)
        ks = np.arange(maxval + 1) if maxval <= 4095 else np.unique(
            np.concatenate((np.arange(50), maxval - np.arange(50), rng.integers(0, maxval, 400)))
        )
        levels = ks / maxval
        thresholds = [
            *THRESHOLDS,
            *levels, *np.nextafter(levels, -np.inf), *np.nextafter(levels, np.inf),
            0.0, -0.5, 5e-324, 1.0, 1.5, np.nan,
        ]
        for t in thresholds:
            t = float(t)
            expected = binarize(floats, t).bits
            assert np.array_equal(binarize(read, t).bits, expected), t
            assert np.array_equal(expected, (floats.values >= t) & (floats.values > 0.0)), t

    def test_firing_counts_are_one_compare_per_threshold(self):
        # The two-pass counts against a compare of the whole map at each
        # threshold: a float map with zeros, a never-zero sample map, and a
        # map that fires only at threshold 0.
        rng = np.random.default_rng(16)
        maps = [
            GrayMap(np.where(rng.random((9, 11)) < 0.3, 0.0, rng.random((9, 11)))),
            GrayMap(rng.integers(1, 256, (9, 11)).astype(np.uint8), 255),
            GrayMap(np.where(rng.random((9, 11)) < 0.5, 0.0, 0.01)),
        ]
        assert (maps[1].levels > 0).all()
        for graymap in maps:
            want = [np.count_nonzero(graymap.levels >= _cut(graymap, t)) for t in THRESHOLDS]
            assert _firing_counts(graymap, THRESHOLDS) == want
        assert want[0] > 0 and want[1:] == [0] * (len(THRESHOLDS) - 1)

    def test_numpy_maxval_stored_as_int(self):
        # A numpy maxval + 1 would wrap to 0 in uint16 and fire every pixel.
        gm = GrayMap(np.array([[0, 1, 65535]], np.uint16), np.uint16(65535))
        assert type(gm.maxval) is int
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1.5, math.nan):
                assert not binarize(gm, t).bits.any()


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.max_dist_fraction == 0.0075
        assert THRESHOLDS == tuple(k / 20 for k in range(20))

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(max_dist_fraction=0.0)


class RecordingMaps(Mapping):
    """One image's maps; records (image_id, instance_id) of each map handed out."""

    def __init__(self, image_id, maps, lookups):
        self.image_id, self.maps, self.lookups = image_id, maps, lookups

    def __getitem__(self, instance_id):
        graymap = self.maps[instance_id]
        self.lookups.append((self.image_id, instance_id))
        return graymap

    def __iter__(self):
        return iter(self.maps)

    def __len__(self):
        return len(self.maps)


def exact_prediction_setup():
    inst = flat_ring_instance(2, 9, 4, instance_id=1)
    image = ImageRecord(image_id=1, height=16, width=16, instances=(inst,))
    dataset = Dataset(images=(image,), categories={0: "thing"})
    edges = rasterize_polyline(inst, 16, 16)
    predictions = {1: {1: to_graymap(edges)}}
    return dataset, predictions


def pgm_copies(predictions, tmp_path, maxval: int):
    """Each map written as a PGM of ``maxval`` and read back."""
    copies = {}
    for image_id, inst_maps in predictions.items():
        copies[image_id] = {}
        for instance_id, graymap in inst_maps.items():
            path = tmp_path / f"{maxval}_{image_id}_{instance_id}.pgm"
            if maxval == 65535:
                write_graymap(graymap, path)
            else:
                samples = np.rint(graymap.values * maxval).astype(np.uint8)
                header = f"P5\n{graymap.width} {graymap.height}\n{maxval}\n"
                path.write_bytes(header.encode("ascii") + samples.tobytes())
            copies[image_id][instance_id] = read_graymap(path)
    return copies


def float_copies(predictions):
    """Each map's float values, as a float map of their own."""
    return {
        image_id: {i: GrayMap(np.array(m.values)) for i, m in maps.items()}
        for image_id, maps in predictions.items()
    }


class TestEvaluate:
    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("seed", [3, 11, 23])
    def test_pgm_read_maps_score_as_their_float_copies(self, tmp_path, seed, maxval):
        dataset, predictions = random_dataset(np.random.default_rng(seed), n_images=4)
        read = pgm_copies(predictions, tmp_path, maxval)
        floats = float_copies(read)
        cfg = EvalConfig()
        summary = evaluate(read, dataset, cfg)
        assert summary == evaluate(floats, dataset, cfg)
        ods, ois, curve = eval_oracle(floats, dataset, THRESHOLDS, cfg.max_dist_fraction)
        assert summary.ods == pytest.approx(ods, abs=1e-9)
        assert summary.ois == pytest.approx(ois, abs=1e-9)

    def test_pgm_read_maps_are_never_turned_into_floats(self, tmp_path, monkeypatch):
        dataset, predictions = random_dataset(np.random.default_rng(7), n_images=4)
        read = pgm_copies(predictions, tmp_path, 65535)
        expected = evaluate(float_copies(read), dataset)
        # Fresh maps: the float copies above computed the first ones' values.
        read = pgm_copies(predictions, tmp_path, 65535)

        def no_floats(graymap):
            raise AssertionError("a PGM-read map's float values were computed")

        monkeypatch.setattr(GrayMap, "values", property(no_floats))
        summary = evaluate(read, dataset)
        monkeypatch.undo()
        assert summary == expected
        assert all("values" not in vars(m) for maps in read.values() for m in maps.values())

    def test_pgm_read_two_image_fixture(self, tmp_path):
        dataset, predictions = two_image_fixture()
        read = pgm_copies(predictions, tmp_path, 65535)
        floats = float_copies(read)
        summary = evaluate(read, dataset)
        assert summary == evaluate(floats, dataset)
        assert summary.ois > summary.ods

    def test_exact_predictions_score_one(self):
        dataset, predictions = exact_prediction_setup()
        summary = evaluate(predictions, dataset)
        assert summary.ods == pytest.approx(1.0, abs=1e-9)
        assert summary.ois == pytest.approx(1.0, abs=1e-9)
        for pt in summary.curve:
            assert pt.precision == pytest.approx(1.0, abs=1e-9)
            assert pt.recall == pytest.approx(1.0, abs=1e-9)

    def test_displaced_predictions_score_zero(self):
        dataset, _ = exact_prediction_setup()
        values = np.zeros((16, 16))
        values[12, 2:10] = 1.0  # 8 rows below the gt segment, far beyond d
        summary = evaluate({1: {1: GrayMap(values)}}, dataset)
        assert summary.ods == 0.0
        assert summary.ois == 0.0

    def test_two_image_fixture_ois_strictly_above_ods(self):
        dataset, predictions = two_image_fixture()
        summary = evaluate(predictions, dataset)
        assert summary.ois > summary.ods + 1e-6

    def test_two_image_fixture_matches_sweep_oracle(self):
        dataset, predictions = two_image_fixture()
        cfg = EvalConfig()
        summary = evaluate(predictions, dataset, cfg)
        ods, ois, curve = eval_oracle(
            predictions, dataset, THRESHOLDS, cfg.max_dist_fraction
        )
        assert summary.ods == pytest.approx(ods, abs=1e-9)
        assert summary.ois == pytest.approx(ois, abs=1e-9)
        for pt, (t, p, r, f) in zip(summary.curve, curve):
            assert pt.threshold == t
            assert pt.precision == pytest.approx(p, abs=1e-9)
            assert pt.recall == pytest.approx(r, abs=1e-9)
            assert pt.fscore == pytest.approx(f, abs=1e-9)

    def test_curve_points_satisfy_f_invariant(self):
        dataset, predictions = two_image_fixture()
        for pt in evaluate(predictions, dataset).curve:
            assert pt.fscore == pytest.approx(
                fscore(pt.precision, pt.recall), abs=1e-12
            )
            assert 0.0 <= pt.precision <= 1.0
            assert 0.0 <= pt.recall <= 1.0

    def test_ois_at_least_ods_on_random_datasets(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dataset, predictions = random_dataset(rng)
            summary = evaluate(predictions, dataset)
            assert summary.ois >= summary.ods - 1e-12

    def test_sweep_reads_counts_only(self, monkeypatch):
        # The sweep scores by the counts: no pair tuple is built.
        cases = [two_image_fixture(), random_dataset(np.random.default_rng(11), n_images=4)]
        expected = [evaluate(predictions, dataset) for dataset, predictions in cases]

        def no_pairs(result):
            raise AssertionError("matched_pairs read during evaluate")

        monkeypatch.setattr(MatchResult, "matched_pairs", property(no_pairs))
        with pytest.raises(AssertionError, match="matched_pairs read"):
            MatchResult((0,), pred_total=1).matched_pairs
        for (dataset, predictions), summary in zip(cases, expected):
            assert evaluate(predictions, dataset) == summary

    def test_instance_order_permutation_invariance(self):
        first = flat_ring_instance(2, 7, 3, instance_id=1)
        second = flat_ring_instance(4, 11, 9, instance_id=2)
        image = ImageRecord(image_id=1, height=16, width=16, instances=(first, second))
        flipped = ImageRecord(
            image_id=1, height=16, width=16, instances=(second, first)
        )
        categories = {0: "thing"}
        good = to_graymap(rasterize_polyline(first, 16, 16))
        noisy = np.zeros((16, 16))
        noisy[9, 4:9] = 0.41  # partial hit on the second segment
        predictions = {1: {1: good, 2: GrayMap(noisy)}}
        a = evaluate(predictions, Dataset(images=(image,), categories=categories))
        b = evaluate(predictions, Dataset(images=(flipped,), categories=categories))
        assert a == b

    def test_missing_instance_prediction_scored_empty(self):
        dataset, predictions = exact_prediction_setup()
        summary = evaluate({1: {}}, dataset)
        assert summary.ods == 0.0  # precision 1, recall 0 everywhere

    def test_unknown_image_rejected(self):
        dataset, predictions = exact_prediction_setup()
        with pytest.raises(ValueError, match="^prediction for unknown image 2$"):
            evaluate({2: {}}, dataset)

    def test_unknown_instance_rejected(self):
        dataset, predictions = exact_prediction_setup()
        with pytest.raises(ValueError):
            evaluate({1: {9: predictions[1][1]}}, dataset)

    def test_dimension_mismatch_rejected(self):
        dataset, _ = exact_prediction_setup()
        small = GrayMap(np.zeros((8, 8)))
        with pytest.raises(
            ValueError, match=r"^image 1: prediction for instance 1 is 8x8, image is 16x16$"
        ):
            evaluate({1: {1: small}}, dataset)

    def test_each_map_looked_up_once_image_by_image(self):
        dataset, predictions = random_dataset(np.random.default_rng(5), n_images=4)
        lookups = []
        recording = {i: RecordingMaps(i, maps, lookups) for i, maps in predictions.items()}
        assert evaluate(recording, dataset) == evaluate(predictions, dataset)
        assert sorted(lookups) == sorted(
            (i, j) for i, maps in predictions.items() for j in maps
        )
        images = [i for i, _ in lookups]
        assert images == sorted(images)

    def test_earlier_images_maps_released_before_next_read(self, monkeypatch):
        # Every lookup hands out a new map; when a map is read, no other map,
        # of this image or an earlier one, may still be referenced.
        dataset, predictions = random_dataset(np.random.default_rng(5), n_images=4)
        handed, held = [], []

        class FreshMaps(RecordingMaps):
            def __getitem__(self, instance_id):
                held.extend(slot for slot, ref in handed if ref() is not None)
                graymap = GrayMap(super().__getitem__(instance_id).values.copy())
                handed.append(((self.image_id, instance_id), weakref.ref(graymap)))
                return graymap

        recording = {i: FreshMaps(i, maps, []) for i, maps in predictions.items()}
        assert evaluate(recording, dataset) == evaluate(predictions, dataset)
        assert len({i for (i, _), _ in handed}) == 4
        assert held == []

        # Lookups and match calls in one log: every match after the lookup of
        # a slot, and before the next lookup, is against that slot's ground
        # truth, so slot k+1's map is looked up only after slot k's last match.
        events = count_calls(monkeypatch, pointedge.metrics, "match_instance")["match_instance"]
        recording = {i: RecordingMaps(i, maps, events) for i, maps in predictions.items()}
        evaluate(recording, dataset)
        monkeypatch.undo()
        images = sorted(dataset.images, key=lambda image: image.image_id)
        gt_nodes = {
            (image.image_id, inst.instance_id): edge_nodes(
                thin(rasterize_polyline(inst, image.height, image.width))
            )
            for image in images
            for inst in image.instances
        }
        lookups = [event for event in events if isinstance(event[0], int)]
        assert lookups == list(gt_nodes)
        assert len(events) > len(lookups)
        slot = None
        for event in events:
            if isinstance(event[0], int):
                slot = event
            else:
                assert np.array_equal(edge_nodes(event[1]), gt_nodes[slot])

    def test_unknown_instance_rejected_before_any_lookup(self):
        dataset, predictions = random_dataset(np.random.default_rng(5), n_images=4)
        predictions[4][99] = predictions[4][1]
        lookups = []
        recording = {i: RecordingMaps(i, maps, lookups) for i, maps in predictions.items()}
        with pytest.raises(ValueError, match="image 4: prediction for unknown instance_id 99"):
            evaluate(recording, dataset)
        assert lookups == []

    def test_each_binarized_map_thinned_and_matched_once(self, monkeypatch):
        first = flat_ring_instance(2, 9, 4, instance_id=1)
        second = flat_ring_instance(3, 12, 9, instance_id=2)
        third = flat_ring_instance(1, 6, 13, instance_id=3)
        image = ImageRecord(
            image_id=1, height=16, width=16, instances=(first, second, third)
        )
        dataset = Dataset(images=(image,), categories={0: "thing"})
        # Each distinct non-empty binarized map is thinned and matched once.
        # Tunnel values {0, 0.7, 1} binarize to 2 distinct maps over the 20
        # thresholds; three positive levels give the identical maps 3 each.
        tunnel = build_tunnel_target(first, 16, 16).map
        levels = np.random.default_rng(4).choice([0.02, 0.5, 1.0], size=(16, 16))
        predictions = {1: {1: tunnel, 2: GrayMap(levels), 3: GrayMap(levels)}}
        cfg = EvalConfig()
        distinct = {
            (instance_id, binarize(graymap, t).bits.tobytes())
            for instance_id, graymap in predictions[1].items()
            for t in THRESHOLDS
            if binarize(graymap, t).bits.any()
        }
        assert len(distinct) == 2 + 3 + 3

        calls = count_calls(monkeypatch, pointedge.metrics, "binarize", "thin", "match_instance")
        summary = evaluate(predictions, dataset, cfg)
        monkeypatch.undo()

        assert len(calls["binarize"]) == len(distinct)
        assert len(calls["match_instance"]) == len(distinct)
        # Every slot whose map fires everywhere thins the whole frame itself.
        everywhere = sum(bool((m.values > 0).all()) for m in predictions[1].values())
        assert everywhere == 2
        assert sum(edges.bits.all() for edges, in calls["thin"]) == everywhere
        ods, ois, curve = eval_oracle(
            predictions, dataset, THRESHOLDS, cfg.max_dist_fraction
        )
        assert summary.ods == pytest.approx(ods, abs=1e-9)
        assert summary.ois == pytest.approx(ois, abs=1e-9)
        for pt, (t, p, r, f) in zip(summary.curve, curve):
            assert (pt.threshold, pt.precision, pt.recall, pt.fscore) == pytest.approx(
                (t, p, r, f), abs=1e-9
            )

    def test_missing_and_empty_maps_make_no_calls(self, monkeypatch):
        # A slot without a map and a slot whose map fires nothing are scored
        # as predicting nothing, without binarizing, thinning or matching.
        first = flat_ring_instance(2, 9, 4, instance_id=1)
        second = flat_ring_instance(3, 12, 9, instance_id=2)
        third = flat_ring_instance(1, 6, 13, instance_id=3)
        image = ImageRecord(
            image_id=1, height=16, width=16, instances=(first, second, third)
        )
        dataset = Dataset(images=(image,), categories={0: "thing"})
        scored = build_tunnel_target(first, 16, 16).map
        predictions = {1: {1: scored, 3: GrayMap(np.zeros((16, 16)))}}
        cfg = EvalConfig()
        distinct = {binarize(scored, t).bits.tobytes() for t in THRESHOLDS}
        assert len(distinct) == 2

        calls = count_calls(monkeypatch, pointedge.metrics, "binarize", "thin", "match_instance")
        summary = evaluate(predictions, dataset, cfg)
        monkeypatch.undo()

        assert [graymap is scored for graymap, _ in calls["binarize"]] == [True, True]
        assert len(calls["thin"]) == len(distinct) + len(image.instances)
        assert len(calls["match_instance"]) == len(distinct)
        gt = edge_nodes(thin(rasterize_polyline(first, 16, 16)))
        for _, gt_map, _ in calls["match_instance"]:
            assert np.array_equal(edge_nodes(gt_map), gt)
        ods, ois, curve = eval_oracle(
            predictions, dataset, THRESHOLDS, cfg.max_dist_fraction
        )
        assert summary.ods == pytest.approx(ods, abs=1e-9)
        assert summary.ois == pytest.approx(ois, abs=1e-9)
        for pt, (t, p, r, f) in zip(summary.curve, curve):
            assert (pt.threshold, pt.precision, pt.recall, pt.fscore) == pytest.approx(
                (t, p, r, f), abs=1e-9
            )

    def test_whole_frame_thinned_once_per_slot(self, monkeypatch):
        # Never-zero maps fire on every pixel at threshold 0. Each slot thins
        # that whole frame once, as it does any other map, the thinned frame
        # equals the oracle's, and a second evaluate gives the same summary.
        rng = np.random.default_rng(17)
        images, predictions = [], {}
        for image_id, (h, w) in enumerate(((16, 16), (12, 20), (16, 16)), start=1):
            instances = (
                flat_ring_instance(2, 9, 3, instance_id=1),
                flat_ring_instance(4, 11, 8, instance_id=2),
            )
            images.append(ImageRecord(image_id=image_id, height=h, width=w, instances=instances))
            predictions[image_id] = {}
            for inst in instances:
                edges = rasterize_polyline(inst, h, w).bits
                noise = rng.uniform(0.01, 0.6, (h, w))
                values = np.where(edges, rng.uniform(0.5, 1.0, (h, w)), noise)
                predictions[image_id][inst.instance_id] = GrayMap(values)
        dataset = Dataset(images=tuple(images), categories={0: "thing"})
        cfg = EvalConfig()

        whole = []

        def recording_thin(edges, _real=pointedge.metrics.thin):
            out = _real(edges)
            if edges.bits.all():
                whole.append(out.bits)
            return out

        summaries = []
        for _ in range(2):
            whole.clear()
            monkeypatch.setattr(pointedge.metrics, "thin", recording_thin)
            summaries.append(evaluate(predictions, dataset, cfg))
            monkeypatch.undo()
            assert sorted(bits.shape for bits in whole) == [(12, 20)] * 2 + [(16, 16)] * 4
            for bits in whole:
                assert np.array_equal(bits, reference_thin(np.ones(bits.shape, dtype=bool)))
        assert summaries[0] == summaries[1]
        ods, ois, curve = eval_oracle(predictions, dataset, THRESHOLDS, cfg.max_dist_fraction)
        assert summaries[0].ods == pytest.approx(ods, abs=1e-9)
        assert summaries[0].ois == pytest.approx(ois, abs=1e-9)
        for pt, (t, p, r, f) in zip(summaries[0].curve, curve):
            assert (pt.threshold, pt.precision, pt.recall, pt.fscore) == pytest.approx(
                (t, p, r, f), abs=1e-9
            )

    def test_each_ground_truth_indexed_once(self, monkeypatch):
        # Every slot gets its own ground-truth map, and its flat indices come
        # with it from thin: no np.flatnonzero runs over a gt frame. Every
        # match of the slot gets that map; its windows are derived from
        # those same flat indices once, and every match searches that same
        # pair of window arrays.
        dataset, predictions = random_dataset(np.random.default_rng(8), n_images=3)
        slot_gts, matched_gts, derived, searched, indexed = [], [], [], [], []
        metrics = pointedge.metrics
        real_slot, real_match, real_windows, real_candidates, real_flatnonzero = (
            metrics._slot_counts,
            metrics.match_instance,
            metrics._windows,
            metrics._candidates,
            np.flatnonzero,
        )

        def recording_slot(graymap, gt, cfg):
            slot_gts.append(gt)
            return real_slot(graymap, gt, cfg)

        def recording_match(pred, gt, cfg):
            matched_gts.append((len(slot_gts), gt))
            return real_match(pred, gt, cfg)

        def recording_windows(gt_flat, shape, d):
            windows = real_windows(gt_flat, shape, d)
            derived.append((len(slot_gts), gt_flat, windows))
            return windows

        def recording_candidates(lo, hi, pred_flat):
            searched.append((len(slot_gts), lo, hi))
            return real_candidates(lo, hi, pred_flat)

        def recording_flatnonzero(a):
            indexed.append(a)
            return real_flatnonzero(a)

        monkeypatch.setattr(metrics, "_slot_counts", recording_slot)
        monkeypatch.setattr(metrics, "match_instance", recording_match)
        monkeypatch.setattr(metrics, "_windows", recording_windows)
        monkeypatch.setattr(metrics, "_candidates", recording_candidates)
        monkeypatch.setattr(np, "flatnonzero", recording_flatnonzero)
        evaluate(predictions, dataset)
        monkeypatch.undo()

        slots = sum(len(image.instances) for image in dataset.images)
        assert len(slot_gts) == slots
        assert len({id(gt) for gt in slot_gts}) == slots
        assert len(matched_gts) > slots
        assert all(gt is slot_gts[slot - 1] for slot, gt in matched_gts)
        assert indexed and not any(a is gt.bits for gt in slot_gts for a in indexed)
        # Read after the run: a flat not handed over would be taken now.
        assert [slot for slot, _, _ in derived] == sorted({slot for slot, _ in matched_gts})
        assert all(gt_flat is slot_gts[slot - 1].flat for slot, gt_flat, _ in derived)
        windows = {slot: w for slot, _, w in derived}
        assert len(searched) == len(matched_gts)
        assert all(lo is windows[slot][0] and hi is windows[slot][1] for slot, lo, hi in searched)

    @pytest.mark.parametrize("source", ["two_image_fixture", 0, 1, 2, 3])
    def test_unsorted_repeated_thresholds_match_oracle(self, source):
        # Few levels make many thresholds of the sweep give the same
        # binarized map, so one matched map fills a run of rows: each
        # result must still land on its own threshold.
        if source == "two_image_fixture":
            dataset, predictions = two_image_fixture()
        else:
            dataset, predictions = random_dataset(np.random.default_rng(source), n_images=4)
            levels = np.array([0.0, 0.02, 0.5, 0.7, 1.0])
            predictions = {
                image_id: {
                    instance_id: GrayMap(
                        levels[np.searchsorted(levels, graymap.values, side="right") - 1]
                    )
                    for instance_id, graymap in maps.items()
                }
                for image_id, maps in predictions.items()
            }
        cfg = EvalConfig()
        summary = evaluate(predictions, dataset, cfg)
        ods, ois, curve = eval_oracle(
            predictions, dataset, THRESHOLDS, cfg.max_dist_fraction
        )
        assert summary.ods == pytest.approx(ods, abs=1e-9)
        assert summary.ois == pytest.approx(ois, abs=1e-9)
        assert len(summary.curve) == len(curve)
        for pt, (t, p, r, f) in zip(summary.curve, curve):
            assert pt.threshold == t
            assert (pt.precision, pt.recall, pt.fscore) == pytest.approx((p, r, f), abs=1e-9)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate({}, Dataset(images=(), categories={}))

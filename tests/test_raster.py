"""Tests for edge rasterization, tunnel targets, masks, and mask-to-edge."""

import numpy as np
import pytest

from pointedge import (
    TUNNEL_VALUE,
    BitMap,
    GrayMap,
    TunnelTarget,
    build_tunnel_target,
    mask_to_edge,
    rasterize_mask,
    rasterize_polyline,
)

from helpers import (
    make_instance,
    mask_oracle,
    random_star_instance,
    square_instance,
)


def pixel_set(bitmap: BitMap) -> set[tuple[int, int]]:
    return {tuple(p) for p in np.argwhere(bitmap.bits)}


class TestBitMapGrayMap:
    def test_bitmap_accepts_01_ints(self):
        bm = BitMap([[0, 1], [1, 0]])
        assert bm.count() == 2

    def test_bitmap_rejects_other_values(self):
        with pytest.raises(ValueError):
            BitMap([[0, 2]])

    def test_bitmap_is_read_only(self):
        bm = BitMap(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            bm.bits[0, 0] = True

    def test_bitmap_copies_a_writable_array(self):
        bits = np.zeros((3, 4), dtype=bool)
        bm = BitMap(bits)
        bits[0, 0] = True
        assert not bm.bits[0, 0]
        assert not np.shares_memory(bm.bits, bits)

    def test_bitmap_keeps_a_read_only_array_it_owns(self):
        bits = np.zeros((3, 4), dtype=bool)
        bits.flags.writeable = False
        assert np.shares_memory(BitMap(bits).bits, bits)

    def test_bitmap_copies_a_read_only_view(self):
        bits = np.eye(3, 8, dtype=bool)[:, ::2]
        bits.flags.writeable = False
        bm = BitMap(bits)
        assert (bm.bits == bits).all()
        assert not np.shares_memory(bm.bits, bits)
        assert not bm.bits.flags.writeable

    @pytest.mark.parametrize("writeable", [True, False])
    def test_bitmap_converts_01_integers_and_rejects_others(self, writeable):
        ints = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        ints.flags.writeable = writeable
        bm = BitMap(ints)
        assert bm.bits.dtype == np.bool_
        assert bm.bits.tolist() == [[False, True], [True, False]]
        assert not np.shares_memory(bm.bits, ints)
        bad = np.array([[0, 2]])
        bad.flags.writeable = writeable
        with pytest.raises(ValueError, match="0 or 1"):
            BitMap(bad)

    def test_graymap_range_enforced(self):
        with pytest.raises(ValueError):
            GrayMap([[0.5, 1.2]])
        with pytest.raises(ValueError):
            GrayMap([[-0.1]])
        with pytest.raises(ValueError):
            GrayMap([[np.nan]])

    def test_graymap_copies_a_writable_array(self):
        values = np.full((3, 4), 0.5)
        gm = GrayMap(values)
        values[0, 0] = 1.0
        assert gm.values[0, 0] == 0.5
        assert not np.shares_memory(gm.values, values)
        with pytest.raises(ValueError):
            gm.values[0, 0] = 0.0

    def test_graymap_keeps_a_read_only_array_it_owns(self):
        values = np.full((3, 4), 0.5)
        values.flags.writeable = False
        assert np.shares_memory(GrayMap(values).values, values)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_graymap_checks_a_kept_array(self, bad):
        values = np.full((3, 4), 0.5)
        values[1, 2] = bad
        values.flags.writeable = False
        with pytest.raises(ValueError):
            GrayMap(values)

    @pytest.mark.parametrize("source", ["view", "float32"])
    def test_graymap_copies_a_read_only_array_it_cannot_keep(self, source):
        if source == "view":
            values = np.full((3, 8), 0.5)[:, ::2]
        else:
            values = np.full((3, 4), 0.5, dtype=np.float32)
        values.flags.writeable = False
        gm = GrayMap(values)
        assert gm.values.dtype == np.float64
        assert (gm.values == values).all()
        assert not np.shares_memory(gm.values, values)

    def test_bitmap_to_graymap(self):
        gm = BitMap([[0, 1]]).to_graymap()
        assert gm.values.tolist() == [[0.0, 1.0]]


class TestRasterizePolyline:
    def test_coincident_keypoints_single_pixel(self):
        inst = make_instance(((4, 4), (4, 4), (4, 4)))
        out = rasterize_polyline(inst, 10, 10)
        assert pixel_set(out) == {(4, 4)}

    def test_square_ring_perimeter(self):
        out = rasterize_polyline(square_instance(2, 2, 5), 10, 10)
        expected = {
            (y, x)
            for y in range(2, 8)
            for x in range(2, 8)
            if y in (2, 7) or x in (2, 7)
        }
        assert pixel_set(out) == expected
        assert out.count() == 20

    def test_diagonal_segment(self):
        inst = make_instance(((0, 0), (3, 3), (0, 0)))
        out = rasterize_polyline(inst, 5, 5)
        assert pixel_set(out) == {(0, 0), (1, 1), (2, 2), (3, 3)}

    def test_rings_are_closed(self):
        # An L of three points: the closing segment adds the hypotenuse.
        inst = make_instance(((0, 0), (4, 0), (4, 4)))
        out = pixel_set(rasterize_polyline(inst, 6, 6))
        assert (0, 0) in out and (4, 4) in out
        for k in range(5):
            assert (k, k) in out  # closing diagonal

    def test_eight_connected_chain(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            inst = random_star_instance(rng, 24, 24)
            bits = rasterize_polyline(inst, 24, 24).bits
            padded = np.pad(bits, 1)
            # Every edge pixel has a neighbor in its 3x3 box unless the ring
            # rasterizes to a single pixel.
            if bits.sum() < 2:
                continue
            for y, x in np.argwhere(bits):
                box = padded[y:y + 3, x:x + 3]
                assert box.sum() >= 2

    def test_fractional_keypoints_round_to_nearest(self):
        inst = make_instance(((1.4, 1.6), (1.4, 1.6), (1.4, 1.6)))
        assert pixel_set(rasterize_polyline(inst, 4, 4)) == {(2, 1)}


class TestBuildTunnelTarget:
    def test_triangle_values(self):
        inst = make_instance(((2, 2), (12, 3), (6, 11)))
        target = build_tunnel_target(inst, 16, 16)
        levels = set(np.unique(target.map.values).tolist())
        assert levels <= {0.0, TUNNEL_VALUE, 1.0}
        assert target.keypoint_count == 3

    def test_keypoint_pixels_are_one(self):
        inst = make_instance(((2, 2), (12, 3), (6, 11)))
        target = build_tunnel_target(inst, 16, 16)
        assert target.map.values[2, 2] == 1.0
        assert target.map.values[3, 12] == 1.0
        assert target.map.values[11, 6] == 1.0

    def test_chebyshev_distance_one_gets_tunnel_value(self):
        inst = make_instance(((3, 3), (8, 3), (5, 3)))  # flat segment on row 3
        target = build_tunnel_target(inst, 12, 12)
        # Row above and below the segment sit at Chebyshev distance 1.
        assert (target.map.values[2, 3:9] == TUNNEL_VALUE).all()
        assert (target.map.values[4, 3:9] == TUNNEL_VALUE).all()
        # Distance >= 2 stays empty.
        assert (target.map.values[0, :] == 0.0).all()
        assert (target.map.values[6:, :] == 0.0).all()

    def test_edge_pixels_at_least_tunnel_value(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            inst = random_star_instance(rng, 20, 20)
            edges = rasterize_polyline(inst, 20, 20)
            target = build_tunnel_target(inst, 20, 20)
            assert (target.map.values[edges.bits] >= TUNNEL_VALUE).all()

    def test_coincident_keypoints_deduplicated(self):
        inst = make_instance(((4, 4), (4.2, 4.1), (9, 4)))
        target = build_tunnel_target(inst, 12, 12)
        # The first two keypoints round to the same pixel.
        assert target.keypoint_count == 2
        assert int((target.map.values == 1.0).sum()) == 2

    def test_tunnel_target_invariant_enforced(self):
        good = GrayMap([[0.0, 1.0], [TUNNEL_VALUE, 0.0]])
        TunnelTarget(good, 1)
        with pytest.raises(ValueError):
            TunnelTarget(good, 2)  # wrong keypoint count
        with pytest.raises(ValueError):
            TunnelTarget(GrayMap([[0.5, 1.0]]), 1)  # off-grid value


class TestRasterizeMask:
    def test_square_fill_matches_example(self):
        out = rasterize_mask(square_instance(2, 2, 5), 10, 10)
        expected = {(y, x) for y in range(2, 8) for x in range(2, 8)}
        assert pixel_set(out) == expected
        assert out.count() == 36

    def test_degenerate_ring_empty(self):
        # A zero-area ring threaded between lattice points has no interior
        # and touches no pixel sample point.
        inst = make_instance(((2.5, 3.5), (5.5, 3.5), (4.5, 3.5)))
        assert rasterize_mask(inst, 8, 8).count() == 0

    def test_two_disjoint_rings_union(self):
        inst = make_instance(
            ((1, 1), (1, 3), (3, 3), (3, 1)),
            ((6, 6), (6, 8), (8, 8), (8, 6)),
        )
        left = rasterize_mask(make_instance(((1, 1), (1, 3), (3, 3), (3, 1))), 10, 10)
        right = rasterize_mask(make_instance(((6, 6), (6, 8), (8, 8), (8, 6))), 10, 10)
        both = rasterize_mask(inst, 10, 10)
        assert (both.bits == (left.bits | right.bits)).all()

    def test_self_intersecting_ring_rejected(self):
        bowtie = make_instance(((0, 0), (4, 4), (4, 0), (0, 4)))
        with pytest.raises(ValueError):
            rasterize_mask(bowtie, 8, 8)

    def test_matches_point_in_polygon_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            inst = random_star_instance(rng, 14, 14)
            got = rasterize_mask(inst, 14, 14).bits
            want = mask_oracle(inst, 14, 14)
            assert (got == want).all()

    def test_triangle_against_oracle(self):
        inst = make_instance(((1.5, 1.25), (10.75, 2.5), (5.25, 9.75)))
        got = rasterize_mask(inst, 12, 12).bits
        assert (got == mask_oracle(inst, 12, 12)).all()


class TestMaskToEdge:
    def test_empty_mask(self):
        assert mask_to_edge(BitMap(np.zeros((5, 5), dtype=bool))).count() == 0

    def test_single_pixel(self):
        bits = np.zeros((5, 5), dtype=bool)
        bits[2, 3] = True
        assert pixel_set(mask_to_edge(BitMap(bits))) == {(2, 3)}

    def test_filled_square_perimeter(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[2:8, 2:8] = True
        edge = mask_to_edge(BitMap(bits))
        expected = {
            (y, x)
            for y in range(2, 8)
            for x in range(2, 8)
            if y in (2, 7) or x in (2, 7)
        }
        assert pixel_set(edge) == expected
        assert edge.count() == 20

    def test_edge_inside_mask(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            inst = random_star_instance(rng, 16, 16)
            mask = rasterize_mask(inst, 16, 16)
            edge = mask_to_edge(mask)
            assert (edge.bits <= mask.bits).all()

    def test_border_touching_mask_has_frame_edge(self):
        bits = np.ones((4, 6), dtype=bool)
        edge = mask_to_edge(BitMap(bits))
        # Zero padding outside the image makes the outermost rows/cols edges.
        assert edge.bits[0].all() and edge.bits[-1].all()
        assert edge.bits[:, 0].all() and edge.bits[:, -1].all()
        assert not edge.bits[1:-1, 1:-1].any()


def test_rasterize_rejects_bad_dimensions():
    inst = make_instance(((0, 0), (2, 0), (1, 2)))
    with pytest.raises(ValueError):
        rasterize_polyline(inst, 0, 5)
    with pytest.raises(ValueError):
        rasterize_mask(inst, 5, -1)

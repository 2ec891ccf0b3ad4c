"""Tests for the map types, edge rasterization and tunnel targets."""

import tracemalloc

import numpy as np
import pytest

from pointedge import (
    TUNNEL_VALUE,
    BitMap,
    GrayMap,
    TunnelTarget,
    binarize,
    build_tunnel_target,
    rasterize_polyline,
    write_graymap,
)
from pointedge.metrics import THRESHOLDS
from pointedge.raster import _firing_counts

from helpers import (
    make_instance,
    polyline_oracle,
    random_star_instance,
    square_instance,
    tunnel_target_oracle,
)


def pixel_set(bitmap: BitMap) -> set[tuple[int, int]]:
    return {tuple(p) for p in np.argwhere(bitmap.bits)}


def assert_bitmap_reads_as(edges: BitMap, frame_bits: np.ndarray) -> None:
    """``edges`` reads, in ``bits``, ``flat``, ``height`` and ``width``, as
    the frame map of ``frame_bits`` does; its frame is read-only."""
    whole = BitMap(frame_bits)
    assert (edges.height, edges.width) == (whole.height, whole.width) == frame_bits.shape
    assert np.array_equal(edges.flat, whole.flat)
    assert edges.flat.dtype == np.intp and not edges.flat.flags.writeable
    assert edges.bits.dtype == np.bool_ and not edges.bits.flags.writeable
    assert np.array_equal(edges.bits, frame_bits)


class TestBitMapGrayMap:
    def test_bitmap_accepts_01_ints(self):
        bm = BitMap([[0, 1], [1, 0]])
        assert len(bm.flat) == 2

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

    def test_bitmap_flat_is_its_sorted_read_only_set_pixels(self):
        bits = np.random.default_rng(3).random((9, 13)) < 0.3
        bm = BitMap(bits)
        flat = bm.flat
        assert np.array_equal(flat, np.flatnonzero(bits))
        assert (np.diff(flat) > 0).all()
        assert not flat.flags.writeable
        assert bm.flat is flat
        empty = BitMap(np.zeros((4, 5), dtype=bool)).flat
        assert empty.shape == (0,)
        assert not empty.flags.writeable

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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "GrayMap values must be finite"),
            (np.inf, "GrayMap values must be finite"),
            (-np.inf, "GrayMap values must be finite"),
            (-0.1, "GrayMap values must lie in [0, 1]"),
            (1.5, "GrayMap values must lie in [0, 1]"),
        ],
    )
    @pytest.mark.parametrize("source", ["list", "kept"])
    def test_graymap_rejection_messages(self, bad, message, source):
        values = np.full((3, 4), 0.5)
        values[2, 1] = bad
        if source == "list":
            values = values.tolist()
        else:
            values.flags.writeable = False
        with pytest.raises(ValueError) as info:
            GrayMap(values)
        assert str(info.value) == message

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


class TestBoxedGrayMap:
    """A map, gray or bit, that holds a box of its frame agrees, in every
    reading, with the frame map whose pixels outside the box are 0."""

    FRAME = (7, 9)

    @staticmethod
    def box_levels(kind, shape):
        rng = np.random.default_rng(sum(shape))
        if kind == "float":
            # Zeros, exact thresholds, and values between them.
            grid = [0.0, *THRESHOLDS, 1.0]
            picks = rng.choice(grid, size=shape)
            return np.where(rng.random(shape) < 0.5, picks, rng.random(shape)), None
        return rng.integers(0, 65536, size=shape).astype(np.uint16), 65535

    @pytest.mark.parametrize("kind", ["float", "samples"])
    @pytest.mark.parametrize(
        "shape, origin",
        [
            ((3, 4), (0, 0)),
            ((3, 4), (0, 5)),
            ((3, 4), (4, 0)),
            ((3, 4), (4, 5)),
            ((1, 1), (3, 4)),
            ((7, 9), (0, 0)),
            ((2, 9), (0, 0)),
            ((2, 9), (5, 0)),
            ((7, 4), (0, 3)),
            ((0, 4), (3, 2)),
        ],
        ids=[
            "top-left", "top-right", "bottom-left", "bottom-right", "1x1", "frame",
            "first-rows", "last-rows", "every-row", "no-rows",
        ],
    )
    def test_boxed_map_reads_as_its_frame_map(self, kind, shape, origin, tmp_path):
        levels, maxval = self.box_levels(kind, shape)
        (top, left), (rows, cols) = origin, shape
        frame_levels = np.zeros(self.FRAME, dtype=levels.dtype)
        frame_levels[top:top + rows, left:left + cols] = levels
        boxed = GrayMap(levels, maxval, frame=self.FRAME, origin=origin)
        whole = GrayMap(frame_levels, maxval)
        assert (boxed.height, boxed.width) == self.FRAME
        assert np.array_equal(boxed.values, whole.values)
        assert np.array_equal(boxed.values, GrayMap(boxed.values).values)
        assert not boxed.values.flags.writeable
        for t in THRESHOLDS:
            edges, want = binarize(boxed, t), binarize(whole, t).bits
            assert "bits" not in vars(edges)  # it holds the gray map's box
            assert_bitmap_reads_as(edges, want)
            box = want[top:top + rows, left:left + cols]
            assert_bitmap_reads_as(BitMap(box, frame=self.FRAME, origin=origin), want)
        unset = BitMap(np.zeros(shape, dtype=bool), frame=self.FRAME, origin=origin)
        assert_bitmap_reads_as(unset, np.zeros(self.FRAME, dtype=bool))
        assert _firing_counts(boxed, THRESHOLDS) == _firing_counts(whole, THRESHOLDS)
        write_graymap(boxed, tmp_path / "boxed.pgm")
        write_graymap(whole, tmp_path / "whole.pgm")
        assert (tmp_path / "boxed.pgm").read_bytes() == (tmp_path / "whole.pgm").read_bytes()
        header = f"P5\n{self.FRAME[1]} {self.FRAME[0]}\n65535\n".encode("ascii")
        dense = header + np.rint(whole.values * 65535).astype(">u2").tobytes()
        assert (tmp_path / "boxed.pgm").read_bytes() == dense

    @pytest.mark.parametrize(
        "placement, message",
        [
            ({"origin": (-1, 0)}, "GrayMap origin must not be negative, got (-1, 0)"),
            ({"origin": (0, -2)}, "GrayMap origin must not be negative, got (0, -2)"),
            ({"origin": (5, 0)}, "GrayMap box of 3x4 at (5, 0) leaves its 7x9 frame"),
            ({"origin": (0, 6)}, "GrayMap box of 3x4 at (0, 6) leaves its 7x9 frame"),
            ({"frame": (2, 9)}, "GrayMap box of 3x4 at (0, 0) leaves its 2x9 frame"),
            ({"origin": (1.5, 0)}, "GrayMap origin must be two integers, got (1.5, 0)"),
            ({"origin": 3}, "GrayMap origin must be two integers, got 3"),
            ({"origin": (1,)}, "GrayMap origin must be two integers, got (1,)"),
            ({"frame": (7.0, 9)}, "GrayMap frame must be two integers, got (7.0, 9)"),
            ({"frame": "79"}, "GrayMap frame must be two integers, got '79'"),
        ],
    )
    def test_bad_placement_is_named(self, placement, message):
        placement = {"frame": self.FRAME, **placement}
        with pytest.raises(ValueError) as info:
            GrayMap(np.full((3, 4), 0.5), **placement)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            BitMap(np.ones((3, 4), dtype=bool), **placement)
        assert str(info.value) == message.replace("GrayMap", "BitMap")


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
        assert len(out.flat) == 20

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
        good = GrayMap([[0.0, 1.0], [TUNNEL_VALUE, 1.0]])
        assert TunnelTarget(good).keypoint_count == 2
        with pytest.raises(ValueError):
            TunnelTarget(GrayMap([[0.5, 1.0]]))  # off-grid value

    @pytest.mark.parametrize("level", [0.0, TUNNEL_VALUE])
    def test_a_target_without_a_pixel_at_one_is_rejected(self, level):
        box = np.full((2, 3), level)
        message = "tunnel target has no pixel at 1.0, so no keypoint"
        for graymap in (GrayMap(box), GrayMap(box, frame=(5, 7), origin=(3, 4))):
            with pytest.raises(ValueError) as info:
                TunnelTarget(graymap)
            assert str(info.value) == message

    def test_keypoint_count_is_counted_in_the_box(self):
        box = np.array([[1.0, TUNNEL_VALUE], [1.0, 1.0]])
        assert TunnelTarget(GrayMap(box, frame=(9, 9), origin=(7, 0))).keypoint_count == 3
        samples = np.array([[10, 7, 0, 10]], dtype=np.uint8)
        assert TunnelTarget(GrayMap(samples, 10, frame=(2, 4), origin=(1, 0))).keypoint_count == 2

    def test_off_grid_message_lists_the_sorted_distinct_values(self):
        off_grid = GrayMap([[0.5, 1.0, 0.0, 0.5]])
        message = "tunnel target values must be in {0.0, 0.7, 1.0}, got [0.  0.5 1. ]"
        with pytest.raises(ValueError) as info:
            TunnelTarget(off_grid)
        assert str(info.value) == message

    def test_off_grid_message_of_a_box_counts_the_zeros_outside_it(self):
        off_grid = GrayMap([[0.5, 1.0]], frame=(3, 3), origin=(1, 1))
        message = "tunnel target values must be in {0.0, 0.7, 1.0}, got [0.  0.5 1. ]"
        with pytest.raises(ValueError) as info:
            TunnelTarget(off_grid)
        assert str(info.value) == message

    def test_memory_is_bounded_by_the_box(self, tmp_path):
        # A small ring in a 1024x2048 frame: its float frame would take
        # 16 MiB, and its sample frame takes 4 MiB.
        inst = make_instance(((1000, 500), (1040, 510), (1020, 540)))
        path = tmp_path / "target.pgm"
        build_tunnel_target(inst, 1024, 2048)  # first-call set-up is not counted
        tracemalloc.start()
        try:
            target = build_tunnel_target(inst, 1024, 2048)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            write_graymap(target.map, path)
            write_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert build_peak < 2**20
        assert write_peak < 1024 * 2048 * 2 + 2 * target.map.levels.nbytes
        assert path.stat().st_size == len(b"P5\n2048 1024\n65535\n") + 1024 * 2048 * 2

    def test_rows_outside_the_box_are_holes(self, tmp_path):
        # The same 1024x2048 target: its box spans 43 of the frame's 1024 rows.
        probe = tmp_path / "probe"
        with open(probe, "wb") as f:
            f.seek(2**20)
            f.write(b"\1" * 4096)
        if probe.stat().st_blocks * 512 >= 2**20:
            pytest.skip("the file system stores a 1 MiB hole as data")
        inst = make_instance(((1000, 500), (1040, 510), (1020, 540)))
        path = tmp_path / "target.pgm"
        write_graymap(build_tunnel_target(inst, 1024, 2048).map, path)
        written = path.stat()
        assert written.st_size == len(b"P5\n2048 1024\n65535\n") + 1024 * 2048 * 2
        assert written.st_blocks * 512 < written.st_size // 2


def assert_matches_the_full_frame_oracle(inst, height, width, tmp_path):
    edges, want = rasterize_polyline(inst, height, width), polyline_oracle(inst, height, width)
    # The raster holds its ring box: the set pixels' flat indices are taken
    # from it, and the frame is built only when its bits are read.
    assert not edges.flat.flags.writeable
    assert edges.flat.dtype == np.intp
    assert np.array_equal(edges.flat, np.flatnonzero(want))
    assert "bits" not in vars(edges)
    assert np.array_equal(edges.bits, want)
    target = build_tunnel_target(inst, height, width)
    values, keypoint_count = tunnel_target_oracle(inst, height, width)
    assert (target.map.height, target.map.width) == (height, width)
    assert target.map.values.dtype == np.float64
    assert np.array_equal(target.map.values, values)
    assert target.keypoint_count == keypoint_count
    assert not target.map.values.flags.writeable
    write_graymap(target.map, tmp_path / "target.pgm")
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    samples = np.rint(values * 65535).astype(">u2").tobytes()
    assert (tmp_path / "target.pgm").read_bytes() == header + samples


class TestFullFrameOracle:
    """Rasters and tunnel targets equal the ones drawn over the whole frame."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_instances(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        for height, width in ((20, 20), (17, 31), (40, 9)):
            for _ in range(5):
                assert_matches_the_full_frame_oracle(
                    random_star_instance(rng, height, width), height, width, tmp_path
                )

    @pytest.mark.parametrize(
        "ring",
        [
            ((-4, 3), (5, 2), (4, 6)),  # left
            ((3, -6), (7, 4), (1, 5)),  # top
            ((2, 3), (15, 4), (5, 7)),  # right
            ((2, 3), (6, 2), (4, 14)),  # bottom
            ((-3, -2), (13, -1), (12, 12), (-2, 11)),  # all four
            ((-1e6, 4), (1e6, 4.4), (0, -1e6)),  # far outside
        ],
        ids=["left", "top", "right", "bottom", "all-four", "far"],
    )
    def test_rings_clipped_at_the_borders(self, ring, tmp_path):
        assert_matches_the_full_frame_oracle(make_instance(ring), 9, 11, tmp_path)

    def test_multi_ring_instances(self, tmp_path):
        inst = make_instance(
            ((1, 1), (6, 1), (4, 5)),
            ((8, 8), (12, 9), (10, 13)),
            ((3, 10), (3.2, 10.4), (2.6, 9.8)),
        )
        assert_matches_the_full_frame_oracle(inst, 15, 14, tmp_path)
        # Overlapping rings, and rings whose tunnels touch.
        inst = make_instance(((2, 2), (9, 2), (5, 8)), ((3, 3), (10, 4), (6, 9)))
        assert_matches_the_full_frame_oracle(inst, 12, 12, tmp_path)
        inst = make_instance(((1, 1), (4, 1), (2, 3)), ((6, 1), (9, 1), (7, 3)))
        assert_matches_the_full_frame_oracle(inst, 6, 11, tmp_path)

    @pytest.mark.parametrize("at", [(0, 0), (4, 3), (10, 8), (0, 8), (10, 0)])
    def test_one_pixel_rings(self, at, tmp_path):
        x, y = at
        inst = make_instance(((x, y), (x + 0.2, y - 0.3), (x - 0.4, y + 0.1)))
        assert_matches_the_full_frame_oracle(inst, 9, 11, tmp_path)

    @pytest.mark.parametrize("height, width", [(1, 1), (1, 7), (7, 1), (2, 9)])
    def test_thin_frames(self, height, width, tmp_path):
        for ring in (
            ((0, 0), (width - 1, 0), (width / 2, height - 1)),
            ((-3, -3), (width + 3, height + 3), (2, 0)),
            ((1, 0), (1, 0), (1, 0)),
        ):
            assert_matches_the_full_frame_oracle(make_instance(ring), height, width, tmp_path)


def test_rasterize_rejects_bad_dimensions():
    inst = make_instance(((0, 0), (2, 0), (1, 2)))
    with pytest.raises(ValueError):
        rasterize_polyline(inst, 0, 5)
    with pytest.raises(ValueError):
        build_tunnel_target(inst, 5, -1)

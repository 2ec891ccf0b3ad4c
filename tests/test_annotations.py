"""Tests for annotation parsing, validation, and keypoint subsampling."""

import json
import math
import re

import numpy as np
import pytest

from pointedge import (
    Dataset,
    ImageRecord,
    InstanceAnnotation,
    Keypoint,
    ParseError,
    parse_dataset,
    subsample_keypoints,
)

from helpers import make_instance, ring_of, serialize_dataset


def doc(images, annotations, categories=None):
    if categories is None:
        categories = [{"id": 0, "name": "thing"}]
    return json.dumps(
        {"images": images, "annotations": annotations, "categories": categories}
    )


TRIANGLE_DOC = doc(
    [{"id": 1, "height": 20, "width": 30}],
    [
        {
            "id": 7,
            "image_id": 1,
            "category_id": 0,
            "bbox": [2, 2, 10, 8],
            "segmentation": [[2, 2, 12, 3, 6, 10]],
        }
    ],
)


class TestParseDataset:
    def test_single_triangle(self):
        ds = parse_dataset(TRIANGLE_DOC)
        assert len(ds.images) == 1
        image = ds.images[0]
        assert (image.image_id, image.height, image.width) == (1, 20, 30)
        assert len(image.instances) == 1
        inst = image.instances[0]
        assert inst.instance_id == 7
        assert inst.category_id == 0
        assert inst.keypoint_count == 3
        assert inst.rings[0] == ring_of((2, 2), (12, 3), (6, 10))

    def test_images_without_annotations(self):
        ds = parse_dataset(doc([{"id": 1, "height": 4, "width": 4}], []))
        assert len(ds.images) == 1
        assert ds.images[0].instances == ()

    def test_two_point_ring_rejected(self):
        bad = doc(
            [{"id": 1, "height": 8, "width": 8}],
            [
                {
                    "id": 1,
                    "image_id": 1,
                    "category_id": 0,
                    "bbox": [1, 1, 2, 2],
                    "segmentation": [[1, 1, 3, 3]],
                }
            ],
        )
        with pytest.raises(ValueError):
            parse_dataset(bad)

    def test_malformed_record_named_in_error(self):
        bad = doc(
            [{"id": 1, "height": 8, "width": 8}],
            [{"id": 42, "image_id": 1, "category_id": 0, "bbox": [0, 0, 1, 1]}],
        )
        with pytest.raises(ParseError, match="annotation 42"):
            parse_dataset(bad)

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_dataset("{not json")

    def test_unknown_image_reference(self):
        bad = doc(
            [{"id": 1, "height": 8, "width": 8}],
            [
                {
                    "id": 1,
                    "image_id": 99,
                    "category_id": 0,
                    "bbox": [0, 0, 1, 1],
                    "segmentation": [[0, 0, 2, 0, 1, 2]],
                }
            ],
        )
        with pytest.raises(ParseError, match="99"):
            parse_dataset(bad)

    def test_keypoints_clamped_into_bounds(self):
        text = doc(
            [{"id": 1, "height": 10, "width": 10}],
            [
                {
                    "id": 1,
                    "image_id": 1,
                    "category_id": 0,
                    "bbox": [0, 0, 10, 10],
                    "segmentation": [[-1, 0, 10, 0, 5, 12]],
                }
            ],
        )
        ds = parse_dataset(text)
        for kp in ds.images[0].instances[0].rings[0]:
            assert 0.0 <= kp.x < 10.0
            assert 0.0 <= kp.y < 10.0

    def test_extra_fields_ignored(self):
        text = doc(
            [{"id": 1, "height": 8, "width": 8, "file_name": "a.jpg"}],
            [
                {
                    "id": 1,
                    "image_id": 1,
                    "category_id": 0,
                    "bbox": [1, 1, 3, 3],
                    "segmentation": [[1, 1, 4, 1, 2, 4]],
                    "iscrowd": 0,
                    "area": 4.5,
                }
            ],
        )
        assert len(parse_dataset(text).images[0].instances) == 1

    def test_ordering_by_image_then_instance(self):
        text = doc(
            [{"id": 5, "height": 8, "width": 8}, {"id": 2, "height": 8, "width": 8}],
            [
                {
                    "id": 9,
                    "image_id": 5,
                    "category_id": 0,
                    "bbox": [1, 1, 2, 2],
                    "segmentation": [[1, 1, 3, 1, 2, 3]],
                },
                {
                    "id": 3,
                    "image_id": 5,
                    "category_id": 0,
                    "bbox": [4, 4, 2, 2],
                    "segmentation": [[4, 4, 6, 4, 5, 6]],
                },
            ],
        )
        ds = parse_dataset(text)
        assert [im.image_id for im in ds.images] == [2, 5]
        assert [i.instance_id for i in ds.images[1].instances] == [3, 9]

    def test_roundtrip_identity(self):
        ds = parse_dataset(TRIANGLE_DOC)
        assert parse_dataset(serialize_dataset(ds)) == ds


def triangle_with(bbox=(2, 2, 10, 8), ring=(2, 2, 12, 3, 6, 10)) -> str:
    """TRIANGLE_DOC with annotation 7's bbox or ring replaced."""
    annotation = {
        "id": 7, "image_id": 1, "category_id": 0,
        "bbox": list(bbox), "segmentation": [list(ring)],
    }
    return doc([{"id": 1, "height": 20, "width": 30}], [annotation])


BAD_NUMBERS = [
    ("x", "must be a number"),
    (True, "must be a number"),
    (None, "must be a number"),
    (float("nan"), "must be finite"),
    (float("inf"), "must be finite"),
    (-float("inf"), "must be finite"),
    (10**400, "must be finite"),
]


class TestCoordinateValidation:
    @pytest.mark.parametrize("value,what", BAD_NUMBERS)
    @pytest.mark.parametrize("index", [0, 3])
    def test_bad_ring_coordinate(self, value, what, index):
        ring = [2, 2, 12, 3, 6, 10]
        ring[index] = value
        field = re.escape(f"field 'segmentation[0][{index}]' {what}")
        with pytest.raises(ParseError, match=f"annotation 7: {field}"):
            parse_dataset(triangle_with(ring=ring))

    @pytest.mark.parametrize("value,what", BAD_NUMBERS)
    @pytest.mark.parametrize("index", [0, 2])
    def test_bad_bbox_entry(self, value, what, index):
        bbox = [2, 2, 10, 8]
        bbox[index] = value
        field = re.escape(f"field 'bbox[{index}]' {what}")
        with pytest.raises(ParseError, match=f"annotation 7: {field}"):
            parse_dataset(triangle_with(bbox=bbox))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_id_rejected(self, value):
        text = doc([{"id": 1, "height": value, "width": 30}], [])
        with pytest.raises(ParseError, match="image 1: field 'height' must be an integer"):
            parse_dataset(text)

    def test_float_and_integer_coordinates_accepted(self):
        text = triangle_with(bbox=(2.5, 2, 10, 8.25), ring=(2.5, 2, 12, 3.75, 6, 10))
        inst = parse_dataset(text).images[0].instances[0]
        assert inst.bbox == (2.5, 2.0, 10.0, 8.25)
        assert inst.rings[0] == ring_of((2.5, 2), (12, 3.75), (6, 10))


class TestValidation:
    def test_ring_too_short(self):
        with pytest.raises(ValueError):
            InstanceAnnotation(
                instance_id=1,
                category_id=0,
                rings=(ring_of((0, 0), (1, 1)),),
                bbox=(0, 0, 1, 1),
            )

    def test_bad_bbox(self):
        with pytest.raises(ValueError):
            InstanceAnnotation(
                instance_id=1,
                category_id=0,
                rings=(ring_of((0, 0), (3, 0), (1, 2)),),
                bbox=(0, 0, 0, 2),
            )

    def test_negative_category(self):
        with pytest.raises(ValueError):
            InstanceAnnotation(
                instance_id=1,
                category_id=-1,
                rings=(ring_of((0, 0), (3, 0), (1, 2)),),
                bbox=(0, 0, 3, 2),
            )

    def test_duplicate_instance_ids_in_image(self):
        inst = make_instance(((1, 1), (3, 1), (2, 3)))
        with pytest.raises(ValueError):
            ImageRecord(image_id=1, height=8, width=8, instances=(inst, inst))

    def test_keypoint_outside_image(self):
        inst = make_instance(((1, 1), (9, 1), (2, 3)))
        with pytest.raises(ValueError):
            ImageRecord(image_id=1, height=8, width=8, instances=(inst,))

    def test_category_must_be_known(self):
        inst = make_instance(((1, 1), (3, 1), (2, 3)), category_id=5)
        image = ImageRecord(image_id=1, height=8, width=8, instances=(inst,))
        with pytest.raises(ValueError):
            Dataset(images=(image,), categories={0: "thing"})

    def test_duplicate_image_ids(self):
        image = ImageRecord(image_id=1, height=8, width=8, instances=())
        with pytest.raises(ValueError):
            Dataset(images=(image, image), categories={})


class TestSubsampleKeypoints:
    def ten_ring(self):
        pts = tuple(
            (16 + 8 * math.cos(k * math.pi / 5), 16 + 8 * math.sin(k * math.pi / 5))
            for k in range(10)
        )
        return make_instance(pts)

    def test_ratio_one_is_identity(self):
        inst = self.ten_ring()
        assert subsample_keypoints(inst, 1.0, seed=3) is inst

    def test_half_ratio_keeps_five_in_order(self):
        inst = self.ten_ring()
        out = subsample_keypoints(inst, 0.5, seed=11)
        kept = out.rings[0]
        assert len(kept) == 5
        original = inst.rings[0]
        indices = [original.index(kp) for kp in kept]
        assert indices == sorted(indices)
        assert len(set(indices)) == 5

    def test_deterministic(self):
        inst = self.ten_ring()
        a = subsample_keypoints(inst, 0.4, seed=7)
        b = subsample_keypoints(inst, 0.4, seed=7)
        assert a == b
        c = subsample_keypoints(inst, 0.4, seed=8)
        assert a != c  # overwhelmingly likely for a 10-point ring

    def test_minimum_three_points(self):
        inst = self.ten_ring()
        out = subsample_keypoints(inst, 0.05, seed=0)
        assert len(out.rings[0]) == 3

    def test_ceil_rule(self):
        inst = self.ten_ring()
        out = subsample_keypoints(inst, 0.61, seed=0)
        assert len(out.rings[0]) == 7  # ceil(6.1)

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5])
    def test_bad_ratio(self, ratio):
        with pytest.raises(ValueError):
            subsample_keypoints(self.ten_ring(), ratio, seed=0)

    def test_negative_seed_names_the_seed_and_instance(self):
        six = tuple((8 + 4 * math.cos(k * math.pi / 3), 8 + 4 * math.sin(k * math.pi / 3)) for k in range(6))
        inst = make_instance(six, instance_id=7)
        with pytest.raises(
            ValueError, match=r"^instance 7: seed must be a non-negative integer, got -1$"
        ):
            subsample_keypoints(inst, 0.5, seed=-1)

    def test_rings_sampled_independently(self):
        two_rings = make_instance(
            tuple((4 + 3 * math.cos(k * math.pi / 4), 4 + 3 * math.sin(k * math.pi / 4)) for k in range(8)),
            tuple((14 + 3 * math.cos(k * math.pi / 4), 14 + 3 * math.sin(k * math.pi / 4)) for k in range(8)),
        )
        out = subsample_keypoints(two_rings, 0.5, seed=2)
        assert len(out.rings) == 2
        assert all(len(ring) == 4 for ring in out.rings)

    def test_subset_property_random(self):
        rng = np.random.default_rng(0)
        inst = self.ten_ring()
        for _ in range(25):
            ratio = float(rng.uniform(0.05, 1.0))
            seed = int(rng.integers(0, 1_000_000))
            out = subsample_keypoints(inst, ratio, seed)
            for ring_in, ring_out in zip(inst.rings, out.rings):
                assert set(ring_out) <= set(ring_in)
                assert len(ring_out) >= 3


def test_keypoint_is_a_plain_pair():
    kp = Keypoint(3.5, 4.25)
    x, y = kp
    assert (x, y) == (3.5, 4.25)

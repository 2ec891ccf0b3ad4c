"""Keypoint-polygon instance annotations: parsing, validation, subsampling.

The on-disk format is a COCO-instances-compatible JSON subset with three
arrays: ``images`` (id, height, width), ``annotations`` (id, image_id,
category_id, bbox as [x, y, w, h], segmentation as a list of flat
[x0, y0, x1, y1, ...] rings), and ``categories`` (id, name). Unknown fields
are ignored. Keypoints are clamped into image bounds on ingest; all types
are immutable and all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "Keypoint",
    "InstanceAnnotation",
    "ImageRecord",
    "Dataset",
    "ParseError",
    "parse_dataset",
    "subsample_keypoints",
]


class ParseError(ValueError):
    """Raised when an annotation document is structurally malformed."""


class Keypoint(NamedTuple):
    """A point on an object boundary, in pixel coordinates."""

    x: float
    y: float


Ring = tuple[Keypoint, ...]


@dataclass(frozen=True)
class InstanceAnnotation:
    """One annotated object instance.

    Attributes:
        instance_id: Unique id within the parent image.
        category_id: Non-negative category id.
        rings: Closed keypoint polylines; the last point implicitly connects
            back to the first. Each ring needs at least 3 keypoints.
        bbox: (x, y, width, height) in pixels, width and height positive.
    """

    instance_id: int
    category_id: int
    rings: tuple[Ring, ...]
    bbox: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if self.category_id < 0:
            raise ValueError(f"instance {self.instance_id}: category_id must be >= 0")
        for i, ring in enumerate(self.rings):
            if len(ring) < 3:
                raise ValueError(
                    f"instance {self.instance_id}: ring {i} has {len(ring)} "
                    "keypoints; need at least 3"
                )
        x, y, w, h = self.bbox
        if not (w > 0 and h > 0):
            raise ValueError(
                f"instance {self.instance_id}: bbox width/height must be positive"
            )

    @property
    def keypoint_count(self) -> int:
        return sum(len(ring) for ring in self.rings)

    def all_keypoints(self) -> Iterable[Keypoint]:
        for ring in self.rings:
            yield from ring


@dataclass(frozen=True)
class ImageRecord:
    """An image's dimensions together with its instance annotations."""

    image_id: int
    height: int
    width: int
    instances: tuple[InstanceAnnotation, ...]

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ValueError(f"image {self.image_id}: dimensions must be >= 1")
        seen: set[int] = set()
        for inst in self.instances:
            if inst.instance_id in seen:
                raise ValueError(
                    f"image {self.image_id}: duplicate instance_id {inst.instance_id}"
                )
            seen.add(inst.instance_id)
            for kp in inst.all_keypoints():
                if not (0.0 <= kp.x < self.width and 0.0 <= kp.y < self.height):
                    raise ValueError(
                        f"image {self.image_id}: instance {inst.instance_id} keypoint "
                        f"({kp.x}, {kp.y}) outside [0,{self.width})x[0,{self.height})"
                    )


@dataclass(frozen=True)
class Dataset:
    """A collection of annotated images plus the category id -> name table."""

    images: tuple[ImageRecord, ...]
    categories: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for image in self.images:
            if image.image_id in seen:
                raise ValueError(f"duplicate image_id {image.image_id}")
            seen.add(image.image_id)
            for inst in image.instances:
                if inst.category_id not in self.categories:
                    raise ValueError(
                        f"image {image.image_id}: instance {inst.instance_id} uses "
                        f"unknown category_id {inst.category_id}"
                    )


def _clamp(v: float, lo: float, hi_exclusive: float) -> float:
    # Clamp into [lo, hi_exclusive) so downstream pixel rounding stays in range.
    return min(max(v, lo), math.nextafter(hi_exclusive, lo))


def _require(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise ParseError(f"{where}: {what}")


def _as_int(value: object, where: str, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: field '{key}' must be a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{where}: field '{key}' must be an integer")
    out = int(value)
    if out != value:
        raise ParseError(f"{where}: field '{key}' must be an integer")
    if not -(2**63) <= out < 2**63:  # ids name output files; sizes index arrays
        raise ParseError(f"{where}: field '{key}' must fit in 64 bits")
    return out


def _as_coord(value: object, where: str, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: field '{key}' must be a number")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ParseError(f"{where}: field '{key}' must be finite")
    return out


def parse_dataset(text: str) -> Dataset:
    """Parse an annotation document into a validated :class:`Dataset`.

    Keypoints are clamped into image bounds, polygons become rings, and the
    result is ordered by image_id then instance_id.

    Raises:
        ParseError: the document is malformed; the message names the record.
        ValueError: a record violates an invariant (e.g. a ring with fewer
            than 3 keypoints).
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "document", "top level must be an object")
    for key in ("images", "annotations", "categories"):
        _require(isinstance(doc.get(key), list), "document", f"missing array '{key}'")

    categories: dict[int, str] = {}
    for rec in doc["categories"]:
        where = f"category {rec.get('id', '?') if isinstance(rec, dict) else '?'}"
        _require(isinstance(rec, dict), where, "must be an object")
        cid = _as_int(rec.get("id"), where, "id")
        _require(isinstance(rec.get("name"), str), where, "field 'name' must be a string")
        categories[cid] = rec["name"]

    dims: dict[int, tuple[int, int]] = {}
    for rec in doc["images"]:
        where = f"image {rec.get('id', '?') if isinstance(rec, dict) else '?'}"
        _require(isinstance(rec, dict), where, "must be an object")
        iid = _as_int(rec.get("id"), where, "id")
        h = _as_int(rec.get("height"), where, "height")
        w = _as_int(rec.get("width"), where, "width")
        _require(iid not in dims, where, "duplicate image id")
        dims[iid] = (h, w)

    per_image: dict[int, list[InstanceAnnotation]] = {iid: [] for iid in dims}
    for rec in doc["annotations"]:
        where = f"annotation {rec.get('id', '?') if isinstance(rec, dict) else '?'}"
        _require(isinstance(rec, dict), where, "must be an object")
        aid = _as_int(rec.get("id"), where, "id")
        iid = _as_int(rec.get("image_id"), where, "image_id")
        cid = _as_int(rec.get("category_id"), where, "category_id")
        _require(iid in dims, where, f"references unknown image_id {iid}")
        bbox = rec.get("bbox")
        _require(
            isinstance(bbox, list) and len(bbox) == 4,
            where,
            "field 'bbox' must be [x, y, w, h]",
        )
        box = tuple(_as_coord(v, where, f"bbox[{j}]") for j, v in enumerate(bbox))
        seg = rec.get("segmentation")
        _require(isinstance(seg, list), where, "field 'segmentation' must be a list of rings")
        h, w = dims[iid]
        rings: list[Ring] = []
        for r, ring in enumerate(seg):
            _require(
                isinstance(ring, list) and len(ring) % 2 == 0,
                where,
                "each ring must be a flat [x0, y0, x1, y1, ...] list",
            )
            xy = [_as_coord(v, where, f"segmentation[{r}][{i}]") for i, v in enumerate(ring)]
            pts = tuple(
                Keypoint(_clamp(xy[i], 0.0, float(w)), _clamp(xy[i + 1], 0.0, float(h)))
                for i in range(0, len(xy), 2)
            )
            rings.append(pts)
        per_image[iid].append(
            InstanceAnnotation(
                instance_id=aid,
                category_id=cid,
                rings=tuple(rings),
                bbox=box,
            )
        )

    images = tuple(
        ImageRecord(
            image_id=iid,
            height=dims[iid][0],
            width=dims[iid][1],
            instances=tuple(sorted(per_image[iid], key=lambda a: a.instance_id)),
        )
        for iid in sorted(dims)
    )
    return Dataset(images=images, categories=categories)


def subsample_keypoints(
    inst: InstanceAnnotation, ratio: float, seed: int
) -> InstanceAnnotation:
    """Randomly drop keypoints from each ring while preserving cyclic order.

    Each ring independently keeps ``ceil(ratio * len(ring))`` keypoints (never
    fewer than 3), chosen uniformly without replacement by a generator derived
    from ``seed``, the instance id (modulo 2**64, since the generator takes
    only non-negative seed material) and the ring index. ``ratio == 1``
    returns the input unchanged. A negative ``seed`` is a ``ValueError``.
    """
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    if seed < 0:
        raise ValueError(
            f"instance {inst.instance_id}: seed must be a non-negative integer, got {seed}"
        )
    if ratio == 1.0:
        return inst
    rings: list[Ring] = []
    for ring_index, ring in enumerate(inst.rings):
        n = len(ring)
        keep = max(3, math.ceil(ratio * n))
        if keep >= n:
            rings.append(ring)
            continue
        rng = np.random.default_rng([seed, inst.instance_id % 2**64, ring_index])
        idx = np.sort(rng.choice(n, size=keep, replace=False))
        rings.append(tuple(ring[i] for i in idx))
    return InstanceAnnotation(
        instance_id=inst.instance_id,
        category_id=inst.category_id,
        rings=tuple(rings),
        bbox=inst.bbox,
    )

"""Seeded, download-free inputs for the benchmark workloads.

Everything here is plain numpy/scipy and never imports ``pointedge``: the
program under test sees only the files these functions write, so a change to
the program cannot change its own inputs. The same seed always yields
byte-identical files.

Images are BSDS-shaped (321x481, the size used by the ODS/OIS protocol of
Arbelaez et al., TPAMI 2011). Instances are star polygons: vertices at
strictly increasing angles around a centre, so every ring is simple.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import ndimage

HEIGHT, WIDTH = 321, 481
CATEGORIES = ({"id": 1, "name": "object"}, {"id": 2, "name": "animal"}, {"id": 3, "name": "vehicle"})

# Per-workload inputs: the annotated images that make-targets and eval run
# on, where eval's predictions come from, and the images of the train chain;
# and how often each operation repeats in its process per round, so that
# the cheap ones give enough samples for a steady median.
# Radii set the boundary length and so the ground-truth edge nodes per
# instance (about 280 at radius 43-47), the rows of the n_gt x n_pred
# assignments that dominate selfcheck. The assignment's cost grows faster
# than the square of the radius, so narrow radius ranges, and more, smaller
# images rather than fewer, larger ones, make a run's cost vary less from
# seed to seed.
WORKLOADS = {
    "eval-noisy": {
        "images": 3, "radius": (30.0, 40.0), "predictions": "noisy", "train_images": 1,
        "repeat": {"make_targets": 8, "eval": 1, "train": 3},
    },
    "selfcheck": {
        "images": 16, "radius": (43.0, 47.0), "predictions": "targets", "train_images": 1,
        "repeat": {"make_targets": 4, "eval": 1, "train": 3},
    },
    "train-step": {
        "images": 16, "radius": (43.0, 47.0), "predictions": "targets", "train_images": 6,
        "repeat": {"make_targets": 8, "eval": 1, "train": 1},
    },
}
TRAIN_RADIUS = (60.0, 80.0)
INSTANCES_PER_IMAGE = 4
TARGET_RATIO = 0.5

# Noise mix of eval-noisy predictions (see README.md for the measured split).
# Each map is a blurred boundary of strength EDGE_GAIN * U(EDGE_MIN, 1) per
# side, BLOTCHES Gaussian blotches of peak BLOTCH_PEAK and width BLOTCH_SIGMA
# whose value is multiplied by per-pixel uniform speckle, and a uniform
# per-pixel floor below FLOOR_SPECKLE. The floor keeps every sample above 0,
# so threshold 0 selects the whole frame; the blotches at the low thresholds
# are half-dense speckle fields, the input on which thinning is slowest.
EDGE_GAIN = 0.9
EDGE_MIN = 0.45
BLOTCHES = 1
BLOTCH_PEAK = 0.4
BLOTCH_SIGMA = 10.0
FLOOR_SPECKLE = 0.03
FLOOR_SAMPLE = 2  # smallest 16-bit sample written, so no sample is 0
DROPPED_STRETCHES = 2
FALSE_CONTOURS = 1

# Thin golden digests: the first eval-noisy map of each of these seeds,
# binarized at each of these thresholds, whatever seed a run is given.
THIN_DIGEST_SEEDS = (0, 1)
THIN_DIGEST_THRESHOLDS = (0.05, 0.1, 0.2, 0.5)

# The decoder shapes of the train-step workload.
TRAIN_QUERIES = 16
TRAIN_QUERY_DIM = 64
TRAIN_CHANNELS = 32


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


def map_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of the ``index``-th eval-noisy prediction map."""
    return _rng(seed, 3, index)


def star_polygon(rng: np.random.Generator, radius_range: tuple[float, float]) -> list[tuple[float, float]]:
    """A 12-32 vertex star polygon that fits inside the image."""
    n = int(rng.integers(12, 33))
    radius = rng.uniform(*radius_range)
    reach = radius * 1.1
    cx = rng.uniform(reach + 2.0, WIDTH - reach - 3.0)
    cy = rng.uniform(min(reach + 2.0, HEIGHT / 2), max(HEIGHT - reach - 3.0, HEIGHT / 2))
    step = 2.0 * math.pi / n
    angles = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * step
    # Mild radial jitter keeps the boundary length, and so the matching
    # cost, nearly independent of the vertex count.
    radii = radius * rng.uniform(0.9, 1.1, n)
    xs = np.clip(cx + radii * np.cos(angles), 0.0, WIDTH - 1.0)
    ys = np.clip(cy + radii * np.sin(angles), 0.0, HEIGHT - 1.0)
    return [(round(float(x), 2), round(float(y), 2)) for x, y in zip(xs, ys)]


def annotation_doc(seed: int, stream: int, images: int, radius_range: tuple[float, float]) -> dict:
    """An annotation document of ``images`` images with 4 instances each."""
    doc_images, annotations = [], []
    for i in range(images):
        image_id = i + 1
        doc_images.append({"id": image_id, "height": HEIGHT, "width": WIDTH})
        for j in range(INSTANCES_PER_IMAGE):
            rng = _rng(seed, stream, i, j)
            poly = star_polygon(rng, radius_range)
            xs = [x for x, _ in poly]
            ys = [y for _, y in poly]
            annotations.append(
                {
                    "id": image_id * 100 + j + 1,
                    "image_id": image_id,
                    "category_id": int(rng.integers(1, len(CATEGORIES) + 1)),
                    "bbox": [min(xs), min(ys), round(max(xs) - min(xs), 2), round(max(ys) - min(ys), 2)],
                    "segmentation": [[c for xy in poly for c in xy]],
                }
            )
    return {"images": doc_images, "annotations": annotations, "categories": list(CATEGORIES)}


def polygons(doc: dict) -> list[list[tuple[float, float]]]:
    """The single ring of each annotation, as (x, y) vertex lists."""
    out = []
    for ann in doc["annotations"]:
        flat = ann["segmentation"][0]
        out.append(list(zip(flat[0::2], flat[1::2])))
    return out


def _draw_segment(canvas: np.ndarray, a: tuple[float, float], b: tuple[float, float], value: float) -> None:
    steps = int(math.ceil(max(abs(b[0] - a[0]), abs(b[1] - a[1])) * 2)) + 1
    xs = np.rint(np.linspace(a[0], b[0], steps)).astype(int)
    ys = np.rint(np.linspace(a[1], b[1], steps)).astype(int)
    keep = (xs >= 0) & (xs < canvas.shape[1]) & (ys >= 0) & (ys < canvas.shape[0])
    np.maximum.at(canvas, (ys[keep], xs[keep]), value)


def noisy_prediction(rng: np.random.Generator, poly: list[tuple[float, float]]) -> np.ndarray:
    """A detector-like edge-probability map for one instance, values in (0, 1].

    The boundary is drawn with a random strength per side, minus
    ``DROPPED_STRETCHES`` runs of sides, plus ``FALSE_CONTOURS`` shrunken
    copies of a run of sides, then blurred; blotches with multiplicative
    speckle and a per-pixel floor are added on top.
    """
    n = len(poly)
    canvas = np.zeros((HEIGHT, WIDTH))
    dropped = set()
    for _ in range(DROPPED_STRETCHES):
        start = int(rng.integers(n))
        dropped.update((start + k) % n for k in range(max(1, n // 10)))
    strengths = rng.uniform(EDGE_MIN, 1.0, n)
    for k in range(n):
        if k not in dropped:
            _draw_segment(canvas, poly[k], poly[(k + 1) % n], strengths[k])
    cx = sum(x for x, _ in poly) / n
    cy = sum(y for _, y in poly) / n
    for _ in range(FALSE_CONTOURS):
        start = int(rng.integers(n))
        scale = rng.uniform(0.55, 0.8)
        run = [
            (cx + scale * (poly[(start + k) % n][0] - cx), cy + scale * (poly[(start + k) % n][1] - cy))
            for k in range(n // 3 + 1)
        ]
        value = rng.uniform(EDGE_MIN, 1.0)
        for a, b in zip(run, run[1:]):
            _draw_segment(canvas, a, b, value)
    # 0.399 is the peak of a unit line blurred with sigma 1.
    edge = np.minimum(ndimage.gaussian_filter(canvas, 1.0) / 0.399, 1.0) * EDGE_GAIN

    yy, xx = np.mgrid[0:HEIGHT, 0:WIDTH]
    envelope = np.zeros((HEIGHT, WIDTH))
    # One blotch per cell of a 3x4 grid at most, so blotches never pile up.
    for cell in rng.permutation(12)[:BLOTCHES]:
        gy, gx = divmod(int(cell), 4)
        by = (gy + rng.uniform(0.3, 0.7)) * HEIGHT / 3
        bx = (gx + rng.uniform(0.3, 0.7)) * WIDTH / 4
        envelope += BLOTCH_PEAK * np.exp(-((yy - by) ** 2 + (xx - bx) ** 2) / (2 * BLOTCH_SIGMA**2))
    noise = envelope * rng.random((HEIGHT, WIDTH)) + FLOOR_SPECKLE * rng.random((HEIGHT, WIDTH))
    return np.clip(edge + noise, 0.0, 1.0)


def to_samples(values: np.ndarray) -> np.ndarray:
    """16-bit samples as the program's PGM convention stores them, never 0."""
    return np.maximum(np.rint(values * 65535), FLOOR_SAMPLE).astype(">u2")


def write_pgm16(path: Path, samples: np.ndarray) -> None:
    header = f"P5\n{samples.shape[1]} {samples.shape[0]}\n65535\n".encode("ascii")
    path.write_bytes(header + samples.astype(">u2").tobytes())


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def write_inputs(workload: str, seed: int, root: Path) -> None:
    """Write one workload's inputs for ``seed`` under ``root``.

    ``annotations.json`` feeds make-targets and eval, ``train.json`` the
    train chain, and for eval-noisy ``predictions/`` holds one noisy map per
    instance with its manifest.
    """
    spec = WORKLOADS[workload]
    root.mkdir(parents=True, exist_ok=True)
    doc = annotation_doc(seed, 1, spec["images"], spec["radius"])
    _write_json(root / "annotations.json", doc)
    _write_json(root / "train.json", annotation_doc(seed, 2, spec["train_images"], TRAIN_RADIUS))
    if spec["predictions"] != "noisy":
        return
    preds = root / "predictions"
    preds.mkdir(exist_ok=True)
    entries = []
    for k, (ann, poly) in enumerate(zip(doc["annotations"], polygons(doc))):
        name = f"{ann['image_id']}_{ann['id']}.pgm"
        write_pgm16(preds / name, to_samples(noisy_prediction(map_rng(seed, k), poly)))
        entries.append(
            {key: ann[key] for key in ("image_id", "category_id", "bbox")}
            | {"instance_id": ann["id"], "file": name}
        )
    _write_json(preds / "manifest.json", {"entries": entries})


def train_tensors(seed: int, image_index: int, factors: tuple[int, ...]) -> dict[str, object]:
    """Seeded decoder inputs for one train-step image.

    One key/value token matrix per decoder layer (``factors`` are the
    layers' downsample factors), the queries, the coefficient-head weights
    and the full-resolution feature tensor.
    """
    rng = _rng(seed, 4, image_index)
    tokens = []
    for factor in factors:
        hw = max(1, HEIGHT // factor) * max(1, WIDTH // factor)
        tokens.append(rng.standard_normal((hw, TRAIN_QUERY_DIM)))
    return {
        "queries": rng.standard_normal((TRAIN_QUERIES, TRAIN_QUERY_DIM)),
        "tokens": tokens,
        "weight": rng.standard_normal((TRAIN_QUERY_DIM, TRAIN_CHANNELS)) * 0.2,
        "bias": rng.standard_normal(TRAIN_CHANNELS) * 0.1,
        "features": rng.standard_normal((TRAIN_CHANNELS, HEIGHT, WIDTH)) * 0.5,
    }

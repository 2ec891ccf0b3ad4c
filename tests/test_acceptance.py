"""Acceptance checks for the toolkit's headline guarantees.

Each test exercises one end-to-end contract at its stated tolerance and
prints a single PASS line (visible under ``pytest -s``); the verbose test
report gives the one-line-per-criterion pass/fail view.
"""

import json
import math
import time

import numpy as np
import pytest

from pointedge import (
    EvalConfig,
    FeatureMap,
    FocalConfig,
    GrayMap,
    QuerySet,
    TUNNEL_VALUE,
    TunnelTarget,
    build_tunnel_target,
    coef_head,
    cross_attention_cost,
    default_schedule,
    dense_head,
    dice_loss,
    edge_nodes,
    evaluate,
    finite_diff_check,
    gradient_ratio,
    match_instance,
    penalty_reduced_focal,
    rasterize_polyline,
    scaled_dot_attention,
    thin,
    write_graymap,
)
from pointedge import Dataset, ImageRecord
from pointedge.cli import main

from helpers import (
    bitmap_from_pixels,
    brute_force_match,
    component_count,
    dense_head_oracle,
    flat_ring_instance,
    random_blob,
    random_dataset,
    random_star_instance,
    serialize_dataset,
    to_graymap,
    two_image_fixture,
)

GRID = 5
TOLERANCE = 1e-5


def random_tunnel_target(rng: np.random.Generator) -> TunnelTarget:
    values = rng.choice(
        [0.0, TUNNEL_VALUE, 1.0], size=(GRID, GRID), p=[0.6, 0.25, 0.15]
    )
    if not (values == 1.0).any():
        values[rng.integers(GRID), rng.integers(GRID)] = 1.0
    return TunnelTarget(GrayMap(values), int((values == 1.0).sum()))


def test_criterion_1_gradient_fidelity():
    rng = np.random.default_rng(101)
    cfg = FocalConfig()
    start = time.perf_counter()
    worst_focal = 0.0
    worst_dice = 0.0
    for _ in range(100):
        pred = rng.uniform(0.05, 0.95, size=(GRID, GRID))
        target = random_tunnel_target(rng)
        worst_focal = max(
            worst_focal,
            finite_diff_check(
                lambda p, t: penalty_reduced_focal(p, t, cfg), pred, target
            ),
        )
        pred = rng.uniform(0.05, 0.95, size=(GRID, GRID))
        gt = (rng.random((GRID, GRID)) < 0.4).astype(np.float64)
        worst_dice = max(
            worst_dice, finite_diff_check(lambda p, y: dice_loss(p, y), pred, gt)
        )
    elapsed = time.perf_counter() - start
    assert worst_focal <= TOLERANCE, f"focal gradient error {worst_focal}"
    assert worst_dice <= TOLERANCE, f"dice gradient error {worst_dice}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(
        "PASS criterion 1: analytical gradients match finite differences "
        f"(focal {worst_focal:.2e}, dice {worst_dice:.2e}, {elapsed:.2f}s)"
    )


def square_defect_maps(k: int):
    """Filled k x k mask and its perimeter edge, perfect except one pixel."""
    mask_gt = np.ones((k, k))
    mask_pred = mask_gt.copy()
    mask_pred[0, k // 2] = 0.0
    edge_gt = np.zeros((k, k))
    edge_gt[0, :] = edge_gt[-1, :] = 1.0
    edge_gt[:, 0] = edge_gt[:, -1] = 1.0
    edge_pred = edge_gt.copy()
    edge_pred[0, k // 2] = 0.0
    return mask_pred, mask_gt, edge_pred, edge_gt


def test_criterion_2_defect_gradient_dominance():
    for k in range(4, 21):
        mask_pred, mask_gt, edge_pred, edge_gt = square_defect_maps(k)
        ratio = gradient_ratio(mask_pred, mask_gt, edge_pred, edge_gt)
        assert ratio == (2 * k * k - 1) / (8 * k - 9)
        assert ratio > 1.0
        # The defect pixel's dice gradient is strictly stronger under the
        # edge framing than under the filled-mask framing.
        defect = (0, k // 2)
        mask_grad = dice_loss(mask_pred, mask_gt).gradient[defect]
        edge_grad = dice_loss(edge_pred, edge_gt).gradient[defect]
        assert abs(mask_grad) < abs(edge_grad)
    ten = gradient_ratio(*square_defect_maps(10))
    assert ten == 199 / 71
    print(
        "PASS criterion 2: boundary-defect gradient dominance, "
        f"ratio(10) = {ten!r} = 199/71"
    )


def test_criterion_3_matching_equals_exhaustive_search():
    rng = np.random.default_rng(303)
    cfg = EvalConfig(max_dist_fraction=0.12)
    h = w = 20
    d = cfg.max_distance(h, w)
    start = time.perf_counter()
    for _ in range(200):
        n_gt = int(rng.integers(0, 9))
        n_pred = int(rng.integers(0, 9))
        gt_cells = rng.choice(h * w, size=n_gt, replace=False)
        pred_cells = rng.choice(h * w, size=n_pred, replace=False)
        gt = bitmap_from_pixels(h, w, [(int(c) // w, int(c) % w) for c in gt_cells])
        pred = bitmap_from_pixels(
            h, w, [(int(c) // w, int(c) % w) for c in pred_cells]
        )
        result = match_instance(pred, gt, cfg)
        gxy, pxy = edge_nodes(gt), edge_nodes(pred)
        want_count, _ = brute_force_match(gxy, pxy, d)
        assert result.matched == want_count
        gt_side = [g for g, _ in result.matched_pairs]
        pred_side = [p for _, p in result.matched_pairs]
        assert len(set(gt_side)) == len(gt_side)
        assert len(set(pred_side)) == len(pred_side)
        assert all(math.dist(gxy[g], pxy[p]) < d for g, p in result.matched_pairs)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        "PASS criterion 3: maximum matching count equals exhaustive search on "
        f"200 random instances, pairs one-to-one within d ({elapsed:.2f}s)"
    )


def segment_dataset():
    """Three one-instance images, with exact and far-displaced predictions."""
    images = []
    exact = {}
    displaced = {}
    for image_id, row in enumerate((3, 5, 7), start=1):
        inst = flat_ring_instance(2, 10, row, instance_id=1)
        images.append(
            ImageRecord(image_id=image_id, height=16, width=16, instances=(inst,))
        )
        exact[image_id] = {1: to_graymap(rasterize_polyline(inst, 16, 16))}
        moved = np.zeros((16, 16))
        moved[row + 8, 2:11] = 1.0
        displaced[image_id] = {1: GrayMap(moved)}
    dataset = Dataset(images=tuple(images), categories={0: "thing"})
    return dataset, exact, displaced


def test_criterion_4_perfect_and_displaced_predictions():
    dataset, exact, displaced = segment_dataset()
    perfect = evaluate(exact, dataset)
    assert perfect.ods == pytest.approx(1.0, abs=1e-9)
    assert perfect.ois == pytest.approx(1.0, abs=1e-9)
    hopeless = evaluate(displaced, dataset)
    assert hopeless.ods == 0.0
    assert hopeless.ois == 0.0
    print(
        "PASS criterion 4: exact predictions score ODS = OIS = 1, "
        "displacement beyond the matching distance scores 0"
    )


def test_criterion_5_ois_never_below_ods():
    rng = np.random.default_rng(505)
    for _ in range(50):
        dataset, predictions = random_dataset(rng)
        summary = evaluate(predictions, dataset)
        assert summary.ois >= summary.ods - 1e-12
    dataset, predictions = two_image_fixture()
    summary = evaluate(predictions, dataset)
    assert summary.ois > summary.ods + 1e-6
    print(
        "PASS criterion 5: OIS >= ODS on 50 random datasets, strictly above "
        f"on the split-threshold fixture ({summary.ois:.4f} > {summary.ods:.4f})"
    )


def test_criterion_6_thinning_contracts():
    rng = np.random.default_rng(606)
    for _ in range(100):
        blob = random_blob(rng)
        out = thin(blob)
        assert (out.bits <= blob.bits).all(), "output must be a subset"
        squares = (
            out.bits[:-1, :-1] & out.bits[:-1, 1:]
            & out.bits[1:, :-1] & out.bits[1:, 1:]
        )
        assert not squares.any(), "no 2x2 block may survive"
        assert component_count(out.bits) == component_count(blob.bits)
        assert (thin(out).bits == out.bits).all(), "thinning must be idempotent"
    print(
        "PASS criterion 6: thinning is a connectivity-preserving, idempotent "
        "contraction on 100 random blobs"
    )


def test_criterion_7_tunnel_target_quantization():
    rng = np.random.default_rng(707)
    for _ in range(100):
        inst = random_star_instance(rng, 24, 24)
        target = build_tunnel_target(inst, 24, 24)
        values = target.map.values
        assert np.isin(values, (0.0, TUNNEL_VALUE, 1.0)).all()
        for kp in inst.all_keypoints():
            px = min(23, max(0, int(math.floor(kp.x + 0.5))))
            py = min(23, max(0, int(math.floor(kp.y + 0.5))))
            assert values[py, px] == 1.0
        edges = rasterize_polyline(inst, 24, 24).bits
        assert (values[edges] >= TUNNEL_VALUE).all()
    print(
        "PASS criterion 7: tunnel targets use exactly {0, 0.7, 1}, keypoint "
        "pixels are 1, boundary pixels are at least 0.7"
    )


def test_criterion_8_kernel_contracts():
    rng = np.random.default_rng(808)
    for _ in range(10):
        n, m, d = (int(v) for v in rng.integers(1, 7, size=3))
        q = rng.standard_normal((n, d)) * 10.0
        k = rng.standard_normal((m, d)) * 10.0
        v = rng.standard_normal((m, d))
        _, weights = scaled_dot_attention(q, k, v)
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-6

    queries = QuerySet(rng.standard_normal((3, 6)))
    coefs = coef_head(
        queries, rng.standard_normal((6, 4)), rng.standard_normal(4)
    )
    features = rng.standard_normal((4, 5, 7))
    maps = dense_head(coefs, FeatureMap(features))
    got = np.stack([m.values for m in maps])
    want = dense_head_oracle(coefs.data, features)
    assert np.abs(got - want).max() <= 1e-10

    assert default_schedule().downsample_factors == (32, 32, 32, 32, 16, 8)
    assert cross_attention_cost(2, 4, 1, 3) == 168
    print(
        "PASS criterion 8: attention rows normalize, the dense head matches "
        "the straight-line oracle, schedule and cost formula check out"
    )


def test_criterion_9_byte_identical_evaluation(tmp_path, capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    dataset, predictions = random_dataset(rng, n_images=20, size=16)
    ann = tmp_path / "annotations.json"
    ann.write_text(serialize_dataset(dataset))
    preds = tmp_path / "preds"
    preds.mkdir()
    entries = []
    for image in dataset.images:
        for inst in image.instances:
            name = f"{image.image_id}_{inst.instance_id}.pgm"
            write_graymap(predictions[image.image_id][inst.instance_id], preds / name)
            entries.append(
                {
                    "image_id": image.image_id,
                    "instance_id": inst.instance_id,
                    "category_id": inst.category_id,
                    "bbox": list(inst.bbox),
                    "file": name,
                }
            )
    (preds / "manifest.json").write_text(json.dumps({"entries": entries}))

    outs = []
    for run_name in ("first", "again"):
        out = tmp_path / run_name
        assert main(["eval", str(ann), str(preds), "--out", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()
    for name in ("report.txt", "pr_curve.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        "PASS criterion 9: evaluation reports over 20 images reproduce "
        f"byte-identically across reruns ({elapsed:.2f}s)"
    )

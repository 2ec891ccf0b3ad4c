"""Tests for thinning, matching, accumulation, pairing, and ODS/OIS."""

import hashlib

import numpy as np
import pytest

from pointedge import (
    BitMap,
    EvalConfig,
    GrayMap,
    MatchResult,
    PredictedInstance,
    bbox_iou,
    binarize,
    edge_nodes,
    evaluate,
    fscore,
    image_pr,
    match_instance,
    pair_instances,
    rasterize_polyline,
    thin,
)

from helpers import (
    bitmap_from_pixels,
    brute_force_match,
    component_count,
    eval_oracle,
    flat_ring_instance,
    make_instance,
    random_blob,
    random_dataset,
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


class TestThin:
    def test_empty_map(self):
        out = thin(BitMap(np.zeros((6, 6), dtype=bool)))
        assert out.count() == 0

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


class TestMatchInstance:
    def test_perfect_map_fully_matched(self):
        bits = np.zeros((12, 12), dtype=bool)
        bits[3, 2:9] = True
        bm = BitMap(bits)
        result = match_instance(bm, bm)
        assert result.matched == result.pred_total == result.gt_total == 7
        for g, p in result.matched_pairs:
            assert g == p

    def test_translation_beyond_d_matches_nothing(self):
        gt = bitmap_from_pixels(16, 16, [(3, c) for c in range(2, 8)])
        pred = bitmap_from_pixels(16, 16, [(9, c) for c in range(2, 8)])
        result = match_instance(pred, gt)  # default d is below one pixel
        assert result.matched == 0
        assert result.pred_total == result.gt_total == 6

    def test_distance_bound_is_strict(self):
        # 3x4 image diagonal is 5; lambda 0.2 puts d exactly at 1.0, so
        # nodes one pixel apart are not candidates.
        cfg = EvalConfig(max_dist_fraction=0.2)
        gt = bitmap_from_pixels(3, 4, [(1, 1)])
        pred = bitmap_from_pixels(3, 4, [(1, 2)])
        assert match_instance(pred, gt, cfg).matched == 0
        just_over = EvalConfig(max_dist_fraction=0.21)
        assert match_instance(pred, gt, just_over).matched == 1

    def test_empty_sides(self):
        empty = BitMap(np.zeros((8, 8), dtype=bool))
        some = bitmap_from_pixels(8, 8, [(1, 1), (2, 2)])
        a = match_instance(empty, some)
        assert (a.matched, a.pred_total, a.gt_total) == (0, 0, 2)
        b = match_instance(some, empty)
        assert (b.matched, b.pred_total, b.gt_total) == (0, 2, 0)

    def test_prefers_cardinality_over_distance(self):
        # Pred p reaches both gts (nearer to b), pred q reaches only b.
        # A cost-greedy matcher would take p-b and strand both q and a;
        # the assignment must instead take p-a and q-b for two matches.
        cfg = EvalConfig(max_dist_fraction=0.35)  # d ~ 4.95 on 10x10
        gt = bitmap_from_pixels(10, 10, [(5, 2), (5, 6)])  # a, b
        pred = bitmap_from_pixels(10, 10, [(5, 5), (5, 9)])  # p, q
        result = match_instance(pred, gt, cfg)
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
            result = match_instance(pred, gt, cfg)
            d = cfg.max_distance(h, w)
            want_count, want_cost = brute_force_match(
                edge_nodes(gt), edge_nodes(pred), d
            )
            assert result.matched == want_count
            got_cost = 0.0
            gxy, pxy = edge_nodes(gt), edge_nodes(pred)
            for g, p in result.matched_pairs:
                diff = gxy[g].astype(float) - pxy[p]
                got_cost += float(np.hypot(*diff))
            assert got_cost == pytest.approx(want_cost, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            match_instance(
                BitMap(np.zeros((4, 4), dtype=bool)),
                BitMap(np.zeros((5, 4), dtype=bool)),
            )

    def test_match_result_validation(self):
        with pytest.raises(ValueError):
            MatchResult(((0, 0), (0, 1)), pred_total=3, gt_total=3)
        with pytest.raises(ValueError):
            MatchResult(((0, 0), (1, 0)), pred_total=3, gt_total=3)
        with pytest.raises(ValueError):
            MatchResult(((0, 0),), pred_total=0, gt_total=1)


class TestImagePR:
    def test_counts_example(self):
        result = MatchResult(
            tuple((i, i) for i in range(6)), pred_total=8, gt_total=10
        )
        p, r = image_pr([result])
        assert (p, r) == (0.75, 0.6)

    def test_perfect_instances(self):
        results = [
            MatchResult(((0, 0), (1, 1)), pred_total=2, gt_total=2),
            MatchResult(((0, 0),), pred_total=1, gt_total=1),
        ]
        assert image_pr(results) == (1.0, 1.0)

    def test_zero_predictions_convention(self):
        p, r = image_pr([MatchResult((), pred_total=0, gt_total=4)])
        assert (p, r) == (1.0, 0.0)

    def test_zero_gt_convention(self):
        p, r = image_pr([MatchResult((), pred_total=4, gt_total=0)])
        assert (p, r) == (0.0, 1.0)

    def test_empty_list(self):
        assert image_pr([]) == (1.0, 1.0)

    def test_pooling_across_instances(self):
        results = [
            MatchResult(((0, 0),), pred_total=2, gt_total=1),
            MatchResult((), pred_total=2, gt_total=3),
        ]
        p, r = image_pr(results)
        assert p == 0.25 and r == 0.25


def test_fscore_conventions():
    assert fscore(0.0, 0.0) == 0.0
    assert fscore(1.0, 1.0) == 1.0
    assert fscore(0.5, 1.0) == pytest.approx(2 / 3)


class TestPairInstances:
    @staticmethod
    def pred(category_id, bbox):
        return PredictedInstance(
            category_id=category_id,
            bbox=bbox,
            map=GrayMap(np.zeros((4, 4))),
        )

    @staticmethod
    def gt(instance_id, category_id, x, y, w, h):
        return make_instance(
            ((x, y), (x + w, y), (x + w / 2, y + h)),
            instance_id=instance_id,
            category_id=category_id,
        )

    def test_identity_pairing(self):
        gts = [self.gt(1, 0, 1, 1, 3, 3), self.gt(2, 1, 8, 8, 3, 3)]
        preds = [self.pred(0, gts[0].bbox), self.pred(1, gts[1].bbox)]
        assert pair_instances(preds, gts) == [(0, 0), (1, 1)]

    def test_category_mismatch_blocks_pairs(self):
        gts = [self.gt(1, 0, 1, 1, 3, 3)]
        preds = [self.pred(1, gts[0].bbox)]
        assert pair_instances(preds, gts) == []

    def test_zero_iou_not_paired(self):
        gts = [self.gt(1, 0, 1, 1, 2, 2)]
        preds = [self.pred(0, (10.0, 10.0, 2.0, 2.0))]
        assert pair_instances(preds, gts) == []

    def test_greedy_takes_best_iou_first(self):
        gts = [self.gt(1, 0, 0, 0, 4, 4)]
        close = self.pred(0, (0.0, 0.0, 4.0, 4.0))
        far = self.pred(0, (2.0, 2.0, 4.0, 4.0))
        assert pair_instances([far, close], gts) == [(1, 0)]

    def test_three_by_three_matches_brute_force(self):
        # Diagonal-dominant IoU so greedy and optimal coincide; the oracle
        # maximizes total IoU over all injective assignments.
        gts = [
            self.gt(1, 0, 0, 0, 4, 4),
            self.gt(2, 0, 10, 0, 4, 4),
            self.gt(3, 0, 0, 10, 4, 4),
        ]
        preds = [
            self.pred(0, (0.5, 0.0, 4.0, 4.0)),
            self.pred(0, (10.5, 0.0, 4.0, 4.0)),
            self.pred(0, (0.5, 10.0, 4.0, 4.0)),
        ]
        from itertools import permutations

        best, best_pairs = -1.0, None
        for perm in permutations(range(3)):
            total = sum(
                bbox_iou(preds[i].bbox, gts[j].bbox) for i, j in enumerate(perm)
            )
            if total > best:
                best, best_pairs = total, [(i, j) for i, j in enumerate(perm)]
        assert pair_instances(preds, gts) == best_pairs

    def test_each_side_used_once(self):
        gts = [self.gt(1, 0, 0, 0, 4, 4), self.gt(2, 0, 1, 1, 4, 4)]
        preds = [self.pred(0, (0.0, 0.0, 4.0, 4.0))]
        pairs = pair_instances(preds, gts)
        assert len(pairs) == 1


def test_bbox_iou():
    assert bbox_iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0
    assert bbox_iou((0, 0, 2, 2), (5, 5, 2, 2)) == 0.0
    assert bbox_iou((0, 0, 2, 2), (1, 0, 2, 2)) == pytest.approx(1 / 3)


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


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.max_dist_fraction == 0.0075
        assert cfg.thresholds == tuple(k / 20 for k in range(20))

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(max_dist_fraction=0.0)
        with pytest.raises(ValueError):
            EvalConfig(thresholds=())
        with pytest.raises(ValueError):
            EvalConfig(thresholds=(0.5, 1.0))


def exact_prediction_setup():
    inst = flat_ring_instance(2, 9, 4, instance_id=1)
    image = ImageRecord(image_id=1, height=16, width=16, instances=(inst,))
    dataset = Dataset(images=(image,), categories={0: "thing"})
    edges = rasterize_polyline(inst, 16, 16)
    predictions = {1: {1: edges.to_graymap()}}
    return dataset, predictions


class TestEvaluate:
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
            predictions, dataset, cfg.thresholds, cfg.max_dist_fraction
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

    def test_instance_order_permutation_invariance(self):
        first = flat_ring_instance(2, 7, 3, instance_id=1)
        second = flat_ring_instance(4, 11, 9, instance_id=2)
        image = ImageRecord(image_id=1, height=16, width=16, instances=(first, second))
        flipped = ImageRecord(
            image_id=1, height=16, width=16, instances=(second, first)
        )
        categories = {0: "thing"}
        good = rasterize_polyline(first, 16, 16).to_graymap()
        noisy = np.zeros((16, 16))
        noisy[9, 4:9] = 0.41  # partial hit on the second segment
        predictions = {1: {1: good, 2: GrayMap(noisy)}}
        a = evaluate(predictions, Dataset(images=(image,), categories=categories))
        b = evaluate(predictions, Dataset(images=(flipped,), categories=categories))
        assert a == b

    def test_workers_do_not_change_results(self):
        rng = np.random.default_rng(9)
        dataset, predictions = random_dataset(rng, n_images=4)
        a = evaluate(predictions, dataset, workers=1)
        b = evaluate(predictions, dataset, workers=3)
        assert a == b

    def test_missing_instance_prediction_scored_empty(self):
        dataset, predictions = exact_prediction_setup()
        summary = evaluate({1: {}}, dataset)
        assert summary.ods == 0.0  # precision 1, recall 0 everywhere

    def test_unpaired_maps_count_against_precision(self):
        dataset, predictions = exact_prediction_setup()
        decoy = np.zeros((16, 16))
        decoy[12, 3:7] = 1.0
        summary = evaluate(
            predictions, dataset, unpaired={1: [GrayMap(decoy)]}
        )
        top = summary.curve[-1]
        assert top.recall == pytest.approx(1.0, abs=1e-9)
        assert top.precision < 1.0
        assert summary.ods < 1.0

    def test_unknown_image_rejected(self):
        dataset, predictions = exact_prediction_setup()
        with pytest.raises(ValueError):
            evaluate({2: {}}, dataset)

    def test_unknown_instance_rejected(self):
        dataset, predictions = exact_prediction_setup()
        with pytest.raises(ValueError):
            evaluate({1: {9: predictions[1][1]}}, dataset)

    def test_dimension_mismatch_rejected(self):
        dataset, _ = exact_prediction_setup()
        with pytest.raises(ValueError):
            evaluate({1: {1: GrayMap(np.zeros((8, 8)))}}, dataset)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate({}, Dataset(images=(), categories={}))

"""Tests of the benchmark's own code: input generators, span analysis, spec.

    PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pointedge import parse_dataset  # noqa: E402

SEEDS = (0, 7)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def written(request, tmp_path_factory):
    workload = request.param
    roots = {}
    for seed in SEEDS:
        roots[seed] = tmp_path_factory.mktemp(f"{workload}-{seed}")
        workloads.write_inputs(workload, seed, roots[seed])
    return workload, roots


def test_same_seed_gives_byte_identical_inputs(written, tmp_path):
    workload, roots = written
    workloads.write_inputs(workload, SEEDS[0], tmp_path)
    assert _files(tmp_path) == _files(roots[SEEDS[0]])


def test_other_seed_gives_other_inputs(written):
    _, roots = written
    assert _files(roots[SEEDS[0]]) != _files(roots[SEEDS[1]])


def test_no_prediction_sample_is_zero(written):
    workload, roots = written
    if workloads.WORKLOADS[workload]["predictions"] != "noisy":
        pytest.skip("predictions come from make-targets")
    for root in roots.values():
        manifest = json.loads((root / "predictions" / "manifest.json").read_text())
        assert manifest["entries"]
        for entry in manifest["entries"]:
            shape, samples = run.read_pgm16(root / "predictions" / entry["file"])
            assert shape == [workloads.HEIGHT, workloads.WIDTH]
            assert samples.min() > 0
            # Blotches reach the low thresholds: some pixels off the edge.
            assert (samples >= 0.05 * 65535).sum() > 1000


def _cross(p, q, r, s) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2, d3, d4 = orient(r, s, p), orient(r, s, q), orient(p, q, r), orient(p, q, s)
    return d1 * d2 < 0 and d3 * d4 < 0


def _simple(poly) -> bool:
    n = len(poly)
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if _cross(poly[i], poly[(i + 1) % n], poly[j], poly[(j + 1) % n]):
                return False
    return len(set(poly)) == n


def test_annotations_parse_and_polygons_are_simple(written):
    _, roots = written
    for root in roots.values():
        for name in ("annotations.json", "train.json"):
            text = (root / name).read_text()
            dataset = parse_dataset(text)
            doc = json.loads(text)
            assert sum(len(image.instances) for image in dataset.images) == len(doc["annotations"])
            for poly in workloads.polygons(doc):
                assert 12 <= len(poly) <= 32
                assert _simple(poly)
                for x, y in poly:
                    assert 0 <= x < workloads.WIDTH and 0 <= y < workloads.HEIGHT


def test_simplicity_check_catches_a_bow_tie():
    assert not _simple([(0, 0), (10, 10), (10, 0), (0, 10)])


def test_train_tensors_are_seeded():
    a = workloads.train_tensors(3, 0, (32, 8))
    b = workloads.train_tensors(3, 0, (32, 8))
    assert np.array_equal(a["features"], b["features"])
    assert [t.shape[0] for t in a["tokens"]] == [10 * 15, 40 * 60]


def _span(layer, parent, start, end):
    return {"layer": layer, "parent": parent, "start": start, "end": end}


def test_self_times_add_up_to_the_root():
    trace = [
        _span("cli.main", None, 0.0, 10.0),
        _span("metrics.evaluate", 0, 1.0, 9.0),
        _span("metrics.thin", 1, 2.0, 5.0),
        _span("metrics.match", 1, 5.0, 6.0),
    ]
    selfs, problems = spans.self_times(trace)
    assert problems == []
    assert selfs == [2.0, 4.0, 3.0, 1.0]
    assert spans.root_sums(trace, selfs) == [{"root": "cli.main", "span_s": 10.0, "self_sum_s": 10.0}]


def test_overlapping_children_are_reported():
    trace = [_span("cli.main", None, 0.0, 10.0), _span("a", 0, 1.0, 5.0), _span("b", 0, 4.0, 11.0)]
    _, problems = spans.self_times(trace)
    assert len(problems) == 1


def test_coverage_fails_loudly_on_a_layer_with_no_calls():
    trace = [_span(layer, None, 0.0, 1.0) for layer in spans.EXPECTED if layer != "metrics.thin"]
    fail = run.Failures()
    report = run.coverage({"eval": trace}, fail)
    assert report["missing"] == ["metrics.thin"]
    assert any("metrics.thin" in reason for reason in fail.reasons)


def test_recorder_wraps_and_counts():
    recorder = spans.Recorder()
    double = recorder.wrap("x.double", lambda v: 2 * v, counts=lambda args, result: {"out": result})
    assert recorder.root("cli.main", lambda: double(3) + double(4)) == 14
    assert [s["layer"] for s in recorder.spans] == ["cli.main", "x.double", "x.double"]
    assert [s["parent"] for s in recorder.spans] == [None, 0, 0]
    assert [s.get("out") for s in recorder.spans] == [None, 6, 8]


def test_timings_are_divided_by_their_workers_slowdown_and_memory_is_not():
    ref = run.CALIB_REFERENCE_S
    phase = SimpleNamespace(
        setup=[0.5, 0.7, 0.6],
        samples={"eval": [2.0], "make_targets": [0.1, 0.3, 0.2], "train": [0.4]},
        calib={"eval": [2 * ref], "make_targets": [ref, ref, ref], "train": [4 * ref]},
        peak_rss={"eval": [100.0, 102.0, 99.0], "make_targets": [], "train": []},
    )
    metrics, raw = run.end_to_end(phase)
    assert raw["slowdown"] == {"eval_s": 2.0, "make_targets_s": 1.0, "train_step_s": 4.0, "setup_s": 1.0}
    assert raw["medians"]["eval_s"] == 2.0 and metrics["eval_s"] == 1.0
    assert metrics["setup_s"] == 0.6 and metrics["make_targets_s"] == 0.2 and metrics["train_step_s"] == 0.1
    assert metrics["eval_peak_rss_mib"] == 100.0


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

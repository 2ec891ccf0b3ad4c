"""End-to-end tests of the command-line interface."""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pointedge
from pointedge import GrayMap, parse_dataset, rasterize_polyline, read_graymap, write_graymap
from pointedge.cli import main

from helpers import to_graymap

ANN_DOC = {
    "images": [
        {"id": 1, "height": 16, "width": 16},
        {"id": 2, "height": 16, "width": 16},
    ],
    "annotations": [
        {
            "id": 1,
            "image_id": 1,
            "category_id": 0,
            "bbox": [2.0, 3.0, 5.0, 1.0],
            "segmentation": [[2, 3, 7, 3, 4.5, 3]],
        },
        {
            "id": 2,
            "image_id": 1,
            "category_id": 0,
            "bbox": [10.0, 8.0, 4.0, 4.0],
            "segmentation": [
                [10, 8, 12, 8, 14, 8, 14, 10, 14, 12, 12, 12, 10, 12, 10, 10]
            ],
        },
        {
            "id": 3,
            "image_id": 2,
            "category_id": 0,
            "bbox": [3.0, 5.0, 6.0, 1.0],
            "segmentation": [[3, 5, 9, 5, 6, 5]],
        },
    ],
    "categories": [{"id": 0, "name": "thing"}],
}


@pytest.fixture
def ann_path(tmp_path):
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps(ANN_DOC))
    return path


def write_exact_predictions(pred_dir, ann_path, skip=()):
    """Write a predictions directory whose maps equal the rasterized gt."""
    pred_dir.mkdir(parents=True, exist_ok=True)
    dataset = parse_dataset(ann_path.read_text())
    entries = []
    for image in dataset.images:
        for inst in image.instances:
            if (image.image_id, inst.instance_id) in skip:
                continue
            name = f"{image.image_id}_{inst.instance_id}.pgm"
            edges = rasterize_polyline(inst, image.height, image.width)
            write_graymap(to_graymap(edges), pred_dir / name)
            entries.append(
                {
                    "image_id": image.image_id,
                    "instance_id": inst.instance_id,
                    "category_id": inst.category_id,
                    "bbox": list(inst.bbox),
                    "file": name,
                }
            )
    (pred_dir / "manifest.json").write_text(json.dumps({"entries": entries}))
    return pred_dir


def read_run_manifest(directory):
    doc = json.loads((directory / "run.json").read_text())
    assert set(doc) == {"command", "inputs", "config", "version", "duration_seconds"}
    assert doc["duration_seconds"] >= 0.0
    return doc


@pytest.mark.parametrize("command", ["make-targets", "eval", "loss-check", "demo-forward"])
def test_run_manifest_names_its_command_and_version(command, ann_path, tmp_path, capsys):
    args = {
        "make-targets": [str(ann_path)],
        "eval": [str(ann_path), str(write_exact_predictions(tmp_path / "preds", ann_path))],
        "loss-check": ["--trials", "1"],
        "demo-forward": [],
    }[command]
    out = tmp_path / "out"
    assert main([command, *args, "--out", str(out)]) == 0
    capsys.readouterr()
    doc = read_run_manifest(out)
    assert list(doc) == ["command", "inputs", "config", "version", "duration_seconds"]
    assert doc["command"] == command
    assert doc["version"] == pointedge.__version__


def _unknown_instance(ann_path, tmp_path):
    preds = write_exact_predictions(tmp_path / "preds", ann_path)
    doc = json.loads((preds / "manifest.json").read_text())
    doc["entries"][0]["instance_id"] = 99
    (preds / "manifest.json").write_text(json.dumps(doc))
    return ["eval", str(ann_path), str(preds)], 1


def _missing_annotations(ann_path, tmp_path):
    return ["make-targets", str(tmp_path / "nope.json")], 2


def _unallocatable_image(ann_path, tmp_path):
    doc = json.loads(json.dumps(ANN_DOC))
    doc["images"][1].update(height=10**9, width=10**9)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return ["make-targets", str(path)], 1


@pytest.mark.parametrize("case", [_unknown_instance, _missing_annotations, _unallocatable_image])
def test_failing_command_writes_no_run_json(case, ann_path, tmp_path, capsys):
    args, code = case(ann_path, tmp_path)
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "run.json").exists()
    # make-targets creates --out before its first target, eval only once
    # every prediction is scored.
    assert out.exists() == (case is _unallocatable_image)


class TestMakeTargets:
    def test_happy_path(self, ann_path, tmp_path, capsys):
        out = tmp_path / "targets"
        assert main(["make-targets", str(ann_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 3 tunnel targets to {out}\n"
        doc = json.loads((out / "manifest.json").read_text())
        assert [e["instance_id"] for e in doc["entries"]] == [1, 2, 3]
        for entry in doc["entries"]:
            assert set(entry) == {
                "image_id",
                "instance_id",
                "category_id",
                "bbox",
                "keypoint_count",
                "file",
            }
            assert (out / entry["file"]).exists()
            assert entry["keypoint_count"] >= 3
        manifest = read_run_manifest(out)
        assert manifest["command"] == "make-targets"
        assert manifest["config"]["ratio"] == 1.0

    def test_subsampled_rerun_is_byte_identical(self, ann_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                [
                    "make-targets",
                    str(ann_path),
                    "--out",
                    str(out),
                    "--ratio",
                    "0.5",
                    "--seed",
                    "7",
                ]
            )
            assert code == 0
            outs.append(out)
        a, b = outs
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        for entry in json.loads((a / "manifest.json").read_text())["entries"]:
            name = entry["file"]
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_subsampling_reduces_keypoints(self, ann_path, tmp_path):
        full = tmp_path / "full"
        half = tmp_path / "half"
        main(["make-targets", str(ann_path), "--out", str(full)])
        main(["make-targets", str(ann_path), "--out", str(half), "--ratio", "0.5"])
        count = lambda d: {
            e["instance_id"]: e["keypoint_count"]
            for e in json.loads((d / "manifest.json").read_text())["entries"]
        }
        # The octagonal ring has 8 keypoints, so half-ratio keeps 4; the
        # 3-point rings stay at the floor of 3.
        assert count(full) == {1: 3, 2: 8, 3: 3}
        assert count(half) == {1: 3, 2: 4, 3: 3}

    def test_bad_ratio_exits_1(self, ann_path, tmp_path, capsys):
        for ratio in ("0", "1.5", "-0.2"):
            code = main(
                ["make-targets", str(ann_path), "--out", str(tmp_path), "--ratio", ratio]
            )
            assert code == 1
            capsys.readouterr()

    def test_missing_annotations_exits_2(self, tmp_path, capsys):
        code = main(
            ["make-targets", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_annotations_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["make-targets", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["x", float("nan"), True])
    def test_bad_coordinate_exits_1(self, tmp_path, capsys, bad):
        doc = json.loads(json.dumps(ANN_DOC))
        doc["annotations"][1]["segmentation"][0][4] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["make-targets", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "annotation 2: field 'segmentation[0][4]'" in err
        assert "Traceback" not in err

    def test_unallocatable_image_exits_1(self, tmp_path, capsys):
        # numpy refuses the 10^18-pixel target at once, before touching memory.
        doc = json.loads(json.dumps(ANN_DOC))
        doc["images"][0].update(height=10**9, width=10**9)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code = main(["make-targets", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: image 1 (1000000000x1000000000): ")
        assert "allocate" in err
        assert "Traceback" not in err

    def test_negative_instance_id_subsamples(self, tmp_path, capsys):
        doc = json.loads(json.dumps(ANN_DOC))
        doc["annotations"][1]["id"] = -5
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(["make-targets", str(path), "--out", str(out), "--ratio", "0.5"])
        assert code == 0, capsys.readouterr().err
        entries = json.loads((out / "manifest.json").read_text())["entries"]
        # The octagonal ring, now instance -5, keeps 4 of its 8 keypoints.
        assert {e["instance_id"]: e["keypoint_count"] for e in entries} == {-5: 4, 1: 3, 3: 3}
        assert (out / "1_-5.pgm").exists()

    @pytest.mark.parametrize("record, key", [(0, "id"), (0, "height"), (1, "width")])
    def test_integer_beyond_64_bits_exits_1(self, tmp_path, capsys, record, key):
        doc = json.loads(json.dumps(ANN_DOC))
        doc["images"][record][key] = -(10**40)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code = main(["make-targets", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: image ")
        assert f"field '{key}' must fit in 64 bits" in err


class TestEval:
    def test_perfect_predictions(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        out = tmp_path / "report"
        code = main(["eval", str(ann_path), str(preds), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "ODS 1.0000\nOIS 1.0000\n"
        report = (out / "report.txt").read_text().splitlines()
        assert report[0] == "instance edge evaluation"
        assert "missing predictions: 0" in report
        csv = (out / "pr_curve.csv").read_text().splitlines()
        assert csv[0] == "threshold,precision,recall,fscore"
        assert len(csv) == 21
        manifest = read_run_manifest(out)
        assert manifest["command"] == "eval"
        assert manifest["config"]["max_dist_fraction"] == 0.0075
        curve = [line.split()[1] for line in report if line.startswith("  threshold ")]
        assert len(curve) == 20
        assert manifest["config"]["thresholds"] == [float(t) for t in curve]

    def test_scores_the_samples_without_their_float_values(
        self, ann_path, tmp_path, capsys, monkeypatch
    ):
        targets = tmp_path / "targets"
        assert main(["make-targets", str(ann_path), "--out", str(targets), "--ratio", "0.5"]) == 0
        assert main(["eval", str(ann_path), str(targets), "--out", str(tmp_path / "a")]) == 0

        def no_floats(graymap):
            raise AssertionError("a PGM-read map's float values were computed")

        monkeypatch.setattr(GrayMap, "values", property(no_floats))
        assert main(["eval", str(ann_path), str(targets), "--out", str(tmp_path / "b")]) == 0
        monkeypatch.undo()
        for name in ("report.txt", "pr_curve.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_stdout_format(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        main(["eval", str(ann_path), str(preds), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert re.fullmatch(r"ODS \d\.\d{4}\nOIS \d\.\d{4}\n", out)

    def test_missing_prediction_listed_and_penalized(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(
            tmp_path / "preds", ann_path, skip={(1, 2)}
        )
        out = tmp_path / "report"
        assert main(["eval", str(ann_path), str(preds), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert not stdout.startswith("ODS 1.0000")
        report = (out / "report.txt").read_text().splitlines()
        assert "missing predictions: 1" in report
        assert "  image 1 instance 2" in report

    def test_empty_manifest_scores_zero(self, ann_path, tmp_path, capsys):
        preds = tmp_path / "preds"
        preds.mkdir()
        (preds / "manifest.json").write_text(json.dumps({"entries": []}))
        out = tmp_path / "report"
        assert main(["eval", str(ann_path), str(preds), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "ODS 0.0000\nOIS 0.0000\n"
        report = (out / "report.txt").read_text().splitlines()
        assert "instances predicted: 0" in report
        assert "missing predictions: 3" in report

    def test_targets_directory_is_a_valid_predictions_directory(
        self, ann_path, tmp_path, capsys
    ):
        targets = tmp_path / "targets"
        main(["make-targets", str(ann_path), "--out", str(targets)])
        capsys.readouterr()
        out = tmp_path / "report"
        assert main(["eval", str(ann_path), str(targets), "--out", str(out)]) == 0
        assert re.fullmatch(
            r"ODS \d\.\d{4}\nOIS \d\.\d{4}\n", capsys.readouterr().out
        )

    def test_rerun_and_workers_byte_identical(self, ann_path, tmp_path):
        preds = write_exact_predictions(tmp_path / "preds", ann_path, skip={(2, 3)})
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["eval", str(ann_path), str(preds), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("report.txt", "pr_curve.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_workers_option_is_gone(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        argv = ["eval", str(ann_path), str(preds), "--out", str(tmp_path / "o"), "--workers", "2"]
        assert main(argv) == 1
        assert "--workers" in capsys.readouterr().err

    def test_corrupt_graymap_exits_1(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        (preds / "1_1.pgm").write_bytes(b"P5\n4 4\n65535\n\x00\x01")
        code = main(["eval", str(ann_path), str(preds), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_instance_exits_1(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        doc = json.loads((preds / "manifest.json").read_text())
        doc["entries"][0]["instance_id"] = 99
        (preds / "manifest.json").write_text(json.dumps(doc))
        code = main(["eval", str(ann_path), str(preds), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "instance_id 99" in capsys.readouterr().err

    def test_unallocatable_image_without_predictions_exits_1(self, ann_path, tmp_path, capsys):
        # The instance has no prediction, so its ground-truth raster is the
        # first thing to allocate.
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        doc = json.loads(json.dumps(ANN_DOC))
        doc["images"].append({"id": 3, "height": 10**9, "width": 10**9})
        doc["annotations"].append(
            {
                "id": 4,
                "image_id": 3,
                "category_id": 0,
                "bbox": [3.0, 5.0, 6.0, 1.0],
                "segmentation": [[3, 5, 9, 5, 6, 5]],
            }
        )
        ann_path.write_text(json.dumps(doc))
        code = main(["eval", str(ann_path), str(preds), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: image 3 (1000000000x1000000000): ")
        assert "allocate" in err
        assert "Traceback" not in err

    def test_huge_image_without_instances_needs_no_allocation(self, ann_path, tmp_path, capsys):
        # No map on either side: precision 1 and recall 1 by the empty-side
        # conventions, with no H x W array made.
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        doc = json.loads(json.dumps(ANN_DOC))
        doc["images"].append({"id": 3, "height": 10**9, "width": 10**9})
        ann_path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["eval", str(ann_path), str(preds), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "ODS 1.0000\nOIS 1.0000\n"
        assert "images: 3" in (out / "report.txt").read_text().splitlines()

    def test_category_mismatch_exits_1(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        doc = json.loads((preds / "manifest.json").read_text())
        doc["entries"][0]["category_id"] = 5
        (preds / "manifest.json").write_text(json.dumps(doc))
        code = main(["eval", str(ann_path), str(preds), "--out", str(tmp_path / "o")])
        assert code == 1
        capsys.readouterr()

    def test_duplicate_entry_exits_1(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        doc = json.loads((preds / "manifest.json").read_text())
        doc["entries"].append(doc["entries"][0])
        (preds / "manifest.json").write_text(json.dumps(doc))
        code = main(["eval", str(ann_path), str(preds), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("image_id", [1]),
            ("image_id", True),
            ("instance_id", {"a": 1}),
            ("instance_id", 1.5),
            ("category_id", "0"),
            ("category_id", None),
        ],
    )
    def test_bad_id_type_exits_1(self, ann_path, tmp_path, capsys, key, value):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        doc = json.loads((preds / "manifest.json").read_text())
        doc["entries"][1][key] = value
        (preds / "manifest.json").write_text(json.dumps(doc))
        code = main(["eval", str(ann_path), str(preds), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"entry 1: field '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, 3, ["1_2.pgm"]])
    def test_non_string_file_exits_1(self, ann_path, tmp_path, capsys, value):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        doc = json.loads((preds / "manifest.json").read_text())
        doc["entries"][1]["file"] = value
        (preds / "manifest.json").write_text(json.dumps(doc))
        code = main(["eval", str(ann_path), str(preds), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "entry 1: field 'file' must be a string" in capsys.readouterr().err

    def test_missing_graymap_file_exits_2(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        (preds / "2_3.pgm").unlink()
        code = main(["eval", str(ann_path), str(preds), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "2_3.pgm" in capsys.readouterr().err

    def test_wrong_size_graymap_exits_1(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        write_graymap(GrayMap(np.full((4, 4), 0.5)), preds / "1_2.pgm")
        code = main(["eval", str(ann_path), str(preds), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: image 1: prediction for instance 2 is 4x4, image is 16x16\n"

    def test_missing_predictions_dir_exits_2(self, ann_path, tmp_path, capsys):
        code = main(
            ["eval", str(ann_path), str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        capsys.readouterr()

    def test_bad_lambda_exits_1(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        for value in ("0", "1"):
            code = main(
                [
                    "eval",
                    str(ann_path),
                    str(preds),
                    "--out",
                    str(tmp_path / "o"),
                    "--lambda",
                    value,
                ]
            )
            assert code == 1
            capsys.readouterr()

    def test_lambda_echoed_in_report(self, ann_path, tmp_path, capsys):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        out = tmp_path / "report"
        main(
            [
                "eval",
                str(ann_path),
                str(preds),
                "--out",
                str(out),
                "--lambda",
                "0.05",
            ]
        )
        capsys.readouterr()
        assert "lambda: 0.05" in (out / "report.txt").read_text()


# Runs in its own interpreter, since installing the spans rebinds pointedge's
# module globals for good. argv: bench directory, annotations, predictions, out.
TRACED_EVAL = """
import json, sys
from collections import Counter
sys.path.insert(0, sys.argv[1])
import spans
import pointedge.cli
recorder = spans.Recorder()
spans.install(recorder)
code = recorder.root("cli.main", pointedge.cli.main, ["eval", *sys.argv[2:4], "--out", sys.argv[4]])
_, problems = spans.self_times(recorder.spans)
print(json.dumps({
    "code": code,
    "calls": Counter(span["layer"] for span in recorder.spans),
    "expected": spans.EXPECTED,
    "problems": problems,
}))
"""


def test_benchmark_tracer_reaches_every_eval_layer(ann_path, tmp_path):
    # Never-zero maps fire on the whole frame at threshold 0, so the
    # whole-frame thinning is traced too.
    preds = write_exact_predictions(tmp_path / "preds", ann_path)
    for path in preds.glob("*.pgm"):
        edges = read_graymap(path).values
        write_graymap(GrayMap(0.05 + 0.95 * edges), path)
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_EVAL, str(root / "bench"), str(ann_path), str(preds),
         str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])  # after the ODS and OIS lines
    assert result["code"] == 0
    eval_layers = [
        layer
        for layer in result["expected"]
        if layer in ("annotations.parse", "pgm.read", "raster.polyline")
        or layer.startswith("metrics.")
    ]
    assert len(eval_layers) == 9
    assert [layer for layer in eval_layers if not result["calls"].get(layer)] == []
    assert result["problems"] == []


UNDECODABLE_JSON = {
    "too-deep": b"[" * 100000 + b"]" * 100000,
    "not-utf-8": b'{"images": [], "annotations": [], "categories": [], "n": "\xff"}',
}


class TestUndecodableJson:
    """JSON the parser cannot decode fails with exit 1 and names the file."""

    @pytest.mark.parametrize("content", sorted(UNDECODABLE_JSON))
    @pytest.mark.parametrize(
        "command, target",
        [("make-targets", "annotations"), ("eval", "annotations"), ("eval", "manifest")],
    )
    def test_exits_1_naming_the_file(
        self, ann_path, tmp_path, capsys, command, target, content
    ):
        preds = write_exact_predictions(tmp_path / "preds", ann_path)
        bad = ann_path if target == "annotations" else preds / "manifest.json"
        bad.write_bytes(UNDECODABLE_JSON[content])
        args = [str(ann_path), str(preds)] if command == "eval" else [str(ann_path)]
        code = main([command, *args, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "Traceback" not in err


# Values that break a field's type or range; none describes an image large
# enough to allocate, so an example costs milliseconds.
FUZZ_VALUES = (
    None, True, -1, 0, 1, 2.5, "x", [], {}, [[0, 0]], 10**40, -1e308,
    float("nan"), float("inf"),
)


def _slots(node):
    """(container, key or index) of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def edited_documents(draw) -> str:
    """ANN_DOC after one to three edits: replace, delete or duplicate a value,
    then maybe cut the text short."""
    doc = json.loads(json.dumps(ANN_DOC))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        edit = draw(st.sampled_from(("replace", "delete", "duplicate")))
        if edit == "replace":
            container[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        elif edit == "delete":
            del container[key]
        elif isinstance(container, list):
            container.append(copy.deepcopy(container[key]))
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


# A message names its record with one of these, or names the file.
RECORD = re.compile(r"\b(image|annotation|instance|category|document|entry)\b")


class TestAnnotationFuzz:
    """Edited annotation documents exit 0, 1 or 2, never with a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        ann = root / "valid.json"
        ann.write_text(json.dumps(ANN_DOC))
        write_exact_predictions(root / "preds", ann)
        return root

    @settings(max_examples=150, deadline=None)
    @given(text=edited_documents())
    # Image 1 and both its annotations deleted: a valid document for which
    # the predictions name an unknown image.
    @example(text=json.dumps(
        {**ANN_DOC, "images": ANN_DOC["images"][1:], "annotations": ANN_DOC["annotations"][2:]}
    ))
    def test_make_targets_and_eval(self, workdir, text):
        path = workdir / "edited.json"
        path.write_text(text)
        try:
            parse_dataset(text)
            valid = True
        except ValueError:
            valid = False
        for args in (
            ["make-targets", str(path)],
            ["eval", str(path), str(workdir / "preds")],
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([*args, "--out", str(workdir / "out")])
            message = err.getvalue()
            assert "Traceback" not in message
            if not valid:
                assert code == 1, message
                assert message.startswith(f"error: {path}: "), message
            elif code:
                assert code in (1, 2), message
                assert message.startswith("error: "), message
                assert str(path) in message or RECORD.search(message), message


class TestLossCheck:
    def test_passes_and_reports(self, tmp_path, capsys):
        code = main(["loss-check", "--trials", "5", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("focal max relative error ")
        assert lines[1].startswith("dice max relative error ")
        assert float(lines[0].rsplit(" ", 1)[1]) < 1e-5
        assert float(lines[1].rsplit(" ", 1)[1]) < 1e-5
        manifest = read_run_manifest(tmp_path)
        assert manifest["command"] == "loss-check"
        assert manifest["config"]["trials"] == 5

    def test_deterministic_output(self, tmp_path, capsys):
        main(["loss-check", "--seed", "3", "--trials", "4", "--out", str(tmp_path)])
        first = capsys.readouterr().out
        main(["loss-check", "--seed", "3", "--trials", "4", "--out", str(tmp_path)])
        assert capsys.readouterr().out == first

    def test_failed_check_exits_1_after_writing_run_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("pointedge.cli.GRADIENT_TOLERANCE", -1.0)
        assert main(["loss-check", "--trials", "1", "--out", str(tmp_path)]) == 1
        assert "gradient check FAILED" in capsys.readouterr().err
        assert read_run_manifest(tmp_path)["config"]["tolerance"] == -1.0

    def test_nan_gradient_fails_the_check(self, tmp_path, capsys, monkeypatch):
        focal = pointedge.cli.penalty_reduced_focal

        def nan_focal(pred, target, cfg):
            res = focal(pred, target, cfg)
            gradient = res.gradient.copy()
            gradient[-1, -1] = np.nan
            return pointedge.LossResult(value=res.value, gradient=gradient)

        monkeypatch.setattr("pointedge.cli.penalty_reduced_focal", nan_focal)
        assert main(["loss-check", "--trials", "3", "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "focal max relative error nan"
        assert "gradient check FAILED" in err

    def test_zero_trials_exits_1(self, tmp_path, capsys):
        assert main(["loss-check", "--trials", "0", "--out", str(tmp_path)]) == 1
        capsys.readouterr()


class TestDemoForward:
    def test_output_shape_and_ranges(self, tmp_path, capsys):
        code = main(["demo-forward", "--out", str(tmp_path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "4 queries (dim 16) over 8 channels -> 4 maps of 32x32"
        stats = [
            re.fullmatch(r"query (\d+): min (\S+) max (\S+) mean (\S+)", line)
            for line in lines[1:5]
        ]
        for i, m in enumerate(stats):
            assert m and int(m.group(1)) == i
            lo, hi, mean = (float(m.group(k)) for k in (2, 3, 4))
            assert 0.0 < lo <= mean <= hi < 1.0
        assert lines[5] == "cross-attention cost per decoder layer:"
        costs = [
            re.fullmatch(r"  1/(\d+): (\d+)x(\d+) \((\d+) tokens\) cost (\d+)", line)
            for line in lines[6:12]
        ]
        assert [int(m.group(1)) for m in costs] == [32, 32, 32, 32, 16, 8]
        values = [int(m.group(5)) for m in costs]
        assert values == sorted(values)
        tokens = [int(m.group(4)) for m in costs]
        assert tokens == [1, 1, 1, 1, 4, 16]
        read_run_manifest(tmp_path)

    def test_deterministic_stdout(self, tmp_path, capsys):
        args = ["demo-forward", "--seed", "11", "--out", str(tmp_path)]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_seed_changes_values(self, tmp_path, capsys):
        main(["demo-forward", "--seed", "1", "--out", str(tmp_path)])
        one = capsys.readouterr().out
        main(["demo-forward", "--seed", "2", "--out", str(tmp_path)])
        assert capsys.readouterr().out != one

    def test_bad_queries_exits_1(self, tmp_path, capsys):
        assert main(["demo-forward", "--queries", "0", "--out", str(tmp_path)]) == 1
        capsys.readouterr()


class TestEntryPoint:
    @pytest.mark.parametrize("command", ["make-targets", "loss-check", "demo-forward"])
    def test_negative_seed_exits_1_naming_the_option(
        self, ann_path, tmp_path, capsys, command
    ):
        args = [command]
        if command == "make-targets":
            args += [str(ann_path), "--ratio", "0.5"]
        out = tmp_path / "o"
        assert main([*args, "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "argument --seed: must be a non-negative integer, got -1" in err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "make-targets" in capsys.readouterr().out

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_module_invocation(self):
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "pointedge", "--help"],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "make-targets" in proc.stdout

"""Command-line surface for target generation, evaluation, and verification.

Four subcommands: ``make-targets`` rasterizes tunnel training targets from an
annotation document, ``eval`` scores per-instance edge predictions,
``loss-check`` verifies the loss gradients against finite differences, and
``demo-forward`` runs the reference decoder heads on seeded random inputs.

Every command is deterministic given identical arguments and exits 0 on
success, 1 on a validation error, and 2 on an I/O error. A command does its
work and returns its exit status with the inputs and configuration it ran
on; :func:`main` then writes them, timed, to ``run.json`` in ``--out``. A
command that stops on an error writes none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import UserDict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .annotations import Dataset, ParseError, _as_int, parse_dataset, subsample_keypoints
from .kernels import (
    FeatureMap,
    QuerySet,
    coef_head,
    cross_attention_cost,
    default_schedule,
    dense_head,
)
from .losses import FocalConfig, dice_loss, finite_diff_check, penalty_reduced_focal
from .metrics import EvalConfig, _annotated, _first_unknown, evaluate
from .pgm import read_graymap, write_graymap
from .raster import TUNNEL_VALUE, GrayMap, TunnelTarget, build_tunnel_target

GRADIENT_TOLERANCE = 1e-5

# A command's exit status, and the inputs and configuration run.json records.
Outcome = tuple[int, dict[str, str], dict[str, object]]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _seed(text: str) -> int:
    # numpy's generators take only non-negative seed material.
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _ratio(text: str) -> float:
    value = float(text)
    if not (0.0 < value <= 1.0):
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _read_dataset(path: str) -> Dataset:
    """Read and parse a UTF-8 annotation document; its errors name the file."""
    try:
        return parse_dataset(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# make-targets
# ---------------------------------------------------------------------------

def cmd_make_targets(args: argparse.Namespace) -> Outcome:
    dataset = _read_dataset(args.annotations)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries: list[dict[str, object]] = []
    for image in dataset.images:
        for inst in image.instances:
            kept = subsample_keypoints(inst, args.ratio, args.seed)
            name = f"{image.image_id}_{inst.instance_id}.pgm"
            try:
                target = build_tunnel_target(kept, image.height, image.width)
                write_graymap(target.map, out / name)
            except (ValueError, MemoryError) as exc:  # an image too large to allocate
                raise ValueError(
                    f"{args.annotations}: image {image.image_id} "
                    f"({image.height}x{image.width}): {exc}"
                ) from exc
            entries.append(
                {
                    "image_id": image.image_id,
                    "instance_id": inst.instance_id,
                    "category_id": inst.category_id,
                    "bbox": list(inst.bbox),
                    "keypoint_count": target.keypoint_count,
                    "file": name,
                }
            )
    (out / "manifest.json").write_text(
        json.dumps({"entries": entries}, indent=1) + "\n"
    )
    print(f"wrote {len(entries)} tunnel targets to {out}")
    config = {"ratio": args.ratio, "seed": args.seed, "tunnel_value": TUNNEL_VALUE}
    return 0, {"annotations": str(args.annotations)}, config


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

class _LazyMaps(UserDict):
    """One image's graymap paths by instance id; looking an id up reads its map.

    Membership, iteration and length use the paths alone and read no file.
    """

    def __getitem__(self, instance_id: int) -> GrayMap:
        return read_graymap(self.data[instance_id])


def _load_predictions(pred_dir: Path, dataset: Dataset) -> dict[int, _LazyMaps]:
    """Read the prediction manifest into per-image maps that read on lookup.

    Checks the manifest's structure, id types, annotated ids, category
    agreement and duplicates, naming the failing entry; :func:`evaluate`
    reads each map when its image is scored. Instances absent from the
    manifest are simply not predicted.
    """
    manifest_path = pred_dir / "manifest.json"
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too deep
        raise ValueError(f"{manifest_path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError(f"{manifest_path}: expected an object with an 'entries' list")
    annotated = _annotated(dataset)
    predictions: dict[int, _LazyMaps] = {}
    for pos, entry in enumerate(doc["entries"]):
        where = f"{manifest_path}: entry {pos}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: not an object")
        for key in ("image_id", "instance_id", "category_id", "bbox", "file"):
            if key not in entry:
                raise ValueError(f"{where}: missing key '{key}'")
        image_id, instance_id, category_id = (
            _as_int(entry[key], where, key)
            for key in ("image_id", "instance_id", "category_id")
        )
        unknown = _first_unknown(annotated, {image_id: (instance_id,)})
        if unknown is not None:
            raise ValueError(
                f"{where}: image_id {image_id} is not an annotated image"
                if unknown[1] is None
                else f"{where}: image {image_id} has no annotated instance_id {instance_id}"
            )
        expected = annotated[image_id][instance_id]
        if category_id != expected:
            raise ValueError(
                f"{where}: category_id {category_id} does not match "
                f"the annotation's {expected}"
            )
        slot = predictions.setdefault(image_id, _LazyMaps())
        if instance_id in slot:
            raise ValueError(
                f"{where}: duplicate prediction for image {image_id} "
                f"instance {instance_id}"
            )
        if not isinstance(entry["file"], str):
            raise ParseError(f"{where}: field 'file' must be a string")
        if os.path.basename(entry["file"]) in ("", ".", "..") or "\0" in entry["file"]:
            raise ParseError(f"{where}: field 'file' must name a file")
        slot[instance_id] = pred_dir / entry["file"]
    return predictions


def cmd_eval(args: argparse.Namespace) -> Outcome:
    dataset = _read_dataset(args.annotations)
    predictions = _load_predictions(Path(args.predictions), dataset)
    cfg = EvalConfig(max_dist_fraction=args.dist_fraction)
    summary = evaluate(predictions, dataset, cfg)
    missing = [
        (image.image_id, inst.instance_id)
        for image in dataset.images
        for inst in image.instances
        if inst.instance_id not in predictions.get(image.image_id, {})
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    annotated = sum(len(image.instances) for image in dataset.images)
    predicted = sum(len(maps) for maps in predictions.values())
    report = [
        "instance edge evaluation",
        f"annotations: {args.annotations}",
        f"predictions: {args.predictions}",
        f"lambda: {cfg.max_dist_fraction!r}",
        f"images: {len(dataset.images)}",
        f"instances annotated: {annotated}",
        f"instances predicted: {predicted}",
        f"missing predictions: {len(missing)}",
        *(f"  image {i} instance {j}" for i, j in missing),
        f"ODS: {summary.ods!r}",
        f"OIS: {summary.ois!r}",
        "curve:",
        *(
            f"  threshold {pt.threshold!r} precision {pt.precision!r} "
            f"recall {pt.recall!r} fscore {pt.fscore!r}"
            for pt in summary.curve
        ),
    ]
    (out / "report.txt").write_text("\n".join(report) + "\n")
    table = ["threshold,precision,recall,fscore"] + [
        f"{pt.threshold!r},{pt.precision!r},{pt.recall!r},{pt.fscore!r}"
        for pt in summary.curve
    ]
    (out / "pr_curve.csv").write_text("\n".join(table) + "\n")
    print(f"ODS {summary.ods:.4f}")
    print(f"OIS {summary.ois:.4f}")
    inputs = {"annotations": str(args.annotations), "predictions": str(args.predictions)}
    thresholds = [pt.threshold for pt in summary.curve]
    config = {"max_dist_fraction": cfg.max_dist_fraction, "thresholds": thresholds}
    return 0, inputs, config


# ---------------------------------------------------------------------------
# loss-check
# ---------------------------------------------------------------------------

def _random_target(rng: np.random.Generator, height: int, width: int) -> TunnelTarget:
    values = rng.choice(
        [0.0, TUNNEL_VALUE, 1.0], size=(height, width), p=[0.6, 0.25, 0.15]
    )
    if not (values == 1.0).any():
        values[rng.integers(height), rng.integers(width)] = 1.0
    return TunnelTarget(GrayMap(values))


def cmd_loss_check(args: argparse.Namespace) -> Outcome:
    rng = np.random.default_rng(args.seed)
    cfg = FocalConfig()
    focal_errors, dice_errors = [], []
    for _ in range(args.trials):
        pred = rng.uniform(0.05, 0.95, size=(5, 5))
        target = _random_target(rng, 5, 5)
        focal_errors.append(
            finite_diff_check(lambda p, t: penalty_reduced_focal(p, t, cfg), pred, target)
        )
        pred = rng.uniform(0.05, 0.95, size=(5, 5))
        gt = (rng.random((5, 5)) < 0.4).astype(np.float64)
        dice_errors.append(finite_diff_check(dice_loss, pred, gt))
    # np.max, unlike max(), propagates a NaN error, which then fails the check.
    worst_focal, worst_dice = float(np.max(focal_errors)), float(np.max(dice_errors))
    print(f"focal max relative error {worst_focal!r}")
    print(f"dice max relative error {worst_dice!r}")
    failed = not (worst_focal <= GRADIENT_TOLERANCE and worst_dice <= GRADIENT_TOLERANCE)
    if failed:
        print("gradient check FAILED", file=sys.stderr)
    return int(failed), {}, {
        "seed": args.seed,
        "trials": args.trials,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "gamma": cfg.gamma,
        "tolerance": GRADIENT_TOLERANCE,
    }


# ---------------------------------------------------------------------------
# demo-forward
# ---------------------------------------------------------------------------

def cmd_demo_forward(args: argparse.Namespace) -> Outcome:
    rng = np.random.default_rng(args.seed)
    queries = QuerySet(rng.standard_normal((args.queries, args.dim)))
    weight = rng.standard_normal((args.dim, args.channels))
    bias = rng.standard_normal(args.channels)
    features = FeatureMap(
        rng.standard_normal((args.channels, args.height, args.width))
    )
    coefs = coef_head(queries, weight, bias)
    maps = dense_head(coefs, features)
    print(
        f"{queries.n} queries (dim {queries.d}) over {features.channels} "
        f"channels -> {len(maps)} maps of {args.height}x{args.width}"
    )
    for i, m in enumerate(maps):
        v = m.values
        print(
            f"query {i}: min {float(v.min())!r} max {float(v.max())!r} "
            f"mean {float(v.mean())!r}"
        )
    print("cross-attention cost per decoder layer:")
    for factor in default_schedule().downsample_factors:
        fh = max(1, args.height // factor)
        fw = max(1, args.width // factor)
        cost = cross_attention_cost(queries.n, queries.d, fh, fw)
        print(f"  1/{factor}: {fh}x{fw} ({fh * fw} tokens) cost {cost}")
    return 0, {}, {
        "queries": args.queries,
        "dim": args.dim,
        "channels": args.channels,
        "height": args.height,
        "width": args.width,
        "seed": args.seed,
    }


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointedge",
        description=(
            "Point-supervised instance edge toolkit: training targets, loss "
            "verification, reference decoder heads, and ODS/OIS evaluation."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "make-targets", help="rasterize tunnel training targets from annotations"
    )
    p.add_argument("annotations", help="annotation document (json)")
    p.add_argument(
        "--out", required=True, help="output directory for graymaps and manifest"
    )
    p.add_argument(
        "--ratio", type=_ratio, default=1.0, help="keypoint keep ratio in (0, 1]"
    )
    p.add_argument("--seed", type=_seed, default=0, help="subsampling seed")
    p.set_defaults(func=cmd_make_targets)

    p = sub.add_parser(
        "eval", help="score per-instance edge predictions against annotations"
    )
    p.add_argument("annotations", help="annotation document (json)")
    p.add_argument(
        "predictions", help="directory holding manifest.json and graymap files"
    )
    p.add_argument("--out", required=True, help="output directory for the report")
    p.add_argument(
        "--lambda",
        dest="dist_fraction",
        type=_fraction,
        default=EvalConfig.max_dist_fraction,
        help="matching distance as a fraction of the image diagonal",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "loss-check", help="verify loss gradients against finite differences"
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--trials", type=_positive_int, default=20, help="random instances per loss"
    )
    p.add_argument("--out", default=".", help="directory for the run manifest")
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser(
        "demo-forward", help="run the reference decoder heads on random inputs"
    )
    p.add_argument(
        "--queries", type=_positive_int, default=4, help="number of object queries"
    )
    p.add_argument("--dim", type=_positive_int, default=16, help="query dimension")
    p.add_argument(
        "--channels", type=_positive_int, default=8, help="feature channels"
    )
    p.add_argument("--height", type=_positive_int, default=32)
    p.add_argument("--width", type=_positive_int, default=32)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=".", help="directory for the run manifest")
    p.set_defaults(func=cmd_demo_forward)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for bad arguments;
        # remap the latter to the documented validation status.
        return 0 if exc.code in (0, None) else 1
    started = time.perf_counter()
    try:
        code, inputs, config = args.func(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        run = {
            "command": args.command,
            "inputs": inputs,
            "config": config,
            "version": __version__,
            "duration_seconds": time.perf_counter() - started,
        }
        (out / "run.json").write_text(json.dumps(run, indent=1) + "\n")
        return code
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

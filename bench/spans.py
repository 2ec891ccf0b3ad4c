"""Span recording around pointedge's public functions, installed from outside.

``install`` replaces each traced function with a wrapper under the
name its caller looks it up by (``pointedge.cli.evaluate``,
``pointedge.metrics.thin``, ...), so no file of the program changes. Each
call records one span: layer name, start, end, the enclosing span, and a
few counts taken from the arguments and result after the span has ended.
Spans stay in memory until the worker sends them with its reply.
"""

from __future__ import annotations

import os
import threading
import time
import tracemalloc
import weakref
from typing import Callable

# Count fields a span may carry; run.py sums each per layer.
COUNTS = ("instances", "bytes", "in_px", "out_px", "gt_nodes", "pred_nodes", "pairs", "macs", "bytes_moved")


def _bits(bitmap) -> int:
    return int(bitmap.bits.sum())


class Recorder:
    """Spans of one process, kept in call order."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        # Maps produced by binarize, so thin can tell them from GT rasters.
        self._binarized: weakref.WeakSet = weakref.WeakSet()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, counts: Callable | None = None, memory: bool = False) -> Callable:
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"layer": layer, "parent": stack[-1] if stack else None}
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            if memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if memory:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            if counts is not None:
                span.update(counts(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as a top-level span named ``layer``."""
        return self.wrap(layer, fn)(*args, **kwargs)

    # -- counters -----------------------------------------------------------

    def binarized(self, args, result) -> dict:
        self._binarized.add(result)
        return {}

    def thinned(self, args, result) -> dict:
        return {
            "in_px": _bits(args[0]),
            "out_px": _bits(result),
            "of_binarized": args[0] in self._binarized,
        }


def _instances(args, result) -> dict:
    return {"instances": sum(len(image.instances) for image in result.images)}


def _read_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _matched(args, result) -> dict:
    return {"gt_nodes": result.gt_total, "pred_nodes": result.pred_total, "pairs": result.matched}


def _dense_cost(args, result) -> dict:
    # Computed from shapes, not measured: one multiply-accumulate per query,
    # channel and pixel; bytes are float64 coefficients and features read
    # once plus the logits written once.
    coefs, features = args
    pixels = features.height * features.width
    return {
        "macs": coefs.n * coefs.f * pixels,
        "bytes_moved": 8 * (coefs.n * coefs.f + coefs.f * pixels + coefs.n * pixels),
    }


def _attention_cost(args, result) -> dict:
    # Computed with the program's own cost model over the keys' token count.
    from pointedge.kernels import cross_attention_cost

    n, d = args[0].shape
    return {"macs": cross_attention_cost(n, d, args[1].shape[0], 1)}


def install(recorder: Recorder) -> None:
    """Wrap every traced layer in place."""
    import pointedge.annotations
    import pointedge.cli
    import pointedge.kernels
    import pointedge.losses
    import pointedge.metrics
    import pointedge.raster

    layers = [
        # (module, attribute, layer, counts, tracemalloc peak)
        (pointedge.cli, "parse_dataset", "annotations.parse", _instances, False),
        (pointedge.cli, "subsample_keypoints", "annotations.subsample", None, False),
        (pointedge.cli, "read_graymap", "pgm.read", _read_bytes, False),
        (pointedge.cli, "write_graymap", "pgm.write", _written_bytes, False),
        (pointedge.cli, "build_tunnel_target", "raster.tunnel", None, False),
        (pointedge.cli, "evaluate", "metrics.evaluate", None, False),
        (pointedge.metrics, "rasterize_polyline", "raster.polyline", None, False),
        (pointedge.metrics, "binarize", "metrics.binarize", recorder.binarized, False),
        (pointedge.metrics, "thin", "metrics.thin", recorder.thinned, False),
        (pointedge.metrics, "match_instance", "metrics.match", _matched, True),
        (pointedge.metrics, "image_pr", "metrics.image_pr", None, False),
        (pointedge.metrics, "fscore", "metrics.fscore", None, False),
        # The train chain calls these through their defining modules.
        (pointedge.annotations, "subsample_keypoints", "annotations.subsample", None, False),
        (pointedge.raster, "build_tunnel_target", "raster.tunnel", None, False),
        (pointedge.kernels, "scaled_dot_attention", "kernels.attention", _attention_cost, False),
        (pointedge.kernels, "coef_head", "kernels.coef", None, False),
        (pointedge.kernels, "dense_head", "kernels.dense", _dense_cost, False),
        (pointedge.losses, "penalty_reduced_focal", "losses.focal", None, False),
        (pointedge.losses, "dice_loss", "losses.dice", None, False),
    ]
    for module, attr, layer, counts, memory in layers:
        setattr(module, attr, recorder.wrap(layer, getattr(module, attr), counts, memory))


# ---------------------------------------------------------------------------
# Analysis (runs in the benchmark's parent process on the spans workers sent)
# ---------------------------------------------------------------------------

# Layers every workload is expected to reach: each runs make-targets, eval
# and the train chain.
EXPECTED = (
    "cli.main",
    "train.image",
    "annotations.parse",
    "annotations.subsample",
    "pgm.read",
    "pgm.write",
    "raster.polyline",
    "raster.tunnel",
    "metrics.evaluate",
    "metrics.binarize",
    "metrics.thin",
    "metrics.match",
    "metrics.image_pr",
    "metrics.fscore",
    "kernels.attention",
    "kernels.coef",
    "kernels.dense",
    "losses.focal",
    "losses.dice",
)


def self_times(spans: list[dict]) -> tuple[list[float], list[str]]:
    """Self time of each span, and every nesting violation found.

    A span's self time is its duration minus the time its direct children
    cover. Children must lie inside their parent and must not overlap each
    other; otherwise a violation is reported.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(i)
    selfs, problems = [], []
    for i, span in enumerate(spans):
        covered = 0.0
        last_end = span["start"]
        for c in children.get(i, ()):
            child = spans[c]
            if child["start"] < last_end or child["end"] > span["end"]:
                problems.append(f"span {c} ({child['layer']}) is not nested inside span {i} ({span['layer']})")
            covered += child["end"] - child["start"]
            last_end = child["end"]
        selfs.append(span["end"] - span["start"] - covered)
    return selfs, problems


def root_sums(spans: list[dict], selfs: list[float]) -> list[dict]:
    """For each root span, its duration against the sum of self times below it."""
    root_of: list[int] = []
    for i, span in enumerate(spans):
        root_of.append(i if span["parent"] is None else root_of[span["parent"]])
    total: dict[int, float] = {}
    for i, s in enumerate(selfs):
        total[root_of[i]] = total.get(root_of[i], 0.0) + s
    return [
        {
            "root": spans[r]["layer"],
            "span_s": spans[r]["end"] - spans[r]["start"],
            "self_sum_s": total[r],
        }
        for r in sorted(total)
    ]

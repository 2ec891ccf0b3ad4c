"""pointedge benchmark: seeded BSDS-shaped workloads, end to end and per layer.

    python3 bench/run.py --workload eval-noisy --seed 3 --seconds 30 --trace 0

Run from anywhere inside a source checkout (``src/pointedge`` next to this
directory); nothing needs installing or downloading. The inputs are written
from ``--seed`` into ``.bench_work/`` and removed afterwards.

Every workload runs, in rounds until ``--seconds`` have passed, the three
things a user of pointedge does, each kind in its own worker process (see
worker.py): ``pointedge make-targets --ratio 0.5`` on the workload's
annotations, ``pointedge eval`` on its predictions, and the train chain
(tunnel targets, decoder attention, heads and both losses with gradients)
on its train images. The workloads differ in what they feed these (see
README.md for why each exists):

* ``eval-noisy``: eval on noisy detector-like maps, where thinning dominates.
* ``selfcheck``: eval on make-targets' own tunnels, where matching dominates.
* ``train-step``: the train chain over six images.

Every timing is divided by a slowdown: the median time of a fixed
calibration task (see worker.py) over ``CALIB_REFERENCE_S``. The task runs
in each operation's worker before and after every batch of that operation,
and each operation's timings are divided by its own workers' slowdown;
``setup_s`` by the median over all workers. The host's speed drifts by tens
of percent over minutes and moves every timing of a run together; the
calibration moves with it, so the quotient is steadier. Timings are thus
seconds at the reference speed; the raw medians are in the ``info`` line.

Every output is checked (see ``check_*``); a failed check counts in
``failed``. Seeds pinned in ``golden.json`` are also compared with the
pinned ODS/OIS, report digests and losses.

With ``--trace 0`` the last line carries the end-to-end metrics, measured
with no tracing. With ``--trace 1`` untraced rounds alternate with
traced ones (layers wrapped by ``spans.py``, in their own workers), and the
last line carries the per-layer metrics of the traced rounds, after a
coverage check of the spans.
``--pin N`` instead runs seeds 0..N-1 of every workload once and writes
their outputs to ``golden.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"

import spans
import workloads

BLAS_THREADS = "1"
# The calibration task's typical median time on the 2-vCPU VM the
# benchmark was tuned on: timings are reported at that speed.
CALIB_REFERENCE_S = 0.09
RUN_LIMIT_S = 170  # a run gives up on its workers after this long
LOSS_RTOL = 1e-9  # train-step losses against golden.json
CURVE_ROWS = 20  # pointedge's default threshold sweep
# OIS >= ODS up to this tolerance, as acceptance criterion 5 states it: the
# two are means summed in different orders and can differ in the last bit
# when every image's best threshold is the shared one.
OIS_TOLERANCE = 1e-12
TUNNEL_SAMPLES = {0, 45874, 65535}  # 0, 0.7 and 1.0 as 16-bit samples

END_TO_END_UNITS = {
    "setup_s": "s",
    "eval_s": "s",
    "eval_peak_rss_mib": "MiB",
    "make_targets_s": "s",
    "make_targets_peak_rss_mib": "MiB",
    "train_step_s": "s",
    "train_peak_rss_mib": "MiB",
}

# Per-layer metrics of a traced run. The *_macs and *_bytes counts are
# computed from array shapes, not measured.
LAYER_UNITS = {
    "annotations.parse_s": "s",
    "annotations.instances": "count",
    "annotations.subsample_s": "s",
    "pgm.read_s": "s",
    "pgm.read_mib": "MiB",
    "pgm.write_s": "s",
    "pgm.write_mib": "MiB",
    "raster.polyline_s": "s",
    "raster.polyline_calls": "count",
    "raster.tunnel_s": "s",
    "metrics.binarize_s": "s",
    "metrics.thin_s": "s",
    "metrics.thin_calls": "count",
    "metrics.thin_in_px": "count",
    "metrics.thin_out_px": "count",
    "metrics.thin_per_map": "ratio",
    "metrics.match_s": "s",
    "metrics.match_calls": "count",
    "metrics.match_gt_nodes": "count",
    "metrics.match_pred_nodes": "count",
    "metrics.match_pairs": "count",
    "metrics.match_peak_mib": "MiB",
    "metrics.reduce_s": "s",
    "metrics.evaluate_self_s": "s",
    "losses.focal_s": "s",
    "losses.dice_s": "s",
    "kernels.attention_s": "s",
    "kernels.coef_s": "s",
    "kernels.dense_s": "s",
    "kernels.dense_macs": "macs_computed",
    "kernels.dense_bytes": "bytes_computed",
    "kernels.attention_macs": "macs_computed",
    "cli.self_s": "s",
    "train.self_s": "s",
    "trace.eval_overhead_s": "s",
    "src.pointedge_lines": "count",
}


class Failures:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        if not ok:
            self.reasons.append(reason)
            print(f"FAILED: {reason}", file=sys.stderr)
        return ok


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "pointedge").glob("*.py")))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class WorkerError(RuntimeError):
    """A worker died or stopped answering."""


class Worker:
    """A process serving one kind of operation (see worker.py)."""

    def __init__(self, work: Path, name: str, op: list[str], deadline: float, traced: bool = False) -> None:
        self.name = name
        self.deadline = deadline
        self.stderr_path = work / f"{name}.stderr"
        self.stderr = self.stderr_path.open("w")
        cmd = [sys.executable, str(BENCH / "worker.py")] + (["--trace"] if traced else []) + op
        self.proc = subprocess.Popen(
            cmd, cwd=work, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True,
        )
        try:
            self.ready = self._reply()
        except WorkerError:
            self.stop()
            raise

    def _reply(self) -> dict:
        timeout = max(0.0, self.deadline - time.monotonic())
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            tail = self.stderr_path.read_text().strip().splitlines()[-1:]
            raise WorkerError(f"{self.name} worker gave no reply: {tail}")
        return json.loads(line)

    def run(self) -> dict:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return self._reply()

    def calibrate(self) -> float:
        self.proc.stdin.write("calibrate\n")
        self.proc.stdin.flush()
        return self._reply()["calib_s"]

    def close(self) -> dict:
        """End the worker; return its final record (peak RSS)."""
        self.proc.stdin.close()
        final = self._reply()
        self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        return final

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.stderr.close()


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def read_pgm16(path: Path):
    """Shape and samples of a 16-bit P5 graymap, read without pointedge."""
    data = path.read_bytes()
    fields = data.split(maxsplit=4)
    if fields[0] != b"P5" or fields[3] != b"65535":
        raise ValueError(f"{path.name}: not a 16-bit P5 graymap")
    width, height = int(fields[1]), int(fields[2])
    samples = np.frombuffer(data[-2 * width * height:], dtype=">u2")
    return [height, width], samples


def check_targets(work: Path, doc: dict, fail: Failures) -> str | None:
    """make-targets wrote one valid tunnel target per instance; return its digest."""
    out = work / "targets"
    manifest_path = out / "manifest.json"
    if not fail.check(manifest_path.exists(), "make-targets wrote no manifest"):
        return None
    entries = json.loads(manifest_path.read_text())["entries"]
    if not fail.check(len(entries) == len(doc["annotations"]), "make-targets: one target per instance"):
        return None
    digest = hashlib.sha256(manifest_path.read_bytes())
    for entry in entries:
        path = out / entry["file"]
        shape, samples = read_pgm16(path)
        values = set(np.unique(samples).tolist())
        ok = (
            shape == [workloads.HEIGHT, workloads.WIDTH]
            and values <= TUNNEL_SAMPLES
            and int((samples == 65535).sum()) == entry["keypoint_count"]
        )
        if not fail.check(ok, f"make-targets: {entry['file']} is not a tunnel target"):
            return None
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_eval(work: Path, fail: Failures) -> dict | None:
    """eval wrote a well-formed report; return ODS, OIS and the report digests."""
    report, curve = work / "report" / "report.txt", work / "report" / "pr_curve.csv"
    if not fail.check(report.exists() and curve.exists(), "eval wrote no report"):
        return None
    scores = {}
    for line in report.read_text().splitlines():
        key, _, value = line.partition(": ")
        if key in ("ODS", "OIS"):
            scores[key.lower()] = float(value)
    rows = curve.read_text().splitlines()
    ok = (
        set(scores) == {"ods", "ois"}
        and 0.0 <= scores["ods"] <= scores["ois"] + OIS_TOLERANCE
        and scores["ois"] <= 1.0
        and len(rows) == CURVE_ROWS + 1
    )
    if not fail.check(ok, f"eval: malformed report or OIS < ODS ({scores})"):
        return None
    return scores | {"report_sha256": sha256_file(report), "pr_curve_sha256": sha256_file(curve)}


def check_train(result: dict, doc: dict, fail: Failures) -> list | None:
    values = result.get("losses")
    ok = values is not None and len(values) == len(doc["images"]) and all(
        len(image) == workloads.INSTANCES_PER_IMAGE
        and all(math.isfinite(f) and f >= 0.0 and 0.0 <= d <= 1.0 for f, d in image)
        for image in values
    )
    return values if fail.check(ok, f"train: bad losses {values}") else None


def same_losses(a: list, b: list) -> bool:
    flat_a = [v for image in a for pair in image for v in pair]
    flat_b = [v for image in b for pair in image for v in pair]
    return len(flat_a) == len(flat_b) and all(math.isclose(x, y, rel_tol=LOSS_RTOL) for x, y in zip(flat_a, flat_b))


# ---------------------------------------------------------------------------
# Rounds: make-targets, eval, train chain
# ---------------------------------------------------------------------------

# Each operation's peak RSS is reported as f"{op}_peak_rss_mib".
OPS = ("make_targets", "eval", "train")
# The operation behind each timing metric but setup_s.
TIMED_OPS = {"eval_s": "eval", "make_targets_s": "make_targets", "train_step_s": "train"}


def operations(workload: str, seed: int) -> dict[str, list[str]]:
    predictions = "predictions" if workloads.WORKLOADS[workload]["predictions"] == "noisy" else "targets"
    return {
        "make_targets": ["cli", "make-targets", "annotations.json", "--out", "targets",
                         "--ratio", repr(workloads.TARGET_RATIO), "--seed", str(seed)],
        "eval": ["cli", "eval", "annotations.json", predictions, "--out", "report"],
        "train": ["train", "train.json", str(seed)],
    }


class Phase:
    """Rounds of the three operations, untraced or traced."""

    def __init__(self, workload: str, seed: int, work: Path, traced: bool, fail: Failures, deadline: float) -> None:
        self.workload, self.seed, self.work, self.traced, self.fail = workload, seed, work, traced, fail
        self.deadline = deadline
        self.doc = json.loads((work / "annotations.json").read_text())
        self.train_doc = json.loads((work / "train.json").read_text())
        self.samples: dict[str, list[float]] = {op: [] for op in OPS}
        self.setup: list[float] = []
        self.calib: dict[str, list[float]] = {op: [] for op in OPS}
        self.peak_rss: dict[str, list[float]] = {op: [] for op in OPS}
        self.outputs: list[dict] = []
        self.spans: list[dict] = []
        self.workers: dict[str, Worker] = {}

    def start(self) -> None:
        # One at a time, so set-up times do not compete for the cores.
        for op, argv in operations(self.workload, self.seed).items():
            name = f"{op}.traced" if self.traced else op
            worker = self.workers[op] = Worker(self.work, name, argv, self.deadline, self.traced)
            self.setup.append(worker.ready["setup_s"])
            self.fail.check(worker.ready["pointedge_file"].startswith(str(SRC)),
                            f"pointedge imported from {worker.ready['pointedge_file']}")

    def round(self) -> None:
        """Run each operation's batch in workers started for this round only.

        A process's speed depends on where its memory and CPU happen to
        land; fresh workers every round put that variation inside the run,
        where the medians take it out, and give a set-up sample each. Like
        a pointedge command, every batch starts in a fresh process.
        """
        self.start()
        try:
            self._batches()
        finally:
            self.close()

    def _batches(self) -> None:
        # A traced round runs each operation once, so its counts are per round.
        repeats = {op: 1 for op in OPS} if self.traced else workloads.WORKLOADS[self.workload]["repeat"]
        outputs, round_spans = {}, {}
        for op in OPS:
            if not self.traced:
                self.calib[op].append(self.workers[op].calibrate())
            ok = True
            for _ in range(repeats[op]):
                self.fail.attempted += len(self.train_doc["images"]) if op == "train" else 1
                result = self.workers[op].run()
                if not self.fail.check(result["exit"] == 0, f"{op}: exit {result['exit']} {result.get('error', '')}"):
                    ok = False
                    continue
                self.samples[op] += result.get("image_seconds", [result["seconds"]])
                round_spans[op] = result.get("spans", [])
            if not self.traced:
                self.calib[op].append(self.workers[op].calibrate())
            if not ok:
                continue
            if op == "make_targets":
                outputs["targets_sha256"] = check_targets(self.work, self.doc, self.fail)
            elif op == "eval":
                outputs["eval"] = check_eval(self.work, self.fail)
            else:
                outputs["train_losses"] = check_train(result, self.train_doc, self.fail)
        self.outputs.append(outputs)
        self.spans.append(round_spans)

    def close(self) -> None:
        try:
            for op, worker in self.workers.items():
                self.peak_rss[op].append(worker.close()["peak_rss_mib"])
        finally:
            for worker in self.workers.values():
                worker.stop()
            self.workers = {}


def run_phases(workload: str, seed: int, work: Path, traced: tuple[bool, ...], seconds: float,
               fail: Failures) -> list[Phase]:
    """Alternate rounds of each phase until ``seconds`` have passed (at least one each)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    phases = [Phase(workload, seed, work, t, fail, deadline) for t in traced]
    start = time.perf_counter()
    while True:
        for phase in phases:
            phase.round()
        if time.perf_counter() - start >= seconds:
            break
    return phases


def compare_rounds(outputs: list[dict], fail: Failures) -> dict:
    """Every round must give the same outputs; return the first round's."""
    first = outputs[0]
    for out in outputs[1:]:
        fail.check(out.get("targets_sha256") == first.get("targets_sha256"), "make-targets output differs between rounds")
        fail.check(out.get("eval") == first.get("eval"), "eval report differs between rounds")
        a, b = out.get("train_losses"), first.get("train_losses")
        fail.check(a is not None and b is not None and same_losses(a, b), "train losses differ between rounds")
    return first


def compare_golden(workload: str, seed: int, outputs: dict, fail: Failures) -> str:
    pinned = json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed)) if GOLDEN.exists() else None
    if pinned is None:
        return "unpinned"
    fail.attempted += 3
    fail.check(outputs.get("targets_sha256") == pinned["targets_sha256"], "make-targets differs from golden.json")
    fail.check(outputs.get("eval") == pinned["eval"], f"eval differs from golden.json: {outputs.get('eval')}")
    losses = outputs.get("train_losses")
    fail.check(losses is not None and same_losses(losses, pinned["train_losses"]), "train losses differ from golden.json")
    return "pinned"


def thin_digests(work: Path) -> dict:
    worker = Worker(work, "thin", ["thin"], time.monotonic() + RUN_LIMIT_S)
    try:
        result = worker.run()
        worker.close()
    finally:
        worker.stop()
    return result


def check_thin_digests(work: Path, fail: Failures) -> None:
    result = thin_digests(work)
    pinned = json.loads(GOLDEN.read_text())["thin_digests"] if GOLDEN.exists() else {}
    fail.attempted += max(1, len(pinned))
    if not fail.check(result["exit"] == 0, f"thin digests: {result.get('error')}"):
        return
    for key, digest in pinned.items():
        fail.check(result["digests"].get(key) == digest, f"thin output for map {key} differs from golden.json")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw median timings and the slowdown behind them."""
    samples = {
        "setup_s": phase.setup,
        "eval_s": phase.samples["eval"],
        "make_targets_s": phase.samples["make_targets"],
        "train_step_s": phase.samples["train"],
    }
    raw = {name: statistics.median(v) for name, v in samples.items() if v}
    slowdown = {name: statistics.median(phase.calib[op]) / CALIB_REFERENCE_S for name, op in TIMED_OPS.items()}
    slowdown["setup_s"] = statistics.median(c for op in OPS for c in phase.calib[op]) / CALIB_REFERENCE_S
    metrics = {name: value / slowdown[name] for name, value in raw.items()}
    for op, mibs in phase.peak_rss.items():
        if mibs:
            metrics[f"{op}_peak_rss_mib"] = statistics.median(mibs)
    return metrics, {"medians": raw, "slowdown": slowdown, "calib_samples": {op: len(c) for op, c in phase.calib.items()}}


def layer_metrics(round_spans: dict) -> dict:
    """Per-layer totals of one traced round, from the spans of its operations."""
    totals: dict[str, float] = {}
    counts: dict[str, float] = {}
    match_peak = 0
    thin_of_binarized = 0
    for spans_of_op in round_spans.values():
        selfs, _ = spans.self_times(spans_of_op)
        for span, self_s in zip(spans_of_op, selfs):
            layer = span["layer"]
            totals[layer] = totals.get(layer, 0.0) + self_s
            counts[layer] = counts.get(layer, 0) + 1
            for key in spans.COUNTS:
                if key in span:
                    counts[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0) + span[key]
            match_peak = max(match_peak, span.get("peak_bytes", 0))
            thin_of_binarized += bool(span.get("of_binarized"))
    mib = 1024 * 1024
    return {
        "annotations.parse_s": totals.get("annotations.parse", 0.0),
        "annotations.instances": counts.get("annotations.parse.instances", 0),
        "annotations.subsample_s": totals.get("annotations.subsample", 0.0),
        "pgm.read_s": totals.get("pgm.read", 0.0),
        "pgm.read_mib": counts.get("pgm.read.bytes", 0) / mib,
        "pgm.write_s": totals.get("pgm.write", 0.0),
        "pgm.write_mib": counts.get("pgm.write.bytes", 0) / mib,
        "raster.polyline_s": totals.get("raster.polyline", 0.0),
        "raster.polyline_calls": counts.get("raster.polyline", 0),
        "raster.tunnel_s": totals.get("raster.tunnel", 0.0),
        "metrics.binarize_s": totals.get("metrics.binarize", 0.0),
        "metrics.thin_s": totals.get("metrics.thin", 0.0),
        "metrics.thin_calls": counts.get("metrics.thin", 0),
        "metrics.thin_in_px": counts.get("metrics.thin.in_px", 0),
        "metrics.thin_out_px": counts.get("metrics.thin.out_px", 0),
        "metrics.thin_per_map": thin_of_binarized / max(1, counts.get("metrics.binarize", 0)),
        "metrics.match_s": totals.get("metrics.match", 0.0),
        "metrics.match_calls": counts.get("metrics.match", 0),
        "metrics.match_gt_nodes": counts.get("metrics.match.gt_nodes", 0),
        "metrics.match_pred_nodes": counts.get("metrics.match.pred_nodes", 0),
        "metrics.match_pairs": counts.get("metrics.match.pairs", 0),
        "metrics.match_peak_mib": match_peak / mib,
        "metrics.reduce_s": totals.get("metrics.image_pr", 0.0) + totals.get("metrics.fscore", 0.0),
        "metrics.evaluate_self_s": totals.get("metrics.evaluate", 0.0),
        "losses.focal_s": totals.get("losses.focal", 0.0),
        "losses.dice_s": totals.get("losses.dice", 0.0),
        "kernels.attention_s": totals.get("kernels.attention", 0.0),
        "kernels.coef_s": totals.get("kernels.coef", 0.0),
        "kernels.dense_s": totals.get("kernels.dense", 0.0),
        "kernels.dense_macs": counts.get("kernels.dense.macs", 0),
        "kernels.dense_bytes": counts.get("kernels.dense.bytes_moved", 0),
        "kernels.attention_macs": counts.get("kernels.attention.macs", 0),
        "cli.self_s": totals.get("cli.main", 0.0),
        "train.self_s": totals.get("train.image", 0.0),
    }


def coverage(round_spans: dict, fail: Failures) -> dict:
    """Every expected layer recorded calls; self times add up to each root span."""
    calls: dict[str, int] = {}
    sums = []
    for op, spans_of_op in round_spans.items():
        selfs, problems = spans.self_times(spans_of_op)
        for problem in problems:
            fail.check(False, f"trace: {op}: {problem}")
        for span in spans_of_op:
            calls[span["layer"]] = calls.get(span["layer"], 0) + 1
        for entry in spans.root_sums(spans_of_op, selfs):
            residual = entry["span_s"] - entry["self_sum_s"]
            fail.check(abs(residual) < 1e-6, f"trace: {op}: self times miss {residual} s of {entry['root']}")
            sums.append(entry | {"op": op, "residual_s": residual})
    missing = [layer for layer in spans.EXPECTED if calls.get(layer, 0) == 0]
    fail.check(not missing, f"coverage: layers with zero calls: {missing}")
    by_root: dict[str, dict] = {}
    for entry in sums:
        agg = by_root.setdefault(f"{entry['op']}:{entry['root']}", {"span_s": 0.0, "self_sum_s": 0.0, "count": 0})
        agg["span_s"] += entry["span_s"]
        agg["self_sum_s"] += entry["self_sum_s"]
        agg["count"] += 1
    return {"calls": calls, "missing": missing, "roots": by_root}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:  # other runs still have their inputs there
        pass


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One benchmark run; prints the info line and the result line."""
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    fail = Failures()
    info: dict = {"workload": workload, "seed": seed, "blas_threads": int(BLAS_THREADS),
                  "src_pointedge_lines": src_lines()}
    metrics: dict = {}
    layers: dict = {}
    try:
        workloads.write_inputs(workload, seed, work)
        if workload == "eval-noisy":
            check_thin_digests(work, fail)
        # With tracing, untraced rounds alternate with traced ones: they are
        # the baseline of the tracing overhead.
        phases = run_phases(workload, seed, work, (False, True) if trace else (False,), seconds, fail)
        plain = phases[0]
        metrics, info["raw"] = end_to_end(plain)
        info["rounds"] = len(plain.outputs)
        info["samples"] = {op: len(v) for op, v in plain.samples.items()} | {"setup": len(plain.setup)}
        if trace:
            traced = phases[1]
            info["traced_rounds"] = len(traced.outputs)
            info["coverage"] = coverage(traced.spans[0], fail)
            per_round = [layer_metrics(round_spans) for round_spans in traced.spans]
            layers = {k: statistics.median(p[k] for p in per_round) for k in per_round[0]}
            traced_eval = statistics.median(traced.samples["eval"])
            layers["trace.eval_overhead_s"] = traced_eval - info["raw"]["medians"]["eval_s"]
            layers["src.pointedge_lines"] = info["src_pointedge_lines"]
            info["share_of_traced_eval"] = {k: layers[k] / traced_eval for k in ("metrics.thin_s", "metrics.match_s")}
        outputs = compare_rounds([out for phase in phases for out in phase.outputs], fail)
        info["golden"] = compare_golden(workload, seed, outputs, fail)
        info["outputs"] = {k: v for k, v in outputs.items() if k != "train_losses"}
    except WorkerError as exc:
        fail.check(False, str(exc))
    finally:
        remove_work(work)
    if trace:
        report = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        report = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    failed = len(fail.reasons)
    info["failed_frac"] = failed / max(1, fail.attempted)
    info["failures"] = fail.reasons
    print(json.dumps({"info": info}))
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in report.values())
    print(json.dumps({"correct": correct, "attempted": max(1, fail.attempted), "failed": failed, "metrics": report}))
    return 0


def pin(count: int) -> int:
    """Record outputs of seeds 0..count-1 of every workload in golden.json."""
    golden: dict = {}
    for workload in workloads.WORKLOADS:
        golden[workload] = {}
        for seed in range(count):
            work = ROOT / ".bench_work" / f"pin-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            fail = Failures()
            try:
                workloads.write_inputs(workload, seed, work)
                outputs = run_phases(workload, seed, work, (False,), 0.0, fail)[0].outputs[0]
                if workload == "eval-noisy" and "thin_digests" not in golden:
                    golden["thin_digests"] = thin_digests(work)["digests"]
            finally:
                remove_work(work)
            if fail.reasons:
                print(f"{workload} seed {seed}: {fail.reasons}", file=sys.stderr)
                return 1
            golden[workload][str(seed)] = outputs
            print(f"pinned {workload} seed {seed}: {outputs.get('eval')}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", type=int, metavar="N", help="pin seeds 0..N-1 in golden.json and exit")
    args = parser.parse_args()
    if not (SRC / "pointedge" / "__init__.py").is_file():
        print(f"error: no pointedge sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.pin is not None:
        return pin(args.pin)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())

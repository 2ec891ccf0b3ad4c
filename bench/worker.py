"""One kind of benchmark operation, served from its own interpreter.

    python3 bench/worker.py [--trace] OP ARG...

OP is ``cli`` (ARGs are a pointedge command line), ``train`` (ARGs are an
annotation document and a seed: the train chain on each of its images),
``thin`` (no ARGs: digests of ``thin`` on the fixed set of binarized
eval-noisy maps named in workloads.py).

The worker first times its set-up, importing pointedge and running
``pointedge --version`` (timed inside the interpreter, so interpreter
start-up is excluded; only the standard library is imported before), and
prints it as one JSON line. Then each line on standard input runs the
operation once and prints one JSON line with its seconds and what the
correctness checks need; the line ``calibrate`` instead runs the
calibration task once and prints its seconds. At end of input it prints its
peak RSS and exits.
Each kind of operation has its own worker, so the peak RSS is that
operation's own.

With ``--trace`` the layers are wrapped first (see spans.py) and every
reply also carries the spans of its run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _setup() -> float:
    start = time.perf_counter()
    import pointedge.cli

    with contextlib.redirect_stdout(io.StringIO()):
        pointedge.cli.main(["--version"])
    return time.perf_counter() - start


def _cli(recorder, args: list[str]):
    import pointedge.cli

    def run() -> dict:
        # The command's own printing is not part of the protocol.
        with contextlib.redirect_stdout(io.StringIO()):
            if recorder is None:
                code = pointedge.cli.main(args)
            else:
                code = recorder.root("cli.main", pointedge.cli.main, args)
        return {"exit": code}

    return run


def _train(recorder, doc_path: str, seed: int):
    import numpy as np

    from pointedge import annotations, kernels, losses, raster
    from pointedge.annotations import parse_dataset

    import workloads

    dataset = parse_dataset(Path(doc_path).read_text())
    factors = kernels.default_schedule().downsample_factors

    def chain(image, tensors, features):
        targets = [
            raster.build_tunnel_target(
                annotations.subsample_keypoints(inst, workloads.TARGET_RATIO, seed), image.height, image.width
            )
            for inst in image.instances
        ]
        x = tensors["queries"]
        for tokens in tensors["tokens"]:
            out, _ = kernels.scaled_dot_attention(x, tokens, tokens)
            x = x + out
        coefs = kernels.coef_head(kernels.QuerySet(x), tensors["weight"], tensors["bias"])
        maps = kernels.dense_head(coefs, features)
        result = []
        for pred, target in zip(maps, targets):
            focal = losses.penalty_reduced_focal(pred, target)
            dice = losses.dice_loss(pred, target.map)
            if not (np.isfinite(focal.gradient).all() and np.isfinite(dice.gradient).all()):
                raise ValueError("non-finite loss gradient")
            result.append([focal.value, dice.value])
        return result

    def run() -> dict:
        seconds, values = [], []
        for index, image in enumerate(dataset.images):
            # Generating the inputs is not part of the timed chain.
            tensors = workloads.train_tensors(seed, index, factors)
            features = kernels.FeatureMap(tensors.pop("features"))
            start = time.perf_counter()
            if recorder is None:
                values.append(chain(image, tensors, features))
            else:
                values.append(recorder.root("train.image", chain, image, tensors, features))
            seconds.append(time.perf_counter() - start)
            del tensors, features
        return {"exit": 0, "image_seconds": seconds, "losses": values}

    return run


def _thin_digests():
    import numpy as np

    from pointedge.metrics import binarize, thin
    from pointedge.raster import GrayMap

    import workloads

    def run() -> dict:
        spec = workloads.WORKLOADS["eval-noisy"]
        digests = {}
        for seed in workloads.THIN_DIGEST_SEEDS:
            doc = workloads.annotation_doc(seed, 1, spec["images"], spec["radius"])
            poly = workloads.polygons(doc)[0]
            samples = workloads.to_samples(workloads.noisy_prediction(workloads.map_rng(seed, 0), poly))
            graymap = GrayMap(samples.astype(np.float64) / 65535)
            for t in workloads.THIN_DIGEST_THRESHOLDS:
                bits = thin(binarize(graymap, t)).bits
                digest = hashlib.sha256(np.packbits(bits).tobytes() + repr(bits.shape).encode()).hexdigest()
                digests[f"{seed}@{t!r}"] = digest
        return {"exit": 0, "digests": digests}

    return run


def _calibrate():
    """A fixed task like pointedge's array work, on an image of its size.

    numpy and scipy passes over one 321x481 image (a filter, a comparison,
    a sort), as the thinning, rasterizing and loss code makes. Of the kinds
    of task tried (interpreter loops, small matrix products, passes over a
    40 MiB tensor, graymap-sized file writes), this one's time followed the
    drift of all three operations' times best. It never calls pointedge, so
    a change to the program cannot change it. It runs in the operation's
    own process, so on the CPU and with the memory layout the operation
    gets, and its arrays (a few MiB) stay below every operation's own peak
    RSS. run.py divides the operation's timings by its median.
    """
    import numpy as np
    from scipy import ndimage

    image = np.random.default_rng(0).random((321, 481))

    def run() -> float:
        start = time.perf_counter()
        total = 0
        for _ in range(28):
            smooth = ndimage.uniform_filter(image, 5)
            total += int(((image > 0.5) & (smooth < 0.6)).sum()) + int(np.sort(smooth, axis=None)[0] > 2)
        return time.perf_counter() - start

    return run


def main(argv: list[str]) -> int:
    protocol = sys.stdout

    def reply(record: dict) -> None:
        protocol.write(json.dumps(record) + "\n")
        protocol.flush()

    traced = argv[0] == "--trace"
    if traced:
        argv = argv[1:]
    op, args = argv[0], argv[1:]
    setup_s = _setup()

    import pointedge

    recorder = None
    if traced:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    if op == "cli":
        run = _cli(recorder, args)
    elif op == "train":
        run = _train(recorder, args[0], int(args[1]))
    elif op == "thin":
        run = _thin_digests()
    else:
        raise SystemExit(f"unknown operation {op!r}")
    reply({"setup_s": setup_s, "pointedge_file": pointedge.__file__})

    calibrate = None
    for line in sys.stdin:
        if line.strip() == "calibrate":
            if calibrate is None:
                calibrate = _calibrate()
                calibrate()  # the first call pays for lazy set-up in numpy and scipy
            reply({"calib_s": calibrate()})
            continue
        start = time.perf_counter()
        try:
            record = run()
        except Exception as exc:  # reported to the parent, which counts it failed
            record = {"exit": None, "error": f"{type(exc).__name__}: {exc}"}
        record["seconds"] = time.perf_counter() - start
        if recorder is not None:
            record["spans"] = recorder.spans
            recorder.spans = []
        reply(record)
    reply({"peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

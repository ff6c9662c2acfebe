#!/usr/bin/env python3
"""Generate a large synthetic sequence and measure pipeline throughput.

Reports per-frame latency of the full projection window (alignment +
binning + height images + residuals) and of student inference (``bench``,
single-threaded), then runs ``export-logits`` with a seeded teacher over
the same sequence on ``--threads`` workers and prints ``export_fps``: the
exported frames per second of the whole command, loading and projection
included, measured on the second of two exports.

Usage:
    python3 scripts/throughput_bench.py --points 130000 --frames 10 --threads 2
"""

import os

# One BLAS thread, as perfbench/run.py pins it: BLAS threads on top of the
# export pool oversubscribe the cores.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from mosdistill import nnet, pipeline  # noqa: E402
from mosdistill.cli import main as cli_main  # noqa: E402
from mosdistill.config import RunConfig  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=130000, help="points per frame")
    parser.add_argument("--frames", type=int, default=10, help="timed frames")
    parser.add_argument("--threads", type=int, default=1, help="export-logits workers")
    args = parser.parse_args()

    n_static = max(args.points - 250, 0)  # discs contribute the remainder
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        seq = data / "sequences" / "00"
        code = cli_main(
            [
                "synth-gen",
                "--out",
                str(data),
                "--set",
                "scene.n_frames=11",  # 4 full 8-frame windows
                "--set",
                f"scene.n_static={n_static}",
            ]
        )
        if code != 0:
            return code
        code = cli_main(["bench", "--seq", str(seq), "--frames", str(args.frames)])
        if code != 0:
            return code
        cfg = RunConfig.defaults()
        ckpt = Path(tmp) / "teacher.ckpt"
        teacher = nnet.build_network(
            pipeline.teacher_descriptor(cfg), seed=cfg.get_int("train.seed")
        )
        nnet.save_checkpoint(ckpt, teacher)
        logits = Path(tmp) / "logits"
        argv = ["export-logits", "--ckpt", str(ckpt), "--seq", str(seq)]
        argv += ["--out", str(logits), "--threads", str(args.threads)]
        # one untimed export first: the first run of a process also pays the
        # allocator's warm-up, which a long sequence amortises
        for _ in range(2):
            t0 = time.perf_counter()
            code = cli_main(argv)
            seconds = time.perf_counter() - t0
            if code != 0:
                return code
        print(f"export_fps={len(list(logits.glob('*.logits'))) / seconds}")
        return 0


if __name__ == "__main__":
    sys.exit(main())

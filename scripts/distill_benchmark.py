#!/usr/bin/env python3
"""Run the desk-scale distillation benchmark and print a result table.

Per seed, trains a baseline student (segmentation loss only), a distilled
student (weighted decoupled class distillation from a synthetic teacher),
and an all-classes-TCKD variant, then scores held-out moving-class IoU.

Usage:
    python3 scripts/distill_benchmark.py --seeds 5 --epochs 30
"""

import argparse
import sys
import time

from mosdistill import experiments
from mosdistill.cli import positive_int


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=positive_int, default=5, help="number of seeds")
    parser.add_argument(
        "--epochs", type=positive_int, default=experiments.DEFAULT_EPOCHS, help="epochs per run"
    )
    args = parser.parse_args()

    t0 = time.perf_counter()
    outcomes = experiments.run_distill_benchmark(
        seeds=range(args.seeds), epochs=args.epochs, progress=print
    )
    elapsed = time.perf_counter() - t0

    print()
    print(f"{'seed':>4}  {'baseline':>8}  {'wdcd':>8}  {'dkd_all':>8}  {'gain':>7}")
    for o in outcomes:
        gain = o.moving_iou["wdcd"] - o.moving_iou["baseline"]
        print(
            f"{o.seed:>4}  {o.moving_iou['baseline']:>8.4f}  "
            f"{o.moving_iou['wdcd']:>8.4f}  {o.moving_iou['dkd_all']:>8.4f}  "
            f"{gain * 100:>+6.1f}p"
        )
    s = experiments.summarize(outcomes)
    print(
        f"{'mean':>4}  {s['baseline']:>8.4f}  {s['wdcd']:>8.4f}  "
        f"{s['dkd_all']:>8.4f}  {(s['wdcd'] - s['baseline']) * 100:>+6.1f}p"
    )
    print(f"\nworst paired gain: {s['min_paired_gain'] * 100:+.1f} IoU points")
    print(f"total time: {elapsed:.0f}s")

    ok = (
        s["wdcd"] - s["baseline"] >= 0.02
        and s["min_paired_gain"] >= -0.005
        and s["wdcd"] >= s["dkd_all"] - 0.005
    )
    print("verdict:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
